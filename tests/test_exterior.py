import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vancal import exterior
from vancal.exterior import (
    ORACLE_DOMINANCE_TOL,
    AlternatingTensor,
    ComassReport,
    PluckerWorkspace,
    _batched_plucker,
    _comass_rows,
    _interior_table,
    _plane_values,
    _wedge_table,
    FormField,
    closedness_order,
    comass,
    comass_oracle,
    comass_oracle_refined,
    constant_form_field,
    evaluate,
    finite_difference_exterior_derivative,
    interior_product,
    multi_indices,
    n_coefficients,
    wedge,
)


def basis(N, idx):
    return AlternatingTensor.basis(N, idx)


def random_tensor(N, k, rng):
    return AlternatingTensor(N, k, rng.standard_normal(n_coefficients(N, k)))


def random_frame(N, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((N, k)))
    return q.T


def signed_basis_sum(N, terms):
    out = AlternatingTensor.zero(N, len(terms[0][1]))
    for sign, idx in terms:
        out = out + sign * basis(N, idx)
    return out


def associative_form():
    """e123 + e145 + e167 + e246 - e257 - e347 - e356 on R^7."""
    return signed_basis_sum(7, [
        (1, (0, 1, 2)), (1, (0, 3, 4)), (1, (0, 5, 6)), (1, (1, 3, 5)),
        (-1, (1, 4, 6)), (-1, (2, 3, 6)), (-1, (2, 4, 5)),
    ])


def special_lagrangian_form():
    """Re dz1^dz2^dz3 on R^6 with axes (x1, y1, x2, y2, x3, y3)."""
    return signed_basis_sum(6, [
        (1, (0, 2, 4)), (-1, (0, 3, 5)), (-1, (1, 2, 5)), (-1, (1, 3, 4)),
    ])


def half_kahler_square():
    """omega^2 / 2 on R^8 for omega = dx1^dy1 + .. + dx4^dy4."""
    omega = signed_basis_sum(8, [(1, (2 * i, 2 * i + 1)) for i in range(4)])
    return 0.5 * wedge(omega, omega)


def converged_comass(u):
    """comass(u), failing the test if any start did not converge."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return comass(u)


# (N, k) with 1 <= k <= N <= 6, and a seed for numpy
dims_and_seed = st.tuples(
    st.integers(1, 6).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N))),
    st.integers(0, 2**32 - 1),
)


# -- wedge -------------------------------------------------------------------


def test_wedge_basis_case():
    u = wedge(basis(4, (0,)), basis(4, (1,)))
    expected = np.zeros(6)
    expected[multi_indices(4, 2).index((0, 1))] = 1.0
    assert np.array_equal(u.coefficients, expected)


def test_wedge_antisymmetry_basis():
    u = wedge(basis(4, (1,)), basis(4, (0,)))
    assert u.coefficients[multi_indices(4, 2).index((0, 1))] == -1.0


def test_wedge_bilinear_hand_expansion():
    # (dx1 + dx2) ^ (dx1 - dx2) = -dx1^dx2 + dx2^dx1 = -2 e12
    dx1, dx2 = basis(2, (0,)), basis(2, (1,))
    u = wedge(dx1 + dx2, dx1 - dx2)
    assert np.array_equal(u.coefficients, np.array([-2.0]))


def test_wedge_graded_anticommutative_exact():
    rng = np.random.default_rng(0)
    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        N = 6
        u = random_tensor(N, ka, rng)
        v = random_tensor(N, kb, rng)
        sign = (-1.0) ** (ka * kb)
        assert np.array_equal(
            wedge(u, v).coefficients, sign * wedge(v, u).coefficients
        )


def test_wedge_associative():
    rng = np.random.default_rng(1)
    N = 6
    u, v, w = (random_tensor(N, 1, rng) for _ in range(3))
    left = wedge(wedge(u, v), w)
    right = wedge(u, wedge(v, w))
    assert np.allclose(left.coefficients, right.coefficients, atol=1e-14)


def test_wedge_errors():
    with pytest.raises(ValueError, match="mismatch"):
        wedge(basis(4, (0,)), basis(5, (0,)))
    with pytest.raises(ValueError, match="overflow"):
        wedge(basis(2, (0, 1)), basis(2, (0,)))


# -- interior product ----------------------------------------------------------


def test_interior_basis_cases():
    e12 = basis(4, (0, 1))
    assert np.array_equal(
        interior_product([1, 0, 0, 0], e12).coefficients, basis(4, (1,)).coefficients
    )
    assert np.all(interior_product([0, 0, 1, 0], e12).coefficients == 0.0)


def test_interior_antiderivation():
    rng = np.random.default_rng(2)
    N = 5
    u = random_tensor(N, 2, rng)
    v = random_tensor(N, 1, rng)
    w = rng.standard_normal(N)
    left = interior_product(w, wedge(u, v))
    right = wedge(interior_product(w, u), v) + wedge(u, interior_product(w, v))
    assert np.allclose(left.coefficients, right.coefficients, atol=1e-13)


def explicit_psi_bar(x):
    """(1/n)(x_1 dx_2^..^dx_n - x_2 dx_1^dx_3^..^dx_n + ...), the alternating sum."""
    n = len(x)
    coeff = np.zeros(n_coefficients(n, n - 1))
    mis = multi_indices(n, n - 1)
    for j in range(n):
        idx = tuple(i for i in range(n) if i != j)
        coeff[mis.index(idx)] += ((-1.0) ** j) * x[j] / n
    return AlternatingTensor(n, n - 1, coeff)


def test_interior_radial_contraction_matches_alternating_sum():
    # r * i_{x/r}(dx_1^..^dx_n) / n equals the explicit alternating formula
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        x = rng.standard_normal(n)
        r = np.linalg.norm(x)
        vol = AlternatingTensor.basis(n, tuple(range(n)))
        contracted = (r / n) * interior_product(x / r, vol)
        assert np.allclose(
            contracted.coefficients, explicit_psi_bar(x).coefficients, atol=1e-14
        )


def test_interior_degree_zero_rejected():
    with pytest.raises(ValueError, match="degree"):
        interior_product([1.0, 0.0], AlternatingTensor.scalar(2, 1.0))


def loop_interior_table(N, degree):
    """The interior table built index by index: removing slot j of e_I gives sign (-1)^j."""
    out_positions = {idx: pos for pos, idx in enumerate(multi_indices(N, degree - 1))}
    rows = []
    for p, idx in enumerate(multi_indices(N, degree)):
        for j, axis in enumerate(idx):
            reduced = idx[:j] + idx[j + 1 :]
            rows.append((out_positions[reduced], p, axis, -1.0 if j % 2 else 1.0))
    rows.sort(key=lambda row: row[:2])
    return (
        np.array([r[1] for r in rows], dtype=np.intp),
        np.array([r[2] for r in rows], dtype=np.intp),
        np.array([r[0] for r in rows], dtype=np.intp),
        np.array([r[3] for r in rows], dtype=float),
    )


@pytest.mark.parametrize("N", range(1, 10))
def test_interior_table_is_the_regrouped_wedge_table(N):
    # i_{e_a} e_I = s e_J exactly when e_a ^ e_J = s e_I
    for degree in range(1, N + 1):
        table = _interior_table(N, degree)
        for got, expected in zip(table, loop_interior_table(N, degree), strict=True):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


# -- evaluation -----------------------------------------------------------------


def test_evaluate_dual_basis_and_orientation():
    e12 = basis(4, (0, 1))
    frame = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    assert evaluate(e12, frame) == 1.0
    assert evaluate(e12, frame[::-1]) == -1.0


def test_evaluate_rotated_sum_hand_determinants():
    # (e12 + e34) on ((e1+e3)/sqrt2, (e2+e4)/sqrt2):
    # det over columns (1,2) = 1/2, det over columns (3,4) = 1/2, total 1
    u = basis(4, (0, 1)) + basis(4, (2, 3))
    frame = np.array([[1, 0, 1, 0], [0, 1, 0, 1]]) / math.sqrt(2)
    assert abs(evaluate(u, frame) - 1.0) < 1e-14


def test_evaluate_invariant_under_oriented_reframing():
    rng = np.random.default_rng(4)
    N, k = 6, 3
    u = random_tensor(N, k, rng)
    frame = random_frame(N, k, rng)
    # orientation-preserving rotation within the same plane
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    if np.linalg.det(q) < 0:
        q[0] *= -1.0
    reframed = q @ frame
    assert abs(evaluate(u, frame) - evaluate(u, reframed)) < 1e-12


def test_evaluate_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        evaluate(basis(4, (0, 1)), np.eye(4)[:3])


@pytest.mark.parametrize("N", [1, 2, 3, 5, 7])
def test_batched_plucker_matches_determinants_of_minors(N):
    rng = np.random.default_rng(N)
    for k in sorted({0, 1, N // 2, N}):
        frames = rng.standard_normal((5, k, N))
        expected = np.array([
            [np.linalg.det(frame[:, list(idx)]) if k else 1.0
             for idx in multi_indices(N, k)]
            for frame in frames
        ])
        assert np.allclose(_batched_plucker(frames, N, k), expected, rtol=0.0, atol=1e-13)


def einsum_plucker(frames, N, k):
    """The frame-major einsum Pluecker kernel: each level sums signed (S, M, j) products."""
    if k == 0:
        return np.ones((frames.shape[0], 1))
    plucker = frames[:, 0, :].copy()
    for j in range(2, k + 1):
        faces, axes, _, signs = _wedge_table(N, j - 1, 1)
        shape = (n_coefficients(N, j), j)
        plucker = np.einsum(
            "smj,smj,mj->sm",
            plucker[:, faces.reshape(shape)],
            frames[:, j - 1, axes.reshape(shape)],
            signs.reshape(shape),
        )
    return plucker


@pytest.mark.parametrize("N", range(1, 10))
def test_batched_plucker_is_bit_identical_to_einsum_reference(N):
    # the coefficient-major kernel adds the same products in the same order,
    # in a workspace of its own or in one reused across calls of every k and S
    rng = np.random.default_rng(100 + N)
    workspace = PluckerWorkspace(N, N, 300)
    for k in range(N + 1):
        for S in (1, 7, 300):
            contiguous = rng.standard_normal((S, k, N))
            swapped = np.swapaxes(rng.standard_normal((S, N, k)), 1, 2)
            for frames in (contiguous, swapped):
                expected = einsum_plucker(frames, N, k)
                for plucker in (_batched_plucker(frames, N, k),
                                _batched_plucker(frames, N, k, workspace)):
                    assert plucker.shape == (S, n_coefficients(N, k))
                    assert np.array_equal(plucker, expected)


@pytest.mark.parametrize("N, k", [(5, 2), (7, 3), (8, 4)])
def test_batched_plucker_workspace_leaks_nothing_into_a_smaller_call(N, k):
    # a large call leaves its levels in the buffers; a smaller one must not read them
    rng = np.random.default_rng(N * k)
    workspace = PluckerWorkspace(N, k, 300)
    for S in (300, 7, 300, 1):
        frames = rng.standard_normal((S, k, N))
        plucker = _batched_plucker(frames, N, k, workspace)
        assert np.array_equal(plucker, einsum_plucker(frames, N, k))
        assert np.shares_memory(plucker, workspace.levels[k % 2])


def test_batched_plucker_rejects_a_workspace_too_small():
    frames = np.zeros((8, 3, 6))
    for workspace in (PluckerWorkspace(6, 3, 7), PluckerWorkspace(6, 2, 8),
                      PluckerWorkspace(7, 3, 8)):
        with pytest.raises(ValueError, match="cannot hold"):
            _batched_plucker(frames, 6, 3, workspace)


# -- comass ----------------------------------------------------------------------


def test_comass_battery_trivial():
    assert abs(comass(basis(4, (0, 1))) - 1.0) < 1e-9
    assert abs(comass(AlternatingTensor.from_covector([1.0, 1.0])) - math.sqrt(2)) < 1e-9


def test_comass_sum_of_disjoint_simple_forms():
    # brute-force oracle with local refinement is the independent route
    u = basis(4, (0, 1)) + basis(4, (2, 3))
    opt = comass(u)
    oracle = comass_oracle_refined(u, 200_000, 7)
    assert abs(opt - 1.0) < 1e-7
    assert abs(opt - oracle) < 1e-6


def test_comass_scalar_and_zero():
    assert comass(AlternatingTensor.scalar(3, -2.5)) == 2.5
    assert comass(AlternatingTensor.zero(4, 2)) == 0.0


def test_comass_top_degree():
    u = 3.0 * basis(3, (0, 1, 2))
    assert abs(comass(u) - 3.0) < 1e-9


def test_comass_absolute_homogeneity():
    rng = np.random.default_rng(8)
    for _ in range(5):
        N, k = 5, 2
        u = random_tensor(N, k, rng)
        c = float(rng.uniform(-3.0, 3.0))
        base = comass(u, multistarts=24)
        scaled = comass(c * u, multistarts=24)
        assert abs(scaled - abs(c) * base) <= 1e-8 * max(1.0, abs(c) * base)


def test_comass_dominates_evaluations_and_oracle():
    rng = np.random.default_rng(9)
    for N, k in [(4, 2), (5, 2), (6, 3)]:
        u = random_tensor(N, k, rng)
        value = comass(u, multistarts=32)
        for _ in range(50):
            assert value >= evaluate(u, random_frame(N, k, rng)) - 1e-9
        assert value >= comass_oracle(u, 20_000, 11) - 1e-6


def test_comass_of_orthogonal_factor_products():
    # 100 random simple tensors: comass equals the product of factor norms
    rng = np.random.default_rng(10)
    for trial in range(100):
        N = int(rng.integers(3, 7))
        k = int(rng.integers(2, min(N, 3) + 1))
        q, _ = np.linalg.qr(rng.standard_normal((N, k)))
        norms = rng.uniform(0.3, 2.5, size=k)
        tensor = AlternatingTensor.scalar(N, 1.0)
        for i in range(k):
            tensor = wedge(tensor, AlternatingTensor(N, 1, q[:, i] * norms[i]))
        expected = float(np.prod(norms))
        measured = comass(tensor, multistarts=16, seed=trial)
        assert abs(measured - expected) <= 1e-7 * max(1.0, expected), (
            trial, N, k, measured, expected
        )


@pytest.mark.parametrize(
    "form", [associative_form, special_lagrangian_form, half_kahler_square]
)
def test_comass_one_calibrations(form):
    # non-simple forms of comass exactly 1 (Harvey & Lawson 1982)
    u = form()
    assert abs(converged_comass(u) - 1.0) <= 1e-12
    assert comass_oracle(u, 20_000, 0) <= 1.0


def test_comass_warns_when_starts_do_not_converge():
    u = random_tensor(6, 3, np.random.default_rng(14))
    with pytest.warns(RuntimeWarning, match="did not converge"):
        comass(u, max_iter=1)


def comass_stacks():
    """(N, k, rows) stacks: random rows, then a zero row and the first row times 1e3."""
    rng = np.random.default_rng(29)
    stacks = {
        "(6,3)": (6, 3, rng.standard_normal((4, 20))),
        "(7,4)": (7, 4, rng.standard_normal((4, 35))),
        "associative": (7, 3, associative_form().coefficients[None]),
        "omega^2/2": (8, 4, half_kahler_square().coefficients[None]),
    }
    return {name: (N, k, np.vstack([rows, np.zeros(rows.shape[1]), 1e3 * rows[0]]))
            for name, (N, k, rows) in stacks.items()}


@pytest.mark.parametrize("name", list(comass_stacks()))
def test_comass_rows_equal_one_row_calls(name):
    # each start's path does not depend on the other rows' starts
    N, k, rows = comass_stacks()[name]
    values, unconverged = _comass_rows(rows, N, k, 24, 1e-12, seed=5)
    assert values.shape == (len(rows),) and unconverged == 0
    assert values[-2] == 0.0
    for row, value in zip(rows, values):
        alone = comass(AlternatingTensor(N, k, row), 24, 1e-12, seed=5)
        assert abs(value - alone) <= 1e-15 * max(1.0, np.linalg.norm(row))


def test_comass_rows_of_an_empty_stack_and_degree_zero():
    values, unconverged = _comass_rows(np.zeros((0, 20)), 6, 3, 24, 1e-12, seed=0)
    assert values.shape == (0,) and unconverged == 0
    values, unconverged = _comass_rows(np.array([[-2.5], [0.0]]), 3, 0, 24, 1e-12, seed=0)
    assert values.tolist() == [2.5, 0.0] and unconverged == 0


def test_comass_rows_count_the_starts_that_do_not_converge():
    rows = np.random.default_rng(14).standard_normal((3, 20))
    rows[1] = 0.0  # a zero row has no start to run
    with pytest.warns(RuntimeWarning, match="of 48 starts did not converge") as caught:
        _, unconverged = _comass_rows(rows, 6, 3, 24, 1e-12, seed=0, max_iter=1)
    assert len(caught) == 1
    assert 0 < unconverged <= 48
    assert str(caught[0].message).startswith(f"comass: {unconverged} of 48")
    with pytest.raises(ValueError, match="multistarts"):
        _comass_rows(rows, 6, 3, 0, 1e-12, seed=0)
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol"):
            _comass_rows(rows, 6, 3, 24, tol, seed=0)


def orthogonal_matrix(N, rng):
    q, r = np.linalg.qr(rng.standard_normal((N, N)))
    return q * np.sign(np.diagonal(r))


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(dims_and_seed)
def test_comass_invariant_under_orthogonal_change_of_basis(case):
    (N, k), seed = case
    rng = np.random.default_rng(seed)
    u = random_tensor(N, k, rng)
    q = orthogonal_matrix(N, rng)
    # (u o q)(e_J) = u(q e_j1, .., q e_jk)
    pulled = AlternatingTensor(
        N, k, [evaluate(u, q[:, list(idx)].T) for idx in multi_indices(N, k)]
    )
    assert converged_comass(pulled) == pytest.approx(converged_comass(u), rel=1e-9)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(dims_and_seed)
def test_comass_at_most_norm_with_equality_on_simple_forms(case):
    (N, k), seed = case
    rng = np.random.default_rng(seed)
    u = random_tensor(N, k, rng)
    assert converged_comass(u) <= u.norm * (1.0 + 1e-12)
    q = orthogonal_matrix(N, rng)
    simple = AlternatingTensor.scalar(N, 1.0)
    for i in range(k):
        simple = wedge(simple, AlternatingTensor(N, 1, q[:, i] * rng.uniform(0.3, 2.5)))
    assert converged_comass(simple) == pytest.approx(simple.norm, rel=1e-9)


@st.composite
def wedge_factors(draw, count):
    """Ambient dimension, `count` degrees summing to at most it, and a seed."""
    N = draw(st.integers(1, 6))
    degrees = []
    for _ in range(count):
        degrees.append(draw(st.integers(0, N - sum(degrees))))
    return N, degrees, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(wedge_factors(2))
def test_wedge_graded_anticommutative_property(case):
    N, (p, q), seed = case
    rng = np.random.default_rng(seed)
    a, b = random_tensor(N, p, rng), random_tensor(N, q, rng)
    assert np.array_equal(wedge(a, b).coefficients, (-1) ** (p * q) * wedge(b, a).coefficients)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(wedge_factors(3))
def test_wedge_associative_property(case):
    N, (p, q, r), seed = case
    rng = np.random.default_rng(seed)
    a, b, c = (random_tensor(N, k, rng) for k in (p, q, r))
    np.testing.assert_allclose(wedge(wedge(a, b), c).coefficients,
                               wedge(a, wedge(b, c)).coefficients, rtol=0, atol=1e-12)


def test_comass_oracle_deterministic_and_covering():
    u = basis(4, (0, 1))
    a = comass_oracle(u, 100_000, 123)
    b = comass_oracle(u, 100_000, 123)
    assert a == b
    big = comass_oracle(u, 1_000_000, 0)
    assert 1.0 - 1e-3 <= big <= 1.0
    assert comass_oracle(u + basis(4, (2, 3)), 1_000_000, 0) >= 1.0 - 1e-3
    assert comass_oracle(AlternatingTensor.zero(4, 2), 100, 0) == 0.0


def test_comass_oracle_never_exceeds_simple_value():
    rng = np.random.default_rng(12)
    u = random_tensor(5, 2, rng)
    value = comass(u, multistarts=48)
    assert comass_oracle(u, 50_000, 5) <= value + 1e-9


def _qr_rows(mats):
    q, r = np.linalg.qr(mats)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return np.swapaxes(q * signs[:, None, :], 1, 2)


def reference_oracle(u, samples, seed, refine):
    """The QR sampling oracle: orthonormalize every Gaussian sample and proposal.

    Draws from the generator in the same order as ``comass_oracle`` and
    ``comass_oracle_refined``, in one pass of all samples.
    """
    N, k = u.ambient_dim, u.degree
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((samples, N, k))
    frames = _qr_rows(mats) if k else np.zeros((samples, 0, N))
    values = np.abs(_batched_plucker(frames, N, k) @ u.coefficients)
    j = int(np.argmax(values))
    val, frame = float(values[j]), frames[j]
    if not refine or k == 0 or u.is_zero():
        return val
    sigma = 0.3
    for _ in range(64):
        cand = _qr_rows(sigma * rng.standard_normal((128, N, k)) + frame.T[None, :, :])
        vals = np.abs(_batched_plucker(cand, N, k) @ u.coefficients)
        j = int(np.argmax(vals))
        if vals[j] > val:
            val, frame = float(vals[j]), cand[j]
        else:
            sigma *= 0.6
            if sigma < 1e-14:
                break
    return val


ORACLE_FORMS = {
    "associative": associative_form,
    "special-lagrangian": special_lagrangian_form,
    "kahler-square": half_kahler_square,
    "generic": lambda: AlternatingTensor(6, 3, np.random.default_rng(2022).standard_normal(20)),
    "covector": lambda: AlternatingTensor.from_covector([1.0, -2.0, 0.5]),
    "zero": lambda: AlternatingTensor.zero(5, 2),
    "top-degree": lambda: 3.0 * basis(4, (0, 1, 2, 3)),
}


@pytest.mark.parametrize("name", list(ORACLE_FORMS))
def test_comass_oracle_matches_qr_reference(name):
    u = ORACLE_FORMS[name]()
    for seed in (0, 7):
        assert comass_oracle(u, 20_000, seed) == pytest.approx(
            reference_oracle(u, 20_000, seed, refine=False), rel=0, abs=1e-14)
        assert comass_oracle_refined(u, 5_000, seed) == pytest.approx(
            reference_oracle(u, 5_000, seed, refine=True), rel=0, abs=1e-14)


@pytest.mark.parametrize("name, value", [
    ("associative", 0.9954681685850475),
    ("special-lagrangian", 0.9991123478685934),
    ("kahler-square", 0.9556713261707269),
    ("generic", 5.036117117659592),
])
def test_comass_oracle_values_are_pinned(name, value):
    # the battery forms' 20 000-sample values, to the last bit
    assert comass_oracle(ORACLE_FORMS[name](), 20_000, 0) == value


def test_comass_oracle_scores_every_chunk_in_one_workspace(monkeypatch):
    workspaces = []

    def spy(frames, ambient_dim, degree, workspace=None):
        workspaces.append(workspace)
        return _batched_plucker(frames, ambient_dim, degree, workspace)

    monkeypatch.setattr(exterior, "_batched_plucker", spy)
    comass_oracle(half_kahler_square(), 5 * exterior.PLANE_CHUNK // 2, 3)
    assert len(workspaces) == 3
    assert isinstance(workspaces[0], PluckerWorkspace)
    assert all(w is workspaces[0] for w in workspaces)


def test_comass_oracle_does_not_depend_on_the_chunk_size(monkeypatch):
    u = half_kahler_square()
    samples = 5 * exterior.PLANE_CHUNK // 2
    chunked = comass_oracle(u, samples, 3), comass_oracle_refined(u, samples, 3)
    monkeypatch.setattr(exterior, "PLANE_CHUNK", 1 << 20)
    assert (comass_oracle(u, samples, 3), comass_oracle_refined(u, samples, 3)) == chunked


def test_plane_values_score_rank_deficient_frames_zero():
    u = special_lagrangian_form()
    frames = np.random.default_rng(4).standard_normal((2, 3, 6))
    frames[0, 2] = 0.0  # spans no 3-plane: its Pluecker vector is exactly 0
    values = _plane_values(frames, u.coefficients[None])
    q = np.linalg.qr(frames[1].T)[0].T
    assert values[0] == 0.0
    assert values[1] == pytest.approx(abs(evaluate(u, q)), abs=1e-14)
    assert int(np.argmax(values)) == 1


def test_plane_values_score_each_run_of_frames_with_its_own_tensor():
    rng = np.random.default_rng(5)
    N, k, runs, run = 6, 3, 4, 25
    tensors = rng.standard_normal((runs, n_coefficients(N, k)))
    frames = rng.standard_normal((runs * run, k, N))
    grouped = _plane_values(frames, tensors)
    one_by_one = [_plane_values(frames[g * run : (g + 1) * run], tensors[g][None])
                  for g in range(runs)]
    assert np.array_equal(grouped, np.concatenate(one_by_one))
    for j, frame in enumerate(frames):
        u = AlternatingTensor(N, k, tensors[j // run])
        q = np.linalg.qr(frame.T)[0].T
        assert grouped[j] == pytest.approx(abs(evaluate(u, q)), rel=1e-12, abs=1e-14)


def test_comass_oracle_memory_is_bounded():
    # one 200 000-sample pass of omega^2/2 in R^8 held 360 MiB of Pluecker gathers
    u = half_kahler_square()
    tracemalloc.start()
    try:
        comass_oracle(u, 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_comass_rejects_bad_multistarts_and_tol():
    u = basis(4, (0, 1))
    with pytest.raises(ValueError, match="multistarts"):
        comass(u, multistarts=0)
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol"):
            comass(u, tol=tol)


def test_comass_report_accepts_dominance_at_exactly_the_tolerance():
    rep = ComassReport(comass=1.0 - ORACLE_DOMINANCE_TOL, oracle=1.0)
    dominates, value, oracle = rep.checks()
    assert dominates.name == "optimizer_dominates_oracle" and dominates.passed
    assert (dominates.measured, dominates.threshold, dominates.tolerance) == (
        1.0 - ORACLE_DOMINANCE_TOL, 1.0, ORACLE_DOMINANCE_TOL)
    assert (value.name, value.measured, oracle.name, oracle.measured) == (
        "comass", 1.0 - ORACLE_DOMINANCE_TOL, "oracle", 1.0)
    assert rep.passed


def test_comass_report_fails_an_oracle_above_the_comass():
    rep = ComassReport(comass=1.0, oracle=1.0 + 2 * ORACLE_DOMINANCE_TOL)
    assert [(c.name, c.passed) for c in rep.checks()] == [
        ("optimizer_dominates_oracle", False), ("comass", True), ("oracle", True)]
    assert not rep.passed


# -- finite-difference exterior derivative -----------------------------------------


def test_fd_derivative_of_constant_form_vanishes():
    field = constant_form_field(basis(3, (0,)))
    d = finite_difference_exterior_derivative(field, np.array([0.3, -0.2, 0.9]), 1e-3)
    assert np.all(np.abs(d.coefficients) < 1e-12)


def test_fd_derivative_linear_coefficient():
    # d(x1 dx2) = dx1 ^ dx2, exact for central differences on linear data
    def coefficients(points):
        coeff = np.zeros((len(points), 3))
        coeff[:, 1] = points[:, 0]
        return coeff

    field = FormField(3, 1, coefficients)
    d = finite_difference_exterior_derivative(field, np.array([0.4, 1.2, -0.3]), 1e-3)
    expected = basis(3, (0, 1))
    assert np.allclose(d.coefficients, expected.coefficients, atol=1e-10)


def test_fd_derivative_second_order_convergence():
    # F = sin(x2) dx1: dF = cos(x2) dx2 ^ dx1 = -cos(x2) dx1^dx2; O(h^2) residual
    def coefficients(points):
        coeff = np.zeros((len(points), 3))
        coeff[:, 0] = np.sin(points[:, 1])
        return coeff

    field = FormField(3, 1, coefficients)
    p = np.array([0.2, 0.7, -0.1])
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        d = finite_difference_exterior_derivative(field, p, h)
        exact = np.zeros(3)
        exact[multi_indices(3, 2).index((0, 1))] = -math.cos(p[1])
        errors.append(np.abs(d.coefficients - exact).max())
    order = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errors), 1)[0]
    assert order > 1.9


def test_fd_derivative_respects_singular_margin():
    field = FormField(
        2,
        1,
        lambda p: p,
        singular_locus_descriptor=lambda p, margin=0.0: np.linalg.norm(p, axis=1) <= margin,
    )
    with pytest.raises(ValueError, match="singular"):
        finite_difference_exterior_derivative(field, np.array([0.001, 0.0]), 1e-2)
    # one stencil near the singular point among several
    with pytest.raises(ValueError, match="singular"):
        closedness_order(field, np.array([[1.0, 0.5], [0.001, 0.0], [0.7, -0.2]]))


def test_closedness_residuals_match_per_point_loop():
    # F = sin(x2) x3 dx1 + x1^2 dx3 in R^3, not closed
    def coefficients(points):
        coeff = np.zeros((len(points), 3))
        coeff[:, 0] = np.sin(points[:, 1]) * points[:, 2]
        coeff[:, 2] = points[:, 0] ** 2
        return coeff

    field = FormField(3, 1, coefficients)
    points = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, 3))
    h_values = (1e-2, 5e-3, 2.5e-3)
    _, _, residuals = closedness_order(field, points, h_values)
    for i, p in enumerate(points):
        for j, h in enumerate(h_values):
            d = np.zeros(3)
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h
                partial = (field.evaluator(p + step).coefficients
                           - field.evaluator(p - step).coefficients) / (2 * h)
                d += wedge(basis(3, (axis,)), AlternatingTensor(3, 1, partial)).coefficients
            assert residuals[i, j] == pytest.approx(np.linalg.norm(d), rel=1e-14)


def test_closedness_order_flags_exactly_closed_fields():
    field = constant_form_field(basis(3, (0, 1)))
    max_res, order, _ = closedness_order(field, np.array([[0.1, 0.2, 0.3]]))
    assert max_res < 1e-12
    assert math.isinf(order)


# -- tensor plumbing ------------------------------------------------------------


def test_tensor_validation():
    with pytest.raises(ValueError, match="coefficients"):
        AlternatingTensor(4, 2, np.zeros(5))
    with pytest.raises(ValueError, match="degree"):
        AlternatingTensor(3, 4, np.zeros(1))
    with pytest.raises(ValueError, match="ambient"):
        AlternatingTensor(17, 1, np.zeros(17))


def test_tensor_norm_bounds_comass():
    rng = np.random.default_rng(13)
    u = random_tensor(5, 2, rng)
    assert comass(u, multistarts=32) <= u.norm + 1e-9
