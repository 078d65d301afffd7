import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from vancal import calibration, exterior
from vancal.calibration import (
    CalibrationReport,
    adapted_wedge_coordinates,
    angle_budget,
    build_vanishing_calibration,
    coordinate_plane_sum,
    covector_volume,
    psi_bar,
    scaled_calibration,
    sum_pair_calibration,
    verify_calibration,
    verify_pair_calibration,
)
from vancal.coords import WedgeCoordinates, squared_norms
from vancal.cutoff import CutoffParams, make_params
from vancal.exterior import (
    FD_STEPS,
    STENCIL_CLEARANCE,
    AlternatingTensor,
    closedness_order,
    comass,
    comass_oracle,
    comass_oracle_refined,
    evaluate,
    finite_difference_exterior_derivative,
    interior_product,
    multi_indices,
    wedge,
)
from vancal.retraction import RetractionMap
from vancal.subspaces import (
    OrientedSubspace,
    coordinate_plane,
    intersect_and_split,
    rotated_plane_pair,
)


def forced_params(n: int, a: float) -> CutoffParams:
    """The cutoff of family parameter a without the admissibility check (negative controls)."""
    return CutoffParams.forced(n, n * (n - 2) / a)


@pytest.fixture(scope="module")
def cal():
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    return build_vanishing_calibration(params, coords)


STANDARD_REGION = ([0.5] * 3 + [-1.0] * 3, [1.5] * 3 + [1.0] * 3)


# -- psi_bar -------------------------------------------------------------------


def test_psi_bar_direct_substitution_n2():
    coords = WedgeCoordinates.from_axes(4, (0, 1), (2, 3))
    value = psi_bar(coords, np.array([1.0, 0.0, 0.7, -0.3]))
    # (1/2)(x1 dx2 - x2 dx1) at (1, 0) is dx2 / 2
    expected = 0.5 * AlternatingTensor.basis(4, (1,))
    assert value.allclose(expected, atol=1e-15)


def test_psi_bar_exterior_derivative_is_volume_form():
    coords = WedgeCoordinates.from_axes(5, (0, 1, 2), (3, 4))
    from vancal.exterior import FormField

    field = FormField(5, 2, lambda pts: np.array([psi_bar(coords, p).coefficients for p in pts]),
                      singular_locus_descriptor=lambda p, margin=0.0: coords.r(p) <= margin)
    rng = np.random.default_rng(0)
    vol_index = multi_indices(5, 3).index((0, 1, 2))
    for _ in range(5):
        p = rng.uniform(0.3, 1.2, size=5)
        d = finite_difference_exterior_derivative(field, p, 1e-3)
        expected = np.zeros(10)
        expected[vol_index] = 1.0
        assert np.allclose(d.coefficients, expected, atol=1e-5)


def test_psi_bar_sphere_frame_value():
    # (n/r) psi_bar is dual to the tangent planes of spheres r = const
    coords = WedgeCoordinates.from_axes(4, (0, 1, 2), (3,))
    r = 1.7
    p = np.array([r, 0.0, 0.0, 0.4])
    tensor = (3.0 / r) * psi_bar(coords, p)
    sphere_frame = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    assert evaluate(tensor, sphere_frame) == pytest.approx(1.0, abs=1e-14)


def test_psi_bar_singular_at_axis():
    coords = WedgeCoordinates.from_axes(4, (0, 1), (2, 3))
    with pytest.raises(ValueError, match="singular"):
        psi_bar(coords, np.array([0.0, 0.0, 1.0, 0.0]))


# -- single-plane calibration -----------------------------------------------------


def test_field_is_volume_form_on_the_plane(cal):
    p = np.array([0.7, -0.4, 0.9, 0.0, 0.0, 0.0])
    tensor = cal.field.evaluator(p)
    frame = cal.plane_frame()
    assert evaluate(tensor, frame) == pytest.approx(1.0, abs=1e-14)
    vol_index = multi_indices(6, 3).index((0, 1, 2))
    assert tensor.coefficients[vol_index] == pytest.approx(1.0, abs=1e-14)


def test_field_vanishes_exactly_beyond_wedge(cal):
    tan_theta = cal.params.tan_theta
    p = np.array([0.2, 0.0, 0.0, 2 * tan_theta * 0.2, 0.1, 0.0])
    tensor = cal.field.evaluator(p)
    assert tensor.is_zero()
    # and at 2 tan(theta) along a generic direction
    q = np.array([0.5, 0.1, -0.2, 0.9, 0.4, 0.55])
    assert float(cal.coords.u(q)) > tan_theta ** 2
    assert cal.field.evaluator(q).is_zero()


def test_pointwise_comass_matches_optimizer_at_half_angle(cal):
    params = cal.params
    t_half = params.tan_theta / 2
    p = np.array([1.0, 0.0, 0.0, t_half, 0.0, 0.0])
    tensor = cal.field.evaluator(p)
    closed_form = float(cal.pointwise_comass(p[None])[0])
    optimizer = comass(tensor, multistarts=24, tol=1e-12)
    assert abs(closed_form - optimizer) < 1e-6
    # bounded by the envelope sqrt(1 - delta t^2) <= 1
    assert closed_form <= math.sqrt(1.0 - params.delta * t_half**2) + 1e-12
    assert closed_form <= 1.0


def test_field_norm_is_simple_norm(cal):
    # the field is simple pointwise, so comass equals the coefficient norm
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=6)
        p[:3] += np.sign(p[:3]) + 0.5  # keep r away from 0
        tensor = cal.field.evaluator(p)
        assert tensor.norm == pytest.approx(float(cal.pointwise_comass(p[None])[0]),
                                            abs=1e-13)


def test_closedness_away_from_interface(cal):
    pts = np.array(
        [[0.9, 0.2, -0.5, 0.25, 0.1, -0.1], [1.1, -0.3, 0.4, -0.2, 0.15, 0.2]]
    )
    max_res, order, _ = closedness_order(cal.field, pts)
    assert order >= 1.8
    assert max_res < 1e-4


def test_verify_calibration_passes(cal):
    rep = verify_calibration(cal, STANDARD_REGION, 8, seed=1)
    assert isinstance(rep, CalibrationReport)
    assert rep.passed
    assert rep.max_comass <= 1.0 + 1e-9
    assert rep.plane_value_max_error <= 1e-10
    assert rep.vanishing_max_abs == 0.0
    assert rep.closedness_order >= 1.8
    assert rep.envelope_min_slack >= -1e-9


def test_refining_grids_stay_bounded_and_approach_one(cal):
    # grid refinement reaches smaller t, so the recorded maximum climbs
    # toward 1 while never crossing 1 + 1e-9 (envelope sqrt(1 - delta t^2))
    maxima = []
    for grid in (4, 8, 16):
        rep = verify_calibration(cal, STANDARD_REGION, grid, seed=1,
                                 optimizer_subsample=0, closedness_points=0)
        assert rep.max_comass <= 1.0 + 1e-9
        assert rep.envelope_min_slack >= -1e-9
        maxima.append(rep.max_comass)
    assert maxima[0] <= maxima[1] <= maxima[2] <= 1.0 + 1e-9


def test_verify_calibration_region_fully_outside_wedge(cal):
    # region with t > tan(theta) everywhere: comass 0 on every grid point
    region = ([0.08] * 3 + [1.0] * 3, [0.12] * 3 + [2.0] * 3)
    rep = verify_calibration(cal, region, 4, seed=2, optimizer_subsample=0,
                             closedness_points=0, r_margin=0.01)
    assert rep.max_comass == 0.0
    assert rep.points_in_wedge == 0
    assert rep.t_at_max_comass is None and rep.t_at_min_envelope_slack is None
    details = {check.name: check.detail for check in rep.checks()}
    assert details["max_comass"] == "no grid point inside a wedge"


def test_negative_control_inadmissible_a_exceeds_comass_one():
    # delta < 0 (lower admissibility bound violated) makes the pointwise
    # comass sqrt(quartic) exceed 1 near the wedge interface
    params = forced_params(3, 2.0)
    assert params.delta < 0.0
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    cal_bad = build_vanishing_calibration(params, coords)
    rep = verify_calibration(cal_bad, STANDARD_REGION, 8, seed=3)
    assert rep.max_comass > 1.0 + 1e-9
    assert not rep.passed
    # the tensor route agrees that comass genuinely exceeds one
    t_near = params.tan_theta * 0.95
    p = np.array([1.0, 0.0, 0.0, t_near, 0.0, 0.0])
    assert comass(cal_bad.field.evaluator(p), multistarts=16) > 1.0


def test_region_touching_singular_axis_rejected(cal):
    region = ([-0.5] * 3 + [-1.0] * 3, [1.5] * 3 + [1.0] * 3)
    with pytest.raises(ValueError, match="singular"):
        verify_calibration(cal, region, 5, seed=0)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_region_rejected(cal, bad):
    region = ([0.5, 0.5, 0.5, -0.3, -0.3, bad], [1.5] * 3 + [0.3] * 3)
    with pytest.raises(ValueError, match="finite"):
        verify_calibration(cal, region, 4, seed=0)


def test_orientation_flag_flips_sign():
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    flipped = build_vanishing_calibration(params, coords, orientation=-1)
    p = np.array([0.7, -0.4, 0.9, 0.0, 0.0, 0.0])
    assert evaluate(flipped.field.evaluator(p), flipped.plane_frame()) == pytest.approx(
        1.0, abs=1e-14
    )
    base_frame = np.vstack([coords.x_frame, coords.l_frame])
    assert evaluate(flipped.field.evaluator(p), base_frame) == pytest.approx(
        -1.0, abs=1e-14
    )


# -- streamed grid scan ------------------------------------------------------------


def random_rotation(N: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(N, N)))
    return q * np.sign(np.diag(r))


def brute_force_grid(region, grid: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(*region)]
    return np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)


@pytest.fixture(scope="module")
def rotated_cal():
    q = random_rotation(6, 11)
    coords = WedgeCoordinates(6, q[:3], q[3:])
    return build_vanishing_calibration(make_params(3, 2.5), coords)


def rotated_region(cal, halfwidth: float = 0.4):
    center = cal.coords.assemble(np.array([1.0, 0.5, 0.3]), np.array([0.4, -0.3, 0.2]))
    return list(center - halfwidth), list(center + halfwidth)


def reference_scan(cals, pts) -> dict:
    """The scan fields from the materialised grid, one plain NumPy pass per summand.

    The t fields are sqrt of the smallest u, over all summands, among the
    wedge points where the extreme is attained.
    """
    values, insides, slacks, radii, us = [], [], [], [], []
    for cal in cals:
        r = cal.coords.r(pts)
        u = cal.coords.u(pts)
        inside = cal.params.inside(u)
        value = cal.pointwise_comass(pts)
        slacks.append(np.sqrt(1.0 - cal.params.delta * u[inside]) - value[inside])
        values.append(value)
        insides.append(inside)
        radii.append(r)
        us.append(u[inside])
    hits = np.sum(insides, axis=0)
    top = float(np.max(values, axis=0).max())
    slack = float(np.concatenate(slacks).min())
    at_top = [u[value[inside] == top] for u, value, inside in zip(us, values, insides)]
    at_slack = [u[s == slack] for u, s in zip(us, slacks)]
    return {
        "max_comass": top,
        "t_at_max_comass": math.sqrt(float(np.concatenate(at_top).min())),
        "envelope_min_slack": slack,
        "t_at_min_envelope_slack": math.sqrt(float(np.concatenate(at_slack).min())),
        "min_grid_r": float(np.min(radii)),
        "points_in_wedge": int((hits > 0).sum()),
        "overlap_count": int((hits > 1).sum()),
    }


def test_streamed_scan_matches_materialised_grid(rotated_cal):
    region = rotated_region(rotated_cal)
    for grid in (6, 10):
        rep = verify_calibration(rotated_cal, region, grid, seed=0, optimizer_subsample=0,
                                 closedness_points=0)
        expected = reference_scan([rotated_cal], brute_force_grid(region, grid))
        assert 0 < expected["points_in_wedge"] < grid**6  # the box straddles the interface
        assert rep.grid_points_total == grid**6
        assert rep.points_in_wedge == expected["points_in_wedge"]
        assert rep.max_comass == pytest.approx(expected["max_comass"], abs=1e-12)
        assert rep.envelope_min_slack == pytest.approx(expected["envelope_min_slack"],
                                                       abs=1e-12)


def test_streamed_scan_still_rejects_singular_axis(rotated_cal):
    center = rotated_cal.coords.assemble(np.zeros(3), np.array([0.4, -0.3, 0.2]))
    region = (list(center - 0.4), list(center + 0.4))
    with pytest.raises(ValueError, match="singular"):
        verify_calibration(rotated_cal, region, 6, seed=0, optimizer_subsample=0,
                           closedness_points=0)


def rotated_pair():
    q = random_rotation(6, 12)
    p1 = OrientedSubspace(6, np.eye(6)[:3] @ q)
    p2 = OrientedSubspace(6, np.eye(6)[3:] @ q)
    return intersect_and_split(p1, p2)


def test_streamed_pair_scan_matches_materialised_grid():
    region = ([-1.2] * 6, [1.2] * 6)
    params, pair = make_params(3, 2.5), rotated_pair()
    rep, _ = verify_pair_calibration(params, pair, region, 6, seed=0, optimizer_subsample=0,
                                     closedness_points=0)
    expected = reference_scan(sum_pair_calibration(params, pair)[1], brute_force_grid(region, 6))
    assert rep.grid_points_total == 6**6
    assert rep.overlap_count == expected["overlap_count"] == 0
    assert 0.0 < rep.max_comass == pytest.approx(expected["max_comass"], abs=1e-12)


SCAN_FIELDS = ("grid_points_total", "points_in_wedge", "overlap_count", "min_grid_r",
               "max_comass", "envelope_min_slack")


def scan_fields(rep) -> tuple:
    return tuple(getattr(rep, name) for name in SCAN_FIELDS)


def test_scan_does_not_depend_on_the_chunk_size(rotated_cal, monkeypatch):
    # 1 000 divides none of the tail lengths 6^4, 7^4 and 6^5, so the scans
    # with that chunk end on a partial chunk; on the rotated R^7 pair, whose
    # tail has 5 axes, a chunk of 1 000 also cuts the tail across its axes,
    # and each chunk's own projection must give the whole tail's bits
    q = random_rotation(7, 13)
    pair7 = shared_axis_pair()
    pair7 = intersect_and_split(OrientedSubspace(7, pair7.p1.orthonormal_basis() @ q),
                                OrientedSubspace(7, pair7.p2.orthonormal_basis() @ q))

    def scans():
        single = [verify_calibration(rotated_cal, rotated_region(rotated_cal), grid, seed=0,
                                     optimizer_subsample=0, closedness_points=0)
                  for grid in (6, 7)]
        pairs = [verify_pair_calibration(make_params(3, 2.5), pair, ([-half] * N, [half] * N),
                                         grid, seed=0, optimizer_subsample=0,
                                         closedness_points=0)[0]
                 for pair, N, half, grid in ((rotated_pair(), 6, 1.2, 7), (pair7, 7, 1.1, 6))]
        return [scan_fields(rep) for rep in (*single, *pairs)]

    default = scans()
    for chunk in (1000, 1 << 20):
        monkeypatch.setattr(calibration, "_SCAN_CHUNK", chunk)
        assert scans() == default


def scan_entries(lows, highs, grid: int, blocks, factored: bool) -> tuple:
    """The scan's yields as np.unique(..., return_counts=True) of its rows of block norms.

    Asserts the yield contract first: weights on every yield of a factored
    scan and none on a streamed one, and at most ``_SCAN_CHUNK`` entries per
    yield; a streamed entry stands for one point.
    """
    rows, weights = [], []
    for norms, weight in calibration._scan_grid(lows, highs, grid, blocks):
        assert (weight is not None) == factored
        assert norms[0].size <= calibration._SCAN_CHUNK
        rows.append(np.stack(norms, axis=1))
        weights.append(np.ones(norms[0].size, dtype=np.int64) if weight is None else weight.copy())
    values, inverse = np.unique(np.concatenate(rows), axis=0, return_inverse=True)
    counts = np.zeros(len(values), dtype=np.int64)
    np.add.at(counts, inverse.reshape(-1), np.concatenate(weights))
    return values, counts


def brute_force_entries(region, grid: int, blocks) -> tuple:
    """np.unique(..., return_counts=True) of the materialised grid's rows of block norms."""
    pts = brute_force_grid(region, grid)
    return np.unique(np.stack([squared_norms(pts @ F.T) for F in blocks], axis=1), axis=0,
                     return_counts=True)


def assert_same_entries(got: tuple, want: tuple) -> None:
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


def test_scan_norms_are_bit_identical_to_linalg_norm_on_axis_frames(cal, monkeypatch):
    # every r^2 and z^2, whose square roots are np.linalg.norm's r and z.
    # Factored, each distinct (r^2, z^2) comes with its count of grid points
    lows, highs = calibration.region_box(*STANDARD_REGION)
    blocks = [cal.coords.x_frame, cal.coords.y_frame]
    pts = brute_force_grid(STANDARD_REGION, 7)
    x, y = cal.coords.x_part(pts), cal.coords.y_part(pts)
    values, entry, counts = np.unique(
        np.stack([np.add.reduce(x * x, axis=-1), np.add.reduce(y * y, axis=-1)], axis=1),
        axis=0, return_inverse=True, return_counts=True)
    entries, weights = scan_entries(lows, highs, 7, blocks, factored=True)
    assert_same_entries((entries, weights), (values, counts))
    assert np.array_equal(np.sqrt(entries[entry.reshape(-1)]),
                          np.stack([np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)], 1))
    # streamed, since 7^3 = 343 > 100: 7^4 = 2 401 tail points make 24 chunks
    # of 100 and one of 1, each yielded for the 7^2 head rows in turn, so the
    # yields are put back into grid order (head row, then tail chunk)
    monkeypatch.setattr(calibration, "_SCAN_CHUNK", 100)
    yields = []
    for norms, weights in calibration._scan_grid(lows, highs, 7, blocks):
        assert weights is None
        yields.append([norm.copy() for norm in norms])
    assert len(yields) == 7**2 * 25
    chunks = [yields[chunk * 7**2 + row] for row in range(7**2) for chunk in range(25)]
    r2 = np.concatenate([r2 for r2, _ in chunks])
    z2 = np.concatenate([z2 for _, z2 in chunks])
    assert np.array_equal(r2, np.add.reduce(x * x, axis=-1))
    assert np.array_equal(z2, np.add.reduce(y * y, axis=-1))
    assert np.array_equal(np.sqrt(r2), np.linalg.norm(x, axis=-1))
    assert np.array_equal(np.sqrt(z2), np.linalg.norm(y, axis=-1))


def per_row_squared_norms(rows: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """|rows[:, j] + offset|^2 with every row added and squared, in row order."""
    out = np.zeros(rows.shape[1])
    if len(rows):
        np.add(rows[0], offset[0], out=out)
        out *= out
    for row, h in zip(rows[1:], offset[1:]):
        diff = row + h
        diff *= diff
        out += diff
    return out


def per_row_scan(lows, highs, grid: int, blocks, chunk: int):
    """A streamed scan's yields, in its order, from ``per_row_squared_norms``."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(lows, highs)]
    head = calibration._grid_rows(axes[:2], 0, grid**2)
    head_proj = [F[:, :2] @ head.T for F in blocks]
    tail_size = grid ** (len(axes) - 2)
    width = min(chunk, tail_size)
    for j in range(0, tail_size, width):
        tail = calibration._grid_rows(axes[2:], j, min(j + width, tail_size))
        tail_proj = [F[:, 2:] @ tail.T for F in blocks]
        for i in range(head.shape[0]):
            yield [per_row_squared_norms(T, H[:, i]) for T, H in zip(tail_proj, head_proj)], None


def signed_axes(*rows) -> np.ndarray:
    """A frame block of R^6 whose row i is sign_i e_(axis_i), for (axis, sign) pairs."""
    frame = np.zeros((len(rows), 6))
    for i, (axis, sign) in enumerate(rows):
        frame[i, axis] = sign
    return frame


# the head is axes 0 and 1: H marks a head-only row, T a tail-only row and M a
# mixed one.  The grid steps are not dyadic, so sums of squares round, and a
# sum taken out of row order would show in the last bits
SKEWED_REGION = ([-1.3, -0.7, -0.9, -1.1, -0.35, -1.7], [1.1, 0.9, 1.3, 0.7, 1.45, 1.3])


def mixed_pair_blocks() -> tuple:
    # the CI pair: adapted blocks MTH, MTT, MTT and MTH, with -0.0 entries
    p1 = OrientedSubspace(6, np.array([[0.8, 0, 0, 0.6, 0, 0], [0, 1, 0, 0, 0, 0],
                                       [0, 0, 1, 0, 0, 0]]))
    p2 = OrientedSubspace(6, np.array([[-0.6, 0, 0, 0.8, 0, 0], [0, 0, 0, 0, 1, 0],
                                       [0, 0, 0, 0, 0, 1]]))
    c1, c2 = adapted_wedge_coordinates(intersect_and_split(p1, p2))[:2]
    return [c1.x_frame, c1.y_frame, c2.x_frame, c2.y_frame], ([-1.2] * 6, [1.2] * 6)


def rotated_blocks() -> tuple:
    # rotated_cal's frames: every row mixed
    q = random_rotation(6, 11)
    cal = build_vanishing_calibration(make_params(3, 2.5), WedgeCoordinates(6, q[:3], q[3:]))
    return [cal.coords.x_frame, cal.coords.y_frame], rotated_region(cal)


def head_rows_mixing_axes() -> tuple:
    # HTT/HTT whose head-only rows have two nonzero head entries
    x = np.vstack([[0.6, 0.8, 0, 0, 0, 0], signed_axes((2, 1), (3, -1))])
    y = np.vstack([[-0.8, 0.6, 0, 0, 0, 0], signed_axes((4, 1), (5, 1))])
    return [x, y], SKEWED_REGION


# case: (blocks and region, whether the blocks split the axes into groups);
# the frames that touch every axis stream
SCAN_NORM_CASES = {
    "HHT/TTT": (lambda: ([signed_axes((0, 1), (1, -1), (2, 1)),
                          signed_axes((3, -1), (4, 1), (5, 1))], SKEWED_REGION), True),
    "THT/HTT": (lambda: ([signed_axes((2, 1), (0, -1), (3, 1)),
                          signed_axes((1, 1), (4, -1), (5, 1))], SKEWED_REGION), True),
    "TTH/TTH": (lambda: ([signed_axes((2, -1), (3, 1), (0, 1)),
                          signed_axes((4, 1), (5, -1), (1, 1))], SKEWED_REGION), True),
    "HTH/TTT": (lambda: ([signed_axes((0, 1), (2, 1), (1, -1)),
                          signed_axes((3, 1), (4, 1), (5, -1))], SKEWED_REGION), True),
    "head-rows-mixing-axes": (head_rows_mixing_axes, False),
    "rotated": (rotated_blocks, False),
    "MTH/MTT-pair": (mixed_pair_blocks, False),
    # axes 1, 4 and 5 are free
    "m=0": (lambda: ([signed_axes((0, 1), (2, 1), (3, 1)), np.zeros((0, 6))], SKEWED_REGION),
            True),
}


@pytest.mark.parametrize("chunk", [100, 1000, 1 << 20])
@pytest.mark.parametrize("case", list(SCAN_NORM_CASES))
def test_scan_norms_are_bit_identical_to_the_per_row_kernel(case, chunk, monkeypatch):
    # a group of 3 axes has 7^3 = 343 points, so a chunk of 100 streams every
    # case.  Streamed, 7^4 = 2 401 tail points make chunks of 100 (24 and one
    # of 1), of 1 000 (1 000, 1 000 and 401) or one chunk, each yielded as
    # the per-row kernel yields it.  Factored, the weighted rows of block
    # norms are those of the materialised grid
    build, splits = SCAN_NORM_CASES[case]
    blocks, region = build()
    monkeypatch.setattr(calibration, "_SCAN_CHUNK", chunk)
    lows, highs = calibration.region_box(*region)
    if splits and chunk > 7**3:
        got = scan_entries(lows, highs, 7, blocks, factored=True)
        assert_same_entries(got, brute_force_entries(region, 7, blocks))
        assert got[1].sum() == 7**6
        return
    yields = 0
    for got, want in zip(calibration._scan_grid(lows, highs, 7, blocks),
                         per_row_scan(lows, highs, 7, blocks, chunk), strict=True):
        assert got[1] is None
        assert [norm.tobytes() for norm in got[0]] == [norm.tobytes() for norm in want[0]]
        yields += 1
    assert yields == 7**2 * math.ceil(7**4 / chunk)


@pytest.mark.parametrize("region, grid", [
    (STANDARD_REGION, 6),
    (STANDARD_REGION, 9),
    (([0.2] * 3 + [-1.0] * 3, [1.5] * 3 + [1.0] * 3), 8),
], ids=["standard-6", "standard-9", "wide-8"])
def test_scan_is_bit_identical_to_the_materialised_grid_on_axis_frames(cal, region, grid):
    # on coordinate frames the head/tail split of the projections is exact,
    # so the streamed scan must reproduce the plain closed form bit for bit
    rep = verify_calibration(cal, region, grid, seed=0, optimizer_subsample=0,
                             closedness_points=0)
    expected = reference_scan([cal], brute_force_grid(region, grid))
    assert 0 < expected["points_in_wedge"] < grid**6
    assert {name: getattr(rep, name) for name in expected} == expected


def test_pair_scan_is_bit_identical_to_the_materialised_grid_on_axis_frames():
    # criterion 06's R^6 coordinate pair; the odd grid holds the origin, r = z = 0
    region, params = ([-1.2] * 6, [1.2] * 6), make_params(3, 2.5)
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    rep, _ = verify_pair_calibration(params, pair, region, 7, seed=0, optimizer_subsample=0,
                                     closedness_points=0)
    pts = brute_force_grid(region, 7)
    cals = sum_pair_calibration(params, pair)[1]
    v1, v2 = (c.pointwise_comass(pts) for c in cals)
    expected = reference_scan(cals, pts)
    assert rep.max_comass == float(np.maximum(v1, v2).max()) == expected["max_comass"]
    assert rep.overlap_count == int(((v1 > 0) & (v2 > 0)).sum()) == 0
    assert {name: getattr(rep, name) for name in expected} == expected


def test_scan_wedge_is_the_field_support_on_the_r7_pair():
    # criterion 06's R^7 pair at grid 5: in exact arithmetic 2 880 grid points
    # per summand lie on its interface u = 5/6 (1 920 of them with u equal to
    # tan^2(theta) in floating point too), so a second wedge rule in the scan
    # or in the field would disagree there; the field raises on r = z = 0.
    # The scan factors (axis 3 is free), so each grid point is counted
    # through the entry of its own rows of block norms
    params = make_params(3, 2.5)
    _, cals = sum_pair_calibration(params, shared_axis_pair())
    region = ([-1.1] * 7, [1.1] * 7)
    lows, highs = calibration.region_box(*region)
    blocks = [F for cal in cals for F in (cal.coords.x_frame, cal.coords.y_frame)]
    entries, weights = scan_entries(lows, highs, 5, blocks, factored=True)
    pts = brute_force_grid(region, 5)
    rows = np.stack([squared_norms(pts @ F.T) for F in blocks], axis=1)
    values, entry, counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    assert_same_entries((entries, weights), (values, counts))
    entry = entry.reshape(-1)  # the scan entry that stands for each grid point
    for i, cal in enumerate(cals):
        r2, z2 = entries[:, 2 * i], entries[:, 2 * i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            _, inside, u = cal._comass_rz(r2, z2, calibration._comass_buffers(r2.size))
        assert weights[np.isclose(u, 5.0 / 6.0, rtol=1e-12, atol=0.0)].sum() == 2880
        assert weights[u == params.tan_theta * params.tan_theta].sum() == 1920
        defined = (rows[:, 2 * i] > 0.0) | (rows[:, 2 * i + 1] > 0.0)
        support = np.any(cal.field.coefficients(pts[defined]) != 0.0, axis=1)
        assert np.array_equal(inside[entry][defined], support)
        assert not inside[entry][~defined].any()


def test_scan_of_a_plane_with_no_normal_block():
    # m = 0: the y-block has no rows, so z = 0 and every point off the axis is inside
    coords = WedgeCoordinates(3, np.eye(3), np.zeros((0, 3)))
    cal = build_vanishing_calibration(make_params(3, 2.5), coords)
    region = ([0.5] * 3, [1.5] * 3)
    rep = verify_calibration(cal, region, 5, seed=0, optimizer_subsample=0,
                             closedness_points=0)
    expected = reference_scan([cal], brute_force_grid(region, 5))
    assert expected["points_in_wedge"] == 5**3
    assert {name: getattr(rep, name) for name in expected} == expected


def m0_plane_with_a_free_axis():
    # m = 0 in R^5: the y-block has no rows, and axes 3 (the l-block) and 4 are free
    coords = WedgeCoordinates.from_axes(5, (0, 1, 2), (), (3,))
    return build_vanishing_calibration(make_params(3, 2.5), coords)


def coordinate_pair6():
    return intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))


FACTORED_SCANS = {
    "plane": lambda cal: verify_calibration(cal, STANDARD_REGION, 7, seed=0),
    "pair6": lambda cal: verify_pair_calibration(make_params(3, 2.5), coordinate_pair6(),
                                                 ([-1.2] * 6, [1.2] * 6), 7, seed=0)[0],
    # axis 3, the shared one, is free
    "pair7": lambda cal: verify_pair_calibration(make_params(3, 2.5), shared_axis_pair(),
                                                 ([-1.1] * 7, [1.1] * 7), 7, seed=0)[0],
    "m=0": lambda cal: verify_calibration(m0_plane_with_a_free_axis(),
                                          ([0.5] * 3 + [-1.0] * 2, [1.5] * 3 + [1.0] * 2), 7,
                                          seed=0),
}


@pytest.mark.parametrize("case", list(FACTORED_SCANS))
def test_streaming_an_axis_frame_scan_gives_the_factored_report(cal, case, monkeypatch):
    # at grid 7 each axis group has 7^3 = 343 points: the default chunk
    # factors the scan, and a chunk of 342 makes it stream
    spy = []

    def scan(*args):
        for norms, weights in real_scan(*args):
            spy.append(weights is None)
            yield norms, weights

    real_scan = calibration._scan_grid
    monkeypatch.setattr(calibration, "_scan_grid", scan)
    factored = FACTORED_SCANS[case](cal)
    assert spy and not any(spy)
    spy.clear()
    monkeypatch.setattr(calibration, "_SCAN_CHUNK", 7**3 - 1)
    streamed = FACTORED_SCANS[case](cal)
    assert spy and all(spy)
    N = 5 if case == "m=0" else 7 if case == "pair7" else 6
    assert factored.grid_points_total == streamed.grid_points_total == 7**N
    assert factored.points_in_wedge > 0 and factored.t_at_max_comass is not None
    assert factored == streamed
    details = {check.name: check.detail for check in factored.checks()}
    assert details["max_comass"] == f"attained at t = {factored.t_at_max_comass!r}"
    assert details["envelope"].endswith(f"attained at t = {factored.t_at_min_envelope_slack!r}")


def test_rotated_frames_stream(rotated_cal, monkeypatch):
    # a rotated block touches every axis, so its group spans the grid and the
    # scan streams, whatever the chunk; the tightest t does not depend on it
    blocks = [rotated_cal.coords.x_frame, rotated_cal.coords.y_frame]
    assert [axes for axes, _ in calibration._axis_groups(blocks)] == [list(range(6))]
    lows, highs = calibration.region_box(*rotated_region(rotated_cal))
    reports = []
    for chunk in (1000, 1 << 20):
        monkeypatch.setattr(calibration, "_SCAN_CHUNK", chunk)
        scan = calibration._scan_grid(lows, highs, 6, blocks)
        assert all(weights is None for _, weights in scan)
        reports.append(verify_calibration(rotated_cal, rotated_region(rotated_cal), 7, seed=0,
                                          optimizer_subsample=0, closedness_points=0))
    t_fields = [(rep.t_at_max_comass, rep.t_at_min_envelope_slack) for rep in reports]
    assert t_fields[0] == t_fields[1] and None not in t_fields[0]


def test_tightest_t_is_the_smallest_u_on_a_tie_in_either_order(cal, monkeypatch):
    # comass^2 = 1 - 0.16 u (1 - u) at n = 3, a = 2.5 is symmetric about
    # u = 1/2, so u = 0.2 and its mirror tie for the largest comass, and two
    # adjacent floats near the interface tie for the smallest envelope
    # slack.  Each tie spans two scan yields, and either order must report
    # the smaller u
    near = 0.8325
    ties = {"t_at_max_comass": (0.2, 0.8000000000000003),
            "t_at_min_envelope_slack": (near, math.nextafter(near, 1.0))}
    for name, pair in ties.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            values, _, u = cal._comass_rz(np.ones(2), np.array(pair),
                                          calibration._comass_buffers(2))
        envelope = np.sqrt(1.0 - cal.params.delta * u) - values
        tied = values if name == "t_at_max_comass" else envelope
        assert tied[0] == tied[1]
        for order in (pair, pair[::-1]):
            monkeypatch.setattr(calibration, "_scan_grid", lambda *args, order=order: (
                ([np.ones(1), np.array([z2])], None) for z2 in order))
            rep = verify_calibration(cal, STANDARD_REGION, 2, seed=0, optimizer_subsample=0,
                                     closedness_points=0)
            assert getattr(rep, name) == math.sqrt(pair[0])


def test_scan_memory_does_not_grow_with_the_grid(cal):
    # a materialised 12^6 grid would hold 12^6 * 6 * 8 bytes = 143 MB
    tracemalloc.start()
    try:
        verify_calibration(cal, STANDARD_REGION, 12, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pair_scan_memory_does_not_grow_with_the_grid():
    # the R^7 pair's tail has 5 axes: 8^5 and 10^5 points, both more than one
    # chunk, so a scan that held the whole tail's projections would grow
    # from grid 8 to grid 10 (by 9 MB), and one that holds a chunk does not
    def peak(grid: int) -> int:
        tracemalloc.start()
        try:
            verify_pair_calibration(make_params(3, 2.5), shared_axis_pair(),
                                    ([-1.1] * 7, [1.1] * 7), grid, seed=0,
                                    optimizer_subsample=0, closedness_points=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10) <= peak(8) + 2**20


# -- k-block (shared intersection directions) --------------------------------------


def test_k_block_calibration_in_r7():
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
    cal7 = build_vanishing_calibration(params, coords)
    assert cal7.degree == 4
    p = np.array([0.5, 0.2, -0.7, 0.0, 0.0, 0.0, 1.3])
    frame = cal7.plane_frame()
    assert evaluate(cal7.field.evaluator(p), frame) == pytest.approx(1.0, abs=1e-13)
    # closedness still holds with the constant shared factor
    pts = np.array([[0.9, 0.2, -0.5, 0.25, 0.1, -0.1, 0.6]])
    _, order, _ = closedness_order(cal7.field, pts)
    assert order >= 1.8


# -- pair calibrations ---------------------------------------------------------------


def test_adapted_coordinates_orient_both_planes():
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    c1, c2, s1, s2 = adapted_wedge_coordinates(pair)
    assert c1.n == c2.n == 3 and c1.k == c2.k == 0 and c1.m == c2.m == 3
    assert abs(s1) == 1.0 and abs(s2) == 1.0


def test_sum_pair_r6_verifies():
    params = make_params(3, 2.5)
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    rep, field = verify_pair_calibration(params, pair, ([-1.2] * 6, [1.2] * 6), 6, seed=4)
    assert rep.passed
    assert rep.overlap_count == 0
    assert rep.max_comass <= 1.0 + 1e-9
    # calibrates both planes with their own orientations
    f1 = pair.p1.orthonormal_basis()
    f2 = pair.p2.orthonormal_basis()
    assert evaluate(field.evaluator(np.array([0.5, 0.3, -0.8, 0, 0, 0.0])), f1) == (
        pytest.approx(1.0, abs=1e-13)
    )
    assert evaluate(field.evaluator(np.array([0, 0, 0, 0.4, -0.9, 0.3])), f2) == (
        pytest.approx(1.0, abs=1e-13)
    )


def test_sum_pair_r7_shared_axis():
    params = make_params(3, 2.5)
    b1 = np.zeros((4, 7))
    b1[0, 0] = b1[1, 1] = b1[2, 2] = b1[3, 3] = 1.0
    b2 = np.zeros((4, 7))
    b2[0, 4] = b2[1, 5] = b2[2, 6] = b2[3, 3] = 1.0
    pair = intersect_and_split(OrientedSubspace(7, b1), OrientedSubspace(7, b2))
    assert pair.intersection_dim == 1
    rep, field = verify_pair_calibration(params, pair, ([-1.1] * 7, [1.1] * 7), 5, seed=5)
    assert rep.passed
    assert rep.intersection_dim == 1


def test_pair_negative_control_inadmissible_a_exceeds_comass_one():
    # delta < 0: each summand's comass exceeds 1 near its own interface
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    rep, _ = verify_pair_calibration(forced_params(3, 2.0), pair, ([-1.2] * 6, [1.2] * 6), 6)
    assert rep.max_comass > 1.0 + 1e-9
    assert [c.name for c in rep.checks() if not c.passed] == ["max_comass"]
    assert rep.passed is False


def test_sampled_checks_fail_without_samples(cal):
    # boxes inside the wedges hold no point outside every wedge, so the
    # vanishing check has nothing to measure and must not pass
    single = verify_calibration(cal, ([0.5] * 3 + [0.0] * 3, [1.5] * 3 + [0.1] * 3), 4)
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    double, _ = verify_pair_calibration(make_params(3, 2.5), pair,
                                        ([0.3] * 3 + [0.0] * 3, [1.0] * 3 + [0.05] * 3), 6)
    for rep in (single, double):
        assert rep.vanishing_samples == 0
        assert [c.name for c in rep.checks() if not c.passed] == ["vanishes_outside_wedges"]
        assert rep.passed is False
    # a box beyond the wedge holds no grid point inside it, so the envelope
    # and the in-wedge sampled checks have nothing to measure either
    outside = verify_calibration(cal, ([0.08] * 3 + [1.0] * 3, [0.12] * 3 + [2.0] * 3), 4)
    assert outside.points_in_wedge == 0
    assert [c.name for c in outside.checks() if not c.passed] == [
        "envelope", "optimizer_agreement", "closedness_order"]
    assert outside.passed is False


def per_point_comass_rows(coefficients, N, k, multistarts, tol, *, seed):
    """The optimizer cross-check as one ``comass`` call per sampled point."""
    values = [comass(AlternatingTensor(N, k, row), multistarts, tol, seed=seed)
              for row in coefficients]
    return np.array(values), 0


def signed_axes_criterion_05(seed: int):
    """Criterion 05's calibration and box with the axes signed and permuted by ``seed``."""
    rng = np.random.default_rng(seed)
    perm, signs = rng.permutation(6), rng.choice([-1.0, 1.0], size=6)
    frames = [signed_axes(*((perm[a], signs[a]) for a in block))
              for block in ((0, 1, 2), (3, 4, 5))]
    lows, highs = np.zeros(6), np.zeros(6)
    for axis in range(6):
        ends = signs[axis] * np.array([STANDARD_REGION[0][axis], STANDARD_REGION[1][axis]])
        lows[perm[axis]], highs[perm[axis]] = ends.min(), ends.max()
    cal = build_vanishing_calibration(make_params(3, 2.5), WedgeCoordinates(6, *frames))
    return cal, (lows, highs)


PER_POINT_CASES = {
    **{f"criterion-05 axes {seed}": (
        lambda seed=seed: verify_calibration(*signed_axes_criterion_05(seed), 20, seed=0))
       for seed in range(3)},
    "p6": lambda: verify_pair_calibration(make_params(3, 2.5), coordinate_pair6(),
                                          ([-1.2] * 6, [1.2] * 6), 7, seed=0)[0],
    "p7": lambda: verify_pair_calibration(make_params(3, 2.5), shared_axis_pair(),
                                          ([-1.1] * 7, [1.1] * 7), 9, seed=0)[0],
}


@pytest.mark.parametrize("case", list(PER_POINT_CASES))
def test_batched_optimizer_report_equals_the_per_point_one(case, monkeypatch):
    batched = PER_POINT_CASES[case]()
    monkeypatch.setattr(calibration, "_comass_rows", per_point_comass_rows)
    per_point = PER_POINT_CASES[case]()
    assert batched.passed and per_point.passed and batched.optimizer_unconverged == 0
    assert abs(batched.optimizer_max_deviation - per_point.optimizer_max_deviation) <= 1e-15
    exact = {**vars(batched), "optimizer_max_deviation": None}
    assert exact == {**vars(per_point), "optimizer_max_deviation": None}
    for got, want in zip(batched.checks(), per_point.checks(), strict=True):
        assert (got.name, got.passed, got.detail) == (want.name, want.passed, want.detail)
        if got.name != "optimizer_agreement":
            assert got == want


def test_unconverged_optimizer_starts_are_counted_and_stated(cal, monkeypatch):
    rep = verify_calibration(cal, STANDARD_REGION, 5, seed=0)
    check = next(c for c in rep.checks() if c.name == "optimizer_agreement")
    assert rep.optimizer_unconverged == 0 and check.passed
    assert check.detail == "6 samples, 0 unconverged optimizer starts"
    # one sweep moves every start, so none of the 6 x 24 starts has converged
    monkeypatch.setattr(calibration, "_comass_rows", partial(exterior._comass_rows, max_iter=1))
    with pytest.warns(RuntimeWarning, match="144 of 144 starts did not converge"):
        rep = verify_calibration(cal, STANDARD_REGION, 5, seed=0)
    check = next(c for c in rep.checks() if c.name == "optimizer_agreement")
    assert rep.optimizer_unconverged == 144
    assert check.detail == "6 samples, 144 unconverged optimizer starts"


def test_pair_samples_near_a_plane_keep_clear_of_the_singular_set_only():
    # the box hugs plane 1: all of it lies in plane 1's wedge, and near plane
    # 2's axis but outside its wedge, where the field is smooth; so only the
    # vanishing check has nothing to measure
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    rep, _ = verify_pair_calibration(make_params(3, 2.5), pair,
                                     ([0.5] * 3 + [-0.01] * 3, [1.5] * 3 + [0.01] * 3), 5)
    assert rep.optimizer_samples > 0
    assert rep.closedness_samples > 0
    assert [c.name for c in rep.checks() if not c.passed] == ["vanishes_outside_wedges"]


def acceptance_summands(case: str):
    """(field, summands, box) of criterion 05 and of criterion 06's two pairs."""
    params = make_params(3, 2.5)
    if case == "criterion-05":
        coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
        cal = build_vanishing_calibration(params, coords)
        return cal.field, (cal,), STANDARD_REGION
    if case == "criterion-06-R6":
        pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
        return (*sum_pair_calibration(params, pair), ([-1.2] * 6, [1.2] * 6))
    return (*sum_pair_calibration(params, shared_axis_pair()), ([-1.1] * 7, [1.1] * 7))


@pytest.mark.parametrize("margin", [0.0, STENCIL_CLEARANCE * max(FD_STEPS), 0.3])
@pytest.mark.parametrize("case", ["criterion-05", "criterion-06-R6", "criterion-06-R7"])
def test_box_samples_lie_in_the_box_clear_of_the_singular_set_and_in_the_wedge(case, margin):
    field, cals, region = acceptance_summands(case)
    lows, highs = (np.asarray(bound, dtype=float) for bound in region)
    rng = np.random.default_rng(0)
    # a pair's band outside both wedges is too thin to keep 0.3 from both interfaces
    outside = [None] if len(cals) == 1 or margin < 0.1 else []
    for inside in [*range(len(cals)), *outside]:
        pts = calibration._box_sample(field, cals, lows, highs, 200, rng, margin, inside)
        assert pts.shape == (200, lows.size)
        assert np.all((lows <= pts) & (pts <= highs))
        assert not field.singular_locus_descriptor(pts, margin).any()
        for i, cal in enumerate(cals):
            wedge = cal.params.inside(cal.coords.u(pts))
            if inside is None:
                assert not wedge.any()
            elif i == inside:
                assert wedge.all()


def test_angle_budget_fails_on_equal_planes():
    # equal planes have no principal angles; the budget measures 0.0 and fails
    params = make_params(3, 2.5)
    plane = coordinate_plane(6, (0, 1, 2))
    pair = intersect_and_split(plane, plane)
    budget = angle_budget(params, pair)
    assert budget.measured == 0.0
    assert budget.threshold == 2.0 * params.theta
    assert not budget.passed
    with pytest.raises(ValueError, match="angle budget"):
        sum_pair_calibration(params, pair)


def test_sum_pair_rejects_tight_angle():
    params = make_params(3, 2.5)
    tight = 0.8 * 2.0 * params.theta
    p1, p2 = rotated_plane_pair(9, 3, [tight, tight, tight])
    pair = intersect_and_split(p1, p2)
    with pytest.raises(ValueError, match="angle budget"):
        sum_pair_calibration(params, pair)


def test_sum_pair_accepts_above_budget_angle():
    # smallest principal angle strictly between 2 theta and pi/2
    params = make_params(3, 2.5)
    angle = 2.0 * params.theta * 1.05
    assert angle < math.pi / 2
    p1, p2 = rotated_plane_pair(9, 3, [angle, angle, angle])
    pair = intersect_and_split(p1, p2)
    field, (cal1, cal2) = sum_pair_calibration(params, pair)
    # supports disjoint on a coarse scan
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, size=(4000, 9))
    v1 = cal1.pointwise_comass(pts)
    v2 = cal2.pointwise_comass(pts)
    assert not np.any((v1 > 0) & (v2 > 0))


# -- scaled calibrations ---------------------------------------------------------------


def test_scaled_identity_and_zero(cal):
    p = np.array([0.9, 0.2, -0.5, 0.25, 0.1, -0.1])
    same = scaled_calibration(cal, lambda x: 1.0)
    assert np.array_equal(same.evaluator(p).coefficients, cal.field.evaluator(p).coefficients)
    zero = scaled_calibration(cal, lambda x: 0.0)
    assert zero.evaluator(p).is_zero()


def test_scaled_closedness_order(cal):
    field = scaled_calibration(cal, lambda x: math.cos(float(x @ x)))
    pts = np.array(
        [[0.9, 0.2, -0.5, 0.25, 0.1, -0.1], [1.1, -0.3, 0.4, -0.2, 0.15, 0.2]]
    )
    max_res, order, _ = closedness_order(field, pts)
    assert order >= 1.8


def test_scaled_comass_bounded(cal):
    field = scaled_calibration(cal, lambda x: math.cos(float(x @ x)))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.2, 1.2, size=(500, 6))
    pts[:, 0] += 1.5  # keep clear of r = 0
    # the field is simple, so the Euclidean norm of its tensor is its comass
    norms = np.linalg.norm(field.coefficients(pts), axis=1)
    assert 0.0 < norms.max() <= 1.0 + 1e-9


def test_scaled_rejects_large_f(cal):
    with pytest.raises(ValueError, match="exceeds 1"):
        scaled_calibration(cal, lambda x: 1.0 + 1e-6)


# -- coordinate-plane sums ----------------------------------------------------------


def test_coordinate_plane_sum_comass_one():
    for c in (2, 3):
        field = coordinate_plane_sum(c, 2 * c)
        tensor = field.evaluator(np.zeros(2 * c))
        assert comass(tensor) == pytest.approx(1.0, abs=1e-7)
        oracle = comass_oracle_refined(tensor, 100_000, 0)
        assert oracle == pytest.approx(1.0, abs=1e-6)


def test_coordinate_plane_sum_calibrates_both_planes():
    field = coordinate_plane_sum(2, 4)
    tensor = field.evaluator(np.zeros(4))
    x_frame = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    y_frame = np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
    assert evaluate(tensor, x_frame) == 1.0
    assert evaluate(tensor, y_frame) == 1.0


def test_coordinate_plane_sum_rejects_c1_with_oracle_value():
    with pytest.raises(ValueError, match="sqrt\\(2\\)"):
        coordinate_plane_sum(1, 2)
    # the oracle really does report sqrt(2) for the rejected 1-form
    one_form = AlternatingTensor.from_covector([1.0, 1.0])
    assert comass_oracle(one_form, 100_000, 0) == pytest.approx(math.sqrt(2), abs=1e-4)


def test_coordinate_plane_sum_shared_block():
    field = coordinate_plane_sum(2, 6, shared=1)
    assert field.degree == 3
    tensor = field.evaluator(np.zeros(6))
    frame = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]],
                     dtype=float)
    assert evaluate(tensor, frame) == 1.0
    assert comass(tensor) == pytest.approx(1.0, abs=1e-7)


def test_coordinate_plane_sum_dimension_guard():
    with pytest.raises(ValueError, match="ambient"):
        coordinate_plane_sum(3, 5)


# -- batched form fields ------------------------------------------------------------------


def reference_vanishing_tensor(cal, p: np.ndarray) -> np.ndarray:
    """(c dr + s dz) ^ i_radial(vol_x) (^ dl) at one point, by one-point tensor algebra."""
    coords, params = cal.coords, cal.params
    N, degree = coords.ambient_dim, cal.degree
    xi, r, z = coords.x_part(p), float(coords.r(p)), float(coords.z(p))
    if z >= params.tan_theta * r:
        return np.zeros(math.comb(N, degree))
    # c = gamma - (t/n) gamma' and s = gamma'/n, from gamma = 1 - c t^2 by hand
    t = z / r
    c = 1.0 - params.c * t * t + t / params.n * 2.0 * params.c * t
    s = -2.0 * params.c * t / params.n
    radial = coords.x_frame.T @ (xi / r)
    one_form = c * radial
    if z > 0.0:
        one_form = one_form + s * (coords.y_frame.T @ (coords.y_part(p) / z))
    tensor = wedge(AlternatingTensor(N, 1, one_form),
                   interior_product(radial, covector_volume(coords.x_frame, N)))
    if coords.k:
        tensor = wedge(tensor, covector_volume(coords.l_frame, N))
    return cal.orientation * tensor.coefficients


def reference_singular(cals, p: np.ndarray, margin: float) -> bool:
    """Within margin of some summand's interface, or of its axis where its wedge is."""
    for cal in cals:
        r, z = float(cal.coords.r(p)), float(cal.coords.z(p))
        tan_theta = cal.params.tan_theta
        if float(cal.params.interface_distance(r, z)) <= margin:
            return True
        if z < tan_theta * r and r <= margin:
            return True
    return False


def test_singular_flags_wedge_points_at_r_equal_to_margin_for_tiny_c():
    # tan(theta) = 1e8: as |z - tan(theta) r| / sqrt(1 + tan(theta)^2) the
    # interface distance read one ulp above r at 171 of these points
    params = CutoffParams.forced(3, 1e-16)
    coords = WedgeCoordinates.from_axes(6, range(3), range(3, 6))
    field = build_vanishing_calibration(params, coords).field
    r = np.random.default_rng(0).uniform(size=2000)
    points = np.zeros((2000, 6))
    points[:, 0] = r
    points[1000:, 3] = 1e-9 * r[1000:]
    assert np.array_equal(coords.r(points), r)
    assert params.inside(coords.u(points)).all()
    unflagged = [i for i, p in enumerate(points)
                 if not field.singular_locus_descriptor(p[None], r[i])[0]]
    assert unflagged == []


def shared_axis_pair():
    b1 = np.zeros((4, 7))
    b1[0, 0] = b1[1, 1] = b1[2, 2] = b1[3, 3] = 1.0
    b2 = np.zeros((4, 7))
    b2[0, 4] = b2[1, 5] = b2[2, 6] = b2[3, 3] = 1.0
    return intersect_and_split(OrientedSubspace(7, b1), OrientedSubspace(7, b2))


@pytest.mark.parametrize("builder", ["constant", "vanishing", "pair", "scaled"])
def test_batched_coefficients_match_one_point_calls(cal, builder):
    params = make_params(3, 2.5)
    if builder == "constant":
        field = coordinate_plane_sum(2, 6, shared=1)
        tensor = field.evaluator(np.zeros(6)).coefficients
        reference, cals = (lambda p: tensor), ()
    elif builder == "vanishing":
        coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
        cal7 = build_vanishing_calibration(params, coords, orientation=-1.0)
        field, cals = cal7.field, (cal7,)
        reference = lambda p: reference_vanishing_tensor(cal7, p)
    elif builder == "pair":
        field, cals = sum_pair_calibration(params, shared_axis_pair())
        reference = lambda p: sum(reference_vanishing_tensor(c, p) for c in cals)
    else:
        f = lambda x: math.cos(float(x @ x))
        field, cals = scaled_calibration(cal, f), (cal,)
        retraction = RetractionMap(cal.coords, cal.params)
        reference = lambda p: f(cal.coords.x_part(retraction.apply(p))) * (
            reference_vanishing_tensor(cal, p))
    rng = np.random.default_rng(11)
    points = rng.uniform(-1.0, 1.0, size=(300, field.ambient_dim))
    points[::3, 3:6] *= 0.1  # many points inside a wedge, the rest mostly outside
    points[::7, 3:6] = 0.0  # and some on a calibrated plane
    batch = field.coefficients(points)
    assert batch.shape == (300, math.comb(field.ambient_dim, field.degree))
    for p, row in zip(points, batch):
        assert np.allclose(field.evaluator(p).coefficients, row, rtol=0.0, atol=1e-15)
        assert np.allclose(reference(p), row, rtol=0.0, atol=1e-14)
    if builder != "constant":
        assert np.count_nonzero(np.any(batch != 0.0, axis=1)) >= 50
    for margin in (0.0, 0.05, 0.3):
        mask = field.singular_locus_descriptor(points, margin)
        assert mask.shape == (300,) and mask.dtype == bool
        assert mask.tolist() == [reference_singular(cals, p, margin) for p in points]
