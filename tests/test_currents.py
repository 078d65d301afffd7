import math
import warnings
from itertools import product

import numpy as np
import pytest

from vancal.calibration import coordinate_plane_sum, sum_pair_calibration
from vancal.currents import (
    TriangulatedCurrent,
    _volumes,
    ball_mesh,
    boundary,
    calibration_inequality_check,
    disk_mesh,
    graphical_perturbation,
    integrate_form,
    mass,
    read_mesh,
    simplex_quadrature,
    square_mesh,
    write_mesh,
)
from vancal.cutoff import make_params
from vancal.exterior import (
    AlternatingTensor,
    FormField,
    _exterior_derivatives,
    constant_form_field,
    evaluate,
    n_coefficients,
)
from vancal.subspaces import coordinate_plane, intersect_and_split


UNIT_TRIANGLE = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])


def joined(a, b):
    """The chain a + b, as one vertex stack."""
    return TriangulatedCurrent(
        a.ambient_dim,
        a.degree,
        np.concatenate([a.simplices, b.simplices]),
        np.concatenate([a.multiplicities, b.multiplicities]),
    )


def reversed_current(current):
    return TriangulatedCurrent(
        current.ambient_dim, current.degree, current.simplices, -current.multiplicities
    )


def exact_monomial_integral(d, alpha):
    """Integral of prod x_i^a_i over the standard simplex {x >= 0, sum x <= 1}."""
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(d + sum(alpha))


# -- quadrature -----------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_quadrature_monomial_exactness(d, order):
    nodes, weights = simplex_quadrature(d, order)
    verts = np.vstack([np.zeros(d), np.eye(d)])
    pts = nodes @ verts
    vol = 1.0 / math.factorial(d)
    for alpha in product(range(order + 1), repeat=d):
        if sum(alpha) > order:
            continue
        approx = vol * float(weights @ np.prod(pts ** np.array(alpha), axis=1))
        assert approx == pytest.approx(exact_monomial_integral(d, alpha), abs=1e-12)


def test_quadrature_weights_sum_to_one():
    for d in (1, 2, 3, 4):
        _, weights = simplex_quadrature(d, 3)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_nodes_interior():
    nodes, _ = simplex_quadrature(3, 4)
    assert np.all(nodes > 0.0) and np.all(nodes < 1.0)


def test_order_refinement_invariant():
    # on a smooth nonpolynomial field, order-2 vs order-4 differ by less
    # than the order-2 error against a subdivided reference
    def coefficients(points):
        return np.cos(1.3 * points[:, :1] + 0.4 * points[:, 1:2] ** 2)

    field = FormField(2, 2, coefficients)
    tri = TriangulatedCurrent(2, 2, UNIT_TRIANGLE, [1])
    i2 = integrate_form(tri, field, 2)
    i4 = integrate_form(tri, field, 4)
    # reference: uniform 4^3-fold subdivision integrated at order 2
    def refine(current):
        v0, v1, v2 = np.swapaxes(current.simplices, 0, 1)
        m01, m12, m20 = (v0 + v1) / 2, (v1 + v2) / 2, (v2 + v0) / 2
        children = [(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)]
        vertices = np.stack([np.stack(child, axis=1) for child in children], axis=1)
        return TriangulatedCurrent(
            2, 2, vertices.reshape(-1, 3, 2), np.repeat(current.multiplicities, 4)
        )

    ref = tri
    for _ in range(3):
        ref = refine(ref)
    reference = integrate_form(ref, field, 2)
    assert abs(i2 - i4) <= abs(i2 - reference) + 1e-12
    assert abs(i4 - reference) < abs(i2 - reference)


# -- mass ------------------------------------------------------------------------


def test_mass_unit_square_and_multiplicity():
    assert mass(square_mesh()) == pytest.approx(1.0, abs=1e-15)
    assert mass(square_mesh(multiplicity=3)) == pytest.approx(3.0, abs=1e-15)


def test_mass_triangulation_invariance():
    # same square cut along the other diagonal
    a = square_mesh()
    v00, v10, v01, v11 = (np.array([0.0, 0]), np.array([1.0, 0]),
                          np.array([0.0, 1]), np.array([1.0, 1]))
    b = TriangulatedCurrent(2, 2, np.array([[v00, v10, v01], [v10, v11, v01]]), [1, 1])
    assert abs(mass(a) - mass(b)) < 1e-12


def test_mass_orientation_invariance():
    sq = square_mesh()
    flipped = reversed_current(sq)
    assert mass(flipped) == mass(sq)


def test_disk_mass_converges_to_pi():
    errors = []
    for rings in (8, 16, 32):
        errors.append(math.pi - mass(disk_mesh(rings)))
    assert all(e > 0 for e in errors)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(o > 1.8 for o in orders)  # theoretical rate is rings^-2


def test_disk_ten_thousand_triangles_within_1e3():
    disk = disk_mesh(41)
    assert len(disk) >= 10_000
    assert abs(mass(disk) - math.pi) < 1e-3


def test_degenerate_simplex_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        TriangulatedCurrent(2, 2, verts[None], [1])


def test_current_arrays_guard_their_inputs():
    sq = square_mesh()
    # the old tuple-of-simplices call: without a required multiplicity
    # array, numpy would add the two vertex stacks elementwise
    with pytest.raises(TypeError):
        TriangulatedCurrent(2, 2, sq.simplices + sq.simplices)
    with pytest.raises(ValueError, match="integers"):
        TriangulatedCurrent(2, 2, sq.simplices, [1.5, 1.0])
    with pytest.raises(ValueError, match="does not match"):
        TriangulatedCurrent(3, 2, sq.simplices, [1, 1])
    # a zero multiplicity is the zero chain and is dropped
    kept = TriangulatedCurrent(2, 2, sq.simplices, [0, -2])
    assert len(kept) == 1 and kept.multiplicities.tolist() == [-2]
    assert np.array_equal(kept.simplices, sq.simplices[1:])
    assert kept.multiplicities.dtype == np.int64
    with pytest.raises(ValueError):
        kept.simplices[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        kept.multiplicities[0] = 5


@pytest.mark.parametrize("current", [
    square_mesh(multiplicity=3), disk_mesh(6, 4), ball_mesh(1, 6),
    TriangulatedCurrent(2, 2, square_mesh().simplices, [0, -2]),
    TriangulatedCurrent(3, 0, np.eye(3)[:, None], [2, -1, 1]),
], ids=["square", "disk", "ball", "zero-row-dropped", "points"])
def test_volumes_are_the_read_only_simplex_volumes(current):
    assert current.volumes.tobytes() == _volumes(current.simplices).tobytes()
    with pytest.raises(ValueError):
        current.volumes[0] = 5.0
    # the sum that mass computed before it read the stored volumes
    assert mass(current) == float(
        np.sum(np.abs(current.multiplicities) * _volumes(current.simplices)))


# -- boundary ---------------------------------------------------------------------


def test_boundary_of_triangle():
    tri = TriangulatedCurrent(2, 2, UNIT_TRIANGLE, [1])
    edges = boundary(tri)
    assert len(edges) == 3
    assert mass(edges) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)


def test_boundary_squared_is_zero():
    sq = square_mesh()
    assert len(boundary(boundary(sq))) == 0
    ball = ball_mesh(1)
    assert len(boundary(boundary(ball))) == 0


def test_boundary_cancels_shared_edge():
    edges = boundary(square_mesh())
    assert len(edges) == 4  # the diagonal cancels exactly
    lengths = sorted(np.linalg.norm(edges.simplices[:, 1] - edges.simplices[:, 0], axis=1))
    assert lengths == pytest.approx([1.0, 1.0, 1.0, 1.0])


def octahedron():
    octa_v = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    return TriangulatedCurrent(3, 2, octa_v[np.array(faces)], np.ones(len(faces)))


def test_boundary_of_closed_surface_is_empty():
    assert len(boundary(octahedron())) == 0


def test_boundary_multiplicity_arithmetic_is_integer():
    sq = square_mesh(multiplicity=4)
    edges = boundary(sq)
    assert np.all(np.abs(edges.multiplicities) == 4)


def reference_boundary(degree, vertices, multiplicities):
    """Boundary faces and coefficients by a loop over simplices, keyed by sorted vertex tuples.

    Each face is keyed by its vertices in lexicographic order (-0.0 as 0.0);
    its coefficient is (-1)^j times the parity of that sorting permutation,
    counted by inversions, times the simplex's signed multiplicity.
    """
    acc = {}
    for verts, mult in zip(vertices, multiplicities):
        for j in range(degree + 1):
            rows = [tuple(0.0 + v for v in row) for row in np.delete(verts, j, axis=0)]
            order = sorted(range(len(rows)), key=rows.__getitem__)
            inversions = sum(
                1 for a in range(len(order)) for b in range(a + 1, len(order))
                if order[a] > order[b]
            )
            key = tuple(rows[i] for i in order)
            acc[key] = acc.get(key, 0) + int(mult) * (-1) ** (j + inversions)
    return {key: coeff for key, coeff in acc.items() if coeff != 0}


def signed_ball():
    """ball_mesh(1) with random signed multiplicities, zeros included, as raw arrays."""
    ball = ball_mesh(1)
    multiplicities = np.random.default_rng(3).integers(-2, 3, size=len(ball))
    assert np.any(multiplicities == 0) and np.any(multiplicities < 0)
    return ball.simplices, multiplicities


def arrays(current):
    return current.simplices, current.multiplicities


@pytest.mark.parametrize(
    "mesh",
    [
        lambda: arrays(square_mesh()),
        lambda: arrays(disk_mesh(6)),
        lambda: arrays(ball_mesh(1)),
        lambda: arrays(ball_mesh(2, 6, (3, 4, 5))),
        lambda: arrays(octahedron()),
        lambda: arrays(graphical_perturbation(ball_mesh(1, ambient_dim=4), 3, 0.2)),
        signed_ball,
    ],
    ids=["square", "disk6", "ball1", "ball2-r6", "octahedron", "bumped-ball", "signed-ball"],
)
def test_boundary_matches_reference(mesh):
    vertices, multiplicities = mesh()
    current = TriangulatedCurrent(
        vertices.shape[2], vertices.shape[1] - 1, vertices, multiplicities
    )
    edges = boundary(current)
    faces = {
        tuple(map(tuple, face)): coeff
        for face, coeff in zip(edges.simplices.tolist(), edges.multiplicities.tolist())
    }
    assert len(faces) == len(edges)
    assert faces == reference_boundary(current.degree, vertices, multiplicities)
    if current.degree >= 2:
        assert len(boundary(edges)) == 0


# -- integration --------------------------------------------------------------------


def test_integrate_constant_calibrant():
    sq = square_mesh()
    field = constant_form_field(AlternatingTensor.basis(2, (0, 1)))
    assert integrate_form(sq, field) == pytest.approx(1.0, abs=1e-14)
    reversed_sq = reversed_current(sq)
    assert integrate_form(reversed_sq, field) == pytest.approx(-1.0, abs=1e-14)


def test_integrate_degree_mismatch():
    sq = square_mesh()
    field = constant_form_field(AlternatingTensor.basis(2, (0,)))
    with pytest.raises(ValueError, match="degree"):
        integrate_form(sq, field)


def test_integrate_rejects_singular_nodes():
    sq = square_mesh()
    field = FormField(
        2,
        2,
        lambda p: np.ones((len(p), 1)),
        singular_locus_descriptor=lambda p, margin=0.0: np.ones(len(p), dtype=bool),
    )
    with pytest.raises(ValueError, match="singular"):
        integrate_form(sq, field)
    # one singular node among all of them: the centroid of the second triangle
    centroid = sq.simplices[1].mean(axis=0)
    field = FormField(
        2,
        2,
        lambda p: np.ones((len(p), 1)),
        singular_locus_descriptor=lambda p, margin=0.0:
            np.linalg.norm(p - centroid, axis=1) <= margin + 1e-12,
    )
    with pytest.raises(ValueError, match="singular"):
        integrate_form(sq, field)


def test_mesh_roundtrip_exact(tmp_path):
    ball = ball_mesh(1, ambient_dim=4, axes=(0, 1, 2))
    ball = TriangulatedCurrent(4, 3, ball.simplices, np.arange(len(ball)) % 5 - 2)
    path = tmp_path / "ball.mesh"
    write_mesh(ball, path)
    back = read_mesh(path)
    assert len(back) == len(ball)
    assert np.array_equal(back.simplices, ball.simplices)
    assert np.array_equal(back.multiplicities, ball.multiplicities)


# shared vertices repeat their tokens; -0.0, exponents, a sign, a bare point
# and two spellings of 0.5
REPEATED_TOKEN_MESH = """3 2 3
0 -0.0 1e-3 1.5E+0 0 2.5e-1 0.5 .5 -2 1
1.5E+0 0 2.5e-1 0 -0.0 1e-3 5e-1 +3 0 -1
0.5 .5 -2 5e-1 +3 0 7.25 -1e0 1E-300 2
"""


def test_read_mesh_matches_per_token_float(tmp_path):
    path = tmp_path / "repeated.mesh"
    path.write_text(REPEATED_TOKEN_MESH)
    current = read_mesh(path)
    rows = [line.split() for line in REPEATED_TOKEN_MESH.splitlines()[1:]]
    expected = np.array([[float(tok) for tok in row[:-1]] for row in rows]).reshape(3, 3, 3)
    assert current.simplices.tobytes() == expected.tobytes()
    assert np.signbit(current.simplices[0, 0, 1]) and np.signbit(current.simplices[1, 1, 1])
    assert current.multiplicities.tolist() == [1, -1, 2]
    # a generated mesh: every coordinate as ``float`` reads its token
    disk = disk_mesh(6, 4)
    write_mesh(disk, path)
    tokens = path.read_text().split()[3:]
    del tokens[12::13]
    expected = np.array([float(tok) for tok in tokens]).reshape(disk.simplices.shape)
    assert read_mesh(path).simplices.tobytes() == expected.tobytes()


# -0.0, the smallest subnormal, a subnormal, the smallest normal and 17-digit reprs
EDGE_COORDINATES = [-0.0, 5e-324, 1.2345678901234567e-310, 2.2250738585072014e-308,
                    0.30000000000000004, 1.0000000000000002, -123.45678901234568]


@pytest.mark.parametrize("N", range(1, 9))
def test_read_mesh_inverts_write_mesh(tmp_path, N):
    rng = np.random.default_rng(700 + N)
    path = tmp_path / "roundtrip.mesh"
    for k in range(min(3, N) + 1):
        empty = TriangulatedCurrent(N, k, np.zeros((0, k + 1, N)), [])
        write_mesh(empty, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_mesh(path)
        assert (back.ambient_dim, back.degree, back.simplices.shape) == (N, k, (0, k + 1, N))
        for count in range(1, 51):
            vertices = rng.standard_normal((count, k + 1, N))
            # edge values on the first vertex only, so no simplex degenerates
            vertices[:, 0] = rng.choice(EDGE_COORDINATES, size=(count, N))
            multiplicities = rng.choice([-(2**53) - 1, -3, -1, 1, 2, 2**53 + 1], size=count)
            current = TriangulatedCurrent(N, k, vertices, multiplicities)
            write_mesh(current, path)
            back = read_mesh(path)
            assert back.simplices.tobytes() == current.simplices.tobytes()
            assert back.multiplicities.tobytes() == current.multiplicities.tobytes()


@pytest.mark.parametrize(
    "body, match",
    [("0 0 1 0 # 1 1", "string '#' to float64 at row 0, column 5"),
     ("0 0 1 0\n0 1 1", "requires 7 columns but 4 were found at row 1"),
     ("0 0 1 0 0 1 1.0", "string '1.0' to int64 at row 0, column 7"),
     ("0 0 1 0 0 1_000 1", "string '1_000' to float64 at row 0, column 6"),
     ("0 0 1 0 0 ١ 1", "string '١' to float64 at row 0, column 6"),
     ("0 0 1 0 0 １ 1", "string '１' to float64 at row 0, column 6"),
     ("", "expected 1 simplices, one per line, got 0")],
    ids=["hash-token", "split-simplex", "float-multiplicity", "underscore-digits",
         "arabic-indic-digit", "fullwidth-digit", "missing-simplex"],
)
def test_read_mesh_rejects_input_outside_the_format(tmp_path, body, match):
    path = tmp_path / "bad.mesh"
    path.write_text(f"2 2 1\n{body}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        read_mesh(path)


def test_read_mesh_names_the_first_non_numeric_coordinate(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("2 2 2\n0 0 1 0 0 1 1\n0 y 1 0 x 1 1\n")
    with pytest.raises(ValueError, match="string 'y' to float64 at row 1, column 2"):
        read_mesh(path)


def test_read_mesh_drops_zero_multiplicity_rows(tmp_path):
    path = tmp_path / "segments.mesh"
    path.write_text("2 1 2\n0 0 1 0 0\n0 0 0 1 -3\n")
    current = read_mesh(path)
    assert current.multiplicities.tolist() == [-3]
    assert np.array_equal(current.simplices, [[[0.0, 0.0], [0.0, 1.0]]])


def test_read_mesh_token_count_guard(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 1\n0 0 1\n")
    with pytest.raises(ValueError, match="requires 5 columns but 3 were found"):
        read_mesh(path)


@pytest.mark.parametrize(
    "text, match",
    [("2 1 1\n0 0 1 0 1.5", "string '1.5' to int64"), ("2 1 1\n0 0 0 0 1", "degenerate"),
     ("2 2 1\n0 0 1 0 nan 1 1", "finite")],
    ids=["non-integer-multiplicity", "degenerate-simplex", "nan-coordinate"],
)
def test_read_mesh_rejects_bad_simplices(tmp_path, text, match):
    path = tmp_path / "bad.mesh"
    path.write_text(f"{text}\n")
    with pytest.raises(ValueError, match=match):
        read_mesh(path)


# -- calibration inequality -----------------------------------------------------------


@pytest.fixture(scope="module")
def pair_field():
    params = make_params(3, 2.5)
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    field, _ = sum_pair_calibration(params, pair)
    return field


@pytest.fixture(scope="module")
def ball_pair():
    ball1 = ball_mesh(2, ambient_dim=6, axes=(0, 1, 2))
    ball2 = ball_mesh(2, ambient_dim=6, axes=(3, 4, 5))
    return ball1, ball2, joined(ball1, ball2)


def test_calibrated_ball_pair_achieves_equality(pair_field, ball_pair):
    _, _, both = ball_pair
    rep = calibration_inequality_check(both, pair_field)
    assert rep.passed
    assert rep.calibrated
    assert abs(rep.mass - rep.pairing) <= 1e-6 * rep.mass


def test_flat_disk_in_plane_is_calibrated(pair_field):
    disk = disk_mesh(10, ambient_dim=6, plane_axes=(0, 1))
    # 2-dimensional current cannot pair with the 3-form; build a 3-ball instead
    ball = ball_mesh(1, ambient_dim=6, axes=(0, 1, 2))
    rep = calibration_inequality_check(ball, pair_field)
    assert rep.calibrated


def test_competitors_strictly_worse(pair_field, ball_pair):
    ball1, ball2, both = ball_pair
    flat = calibration_inequality_check(both, pair_field)
    previous_slack = 0.0
    for eps in (0.05, 0.1, 0.2):
        bumped = graphical_perturbation(ball1, normal_axis=3, amplitude=eps)
        competitor = joined(bumped, ball2)
        rep = calibration_inequality_check(competitor, pair_field)
        assert rep.mass > flat.mass  # strictly more area
        assert rep.pairing < rep.mass  # strictly smaller pairing
        assert rep.slack > previous_slack  # margin grows with the amplitude
        previous_slack = rep.slack
        # same boundary cycle as the calibrated pair
        assert len(boundary(competitor)) == len(boundary(both))


def test_zero_current_trivially_calibrated(pair_field):
    empty = TriangulatedCurrent(6, 3, np.empty((0, 4, 6)), [])
    rep = calibration_inequality_check(empty, pair_field)
    assert rep.slack == 0.0
    assert rep.calibrated


@pytest.mark.parametrize(
    "cap, inequality, calibrated", [(0.5, False, False), (1.0, True, True), (2.0, True, False)]
)
def test_calibrated_needs_equality_on_both_sides(cap, inequality, calibrated):
    # the unit square pairs to 1 with the volume form; only cap 1 is equality
    volume = constant_form_field(AlternatingTensor.basis(2, (0, 1)))
    rep = calibration_inequality_check(square_mesh(), volume, comass_cap=cap)
    assert rep.slack == pytest.approx(cap - 1.0)
    verdicts = {c.name: c.passed for c in rep.checks()}
    assert verdicts == {"calibration_inequality": inequality, "calibrated": calibrated}
    assert rep.calibrated is calibrated
    assert rep.passed is (inequality and calibrated)
    assert rep.checks()[1].threshold == pytest.approx(cap)


def test_pairing_bounded_by_mass_times_comass(pair_field, ball_pair):
    # |T(F)| <= M(T) * max comass for every tested current
    _, _, both = ball_pair
    rng = np.random.default_rng(0)
    for _ in range(3):
        shift = rng.uniform(-0.2, 0.2, size=6)
        shifted = TriangulatedCurrent(6, 3, both.simplices + shift, both.multiplicities)
        rep = calibration_inequality_check(shifted, pair_field)
        assert rep.pairing <= rep.mass * 1.0 + 1e-8


def simplex_volume(vertices):
    edges = vertices[1:] - vertices[0]
    return math.sqrt(max(np.linalg.det(edges @ edges.T), 0.0)) / math.factorial(len(edges))


def reference_integral(degree, vertices, multiplicities, field, order):
    """T(F) by a loop over raw simplex arrays and quadrature nodes, one field call per node.

    A negative multiplicity reverses the simplex by negating the first row
    of its tangent frame.
    """
    nodes, weights = simplex_quadrature(degree, order)
    total = 0.0
    for verts, mult in zip(vertices, multiplicities):
        edges = verts[1:] - verts[0]
        q, r = np.linalg.qr(edges.T)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        frame = (q * signs).T
        if mult < 0:
            frame[0] = -frame[0]
        acc = 0.0
        for w, p in zip(weights, nodes @ verts):
            acc += w * evaluate(field.evaluator(p), frame)
        total += abs(mult) * simplex_volume(verts) * acc
    return total


@pytest.mark.parametrize("order", [2, 4])
def test_integrate_form_matches_per_simplex_loop(pair_field, ball_pair, order):
    rng = np.random.default_rng(5)
    _, _, both = ball_pair
    shift = rng.uniform(-0.3, 0.3, size=6)
    multiplicities = rng.integers(0, 4, size=len(both)) * rng.choice([-1, 1, 1], size=len(both))
    assert np.any(multiplicities == 0) and np.any(multiplicities < 0)
    disk = graphical_perturbation(disk_mesh(6, ambient_dim=4), 2, 0.3, plane_axes=(0, 1))
    cases = (
        (both.simplices + shift, multiplicities, pair_field),
        (disk.simplices, disk.multiplicities, coordinate_plane_sum(2, 4)),
    )
    for vertices, mults, field in cases:
        degree = vertices.shape[1] - 1
        current = TriangulatedCurrent(vertices.shape[2], degree, vertices, mults)
        reference = reference_integral(degree, vertices, mults, field, order)
        assert integrate_form(current, field, order) == pytest.approx(reference, rel=1e-13)
        volumes = [abs(m) * simplex_volume(v) for v, m in zip(vertices, mults)]
        assert mass(current) == pytest.approx(sum(volumes), rel=1e-13)


# -- Stokes ------------------------------------------------------------------------------


def test_boundary_of_segment_pairs_to_zero():
    seg = TriangulatedCurrent(2, 1, np.array([[[0.0, 0.0], [1.0, 0.0]]]), [1])
    one = constant_form_field(AlternatingTensor.scalar(2, 1.0))
    assert integrate_form(boundary(seg), one) == 0.0


@pytest.mark.parametrize("k, N", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)])
def test_stokes_on_random_simplices(k, N):
    # (dS)(omega) = S(d omega) for a (k-1)-form with quadratic coefficients;
    # order-2 quadrature and the central difference are both exact on it
    rng = np.random.default_rng(10 * k + N)
    M = n_coefficients(N, k - 1)
    constant = rng.standard_normal(M)
    linear = rng.standard_normal((N, M))
    quadratic = rng.standard_normal((N, N, M))

    def coefficients(points):
        return constant + points @ linear + np.einsum("pi,pj,ijm->pm", points, points, quadratic)

    omega = FormField(N, k - 1, coefficients)
    d_omega = FormField(N, k, lambda p: _exterior_derivatives(omega, p, [0.5])[:, 0])
    for _ in range(5):
        simplex = TriangulatedCurrent(N, k, rng.standard_normal((1, k + 1, N)), [1])
        lhs = integrate_form(boundary(simplex), omega, 2)
        rhs = integrate_form(simplex, d_omega, 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
