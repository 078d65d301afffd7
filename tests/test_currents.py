import math
from itertools import product

import numpy as np
import pytest

from vancal.calibration import coordinate_plane_sum, sum_pair_calibration
from vancal.currents import (
    Simplex,
    TriangulatedCurrent,
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
from vancal.exterior import AlternatingTensor, FormField, constant_form_field, evaluate
from vancal.subspaces import coordinate_plane, intersect_and_split


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
    tri = TriangulatedCurrent(
        2, 2, (Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),)
    )
    i2 = integrate_form(tri, field, 2)
    i4 = integrate_form(tri, field, 4)
    # reference: uniform 4^3-fold subdivision integrated at order 2
    def refine(current):
        sims = []
        for s in current.simplices:
            v0, v1, v2 = s.vertices
            m01, m12, m20 = (v0 + v1) / 2, (v1 + v2) / 2, (v2 + v0) / 2
            for tri_verts in ((v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)):
                sims.append(Simplex(np.array(tri_verts), s.multiplicity, s.sign))
        return TriangulatedCurrent(2, 2, tuple(sims))

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
    b = TriangulatedCurrent(
        2,
        2,
        (
            Simplex(np.array([v00, v10, v01])),
            Simplex(np.array([v10, v11, v01])),
        ),
    )
    assert abs(mass(a) - mass(b)) < 1e-12


def test_mass_orientation_invariance():
    sq = square_mesh()
    flipped = TriangulatedCurrent(
        2, 2, tuple(Simplex(s.vertices, s.multiplicity, -s.sign) for s in sq.simplices)
    )
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
        TriangulatedCurrent(2, 2, (Simplex(verts),))


# -- boundary ---------------------------------------------------------------------


def test_boundary_of_triangle():
    tri = TriangulatedCurrent(
        2, 2, (Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),)
    )
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
    lengths = sorted(s.volume() for s in edges.simplices)
    assert lengths == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_boundary_of_closed_surface_is_empty():
    octa_v = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    octa = TriangulatedCurrent(3, 2, tuple(Simplex(octa_v[list(f)]) for f in faces))
    assert len(boundary(octa)) == 0


def test_boundary_multiplicity_arithmetic_is_integer():
    sq = square_mesh(multiplicity=4)
    edges = boundary(sq)
    assert all(s.multiplicity == 4 for s in edges.simplices)


# -- integration --------------------------------------------------------------------


def test_integrate_constant_calibrant():
    sq = square_mesh()
    field = constant_form_field(AlternatingTensor.basis(2, (0, 1)))
    assert integrate_form(sq, field) == pytest.approx(1.0, abs=1e-14)
    reversed_sq = TriangulatedCurrent(
        2, 2, tuple(Simplex(s.vertices, s.multiplicity, -s.sign) for s in sq.simplices)
    )
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
    centroid = sq.simplices[1].vertices.mean(axis=0)
    field = FormField(
        2,
        2,
        lambda p: np.ones((len(p), 1)),
        singular_locus_descriptor=lambda p, margin=0.0:
            np.linalg.norm(p - centroid, axis=1) <= margin + 1e-12,
    )
    with pytest.raises(ValueError, match="singular"):
        integrate_form(sq, field)


def test_mesh_roundtrip_exact():
    ball = ball_mesh(1, ambient_dim=4, axes=(0, 1, 2))
    path = "/tmp/vancal_test_mesh.txt"
    write_mesh(ball, path)
    back = read_mesh(path)
    assert len(back) == len(ball)
    for a, b in zip(ball.simplices, back.simplices):
        assert np.array_equal(a.vertices, b.vertices)
        assert a.multiplicity == b.multiplicity and a.sign == b.sign


def test_read_mesh_token_count_guard(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 1\n0 0 1\n")
    with pytest.raises(ValueError, match="tokens"):
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
    return ball1, ball2, TriangulatedCurrent(6, 3, ball1.simplices + ball2.simplices)


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
        competitor = TriangulatedCurrent(6, 3, bumped.simplices + ball2.simplices)
        rep = calibration_inequality_check(competitor, pair_field)
        assert rep.mass > flat.mass  # strictly more area
        assert rep.pairing < rep.mass  # strictly smaller pairing
        assert rep.slack > previous_slack  # margin grows with the amplitude
        previous_slack = rep.slack
        # same boundary cycle as the calibrated pair
        assert len(boundary(competitor)) == len(boundary(both))


def test_zero_current_trivially_calibrated(pair_field):
    empty = TriangulatedCurrent(6, 3, ())
    rep = calibration_inequality_check(empty, pair_field)
    assert rep.slack == 0.0
    assert rep.calibrated


def test_pairing_bounded_by_mass_times_comass(pair_field, ball_pair):
    # |T(F)| <= M(T) * max comass for every tested current
    _, _, both = ball_pair
    rng = np.random.default_rng(0)
    for _ in range(3):
        shift = rng.uniform(-0.2, 0.2, size=6)
        shifted = TriangulatedCurrent(
            6,
            3,
            tuple(
                Simplex(s.vertices + shift, s.multiplicity, s.sign)
                for s in both.simplices
            ),
        )
        rep = calibration_inequality_check(shifted, pair_field)
        assert rep.pairing <= rep.mass * 1.0 + 1e-8


def reference_integral(current, field, order):
    """T(F) by a loop over simplices and quadrature nodes, one field call per node."""
    nodes, weights = simplex_quadrature(current.degree, order)
    total = 0.0
    for s in current.simplices:
        if s.multiplicity == 0:
            continue
        edges = s.vertices[1:] - s.vertices[0]
        q, r = np.linalg.qr(edges.T)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        frame = (q * signs).T
        if s.sign < 0:
            frame[0] = -frame[0]
        volume = math.sqrt(max(np.linalg.det(edges @ edges.T), 0.0)) / math.factorial(
            current.degree)
        acc = 0.0
        for w, p in zip(weights, nodes @ s.vertices):
            acc += w * evaluate(field.evaluator(p), frame)
        total += s.multiplicity * volume * acc
    return total


@pytest.mark.parametrize("order", [2, 4])
def test_integrate_form_matches_per_simplex_loop(pair_field, ball_pair, order):
    rng = np.random.default_rng(5)
    _, _, both = ball_pair
    shift = rng.uniform(-0.3, 0.3, size=6)
    balls = TriangulatedCurrent(6, 3, tuple(
        Simplex(s.vertices + shift, int(rng.integers(0, 4)), int(rng.choice([-1, 1, 1])))
        for s in both.simplices
    ))
    assert any(s.multiplicity == 0 for s in balls.simplices)
    assert any(s.sign < 0 for s in balls.simplices)
    disk = graphical_perturbation(disk_mesh(6, ambient_dim=4), 2, 0.3, plane_axes=(0, 1))
    for current, field in ((balls, pair_field), (disk, coordinate_plane_sum(2, 4))):
        reference = reference_integral(current, field, order)
        assert integrate_form(current, field, order) == pytest.approx(reference, rel=1e-13)
        volumes = [s.multiplicity * s.volume() for s in current.simplices]
        assert mass(current) == pytest.approx(sum(volumes), rel=1e-13)
