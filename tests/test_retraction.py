import math
import threading
import warnings

import numpy as np
import pytest

import vancal.retraction as retraction_module
from vancal import exterior
from vancal.calibration import build_vanishing_calibration
from vancal.coords import WedgeCoordinates
from vancal.cutoff import CutoffParams, make_params
from vancal.exterior import (
    PLANE_CHUNK,
    STENCIL_CLEARANCE,
    _batched_plucker,
    _plane_values,
    random_orthonormal_frames,
)
from vancal.retraction import (
    AREA_BLOCK_SAMPLES,
    DIFFERENTIAL_STEP,
    PLANE_LEAK_TOL,
    RetractionMap,
    level_set_curve_consistency,
    lipschitz_estimate,
    sample_wedge_points,
    top_volume_scaling,
    verify_area_nonincreasing,
)


@pytest.fixture(scope="module")
def retraction():
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    return RetractionMap(coords, params)


def test_identity_on_the_plane(retraction):
    p = np.array([0.3, -0.8, 1.1, 0.0, 0.0, 0.0])
    assert np.array_equal(retraction.apply(p), p)


def test_wedge_exterior_maps_to_zero(retraction):
    p = np.array([0.1, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert float(retraction.coords.u(p)) > retraction.params.tan_theta ** 2
    assert np.array_equal(retraction.apply(p), np.zeros(6))
    # continuity: both sides of the interface give 0 in the limit
    tan_theta = retraction.params.tan_theta
    just_inside = np.array([1.0, 0, 0, tan_theta * (1 - 1e-9), 0, 0])
    assert np.linalg.norm(retraction.apply(just_inside)) < 1e-2


@pytest.mark.parametrize("shared", [False, True], ids=["no-l-block", "l-block"])
def test_apply_maps_the_x_axis_locus_to_its_l_part(shared):
    # r = 0 makes u = z^2 / r^2 inf or nan, which must give scale 0 without a warning
    if shared:
        coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
    else:
        coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    retraction = RetractionMap(coords, make_params(3, 2.5))
    wedge = sample_wedge_points(coords, retraction.params, 4, np.random.default_rng(5))
    axis = np.zeros((3, coords.ambient_dim))  # z = 0, then two points with z > 0
    axis[1, 3] = 0.7
    axis[2, 3:6] = [0.2, -0.5, 1.1]
    if shared:
        axis[:, 6] = [1.3, -0.4, 0.0]
    batch = np.vstack([wedge[:2], axis[:1], wedge[2:3], axis[1:], wedge[3:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = retraction.apply(batch)
        rows = [retraction.apply(p) for p in batch]
    for row, one in zip(out, rows):
        assert np.array_equal(row, one)
    on_axis = coords.r(batch) == 0.0
    assert on_axis.sum() == 3
    assert np.array_equal(out[on_axis], coords.l_part(axis) @ coords.l_frame)
    assert np.all(np.linalg.norm(coords.x_part(out[~on_axis]), axis=1) > 0.0)


def test_apply_zeros_the_x_part_exactly_where_the_field_vanishes():
    # both read the one wedge rule, so they agree point by point within a few
    # ulps of the interface: t = tan(theta) (1 + j 2^-52), j in [-4, 4]
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    retraction = RetractionMap(coords, params)
    field = build_vanishing_calibration(params, coords).field
    rng = np.random.default_rng(1)
    count = 20_000
    x_dir = rng.standard_normal((count, 3))
    y_dir = rng.standard_normal((count, 3))
    x_dir /= np.linalg.norm(x_dir, axis=1, keepdims=True)
    y_dir /= np.linalg.norm(y_dir, axis=1, keepdims=True)
    r = rng.uniform(0.5, 1.5, size=count)
    t = params.tan_theta * (1.0 + rng.integers(-4, 5, size=count) * 2.0**-52)
    points = coords.assemble(r[:, None] * x_dir, (r * t)[:, None] * y_dir)
    vanishes = ~field.coefficients(points).any(axis=1)
    zeroed = ~coords.x_part(retraction.apply(points)).any(axis=1)
    assert 0 < vanishes.sum() < count  # both sides of the interface
    assert np.array_equal(zeroed, vanishes)


def test_one_homogeneous(retraction):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((100, 6))
    scales = rng.uniform(0.1, 5.0, size=100)
    lhs = retraction.apply(scales[:, None] * pts)
    rhs = scales[:, None] * retraction.apply(pts)
    denom = np.maximum(1.0, np.abs(rhs))
    assert np.max(np.abs(lhs - rhs) / denom) < 1e-12


def test_idempotent(retraction):
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((100, 6))
    once = retraction.apply(pts)
    assert np.max(np.abs(retraction.apply(once) - once)) < 1e-12


def test_jacobian_identity_block_on_plane(retraction):
    p = np.array([0.9, -0.4, 0.7, 0.0, 0.0, 0.0])
    jac = retraction.differential(p, 1e-6)
    assert np.allclose(jac[:3, :3], np.eye(3), atol=1e-9)
    assert np.allclose(jac[3:, :], 0.0, atol=1e-9)


def test_jacobian_zero_outside_wedge(retraction):
    p = np.array([0.3, 0.1, -0.2, 1.3, 0.8, 0.9])  # t well beyond tan(theta)
    jac = retraction.differential(p, 1e-6)
    assert np.allclose(jac, 0.0, atol=1e-12)


def test_jacobian_matches_chain_rule_oracle(retraction):
    rng = np.random.default_rng(2)
    pts = sample_wedge_points(retraction.coords, retraction.params, 20, rng)
    for p in pts:
        fd = retraction.differential(p, 1e-6)
        exact = retraction.differential_exact(p)
        assert np.max(np.abs(fd - exact)) < 1e-8


def test_fd_jacobian_second_order(retraction):
    p = np.array([1.0, 0.2, -0.4, 0.3, 0.15, -0.1])
    exact = retraction.differential_exact(p)
    errors = [
        np.max(np.abs(retraction.differential(p, h) - exact)) for h in (1e-3, 5e-4, 2.5e-4)
    ]
    order = np.polyfit(np.log([1e-3, 5e-4, 2.5e-4]), np.log(errors), 1)[0]
    assert order > 1.8


def test_volume_scaling_equals_middle_expression(retraction):
    # the top-n scaling of the differential is exactly sqrt((c)^2 + (s)^2)
    rng = np.random.default_rng(3)
    pts = sample_wedge_points(retraction.coords, retraction.params, 10, rng)
    for p in pts:
        u = float(retraction.coords.u(p))
        expected = math.sqrt(float(retraction.params.middle_u(u)))
        measured = top_volume_scaling(retraction.differential_exact(p), 3)
        assert measured == pytest.approx(expected, rel=1e-10)


def plane_scalings(jacobians, frames, basis):
    """(C, count) scalings of (C, count, d, N) frames: the score of the pulled-back P(BJ)."""
    C, count, d, N = frames.shape
    tensors = _batched_plucker(basis @ jacobians, N, d)
    return _plane_values(frames.reshape(-1, d, N), tensors).reshape(C, count)


def test_tangent_plane_scaling_is_one(retraction):
    p = np.array([0.8, 0.5, -0.3, 0.0, 0.0, 0.0])
    jac = retraction.differential(p, 1e-6)
    x_frame = retraction.coords.x_frame
    scaling = plane_scalings(jac[None], x_frame[None, None], x_frame)
    assert scaling[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_plane_volume_scaling_depends_only_on_the_plane(retraction):
    # a Gaussian frame and its orthonormalization span the same plane
    rng = np.random.default_rng(8)
    points = sample_wedge_points(retraction.coords, retraction.params, 4, rng)
    jacs = retraction.differential(points, 1e-6)
    mats = rng.standard_normal((4 * 30, 6, 3))
    orthonormal = np.linalg.qr(mats)[0]
    gaussian = np.swapaxes(mats, 1, 2).reshape(4, 30, 3, 6)
    x_frame = retraction.coords.x_frame
    expected = plane_scalings(jacs, np.swapaxes(orthonormal, 1, 2).reshape(4, 30, 3, 6), x_frame)
    assert np.allclose(plane_scalings(jacs, gaussian, x_frame), expected, rtol=1e-13, atol=0.0)


def two_pass_plane_volume_scaling(jacobian, plane_frames):
    """|P(frames J^T)| / |P(frames)| for (C, N, N) and (C, count, d, N): no plane assumed."""
    images = plane_frames @ np.swapaxes(jacobian, -1, -2)[:, None]
    *lead, d, N = plane_frames.shape

    def volumes(frames):
        return np.linalg.norm(_batched_plucker(frames.reshape(-1, d, N), N, d), axis=1)

    return (volumes(images) / volumes(plane_frames)).reshape(lead)


@pytest.mark.parametrize("N, n, k, a", [(6, 3, 0, 2.5), (7, 3, 1, 2.5), (8, 4, 0, 5.0)],
                         ids=["R6", "R7-k1", "R8-n4"])
def test_plane_volume_scaling_matches_the_two_pass_formula(N, n, k, a):
    # on rotated frames, with the exact Jacobians, which map into x + l to rounding
    q, r = np.linalg.qr(np.random.default_rng(N).standard_normal((N, N)))
    q *= np.sign(np.diag(r))
    coords = WedgeCoordinates(N, q[:n], q[n : N - k], q[N - k :])
    retraction = RetractionMap(coords, make_params(n, a))
    rng = np.random.default_rng(3)
    points = sample_wedge_points(coords, retraction.params, 20, rng)
    jacs = np.array([retraction.differential_exact(p) for p in points])
    frames = rng.standard_normal((20, 40, n + k, N))
    scalings = plane_scalings(jacs, frames, np.vstack([coords.x_frame, coords.l_frame]))
    expected = two_pass_plane_volume_scaling(jacs, frames)
    # relative to each Jacobian's largest scaling: both formulas cancel in the
    # minors of a thin plane, whose own relative error reaches 1e-11
    assert np.all(np.abs(scalings - expected) <= 1e-13 * expected.max(axis=1, keepdims=True))
    assert expected.max() > 0.25


class LeakyRetraction(RetractionMap):
    """Adds 1e-6 y to the image, off the calibrated plane: no longer a retraction."""

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        return super().apply(points) + 1e-6 * self.coords.y_part(points) @ self.coords.y_frame


class ScaledRetraction(RetractionMap):
    """Scales the image by 1.001, so the plane x + l scales by 1.001^3."""

    def apply(self, points):
        return 1.001 * super().apply(points)


@pytest.mark.parametrize("shared", [False, True], ids=["no-l-block", "l-block"])
def test_maps_into_plane_catches_a_leak(shared):
    if shared:
        coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
    else:
        coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    plain = verify_area_nonincreasing(RetractionMap(coords, make_params(3, 2.5)), 200, 20, 0)
    assert plain.passed
    assert plain.max_plane_leak == 0.0  # axis frames: the y-rows of J are exactly 0
    rep = verify_area_nonincreasing(LeakyRetraction(coords, make_params(3, 2.5)), 200, 20, 0)
    leak = {c.name: c for c in rep.checks()}["maps_into_plane"]
    assert leak.measured == pytest.approx(1e-6, rel=1e-6)
    assert leak.tolerance == PLANE_LEAK_TOL
    assert [c.name for c in rep.checks() if not c.passed] == ["maps_into_plane", "idempotent"]


def test_identity_on_plane_catches_a_scaled_map():
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    rep = verify_area_nonincreasing(ScaledRetraction(coords, make_params(3, 2.5)), 200, 20, 0)
    identity = {c.name: c for c in rep.checks()}["identity_on_plane"]
    assert not identity.passed
    assert identity.measured == pytest.approx(1.001**3 - 1.0, rel=1e-6)


def test_verify_area_nonincreasing_passes(retraction):
    rep = verify_area_nonincreasing(retraction, 200, 40, seed=0)
    assert rep.passed
    assert rep.max_plane_scaling <= 1.0 + 1e-8
    assert rep.max_top_scaling <= 1.0 + 1e-8


def reference_area_scalings(retraction, samples, planes, seed, h=DIFFERENTIAL_STEP):
    """(max plane scaling, max top scaling) by one Jacobian, draw and SVD per sample."""
    coords, params = retraction.coords, retraction.params
    n, N = params.n + coords.k, coords.ambient_dim
    rng = np.random.default_rng(seed)
    # t up to the interface
    points = sample_wedge_points(coords, params, samples, rng, t_fraction=(0.05, 1.0))
    max_plane = max_top = 0.0
    for p in points:
        steps = h * np.eye(N)
        jac = (retraction.apply(p + steps) - retraction.apply(p - steps)).T / (2.0 * h)
        frames = random_orthonormal_frames(planes, N, n, rng)
        restricted = np.einsum("ij,pkj->pik", jac, frames)
        svals = np.linalg.svd(restricted, compute_uv=False)
        max_plane = max(max_plane, float(np.prod(svals, axis=1).max()))
        max_top = max(max_top, float(np.prod(np.linalg.svd(jac, compute_uv=False)[:n])))
    return max_plane, max_top


@pytest.mark.parametrize("profile_c", [None, 2.0])
def test_verify_area_nonincreasing_matches_per_sample_loop(retraction, profile_c, monkeypatch):
    if profile_c is not None:  # the expanding negative control
        retraction = RetractionMap(retraction.coords, CutoffParams.forced(3, profile_c))
    samples, planes, jacobian_block = 12, 100, 7
    monkeypatch.setattr(retraction_module, "AREA_BLOCK_SAMPLES", jacobian_block)
    sub_block = max(1, PLANE_CHUNK // planes)
    assert samples * planes > 2 * PLANE_CHUNK  # several plane sub-blocks
    # several Jacobian blocks, the last one partial, and sub-blocks that end
    # inside a Jacobian block as well as at its end
    assert samples > jacobian_block and samples % jacobian_block != 0
    assert jacobian_block > sub_block and jacobian_block % sub_block != 0
    rep = verify_area_nonincreasing(retraction, samples, planes, seed=7)
    max_plane, max_top = reference_area_scalings(retraction, samples, planes, seed=7)
    assert rep.max_top_scaling == max_top
    assert rep.max_plane_scaling == pytest.approx(max_plane, abs=1e-13)


def test_verify_area_nonincreasing_takes_one_differential_per_jacobian_block(
        retraction, monkeypatch):
    # 500 samples of 100 planes are 100 plane sub-blocks of 5 samples, but one
    # Jacobian block; the second call is the point on the calibrated plane
    assert AREA_BLOCK_SAMPLES >= 500
    differential = RetractionMap.differential
    shapes = []

    def counted(self, points, *args, **kwargs):
        shapes.append(np.shape(points))
        return differential(self, points, *args, **kwargs)

    monkeypatch.setattr(RetractionMap, "differential", counted)
    verify_area_nonincreasing(retraction, 500, 100, seed=0)
    assert shapes == [(500, 6), (6,)]


def test_verify_area_nonincreasing_draws_one_chunk_per_plane_sub_block(retraction, monkeypatch):
    # 600 samples of 100 planes: the first Jacobian block of 512 samples is
    # 102 sub-blocks of 5 and ends in one of 2, the second block of 88 is 17
    # of 5 and one of 3; each sub-block's planes are one chunk
    assert AREA_BLOCK_SAMPLES == 512 and PLANE_CHUNK // 100 == 5
    draws = retraction_module._normal_chunks
    sizes = []

    def spy(rng, chunk_sizes, shape):
        sizes.extend(chunk_sizes)
        return draws(rng, chunk_sizes, shape)

    monkeypatch.setattr(retraction_module, "_normal_chunks", spy)
    before = threading.active_count()
    verify_area_nonincreasing(retraction, 600, 100, seed=0)
    assert sizes == [500] * 102 + [200] + [500] * 17 + [300]
    assert threading.active_count() == before


@pytest.mark.parametrize("samples, planes", [(12, 100), (3, 600)], ids=["100-planes", "600-planes"])
def test_verify_area_nonincreasing_does_not_depend_on_the_plane_chunk(
        retraction, samples, planes, monkeypatch):
    # at chunk 1 every sample has more planes than a chunk, as the 600-plane
    # samples have at the default chunk
    reports = []
    for chunk in (PLANE_CHUNK, 1, 1 << 20):
        monkeypatch.setattr(exterior, "PLANE_CHUNK", chunk)
        reports.append(verify_area_nonincreasing(retraction, samples, planes, seed=5))
    assert reports[0].max_plane_scaling > 0.5
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_verify_area_nonincreasing_takes_one_pulled_back_pass_per_jacobian_block(
        retraction, monkeypatch):
    # 12 samples in Jacobian blocks of 7: two P(BJ) passes, then the tangent
    # plane's; at 100 planes a sample a chunk holds 5 samples, so the blocks'
    # 7 + 5 samples take three scorer passes, and the tangent plane one
    monkeypatch.setattr(retraction_module, "AREA_BLOCK_SAMPLES", 7)
    pulled_back, scored = [], []

    def spy(calls):
        def kernel(frames, ambient_dim, degree, workspace=None):
            calls.append(frames.shape)
            return _batched_plucker(frames, ambient_dim, degree, workspace)
        return kernel

    monkeypatch.setattr(retraction_module, "_batched_plucker", spy(pulled_back))
    monkeypatch.setattr(exterior, "_batched_plucker", spy(scored))
    verify_area_nonincreasing(retraction, 12, 100, seed=0)
    assert pulled_back == [(7, 3, 6), (5, 3, 6), (1, 3, 6)]
    assert scored == [(500, 3, 6), (200, 3, 6), (500, 3, 6), (1, 3, 6)]
    # one Jacobian block of 500 samples: 2 + 101 kernel calls
    monkeypatch.setattr(retraction_module, "AREA_BLOCK_SAMPLES", AREA_BLOCK_SAMPLES)
    pulled_back.clear()
    scored.clear()
    verify_area_nonincreasing(retraction, 500, 100, seed=0)
    assert (len(pulled_back), len(scored)) == (2, 101)


def test_negative_control_detects_expansion():
    # c' > n(n-2)/2 makes the t^2 coefficient of the scaling positive,
    # violating the upper bound of the cutoff inequality near t = 0
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    bad = RetractionMap(coords, CutoffParams.forced(3, 2.0))
    rep = verify_area_nonincreasing(bad, 300, 40, seed=0)
    assert not rep.passed
    assert rep.max_top_scaling > 1.0


def test_lipschitz_estimate_finite(retraction):
    lip = lipschitz_estimate(retraction, 50_000, seed=4)
    assert math.isfinite(lip)
    assert lip >= 1.0  # the map is the identity on the plane


def test_level_set_curve_identity(retraction):
    thetas = np.linspace(0.05, retraction.params.tan_theta and math.atan(
        retraction.params.tan_theta) * 0.95, 9)
    assert level_set_curve_consistency(retraction, thetas) < 1e-10


def test_differential_guards(retraction):
    tan_theta = retraction.params.tan_theta
    on_interface = np.array([1.0, 0.0, 0.0, tan_theta, 0.0, 0.0])
    near_axis = np.array([1e-9, 0, 0, 0.0, 0, 0])
    good = sample_wedge_points(retraction.coords, retraction.params, 6, np.random.default_rng(8))
    for bad in (on_interface, near_axis):
        with pytest.raises(ValueError, match="touches the singular locus"):
            retraction.differential(bad, 1e-3)
        # one bad point inside a batch of good ones
        with pytest.raises(ValueError, match="touches the singular locus"):
            retraction.differential(np.vstack([good[:3], bad, good[3:]]), 1e-3)


@pytest.mark.parametrize("seed", [6413, 14721, 15670])
def test_verify_area_nonincreasing_keeps_the_stencil_clearance(retraction, seed):
    # at these seeds the first draw puts a point within 2h of the interface,
    # which the sampler must redraw
    assert verify_area_nonincreasing(retraction, 1000, 100, seed).passed


@pytest.mark.parametrize("shared", [False, True], ids=["no-l-block", "l-block"])
def test_sample_wedge_points_redraws_every_flagged_point(shared, monkeypatch):
    if shared:
        coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
    else:
        coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    # tan(theta) = 6.7e-6: the stencil's clearance flags every point with
    # r (1 - t / tan(theta)) <= 0.3, about a third of the first draws
    params, margin = CutoffParams.forced(3, 2.25e10), STENCIL_CLEARANCE * DIFFERENTIAL_STEP

    def draw():
        return sample_wedge_points(coords, params, 500, np.random.default_rng(3),
                                   t_fraction=(0.05, 1.0))

    points = draw()
    monkeypatch.setattr(retraction_module, "SAMPLE_ROUNDS", 0)  # the first draw alone
    first = draw()
    flagged = params.near_interface(coords, first, margin)
    assert flagged.mean() > 0.2
    assert points.shape == first.shape
    assert not params.near_interface(coords, points, margin).any()
    assert params.inside(coords.u(points)).all()
    # a redraw replaces only the flagged points, in their places
    assert np.array_equal(points[~flagged], first[~flagged])


def test_sample_wedge_points_draws_once_when_no_point_can_clear_the_interface(retraction):
    # tan(theta) = 1e-7: every point is within 1.5e-7 of the interface, inside
    # the clearance 2e-6, so redrawing is no use
    thin = CutoffParams.forced(3, 1e14)
    rng = np.random.default_rng(0)
    calls = []

    class CountingGenerator:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(rng, name)

    points = sample_wedge_points(retraction.coords, thin, 20, CountingGenerator())
    assert len(calls) == 4  # one draw: x-directions, r, t and y-directions
    assert thin.near_interface(retraction.coords, points,
                               STENCIL_CLEARANCE * DIFFERENTIAL_STEP).all()


def test_verify_area_nonincreasing_rejects_a_wedge_thinner_than_the_clearance(retraction):
    # tan(theta) = 1e-7: every draw, and every redraw, is within 2h of the interface
    thin = RetractionMap(retraction.coords, CutoffParams.forced(3, 1e14))
    with pytest.raises(ValueError, match="touches the singular locus"):
        verify_area_nonincreasing(thin, 20, 2, seed=0)


def test_retraction_with_shared_block():
    # with an l-block the map preserves the shared coordinates
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
    retraction = RetractionMap(coords, params)
    p = np.array([0.2, 0.1, 0.05, 0.9, 0.8, 0.7, 1.5])  # far outside the wedge
    out = retraction.apply(p)
    assert np.array_equal(out, np.array([0, 0, 0, 0, 0, 0, 1.5]))
    q = np.array([0.5, -0.2, 0.4, 0.05, 0.02, -0.01, -0.8])
    out_q = retraction.apply(q)
    assert out_q[6] == -0.8
    assert np.all(out_q[3:6] == 0.0)


def test_verify_area_nonincreasing_scores_the_shared_block():
    # the calibrated plane is x + l, an (n+k)-plane: with k = 1 the map shrinks
    # 4-volumes, while scoring 3-planes would read 2.49 on an admissible profile
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,))
    retraction = RetractionMap(coords, params)
    rep = verify_area_nonincreasing(retraction, 200, 20, seed=0)
    assert rep.passed
    assert rep.max_top_scaling <= 1.0 + 1e-8
    assert rep.max_plane_scaling <= rep.max_top_scaling
    assert rep.x_plane_scaling_error <= 1e-8
    max_plane, max_top = reference_area_scalings(retraction, 200, 20, seed=0)
    assert rep.max_top_scaling == max_top
    assert rep.max_plane_scaling == pytest.approx(max_plane, abs=1e-13)


@pytest.mark.parametrize("coords, params, failing", [
    (WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5)), make_params(3, 2.5), []),
    (WedgeCoordinates.from_axes(7, (0, 1, 2), (3, 4, 5), (6,)), make_params(3, 2.5), []),
    (WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5)), CutoffParams.forced(3, 2.0),
     ["top_volume_scaling"]),
], ids=["criterion-07", "shared-block", "force-c-2"])
def test_plane_scaling_stays_within_the_top_scaling(coords, params, failing):
    # an (n+k)-plane scales by at most the product of the top n + k singular
    # values, for the expanding control as much as for admissible maps
    rep = verify_area_nonincreasing(RetractionMap(coords, params), 200, 20, seed=0)
    within = {c.name: c for c in rep.checks()}["plane_within_top"]
    assert within.passed
    assert within.measured == rep.max_plane_scaling < rep.max_top_scaling == within.threshold
    assert [c.name for c in rep.checks() if not c.passed] == failing


def test_profile_mismatch_rejected():
    params = make_params(4, 4.0)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError, match="does not match"):
        RetractionMap(coords, params)
