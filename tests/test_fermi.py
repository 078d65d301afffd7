import math

import numpy as np
import pytest

import vancal.fermi as fermi
from vancal.fermi import (
    SurfacePatch,
    catenoid_patch,
    cylinder_patch,
    fermi_volume_ratio,
    graph_patch,
    plane_patch,
    polynomial_height,
    sphere_patch,
    verify_first_order,
)


def test_sphere_ratio_matches_closed_form():
    # displacing the unit 2-sphere inward by y scales tangents by (1 - y),
    # so the Gram determinant ratio is (1 - y)^4 exactly
    patch = sphere_patch(1.0, 2)
    u = np.array([0.7, 0.9])
    inward = -patch.point(u)
    nu = patch.normal_field(u, inward)(u)
    for y in (0.05, 0.1, -0.08):
        measured = fermi_volume_ratio(patch, u, nu, y)
        assert measured == pytest.approx((1.0 - y) ** 4, abs=1e-6)


def test_sphere_first_order_beta():
    # H = n/R for the round sphere, so the fitted slope is -2n/R
    for n, R in [(2, 1.0), (2, 0.5), (3, 2.0)]:
        patch = sphere_patch(R, n)
        u = np.full(n, 0.7) + 0.1 * np.arange(n)
        rep = verify_first_order(patch, u, -patch.point(u), [0.04, 0.02, 0.01])
        assert rep.passed
        assert rep.fitted_beta == pytest.approx(-2.0 * n / R, rel=1e-3)
        assert rep.mean_curvature_trace == pytest.approx(n / R, rel=1e-5)


def test_sphere_inward_normal_gives_negative_beta():
    patch = sphere_patch(1.0, 2)
    u = np.array([0.6, 1.0])
    rep = verify_first_order(patch, u, -patch.point(u), [0.02, 0.01])
    assert rep.fitted_beta < 0.0


def test_cylinder_ratio_and_beta():
    R = 0.7
    patch = cylinder_patch(R)
    u = np.array([0.4, 0.2])
    p = patch.point(u)
    inward = -np.array([p[0], p[1], 0.0])
    nu = patch.normal_field(u, inward)(u)
    assert fermi_volume_ratio(patch, u, nu, 0.1) == pytest.approx(
        (1 - 0.1 / R) ** 2, abs=1e-6
    )
    rep = verify_first_order(patch, u, inward, [0.04, 0.02, 0.01])
    assert rep.passed
    assert rep.fitted_beta == pytest.approx(-2.0 / R, rel=1e-3)


def test_catenoid_is_minimal():
    patch = catenoid_patch()
    u = np.array([0.5, 0.3])
    nu = patch.normal_frame(u)[:, 0]
    rep = verify_first_order(patch, u, nu, [0.02, 0.01, 0.005])
    assert rep.passed
    assert abs(rep.fitted_beta) <= 1e-3
    assert abs(rep.mean_curvature_trace) <= 1e-5


def test_flat_plane_is_exact():
    patch = plane_patch(2, 2)
    u = np.array([0.3, -0.2])
    rep = verify_first_order(patch, u, np.array([0.0, 0.0, 1.0, 0.0]), [0.02, 0.01])
    assert rep.fitted_beta == 0.0
    assert rep.mean_curvature_trace == 0.0
    for y in (0.1, 0.5):
        nu = patch.normal_field(u, np.array([0.0, 0.0, 1.0, 0.0]))(u)
        assert fermi_volume_ratio(patch, u, nu, y) == pytest.approx(1.0, abs=1e-10)


def test_graph_beta_equals_laplacian():
    # at a critical point of the height functions, H^alpha = laplacian(q_alpha)
    q1 = polynomial_height({(2, 0): 0.5, (0, 2): -0.2})  # laplacian 0.6
    q2 = polynomial_height({(1, 1): 0.4, (2, 0): 0.3})  # laplacian 0.6
    patch = graph_patch([q1, q2], 2)
    u = np.zeros(2)
    n1 = np.array([0.0, 0.0, 1.0, 0.0])
    n2 = np.array([0.0, 0.0, 0.0, 1.0])
    rep1 = verify_first_order(patch, u, n1, [0.02, 0.01])
    rep2 = verify_first_order(patch, u, n2, [0.02, 0.01])
    assert rep1.fitted_beta == pytest.approx(-1.2, rel=1e-4)
    assert rep2.fitted_beta == pytest.approx(-1.2, rel=1e-4)


def test_beta_linear_in_normal_direction():
    q1 = polynomial_height({(2, 0): 0.5, (0, 2): -0.2})
    q2 = polynomial_height({(1, 1): 0.4, (2, 0): 0.3})
    patch = graph_patch([q1, q2], 2)
    u = np.zeros(2)
    n1 = np.array([0.0, 0.0, 1.0, 0.0])
    n2 = np.array([0.0, 0.0, 0.0, 1.0])
    b1 = verify_first_order(patch, u, n1, [0.02, 0.01]).fitted_beta
    b2 = verify_first_order(patch, u, n2, [0.02, 0.01]).fitted_beta
    mixed = verify_first_order(patch, u, n1 + n2, [0.02, 0.01]).fitted_beta
    # beta(nu) = -2 <H, nu>, so beta((n1+n2)/sqrt2) = (b1 + b2)/sqrt2
    expected = (b1 + b2) / math.sqrt(2)
    assert abs(mixed - expected) <= 1e-2 * max(1.0, abs(expected))


def test_focal_radius_estimate_and_flag():
    # the unit sphere focalizes at its center, one radius inward
    patch = sphere_patch(1.0, 2)
    u = np.array([0.7, 0.9])
    rep = verify_first_order(patch, u, -patch.point(u), [1.5, 0.75])
    assert rep.focal_radius == pytest.approx(1.0, rel=1e-4)
    assert rep.y_beyond_focal
    rep_ok = verify_first_order(patch, u, -patch.point(u), [0.04, 0.02])
    assert not rep_ok.y_beyond_focal


@pytest.mark.parametrize("radius, dim, failing", [
    # `vancal fermi --surface sphere --radius 0.03`: the focal radius 0.03 lies
    # below the largest y = 0.04, while the fitted slope still matches -2 H
    (0.03, 2, "within_focal_radius"),
    # `--radius 0.05 --dim 3`: the ratio (1 - y / R)^6 leaves a y^4 term that
    # one Richardson step does not remove, so the slope fitted up to y = 0.04
    # errs by 1.3e-2 relative to -2 H = -120, below the focal radius 0.05
    (0.05, 3, "first_order_match"),
])
def test_small_sphere_fails_one_check_alone(radius, dim, failing):
    patch = sphere_patch(radius, dim)
    u = np.full(dim, 0.7) + 0.1 * np.arange(dim)
    rep = verify_first_order(patch, u, -patch.point(u), [0.04, 0.02, 0.01])
    assert rep.focal_radius == pytest.approx(radius, rel=1e-4)
    assert [c.name for c in rep.checks() if not c.passed] == [failing]
    assert not rep.passed


def test_second_fundamental_form_sphere():
    patch = sphere_patch(2.0, 2)
    u = np.array([0.8, 0.7])
    nu = patch.normal_field(u, -patch.point(u))(u)
    A = patch.second_derivatives(u) @ nu
    T = patch.tangent_frame(u)
    g = T.T @ T
    # shape operator of the sphere with inward normal is (1/R) * identity
    shape = np.linalg.solve(g, A)
    assert np.allclose(shape, np.eye(2) / 2.0, atol=1e-5)


def test_second_fundamental_form_off_diagonal_terms():
    # graph of q = 0.5 u^2 + 0.4 u v - 0.2 v^2: A at the origin is the Hessian of q
    q = polynomial_height({(2, 0): 0.5, (1, 1): 0.4, (0, 2): -0.2})
    A = graph_patch([q]).second_derivatives(np.zeros(2)) @ np.array([0.0, 0.0, 1.0])
    assert np.allclose(A, [[1.0, 0.4], [0.4, -0.4]], rtol=0.0, atol=1e-6)


def test_normal_field_requires_normal_component():
    patch = plane_patch(2, 1)
    with pytest.raises(ValueError, match="normal component"):
        patch.normal_field(np.zeros(2), np.array([1.0, 0.0, 0.0]))


def test_non_immersion_rejected():
    def collapse(u):
        return np.array([u[0], u[0], 0.0])  # rank-1 Jacobian for a 2d parameter

    patch = SurfacePatch(collapse, 2, 3)
    with pytest.raises(ValueError, match="immersion"):
        patch.tangent_frame(np.zeros(2))


def test_y_sequence_validation():
    patch = plane_patch(2, 1)
    with pytest.raises(ValueError, match="positive"):
        verify_first_order(patch, np.zeros(2), np.array([0, 0, 1.0]), [0.1])


@pytest.mark.parametrize("ys", [[0.02, 0.02], [0.04, 0.02, 0.02], [0.02, 0.04, 0.04]])
def test_y_sequence_rejects_repeated_values(ys):
    # a repeated finest pair made the Richardson step divide by ratio^2 - 1 = 0
    patch = sphere_patch(1.0, 2)
    with pytest.raises(ValueError, match="repeat"):
        verify_first_order(patch, np.array([0.7, 0.8]), np.array([0, 0, 1.0]), ys)


def test_verify_first_order_evaluates_the_stencil_normals_once(monkeypatch):
    # the normals at the 2n stencil points do not depend on y: one evaluation
    # serves all six displacements (220 parameterization calls when each y
    # evaluated them anew).  The tangent frame at u (4 calls) and the second
    # derivatives there (16) are taken once each, and the stencil normals
    # take 20: 40 calls, where taking the frame seven times and the second
    # derivatives twice made 80
    sphere = sphere_patch(1.0, 2)
    calls = []

    def counted(u):
        calls.append(u)
        return sphere.parameterization(u)

    patch = SurfacePatch(counted, 2, 3)
    u = np.array([0.7, 0.8])
    nu, ys = -sphere.point(u), [0.04, 0.02, 0.01]
    calls.clear()  # the constructor's probe
    rep = verify_first_order(patch, u, nu, ys)
    assert len(calls) == 40
    # and the report is the one that one-point ratios, one per y and sign, give
    monkeypatch.setattr(fermi, "_fermi_volume_ratios", lambda patch, u, nu, ys, frame: np.array(
        [fermi_volume_ratio(patch, u, nu, y) for y in ys]))
    assert verify_first_order(patch, u, nu, ys) == rep
