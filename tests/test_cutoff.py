import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vancal.cutoff import (
    CutoffParams,
    admissible_interval,
    angle_threshold,
    choose_a_for_angle,
    half_angle_cap,
    make_params,
    quartic_axis,
    quartic_expansion,
    verify_inequality_one,
)


def test_make_params_printed_formulas_n3():
    p = make_params(3, 2.5)
    assert p.c == pytest.approx(1.2, abs=1e-15)
    assert p.tan_theta == pytest.approx(math.sqrt(2.5 / 3.0), abs=1e-15)
    assert p.delta == pytest.approx(0.5 / 18.75, abs=1e-15)  # (a(n+2)-4n)(n-2)^2/(a^2 n)
    assert p.kappa == pytest.approx(0.96, abs=1e-15)
    assert p.theta == pytest.approx(math.atan(math.sqrt(2.5 / 3.0)), abs=1e-15)


def test_make_params_printed_formulas_n4():
    p = make_params(4, 4.0)
    assert p.c == 2.0
    assert p.tan_theta == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert p.delta == pytest.approx(0.5, abs=1e-15)
    assert p.kappa == pytest.approx(0.75, abs=1e-15)


def test_make_params_rejects_out_of_interval():
    with pytest.raises(ValueError, match=r"a > 4n/\(n\+2\) = 2.4"):
        make_params(3, 2.0)
    with pytest.raises(ValueError, match=r"a < n\(n-2\) = 3"):
        make_params(3, 3.5)
    with pytest.raises(ValueError, match="n must be"):
        make_params(2, 1.0)


def test_params_invariants_across_interval():
    for n in range(3, 11):
        lo, hi = admissible_interval(n)
        for a in np.linspace(lo * 1.001, hi * 0.999, 7):
            p = make_params(n, float(a))
            assert 0.0 < p.theta < math.pi / 4
            assert p.delta > 0.0
            assert p.kappa > 0.0


def test_profile_shape():
    p = make_params(3, 2.5)
    edge = p.tan_theta * p.tan_theta
    assert p.gamma_u(0.0) == 1.0
    u = np.linspace(0.0, edge, 100)
    g = p.gamma_u(u)
    assert np.all(np.diff(g) < 0.0)  # monotone decreasing to 0 at the interface
    assert abs(p.gamma_u(edge * (1 - 1e-14)) - 0.0) < 1e-12
    # zero on the interface and beyond it, and on r = 0 (u inf or nan)
    for outside in (edge, 4 * edge, math.inf, math.nan):
        assert p.gamma_u(outside) == 0.0
    # s = gamma'/n is s_slope t: a central difference of gamma in t
    t, h = 0.5 * p.tan_theta, 1e-6
    dgamma = (p.gamma_u((t + h) ** 2) - p.gamma_u((t - h) ** 2)) / (2 * h)
    assert dgamma / p.n == pytest.approx(p.s_slope * t, rel=1e-8)


def test_interface_distance_is_perpendicular_distance_to_the_ray():
    # for r, z >= 0 the foot of the perpendicular to the line z = tan(theta) r
    # lies on the ray, so the distance is |(r, z) . nu| with the unit normal
    # nu = (-sin theta, cos theta)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, 2.0, size=500)
    z = rng.uniform(0.0, 2.0, size=500)
    for p in (make_params(3, 2.5), make_params(6, 10.0), CutoffParams.forced(4, 3.0)):
        below = z < p.tan_theta * r
        assert 50 < np.count_nonzero(below) < 450  # both sides of the ray
        expected = np.abs(-math.sin(p.theta) * r + math.cos(p.theta) * z)
        assert np.allclose(p.interface_distance(r, z), expected, rtol=1e-13, atol=1e-15)
        on_ray = p.interface_distance(r, p.tan_theta * r)
        assert np.all(on_ray <= 1e-15 * (1.0 + r))


@st.composite
def cutoffs(draw):
    """Admissible (n, a), or a forced c from 1e-30 (tan theta = 1e15) to 1e6."""
    n = draw(st.integers(3, 10))
    if draw(st.booleans()):
        lo, hi = admissible_interval(n)
        return make_params(n, draw(st.floats(lo, hi, exclude_min=True, exclude_max=True)))
    c = draw(st.sampled_from([1e-30, 1e6]) | st.floats(-30.0, 6.0).map(lambda e: 10.0**e))
    return CutoffParams.forced(n, c)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(cutoffs(), st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 2.0),
       st.integers(0, 2**32 - 1))
def test_wedge_points_near_the_axis_are_near_the_interface(params, margin, seed):
    # inside the wedge z >= 0, so the interface distance is at most r sin(theta):
    # the axis r <= margin adds nothing to the singular locus of the interface.
    # The point r = margin, z = 0 is inside unless margin^2 underflows to 0,
    # which makes u = z^2 / r^2 nan or inf at every point, so none is inside
    rng = np.random.default_rng(seed)
    r = margin * np.concatenate([rng.uniform(size=2000), [1.0, 0.0]])
    fraction = np.concatenate([rng.uniform(size=1000), 1.0 - rng.uniform(size=1000) * 1e-12,
                               [0.0, 0.0]])
    z = fraction * params.tan_theta * r
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies outside
        inside = params.inside(z * z / (r * r))
    assert inside.any() == (margin * margin > 0.0)
    assert np.all(params.interface_distance(r[inside], z[inside]) <= margin)


def test_inside_is_the_open_wedge():
    # u = z^2 / r^2; r = 0 gives nan (z = 0) or inf, both outside, and the
    # interface point r = 1, z = tan(theta) gives u = tan^2(theta), outside too
    p = make_params(3, 2.5)
    r = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
    z = np.array([0.0, 1.0, 0.0, p.tan_theta, 2.0, 0.5])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = z * z / (r * r)
    expected = [False, False, True, False, False, True]
    assert p.inside(u).tolist() == expected
    out = np.ones(r.size, dtype=bool)
    assert p.inside(u, out=out) is out and out.tolist() == expected
    assert p.inside(0.25) and not p.inside(math.nan) and not p.inside(math.inf)


def test_coefficients_write_into_out_and_keep_scalars():
    p = make_params(4, 5.0)
    t = np.linspace(0.0, p.tan_theta, 9)
    u, c_out, m_out = t * t, np.empty_like(t), np.empty_like(t)
    p.c_u(u, c_out)
    assert np.array_equal(c_out, 1.0 - p.c * (p.n - 2) / p.n * u)
    assert np.array_equal(p.c_u(u), c_out)
    p.middle_u(u, m_out, np.empty_like(t))
    assert np.array_equal(m_out, (1.0 - p.c * (p.n - 2) / p.n * u) ** 2
                          + (2.0 * p.c / p.n) ** 2 * u)
    assert np.array_equal(p.middle_u(u), m_out)
    for value in (p.c_u(0.25), p.middle_u(0.25), p.gamma_u(0.25)):
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
    assert p.c_u(0.25) == 1.0 - p.c * (p.n - 2) / p.n * 0.25
    assert p.gamma_u(0.25) == 1.0 - p.c * 0.25


def test_forced_cutoff_constants():
    p = CutoffParams.forced(3, 2.0)
    assert p.c == 2.0
    assert p.tan_theta == 1.0 / math.sqrt(2.0)
    assert p.a == 1.5  # n(n-2)/c, below the admissible 4n/(n+2) = 2.4
    assert p.theta == math.atan(p.tan_theta)
    # at an admissible c the forced constants match make_params to rounding
    q, f = make_params(4, 5.0), CutoffParams.forced(4, 8.0 / 5.0)
    for name in ("a", "c", "theta", "tan_theta", "delta", "kappa"):
        assert getattr(f, name) == pytest.approx(getattr(q, name), rel=1e-15), name


@pytest.mark.parametrize("n, c", [(3, math.inf), (3, math.nan), (3, 0.0), (3, -1.0),
                                  (2, 2.0), (3.5, 2.0)])
def test_forced_cutoff_rejects_bad_input(n, c):
    with pytest.raises(ValueError, match="finite c > 0|plane dimension n"):
        CutoffParams.forced(n, c)


def test_quartic_matches_direct_expression():
    # independent evaluation: gamma and gamma' by hand, then the two squares
    p = make_params(3, 2.5)
    t = 0.5
    gamma = 1.0 - p.c * t * t
    dgamma = -2.0 * p.c * t
    direct = (gamma - t / p.n * dgamma) ** 2 + (dgamma / p.n) ** 2
    assert direct == pytest.approx(0.97, abs=1e-15)
    assert quartic_expansion(p, t) == pytest.approx(direct, rel=1e-14)


def test_quartic_identity_random_points_all_params():
    rng = np.random.default_rng(0)
    for n in range(3, 11):
        lo, hi = admissible_interval(n)
        for a in np.linspace(lo * 1.01, hi * 0.99, 5):
            p = make_params(n, float(a))
            t = rng.uniform(0.0, p.tan_theta, size=1000)
            direct = p.middle_u(t * t)
            quartic = quartic_expansion(p, t)
            rel = np.abs(direct - quartic) / np.abs(quartic)
            assert rel.max() < 1e-13


def test_quartic_axis_and_discriminant():
    p = make_params(3, 2.5)
    # as a quadratic in u = t^2 the expansion has discriminant -16(a-1)(n-2)^4/a^4
    u = np.array([0.0, 0.4, 0.8])
    c2, c1, c0 = np.polyfit(u, quartic_expansion(p, np.sqrt(u)), 2)
    assert c1 * c1 - 4.0 * c2 * c0 == pytest.approx(-0.6144, abs=1e-12)
    # minimum of the quadratic-in-t^2 is kappa, reached at (a-2)/(n-2)^2
    axis = quartic_axis(p)
    assert axis == pytest.approx(0.5, abs=1e-15)
    assert quartic_expansion(p, math.sqrt(axis)) == pytest.approx(p.kappa, abs=1e-14)


def test_quartic_range_validation():
    p = make_params(3, 2.5)
    with pytest.raises(ValueError, match="tan theta"):
        quartic_expansion(p, 1.5)


def test_inequality_report_example():
    p = make_params(3, 2.5)
    rep = verify_inequality_one(p, 10_000)
    assert rep.passed
    assert rep.axis_in_range
    assert rep.grid_min_middle == pytest.approx(0.96, abs=1e-6)
    assert abs(rep.argmin_t**2 - quartic_axis(p)) < 1e-3


def test_inequality_passes_on_admissible_sample():
    rep = verify_inequality_one(make_params(5, 5.0), 10_000)
    assert rep.passed


def test_inequality_endpoint_continuity():
    p = make_params(4, 3.0)
    rep = verify_inequality_one(p, 2_000)
    assert abs(rep.endpoint_gamma) <= 1e-12


def test_grid_min_at_endpoint_when_axis_outside():
    # axis t^2 = (a-2)/(n-2)^2 exceeds tan^2(theta) = a/(n(n-2)) iff a > n
    p = make_params(3, 2.9)  # a > n = 3 is impossible here; use n=4
    p = make_params(4, 5.0)  # axis = 3/4; tan^2 = 5/8 < 3/4 -> endpoint minimum
    rep = verify_inequality_one(p, 20_000)
    assert not rep.axis_in_range
    assert rep.argmin_t == pytest.approx(p.tan_theta, rel=1e-3)
    assert rep.passed


@pytest.mark.parametrize("grid", [10, 500, 10_000])
def test_delta_positive_fails_on_the_forced_control(grid):
    # a = 1.5 < 4n/(n+2) = 2.4: both slacks hold, only delta > 0 fails
    rep = verify_inequality_one(CutoffParams.forced(3, 2.0), grid)
    assert rep.delta == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert [c.name for c in rep.checks() if not c.passed] == ["delta_positive"]


def test_admissible_fails_on_the_forced_control_with_nonpositive_kappa():
    # c = 3 gives a = 1.0, where kappa = 4 (a - 1) / a^2 = 0, and
    # delta = -7/3 < 0: those two fail, and nothing else
    rep = verify_inequality_one(CutoffParams.forced(3, 3.0), 1000)
    checks = {c.name: c for c in rep.checks()}
    assert checks["admissible"].measured == 1.0
    assert [c.name for c in rep.checks() if not c.passed] == ["admissible", "delta_positive"]


def test_make_params_rejects_an_a_whose_delta_rounds_to_zero():
    # the first double above 8/3 clears the float bound 4n/(n+2) at n = 4, but
    # 6a rounds to 16, so delta reads 0 (true value 2.5e-16): make_params
    # rejects it, so delta_positive cannot fail on an a that make_params admits
    a = math.nextafter(8.0 / 3.0, math.inf)
    assert a > admissible_interval(4)[0]
    with pytest.raises(ValueError, match="rounds to 0 for n=4"):
        make_params(4, a)
    above = make_params(4, math.nextafter(a, math.inf))
    assert above.delta > 0.0
    assert verify_inequality_one(above, 500).passed


@pytest.mark.parametrize("grid", [10, 500, 10_000])
def test_profile_continuous_at_interface_fails_on_an_early_cut(grid):
    # the cut 1 % before gamma's zero: gamma(tan theta) = 1 - 0.99^2 = 0.0199,
    # and the slacks, delta and the minimum on the shorter interval still hold
    params = make_params(3, 2.5)
    early = dataclasses.replace(params, tan_theta=0.99 * params.tan_theta)
    rep = verify_inequality_one(early, grid)
    assert rep.endpoint_gamma == pytest.approx(1.0 - 0.99**2, rel=1e-12)
    assert [c.name for c in rep.checks() if not c.passed] == [
        "profile_continuous_at_interface"]


@pytest.mark.parametrize("grid", [10, 500, 10_000])
def test_grid_min_matches_kappa_fails_on_a_lowered_kappa(grid):
    # kappa 1e-3 below the true minimum of c^2 + s^2: the lower slack only
    # grows, so the refined minimum missing kappa is the one failure
    params = make_params(3, 2.5)
    lowered = dataclasses.replace(params, kappa=params.kappa - 1e-3)
    rep = verify_inequality_one(lowered, grid)
    assert rep.grid_min_middle - lowered.kappa == pytest.approx(1e-3, rel=1e-9)
    assert [c.name for c in rep.checks() if not c.passed] == ["grid_min_matches_kappa"]


def test_delta_tends_to_zero_at_lower_bound():
    n = 5
    lo, _ = admissible_interval(n)
    deltas = [make_params(n, lo * (1 + eps)).delta for eps in np.geomspace(1e-6, 0.2, 20)]
    assert all(d > 0 for d in deltas)
    assert all(deltas[i] < deltas[i + 1] for i in range(len(deltas) - 1))
    assert deltas[0] < 1e-5


def test_angle_threshold_values():
    assert angle_threshold(4) == pytest.approx(math.pi / 3, abs=1e-12)
    # direct evaluation for n = 3
    assert angle_threshold(3) == pytest.approx(2 * math.atan(2 / math.sqrt(5)), abs=1e-15)
    assert angle_threshold(3) == pytest.approx(1.459455, abs=1e-6)
    with pytest.raises(ValueError):
        angle_threshold(2)


def test_angle_threshold_is_limit_of_double_wedge_angle():
    for n in range(3, 11):
        lo, _ = admissible_interval(n)
        p = make_params(n, lo * (1 + 1e-8))
        assert abs(2 * p.theta - angle_threshold(n)) < 1e-6


def test_angle_threshold_strictly_decreasing():
    values = [angle_threshold(n) for n in range(3, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_choose_a_cap_branch_is_admissible():
    # target pi/4 for n=3 hits the cap arctan(2/sqrt(4.5)); a = 4n/(n+3/2) = 8/3
    assert math.pi / 4 > half_angle_cap(3)
    a = choose_a_for_angle(3, math.pi / 4)
    assert a == pytest.approx(4 * 3 / 4.5, rel=1e-14)
    lo, hi = admissible_interval(3)
    assert lo < a < hi
    make_params(3, a)  # admissible by construction


def test_choose_a_target_branch():
    n = 6
    cap = half_angle_cap(n)
    target = (angle_threshold(n) / 2 + cap) / 2  # strictly between threshold and cap
    assert target < cap
    a = choose_a_for_angle(n, target)
    assert a == pytest.approx(n * (n - 2) * math.tan(target) ** 2, rel=1e-14)
    p = make_params(n, a)
    assert p.theta == pytest.approx(target, rel=1e-12)


def test_choose_a_example_n6():
    a = choose_a_for_angle(6, 0.5)
    assert a == pytest.approx(24 * math.tan(min(0.5, math.atan(2 / math.sqrt(30)))) ** 2,
                              rel=1e-14)


def test_choose_a_rejects_threshold_target():
    n = 3
    threshold_half = math.atan(2 / math.sqrt(n * n - 4))
    with pytest.raises(ValueError, match="does not exceed"):
        choose_a_for_angle(n, threshold_half)


def test_every_sweep_row_passes_every_check():
    # the a values of `vancal cutoff --sweep 40` for n = 3..10, at 500 grid points
    for n in range(3, 11):
        lo, hi = admissible_interval(n)
        margin = (hi - lo) * 1e-3
        for a in np.linspace(lo + margin, hi - margin, 40):
            rep = verify_inequality_one(make_params(n, float(a)), 500)
            assert [c.name for c in rep.checks() if not c.passed] == [], (n, a)
            assert rep.passed
            assert abs(rep.grid_min_middle - rep.kappa) <= 1e-12 or not rep.axis_in_range


def test_admissible_grid_inequality_sweep():
    # every admissible pair on a log grid passes the differential inequality
    for n in range(3, 11):
        lo, hi = admissible_interval(n)
        for a in np.geomspace(lo * 1.001, hi * 0.999, 12):
            rep = verify_inequality_one(make_params(n, float(a)), 500)
            assert rep.passed, (n, a)
