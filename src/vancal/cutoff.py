"""The quadratic cutoff family gamma(t) = 1 - c t^2 and its differential inequality.

For admissible parameters (n, a) the profile vanishes at t = tan(theta) and
satisfies, on [0, tan(theta)],

    0 < kappa <= (gamma - (t/n) gamma')^2 + (gamma'/n)^2 <= 1 - delta t^2,

with closed-form constants c, theta, delta, kappa.  The square root of the
middle expression is both the pointwise comass of the vanishing calibration
and the top (n+k)-volume scaling of the associated retraction (the product
of the differential's top n + k singular values), which is why the whole
construction hinges on this one inequality.

t = z/r enters only through u = t^2 = z^2 / r^2: gamma = 1 - c u,
c = gamma - (t/n) gamma' = 1 - (c(n-2)/n) u and s = gamma'/n = (-2c/n) t,
so c^2 + s^2 is a polynomial in u, and the wedge t < tan(theta) is
u < tan^2(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import Check, CheckedReport

INEQUALITY_SLACK_TOL = -1e-12
KAPPA_MATCH_TOL = 1e-6
CONTINUITY_TOL = 1e-12


def _plane_dimension(n) -> int:
    """n as an int, rejecting non-integers and the dimensions n < 3 the paper excludes."""
    if int(n) != n:
        raise ValueError(f"plane dimension n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"plane dimension n must be >= 3, got {n}")
    return int(n)


def admissible_interval(n: int) -> tuple[float, float]:
    """Open interval of admissible family parameters a for plane dimension n."""
    n = _plane_dimension(n)
    return 4.0 * n / (n + 2.0), float(n * (n - 2))


@dataclass(frozen=True)
class CutoffParams:
    """The cutoff gamma = max(1 - c u, 0) in u = t^2 for plane dimension n, with its constants.

    ``make_params`` builds admissible parameters, ``forced`` negative controls.
    Every profile method takes u = z^2 / r^2, and ``inside``, u < tan^2(theta),
    is the one wedge rule.  ``gamma_u`` applies it itself; ``c_u`` and
    ``middle_u``, the one copies of c and of c^2 + s^2, are smooth-branch
    polynomials, written into a caller's buffer when one is given, and their
    callers mask them with ``inside``.  s = ``s_slope`` * t is the only
    coefficient odd in t, and the field reads it as s_slope * eta / r.
    """

    n: int
    a: float
    c: float
    theta: float
    tan_theta: float
    delta: float
    kappa: float

    @classmethod
    def forced(cls, n: int, c: float) -> "CutoffParams":
        """The cutoff 1 - c t^2 vanishing at 1/sqrt(c), with a = n(n-2)/c unchecked."""
        n = _plane_dimension(n)
        c = float(c)
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"forced cutoff needs a finite c > 0, got {c!r}")
        return _with_constants(n, n * (n - 2) / c, c, 1.0 / math.sqrt(c))

    @property
    def s_slope(self) -> float:
        """-2c/n, the slope of s = gamma'/n = (-2c/n) t in t."""
        return -2.0 * self.c / self.n

    def gamma_u(self, u):
        """gamma = 1 - c u on the open wedge ``inside(u)``, zero beyond."""
        u = np.asarray(u, dtype=float)
        return np.where(self.inside(u), 1.0 - self.c * u, 0.0)[()]

    def c_u(self, u, out=None):
        """c = gamma - (t/n) gamma' = 1 - (c(n-2)/n) u on the smooth branch, into any ``out``."""
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u) if out is None else out
        np.multiply(self.c * (self.n - 2) / self.n, u, out=out)
        return np.subtract(1.0, out, out=out)[()]  # [()]: 0-d to scalar

    def middle_u(self, u, out=None, spare=None):
        """c^2 + s^2 = ``c_u``(u)^2 + s_slope^2 u on the smooth branch.

        Written into ``out`` and, for the second term, ``spare`` when given;
        callers mask it with ``inside``.
        """
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u) if out is None else out
        spare = np.empty_like(u) if spare is None else spare
        self.c_u(u, out)
        out *= out
        np.multiply(self.s_slope**2, u, out=spare)
        out += spare
        return out[()]

    def inside(self, u, out=None):
        """The open wedge u < tan^2(theta), the field's support, into ``out`` if given.

        u = z^2 / r^2 is inf or nan on r = 0, which is outside.
        """
        return np.less(u, self.tan_theta * self.tan_theta, out=out)

    def interface_distance(self, r, z):
        """Distance |r sin(theta) - z cos(theta)| to the interface z = tan(theta) r.

        Inside the wedge (0 <= z < tan(theta) r) it is at most r in floating
        point too: fl(r sin(theta)) <= r, subtracting z cos(theta) >= 0 cannot
        round above that, and z cos(theta) exceeds r sin(theta) by rounding only.
        """
        return np.abs(r * math.sin(self.theta) - z * math.cos(self.theta))

    def near_interface(self, coords, points, margin):
        """Mask of the (P, N) points in ``coords`` within ``margin`` of the interface.

        The vanishing calibration and the retraction's differential jump there.
        The 1/r axis needs no test: inside the wedge the interface distance is at
        most r, and beyond it both maps are smooth.
        """
        return self.interface_distance(coords.r(points), coords.z(points)) <= margin


def _with_constants(n: int, a: float, c: float, tan_theta: float) -> CutoffParams:
    """Complete (n, a, c, tan theta) with theta, delta and kappa."""
    theta = math.atan(tan_theta)
    delta = (n - 2) ** 2 * (a * (n + 2) - 4 * n) / (a * a * n)
    kappa = 4.0 * (a - 1.0) / (a * a)
    return CutoffParams(n=n, a=a, c=c, theta=theta, tan_theta=tan_theta,
                        delta=delta, kappa=kappa)


def make_params(n: int, a: float) -> CutoffParams:
    """Build the derived constants, enforcing 4n/(n+2) < a < n(n-2) and delta > 0.

    delta > 0 is the same condition as a > 4n/(n+2) in exact arithmetic, but
    just above that bound a(n+2) - 4n cancels, so an a whose computed delta
    rounds to 0 or below is rejected too: the upper bound 1 - delta t^2 must
    fall below 1 for every parameter set that this function admits.
    """
    n = _plane_dimension(n)
    lo, hi = admissible_interval(n)
    if not a > lo:
        raise ValueError(
            f"inadmissible a={a:g}: requires a > 4n/(n+2) = {lo:g} for n={n}"
        )
    if not a < hi:
        raise ValueError(
            f"inadmissible a={a:g}: requires a < n(n-2) = {hi:g} for n={n}"
        )
    a = float(a)
    params = _with_constants(n, a, n * (n - 2) / a, math.sqrt(a / (n * (n - 2))))
    if not params.delta > 0.0:
        raise ValueError(
            f"inadmissible a={a!r}: delta = (n-2)^2 (a(n+2) - 4n) / (a^2 n) rounds to "
            f"{params.delta:g} for n={n}; it must be > 0"
        )
    return params


def quartic_expansion(params: CutoffParams, t) -> np.ndarray | float:
    """The expanded middle expression 1 - 2(n-2)^2(a-2)/a^2 t^2 + (n-2)^4/a^2 t^4."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > params.tan_theta * (1 + 1e-12)):
        raise ValueError(f"t must lie in [0, tan theta = {params.tan_theta:g}]")
    n, a = params.n, params.a
    val = (
        1.0
        - 2.0 * (n - 2) ** 2 * (a - 2.0) / a**2 * t_arr**2
        + (n - 2) ** 4 / a**2 * t_arr**4
    )
    return float(val) if np.isscalar(t) else val


def quartic_axis(params: CutoffParams) -> float:
    """Location in t^2 of the quartic's minimum: (a-2)/(n-2)^2."""
    return (params.a - 2.0) / (params.n - 2) ** 2


@dataclass(frozen=True)
class InequalityReport(CheckedReport):
    """Grid verification of the three-part cutoff inequality."""

    n: int
    a: float
    grid_points: int
    min_slack_lower: float  # min over grid of middle - kappa
    min_slack_upper: float  # min over grid of (1 - delta t^2) - middle
    grid_min_middle: float
    argmin_t: float
    kappa: float
    # the constant of the upper bound 1 - delta t^2, as ``_with_constants``
    # computes it: (n-2)^2 (a(n+2) - 4n) / (a^2 n), > 0 iff a > 4n/(n+2).
    # Just above that bound a(n+2) - 4n cancels: at n = 4 the first double
    # above the float 4n/(n+2) gives a(n+2) = 4n exactly, so delta reads 0
    # (true value 2.5e-16), and make_params rejects that a; two doubles
    # above, delta reads 5e-16 and every check passes.  So delta_positive
    # fails only on a forced cutoff, such as CutoffParams.forced(3, 2.0)
    delta: float
    axis_t_squared: float
    axis_in_range: bool
    endpoint_gamma: float  # gamma at tan theta from the left (continuity)

    def checks(self) -> list[Check]:
        slack_tol = -INEQUALITY_SLACK_TOL
        checks = [
            Check("admissible", self.kappa > 0.0, measured=self.a, detail="kappa > 0"),
            Check("delta_positive", self.delta > 0.0, measured=self.delta, threshold=0.0,
                  detail="the upper bound 1 - delta t^2 must fall below 1: a > 4n/(n+2)"),
            Check("lower_bound_slack", self.min_slack_lower >= INEQUALITY_SLACK_TOL,
                  measured=self.min_slack_lower, threshold=0.0, tolerance=slack_tol,
                  detail="min over grid of middle - kappa"),
            Check("upper_bound_slack", self.min_slack_upper >= INEQUALITY_SLACK_TOL,
                  measured=self.min_slack_upper, threshold=0.0, tolerance=slack_tol,
                  detail="min over grid of (1 - delta t^2) - middle"),
        ]
        if self.axis_in_range:
            checks.append(
                Check("grid_min_matches_kappa",
                      abs(self.grid_min_middle - self.kappa) <= KAPPA_MATCH_TOL,
                      measured=self.grid_min_middle, threshold=self.kappa,
                      tolerance=KAPPA_MATCH_TOL)
            )
        checks.append(
            Check("profile_continuous_at_interface", abs(self.endpoint_gamma) <= CONTINUITY_TOL,
                  measured=self.endpoint_gamma, threshold=0.0, tolerance=CONTINUITY_TOL)
        )
        return checks


def _golden_section_minimum(fn, lo: float, hi: float) -> tuple[float, float]:
    """(t, fn(t)) at the minimum of a unimodal fn on [lo, hi], by golden-section search.

    80 steps shrink the bracket by 0.618^80 < 1e-16, below the spacing of
    doubles near t.
    """
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(80):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def verify_inequality_one(params: CutoffParams, grid_points: int) -> InequalityReport:
    """Evaluate both sides of the inequality on a uniform grid over [0, tan theta].

    The middle expression ``middle_u``(t^2) is unimodal in t >= 0, so its
    minimum lies in the grid cell pair around the smallest grid value;
    ``grid_min_middle`` and ``argmin_t`` refine it there by golden-section
    search.  The grid is the closed interval, the smooth branch throughout,
    so nothing is masked.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    t = np.linspace(0.0, params.tan_theta, grid_points)
    middle = params.middle_u(t * t)
    upper = 1.0 - params.delta * t * t
    slack_lower = middle - params.kappa
    slack_upper = upper - middle
    j = int(np.argmin(middle))
    argmin_t, grid_min = _golden_section_minimum(
        lambda s: float(params.middle_u(s * s)),
        float(t[max(j - 1, 0)]), float(t[min(j + 1, grid_points - 1)]),
    )
    if middle[j] < grid_min:
        argmin_t, grid_min = float(t[j]), float(middle[j])
    axis = quartic_axis(params)
    return InequalityReport(
        n=params.n,
        a=params.a,
        grid_points=grid_points,
        min_slack_lower=float(slack_lower.min()),
        min_slack_upper=float(slack_upper.min()),
        grid_min_middle=grid_min,
        argmin_t=argmin_t,
        kappa=params.kappa,
        delta=params.delta,
        axis_t_squared=axis,
        axis_in_range=bool(0.0 <= axis <= params.tan_theta**2),
        endpoint_gamma=float(1.0 - params.c * params.tan_theta**2),
    )


def angle_threshold(n: int) -> float:
    """Infimum 2 arctan(2 / sqrt(n^2 - 4)) of achievable double wedge angles."""
    n = _plane_dimension(n)
    return 2.0 * math.atan(2.0 / math.sqrt(n * n - 4.0))


def half_angle_cap(n: int) -> float:
    """The cap arctan(2 / sqrt((n-2)(n+3/2))) applied when choosing a."""
    return math.atan(2.0 / math.sqrt((n - 2) * (n + 1.5)))


def choose_a_for_angle(n: int, target_half_angle: float) -> float:
    """Pick a so the wedge half-angle is min(target, cap), or fail below threshold.

    The target must exceed arctan(2 / sqrt(n^2 - 4)) strictly; the returned
    a = n(n-2) tan^2(min(target, cap)) is always admissible.
    """
    n = _plane_dimension(n)
    threshold_half = angle_threshold(n) / 2.0
    if not target_half_angle > threshold_half:
        raise ValueError(
            f"target half angle {target_half_angle:g} does not exceed the "
            f"threshold arctan(2/sqrt(n^2-4)) = {threshold_half:g} for n={n}"
        )
    half = min(target_half_angle, half_angle_cap(n))
    a = n * (n - 2) * math.tan(half) ** 2
    lo, hi = admissible_interval(n)
    if not lo < a < hi:  # cannot happen; guards the closed-form derivation
        raise ValueError(
            f"derived a={a:g} fell outside the admissible interval ({lo:g}, {hi:g})"
        )
    return a
