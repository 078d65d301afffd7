"""The quadratic cutoff family gamma(t) = 1 - c t^2 and its differential inequality.

For admissible parameters (n, a) the profile vanishes at t = tan(theta) and
satisfies, on [0, tan(theta)],

    0 < kappa <= (gamma - (t/n) gamma')^2 + (gamma'/n)^2 <= 1 - delta t^2,

with closed-form constants c, theta, delta, kappa.  The square root of the
middle expression is both the pointwise comass of the vanishing calibration
and the top (n+k)-volume scaling of the associated retraction (the product
of the differential's top n + k singular values), which is why the whole
construction hinges on this one inequality.
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
    """The cutoff gamma(t) = max(1 - c t^2, 0) for plane dimension n, with its constants.

    ``make_params`` builds admissible parameters, ``forced`` negative controls.
    gamma, dgamma and the middle expression are zero beyond the wedge
    t = tan theta; the c and s coefficients are smooth-branch polynomials,
    written into a caller's buffer when one is given, and their callers
    mask them with ``inside``, the one wedge rule.
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

    def gamma(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.tan_theta, 1.0 - self.c * t * t, 0.0)

    def dgamma(self, t):
        """gamma' from the left: -2 c t on the closed wedge, zero beyond."""
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.tan_theta, -2.0 * self.c * t, 0.0)

    def c_coefficient(self, t, out=None):
        """gamma - (t/n) gamma' = 1 - (c(n-2)/n) t t on the smooth branch, into any ``out``."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t) if out is None else out
        np.multiply(self.c * (self.n - 2) / self.n, t, out=out)
        out *= t
        return np.subtract(1.0, out, out=out)[()]  # [()]: 0-d to scalar

    def s_coefficient(self, t, out=None):
        """gamma'/n = (-2 c t) / n on the smooth branch, into any ``out``."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t) if out is None else out
        np.multiply(-2.0 * self.c, t, out=out)
        out /= self.n
        return out[()]

    def middle_expression(self, t):
        """(gamma - (t/n) gamma')^2 + (gamma'/n)^2 on the closed wedge, zero beyond.

        Uses the left (smooth) branch at the interface, matching the range
        of validity of the differential inequality.
        """
        t = np.asarray(t, dtype=float)
        g = 1.0 - self.c * t * t
        dg = -2.0 * self.c * t
        val = (g - t / self.n * dg) ** 2 + (dg / self.n) ** 2
        return np.where(t <= self.tan_theta, val, 0.0)

    def inside(self, r, z, out=None):
        """The open wedge z < tan(theta) r, the field's support, into ``out`` if given."""
        return np.less(z, self.tan_theta * r, out=out)

    def interface_distance(self, r, z):
        """Distance from (r, z) to the wedge interface z = tan(theta) r."""
        return np.abs(z - self.tan_theta * r) / np.sqrt(1.0 + self.tan_theta**2)


def _with_constants(n: int, a: float, c: float, tan_theta: float) -> CutoffParams:
    """Complete (n, a, c, tan theta) with theta, delta and kappa."""
    theta = math.atan(tan_theta)
    delta = (n - 2) ** 2 * (a * (n + 2) - 4 * n) / (a * a * n)
    kappa = 4.0 * (a - 1.0) / (a * a)
    return CutoffParams(n=n, a=a, c=c, theta=theta, tan_theta=tan_theta,
                        delta=delta, kappa=kappa)


def make_params(n: int, a: float) -> CutoffParams:
    """Build the derived constants, enforcing 4n/(n+2) < a < n(n-2)."""
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
    return _with_constants(n, a, n * (n - 2) / a, math.sqrt(a / (n * (n - 2))))


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
    axis_t_squared: float
    axis_in_range: bool
    endpoint_gamma: float  # gamma at tan theta from the left (continuity)

    def checks(self) -> list[Check]:
        slack_tol = -INEQUALITY_SLACK_TOL
        checks = [
            Check("admissible", self.kappa > 0.0, measured=self.a, detail="kappa > 0"),
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

    The middle expression is unimodal in t >= 0, so its minimum lies in the
    grid cell pair around the smallest grid value; ``grid_min_middle`` and
    ``argmin_t`` refine it there by golden-section search.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    t = np.linspace(0.0, params.tan_theta, grid_points)
    middle = params.middle_expression(t)
    upper = 1.0 - params.delta * t * t
    slack_lower = middle - params.kappa
    slack_upper = upper - middle
    j = int(np.argmin(middle))
    argmin_t, grid_min = _golden_section_minimum(
        lambda s: float(params.middle_expression(s)),
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


def choose_a_for_angle(
    n: int, target_half_angle: float, *, with_branch: bool = False
):
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
    cap = half_angle_cap(n)
    branch = "target" if target_half_angle <= cap else "cap"
    half = min(target_half_angle, cap)
    a = n * (n - 2) * math.tan(half) ** 2
    lo, hi = admissible_interval(n)
    if not lo < a < hi:  # cannot happen; guards the closed-form derivation
        raise ValueError(
            f"derived a={a:g} fell outside the admissible interval ({lo:g}, {hi:g})"
        )
    return (a, branch) if with_branch else a
