"""First-order volume expansion in normal offsets of submanifolds.

For a patch of an n-surface in Euclidean R^(n+m), displacing along a unit
normal field by y multiplies the tangent Gram determinant by
1 - 2 H^nu y + O(y^2), where H^nu is the trace of the second fundamental
form in the direction nu.  In flat ambient space the Fermi displacement is
the straight-line normal offset, so everything below is finite differences
on the displaced parameterization.  They all come from the package's one
central-difference stencil, ``exterior._central_differences``: tangents at
step ``FIRST_DIFFERENCE_STEP``, and the second derivatives as central
differences of tangents, both at ``SECOND_DIFFERENCE_STEP``.  The second
fundamental form along a unit normal nu is ``second_derivatives(u) @ nu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exterior import _central_differences
from .reports import Check, CheckedReport

FIRST_ORDER_TOL = 1e-3
# central-difference steps in parameter space; a second difference divides rounding by h^2
FIRST_DIFFERENCE_STEP = 1e-5
SECOND_DIFFERENCE_STEP = 1e-4


def _partials(f: Callable[[np.ndarray], np.ndarray], us: np.ndarray, h: float) -> np.ndarray:
    """(P, n, ...) partials df/du_i of a one-point map at (P, n) points, by the shared stencil."""
    return _central_differences(lambda vs: np.stack([f(v) for v in vs]),
                                np.atleast_2d(np.asarray(us, dtype=float)), [h])[:, 0]


def _normal_projector(frame: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of a frame's (column) span."""
    return np.eye(frame.shape[0]) - frame @ np.linalg.solve(frame.T @ frame, frame.T)


def _unit_projection(projector: np.ndarray, direction: np.ndarray) -> np.ndarray:
    vec = projector @ direction
    return vec / np.linalg.norm(vec)


def _normal_frame(projector: np.ndarray, codim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a normal projector."""
    eigvals, eigvecs = np.linalg.eigh(projector)
    cols = eigvecs[:, eigvals > 0.5]
    if cols.shape[1] != codim:
        raise ValueError("normal space has unexpected dimension")
    return cols


def _normal_field(patch: SurfacePatch, projector: np.ndarray, nu: np.ndarray):
    """``SurfacePatch.normal_field`` from the normal projector at u0, and its value at u0."""
    anchor = projector @ np.asarray(nu, dtype=float)
    norm = np.linalg.norm(anchor)
    if norm < 1e-12:
        raise ValueError("direction has no normal component at the base point")
    anchor = anchor / norm

    def field(u: np.ndarray) -> np.ndarray:
        return _unit_projection(_normal_projector(patch.tangent_frame(u)), anchor)

    return field, _unit_projection(projector, anchor)


def _shape_operator(gram: np.ndarray, second: np.ndarray, nu) -> np.ndarray:
    """g^{-1} A^nu from the first fundamental form and the second derivatives."""
    return np.linalg.solve(gram, second @ np.asarray(nu, dtype=float))


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """An immersed parameterized n-surface patch in R^(n+m)."""

    parameterization: Callable[[np.ndarray], np.ndarray]
    param_dim: int
    ambient_dim: int

    def __post_init__(self):
        probe = np.asarray(self.parameterization(np.zeros(self.param_dim)), dtype=float)
        if probe.shape != (self.ambient_dim,):
            raise ValueError(
                f"parameterization must map R^{self.param_dim} -> R^{self.ambient_dim}"
            )

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.param_dim

    def point(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.parameterization(np.asarray(u, dtype=float)), dtype=float)

    def tangent_frame(self, u: np.ndarray) -> np.ndarray:
        """Columns are coordinate tangent vectors d(param)/du_i, by central differences."""
        frame = _partials(self.point, u, FIRST_DIFFERENCE_STEP)[0].T
        svals = np.linalg.svd(frame, compute_uv=False)
        if svals[-1] <= 1e-8 * svals[0]:
            raise ValueError("parameterization is not an immersion at this point")
        return frame

    def normal_frame(self, u: np.ndarray) -> np.ndarray:
        """Orthonormal basis of the normal space (columns), from the normal projector."""
        return _normal_frame(_normal_projector(self.tangent_frame(u)), self.codim)

    def normal_field(self, u0: np.ndarray, nu: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Smooth unit normal field near u0 extending a given ambient direction.

        The anchor direction is projected onto the normal space at u0, then
        transported by projection and renormalization; smooth wherever the
        projection stays bounded away from zero.
        """
        return _normal_field(self, _normal_projector(self.tangent_frame(u0)), nu)[0]

    def second_derivatives(self, u: np.ndarray) -> np.ndarray:
        """(n, n, N) second partials d2 f / du_i du_j, by nested central differences.

        Contracted with a unit normal nu, they give the second fundamental
        form A^nu_ij = <d2 f / du_i du_j, nu>.
        """
        second = _central_differences(lambda vs: _partials(self.point, vs, SECOND_DIFFERENCE_STEP),
                                      np.asarray(u, dtype=float)[None], [SECOND_DIFFERENCE_STEP])
        return second[0, 0]


def fermi_volume_ratio(
    patch: SurfacePatch, u: np.ndarray, nu: np.ndarray, y: float
) -> float:
    """det g(u, y nu) / det g(u, 0) for the normally displaced surface.

    Tangents of u -> f(u) + y nu(u) are taken by central differences; a
    warning-free result needs |y| below the focal radius (the displaced
    surface may degenerate beyond it).  This is the one-point reference for
    the ratios that ``verify_first_order`` takes for every y at once.
    """
    u = np.asarray(u, dtype=float)
    field = patch.normal_field(u, nu)

    def displaced(v: np.ndarray) -> np.ndarray:
        return patch.point(v) + y * field(v)

    T = _partials(displaced, u, FIRST_DIFFERENCE_STEP)[0].T
    T_0 = patch.tangent_frame(u)
    return float(np.linalg.det(T.T @ T) / np.linalg.det(T_0.T @ T_0))


def _fermi_volume_ratios(
    patch: SurfacePatch, u: np.ndarray, nu: np.ndarray, ys: np.ndarray, frame: np.ndarray
) -> np.ndarray:
    """``fermi_volume_ratio`` for each y, from one evaluation of the stencil.

    The surface points and unit normals at the 2n stencil points around u do
    not depend on y, so they are evaluated once; each y then displaces them
    with the same arithmetic as the one-point function, whose values these
    are.  ``frame`` is the tangent frame at u.
    """
    field, _ = _normal_field(patch, _normal_projector(frame), nu)

    def displaced(vs: np.ndarray) -> np.ndarray:  # (2n, Y, N): every y at each stencil point
        points = np.stack([patch.point(v) for v in vs])
        normals = np.stack([field(v) for v in vs])
        return points[:, None] + ys[:, None] * normals[:, None]

    partials = _central_differences(displaced, u[None], [FIRST_DIFFERENCE_STEP])[0, 0]
    tangents = np.ascontiguousarray(np.swapaxes(partials, 0, 1))  # (Y, n, N)
    det_0 = np.linalg.det(frame.T @ frame)
    # one Gram matrix per y, laid out as in the one-point function
    return np.array([np.linalg.det(T @ T.T) / det_0 for T in tangents])


@dataclass(frozen=True)
class FirstOrderReport(CheckedReport):
    fitted_beta: float
    expected_beta: float  # -2 H^nu
    mean_curvature_trace: float
    error: float
    focal_radius: float
    y_beyond_focal: bool

    def checks(self) -> list[Check]:
        return [
            Check("first_order_match", self.error <= FIRST_ORDER_TOL,
                  measured=self.fitted_beta, threshold=self.expected_beta,
                  tolerance=FIRST_ORDER_TOL, detail=f"H^nu = {self.mean_curvature_trace:.6g}"),
            Check("within_focal_radius", not self.y_beyond_focal,
                  measured=self.focal_radius,
                  detail="largest y stays below the focal radius estimate"),
        ]


def verify_first_order(
    patch: SurfacePatch,
    u: np.ndarray,
    nu: np.ndarray,
    y_sequence: Sequence[float],
) -> FirstOrderReport:
    """Fit ratio(y) = 1 + beta y + O(y^2) and compare beta against -2 H^nu.

    Two-sided ratios cancel the O(y^2) term; Richardson extrapolation over
    the decreasing y-sequence removes the next order.  All 2 * len(ys)
    ratios come from one pass over the tangent stencil; ``fermi_volume_ratio``
    is their one-point reference.  The tangent frame and the second
    derivatives at u are computed once and shared by the normal, the ratios,
    the mean curvature and the focal radius.  The focal radius is the
    conservative estimate 1 / sum_nu |g^{-1} A^nu|_2 over an orthonormal
    normal frame.  Passes iff |beta + 2 H^nu| <= FIRST_ORDER_TOL * max(1, |H^nu|)
    and the largest y stays below the focal radius estimate.  Raises
    ``ValueError`` unless the y values are at least two, positive and distinct.
    """
    ys = np.asarray(sorted(y_sequence, reverse=True), dtype=float)
    if ys.size < 2 or np.any(ys <= 0):
        raise ValueError("y_sequence must contain at least two positive values")
    if np.any(ys[1:] == ys[:-1]):  # the Richardson step divides by ratio^2 - 1
        raise ValueError("y_sequence must not repeat a value")
    u = np.asarray(u, dtype=float)
    frame = patch.tangent_frame(u)
    projector = _normal_projector(frame)
    _, nu_unit = _normal_field(patch, projector, nu)

    plus, minus = np.split(
        _fermi_volume_ratios(patch, u, nu_unit, np.concatenate([ys, -ys]), frame), 2)
    betas = (plus - minus) / (2 * ys)
    # one Richardson step on the finest pair (central estimates have O(y^2) error)
    ratio = ys[-2] / ys[-1]
    beta = (ratio**2 * betas[-1] - betas[-2]) / (ratio**2 - 1.0)

    gram, second = frame.T @ frame, patch.second_derivatives(u)
    H = float(np.trace(_shape_operator(gram, second, nu_unit)))
    expected = -2.0 * H
    error = abs(beta - expected) / max(1.0, abs(H))
    curvature = sum(np.linalg.norm(_shape_operator(gram, second, normal), 2)
                    for normal in _normal_frame(projector, patch.codim).T)
    focal = math.inf if curvature == 0.0 else 1.0 / curvature
    return FirstOrderReport(
        fitted_beta=float(beta),
        expected_beta=float(expected),
        mean_curvature_trace=float(H),
        error=float(error),
        focal_radius=float(focal),
        y_beyond_focal=bool(ys.max() >= focal),
    )


# -- surface presets ----------------------------------------------------------


def sphere_patch(radius: float, dim: int) -> SurfacePatch:
    """Round n-sphere of the given radius in R^(n+1), hyperspherical chart."""

    def param(u: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(u)
        x = np.zeros(dim + 1)
        sin_prod = 1.0
        for i in range(dim):
            x[i] = radius * sin_prod * math.cos(u[i])
            sin_prod *= math.sin(u[i])
        x[dim] = radius * sin_prod
        return x

    return SurfacePatch(param, param_dim=dim, ambient_dim=dim + 1)


def cylinder_patch(radius: float) -> SurfacePatch:
    def param(u: np.ndarray) -> np.ndarray:
        return np.array([radius * math.cos(u[0]), radius * math.sin(u[0]), u[1]])

    return SurfacePatch(param, param_dim=2, ambient_dim=3)


def catenoid_patch() -> SurfacePatch:
    """The minimal catenoid x^2 + y^2 = cosh(v)^2; H = 0 everywhere."""

    def param(u: np.ndarray) -> np.ndarray:
        return np.array(
            [math.cosh(u[1]) * math.cos(u[0]), math.cosh(u[1]) * math.sin(u[0]), u[1]]
        )

    return SurfacePatch(param, param_dim=2, ambient_dim=3)


def plane_patch(dim: int = 2, codim: int = 1) -> SurfacePatch:
    def param(u: np.ndarray) -> np.ndarray:
        out = np.zeros(dim + codim)
        out[:dim] = u
        return out

    return SurfacePatch(param, param_dim=dim, ambient_dim=dim + codim)


def graph_patch(heights: Sequence[Callable[[np.ndarray], float]], dim: int = 2) -> SurfacePatch:
    """Graph surface u -> (u, q_1(u), ..., q_m(u)) in R^(dim + m)."""
    heights = list(heights)

    def param(u: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(u)
        return np.concatenate([u, [float(q(u)) for q in heights]])

    return SurfacePatch(param, param_dim=dim, ambient_dim=dim + len(heights))


def polynomial_height(terms: dict[tuple[int, ...], float]) -> Callable[[np.ndarray], float]:
    """Polynomial from {exponent tuple: coefficient}, e.g. {(2, 0): 0.3}."""

    def poly(u: np.ndarray) -> float:
        u = np.atleast_1d(u)
        total = 0.0
        for exponents, coeff in terms.items():
            term = coeff
            for var, e in zip(u, exponents):
                term *= var**e
            total += term
        return total

    return poly
