"""First-order volume expansion in normal offsets of submanifolds.

For a patch of an n-surface in Euclidean R^(n+m), displacing along a unit
normal field by y multiplies the tangent Gram determinant by
1 - 2 H^nu y + O(y^2), where H^nu is the trace of the second fundamental
form in the direction nu.  In flat ambient space the Fermi displacement is
the straight-line normal offset, so everything below is finite differences
on the displaced parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .reports import Check, CheckedReport

FIRST_ORDER_TOL = 1e-3


def _central_differences(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray, n: int,
                         h: float) -> np.ndarray:
    """(N, n) columns df/du_i at u, by central differences with step h."""
    cols = []
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        cols.append((f(u + step) - f(u - step)) / (2 * h))
    return np.stack(cols, axis=1)


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """An immersed parameterized n-surface patch in R^(n+m)."""

    parameterization: Callable[[np.ndarray], np.ndarray]
    param_dim: int
    ambient_dim: int
    h: float = 1e-5  # finite-difference step in parameter space

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
        frame = _central_differences(self.point, np.asarray(u, dtype=float),
                                     self.param_dim, self.h)
        svals = np.linalg.svd(frame, compute_uv=False)
        if svals[-1] <= 1e-8 * svals[0]:
            raise ValueError("parameterization is not an immersion at this point")
        return frame

    def normal_projector(self, u: np.ndarray) -> np.ndarray:
        T = self.tangent_frame(u)
        return np.eye(self.ambient_dim) - T @ np.linalg.solve(T.T @ T, T.T)

    def normal_frame(self, u: np.ndarray) -> np.ndarray:
        """Orthonormal basis of the normal space (columns), Gram-Schmidt on projections."""
        P = self.normal_projector(u)
        eigvals, eigvecs = np.linalg.eigh(P)
        cols = eigvecs[:, eigvals > 0.5]
        if cols.shape[1] != self.codim:
            raise ValueError("normal space has unexpected dimension")
        return cols

    def normal_field(self, u0: np.ndarray, nu: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Smooth unit normal field near u0 extending a given ambient direction.

        The anchor direction is projected onto the normal space at u0, then
        transported by projection and renormalization; smooth wherever the
        projection stays bounded away from zero.
        """
        nu = np.asarray(nu, dtype=float)
        anchor = self.normal_projector(u0) @ nu
        norm = np.linalg.norm(anchor)
        if norm < 1e-12:
            raise ValueError("direction has no normal component at the base point")
        anchor = anchor / norm

        def field(u: np.ndarray) -> np.ndarray:
            vec = self.normal_projector(u) @ anchor
            return vec / np.linalg.norm(vec)

        return field

    def first_fundamental_form(self, u: np.ndarray) -> np.ndarray:
        T = self.tangent_frame(u)
        return T.T @ T

    def second_fundamental_form(self, u: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """A_ij = <d2 f / du_i du_j, nu> for a unit normal nu, central differences."""
        u = np.asarray(u, dtype=float)
        nu = np.asarray(nu, dtype=float)
        n = self.param_dim
        h = max(self.h, 1e-5) * 10.0  # second differences need a larger step
        A = np.zeros((n, n))
        f0 = self.point(u)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            A[i, i] = nu @ (self.point(u + ei) - 2 * f0 + self.point(u - ei)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                mixed = (
                    self.point(u + ei + ej)
                    - self.point(u + ei - ej)
                    - self.point(u - ei + ej)
                    + self.point(u - ei - ej)
                ) / (4 * h**2)
                A[i, j] = A[j, i] = nu @ mixed
        return A

    def mean_curvature_trace(self, u: np.ndarray, nu: np.ndarray) -> float:
        """H^nu = g^{il} A_{li}^nu, the sum of principal curvatures along nu."""
        g = self.first_fundamental_form(u)
        A = self.second_fundamental_form(u, nu)
        return float(np.trace(np.linalg.solve(g, A)))

    def focal_radius_estimate(self, u: np.ndarray) -> float:
        """Conservative 1 / (shape operator norm) estimate over the normal frame."""
        g = self.first_fundamental_form(u)
        total = 0.0
        for nu in self.normal_frame(u).T:
            shape_op = np.linalg.solve(g, self.second_fundamental_form(u, nu))
            total += np.linalg.norm(shape_op, 2)
        return math.inf if total == 0.0 else 1.0 / total


def fermi_volume_ratio(
    patch: SurfacePatch, u: np.ndarray, nu: np.ndarray, y: float
) -> float:
    """det g(u, y nu) / det g(u, 0) for the normally displaced surface.

    Tangents of u -> f(u) + y nu(u) are taken by central differences; a
    warning-free result needs |y| below the focal radius (the displaced
    surface may degenerate beyond it).
    """
    u = np.asarray(u, dtype=float)
    field = patch.normal_field(u, nu)

    def displaced(v: np.ndarray) -> np.ndarray:
        return patch.point(v) + y * field(v)

    T = _central_differences(displaced, u, patch.param_dim, patch.h)
    g_y = T.T @ T
    g_0 = patch.first_fundamental_form(u)
    return float(np.linalg.det(g_y) / np.linalg.det(g_0))


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
    the decreasing y-sequence removes the next order.  Passes iff
    |beta + 2 H^nu| <= FIRST_ORDER_TOL * max(1, |H^nu|) and the largest y stays
    below the focal radius estimate.
    """
    ys = np.asarray(sorted(y_sequence, reverse=True), dtype=float)
    if ys.size < 2 or np.any(ys <= 0):
        raise ValueError("y_sequence must contain at least two positive values")
    u = np.asarray(u, dtype=float)
    field = patch.normal_field(u, nu)
    nu_unit = field(u)

    betas = []
    for y in ys:
        plus = fermi_volume_ratio(patch, u, nu_unit, y)
        minus = fermi_volume_ratio(patch, u, nu_unit, -y)
        betas.append((plus - minus) / (2 * y))
    betas = np.asarray(betas)
    # one Richardson step on the finest pair (central estimates have O(y^2) error)
    ratio = ys[-2] / ys[-1]
    beta = (ratio**2 * betas[-1] - betas[-2]) / (ratio**2 - 1.0)

    H = patch.mean_curvature_trace(u, nu_unit)
    expected = -2.0 * H
    error = abs(beta - expected) / max(1.0, abs(H))
    focal = patch.focal_radius_estimate(u)
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
