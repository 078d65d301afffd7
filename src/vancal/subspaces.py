"""Oriented subspaces of R^N, intersection splitting, and intersection angles.

A transverse plane pair splits off its common intersection; the principal
angles of the leftover complement factors carry the geometry.  All angle
computations reduce to singular values of cross-Gram matrices of
orthonormalized bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exterior import _orthonormal_rows

RANK_TOL = 1e-10
INTERSECTION_SV_TOL = 1e-10  # singular values above 1 - tol count as 1


@dataclass(frozen=True, eq=False)
class OrientedSubspace:
    """A k-dimensional subspace of R^N, oriented by the order of its basis rows."""

    ambient_dim: int
    basis: np.ndarray  # shape (k, N)

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != self.ambient_dim:
            raise ValueError(
                f"basis must be (k, {self.ambient_dim}) row vectors, got {basis.shape}"
            )
        if basis.shape[0] > 0:
            svals = np.linalg.svd(basis, compute_uv=False)
            if svals[-1] <= RANK_TOL * svals[0]:
                raise ValueError(
                    "basis is numerically rank deficient "
                    f"(smallest/largest singular value = {svals[-1] / svals[0]:.3e})"
                )
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def orthonormal_basis(self) -> np.ndarray:
        """Orientation-preserving orthonormal basis (rows), via thin QR."""
        if self.dim == 0:
            return np.zeros((0, self.ambient_dim))
        return _orthonormal_rows(self.basis.T[None])[0]

    def projector(self) -> np.ndarray:
        q = self.orthonormal_basis()
        return q.T @ q

    def contains(self, vector: np.ndarray, tol: float = 1e-10) -> bool:
        v = np.asarray(vector, dtype=float)
        return bool(np.linalg.norm(self.projector() @ v - v) <= tol * max(1.0, np.linalg.norm(v)))


def principal_angles(p1: OrientedSubspace, p2: OrientedSubspace) -> np.ndarray:
    """Principal angles via singular values of the cross-Gram matrix.

    Returned in nonincreasing order of cosine (nondecreasing angles),
    clamped to [0, pi/2].
    """
    if p1.ambient_dim != p2.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    q1 = p1.orthonormal_basis()
    q2 = p2.orthonormal_basis()
    if p1.dim == 0 or p2.dim == 0:
        return np.zeros(0)
    svals = np.linalg.svd(q1 @ q2.T, compute_uv=False)
    return np.arccos(np.clip(svals, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class PlanePair:
    """Two oriented n-planes split over their intersection.

    ``complement1``/``complement2`` are the orthogonal complements of the
    intersection inside each plane; ``principal_angles`` are the angles of
    the complement pair, all strictly positive by construction.
    """

    p1: OrientedSubspace
    p2: OrientedSubspace
    intersection: OrientedSubspace
    complement1: OrientedSubspace
    complement2: OrientedSubspace
    principal_angles: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.p1.ambient_dim

    @property
    def plane_dim(self) -> int:
        return self.p1.dim

    @property
    def intersection_dim(self) -> int:
        return self.intersection.dim


def intersect_and_split(p1: OrientedSubspace, p2: OrientedSubspace) -> PlanePair:
    """Split a plane pair into intersection and transverse complement factors.

    The intersection is spanned by the singular directions of the cross-Gram
    matrix with singular value 1 (threshold 1 - 1e-10); complements are its
    orthogonal complements inside each plane.
    """
    if p1.ambient_dim != p2.ambient_dim:
        raise ValueError("planes live in different ambient dimensions")
    if p1.dim != p2.dim:
        raise ValueError(f"planes must have equal dimension, got {p1.dim} and {p2.dim}")
    N = p1.ambient_dim
    q1 = p1.orthonormal_basis()
    q2 = p2.orthonormal_basis()
    u, svals, vt = np.linalg.svd(q1 @ q2.T)
    shared = svals >= 1.0 - INTERSECTION_SV_TOL

    basis1 = u.T @ q1  # rotated orthonormal basis of p1, aligned with p2
    basis2 = vt @ q2
    intersection = OrientedSubspace(N, basis1[shared])
    complement1 = OrientedSubspace(N, basis1[~shared])
    complement2 = OrientedSubspace(N, basis2[~shared])
    angles = np.arccos(np.clip(svals[~shared], 0.0, 1.0))
    return PlanePair(
        p1=p1,
        p2=p2,
        intersection=intersection,
        complement1=complement1,
        complement2=complement2,
        principal_angles=angles,
    )


def coordinate_plane(ambient_dim: int, axes) -> OrientedSubspace:
    axes = tuple(axes)
    basis = np.zeros((len(axes), ambient_dim))
    for row, axis in enumerate(axes):
        basis[row, axis] = 1.0
    return OrientedSubspace(ambient_dim, basis)


def rotated_plane_pair(
    ambient_dim: int, plane_dim: int, angles
) -> tuple[OrientedSubspace, OrientedSubspace]:
    """Two n-planes with prescribed principal angles, via block rotations.

    The first plane is spanned by e_1..e_n; the i-th basis vector of the
    second is rotated by angles[i] into the axis e_{n+i}.  Requires
    ambient_dim >= plane_dim + #nonzero angles.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size > plane_dim:
        raise ValueError("more angles than plane dimensions")
    p1 = coordinate_plane(ambient_dim, range(plane_dim))
    basis2 = np.zeros((plane_dim, ambient_dim))
    for i in range(plane_dim):
        basis2[i, i] = 1.0
    for i, alpha in enumerate(angles):
        if plane_dim + i >= ambient_dim:
            raise ValueError("ambient dimension too small for the requested angles")
        basis2[i, i] = math.cos(alpha)
        basis2[i, plane_dim + i] = math.sin(alpha)
    return p1, OrientedSubspace(ambient_dim, basis2)


def subspace_hausdorff_distance(a: OrientedSubspace, b: OrientedSubspace) -> float:
    """Gap metric between subspaces: spectral norm of projector difference."""
    if a.dim != b.dim:
        return 1.0
    if a.dim == 0:
        return 0.0
    return float(np.linalg.norm(a.projector() - b.projector(), 2))
