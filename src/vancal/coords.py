"""Adapted orthonormal coordinates (x, y, l) for an angular wedge around a plane.

The x-block spans the calibrated directions off the shared subspace, the
y-block the directions normal to the plane, and the optional l-block the
shared intersection directions.  r = |x-part|, z = |y-part|, and the cutoff's
one variable is u = z^2 / r^2, the square of the wedge slope t = z/r: it is
what ``CutoffParams.inside``, the wedge rule, and every profile method read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FRAME_ORTHO_TOL = 1e-10


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis, 0 for an empty one.

    The sum is np.linalg.norm's, so its square root is bit-identical to the norm.
    """
    return np.add.reduce(rows * rows, axis=-1)


@dataclass(frozen=True, eq=False)
class WedgeCoordinates:
    """Orthonormal frames for the x/y/l block splitting of R^N."""

    ambient_dim: int
    x_frame: np.ndarray  # (n, N)
    y_frame: np.ndarray  # (m, N)
    l_frame: np.ndarray = field(default=None)  # (k, N); defaults to empty

    def __post_init__(self):
        x = np.array(self.x_frame, dtype=float)
        y = np.array(self.y_frame, dtype=float)
        l = (
            np.zeros((0, self.ambient_dim))
            if self.l_frame is None
            else np.array(self.l_frame, dtype=float)
        )
        stacked = np.vstack([x, y, l])
        if stacked.shape[1] != self.ambient_dim:
            raise ValueError(f"frames must have {self.ambient_dim} columns")
        gram = stacked @ stacked.T
        if np.max(np.abs(gram - np.eye(stacked.shape[0]))) > FRAME_ORTHO_TOL:
            raise ValueError("x/y/l frames must be jointly orthonormal")
        for name, arr in (("x_frame", x), ("y_frame", y), ("l_frame", l)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_axes(cls, ambient_dim: int, x_axes, y_axes, l_axes=()) -> "WedgeCoordinates":
        """Coordinate frames on the given axes, each in [0, ambient_dim)."""

        def rows(axes):
            axes = tuple(axes)
            frame = np.zeros((len(axes), ambient_dim))
            for i, axis in enumerate(axes):
                if not 0 <= axis < ambient_dim:
                    raise ValueError(f"axis {axis} lies outside [0, {ambient_dim})")
                frame[i, axis] = 1.0
            return frame

        return cls(ambient_dim, rows(x_axes), rows(y_axes), rows(l_axes))

    @property
    def n(self) -> int:
        return self.x_frame.shape[0]

    @property
    def m(self) -> int:
        return self.y_frame.shape[0]

    @property
    def k(self) -> int:
        return self.l_frame.shape[0]

    # -- pointwise scalars ---------------------------------------------------

    def x_part(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.x_frame.T

    def y_part(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.y_frame.T

    def l_part(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.l_frame.T

    def r_squared(self, points: np.ndarray) -> np.ndarray:
        return squared_norms(self.x_part(points))

    def z_squared(self, points: np.ndarray) -> np.ndarray:
        return squared_norms(self.y_part(points))

    def r(self, points: np.ndarray) -> np.ndarray:
        return np.sqrt(self.r_squared(points))

    def z(self, points: np.ndarray) -> np.ndarray:
        return np.sqrt(self.z_squared(points))

    def u(self, points: np.ndarray) -> np.ndarray:
        """z^2 / r^2 = t^2: inf or nan on r = 0, which ``CutoffParams.inside`` puts outside."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.z_squared(points) / self.r_squared(points)

    def assemble(self, xi: np.ndarray, eta: np.ndarray, lam: np.ndarray = None) -> np.ndarray:
        """Ambient point from block coordinates."""
        point = np.asarray(xi, dtype=float) @ self.x_frame
        if self.m:
            point = point + np.asarray(eta, dtype=float) @ self.y_frame
        if self.k and lam is not None:
            point = point + np.asarray(lam, dtype=float) @ self.l_frame
        return point
