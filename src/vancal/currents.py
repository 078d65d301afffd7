"""Triangulated integral currents: mass, boundary, and pairing with form fields.

Simplices carry integer multiplicities and an orientation sign; boundary
cancellation is exact integer arithmetic while geometry stays floating
point.  Form integration uses symmetric barycentric (Grundmann-Moeller)
quadrature on the constant unit tangent k-vector of each simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .exterior import FormField, _batched_plucker, _orthonormal_rows

DEGENERACY_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Simplex:
    vertices: np.ndarray  # (k+1, N)
    multiplicity: int = 1
    sign: int = 1

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float)
        if vertices.ndim != 2:
            raise ValueError("simplex vertices must be a (k+1, N) array")
        if int(self.multiplicity) != self.multiplicity or self.multiplicity < 0:
            raise ValueError("multiplicity must be a nonnegative integer")
        if self.sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        vertices.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "multiplicity", int(self.multiplicity))
        object.__setattr__(self, "sign", int(self.sign))

    @property
    def degree(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def edges(self) -> np.ndarray:
        return self.vertices[1:] - self.vertices[0]

    def volume(self) -> float:
        return float(_volumes(self.vertices[None])[0])

    def tangent_frame(self) -> np.ndarray:
        """Oriented orthonormal frame of the simplex plane (rows)."""
        return _tangent_frames(self.vertices[None], np.array([self.sign]))[0]


def _volumes(vertices: np.ndarray) -> np.ndarray:
    """k-volumes of a (S, k+1, N) stack of simplices, by one batched Gram determinant."""
    k = vertices.shape[1] - 1
    if k == 0:
        return np.ones(vertices.shape[0])
    edges = vertices[:, 1:] - vertices[:, :1]
    det = np.linalg.det(edges @ np.swapaxes(edges, 1, 2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)


def _tangent_frames(vertices: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Oriented orthonormal tangent frames (S, k, N) of a (S, k+1, N) stack of simplices.

    One batched QR of the edge matrices with a positive R diagonal, so each
    frame keeps the orientation of the edges; a simplex with sign -1 has its
    first row negated.
    """
    frames = _orthonormal_rows(np.swapaxes(vertices[:, 1:] - vertices[:, :1], 1, 2))
    frames[:, :1] *= np.where(signs < 0, -1.0, 1.0)[:, None, None]
    return frames


@dataclass(frozen=True, eq=False)
class TriangulatedCurrent:
    """An integer-multiplicity simplicial k-chain in R^N."""

    ambient_dim: int
    degree: int
    simplices: tuple

    def __post_init__(self):
        sims = tuple(self.simplices)
        for s in sims:
            if not isinstance(s, Simplex):
                raise TypeError("simplices must be Simplex instances")
            if s.vertices.shape != (self.degree + 1, self.ambient_dim):
                raise ValueError(
                    f"simplex shape {s.vertices.shape} does not match "
                    f"(k+1, N) = ({self.degree + 1}, {self.ambient_dim})"
                )
        object.__setattr__(self, "simplices", sims)
        if self.degree >= 1 and np.any(_volumes(self._live_arrays()[0]) <= DEGENERACY_TOL):
            raise ValueError("degenerate simplex (volume below tolerance)")

    @classmethod
    def from_arrays(
        cls,
        ambient_dim: int,
        degree: int,
        vertices: Iterable[np.ndarray],
        multiplicities: Iterable[int] = None,
    ) -> "TriangulatedCurrent":
        vertices = list(vertices)
        if multiplicities is None:
            multiplicities = [1] * len(vertices)
        sims = []
        for verts, mult in zip(vertices, multiplicities):
            mult = int(mult)
            sims.append(
                Simplex(np.asarray(verts, float), abs(mult), 1 if mult >= 0 else -1)
            )
        return cls(ambient_dim, degree, tuple(sims))

    def __len__(self) -> int:
        return len(self.simplices)

    def _live_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertices (S, k+1, N), multiplicities and signs of the simplices with multiplicity > 0."""
        live = [s for s in self.simplices if s.multiplicity > 0]
        vertices = np.array([s.vertices for s in live], dtype=float)
        return (
            vertices.reshape(len(live), self.degree + 1, self.ambient_dim),
            np.array([s.multiplicity for s in live], dtype=float),
            np.array([s.sign for s in live], dtype=float),
        )


def mass(current: TriangulatedCurrent) -> float:
    """Total k-volume weighted by |multiplicity|."""
    vertices, multiplicities, _ = current._live_arrays()
    return float(np.sum(multiplicities * _volumes(vertices)))


# -- boundary ----------------------------------------------------------------


def _canonical_face(verts: np.ndarray) -> tuple:
    """Sort face vertices lexicographically; return (key, permutation parity)."""
    rows = [tuple(0.0 + v for v in row) for row in verts]  # normalizes -0.0
    order = sorted(range(len(rows)), key=rows.__getitem__)
    # parity of the sorting permutation by counting inversions
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
    )
    parity = -1 if inversions % 2 else 1
    key = tuple(rows[i] for i in order)
    return key, parity


def boundary(current: TriangulatedCurrent) -> TriangulatedCurrent:
    """Alternating-sign face chain with exact integer cancellation."""
    if current.degree < 1:
        raise ValueError("boundary requires degree >= 1")
    acc: dict = {}
    rep: dict = {}
    for s in current.simplices:
        coeff = s.sign * s.multiplicity
        if coeff == 0:
            continue
        for j in range(current.degree + 1):
            face = np.delete(s.vertices, j, axis=0)
            key, parity = _canonical_face(face)
            acc[key] = acc.get(key, 0) + coeff * parity * (-1 if j % 2 else 1)
            rep.setdefault(key, face)
    sims = []
    for key, coeff in acc.items():
        if coeff == 0:
            continue
        verts = np.array(key, dtype=float)
        sims.append(Simplex(verts, abs(coeff), 1 if coeff > 0 else -1))
    return TriangulatedCurrent(current.ambient_dim, current.degree - 1, tuple(sims))


# -- Grundmann-Moeller quadrature ---------------------------------------------


@lru_cache(maxsize=None)
def simplex_quadrature(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric barycentric rule exact for polynomials of the given order.

    Grundmann-Moeller rule of degree 2s+1 >= order on the dim-simplex;
    returns (barycentric nodes (Q, dim+1), weights summing to 1).
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    s = max(0, math.ceil((order - 1) / 2))
    d = dim
    nodes = []
    weights = []
    for i in range(s + 1):
        denom = d + 1 + 2 * (s - i)
        w = (
            (-1) ** i
            * 2.0 ** (-2 * s)
            * denom ** (2 * s + 1)
            / (math.factorial(i) * math.factorial(d + 1 + 2 * s - i))
        )
        for beta in _compositions(s - i, d + 1):
            nodes.append([(2 * b + 1) / denom for b in beta])
            weights.append(w)
    nodes_arr = np.array(nodes)
    weights_arr = np.array(weights)
    weights_arr *= math.factorial(d)  # normalize against the standard simplex volume
    return nodes_arr, weights_arr


def _compositions(total: int, parts: int):
    """All tuples of nonnegative integers of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def integrate_form(
    current: TriangulatedCurrent, field: FormField, quadrature_order: int = 2
) -> float:
    """The pairing T(F): per-simplex quadrature on the constant tangent k-vector.

    All simplices with nonzero multiplicity are stacked as (S, k+1, N): one
    batched QR gives the oriented tangent frames, one Gram determinant the
    volumes, and one field call the coefficients at all (S, Q) quadrature
    nodes, paired with the frames' Pluecker coordinates.  The result is one
    fixed reduction, ``np.sum``, over the per-simplex array, whose order
    depends only on the order of the simplices; no thread pool is involved,
    so the value is deterministic.
    """
    if field.degree != current.degree:
        raise ValueError(
            f"degree mismatch: current has degree {current.degree}, "
            f"field has degree {field.degree}"
        )
    if field.ambient_dim != current.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    N, k = current.ambient_dim, current.degree
    nodes, weights = simplex_quadrature(k, quadrature_order)
    vertices, multiplicities, signs = current._live_arrays()
    if vertices.shape[0] == 0:
        return 0.0
    points = (nodes @ vertices).reshape(-1, N)  # (S * Q, N)
    singular = field.singular_locus_descriptor(points, 0.0)
    if np.any(singular):
        raise ValueError(
            f"quadrature node {points[np.argmax(singular)]} lies on the field's singular locus"
        )
    values = field.coefficients(points).reshape(vertices.shape[0], nodes.shape[0], -1)
    # the orientation sign is carried by the tangent frame
    plucker = _batched_plucker(_tangent_frames(vertices, signs), N, k)
    pairings = np.einsum("sqm,sm->sq", values, plucker) @ weights
    return float(np.sum(multiplicities * _volumes(vertices) * pairings))


# -- calibration inequality ----------------------------------------------------


@dataclass(frozen=True)
class CalibrationInequalityReport:
    pairing: float
    mass: float
    comass_cap: float
    slack: float  # mass * cap - pairing
    calibrated: bool
    tolerance: float = 1e-8
    equality_rtol: float = 1e-6

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def calibration_inequality_check(
    current: TriangulatedCurrent,
    field: FormField,
    comass_cap: float = 1.0,
    quadrature_order: int = 2,
) -> CalibrationInequalityReport:
    """Check T(F) <= M(T) * cap; flag near-equality as calibrated."""
    pairing = integrate_form(current, field, quadrature_order)
    total_mass = mass(current)
    slack = total_mass * comass_cap - pairing
    calibrated = slack <= 1e-6 * max(total_mass, 1e-30) or total_mass == 0.0
    return CalibrationInequalityReport(
        pairing=pairing,
        mass=total_mass,
        comass_cap=comass_cap,
        slack=slack,
        calibrated=calibrated,
    )


# -- plain-text mesh format -----------------------------------------------------


def write_mesh(current: TriangulatedCurrent, path) -> None:
    """First line "N k count"; per simplex, (k+1)*N coordinates then a signed multiplicity."""
    lines = [f"{current.ambient_dim} {current.degree} {len(current.simplices)}"]
    for s in current.simplices:
        coords = " ".join(repr(float(v)) for v in s.vertices.reshape(-1))
        lines.append(f"{coords} {s.sign * s.multiplicity}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> TriangulatedCurrent:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError("mesh file must start with 'N k count'")
    N, k, count = int(tokens[0]), int(tokens[1]), int(tokens[2])
    per = (k + 1) * N + 1
    body = tokens[3:]
    if len(body) != per * count:
        raise ValueError(
            f"expected {per * count} tokens for {count} simplices, got {len(body)}"
        )
    sims = []
    for i in range(count):
        chunk = body[i * per : (i + 1) * per]
        verts = np.array([float(tok) for tok in chunk[:-1]]).reshape(k + 1, N)
        mult = int(chunk[-1])
        sims.append(Simplex(verts, abs(mult), 1 if mult >= 0 else -1))
    return TriangulatedCurrent(N, k, tuple(sims))


# -- mesh generators -------------------------------------------------------------


def disk_mesh(rings: int, ambient_dim: int = 2, plane_axes=(0, 1)) -> TriangulatedCurrent:
    """Concentric-ring triangulation of the unit disk, positively oriented.

    Ring j holds 6j vertices at radius j/rings (6 rings^2 triangles total);
    boundary vertices lie on the unit circle, so the area converges to pi
    at rate rings^-2.
    """
    if rings < 1:
        raise ValueError("rings must be >= 1")
    ax0, ax1 = plane_axes

    ring_pts = [[(0.0, 0.0)]]
    for j in range(1, rings + 1):
        radius = j / rings
        ring_pts.append(
            [
                (
                    radius * math.cos(2 * math.pi * i / (6 * j)),
                    radius * math.sin(2 * math.pi * i / (6 * j)),
                )
                for i in range(6 * j)
            ]
        )

    triangles: list[tuple] = []

    def add(a, b, c):
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        triangles.append((a, b, c) if orient > 0 else (a, c, b))

    for j in range(1, rings + 1):
        inner, outer = ring_pts[j - 1], ring_pts[j]
        n_in, n_out = len(inner), len(outer)
        if n_in == 1:
            for o in range(n_out):
                add(inner[0], outer[o], outer[(o + 1) % n_out])
            continue
        # merge the two circular vertex lists by angular fraction
        i = o = 0
        while i < n_in or o < n_out:
            advance_outer = o < n_out and (
                i == n_in or (o + 1) / n_out <= (i + 1) / n_in
            )
            if advance_outer:
                add(inner[i % n_in], outer[o % n_out], outer[(o + 1) % n_out])
                o += 1
            else:
                add(inner[i % n_in], outer[o % n_out], inner[(i + 1) % n_in])
                i += 1

    def embed(p2):
        p = np.zeros(ambient_dim)
        p[ax0] = p2[0]
        p[ax1] = p2[1]
        return p

    sims = tuple(
        Simplex(np.array([embed(a), embed(b), embed(c)]), 1, 1) for a, b, c in triangles
    )
    return TriangulatedCurrent(ambient_dim, 2, sims)


def icosphere_faces(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Icosahedron subdivided and projected to the unit sphere."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=int,
    )
    verts_list = [tuple(v) for v in verts]
    index = {v: i for i, v in enumerate(verts_list)}

    def midpoint(i, j):
        total = np.array(verts_list[i]) + np.array(verts_list[j])
        m = tuple(total / np.linalg.norm(total))
        if m not in index:
            index[m] = len(verts_list)
            verts_list.append(m)
        return index[m]

    for _ in range(subdivisions):
        new_faces = []
        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.array(new_faces, dtype=int)
    return np.array(verts_list), faces


def ball_mesh(
    subdivisions: int, ambient_dim: int = 3, axes=(0, 1, 2), radius: float = 1.0
) -> TriangulatedCurrent:
    """Unit 3-ball coned from a subdivided icosphere, positively oriented."""
    verts, faces = icosphere_faces(subdivisions)
    verts = verts * radius
    sims = []
    origin = np.zeros(3)
    for a, b, c in faces:
        tet = np.array([origin, verts[a], verts[b], verts[c]])
        if np.linalg.det(tet[1:] - tet[0]) < 0:
            tet = tet[[0, 1, 3, 2]]
        emb = np.zeros((4, ambient_dim))
        for col, axis in enumerate(axes):
            emb[:, axis] = tet[:, col]
        sims.append(Simplex(emb, 1, 1))
    return TriangulatedCurrent(ambient_dim, 3, tuple(sims))


def graphical_perturbation(
    current: TriangulatedCurrent,
    normal_axis: int,
    amplitude: float,
    *,
    support_radius: float = 1.0,
    plane_axes: Sequence[int] = (0, 1, 2),
) -> TriangulatedCurrent:
    """Displace interior vertices along a normal axis by a compactly supported bump.

    The bump amplitude * (1 - |x|^2 / R^2)^2 vanishes (with derivative) at
    |x| = R, so boundary vertices stay fixed and the perturbed chain bounds
    the same cycle.
    """
    plane_axes = list(plane_axes)
    sims = []
    for s in current.simplices:
        verts = s.vertices.copy()
        for row in range(verts.shape[0]):
            x = verts[row, plane_axes]
            rho2 = float(x @ x) / support_radius**2
            if rho2 < 1.0:
                verts[row, normal_axis] += amplitude * (1.0 - rho2) ** 2
        sims.append(Simplex(verts, s.multiplicity, s.sign))
    return TriangulatedCurrent(current.ambient_dim, current.degree, tuple(sims))


def square_mesh(ambient_dim: int = 2, multiplicity: int = 1) -> TriangulatedCurrent:
    """The unit square in the first two axes, split into two triangles."""
    v00, v10, v01, v11 = (
        np.zeros(ambient_dim),
        np.zeros(ambient_dim),
        np.zeros(ambient_dim),
        np.zeros(ambient_dim),
    )
    v10[0] = 1.0
    v01[1] = 1.0
    v11[0] = 1.0
    v11[1] = 1.0
    sims = (
        Simplex(np.array([v00, v10, v11]), multiplicity, 1),
        Simplex(np.array([v00, v11, v01]), multiplicity, 1),
    )
    return TriangulatedCurrent(ambient_dim, 2, sims)
