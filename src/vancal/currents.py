"""Triangulated integral currents: mass, boundary, and pairing with form fields.

A chain is a vertex stack with signed integer multiplicities, the sign
being the orientation; boundary cancellation is exact integer arithmetic
while geometry stays floating point.  Form integration uses symmetric
barycentric (Grundmann-Moeller) quadrature on the constant unit tangent
k-vector of each simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .exterior import FormField, _batched_plucker
from .reports import Check, CheckedReport

DEGENERACY_TOL = 1e-14
# relative slack below which T(F) = M(T) * cap counts as calibrated
CALIBRATED_RTOL = 1e-6
# absolute slack allowed on T(F) <= M(T) * cap
INEQUALITY_TOL = 1e-8


def _volumes(vertices: np.ndarray) -> np.ndarray:
    """k-volumes of a (S, k+1, N) stack of simplices, by one batched Gram determinant."""
    k = vertices.shape[1] - 1
    if k == 0:
        return np.ones(vertices.shape[0])
    edges = vertices[:, 1:] - vertices[:, :1]
    det = np.linalg.det(edges @ np.swapaxes(edges, 1, 2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)


@dataclass(frozen=True, eq=False)
class TriangulatedCurrent:
    """An integer-multiplicity simplicial k-chain in R^N.

    ``simplices`` is a read-only (S, k+1, N) vertex stack and
    ``multiplicities`` a read-only (S,) int64 array of signed multiplicities;
    the sign is the orientation.  Rows of multiplicity 0 are the zero chain
    and are dropped.
    """

    ambient_dim: int
    degree: int
    simplices: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        vertices = np.array(self.simplices, dtype=float)
        shape = (self.degree + 1, self.ambient_dim)
        if vertices.ndim != 3 or vertices.shape[1:] != shape:
            raise ValueError(
                f"simplex shape {vertices.shape[1:]} does not match "
                f"(k+1, N) = ({self.degree + 1}, {self.ambient_dim})"
            )
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        given = np.asarray(self.multiplicities)
        multiplicities = given.astype(np.int64)
        if multiplicities.shape != vertices.shape[:1]:
            raise ValueError(f"expected {len(vertices)} multiplicities, got {given.shape}")
        if not np.array_equal(multiplicities, given):
            raise ValueError("multiplicities must be integers")
        live = multiplicities != 0
        vertices, multiplicities = vertices[live], multiplicities[live]
        if self.degree >= 1 and np.any(_volumes(vertices) <= DEGENERACY_TOL):
            raise ValueError("degenerate simplex (volume below tolerance)")
        vertices.flags.writeable = False
        multiplicities.flags.writeable = False
        object.__setattr__(self, "simplices", vertices)
        object.__setattr__(self, "multiplicities", multiplicities)

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
        stack = np.array(vertices, dtype=float) if vertices else np.empty(
            (0, degree + 1, ambient_dim))
        return cls(ambient_dim, degree, stack, list(multiplicities))

    def __len__(self) -> int:
        return len(self.simplices)


def mass(current: TriangulatedCurrent) -> float:
    """Total k-volume weighted by |multiplicity|."""
    return float(np.sum(np.abs(current.multiplicities) * _volumes(current.simplices)))


# -- boundary ----------------------------------------------------------------


def _row_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (R, C) array in lexicographic order, and the id of each row."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


def boundary(current: TriangulatedCurrent) -> TriangulatedCurrent:
    """Alternating-sign face chain with exact integer cancellation.

    Vertices get ids in lexicographic order of their coordinates (-0.0 counts
    as 0.0).  Face j of a simplex drops vertex j and carries (-1)^j times the
    parity of the permutation that sorts its ids; equal sorted faces merge,
    and faces whose coefficients cancel are dropped.  Each face lists its
    vertices in lexicographic order, and the faces come in that order too.
    """
    if current.degree < 1:
        raise ValueError("boundary requires degree >= 1")
    N, k = current.ambient_dim, current.degree
    vertex_rows, vertex_ids = _row_ids(current.simplices.reshape(-1, N) + 0.0)
    ids = vertex_ids.reshape(-1, k + 1)
    drop = np.array([[i for i in range(k + 1) if i != j] for j in range(k + 1)])
    faces = ids[:, drop]  # (S, k+1, k): face j drops vertex j
    upper, lower = np.triu_indices(k, 1)
    inversions = np.sum(faces[..., upper] > faces[..., lower], axis=-1)
    odd = (inversions + np.arange(k + 1)) % 2 == 1
    coefficients = np.where(odd, -1, 1) * current.multiplicities[:, None]
    face_rows, face_ids = _row_ids(np.sort(faces, axis=-1).reshape(-1, k))
    merged = np.zeros(len(face_rows), dtype=np.int64)
    np.add.at(merged, face_ids, coefficients.reshape(-1))
    return TriangulatedCurrent(N, k - 1, vertex_rows[face_rows], merged)


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

    Over the (S, k+1, N) vertex stack, one field call gives the coefficients
    at all (S, Q) quadrature nodes, paired with the Pluecker vectors of the
    edge frames v_i - v_0 divided by k!: that is the simplex's volume times
    its unit tangent k-vector, oriented by the edge order, and no
    orthonormal frame is formed.  The signed multiplicity carries the
    orientation, also for 0-simplices, whose frames are empty.  The result
    is one fixed reduction, ``np.sum``, over the per-simplex array, whose
    order depends only on the order of the simplices; no thread pool is
    involved, so the value is deterministic.
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
    vertices = current.simplices
    if vertices.shape[0] == 0:
        return 0.0
    points = (nodes @ vertices).reshape(-1, N)  # (S * Q, N)
    singular = field.singular_locus_descriptor(points, 0.0)
    if np.any(singular):
        raise ValueError(
            f"quadrature node {points[np.argmax(singular)]} lies on the field's singular locus"
        )
    values = field.coefficients(points).reshape(vertices.shape[0], nodes.shape[0], -1)
    tangents = _batched_plucker(vertices[:, 1:] - vertices[:, :1], N, k) / math.factorial(k)
    pairings = np.einsum("sqm,sm->sq", values, tangents) @ weights
    return float(np.sum(current.multiplicities * pairings))


# -- calibration inequality ----------------------------------------------------


@dataclass(frozen=True)
class CalibrationInequalityReport(CheckedReport):
    pairing: float
    mass: float
    comass_cap: float
    slack: float  # mass * cap - pairing

    @property
    def calibrated(self) -> bool:
        """T(F) = M(T) * cap within the relative tolerance, on either side."""
        return abs(self.slack) <= CALIBRATED_RTOL * max(self.mass, 1e-30)

    def checks(self) -> list[Check]:
        return [
            Check("calibration_inequality", self.slack >= -INEQUALITY_TOL,
                  measured=self.slack, threshold=0.0, tolerance=INEQUALITY_TOL,
                  detail=f"pairing {self.pairing:.12g}, mass {self.mass:.12g}"),
            Check("calibrated", self.calibrated, measured=self.pairing,
                  threshold=self.mass * self.comass_cap, tolerance=CALIBRATED_RTOL,
                  detail="equality within relative tolerance"),
        ]


def calibration_inequality_check(
    current: TriangulatedCurrent,
    field: FormField,
    comass_cap: float = 1.0,
    quadrature_order: int = 2,
) -> CalibrationInequalityReport:
    """Check T(F) <= M(T) * cap, and equality within a relative tolerance."""
    pairing = integrate_form(current, field, quadrature_order)
    total_mass = mass(current)
    return CalibrationInequalityReport(
        pairing=pairing,
        mass=total_mass,
        comass_cap=comass_cap,
        slack=total_mass * comass_cap - pairing,
    )


# -- plain-text mesh format -----------------------------------------------------


def write_mesh(current: TriangulatedCurrent, path) -> None:
    """First line "N k count"; per simplex, (k+1)*N coordinates then a signed multiplicity."""
    lines = [f"{current.ambient_dim} {current.degree} {len(current)}"]
    rows = current.simplices.reshape(len(current), -1).tolist()
    for coords, mult in zip(rows, current.multiplicities.tolist()):
        lines.append(" ".join(map(repr, coords)) + f" {mult}")
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
    multiplicities = [int(tok) for tok in body[per - 1 :: per]]
    del body[per - 1 :: per]
    vertices = np.array([float(tok) for tok in body]).reshape(count, k + 1, N)
    return TriangulatedCurrent(N, k, vertices, multiplicities)


# -- mesh generators -------------------------------------------------------------


def disk_mesh(rings: int, ambient_dim: int = 2, plane_axes=(0, 1)) -> TriangulatedCurrent:
    """Concentric-ring triangulation of the unit disk, positively oriented.

    Ring j holds 6j vertices at radius j/rings (6 rings^2 triangles total);
    boundary vertices lie on the unit circle, so the area converges to pi
    at rate rings^-2.
    """
    if rings < 1:
        raise ValueError("rings must be >= 1")
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
    starts = np.cumsum([0] + [len(ring) for ring in ring_pts])

    triangles: list[tuple] = []  # vertex indices into the concatenated rings
    for j in range(1, rings + 1):
        inner, outer = range(starts[j - 1], starts[j]), range(starts[j], starts[j + 1])
        n_in, n_out = len(inner), len(outer)
        if n_in == 1:
            for o in range(n_out):
                triangles.append((inner[0], outer[o], outer[(o + 1) % n_out]))
            continue
        # merge the two circular vertex lists by angular fraction
        i = o = 0
        while i < n_in or o < n_out:
            advance_outer = o < n_out and (
                i == n_in or (o + 1) / n_out <= (i + 1) / n_in
            )
            if advance_outer:
                triangles.append((inner[i % n_in], outer[o % n_out], outer[(o + 1) % n_out]))
                o += 1
            else:
                triangles.append((inner[i % n_in], outer[o % n_out], inner[(i + 1) % n_in]))
                i += 1

    tri = np.concatenate(ring_pts)[np.array(triangles)]  # (T, 3, 2)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    orient = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    clockwise = orient <= 0
    tri[clockwise] = tri[clockwise][:, [0, 2, 1]]
    vertices = np.zeros((len(tri), 3, ambient_dim))
    vertices[..., list(plane_axes)] = tri
    return TriangulatedCurrent(ambient_dim, 2, vertices, np.ones(len(tri), dtype=np.int64))


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
    tets = np.zeros((len(faces), 4, 3))
    tets[:, 1:] = (verts * radius)[faces]
    negative = np.linalg.det(tets[:, 1:] - tets[:, :1]) < 0
    tets[negative] = tets[negative][:, [0, 1, 3, 2]]
    vertices = np.zeros((len(faces), 4, ambient_dim))
    vertices[..., list(axes)] = tets
    return TriangulatedCurrent(ambient_dim, 3, vertices, np.ones(len(faces), dtype=np.int64))


def graphical_perturbation(
    current: TriangulatedCurrent,
    normal_axis: int,
    amplitude: float,
    *,
    plane_axes: Sequence[int] = (0, 1, 2),
) -> TriangulatedCurrent:
    """Displace interior vertices along a normal axis by a compactly supported bump.

    The bump amplitude * (1 - |x|^2)^2 vanishes (with derivative) at
    |x| = 1, so boundary vertices of a unit disk or ball stay fixed and the
    perturbed chain bounds the same cycle.
    """
    vertices = current.simplices.copy()
    x = vertices[..., list(plane_axes)]
    rho2 = np.einsum("...i,...i->...", x, x)
    inside = rho2 < 1.0
    column = vertices[..., normal_axis]
    column[inside] += amplitude * (1.0 - rho2[inside]) ** 2
    return TriangulatedCurrent(
        current.ambient_dim, current.degree, vertices, current.multiplicities
    )


def square_mesh(ambient_dim: int = 2, multiplicity: int = 1) -> TriangulatedCurrent:
    """The unit square in the first two axes, split into two triangles."""
    corners = np.zeros((4, ambient_dim))  # (0, 0), (1, 0), (0, 1), (1, 1)
    corners[[1, 3], 0] = 1.0
    corners[[2, 3], 1] = 1.0
    vertices = corners[[[0, 1, 3], [0, 3, 2]]]
    return TriangulatedCurrent(ambient_dim, 2, vertices, [multiplicity, multiplicity])
