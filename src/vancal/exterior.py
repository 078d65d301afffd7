"""Exterior algebra over R^N and comass computation.

Alternating k-tensors are stored by their coefficients on the basis of
strictly increasing multi-indices in lexicographic order, so antisymmetry
carries no redundant storage.  Every pairing with frames goes through one
Pluecker kernel, ``_batched_plucker``, which works in the buffers of a
``PluckerWorkspace`` that a calling loop reuses.  The comass of a tensor (its
supremum over orthonormal k-frames) is computed two independent ways:

- alternating maximization over unit vectors (the higher-order power
  method) from multistarts, in one sweep loop that runs a stack of tensors
  at once.  Setting one frame vector at a time to its normalized gradient
  never lowers the value, and by Hadamard's inequality the value on unit
  vectors never exceeds the comass;
- a brute-force sampling oracle over Haar-random k-planes, each the span
  of a Gaussian matrix scored through its normalized Pluecker vector, with
  an optional derivative-free refinement.  It shares only the Pluecker
  kernel and the QR helper with the optimizer, never its starts.

Every Haar-plane score, the oracle's and the retraction's, comes from one
scorer, ``_plane_values``, which pairs each frame's normalized Pluecker
vector with a tensor per run of frames, ``PLANE_CHUNK`` frames per pass.
Both loops take their Gaussian frames from ``_normal_chunks``, whose helper
thread draws the next chunk while the current one is scored.  The draws
stay one per chunk in the same order, so no value depends on the prefetch,
and no option turns it off; it holds one extra chunk buffer (131 KB for
omega^2/2 on R^8).

``ComassReport`` holds the two values and the one rule that relates them.

Every finite difference in the package comes from one batched stencil,
``_central_differences``, which holds the one clearance rule for it.
"""

from __future__ import annotations

import math
import threading
import warnings
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from .reports import Check, CheckedReport

MAX_AMBIENT_DIM = 16
# how far the sampling oracle, a lower bound, may exceed the optimizer
ORACLE_DOMINANCE_TOL = 1e-6

# planes per Pluecker pass of a plane-scoring loop, the sampling oracle's and
# the retraction's: keeps the Pluecker gathers in cache.  The oracle's passes
# share one Pluecker workspace.  When each pass allocated its levels anew
# (229-287 KB each for omega^2/2 on R^8), glibc trimmed them off the heap on
# free and the next pass faulted them back in: 12 951-13 591 minor faults for
# one 20 000-sample call in a fresh process, against 243-244 with the workspace
PLANE_CHUNK = 512
# stack of the thread that draws the next plane chunk's Gaussians, which
# runs one loop of C draws.  glibc keeps a joined thread's stack mapped for
# the next thread.  With the default 8 MiB stack, a process that runs every
# CLI command (perfbench's pointwise-pipeline) peaked at 60.4-60.8 MB RSS
# instead of 59.5 MB in about half of its passes, one 2 MiB huge page more
# (Linux 6.18, glibc, transparent huge pages on madvise); at 256 KiB, 24 of
# 24 passes read 59.4-59.7 MB.  threading.stack_size is process-wide, so the
# lock keeps concurrent loops from leaving it set
HELPER_STACK = 256 << 10
_HELPER_START = threading.Lock()
# finite-difference steps of the closedness order fit
FD_STEPS = (1e-2, 5e-3, 2.5e-3)


def _never_singular(points: np.ndarray, margin: float = 0.0) -> np.ndarray:
    return np.zeros(np.shape(points)[0], dtype=bool)


@lru_cache(maxsize=None)
def multi_indices(ambient_dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing multi-indices of the given length, lexicographic."""
    return tuple(combinations(range(ambient_dim), degree))


@lru_cache(maxsize=None)
def _index_positions(ambient_dim: int, degree: int) -> dict:
    return {mi: pos for pos, mi in enumerate(multi_indices(ambient_dim, degree))}


def n_coefficients(ambient_dim: int, degree: int) -> int:
    return math.comb(ambient_dim, degree)


@dataclass(frozen=True, eq=False)
class AlternatingTensor:
    """A pointwise alternating k-tensor on R^N in the increasing-index basis."""

    ambient_dim: int
    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        if not 1 <= self.ambient_dim <= MAX_AMBIENT_DIM:
            raise ValueError(
                f"ambient dimension must be in [1, {MAX_AMBIENT_DIM}], got {self.ambient_dim}"
            )
        if not 0 <= self.degree <= self.ambient_dim:
            raise ValueError(
                f"degree must be in [0, {self.ambient_dim}], got {self.degree}"
            )
        coeff = np.array(self.coefficients, dtype=float).reshape(-1)
        expected = n_coefficients(self.ambient_dim, self.degree)
        if coeff.size != expected:
            raise ValueError(
                f"expected {expected} coefficients for degree {self.degree} "
                f"in dimension {self.ambient_dim}, got {coeff.size}"
            )
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int, degree: int) -> "AlternatingTensor":
        return cls(ambient_dim, degree, np.zeros(n_coefficients(ambient_dim, degree)))

    @classmethod
    def basis(cls, ambient_dim: int, index: tuple[int, ...]) -> "AlternatingTensor":
        """The basis covector dx_{i1} ^ ... ^ dx_{ik} for a strictly increasing index."""
        index = tuple(index)
        if any(index[i] >= index[i + 1] for i in range(len(index) - 1)):
            raise ValueError(f"index must be strictly increasing, got {index}")
        pos = _index_positions(ambient_dim, len(index))[index]
        coeff = np.zeros(n_coefficients(ambient_dim, len(index)))
        coeff[pos] = 1.0
        return cls(ambient_dim, len(index), coeff)

    @classmethod
    def from_covector(cls, components: np.ndarray) -> "AlternatingTensor":
        components = np.asarray(components, dtype=float).reshape(-1)
        return cls(components.size, 1, components)

    @classmethod
    def scalar(cls, ambient_dim: int, value: float) -> "AlternatingTensor":
        return cls(ambient_dim, 0, np.array([value]))

    # -- vector space operations -------------------------------------------

    def _check_compatible(self, other: "AlternatingTensor") -> None:
        if self.ambient_dim != other.ambient_dim or self.degree != other.degree:
            raise ValueError(
                f"incompatible tensors: ({self.ambient_dim}, deg {self.degree}) "
                f"vs ({other.ambient_dim}, deg {other.degree})"
            )

    def __add__(self, other: "AlternatingTensor") -> "AlternatingTensor":
        self._check_compatible(other)
        return AlternatingTensor(
            self.ambient_dim, self.degree, self.coefficients + other.coefficients
        )

    def __sub__(self, other: "AlternatingTensor") -> "AlternatingTensor":
        self._check_compatible(other)
        return AlternatingTensor(
            self.ambient_dim, self.degree, self.coefficients - other.coefficients
        )

    def __mul__(self, c: float) -> "AlternatingTensor":
        return AlternatingTensor(self.ambient_dim, self.degree, self.coefficients * c)

    __rmul__ = __mul__

    def __neg__(self) -> "AlternatingTensor":
        return self * -1.0

    @property
    def norm(self) -> float:
        """Euclidean norm in the orthonormal increasing-index basis.

        Always an upper bound for the comass; equal to it for simple tensors.
        """
        return float(np.linalg.norm(self.coefficients))

    def is_zero(self) -> bool:
        return bool(np.all(self.coefficients == 0.0))

    def allclose(self, other: "AlternatingTensor", atol: float = 1e-12) -> bool:
        self._check_compatible(other)
        return bool(np.allclose(self.coefficients, other.coefficients, atol=atol, rtol=0.0))

    def wedge(self, other: "AlternatingTensor") -> "AlternatingTensor":
        return wedge(self, other)

    def __repr__(self) -> str:
        return (
            f"AlternatingTensor(N={self.ambient_dim}, k={self.degree}, "
            f"norm={self.norm:.6g})"
        )


# -- wedge -----------------------------------------------------------------


def _index_rows(ambient_dim: int, degree: int) -> np.ndarray:
    """``multi_indices(N, degree)`` as a (C(N, degree), degree) array."""
    return np.array(multi_indices(ambient_dim, degree), dtype=np.intp).reshape(
        n_coefficients(ambient_dim, degree), degree)


def _lex_positions(ambient_dim: int, degree: int, indices: np.ndarray) -> np.ndarray:
    """Positions in ``multi_indices(N, degree)`` of the rows on the last axis of ``indices``.

    A multi-index's code, the sum of 2^(N-1-axis) over its axes, falls as its
    lexicographic position rises, so a search on negated codes finds it.
    The codes are integers below 2^N, exact in float.
    """
    codes = 2.0 ** np.arange(ambient_dim - 1, -1, -1)
    listed = codes[_index_rows(ambient_dim, degree)].sum(axis=1)
    return np.searchsorted(-listed, -codes[indices].sum(axis=-1))


@lru_cache(maxsize=None)
def _wedge_table(ambient_dim: int, deg_a: int, deg_b: int):
    """Sparse multiplication table (pos_a, pos_b, pos_out, sign) for the wedge.

    Rows are sorted by a key symmetric in the two factors, so u ^ v and
    v ^ u accumulate in the same order and graded anticommutativity holds
    bit-exactly.  The rows are built with array operations: each output
    multi-index J splits into e_I ^ e_K once per choice of the deg_a slots of
    J that I takes, and the sign is the parity of that shuffle of slots, the
    same for every J.  Work and memory grow with the table's own length.
    """
    degree = deg_a + deg_b
    joined = _index_rows(ambient_dim, degree)
    slots_a = _index_rows(degree, deg_a)
    # the complements of the deg_a-slot choices, in the same order: complements
    # of lexicographic subsets of range(degree) come in reverse lexicographic order
    slots_b = _index_rows(degree, deg_b)[::-1]
    odd = (slots_a[:, :, None] > slots_b[:, None, :]).sum(axis=(1, 2)) % 2 == 1
    pa = _lex_positions(ambient_dim, deg_a, joined[:, slots_a]).ravel()
    pb = _lex_positions(ambient_dim, deg_b, joined[:, slots_b]).ravel()
    pos_out = np.repeat(np.arange(len(joined)), len(slots_a))
    signs = np.tile(np.where(odd, -1.0, 1.0), len(joined))
    if deg_a == deg_b:
        first, second = np.minimum(pa, pb), np.maximum(pa, pb)
    else:
        first, second = (pa, pb) if deg_a < deg_b else (pb, pa)
    order = np.lexsort((pa, second, first, pos_out))  # swap partners by pa
    return pa[order], pb[order], pos_out[order], signs[order]


def _sum_groups(terms: np.ndarray, outputs: int) -> np.ndarray:
    """Sum (P, outputs * g) terms, grouped by output, over each run of g, in order."""
    terms = terms.reshape(terms.shape[0], outputs, -1)
    out = np.zeros(terms.shape[:2])
    for j in range(terms.shape[2]):
        out += terms[:, :, j]
    return out


def _wedge_rows(
    a: np.ndarray, b: np.ndarray, ambient_dim: int, deg_a: int, deg_b: int
) -> np.ndarray:
    """Row-wise exterior products of (P, C(N, deg_a)) and (P, C(N, deg_b)) coefficients.

    Either factor may have a single row, which is broadcast.  Every output
    multi-index has the same number of table rows, and they are adjacent.
    """
    ia, ib, iout, signs = _wedge_table(ambient_dim, deg_a, deg_b)
    terms = signs * a[:, ia] * b[:, ib]
    if deg_a == deg_b and deg_a >= 1:
        # swap-partner rows are adjacent; combining them first keeps
        # anticommutativity bit-exact (IEEE addition commutes pairwise)
        terms = terms[:, 0::2] + terms[:, 1::2]
    return _sum_groups(terms, n_coefficients(ambient_dim, deg_a + deg_b))


def wedge(u: AlternatingTensor, v: AlternatingTensor) -> AlternatingTensor:
    """Exterior product in the increasing-index basis."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {u.ambient_dim} vs {v.ambient_dim}"
        )
    k_out = u.degree + v.degree
    if k_out > u.ambient_dim:
        raise ValueError(
            f"degree overflow: {u.degree} + {v.degree} > {u.ambient_dim}"
        )
    out = _wedge_rows(
        u.coefficients[None], v.coefficients[None], u.ambient_dim, u.degree, v.degree
    )
    return AlternatingTensor(u.ambient_dim, k_out, out[0])


# -- interior product ------------------------------------------------------


@lru_cache(maxsize=None)
def _interior_table(ambient_dim: int, degree: int):
    """Table (pos_in, axis, pos_out, sign) for contraction with a vector.

    i_{e_a} e_I = s e_J exactly when e_a ^ e_J = s e_I, so this is
    ``_wedge_table(N, 1, degree - 1)`` regrouped by output J, N - degree + 1
    rows per output, each group in increasing input order.
    """
    axes, pos_out, pos_in, signs = _wedge_table(ambient_dim, 1, degree - 1)
    order = np.lexsort((pos_in, pos_out))
    return pos_in[order], axes[order], pos_out[order], signs[order]


def _interior_rows(w: np.ndarray, u: np.ndarray, ambient_dim: int, degree: int) -> np.ndarray:
    """Row-wise contractions i_w(u) of (P, N) vectors with (P, C(N, degree)) coefficients.

    Either factor may have a single row, which is broadcast.
    """
    rows_in, axes, _, signs = _interior_table(ambient_dim, degree)
    return _sum_groups(
        signs * w[:, axes] * u[:, rows_in], n_coefficients(ambient_dim, degree - 1)
    )


def interior_product(w: np.ndarray, u: AlternatingTensor) -> AlternatingTensor:
    """Contraction i_w(u), inserting the vector w into the first slot."""
    if u.degree < 1:
        raise ValueError("interior product requires degree >= 1")
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != u.ambient_dim:
        raise ValueError(
            f"vector length {w.size} does not match ambient dimension {u.ambient_dim}"
        )
    out = _interior_rows(w[None], u.coefficients[None], u.ambient_dim, u.degree)
    return AlternatingTensor(u.ambient_dim, u.degree - 1, out[0])


# -- Pluecker coordinates and evaluation ------------------------------------


@lru_cache(maxsize=None)
def _laplace_plan(ambient_dim: int, degree: int):
    """``_wedge_table(N, degree - 1, 1)`` as one (faces, axes, positive) per column.

    Row I of the table's (M, degree) reshape lists the (degree-1)-faces of
    the multi-index I, the axis that completes each face to I, and the sign
    of that completion.  Column i completes every I by its i-th smallest
    axis, so the sign depends on the column alone.
    """
    faces, axes, _, signs = _wedge_table(ambient_dim, degree - 1, 1)
    shape = (n_coefficients(ambient_dim, degree), degree)
    faces, axes, signs = faces.reshape(shape), axes.reshape(shape), signs.reshape(shape)
    assert np.all(signs == signs[:1]), "Laplace signs vary within a column"
    return tuple(
        (faces[:, i].copy(), axes[:, i].copy(), bool(signs[0, i] > 0))
        for i in range(degree)
    )


class PluckerWorkspace:
    """Reusable buffers for ``_batched_plucker`` on R^N, sized once.

    They hold up to ``capacity`` frames of at most ``degree`` rows: the
    transposed rows, two Laplace levels that the kernel alternates between,
    and the gathered faces and row entries of one column.  A loop that calls
    the kernel again and again holds one workspace, so its buffers are
    allocated once instead of being freed, trimmed off the heap and faulted
    back in on every call.
    """

    def __init__(self, ambient_dim: int, degree: int, capacity: int):
        width = capacity * max(
            (n_coefficients(ambient_dim, j) for j in range(2, degree + 1)), default=0
        )
        self.ambient_dim, self.degree, self.capacity = ambient_dim, degree, capacity
        self.rows = np.empty(degree * ambient_dim * capacity)
        self.levels = (np.empty(width), np.empty(width))
        self.faces = np.empty(width)
        self.entries = np.empty(width)


def _leading(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous ``shape`` view of the start of a flat buffer."""
    return buffer[: math.prod(shape)].reshape(shape)


def _batched_plucker(
    frames: np.ndarray, ambient_dim: int, degree: int, workspace: PluckerWorkspace | None = None
) -> np.ndarray:
    """Pluecker coordinates for a (S, k, N) stack of frames, returned as (S, M).

    The rows are wedged in one at a time: each j x j minor is the Laplace
    expansion, along its last row, of (j-1)-minors already computed.  The
    work is coefficient-major: the frames are transposed once to (k, N, S),
    and each level adds or subtracts, column by column, the gathered rows
    ``plucker[faces] * row[axes]`` of S values each.  Any frame works,
    orthonormal or not; the result is the Pluecker vector of its rows.

    All of it happens in the buffers of ``workspace``, one made for the call
    when none is given, and nothing inside the column loop allocates.  The
    result is an (S, M) view into the workspace, valid until its next use.
    The gathers use ``take(..., out=, mode="clip")``, which writes straight
    into ``out`` (``mode="raise"`` buffers it); no index is clipped, because
    ``_laplace_plan`` draws every face and axis from the levels' own ranges.
    """
    count = frames.shape[0]
    if degree == 0:
        return np.ones((count, 1))
    if workspace is None:
        workspace = PluckerWorkspace(ambient_dim, degree, count)
    elif (workspace.ambient_dim != ambient_dim or workspace.degree < degree
          or workspace.capacity < count):
        raise ValueError(
            f"workspace for {workspace.capacity} frames of degree {workspace.degree} "
            f"on R^{workspace.ambient_dim} cannot hold {count} of degree {degree} "
            f"on R^{ambient_dim}"
        )
    rows = _leading(workspace.rows, degree, ambient_dim, count)
    np.copyto(rows, frames.transpose(1, 2, 0))
    plucker = rows[0]
    for j in range(2, degree + 1):
        row = rows[j - 1]
        shape = (n_coefficients(ambient_dim, j), count)
        level = _leading(workspace.levels[j % 2], *shape)
        gathered = _leading(workspace.faces, *shape)
        entries = _leading(workspace.entries, *shape)
        for column, (faces, axes, positive) in enumerate(_laplace_plan(ambient_dim, j)):
            term = level if column == 0 else gathered
            plucker.take(faces, axis=0, out=term, mode="clip")
            term *= row.take(axes, axis=0, out=entries, mode="clip")
            if column == 0:
                if not positive:
                    np.negative(level, out=level)
            elif positive:
                level += term
            else:
                level -= term
        plucker = level
    return plucker.T


def evaluate(u: AlternatingTensor, frame: np.ndarray) -> float:
    """Determinant pairing of u with the simple k-vector of a (k, N) frame's rows.

    A one-point reference for the batched pairings, which go through
    ``_batched_plucker`` directly; the tests use it.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] != u.ambient_dim:
        raise ValueError(
            f"frame must have shape (k, {u.ambient_dim}), got {frame.shape}"
        )
    if frame.shape[0] != u.degree:
        raise ValueError(
            f"degree mismatch: tensor has degree {u.degree}, frame has {frame.shape[0]} vectors"
        )
    plucker = _batched_plucker(frame[None], u.ambient_dim, u.degree)[0]
    return float(u.coefficients @ plucker)


# -- comass ------------------------------------------------------------------


def _orthonormal_rows(mats: np.ndarray) -> np.ndarray:
    """Q factors of a (S, N, k) stack with positive R diagonal, as (S, k, N) rows.

    QR of a Gaussian matrix is Haar only after fixing the R diagonal to be
    positive; LAPACK's Householder sign convention would otherwise bias
    every column into a half-space.
    """
    q, r = np.linalg.qr(mats)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return np.swapaxes(q * signs[:, None, :], 1, 2)


def random_orthonormal_frames(
    count: int, ambient_dim: int, degree: int, rng: np.random.Generator
) -> np.ndarray:
    """Haar-distributed orthonormal frames, shape (count, degree, ambient_dim)."""
    return _orthonormal_rows(rng.standard_normal((count, ambient_dim, degree)))


def _comass_rows(coefficients: np.ndarray, ambient_dim: int, degree: int, multistarts: int,
                 tol: float, *, seed: int, max_iter: int = 10_000) -> tuple[np.ndarray, int]:
    """Comass of each row of a (P, C(N, k)) stack by one alternating-maximization loop.

    The higher-order power method (De Lathauwer, De Moor & Vandewalle 2000):
    each sweep sets every frame vector v_b in turn to its normalized gradient
    g_b / |g_b|, g_b = u(v_1, .., e_j, .., v_k) (e_j in slot b), unless g_b = 0;
    each new v_b is orthogonal to the other rows, so the frame is orthonormal
    after one sweep.  Every row gets the same ``multistarts`` Haar starts from
    ``seed``; all P * multistarts frames sweep together in one Pluecker
    workspace, and each row's arithmetic is as in a stack of one.  A start is
    done when a sweep moves it by less than ``tol``; a zero row has no start.
    Returns each row's largest value, as (P,), and the count of starts not
    done after ``max_iter`` sweeps, which one RuntimeWarning also reports.
    """
    if multistarts < 1:
        raise ValueError("multistarts must be >= 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and > 0")
    N, k, P = ambient_dim, degree, len(coefficients)
    if k == 0:
        return np.abs(coefficients[:, 0]), 0
    active = np.flatnonzero(np.repeat(coefficients.any(axis=1), multistarts))
    if active.size == 0:
        return np.zeros(P), 0
    starts = random_orthonormal_frames(multistarts, N, k, np.random.default_rng(seed))
    frames, started = np.tile(starts, (P, 1, 1)), active.size
    workspace = PluckerWorkspace(N, k, P * multistarts)
    # u(w_1, .., w_{k-1}, e_j) = (plucker(W) @ last_slot[row])[j]
    faces, axes, out, signs = _wedge_table(N, k - 1, 1)
    last_slot = np.zeros((P, n_coefficients(N, k - 1), N))
    last_slot[:, faces, axes] = signs * coefficients[:, out]
    complements = [np.flatnonzero(np.arange(k) != b) for b in range(k)]  # slots other than b
    for _ in range(max_iter):
        if active.size == 0:
            break
        sweep, before = frames[active], frames[active]
        runs = np.searchsorted(active, np.arange(P + 1) * multistarts).tolist()
        grad = np.empty((active.size, N))
        for b, others in enumerate(complements):
            # moving slot b to the end takes k-1-b transpositions
            minors = _batched_plucker(sweep.take(others, axis=1), N, k - 1, workspace)
            for table, lo, hi in zip(last_slot, runs, runs[1:]):  # each row's starts
                np.matmul(minors[lo:hi], table, out=grad[lo:hi])
            norm = np.linalg.norm(grad, axis=1)
            moved = norm > 0.0
            sign = -1.0 if (k - 1 - b) % 2 else 1.0
            sweep[moved, b] = (sign / norm[moved])[:, None] * grad[moved]
        frames[active] = sweep
        active = active[np.linalg.norm((sweep - before).reshape(active.size, -1), axis=1) >= tol]
    if active.size:
        warnings.warn(f"comass: {active.size} of {started} starts did not converge within "
                      f"{max_iter} sweeps", RuntimeWarning)
    plucker = _batched_plucker(frames, N, k, workspace).reshape(P, multistarts, -1)
    return np.abs(plucker @ coefficients[:, :, None]).max(axis=(1, 2)), int(active.size)


def comass(u: AlternatingTensor, multistarts: int = 64, tol: float = 1e-10, *, seed: int = 0,
           max_iter: int = 10_000) -> float:
    """Comass by alternating maximization over unit vectors: ``_comass_rows`` on one row."""
    return float(_comass_rows(u.coefficients[None], u.ambient_dim, u.degree, multistarts, tol,
                              seed=seed, max_iter=max_iter)[0][0])


def _plane_values(
    frames: np.ndarray, tensors: np.ndarray, workspace: PluckerWorkspace | None = None
) -> np.ndarray:
    """|<u, P(F)>| / |P(F)| for a (S, k, N) stack of frames F, as (S,) scores.

    ``tensors`` is (G, M), M = C(N, k): row g is the u of the g-th of G
    equal runs of consecutive frames.  P(F) is the Pluecker vector of the
    rows of F, which need not be orthonormal, so a score is |u| on the unit
    simple k-vector of the plane that F spans.  A rank-deficient frame spans
    no k-plane and scores 0.  The Pluecker vectors are computed in
    ``workspace``.  This is the one plane scorer: the sampling oracle passes
    one tensor, and the retraction one pulled-back tensor per sample.
    """
    _, k, N = frames.shape
    plucker = _batched_plucker(frames, N, k, workspace)
    runs = plucker.reshape(len(tensors), -1, plucker.shape[1])
    values = np.abs(runs @ tensors[:, :, None]).ravel()
    # np.linalg.norm(plucker, axis=1), squaring in place instead of into a
    # new array of the same layout, so the sums run in the same order
    norms = np.sqrt(np.add.reduce(np.multiply(plucker, plucker, out=plucker), axis=1))
    return np.divide(values, norms, out=np.zeros_like(values), where=norms > 0.0)


def _normal_chunks(rng: np.random.Generator, sizes: list[int], shape: tuple[int, ...]):
    """Yield standard-normal chunks of ``sizes[i]`` arrays of ``shape``, one chunk ahead.

    Chunk i is what ``rng.standard_normal(out=...)`` on it alone would draw,
    in order, so the stream is that of one draw per chunk, and after a loop
    run to the end ``rng`` is where those draws leave it.  One helper thread
    makes every draw, the only use of ``rng`` while the loop runs: it fills
    chunk i + 1 in the second of two buffers while the caller scores chunk
    i, which is valid until the caller asks for the next one.  The draw
    releases the GIL, so the two overlap.  Lock hand-offs pass the buffers
    back and forth; a thread per chunk would cost a start and a join each.
    An error in a draw is raised here.  However the loop ends, the helper
    is joined before the generator finishes; a caller that may stop early
    closes it (``contextlib.closing``), and ``rng`` may then be one chunk on.
    """
    buffers = [np.empty((max(sizes), *shape)) for _ in range(2)]
    # free[b] is held while buffer b is filled or scored; ready[b] is
    # released when buffer b holds the next chunk (or the draw failed)
    free = (threading.Lock(), threading.Lock())
    ready = (threading.Lock(), threading.Lock())
    for lock in ready:
        lock.acquire()
    failure = []
    stop = False

    def draw():
        for i, size in enumerate(sizes):
            free[i % 2].acquire()
            if stop:
                return
            try:
                rng.standard_normal(out=buffers[i % 2][:size])
            except BaseException as exc:  # raised again in the caller
                failure.append(exc)
                return
            finally:
                ready[i % 2].release()

    helper = threading.Thread(target=draw, name="vancal-normal-chunks")
    with _HELPER_START:
        previous = threading.stack_size(HELPER_STACK)
        try:
            helper.start()
        finally:
            threading.stack_size(previous)
    held = None
    try:
        for i, size in enumerate(sizes):
            ready[i % 2].acquire()
            if failure:
                raise failure[0]
            held = i % 2
            yield buffers[held][:size]
            free[held].release()
            held = None
    finally:
        stop = True
        if held is not None:
            free[held].release()  # the helper may wait for this buffer
        helper.join()


def _sampled_maximum(u: AlternatingTensor, samples: int, rng: np.random.Generator):
    """Largest |u| over Haar-random k-planes, drawn in cache-sized chunks.

    Each plane is the span of a Gaussian (N, k) matrix, and is scored by
    ``_plane_values`` without orthonormalizing it.  ``_normal_chunks`` draws
    the next chunk while this one is scored in the loop's one Pluecker
    workspace; the draws are those of one ``rng`` call per chunk, in order,
    whatever the prefetch.  Returns the value and the winning Gaussian matrix.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    N, k = u.ambient_dim, u.degree
    chunk = min(PLANE_CHUNK, samples)
    workspace = PluckerWorkspace(N, k, chunk)
    sizes = [min(chunk, samples - drawn) for drawn in range(0, samples, chunk)]
    best, best_matrix = -math.inf, None
    with closing(_normal_chunks(rng, sizes, (N, k))) as chunks:
        for mats in chunks:
            values = _plane_values(np.swapaxes(mats, 1, 2), u.coefficients[None], workspace)
            j = int(np.argmax(values))
            if values[j] > best:
                # a copy: the buffer is drawn into again
                best, best_matrix = float(values[j]), mats[j].copy()
    return best, best_matrix


def comass_oracle(u: AlternatingTensor, samples: int, seed: int) -> float:
    """Brute-force comass lower bound: max of |u| over Haar-random k-planes.

    A Gaussian (N, k) matrix spans a Haar-random k-plane, the same plane as
    its QR factor, so no QR is needed: |u| is paired with the normalized
    Pluecker vector of the Gaussian frame.  Every value is |u| on a unit
    simple k-vector, so the result never exceeds the comass.  Deterministic
    for a fixed seed, whatever the chunk size.
    """
    return _sampled_maximum(u, samples, np.random.default_rng(seed))[0]


def comass_oracle_refined(u: AlternatingTensor, samples: int, seed: int) -> float:
    """Sampling oracle followed by derivative-free local refinement.

    Shrinking-radius random search around the best sampled plane, 64 rounds
    of 128 proposals.  Proposals are scored like the samples, by |u| on
    their normalized Pluecker vectors, so the result is still a lower bound
    for the comass; only an accepted winner is orthonormalized, so every
    perturbation centre is an orthonormal frame.  Independent of the
    alternating-maximization optimizer.
    """
    N, k = u.ambient_dim, u.degree
    rng = np.random.default_rng(seed)
    val, best_matrix = _sampled_maximum(u, samples, rng)
    if k == 0 or u.is_zero():
        return val
    centre = _orthonormal_rows(best_matrix[None])[0].T
    sigma = 0.3
    workspace = PluckerWorkspace(N, k, 128)
    for _ in range(64):
        cand = sigma * rng.standard_normal((128, N, k)) + centre[None, :, :]
        vals = _plane_values(np.swapaxes(cand, 1, 2), u.coefficients[None], workspace)
        j = int(np.argmax(vals))
        if vals[j] > val:
            val = float(vals[j])
            centre = _orthonormal_rows(cand[j][None])[0].T
        else:
            sigma *= 0.6
            if sigma < 1e-14:
                break
    return val


@dataclass(frozen=True)
class ComassReport(CheckedReport):
    """The optimizer's comass against the sampling oracle's lower bound."""

    comass: float
    oracle: float

    def checks(self) -> list[Check]:
        return [
            Check("optimizer_dominates_oracle",
                  self.comass >= self.oracle - ORACLE_DOMINANCE_TOL,
                  measured=self.comass, threshold=self.oracle, tolerance=ORACLE_DOMINANCE_TOL,
                  detail="sampling oracle is a lower bound for the optimizer"),
            Check("comass", True, measured=self.comass),
            Check("oracle", True, measured=self.oracle),
        ]


# -- form fields and the finite-difference exterior derivative ---------------


@dataclass(frozen=True, eq=False)
class FormField:
    """A k-form field on R^N given by a batched evaluator.

    ``coefficients(points)`` maps a (P, N) array of points to the (P, M)
    coefficients of the field there, M = C(N, k), in the increasing-index
    basis.  ``singular_locus_descriptor(points, margin)`` maps (P, N) points
    to a (P,) bool mask flagging those within ``margin`` of the set where
    the field is undefined or not smooth; for a vanishing calibration that
    is the wedge interface t = tan(theta), where the field jumps (inside the
    wedge its distance is at most r, so points near the axis r = 0 are
    flagged too).  ``evaluator(point)`` is the one-point form and returns a tensor.
    """

    ambient_dim: int
    degree: int
    coefficients: Callable[[np.ndarray], np.ndarray]
    singular_locus_descriptor: Callable[..., np.ndarray] = _never_singular

    def evaluator(self, point: np.ndarray) -> AlternatingTensor:
        """The field at a single point."""
        row = np.asarray(point, dtype=float).reshape(1, self.ambient_dim)
        return AlternatingTensor(self.ambient_dim, self.degree, self.coefficients(row)[0])


def constant_form_field(tensor: AlternatingTensor) -> FormField:
    return FormField(
        ambient_dim=tensor.ambient_dim,
        degree=tensor.degree,
        coefficients=lambda points: np.tile(tensor.coefficients, (np.shape(points)[0], 1)),
    )


# a central-difference stencil of step h keeps farther than this many h from
# the set where the map it differences is not smooth
STENCIL_CLEARANCE = 2.0
# rounds of a sampler that draws again the points a singular-locus test flags
SAMPLE_ROUNDS = 400


def _central_differences(fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray, steps,
                         singular: Callable[..., np.ndarray] = _never_singular) -> np.ndarray:
    """(fn(p + h e_axis) - fn(p - h e_axis)) / 2h for (P, N) points p and H steps h.

    The result is (P, H, N, ...), error O(h^2), from one ``fn`` call over all
    P * H * 2N stencil points.  ``singular(points, margin)`` flags the points
    within ``margin`` of where ``fn`` is not smooth; no stencil may come that close.
    """
    steps = np.asarray(steps, dtype=float)
    if not (steps > 0).all():
        raise ValueError("step h must be positive")
    margin = STENCIL_CLEARANCE * steps.max()
    touched = singular(points, margin)
    if touched.any():
        raise ValueError(
            f"finite-difference stencil at {points[np.argmax(touched)].tolist()} touches "
            f"the singular locus (margin {margin:g})"
        )
    P, N = points.shape
    offsets = np.multiply.outer(steps[:, None] * [1.0, -1.0], np.eye(N))  # (H, +-, axis, N)
    stencil = points[:, None, None, None, :] + offsets
    values = fn(stencil.reshape(-1, N))
    values = values.reshape(P, steps.size, 2, N, *values.shape[1:])
    diffs = values[:, :, 0] - values[:, :, 1]
    return diffs / (2.0 * steps).reshape(-1, *[1] * (diffs.ndim - 2))


def _exterior_derivatives(field: FormField, points: np.ndarray, steps) -> np.ndarray:
    """Central-difference dF at (P, N) points for each of H steps, as (P, H, C(N, k+1)).

    Each dF is the sum of dx_axis ^ (F(p + h e_axis) - F(p - h e_axis)) / 2h,
    accumulated in axis order, from the partials of ``_central_differences``:
    one gather of ``_wedge_table(N, 1, k)``, whose rows of each output come in
    increasing axis order, then one ``_sum_groups``.
    """
    N, k = field.ambient_dim, field.degree
    if k >= N:
        raise ValueError("exterior derivative of a top-degree form is not representable")
    partials = _central_differences(field.coefficients, points, steps,
                                    field.singular_locus_descriptor)
    P, H = partials.shape[:2]
    axes, inputs, _, signs = _wedge_table(N, 1, k)
    terms = signs * partials.reshape(P * H, N, -1)[:, axes, inputs]
    return _sum_groups(terms, n_coefficients(N, k + 1)).reshape(P, H, -1)


def finite_difference_exterior_derivative(
    field: FormField, point: np.ndarray, h: float
) -> AlternatingTensor:
    """Central-difference approximation of dF at a point, error O(h^2)."""
    point = np.asarray(point, dtype=float).reshape(-1)
    N, k = field.ambient_dim, field.degree
    if point.size != N:
        raise ValueError(f"point must have length {N}")
    return AlternatingTensor(N, k + 1, _exterior_derivatives(field, point[None], [h])[0, 0])


def closedness_order(
    field: FormField,
    points: np.ndarray,
    h_values=FD_STEPS,
) -> tuple[float, float, np.ndarray]:
    """Fit the convergence order of the finite-difference dF residual.

    Returns (max residual at the smallest h, fitted order, residual matrix).
    Residuals at machine-precision level are treated as exactly closed and
    reported with order infinity.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return 0.0, math.inf, np.zeros((0, len(h_values)))
    points = np.atleast_2d(points)
    h_values = np.asarray(sorted(h_values, reverse=True), dtype=float)
    residuals = np.linalg.norm(_exterior_derivatives(field, points, h_values), axis=2)
    max_res = float(residuals[:, -1].max(initial=0.0))
    mean_res = residuals.mean(axis=0)
    if np.all(mean_res < 1e-12):
        return max_res, math.inf, residuals
    slope = np.polyfit(np.log(h_values), np.log(np.maximum(mean_res, 1e-300)), 1)[0]
    return max_res, float(slope), residuals
