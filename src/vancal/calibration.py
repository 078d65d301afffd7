"""Vanishing calibration forms and their numeric verification.

The basic field is (c dr + s dz) ^ (n/r) psi_bar (^ dl on a shared
block), supported on the open angular wedge z < tan(theta) r around the
calibrated plane.  The wedge, c and the comass are functions
of u = t^2 = z^2 / r^2, and s dz = s_slope (z/r) (eta/z) = s_slope eta / r,
so everything below works on the squared norms r^2 and z^2 and takes no
square root of z: ``CutoffParams.inside`` is the one copy of the wedge rule,
u < tan^2(theta), and every wedge mask below comes from it.  The field is
simple at every point, so its pointwise comass equals the closed form
sqrt(c^2 + s^2) = sqrt(``CutoffParams.middle_u``(u)).
``VanishingCalibration._comass_rz`` holds the only copy of that closed
form, and returns the wedge mask with it.
``pointwise_comass`` calls it on points; the grid scan calls it chunk by
chunk on buffers that it allocates once per scan; the frame optimizer
cross-checks it on subsamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .coords import WedgeCoordinates, squared_norms
from .cutoff import CutoffParams
from .exterior import (
    AlternatingTensor,
    FD_STEPS,
    SAMPLE_ROUNDS,
    STENCIL_CLEARANCE,
    FormField,
    _batched_plucker,
    _comass_rows,
    _interior_rows,
    _wedge_rows,
    closedness_order,
    comass,  # not called here; perfbench's selftest wraps it in this namespace
    constant_form_field,
    interior_product,
    n_coefficients,
    wedge,
)
from .reports import Check, CheckedReport
from .retraction import RetractionMap, sample_wedge_points
from .subspaces import PlanePair

COMASS_GRID_TOL = 1e-9
CALIBRATED_VALUE_TOL = 1e-10
CLOSEDNESS_MIN_ORDER = 1.8
OPTIMIZER_AGREEMENT_TOL = 1e-6
ENVELOPE_SLACK_TOL = 1e-9
# entries per scan chunk (tail points when streaming) and the most points of
# an axis group's sub-grid in a factored scan.  On a shared 2-vCPU Xeon, the
# 16^6 scan of verify_calibration without sampled checks took a median 7.7,
# 7.6 and 8.6 ms of CPU on coordinate frames (factored) and 0.32, 0.30 and
# 0.34 s on rotated ones (streamed) at 8 192, 16 384 and 32 768, over 7 runs
_SCAN_CHUNK = 16384


def covector_volume(frame: np.ndarray, ambient_dim: int) -> AlternatingTensor:
    """Wedge of the ambient covectors given by the rows of an orthonormal frame."""
    frame = np.atleast_2d(frame)
    k = frame.shape[0]
    return AlternatingTensor(ambient_dim, k, _batched_plucker(frame[None], ambient_dim, k)[0])


def psi_bar(coords: WedgeCoordinates, point: np.ndarray) -> AlternatingTensor:
    """The (n-1)-form (r/n) i_{unit radial}(dx_1 ^ ... ^ dx_n) at a point.

    Its exterior derivative is the x-block volume form, and (n/r) psi_bar is
    dual to the tangent planes of the spheres r = const inside the x-plane.
    """
    point = np.asarray(point, dtype=float)
    xi = coords.x_part(point)
    r = float(np.linalg.norm(xi))
    if r == 0.0:
        raise ValueError("psi_bar is singular at r = 0")
    radial = coords.x_frame.T @ (xi / r)
    vol_x = covector_volume(coords.x_frame, coords.ambient_dim)
    return (r / coords.n) * interior_product(radial, vol_x)


@dataclass(frozen=True, eq=False)
class VanishingCalibration:
    """The assembled wedge-supported calibration around a plane.

    ``params`` is the cutoff: its constants, the functions of u that the
    field is built from, and the wedge rule ``params.inside``.
    ``_comass_rz`` is the one copy of the field's closed-form comass;
    ``pointwise_comass`` and the grid scan both call it and take their wedge
    mask from it.
    """

    coords: WedgeCoordinates
    params: CutoffParams
    field: FormField
    orientation: float = 1.0

    @property
    def degree(self) -> int:
        return self.coords.n + self.coords.k

    def plane_frame(self) -> np.ndarray:
        """Oriented orthonormal frame of the calibrated plane (x rows then l rows)."""
        frame = np.vstack([self.coords.x_frame, self.coords.l_frame])
        if self.orientation < 0:
            frame = frame.copy()
            frame[0] *= -1.0
        return frame

    def pointwise_comass(self, points: np.ndarray) -> np.ndarray:
        """Exact pointwise comass sqrt(c^2 + s^2) = sqrt(middle_u(u)); zero outside the wedge."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r2, z2 = self.coords.r_squared(points), self.coords.z_squared(points)
        with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies outside
            values, inside, _ = self._comass_rz(r2, z2, _comass_buffers(r2.size))
        return np.where(inside, values, 0.0)

    def _comass_rz(
        self, r2: np.ndarray, z2: np.ndarray, out: tuple
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed-form comass from r^2 and z^2, the wedge mask ``params.inside``, and u.

        u = z^2 / r^2 = t^2.  Everything is written into ``out``, a
        ``_comass_buffers`` tuple whose arrays have r2's size; the first
        three are returned.  Outside the mask the values are not comasses
        (r = 0 gives an inf or nan u), so callers mask them, under an
        ``np.errstate`` that ignores division by zero and invalid values.
        """
        values, inside, u, spare = out
        np.divide(z2, r2, out=u)
        self.params.inside(u, out=inside)
        middle = self.params.middle_u(u, values, spare)
        return np.sqrt(middle, out=values), inside, u


def build_vanishing_calibration(
    params: CutoffParams,
    coords: WedgeCoordinates,
    *,
    orientation: float = 1.0,
) -> VanishingCalibration:
    """Assemble (c dr + s dz) ^ (n/r) psi_bar (^ dl) for admissible parameters.

    The field is identically zero outside ``params.inside``, the open wedge
    u = z^2 / r^2 < tan^2(theta), equals the plane's volume form on the
    plane itself, and is undefined on r = 0.  Its batched evaluator builds
    the form on all wedge rows at once: i_radial(vol_x) is linear in the
    radial rows and the wedges are bilinear in the rows.
    """
    if coords.n != params.n:
        raise ValueError(
            f"coordinate x-block has dimension {coords.n}, parameters have n={params.n}"
        )
    if orientation not in (1.0, -1.0, 1, -1):
        raise ValueError("orientation must be +1 or -1")
    N, n, k = coords.ambient_dim, coords.n, coords.k
    degree = n + k
    vol_x = covector_volume(coords.x_frame, N).coefficients[None]
    l_vol = covector_volume(coords.l_frame, N).coefficients[None] if k else None
    sign = float(orientation)

    def coefficients(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        xi, eta = coords.x_part(points), coords.y_part(points)
        r2, z2 = squared_norms(xi), squared_norms(eta)
        # the closed wedge exterior u >= tan^2(theta) carries the zero form,
        # except the shared subspace r = z = 0, where the form is discontinuous
        if np.any((r2 == 0.0) & (z2 == 0.0)):
            raise ValueError(
                "vanishing calibration is singular on the shared subspace (r = 0)"
            )
        with np.errstate(divide="ignore"):  # r = 0 < z lies outside
            u = z2 / r2
        inside = params.inside(u)
        out = np.zeros((points.shape[0], n_coefficients(N, degree)))
        if not inside.any():
            return out
        r = np.sqrt(r2[inside])  # wedge interior forces r > 0
        radial = (xi[inside] / r[:, None]) @ coords.x_frame
        # c dr + s dz, with s dz = s_slope eta / r
        one_form = params.c_u(u[inside])[:, None] * radial
        one_form += (params.s_slope / r)[:, None] * (eta[inside] @ coords.y_frame)
        sphere = _interior_rows(radial, vol_x, N, n)
        tensor = _wedge_rows(one_form, sphere, N, 1, n - 1)
        if l_vol is not None:
            tensor = _wedge_rows(tensor, l_vol, N, n, k)
        out[inside] = sign * tensor
        return out

    field = FormField(N, degree, coefficients, partial(params.near_interface, coords))
    return VanishingCalibration(coords, params, field, sign)


# -- grid utilities ----------------------------------------------------------


def region_box(lows: Sequence[float], highs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """A box as float arrays; its bounds must be finite with low < high per axis."""
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
        raise ValueError("region bounds must be finite")
    if lows.shape != highs.shape or np.any(lows >= highs):
        raise ValueError("region must satisfy low < high per axis")
    return lows, highs


def _grid_rows(axes: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the tensor product of 1-D axes, last axis fastest."""
    if not axes:
        return np.zeros((stop - start, 0))
    index = np.unravel_index(np.arange(start, stop), [a.size for a in axes])
    return np.stack([a[i] for a, i in zip(axes, index)], axis=1)


def _comass_buffers(size: int) -> tuple:
    """Work arrays for ``VanishingCalibration._comass_rz``: values, wedge mask, u, spare."""
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size), np.empty(size)


def _block_squared_norms(rows: np.ndarray, offset: np.ndarray, out: np.ndarray,
                         diff: np.ndarray) -> np.ndarray:
    """Per-column |rows[:, j] + offset|^2 into ``out``, in row order; ``diff`` is work space."""
    if not len(rows):
        out.fill(0.0)
        return out
    np.add(rows[0], offset[0], out=out)
    out *= out
    for row, h in zip(rows[1:], offset[1:]):
        np.add(row, h, out=diff)
        diff *= diff
        out += diff
    return out


def _axis_groups(blocks: Sequence[np.ndarray]) -> list[tuple[list, list]]:
    """(axes, block indices) per group of blocks joined by the axes of their nonzero columns."""
    groups: list[tuple[set, list]] = []
    for b, F in enumerate(blocks):
        axes, members = set(np.flatnonzero(np.any(F != 0.0, axis=0)).tolist()), [b]
        for other in [g for g in groups if g[0] & axes]:
            groups.remove(other)
            axes |= other[0]
            members += other[1]
        groups.append((axes, members))
    return [(sorted(axes), sorted(members)) for axes, members in groups]


def _scan_grid(
    lows: np.ndarray,
    highs: np.ndarray,
    grid: int,
    blocks: Sequence[np.ndarray],
) -> Iterator[tuple[list, np.ndarray | None]]:
    """Stream a grid^N box scan through the squared norms of its projections onto frame blocks.

    Each yield is (norms, weights): the squared norms |x F_b^T|^2 per (rows,
    N) block F_b, which the next yield may overwrite, and the int64 count of
    grid points each entry stands for, or None for one point each.  Memory
    is O(``_SCAN_CHUNK``) per block, whatever the grid or N.

    Factored: ``_axis_groups`` joins the blocks into groups with disjoint
    axes (a block without rows is a group without axes).  When no group
    spans all N axes and each group's sub-grid has at most ``_SCAN_CHUNK``
    points, each group's distinct rows of block norms (``squared_norms`` on
    its sub-grid) are kept with their counts, and their product is walked in
    chunks of ``_SCAN_CHUNK`` entries, weighted by the product of the counts
    times grid^(free axes, which no block touches).  A 16^6 box on
    coordinate frames is about 150 000 entries, but a coordinate pair at
    grid 26 has groups of 26^3 = 17 576 points and streams.

    Streamed, otherwise: a point's projection onto F is head @ F[:, :2].T +
    tail @ F[:, 2:].T, with head over the first two axes and tail over the
    rest.  The tail is walked in chunks of ``_SCAN_CHUNK`` points, whose
    projections are reused by all grid^2 head rows, in tail-chunk order and
    then head-row order.  Rotated frames always stream.
    """
    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(lows, highs)]
    groups = _axis_groups(blocks)
    if all(len(ax) < len(axes) and grid ** len(ax) <= _SCAN_CHUNK for ax, _ in groups):
        yield from _factored_scan(axes, grid, blocks, groups)
        return
    h = min(2, len(axes))
    head = _grid_rows(axes[:h], 0, grid**h)
    # (rows, points) layout: each frame row is one contiguous pass per head row
    head_proj = [F[:, :h] @ head.T for F in blocks]
    tail_size = grid ** (len(axes) - h)
    width = min(_SCAN_CHUNK, tail_size)
    norms, diff = [np.empty(width) for _ in blocks], np.empty(width)
    for j in range(0, tail_size, width):
        tail = _grid_rows(axes[h:], j, min(j + width, tail_size))
        size = tail.shape[0]
        tail_proj = [F[:, h:] @ tail.T for F in blocks]
        for i in range(head.shape[0]):
            yield [_block_squared_norms(T, H[:, i], out[:size], diff[:size])
                   for T, H, out in zip(tail_proj, head_proj, norms)], None


def _factored_scan(axes: list, grid: int, blocks: Sequence[np.ndarray],
                   groups: list) -> Iterator[tuple[list, np.ndarray]]:
    """``_scan_grid``'s factored path: distinct norms per axis group, walked as a product."""
    tables = []  # per group: its blocks' distinct columns of norms, and their counts
    for ax, members in groups:
        points = _grid_rows([axes[a] for a in ax], 0, grid ** len(ax))
        norms = np.stack([squared_norms(points @ blocks[b][:, ax].T) for b in members])
        norms = norms[:, np.lexsort(norms)]
        starts = np.flatnonzero(np.r_[True, np.any(norms[:, 1:] != norms[:, :-1], axis=0)])
        tables.append((norms[:, starts], np.diff(np.r_[starts, norms.shape[1]])))
    sizes = [counts.size for _, counts in tables]
    total, scale = math.prod(sizes), grid ** (len(axes) - sum(len(ax) for ax, _ in groups))
    for j in range(0, total, _SCAN_CHUNK):
        index = np.unravel_index(np.arange(j, min(j + _SCAN_CHUNK, total)), sizes)
        norms, weights = [None] * len(blocks), np.full(index[0].size, scale)
        for (rows, counts), (_, members), i in zip(tables, groups, index):
            weights *= counts[i]
            for row, b in zip(rows, members):
                norms[b] = row[i]
        yield norms, weights


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport(CheckedReport):
    """Verification of a sum of vanishing calibrations with disjoint wedges.

    A single calibration is one summand, Phi + Psi is two.  Every field is a
    plain JSON-serialisable value; ``checks()`` is the verdict.
    """

    grid: int
    grid_points_total: int
    intersection_dim: int
    points_in_wedge: int  # grid points inside some wedge
    overlap_count: int  # grid points inside two or more wedges
    min_grid_r: float  # smallest distance from a grid point to a summand's axis
    max_comass: float
    t_at_max_comass: float | None  # t = sqrt(u) there (smallest on a tie), None if no point
    envelope_min_slack: float  # min of sqrt(1 - delta u) - comass inside the wedges
    t_at_min_envelope_slack: float | None  # likewise
    optimizer_max_deviation: float
    optimizer_samples: int
    optimizer_unconverged: int  # optimizer starts that did not converge
    closedness_max_residual: float
    closedness_order: float
    closedness_samples: int
    plane_value_max_errors: tuple  # one per summand
    vanishing_max_abs: float
    vanishing_samples: int  # points outside every wedge behind vanishing_max_abs

    @property
    def plane_value_max_error(self) -> float:
        return max(self.plane_value_max_errors)

    def checks(self) -> list[Check]:
        """Every pass/fail rule; a sampled check fails when it has no samples."""
        order = self.closedness_order
        outside = "both wedges" if len(self.plane_value_max_errors) == 2 else "the wedge"
        return [
            Check("wedges_disjoint", self.overlap_count == 0, measured=self.overlap_count,
                  threshold=0),
            Check("max_comass", self.max_comass <= 1.0 + COMASS_GRID_TOL,
                  measured=self.max_comass, threshold=1.0, tolerance=COMASS_GRID_TOL,
                  detail=_at_t(self.t_at_max_comass)),
            Check("envelope",
                  self.points_in_wedge > 0 and self.envelope_min_slack >= -ENVELOPE_SLACK_TOL,
                  measured=self.envelope_min_slack, threshold=0.0,
                  tolerance=ENVELOPE_SLACK_TOL,
                  detail=f"{self.points_in_wedge} grid points inside a wedge, "
                         f"{_at_t(self.t_at_min_envelope_slack)}"),
            Check("optimizer_agreement",
                  self.optimizer_samples > 0
                  and self.optimizer_max_deviation <= OPTIMIZER_AGREEMENT_TOL,
                  measured=self.optimizer_max_deviation, tolerance=OPTIMIZER_AGREEMENT_TOL,
                  detail=f"{self.optimizer_samples} samples, "
                         f"{self.optimizer_unconverged} unconverged optimizer starts"),
            Check("closedness_order",
                  self.closedness_samples > 0
                  and (math.isinf(order) or order >= CLOSEDNESS_MIN_ORDER),
                  measured=None if math.isinf(order) else order,
                  threshold=CLOSEDNESS_MIN_ORDER,
                  detail=f"{self.closedness_samples} samples, "
                         f"max residual {self.closedness_max_residual:.3e}"),
            *(
                Check(f"calibrates_plane{i}", err <= CALIBRATED_VALUE_TOL, measured=err,
                      tolerance=CALIBRATED_VALUE_TOL)
                for i, err in enumerate(self.plane_value_max_errors, 1)
            ),
            Check("vanishes_outside_wedges",
                  self.vanishing_samples > 0 and self.vanishing_max_abs == 0.0,
                  measured=self.vanishing_max_abs, threshold=0.0,
                  detail=f"{self.vanishing_samples} samples outside {outside}"),
        ]


def _at_t(t: float | None) -> str:
    return "no grid point inside a wedge" if t is None else f"attained at t = {t!r}"


def _box_sample(
    field: FormField,
    cals: Sequence[VanishingCalibration],
    lows: np.ndarray,
    highs: np.ndarray,
    count: int,
    rng: np.random.Generator,
    margin: float,
    inside: int | None,
) -> np.ndarray:
    """Up to ``count`` seeded box points, as a (found, N) array.

    Each round draws 4 ``count`` box-uniform points and keeps those that
    ``field.singular_locus_descriptor`` does not flag at ``margin`` and that
    lie inside summand ``inside``'s wedge, or outside every wedge when
    ``inside`` is None; it stops at ``count`` points or ``SAMPLE_ROUNDS`` rounds.
    """
    picked = []
    for _ in range(SAMPLE_ROUNDS):
        if len(picked) >= count:
            break
        pts = rng.uniform(lows, highs, size=(4 * count, lows.size))
        keep = ~field.singular_locus_descriptor(pts, margin)
        wedges = [cal.params.inside(cal.coords.u(pts)) for cal in cals]
        keep &= ~np.any(wedges, axis=0) if inside is None else wedges[inside]
        picked.extend(pts[keep][: count - len(picked)])
    return np.array(picked).reshape(-1, lows.size)


def _count(mask: np.ndarray, weights: np.ndarray | None) -> int:
    """The grid points that a scan yield's ``mask`` selects, with its ``weights``."""
    return int(np.count_nonzero(mask) if weights is None else weights.sum(where=mask))


def _u_at(u: np.ndarray, values: np.ndarray, found: float, best: float, u_best: float) -> float:
    """The smallest u where ``values`` equals ``found``, and ``u_best`` too if it ties ``best``."""
    return float(u.min(where=values == found, initial=u_best if found == best else math.inf))


def _verify(
    field: FormField,
    cals: Sequence[VanishingCalibration],
    region: tuple[Sequence[float], Sequence[float]],
    grid: int,
    seed: int,
    optimizer_subsample: int,
    closedness_points: int,
) -> CalibrationReport:
    """Verify ``field``, the sum of the vanishing calibrations ``cals``, on a box.

    The summands share one cutoff and have disjoint wedges, so the comass of
    the sum is each summand's closed form sqrt(c^2 + s^2) inside its own
    wedge and 0 outside all of them.  ``_scan_grid`` yields the squared
    norms, per grid point or, factored, per distinct entry with its weight,
    the grid points it stands for.  Per yield and summand, ``_comass_rz``
    writes the closed form, the wedge mask and u = z^2 / r^2 into buffers
    allocated on the first yield, the envelope sqrt(1 - delta u) - comass
    goes into the spare buffer, and the fold keeps weighted counts, minima
    and maxima inside the wedge (outside it the closed form and the envelope
    are first set to the neutral 0 and inf), and for a pair the count inside
    both wedges.  None of these depends on the order of the points, nor does
    the t = sqrt(u) of the largest comass and the smallest envelope slack,
    the smallest u on a tie.  Seeded box samples (``_box_sample``), none of
    them flagged by ``field.singular_locus_descriptor`` at the stencil's
    margin ``STENCIL_CLEARANCE * max(FD_STEPS)``, then check the closed form
    against one ``_comass_rows`` call at ``optimizer_subsample`` points per
    wedge, which counts its unconverged starts, and fit the finite-difference
    closedness order (``closedness_points`` shared between the wedges).
    Calibrated values are sampled on each summand's plane
    (``sample_wedge_points`` at t = 0), and exact vanishing at up to 50 box
    points outside every wedge.  ``min_grid_r`` is the smallest grid distance
    to a summand's r = 0 axis, the square root of the smallest r^2 (sqrt is
    monotone and correctly rounded, so this is the smallest r); this
    function does not judge it, because pair boxes contain the shared origin.
    """
    lows, highs = region_box(*region)
    if lows.size != field.ambient_dim:
        raise ValueError("region dimension does not match the ambient dimension")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    rng = np.random.default_rng(seed)

    blocks = [F for cal in cals for F in (cal.coords.x_frame, cal.coords.y_frame)]
    total = in_wedge = overlap = 0
    min_r2, top, envelope_min = math.inf, 0.0, math.inf
    u_top = u_env = math.inf  # the smallest u where top and envelope_min are attained
    buffers = None
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies outside
        for norms, weights in _scan_grid(lows, highs, grid, blocks):
            size = norms[0].size
            if buffers is None:  # the first yield is the widest
                buffers = [_comass_buffers(size) for _ in cals]
                outside_buffer = np.empty(size, dtype=bool)
                both_buffer = np.empty(size, dtype=bool)
            insides = []
            for cal, r2, z2, out in zip(cals, norms[0::2], norms[1::2], buffers):
                values, inside, u, envelope = work = tuple(b[:size] for b in out)
                cal._comass_rz(r2, z2, work)
                # sqrt(1 - delta u) - comass, in the spare buffer
                np.multiply(cal.params.delta, u, out=envelope)
                np.subtract(1.0, envelope, out=envelope)
                np.sqrt(envelope, out=envelope)
                envelope -= values
                # neutral values outside the wedge, then plain reductions
                outside = np.logical_not(inside, out=outside_buffer[:size])
                np.copyto(values, 0.0, where=outside)
                np.copyto(envelope, math.inf, where=outside)
                high = float(values.max())
                if high > 0.0 and high >= top:
                    top, u_top = high, _u_at(u, values, high, top, u_top)
                low = float(envelope.min())
                if low < math.inf and low <= envelope_min:
                    envelope_min, u_env = low, _u_at(u, envelope, low, envelope_min, u_env)
                min_r2 = min(min_r2, float(r2.min()))
                insides.append(inside)
            total += size if weights is None else int(weights.sum())
            in_wedge += _count(insides[0], weights)
            if len(insides) == 2:  # a pair: inclusion-exclusion
                both = _count(np.logical_and(*insides, out=both_buffer[:size]), weights)
                in_wedge += _count(insides[1], weights) - both
                overlap += both

    # optimizer cross-check of the closed-form pointwise comass, in every wedge
    margin = STENCIL_CLEARANCE * max(FD_STEPS)
    opt_pts = np.concatenate(
        [_box_sample(field, cals, lows, highs, optimizer_subsample, rng, margin, i)
         for i in range(len(cals))]
    )
    # the wedges are disjoint, so the largest summand value is the sum's comass
    closed_form = np.max([cal.pointwise_comass(opt_pts) for cal in cals], axis=0)
    N, k = field.ambient_dim, field.degree
    measured, unconverged = _comass_rows(field.coefficients(opt_pts), N, k, 24, 1e-12, seed=seed)
    opt_dev = float(np.abs(measured - closed_form).max(initial=0.0))

    # closedness with order fit
    shares = [part.size for part in np.array_split(np.arange(closedness_points), len(cals))]
    fd_pts = np.concatenate(
        [_box_sample(field, cals, lows, highs, share, rng, margin, i)
         for i, share in enumerate(shares)]
    )
    max_res, order, _ = closedness_order(field, fd_pts)

    # calibrated value on each plane frame (the t = 0 section of its wedge)
    plane_errs = []
    for cal in cals:
        points = sample_wedge_points(cal.coords, cal.params, 50 // len(cals), rng,
                                     t_fraction=(0.0, 0.0))
        values = field.coefficients(points) @ _batched_plucker(cal.plane_frame()[None], N, k)[0]
        plane_errs.append(float(np.abs(values - 1.0).max()))

    # exact vanishing beyond every wedge
    vanish_pts = _box_sample(field, cals, lows, highs, 50, rng, 0.0, None)
    vanish_max = float(np.abs(field.coefficients(vanish_pts)).max(initial=0.0))

    return CalibrationReport(
        grid=grid,
        grid_points_total=total,
        intersection_dim=cals[0].coords.k,
        points_in_wedge=in_wedge,
        overlap_count=overlap,
        min_grid_r=math.sqrt(min_r2),
        max_comass=top,
        t_at_max_comass=math.sqrt(u_top) if u_top < math.inf else None,
        envelope_min_slack=envelope_min if envelope_min < math.inf else 0.0,
        t_at_min_envelope_slack=math.sqrt(u_env) if u_env < math.inf else None,
        optimizer_max_deviation=opt_dev,
        optimizer_samples=len(opt_pts),
        optimizer_unconverged=unconverged,
        closedness_max_residual=max_res,
        closedness_order=order,
        closedness_samples=len(fd_pts),
        plane_value_max_errors=tuple(plane_errs),
        vanishing_max_abs=vanish_max,
        vanishing_samples=len(vanish_pts),
    )


def verify_calibration(
    cal: VanishingCalibration,
    region: tuple[Sequence[float], Sequence[float]],
    grid: int,
    *,
    seed: int = 0,
    optimizer_subsample: int = 6,
    closedness_points: int = 4,
    r_margin: float = 0.05,
) -> CalibrationReport:
    """Verify a single vanishing calibration on a box: ``_verify`` with one summand.

    Comass on every grid point, the optimizer cross-check, closedness,
    calibrated values and vanishing; see ``_verify``.  The field is singular
    on the r = 0 axis, so a box whose grid comes within ``r_margin`` of it
    is rejected with a ValueError.
    """
    report = _verify(cal.field, (cal,), region, grid, seed, optimizer_subsample,
                     closedness_points)
    if report.min_grid_r <= r_margin:
        raise ValueError(
            f"region reaches r = {report.min_grid_r:g} <= margin {r_margin:g}; "
            "the field is singular on r = 0"
        )
    return report


# -- pair calibration ---------------------------------------------------------


def adapted_wedge_coordinates(pair: PlanePair) -> tuple[WedgeCoordinates, WedgeCoordinates, float, float]:
    """Per-plane adapted coordinates and orientation signs for a split pair.

    For plane i: the x-block spans its complement factor, the l-block the
    shared intersection, the y-block everything orthogonal to the plane.
    The sign makes the adapted frame (x rows then l rows) match the plane's
    own orientation.
    """
    N = pair.ambient_dim
    l_frame = pair.intersection.orthonormal_basis()
    out = []
    for plane, complement in (
        (pair.p1, pair.complement1),
        (pair.p2, pair.complement2),
    ):
        x_frame = complement.orthonormal_basis()
        stacked = np.vstack([x_frame, l_frame])
        # orthonormal basis of the orthogonal complement of the plane
        _, svals, vt = np.linalg.svd(stacked, full_matrices=True)
        y_frame = vt[stacked.shape[0] :]
        coords = WedgeCoordinates(N, x_frame, y_frame, l_frame)
        change = plane.basis @ stacked.T
        sign = 1.0 if np.linalg.det(change) > 0 else -1.0
        out.append((coords, sign))
    (c1, s1), (c2, s2) = out
    return c1, c2, s1, s2


def angle_budget(params: CutoffParams, pair: PlanePair) -> Check:
    """The pair's smallest principal angle must exceed twice the wedge half-angle.

    Below that the two wedges overlap.  A pair with no principal angles
    (equal planes) measures 0.0 and fails.
    """
    angles = pair.principal_angles
    min_angle = float(angles.min()) if angles.size else 0.0
    budget = 2.0 * params.theta
    return Check("angle_budget", min_angle > budget, measured=min_angle, threshold=budget,
                 detail="smallest principal angle must exceed the double wedge angle")


def sum_pair_calibration(
    params: CutoffParams, pair: PlanePair
) -> tuple[FormField, tuple[VanishingCalibration, VanishingCalibration]]:
    """The two-plane calibration Phi + Psi with disjoint wedge supports.

    Requires the pair's smallest principal angle to exceed twice the wedge
    half-angle; each summand is built in coordinates adapted to its plane,
    with the shared intersection as the l-block, and oriented to calibrate
    that plane positively.
    """
    budget = angle_budget(params, pair)
    if not budget.passed:
        raise ValueError(
            f"angle budget violated: smallest principal angle {budget.measured:.6f} "
            f"must exceed 2 theta = {budget.threshold:.6f}; the wedges would overlap"
        )
    coords1, coords2, sign1, sign2 = adapted_wedge_coordinates(pair)
    cal1 = build_vanishing_calibration(params, coords1, orientation=sign1)
    cal2 = build_vanishing_calibration(params, coords2, orientation=sign2)

    def coefficients(points: np.ndarray) -> np.ndarray:
        return cal1.field.coefficients(points) + cal2.field.coefficients(points)

    def singular(points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        return cal1.field.singular_locus_descriptor(
            points, margin
        ) | cal2.field.singular_locus_descriptor(points, margin)

    return FormField(pair.ambient_dim, cal1.degree, coefficients, singular), (cal1, cal2)


def verify_pair_calibration(
    params: CutoffParams,
    pair: PlanePair,
    region: tuple[Sequence[float], Sequence[float]],
    grid: int,
    *,
    seed: int = 0,
    optimizer_subsample: int = 4,
    closedness_points: int = 3,
) -> tuple[CalibrationReport, FormField]:
    """Verify Phi + Psi on a box around the intersection: ``_verify`` with two summands.

    The summands are ``sum_pair_calibration``'s, one per plane.  No
    ``r_margin`` rule applies: a box around the intersection holds points of
    both axes (an odd grid holds the origin itself), and the samples keep
    their own distance from every axis.
    """
    field, cals = sum_pair_calibration(params, pair)
    report = _verify(field, cals, region, grid, seed, optimizer_subsample, closedness_points)
    return report, field


# -- scaled calibrations and coordinate-plane sums ----------------------------


def scaled_calibration(
    cal: VanishingCalibration, f: Callable[[np.ndarray], float]
) -> FormField:
    """The field (f o retraction) * phi for a scalar f on the calibrated plane.

    f takes intrinsic x-block coordinates.  |f| <= 1 is required and checked
    on 512 seeded points of [-2, 2]^n in the plane; closedness is preserved
    because the level sets of the retraction are tangent to the kernel of phi.
    """
    sample = np.random.default_rng(0).uniform(-2.0, 2.0, size=(512, cal.coords.n))
    values = np.array([abs(float(f(x))) for x in sample])
    if values.max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError(
            f"|f| exceeds 1 on the sample grid (max {values.max():g}); "
            "the scaled field would not be a calibration"
        )
    retraction = RetractionMap(cal.coords, cal.params)

    def coefficients(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = cal.field.coefficients(points)
        live = np.any(out != 0.0, axis=1)
        if live.any():
            images = cal.coords.x_part(retraction.apply(points[live]))
            out[live] *= np.array([float(f(x)) for x in images])[:, None]
        return out

    return FormField(cal.coords.ambient_dim, cal.degree, coefficients,
                     cal.field.singular_locus_descriptor)


def coordinate_plane_sum(c: int, ambient_dim: int, *, shared: int = 0) -> FormField:
    """The constant calibration dx_1..dx_c + dy_1..dy_c (^ dl on shared axes).

    Calibrates both coordinate c-planes; comass 1 for c >= 2.  c = 1 is
    rejected: dx_1 + dy_1 is a 1-form of norm sqrt(2) > 1.
    """
    if c == 1:
        raise ValueError(
            "c = 1 rejected: dx_1 + dy_1 has comass sqrt(2) > 1 and cannot calibrate"
        )
    if c < 2:
        raise ValueError(f"block dimension c must be >= 2, got {c}")
    if 2 * c + shared > ambient_dim:
        raise ValueError(
            f"need 2c + shared = {2 * c + shared} <= ambient dimension {ambient_dim}"
        )
    x_tensor = AlternatingTensor.basis(ambient_dim, tuple(range(c)))
    y_tensor = AlternatingTensor.basis(ambient_dim, tuple(range(c, 2 * c)))
    tensor = x_tensor + y_tensor
    if shared:
        l_tensor = AlternatingTensor.basis(
            ambient_dim, tuple(range(2 * c, 2 * c + shared))
        )
        tensor = wedge(tensor, l_tensor)
    return constant_form_field(tensor)
