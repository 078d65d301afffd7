"""Vanishing calibration forms and their numeric verification.

The basic field is (c(t) dr + s(t) dz) ^ (n/r) psi_bar (^ dl on a shared
block), supported on the open angular wedge z < tan(theta) r around the
calibrated plane; ``CutoffParams.inside`` is the one copy of that rule, and
every wedge mask below comes from it.  The field is simple at every point,
so its pointwise comass equals the closed form sqrt(c^2 + s^2).
``VanishingCalibration._comass_rz`` holds the only copy of that closed
form, and returns the wedge mask with it.
``pointwise_comass`` calls it on points; the grid scan calls it chunk by
chunk on buffers that it allocates once per scan; the frame optimizer
cross-checks it on subsamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .coords import WedgeCoordinates
from .cutoff import CutoffParams
from .exterior import (
    AlternatingTensor,
    FD_STEPS,
    FormField,
    _batched_plucker,
    _interior_rows,
    _wedge_rows,
    closedness_order,
    comass,
    constant_form_field,
    interior_product,
    n_coefficients,
    wedge,
)
from .reports import Check, CheckedReport
from .retraction import RetractionMap
from .subspaces import PlanePair

COMASS_GRID_TOL = 1e-9
CALIBRATED_VALUE_TOL = 1e-10
CLOSEDNESS_MIN_ORDER = 1.8
OPTIMIZER_AGREEMENT_TOL = 1e-6
ENVELOPE_SLACK_TOL = 1e-9
# grid points per scan chunk.  The scan's buffers are allocated once, so the
# size only trades NumPy's per-call overhead against cache reuse.  On a
# 2-vCPU Xeon, verify_calibration on the 16^6 benchmark box took a median
# 0.47-0.60 s of CPU at 8 192 and 0.43-0.53 s at 16 384, and no less at
# 32 768 or 65 536, whose larger buffers only add to the peak RSS
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

    ``params`` is the cutoff: its constants, the functions of t that the
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
        """Exact pointwise comass sqrt(c(t)^2 + s(t)^2); zero outside the wedge."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r, z = self.coords.r(points), self.coords.z(points)
        with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies outside
            values, inside, _ = self._comass_rz(r, z, _comass_buffers(r.size))
        return np.where(inside, values, 0.0)

    def _comass_rz(
        self, r: np.ndarray, z: np.ndarray, out: tuple
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed-form comass from r and z, the wedge mask ``params.inside``, and t = z/r.

        Everything is written into ``out``, a ``_comass_buffers`` tuple whose
        arrays have r's size; the first three are returned.  Outside the
        mask the values are not comasses (r = 0 gives an inf or nan t), so
        callers mask them or reduce with ``where=inside``, under an
        ``np.errstate`` that ignores division by zero and invalid values.
        """
        values, inside, t, spare = out
        self.params.inside(r, z, out=inside)
        np.divide(z, r, out=t)
        c = self.params.c_coefficient(t, values)
        s = self.params.s_coefficient(t, spare)
        c *= c
        s *= s
        c += s
        return np.sqrt(c, out=values), inside, t

    def primitive_norm(self, points: np.ndarray) -> np.ndarray:
        """Norm of the Lipschitz primitive gamma * psi_bar (up to the l factor)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = self.coords.r(points)
        t = np.where(r > 0, self.coords.z(points) / np.where(r > 0, r, 1.0), 0.0)
        return self.params.gamma(t) * r / self.coords.n


def build_vanishing_calibration(
    params: CutoffParams,
    coords: WedgeCoordinates,
    *,
    orientation: float = 1.0,
) -> VanishingCalibration:
    """Assemble (c dr + s dz) ^ (n/r) psi_bar (^ dl) for admissible parameters.

    The field is identically zero outside ``params.inside``, the open wedge
    z < tan(theta) r, equals the plane's volume form on the plane itself,
    and is undefined on r = 0.  Its batched evaluator builds the form on all
    wedge rows at once: i_radial(vol_x) is linear in the radial rows and the
    wedges are bilinear in the rows.
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
        xi = coords.x_part(points)
        r = np.linalg.norm(xi, axis=1)
        z = coords.z(points)
        # the closed wedge exterior z >= tan(theta) r carries the zero form,
        # except the shared subspace r = z = 0, where the form is discontinuous
        inside = params.inside(r, z)
        if np.any((r == 0.0) & (z == 0.0)):
            raise ValueError(
                "vanishing calibration is singular on the shared subspace (r = 0)"
            )
        out = np.zeros((points.shape[0], n_coefficients(N, degree)))
        if not inside.any():
            return out
        xi, r, z = xi[inside], r[inside], z[inside]
        t = z / r  # wedge interior forces r > 0
        radial = (xi / r[:, None]) @ coords.x_frame
        one_form = params.c_coefficient(t)[:, None] * radial
        tilted = z > 0.0
        if tilted.any():
            eta = coords.y_part(points[inside][tilted])
            s = params.s_coefficient(t[tilted])
            one_form[tilted] += s[:, None] * ((eta / z[tilted, None]) @ coords.y_frame)
        sphere = _interior_rows(radial, vol_x, N, n)
        tensor = _wedge_rows(one_form, sphere, N, 1, n - 1)
        if l_vol is not None:
            tensor = _wedge_rows(tensor, l_vol, N, n, k)
        out[inside] = sign * tensor
        return out

    def singular(points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        # the 1/r axis needs no term of its own: inside the wedge z >= 0, so the
        # interface distance (tan(theta) r - z) cos(theta) is at most r sin(theta),
        # and r <= margin already puts a point within margin of the interface
        return params.interface_distance(coords.r(points), coords.z(points)) <= margin

    field = FormField(N, degree, coefficients, singular)
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


def _flat_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of 1-D axes as (prod of lengths, len(axes)) rows, last axis fastest."""
    if not axes:
        return np.zeros((1, 0))
    return np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)


def _comass_buffers(size: int) -> tuple:
    """Work arrays for ``VanishingCalibration._comass_rz``: values, wedge mask, t, spare."""
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size), np.empty(size)


def _block_norms(rows: np.ndarray, offset: np.ndarray, out: np.ndarray,
                 diff: np.ndarray) -> np.ndarray:
    """Per-column |rows[:, j] + offset| into ``out``, squares summed in row order.

    The order is np.linalg.norm's; ``diff`` is a work array of ``out``'s size.
    """
    if not len(rows):
        out.fill(0.0)
        return out
    np.add(rows[0], offset[0], out=out)
    out *= out
    for row, h in zip(rows[1:], offset[1:]):
        np.add(row, h, out=diff)
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def _scan_grid(
    lows: np.ndarray,
    highs: np.ndarray,
    grid: int,
    blocks: Sequence[np.ndarray],
) -> Iterator[list]:
    """Stream a grid^N box scan through the norms of its projections onto frame blocks.

    The grid is a tensor product, so a point's projection onto a frame F is
    head @ F[:, :2].T + tail @ F[:, 2:].T, with head over the first two
    axes and tail over the rest.  The tail projections are computed once;
    each of the grid^2 head rows then adds its offset and yields the list of
    per-point norms |x F_b^T| for every (rows, N) block F_b, ``_SCAN_CHUNK``
    tail points at a time, in head-row order and then chunk order.  No grid
    points are materialised: memory is O(grid^(N-2)) per block rather than
    O(grid^N).  The norms are written in place into one buffer per block,
    allocated once per scan, so each yielded list holds views that the next
    chunk overwrites.
    """
    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(lows, highs)]
    h = min(2, len(axes))
    head, tail = _flat_grid(axes[:h]), _flat_grid(axes[h:])
    # (rows, points) layout: each frame row is one contiguous pass per head row
    head_proj = [F[:, :h] @ head.T for F in blocks]
    tail_proj = [F[:, h:] @ tail.T for F in blocks]
    width = min(_SCAN_CHUNK, tail.shape[0])
    norms, diff = [np.empty(width) for _ in blocks], np.empty(width)
    for i in range(head.shape[0]):
        for j in range(0, tail.shape[0], width):
            size = min(width, tail.shape[0] - j)
            yield [_block_norms(T[:, j : j + size], H[:, i], out[:size], diff[:size])
                   for T, H, out in zip(tail_proj, head_proj, norms)]


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
    envelope_min_slack: float  # min of sqrt(1 - delta t^2) - comass inside the wedges
    optimizer_max_deviation: float
    optimizer_samples: int
    closedness_max_residual: float
    closedness_order: float
    closedness_samples: int
    plane_value_max_errors: tuple  # one per summand
    vanishing_max_abs: float
    vanishing_samples: int  # points outside every wedge behind vanishing_max_abs
    primitive_interface_norm: float
    comass_tol: float = COMASS_GRID_TOL
    closedness_min_order: float = CLOSEDNESS_MIN_ORDER

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
            Check("max_comass", self.max_comass <= 1.0 + self.comass_tol,
                  measured=self.max_comass, threshold=1.0, tolerance=self.comass_tol),
            Check("envelope",
                  self.points_in_wedge > 0 and self.envelope_min_slack >= -ENVELOPE_SLACK_TOL,
                  measured=self.envelope_min_slack, threshold=0.0,
                  tolerance=ENVELOPE_SLACK_TOL,
                  detail=f"{self.points_in_wedge} grid points inside a wedge"),
            Check("optimizer_agreement",
                  self.optimizer_samples > 0
                  and self.optimizer_max_deviation <= OPTIMIZER_AGREEMENT_TOL,
                  measured=self.optimizer_max_deviation, tolerance=OPTIMIZER_AGREEMENT_TOL,
                  detail=f"{self.optimizer_samples} samples"),
            Check("closedness_order",
                  self.closedness_samples > 0
                  and (math.isinf(order) or order >= self.closedness_min_order),
                  measured=None if math.isinf(order) else order,
                  threshold=self.closedness_min_order,
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


def _box_sample(
    cals: Sequence[VanishingCalibration],
    lows: np.ndarray,
    highs: np.ndarray,
    count: int,
    rng: np.random.Generator,
    margin: float,
    inside: int | None,
) -> np.ndarray:
    """Up to ``count`` seeded box points, as a (found, N) array.

    Every point is farther than ``margin`` from each summand's axis and
    interface, and lies inside summand ``inside``'s wedge, or outside every
    wedge when ``inside`` is None.
    """
    picked = []
    for _ in range(400):
        if len(picked) >= count:
            break
        pts = rng.uniform(lows, highs, size=(4 * count, lows.size))
        keep = np.ones(pts.shape[0], dtype=bool)
        for i, cal in enumerate(cals):
            r, z = cal.coords.r(pts), cal.coords.z(pts)
            keep &= (r > margin) & (cal.params.interface_distance(r, z) > margin)
            if inside is None:  # no kept point is on the interface
                keep &= ~cal.params.inside(r, z)
            elif i == inside:
                keep &= cal.params.inside(r, z)
        picked.extend(pts[keep][: count - len(picked)])
    return np.array(picked).reshape(-1, lows.size)


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
    wedge and 0 outside all of them.  The grid scan streams every grid^N
    point through that closed form (``_scan_grid``, memory O(grid^(N-2))) in
    one loop.  Per chunk and summand, ``_comass_rz`` writes the closed form,
    the wedge mask and t = z/r into buffers allocated on the first chunk,
    the envelope sqrt(1 - delta t^2) - comass goes into the spare buffer,
    and the fold keeps running counts, minima and maxima over the masked
    points (``where=inside`` reductions, so nothing outside the wedge is
    read), plus the count of points inside two or more wedges when there
    are several summands.  Seeded samples, each farther than 2 max(FD_STEPS)
    from every axis and interface, then check the closed form against the
    frame optimizer (``optimizer_subsample`` per wedge) and fit the
    finite-difference closedness order (``closedness_points`` shared between
    the wedges).
    Calibrated values are sampled on each summand's plane, and exact
    vanishing at up to 50 points outside every wedge.  ``min_grid_r`` is the
    smallest grid distance to a summand's r = 0 axis; this function does
    not judge it, because pair boxes contain the shared origin.
    """
    lows, highs = region_box(*region)
    if lows.size != field.ambient_dim:
        raise ValueError("region dimension does not match the ambient dimension")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    rng = np.random.default_rng(seed)

    blocks = [F for cal in cals for F in (cal.coords.x_frame, cal.coords.y_frame)]
    total = in_wedge = overlap = 0
    min_r, top, envelope_min = math.inf, 0.0, math.inf
    buffers = None
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies outside
        for norms in _scan_grid(lows, highs, grid, blocks):
            size = norms[0].size
            if buffers is None:  # the first chunk is the widest
                buffers = [_comass_buffers(size) for _ in cals]
            insides = []
            for cal, r, z, out in zip(cals, norms[0::2], norms[1::2], buffers):
                values, inside, t, envelope = work = tuple(b[:size] for b in out)
                cal._comass_rz(r, z, work)
                # sqrt(1 - delta t^2) - comass, in the spare buffer
                np.multiply(cal.params.delta, t, out=envelope)
                envelope *= t
                np.subtract(1.0, envelope, out=envelope)
                np.sqrt(envelope, out=envelope)
                envelope -= values
                top = max(top, float(values.max(where=inside, initial=0.0)))
                envelope_min = min(envelope_min,
                                   float(envelope.min(where=inside, initial=math.inf)))
                min_r = min(min_r, float(r.min()))
                insides.append(inside)
            total += size
            if len(insides) == 1:
                in_wedge += int(np.count_nonzero(insides[0]))
            else:
                hits = np.sum(insides, axis=0)
                in_wedge += int(np.count_nonzero(hits))
                overlap += int(np.count_nonzero(hits > 1))

    # optimizer cross-check of the closed-form pointwise comass, in every wedge
    margin = 2.0 * max(FD_STEPS)
    opt_pts = np.concatenate(
        [_box_sample(cals, lows, highs, optimizer_subsample, rng, margin, i)
         for i in range(len(cals))]
    )
    # the wedges are disjoint, so the largest summand value is the sum's comass
    closed_form = np.max([cal.pointwise_comass(opt_pts) for cal in cals], axis=0)
    N, k = field.ambient_dim, field.degree
    opt_dev = 0.0
    for coeffs, closed in zip(field.coefficients(opt_pts), closed_form):
        measured = comass(AlternatingTensor(N, k, coeffs), multistarts=24, tol=1e-12, seed=seed)
        opt_dev = max(opt_dev, abs(measured - float(closed)))

    # closedness with order fit
    shares = [part.size for part in np.array_split(np.arange(closedness_points), len(cals))]
    fd_pts = np.concatenate(
        [_box_sample(cals, lows, highs, share, rng, margin, i)
         for i, share in enumerate(shares)]
    )
    max_res, order, _ = closedness_order(field, fd_pts)

    # calibrated value on each plane frame (z = 0 section of its coordinates)
    plane_errs = []
    for cal in cals:
        points = np.array([
            cal.coords.assemble(
                rng.uniform(0.25, 1.5, size=cal.coords.n) * rng.choice([-1.0, 1.0], size=cal.coords.n),
                np.zeros(cal.coords.m),
                rng.uniform(-1.0, 1.0, size=cal.coords.k) if cal.coords.k else None,
            )
            for _ in range(50 // len(cals))
        ])
        values = field.coefficients(points) @ _batched_plucker(cal.plane_frame()[None], N, k)[0]
        plane_errs.append(float(np.abs(values - 1.0).max()))

    # exact vanishing beyond every wedge
    vanish_pts = _box_sample(cals, lows, highs, 50, rng, 0.0, None)
    vanish_max = float(np.abs(field.coefficients(vanish_pts)).max(initial=0.0))

    # the Lipschitz primitive gamma psi_bar tends to 0 at the interface; the
    # summands share one cutoff, so the first one stands for all
    cal = cals[0]
    ts = cal.params.tan_theta * (1.0 - np.geomspace(1e-8, 0.2, 12))
    ray_x = np.full(cal.coords.n, 1.0 / math.sqrt(cal.coords.n))
    ray_pts = np.array(
        [
            cal.coords.assemble(
                ray_x,
                t / math.sqrt(cal.coords.m) * np.ones(cal.coords.m) if cal.coords.m else np.zeros(0),
            )
            for t in ts
        ]
    )
    prim = cal.primitive_norm(ray_pts)

    return CalibrationReport(
        grid=grid,
        grid_points_total=total,
        intersection_dim=cal.coords.k,
        points_in_wedge=in_wedge,
        overlap_count=overlap,
        min_grid_r=min_r,
        max_comass=top,
        envelope_min_slack=envelope_min if envelope_min < math.inf else 0.0,
        optimizer_max_deviation=opt_dev,
        optimizer_samples=len(opt_pts),
        closedness_max_residual=max_res,
        closedness_order=order,
        closedness_samples=len(fd_pts),
        plane_value_max_errors=tuple(plane_errs),
        vanishing_max_abs=vanish_max,
        vanishing_samples=len(vanish_pts),
        primitive_interface_norm=float(prim[0]),
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
