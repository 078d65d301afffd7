"""Area-nonincreasing retraction onto the calibrated plane.

The map scales the x-block by gamma^{1/n} and kills the y-block, sending
the wedge exterior to the shared subspace (the origin when there is no
l-block).  gamma = ``CutoffParams.gamma_u``(u) reads u = z^2 / r^2 from the
squared norms through the wedge rule ``CutoffParams.inside``, the one that
the vanishing calibration's field uses, so the map zeros the x-block exactly
where that field vanishes.  Its (n+k)-volume scaling factor on any
(n+k)-plane, the dimension of the calibrated plane x + l, is controlled by
the cutoff inequality, which is what the verification below samples.  Its
Jacobian comes from the package's one central-difference stencil, and the
sampler redraws points by the stencil's clearance test,
``CutoffParams.near_interface``.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exterior
from .coords import WedgeCoordinates, squared_norms
from .cutoff import CutoffParams
from .exterior import (
    SAMPLE_ROUNDS,
    STENCIL_CLEARANCE,
    _batched_plucker,
    _central_differences,
    _normal_chunks,
    _plane_values,
)
from .reports import Check, CheckedReport

IDENTITY_ON_PLANE_TOL = 1e-8
# bound on eps = max |J - B^T B J|, how far a scored Jacobian maps off the
# calibrated plane x + l with orthonormal basis B.  The plane scalings are
# computed through the plane, so a leak only lowers them.  Take a frame F
# orthonormal and its images in the basis of B and of its complement Q:
# [A C], A = F (BJ)^T, C = F (QJ)^T.  The true scaling S and the score s
# satisfy S^2 = det(AA^T + CC^T) >= det(AA^T) = s^2, and S^2 - s^2 <=
# tr(adj(AA^T + CC^T) CC^T) <= (s_1 ... s_{d-1})^2 |C|_F^2, with s_i the
# singular values of J and |C|_F <= |QJ|_F <= N eps.  Where S >= 1, the only
# place where a lowered score could hide a scaling above 1, S - s <= S^2 - s^2
# <= (s_1 ... s_{d-1} N eps)^2: second order in the leak.  The central-
# difference Jacobians leak about 1e-10 on rotated frames and 0 on axis
# frames.  s_1 ... s_{d-1} stayed below 30 over three seeds of 20 000 samples
# up to the interface, for n = 3..7 and N <= 10, so there the bound at this
# tolerance is below 1e-11, far under AREA_SCALING_TOL
PLANE_LEAK_TOL = 1e-8
# slack on the volume scalings' bound of 1
AREA_SCALING_TOL = 1e-8
# slack on max plane scaling <= max top scaling: both come from the same
# Jacobians, through Pluecker norms and through singular values, and agree to
# rounding where a sampled plane attains the top
PLANE_WITHIN_TOP_TOL = 1e-12
# one-homogeneity and idempotence of the map hold to rounding
MAP_IDENTITY_TOL = 1e-12
# step of the central-difference Jacobian that verify_area_nonincreasing samples
DIFFERENTIAL_STEP = 1e-6
# verify_area_nonincreasing takes Jacobians (one stencil call), their
# singular values and their pulled-back tensors for blocks of this many
# samples, so the stencil, the Jacobians (49 doubles per sample on R^7) and
# the tensors do not grow with the sample count.  The tensors' Pluecker pass
# holds four buffers of C(N, n + k) doubles per sample, so a block is no
# larger than a plane chunk: `vancal retraction --n 6 --a 10 --m 6 --samples
# 2048 --planes 1` (R^12) peaked at 105 MB RSS in blocks of 2048 samples and
# at 62 MB in blocks of 512 (2-vCPU Xeon, Python 3.11, numpy 2.4)
AREA_BLOCK_SAMPLES = exterior.PLANE_CHUNK


@dataclass(frozen=True, eq=False)
class RetractionMap:
    """p = (x, y, l)  ->  (gamma^{1/n} x, 0, l), with gamma = ``params.gamma_u``(z^2 / r^2).

    ``params`` may be admissible (``make_params``) or a forced negative
    control (``CutoffParams.forced``); its n must be the x-block dimension.
    """

    coords: WedgeCoordinates
    params: CutoffParams

    def __post_init__(self):
        if self.coords.n != self.params.n:
            raise ValueError(
                f"cutoff dimension n={self.params.n} does not match the "
                f"x-block dimension {self.coords.n}"
            )

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a point or a batch of points."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        xi = self.coords.x_part(pts)
        # r = 0 gives u = inf or nan, which the wedge test of gamma_u sends to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.coords.z_squared(pts) / squared_norms(xi)
        scale = np.maximum(self.params.gamma_u(u), 0.0) ** (1.0 / self.params.n)
        out = (scale[:, None] * xi) @ self.coords.x_frame
        if self.coords.k:
            out = out + self.coords.l_part(pts) @ self.coords.l_frame
        return out[0] if single else out

    def differential(self, points: np.ndarray, h: float = DIFFERENTIAL_STEP) -> np.ndarray:
        """Central-difference Jacobian, error O(h^2); see ``differential_exact``.

        A point (N,) gives an (N, N) Jacobian and a batch (C, N) a (C, N, N)
        stack, from one ``apply`` call over the stencil ``_central_differences``,
        which rejects a point within ``STENCIL_CLEARANCE * h`` of the interface.
        """
        points = np.asarray(points, dtype=float)
        partials = _central_differences(self.apply, np.atleast_2d(points), [h],
                                        partial(self.params.near_interface, self.coords))
        jac = np.swapaxes(partials[:, 0], 1, 2)
        return jac[0] if points.ndim == 1 else jac

    def differential_exact(self, point: np.ndarray) -> np.ndarray:
        """Chain-rule Jacobian on the smooth strata (independent oracle).

        It writes gamma = 1 - c t^2, gamma' = -2 c t and the wedge cut
        t >= tan(theta) itself, so it shares no profile code with ``apply``,
        whose central differences it checks.
        """
        point = np.asarray(point, dtype=float)
        coords, params = self.coords, self.params
        n = params.n
        xi = coords.x_part(point)
        eta = coords.y_part(point)
        r = float(np.linalg.norm(xi))
        if r == 0.0:
            raise ValueError("exact differential undefined at r = 0")
        z = float(np.linalg.norm(eta)) if coords.m else 0.0
        t = z / r
        N = coords.ambient_dim
        jac = np.zeros((N, N))
        if coords.k:
            jac += coords.l_frame.T @ coords.l_frame
        if t >= params.tan_theta:
            return jac  # constant map onto the l-block beyond the wedge
        gamma = 1.0 - params.c * t * t
        dgamma = -2.0 * params.c * t
        G = gamma ** (1.0 / n)
        Gp = (1.0 / n) * gamma ** (1.0 / n - 1.0) * dgamma
        # t-gradient: dt = (1/r) dz - (t/r) dr
        dr_vec = coords.x_frame.T @ (xi / r)
        grad_t = -(t / r) * dr_vec
        if z > 0.0:
            dz_vec = coords.y_frame.T @ (eta / z)
            grad_t = grad_t + dz_vec / r
        elif coords.m:
            # t = |y|/r is not differentiable in y at y = 0, but G'(0) = 0
            # for the quadratic cutoff, so the product limit below is 0.
            pass
        x_amb = coords.x_frame.T @ xi
        jac += G * (coords.x_frame.T @ coords.x_frame)
        jac += Gp * np.outer(x_amb, grad_t)
        return jac


def plane_leak(jacobian: np.ndarray, plane_basis: np.ndarray) -> float:
    """max |J - B^T B J| over a Jacobian or a stack: how far J maps off the plane of B."""
    return float(np.abs(jacobian - plane_basis.T @ (plane_basis @ jacobian)).max())


def top_volume_scaling(jacobian: np.ndarray, n: int):
    """Max n-volume scaling over all n-planes: product of the top n singular values.

    A float for one (N, N) Jacobian, a (C,) array for a (C, N, N) stack.
    """
    svals = np.linalg.svd(jacobian, compute_uv=False)
    return np.prod(svals[..., :n], axis=-1)


@dataclass(frozen=True)
class AreaScalingReport(CheckedReport):
    samples: int
    planes_per_sample: int
    seed: int
    max_plane_scaling: float
    max_top_scaling: float
    x_plane_scaling_error: float  # |scaling - 1| of the plane x + l at one of its points
    max_plane_leak: float  # max |J - B^T B J| over every scored Jacobian, B the basis of x + l
    homogeneity_error: float  # max |R(s p) - s R(p)|
    idempotence_error: float  # max |R(R(p)) - R(p)|
    lipschitz: float  # largest sampled difference quotient

    def checks(self) -> list[Check]:
        return [
            Check("plane_volume_scaling", self.max_plane_scaling <= 1.0 + AREA_SCALING_TOL,
                  measured=self.max_plane_scaling, threshold=1.0, tolerance=AREA_SCALING_TOL),
            Check("top_volume_scaling", self.max_top_scaling <= 1.0 + AREA_SCALING_TOL,
                  measured=self.max_top_scaling, threshold=1.0, tolerance=AREA_SCALING_TOL),
            Check("plane_within_top",
                  self.max_plane_scaling <= self.max_top_scaling + PLANE_WITHIN_TOP_TOL,
                  measured=self.max_plane_scaling, threshold=self.max_top_scaling,
                  tolerance=PLANE_WITHIN_TOP_TOL,
                  detail="no sampled plane may scale by more than the product of "
                         "the top n + k singular values"),
            Check("identity_on_plane", self.x_plane_scaling_error <= IDENTITY_ON_PLANE_TOL,
                  measured=self.x_plane_scaling_error, tolerance=IDENTITY_ON_PLANE_TOL),
            Check("maps_into_plane", self.max_plane_leak <= PLANE_LEAK_TOL,
                  measured=self.max_plane_leak, tolerance=PLANE_LEAK_TOL,
                  detail="every Jacobian must map into the calibrated plane x + l, "
                         "which the plane scalings are computed through"),
            Check("one_homogeneous", self.homogeneity_error <= MAP_IDENTITY_TOL,
                  measured=self.homogeneity_error, tolerance=MAP_IDENTITY_TOL),
            Check("idempotent", self.idempotence_error <= MAP_IDENTITY_TOL,
                  measured=self.idempotence_error, tolerance=MAP_IDENTITY_TOL),
            Check("lipschitz_finite", math.isfinite(self.lipschitz), measured=self.lipschitz),
        ]


def sample_wedge_points(
    coords: WedgeCoordinates,
    params: CutoffParams,
    count: int,
    rng: np.random.Generator,
    *,
    t_fraction=(0.05, 0.9),
) -> np.ndarray:
    """Seeded points in the open wedge interior of ``params``, away from its singular set.

    r is uniform in [0.5, 1.5], t / tan(theta) in ``t_fraction``, the x- and
    y-directions on their unit spheres and each l-coordinate in [-1, 1].  The
    points that ``params.near_interface`` flags at the stencil's clearance are
    drawn again in their places, for at most ``SAMPLE_ROUNDS`` rounds, or not
    at all when no draw can clear it; the caller's stencil rejects the rest.
    """
    n, m, k = coords.n, coords.m, coords.k
    margin = STENCIL_CLEARANCE * DIFFERENTIAL_STEP

    def draw(size):
        x_dir = rng.standard_normal((size, n))
        x_dir /= np.sqrt(squared_norms(x_dir))[:, None]
        r = rng.uniform(0.5, 1.5, size=size)
        t = rng.uniform(*t_fraction, size=size) * params.tan_theta
        points = (r[:, None] * x_dir) @ coords.x_frame
        if m:
            y_dir = rng.standard_normal((size, m))
            y_dir /= np.sqrt(squared_norms(y_dir))[:, None]
            points = points + ((r * t)[:, None] * y_dir) @ coords.y_frame
        if k:
            points = points + rng.uniform(-1.0, 1.0, size=(size, k)) @ coords.l_frame
        return points

    points = draw(count)
    if 1.5 * math.sin(params.theta) * (1.0 - t_fraction[0]) <= margin:  # widest interface distance
        return points
    flagged = params.near_interface(coords, points, margin)
    for _ in range(SAMPLE_ROUNDS):
        if not flagged.any():
            break
        points[flagged] = draw(int(flagged.sum()))
        flagged[flagged] = params.near_interface(coords, points[flagged], margin)
    return points


def verify_area_nonincreasing(
    retraction: RetractionMap, samples: int, planes_per_sample: int, seed: int
) -> AreaScalingReport:
    """Sample (n+k)-volume scalings of the differential inside the wedge.

    The calibrated plane x + l has dimension n + k, so that is the volume
    the map must not increase.  At every sampled interior point the
    finite-difference Jacobian J is restricted to Haar-random (n+k)-planes,
    and additionally maximized over all planes via its top n + k singular
    values.  The points are drawn up front by ``sample_wedge_points``, with
    t up to the interface and clear of it by the stencil's clearance.  Each
    plane is the span of a Gaussian (N, n + k) matrix F, not orthonormalized.
    The map lands in the calibrated plane, with orthonormal basis B, so the
    images of F are F J^T = (F (BJ)^T) B, and their volume is
    |det(F (BJ)^T)| = |<P(BJ), P(F)>| by Cauchy-Binet, with P the Pluecker
    vector.  So a plane scales by the oracle's score ``_plane_values`` of
    the pulled-back tensor P(BJ): |<P(BJ), P(F)>| / |P(F)|.  A frame that
    spans no plane scores 0, as in the oracle.  ``maps_into_plane`` checks
    that every Jacobian maps into the plane, to ``PLANE_LEAK_TOL``, whose
    comment bounds what a leak can hide.  The SVD bound does not assume the
    plane, so ``plane_within_top`` cross-checks the two.

    Samples are taken in blocks of ``AREA_BLOCK_SAMPLES``: one
    ``differential`` call, one batched SVD, one leak measurement and one
    Pluecker pass for the tensors P(BJ) per block.  Each block's planes are
    scored in sub-blocks of about ``exterior.PLANE_CHUNK`` planes, one
    ``_plane_values`` call each; a block of 512 samples at 100 planes ends
    in a sub-block of 2 samples.  ``_normal_chunks`` draws the next
    sub-block's Gaussians while this one is scored, one draw per sub-block
    in sample order as without the prefetch, so neither block size nor the
    prefetch changes a value.  The tangent plane x + l at a point of the
    plane must scale by exactly 1 (``identity_on_plane``), through the same
    scorer.  The map itself is then checked for one-homogeneity,
    idempotence and a finite Lipschitz estimate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if planes_per_sample < 1:
        raise ValueError("planes_per_sample must be >= 1")
    coords, params = retraction.coords, retraction.params
    d, N = params.n + coords.k, coords.ambient_dim
    basis = np.vstack([coords.x_frame, coords.l_frame])  # the calibrated plane x + l
    rng = np.random.default_rng(seed)
    points = sample_wedge_points(coords, params, samples, rng, t_fraction=(0.05, 1.0))

    # a sub-block's planes come from one draw, the same stream as one draw per sample
    sub_block = max(1, exterior.PLANE_CHUNK // planes_per_sample)
    blocks = [points[start : start + AREA_BLOCK_SAMPLES]
              for start in range(0, samples, AREA_BLOCK_SAMPLES)]
    sizes = [min(sub_block, len(block) - sub) * planes_per_sample
             for block in blocks for sub in range(0, len(block), sub_block)]
    max_plane = 0.0
    max_top = 0.0
    leak = 0.0
    with closing(_normal_chunks(rng, sizes, (N, d))) as chunks:
        for block in blocks:
            jacs = retraction.differential(block)
            max_top = max(max_top, float(top_volume_scaling(jacs, d).max()))
            leak = max(leak, plane_leak(jacs, basis))
            pulled_back = _batched_plucker(basis @ jacs, N, d)
            for sub in range(0, len(jacs), sub_block):
                scalings = _plane_values(np.swapaxes(next(chunks), 1, 2),
                                         pulled_back[sub : sub + sub_block])
                max_plane = max(max_plane, float(scalings.max()))

    # tangent plane x + l at a point of the calibrated plane scales exactly by 1
    x_point = coords.assemble(
        np.full(coords.n, 1.0 / math.sqrt(coords.n)), np.zeros(coords.m)
    )
    jac0 = retraction.differential(x_point)
    tangent = _plane_values(basis[None], _batched_plucker((basis @ jac0)[None], N, d))
    x_err = abs(float(tangent[0]) - 1.0)
    leak = max(leak, plane_leak(jac0, basis))

    # the map itself: one-homogeneous, a retraction, Lipschitz on a box
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(200, N))
    scales = rng.uniform(0.1, 3.0, size=(200, 1))
    image = retraction.apply(pts)
    return AreaScalingReport(
        samples=samples,
        planes_per_sample=planes_per_sample,
        seed=seed,
        max_plane_scaling=max_plane,
        max_top_scaling=max_top,
        x_plane_scaling_error=x_err,
        max_plane_leak=leak,
        homogeneity_error=float(np.abs(retraction.apply(scales * pts) - scales * image).max()),
        idempotence_error=float(np.abs(retraction.apply(image) - image).max()),
        lipschitz=lipschitz_estimate(retraction, 20_000, seed),
    )


def lipschitz_estimate(retraction: RetractionMap, pairs: int, seed: int) -> float:
    """Largest sampled difference quotient of the retraction on the box [-2, 2]^N."""
    rng = np.random.default_rng(seed)
    N = retraction.coords.ambient_dim
    p = rng.uniform(-2.0, 2.0, size=(pairs, N))
    q = rng.uniform(-2.0, 2.0, size=(pairs, N))
    num = np.sqrt(squared_norms(retraction.apply(p) - retraction.apply(q)))
    den = np.sqrt(squared_norms(p - q))
    keep = den > 1e-12
    return float((num[keep] / den[keep]).max())


def level_set_curve_consistency(
    retraction: RetractionMap, theta_values: np.ndarray
) -> float:
    """Check the level sets against the integral-curve identity.

    On the ray at polar angle theta off the x-plane (with |image| = 1), the
    Euclidean distance rho to the shared subspace satisfies
    (rho cos theta)^(-n) = gamma(tan theta).  Returns the max violation.
    """
    coords, params = retraction.coords, retraction.params
    n = params.n
    worst = 0.0
    x0 = np.zeros(coords.n)
    x0[0] = 1.0
    for theta in np.atleast_1d(theta_values):
        tan_t = math.tan(theta)
        gamma = float(params.gamma_u(tan_t * tan_t))
        if gamma <= 0.0:
            continue
        r = gamma ** (-1.0 / n)
        eta = np.zeros(coords.m)
        eta[:1] = r * tan_t
        point = coords.assemble(r * x0, eta)
        image = retraction.apply(point)
        worst = max(worst, float(np.linalg.norm(image - coords.assemble(x0, np.zeros(coords.m)))))
        rho = float(np.linalg.norm(point))
        worst = max(worst, abs((rho * math.cos(theta)) ** (-n) - gamma))
    return worst
