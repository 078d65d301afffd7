"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single pass/fail line (run with ``pytest -s`` to see
them on success; failures always show).  Runtime-limited criteria assert
their budgets.
"""

import json
import math
import re
import time
from itertools import product

import numpy as np
import pytest

from vancal.calibration import (
    build_vanishing_calibration,
    coordinate_plane_sum,
    verify_calibration,
    verify_pair_calibration,
)
from vancal.cli import main
from vancal.coords import WedgeCoordinates
from vancal.currents import (
    TriangulatedCurrent,
    ball_mesh,
    calibration_inequality_check,
    disk_mesh,
    graphical_perturbation,
    mass,
)
from vancal.cutoff import (
    CutoffParams,
    admissible_interval,
    angle_threshold,
    make_params,
    quartic_axis,
    quartic_expansion,
    verify_inequality_one,
)
from vancal.exterior import (
    AlternatingTensor,
    comass,
    comass_oracle,
    comass_oracle_refined,
    wedge,
)
from vancal.fermi import (
    catenoid_patch,
    graph_patch,
    plane_patch,
    polynomial_height,
    sphere_patch,
    verify_first_order,
)
from vancal.retraction import RetractionMap, verify_area_nonincreasing
from vancal.subspaces import OrientedSubspace, coordinate_plane, intersect_and_split


def record(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion:2d} {name}: {status}  {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


def test_criterion_01_cutoff_inequality_suite():
    started = time.monotonic()
    worst_slack = math.inf
    worst_kappa_dev = 0.0
    n_values = range(3, 11)
    for n in n_values:
        lo, hi = admissible_interval(n)
        for a in np.geomspace(lo * (1 + 1e-6), hi * (1 - 1e-6), 50):
            rep = verify_inequality_one(make_params(n, float(a)), 10_000)
            worst_slack = min(worst_slack, rep.min_slack_lower, rep.min_slack_upper,
                              rep.kappa)
            if rep.axis_in_range:
                worst_kappa_dev = max(worst_kappa_dev, abs(rep.grid_min_middle - rep.kappa))
    elapsed = time.monotonic() - started
    ok = worst_slack >= -1e-12 and worst_kappa_dev <= 1e-6 and elapsed < 10.0
    record(
        1,
        "cutoff inequality on 8x50 admissible grid",
        ok,
        f"min slack {worst_slack:.2e}, max |grid min - kappa| {worst_kappa_dev:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_quartic_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in range(3, 11):
        lo, hi = admissible_interval(n)
        for a in np.geomspace(lo * (1 + 1e-6), hi * (1 - 1e-6), 50):
            params = make_params(n, float(a))
            t = rng.uniform(0.0, params.tan_theta, size=1000)
            direct = params.middle_u(t * t)
            expansion = quartic_expansion(params, t)
            worst = max(worst, float(np.max(np.abs(direct - expansion) / np.abs(expansion))))
    record(2, "direct expression vs quartic expansion", worst <= 1e-13,
           f"max relative deviation {worst:.2e}")


def test_criterion_03_threshold_table():
    pi_third_err = abs(angle_threshold(4) - math.pi / 3)
    values = [angle_threshold(n) for n in range(3, 13)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    worst_limit = 0.0
    for n in range(3, 13):
        lo, _ = admissible_interval(n)
        limit = 2.0 * make_params(n, lo * (1 + 1e-8)).theta
        worst_limit = max(worst_limit, abs(limit - angle_threshold(n)))
    ok = pi_third_err <= 1e-12 and decreasing and worst_limit <= 1e-6
    record(3, "angle threshold table", ok,
           f"|threshold(4) - pi/3| = {pi_third_err:.2e}, strictly decreasing: "
           f"{decreasing}, limit deviation {worst_limit:.2e}")


def test_criterion_04_comass_battery():
    started = time.monotonic()
    battery = []

    e12_r4 = AlternatingTensor.basis(4, (0, 1))
    battery.append(("dx1^dx2 in R4", e12_r4, 1.0, 1_000_000))
    battery.append(
        ("dx1+dx2 in R2", AlternatingTensor.from_covector([1.0, 1.0]), math.sqrt(2.0),
         1_000_000)
    )
    battery.append(
        ("e12+e34 in R4", e12_r4 + AlternatingTensor.basis(4, (2, 3)), 1.0, 1_000_000)
    )
    battery.append(
        (
            "e123+e456 in R6",
            AlternatingTensor.basis(6, (0, 1, 2)) + AlternatingTensor.basis(6, (3, 4, 5)),
            1.0,
            1_000_000,
        )
    )
    rng = np.random.default_rng(17)
    for trial in range(4):
        N, k = 6, 3
        q, _ = np.linalg.qr(rng.standard_normal((N, k)))
        norms = rng.uniform(0.5, 2.0, size=k)
        tensor = AlternatingTensor.scalar(N, 1.0)
        for i in range(k):
            tensor = wedge(tensor, AlternatingTensor(N, 1, q[:, i] * norms[i]))
        battery.append((f"random simple #{trial}", tensor, float(np.prod(norms)), 100_000))

    worst_pair = 0.0
    worst_known = 0.0
    for name, tensor, known, samples in battery:
        opt = comass(tensor, multistarts=64, tol=1e-12, seed=0)
        oracle = comass_oracle_refined(tensor, samples, seed=0)
        worst_pair = max(worst_pair, abs(opt - oracle) / max(1.0, known))
        worst_known = max(worst_known, abs(opt - known) / max(1.0, known))
    elapsed = time.monotonic() - started
    ok = worst_pair <= 1e-6 and worst_known <= 1e-6 and elapsed < 60.0
    record(4, "comass optimizer vs sampling oracle battery", ok,
           f"max |opt - oracle| {worst_pair:.2e}, max |opt - known| {worst_known:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_05_vanishing_calibration_grid():
    started = time.monotonic()
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    cal = build_vanishing_calibration(params, coords)
    region = ([0.5] * 3 + [-1.0] * 3, [1.5] * 3 + [1.0] * 3)
    rep = verify_calibration(cal, region, 20, seed=0)
    elapsed = time.monotonic() - started
    ok = (
        rep.grid_points_total == 20**6
        and rep.max_comass <= 1.0 + 1e-9
        and rep.plane_value_max_error <= 1e-10
        and rep.vanishing_max_abs == 0.0
        and rep.closedness_order >= 1.8
        and elapsed < 300.0
    )
    record(5, "vanishing calibration on the 20^6 grid", ok,
           f"max comass {rep.max_comass:.12f}, plane error {rep.plane_value_max_error:.1e}, "
           f"closedness order {rep.closedness_order:.3f}, {elapsed:.1f}s")


def test_criterion_06_pair_calibrations():
    params = make_params(3, 2.5)
    pair6 = intersect_and_split(
        coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5))
    )
    rep6, _ = verify_pair_calibration(params, pair6, ([-1.2] * 6, [1.2] * 6), 7, seed=0)

    b1 = np.zeros((4, 7))
    b1[0, 0] = b1[1, 1] = b1[2, 2] = b1[3, 3] = 1.0
    b2 = np.zeros((4, 7))
    b2[0, 4] = b2[1, 5] = b2[2, 6] = b2[3, 3] = 1.0
    pair7 = intersect_and_split(OrientedSubspace(7, b1), OrientedSubspace(7, b2))
    rep7, _ = verify_pair_calibration(params, pair7, ([-1.1] * 7, [1.1] * 7), 5, seed=0)

    ok = (
        rep6.passed
        and rep7.passed
        and rep6.overlap_count == 0
        and rep7.overlap_count == 0
        and rep6.max_comass <= 1.0 + 1e-9
        and rep7.max_comass <= 1.0 + 1e-9
        and rep7.intersection_dim == 1
    )
    record(6, "two-plane calibrations (R6 orthogonal, R7 shared axis)", ok,
           f"R6 max comass {rep6.max_comass:.10f}, R7 max comass {rep7.max_comass:.10f}, "
           f"plane errors {max(rep6.plane_value_max_error, rep7.plane_value_max_error):.1e}")


def test_criterion_07_retraction_scalings():
    params = make_params(3, 2.5)
    coords = WedgeCoordinates.from_axes(6, (0, 1, 2), (3, 4, 5))
    retraction = RetractionMap(coords, params)
    rep = verify_area_nonincreasing(retraction, 1000, 100, seed=0)
    control = RetractionMap(coords, CutoffParams.forced(3, 2.0))
    rep_control = verify_area_nonincreasing(control, 1000, 100, seed=0)
    ok = (
        rep.max_plane_scaling <= 1.0 + 1e-8
        and rep.max_top_scaling <= 1.0 + 1e-8
        and rep_control.max_top_scaling > 1.0
    )
    record(7, "area-nonincreasing retraction (10^3 x 10^2)", ok,
           f"max scaling {rep.max_top_scaling:.10f}, negative control "
           f"{rep_control.max_top_scaling:.6f} > 1")


def test_criterion_08_fermi_expansion():
    sphere = sphere_patch(1.0, 2)
    u = np.array([0.7, 0.9])
    rep_sphere = verify_first_order(sphere, u, -sphere.point(u), [0.04, 0.02, 0.01])
    sphere_err = abs(rep_sphere.fitted_beta + 4.0) / 4.0

    cat = catenoid_patch()
    uc = np.array([0.5, 0.3])
    rep_cat = verify_first_order(cat, uc, cat.normal_frame(uc)[:, 0], [0.02, 0.01, 0.005])

    plane = plane_patch(2, 1)
    rep_plane = verify_first_order(
        plane, np.array([0.3, -0.2]), np.array([0.0, 0.0, 1.0]), [0.02, 0.01]
    )

    q1 = polynomial_height({(2, 0): 0.5, (0, 2): -0.2})
    q2 = polynomial_height({(1, 1): 0.4, (2, 0): 0.3})
    patch = graph_patch([q1, q2], 2)
    u0 = np.zeros(2)
    n1 = np.array([0.0, 0.0, 1.0, 0.0])
    n2 = np.array([0.0, 0.0, 0.0, 1.0])
    b1 = verify_first_order(patch, u0, n1, [0.02, 0.01]).fitted_beta
    b2 = verify_first_order(patch, u0, n2, [0.02, 0.01]).fitted_beta
    bmix = verify_first_order(patch, u0, n1 + n2, [0.02, 0.01]).fitted_beta
    linearity = abs(bmix - (b1 + b2) / math.sqrt(2)) / max(1.0, abs(bmix))

    ok = (
        sphere_err <= 1e-3
        and abs(rep_cat.fitted_beta) <= 1e-3
        and abs(rep_plane.fitted_beta) <= 1e-3
        and linearity <= 1e-2
    )
    record(8, "Fermi first-order volume expansion", ok,
           f"sphere rel err {sphere_err:.2e}, catenoid beta {rep_cat.fitted_beta:.2e}, "
           f"plane beta {rep_plane.fitted_beta:.1e}, linearity {linearity:.2e}")


def test_criterion_09_current_integrator():
    from vancal.calibration import sum_pair_calibration

    params = make_params(3, 2.5)
    pair = intersect_and_split(coordinate_plane(6, (0, 1, 2)), coordinate_plane(6, (3, 4, 5)))
    field, _ = sum_pair_calibration(params, pair)
    ball1 = ball_mesh(2, ambient_dim=6, axes=(0, 1, 2))
    ball2 = ball_mesh(2, ambient_dim=6, axes=(3, 4, 5))
    def joined(a, b):
        return TriangulatedCurrent(6, 3, np.concatenate([a.simplices, b.simplices]),
                                   np.concatenate([a.multiplicities, b.multiplicities]))

    both = joined(ball1, ball2)
    flat = calibration_inequality_check(both, field)
    equality = abs(flat.mass - flat.pairing) <= 1e-6 * flat.mass

    competitors_ok = True
    details = []
    for eps in (0.05, 0.1, 0.2):
        bumped = graphical_perturbation(ball1, normal_axis=3, amplitude=eps)
        competitor = joined(bumped, ball2)
        rep = calibration_inequality_check(competitor, field)
        competitors_ok &= rep.mass > flat.mass and rep.pairing < rep.mass
        details.append(f"eps={eps}: dM={rep.mass - flat.mass:.2e}, slack={rep.slack:.2e}")

    errors = [math.pi - mass(disk_mesh(rings)) for rings in (8, 16, 32)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    disk_rate_ok = all(e > 0 for e in errors) and all(o >= 1.8 for o in orders)
    disk_41 = abs(math.pi - mass(disk_mesh(41)))

    ok = equality and competitors_ok and disk_rate_ok and disk_41 < 1e-3
    record(9, "calibrated ball pair and competitors", ok,
           f"equality slack {abs(flat.mass - flat.pairing) / flat.mass:.2e}, "
           + "; ".join(details) + f"; disk rate orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_10_coordinate_plane_sums():
    worst = 0.0
    for c in (2, 3, 4):
        field = coordinate_plane_sum(c, 2 * c)
        tensor = field.evaluator(np.zeros(2 * c))
        worst = max(worst, abs(comass(tensor, multistarts=64, seed=0) - 1.0))
    rejected = False
    try:
        coordinate_plane_sum(1, 2)
    except ValueError:
        rejected = True
    oracle_sqrt2 = comass_oracle(AlternatingTensor.from_covector([1.0, 1.0]), 1_000_000, 0)
    ok = worst <= 1e-6 and rejected and abs(oracle_sqrt2 - math.sqrt(2)) <= 1e-4
    record(10, "coordinate-plane sum comass (c = 2, 3, 4)", ok,
           f"max |comass - 1| = {worst:.2e}, c=1 rejected with oracle "
           f"{oracle_sqrt2:.9f} ~ sqrt(2)")


def test_criterion_11_report_determinism(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "n = 3\na = 2.5\ngrid = 4\nseed = 3\nregion_low = -1.2\nregion_high = 1.2\n"
        "plane1 = 1 0 0 0 0 0 ; 0 1 0 0 0 0 ; 0 0 1 0 0 0\n"
        "plane2 = 0 0 0 1 0 0 ; 0 0 0 0 1 0 ; 0 0 0 0 0 1\n"
    )

    def run(args):
        code = main(args)
        out = capsys.readouterr().out
        return code, re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)

    identical = True
    for args in (
        ["verify-pair", "--config", str(cfg)],
        ["retraction", "--samples", "60", "--planes", "10", "--seed", "5"],
        ["cutoff", "--n", "3", "--a", "2.5", "--grid", "2000"],
    ):
        code1, out1 = run(args)
        code2, out2 = run(args)
        identical &= out1 == out2 and code1 == code2 == 0
    with capsys.disabled():
        record(11, "byte-identical reports per seed (excluding timing)", identical, "")
