"""Command-line front end: verification pipelines with JSON/CSV reports.

Commands: cutoff, threshold, verify-pair, retraction, fermi, comass,
integrate.  Exit code 0 iff every check in the emitted report passes.
Reports are deterministic for a fixed seed (byte-identical JSON except for
wall_time_ms).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .calibration import (
    CLOSEDNESS_MIN_ORDER,
    COMASS_GRID_TOL,
    angle_budget,
    build_vanishing_calibration,
    coordinate_plane_sum,
    verify_calibration,
    verify_pair_calibration,
)
from .coords import WedgeCoordinates
from .cutoff import (
    CutoffParams,
    admissible_interval,
    angle_threshold,
    make_params,
    verify_inequality_one,
)
from .currents import calibration_inequality_check, read_mesh
from .exterior import (
    AlternatingTensor,
    comass,
    comass_oracle,
    constant_form_field,
    n_coefficients,
)
from .fermi import (
    catenoid_patch,
    cylinder_patch,
    graph_patch,
    plane_patch,
    polynomial_height,
    sphere_patch,
    verify_first_order,
)
from .reports import VerificationReport
from .retraction import RetractionMap, verify_area_nonincreasing
from .subspaces import OrientedSubspace, intersect_and_split


# -- config files ---------------------------------------------------------------


def parse_config(path: str) -> dict:
    """Flat key = value lines; # starts a comment; vector rows split by ';'."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def parse_matrix(text: str) -> np.ndarray:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    return np.array([[float(tok) for tok in row.split()] for row in rows])


# -- output helpers ---------------------------------------------------------------


def _emit_csv(header: list, rows: list, out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")


def _input_error(message: object) -> int:
    """Reject the command line: an error line on stderr, nothing on stdout, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _finish(report: VerificationReport, started: float, out_path: str | None) -> int:
    report.wall_time_ms = int((time.monotonic() - started) * 1000)
    text = report.to_json()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.overall_pass else 1


# -- commands ---------------------------------------------------------------------


def cmd_cutoff(args) -> int:
    started = time.monotonic()
    if args.grid < 2:
        return _input_error("--grid must be >= 2")
    if args.sweep is not None:
        if args.sweep < 1:
            return _input_error("--sweep must be >= 1")
        try:
            lo, hi = admissible_interval(args.n)
        except ValueError as err:
            return _input_error(err)
        margin = (hi - lo) * 1e-3
        a_values = np.linspace(lo + margin, hi - margin, args.sweep)
        rows = []
        all_pass = True
        for a in a_values:
            params = make_params(args.n, float(a))
            rep = verify_inequality_one(params, args.grid)
            all_pass &= rep.passed
            rows.append(
                [
                    f"{a:.12g}",
                    f"{params.c:.12g}",
                    f"{params.theta:.12g}",
                    f"{params.delta:.12g}",
                    f"{params.kappa:.12g}",
                    "pass" if rep.passed else "fail",
                ]
            )
        _emit_csv(["a", "c", "theta", "delta", "kappa", "status"], rows, args.csv)
        return 0 if all_pass else 1
    if args.a is None:
        return _input_error("--a or --sweep is required")

    report = VerificationReport(
        command="cutoff",
        parameters={"n": args.n, "a": args.a, "grid": args.grid},
        checks=[],
        provenance={"seed": None, "grid": args.grid},
    )
    try:
        params = make_params(args.n, args.a)
    except ValueError as err:
        report.add("admissible", False, measured=args.a, detail=str(err))
        _finish(report, started, args.json)
        return 2
    rep = verify_inequality_one(params, args.grid)
    report.parameters.update(
        {"c": params.c, "theta": params.theta, "delta": params.delta, "kappa": params.kappa}
    )
    report.checks.extend(rep.checks())
    return _finish(report, started, args.json)


def cmd_threshold(args) -> int:
    if args.n_min < 3:
        return _input_error("n must be >= 3")
    if args.n_max < args.n_min:
        return _input_error("--n-max must be >= --n-min")
    rows = []
    previous = math.inf
    decreasing = True
    for n in range(args.n_min, args.n_max + 1):
        value = angle_threshold(n)
        decreasing &= value < previous
        previous = value
        note = "pi/3" if n == 4 else ""
        rows.append([str(n), f"{value:.12f}", note])
    _emit_csv(["n", "threshold_rad", "exact"], rows, args.csv)
    return 0 if decreasing else 1


def cmd_verify_pair(args) -> int:
    started = time.monotonic()
    try:
        cfg = parse_config(args.config)
        n = int(cfg["n"])
        a = float(cfg["a"])
        grid = int(cfg.get("grid", args.grid))
        seed = int(cfg.get("seed", 0))
        basis1 = parse_matrix(cfg["plane1"])
        basis2 = parse_matrix(cfg["plane2"])
        N = basis1.shape[1]
        low = cfg.get("region_low", "-1.2")
        high = cfg.get("region_high", "1.2")
        lows = np.array([float(tok) for tok in low.split()])
        highs = np.array([float(tok) for tok in high.split()])
        if lows.size == 1:
            lows = np.full(N, lows[0])
        if highs.size == 1:
            highs = np.full(N, highs[0])
    except (KeyError, ValueError, OSError) as err:
        return _input_error(f"malformed config: {err}")

    report = VerificationReport(
        command="verify-pair",
        parameters={
            "config": args.config,
            "n": n,
            "a": a,
            "grid": grid,
            "ambient_dim": N,
            "tol_comass": args.tol_comass,
            "tol_closed": args.tol_closed,
        },
        checks=[],
        provenance={"seed": seed, "grid": grid},
    )
    try:
        params = make_params(n, a)
        pair = intersect_and_split(
            OrientedSubspace(N, basis1), OrientedSubspace(N, basis2)
        )
        report.parameters["intersection_dim"] = pair.intersection_dim
        report.checks.append(angle_budget(params, pair))
        if not report.overall_pass:
            return _finish(report, started, args.json)
        rep, _field = verify_pair_calibration(
            params, pair, (lows, highs), grid, seed=seed
        )
    except ValueError as err:
        report.add("pipeline", False, detail=str(err))
        _finish(report, started, args.json)
        return 2
    report.checks.extend(
        replace(rep, comass_tol=args.tol_comass, closedness_min_order=args.tol_closed).checks()
    )
    return _finish(report, started, args.json)


def cmd_retraction(args) -> int:
    started = time.monotonic()
    report = VerificationReport(
        command="retraction",
        parameters={
            "n": args.n,
            "a": args.a,
            "m": args.m,
            "samples": args.samples,
            "planes": args.planes,
            "force_c": args.force_c,
        },
        checks=[],
        provenance={"seed": args.seed},
    )
    try:
        if args.force_c is not None:
            params = CutoffParams.forced(args.n, args.force_c)
        else:
            params = make_params(args.n, args.a)
        N = args.n + args.m
        coords = WedgeCoordinates.from_axes(N, range(args.n), range(args.n, N))
    except ValueError as err:
        report.add("parameters", False, detail=str(err))
        _finish(report, started, args.json)
        return 2
    retraction = RetractionMap(coords, params)
    try:
        rep = verify_area_nonincreasing(retraction, args.samples, args.planes, args.seed)
    except ValueError as err:
        return _input_error(err)
    report.checks.extend(rep.checks())
    return _finish(report, started, args.json)


def _parse_poly(text: str):
    terms = {}
    for token in text.split():
        exponents, _, coeff = token.partition(":")
        key = tuple(int(e) for e in exponents.split(","))
        terms[key] = float(coeff)
    return polynomial_height(terms)


def cmd_fermi(args) -> int:
    started = time.monotonic()
    report = VerificationReport(
        command="fermi",
        parameters={
            "surface": args.surface,
            "radius": args.radius,
            "dim": args.dim,
            "poly": args.poly,
        },
        checks=[],
        provenance={"seed": 0, "y_sequence": [0.04, 0.02, 0.01]},
    )
    try:
        if args.surface == "sphere":
            patch = sphere_patch(args.radius, args.dim)
            u = np.full(args.dim, 0.7) + 0.1 * np.arange(args.dim)
            direction = -patch.point(u)  # inward normal
        elif args.surface == "cylinder":
            patch = cylinder_patch(args.radius)
            u = np.array([0.4, 0.2])
            p = patch.point(u)
            direction = -np.array([p[0], p[1], 0.0])
        elif args.surface == "catenoid":
            patch = catenoid_patch()
            u = np.array([0.5, 0.3])
            direction = patch.normal_frame(u)[:, 0]
        elif args.surface == "plane":
            patch = plane_patch(2, 1)
            u = np.array([0.3, -0.2])
            direction = np.array([0.0, 0.0, 1.0])
        elif args.surface == "graph":
            if not args.poly:
                raise ValueError("graph preset requires --poly")
            patch = graph_patch([_parse_poly(args.poly)], dim=args.dim)
            u = np.zeros(args.dim)
            direction = np.zeros(args.dim + 1)
            direction[-1] = 1.0
        else:
            raise ValueError(f"unknown preset {args.surface!r}")
        # np.linalg.LinAlgError, raised on a non-finite preset, is a ValueError
        rep = verify_first_order(patch, u, direction, [0.04, 0.02, 0.01])
    except ValueError as err:
        report.add("preset", False, detail=str(err))
        _finish(report, started, args.json)
        return 2
    report.parameters["point"] = [float(v) for v in u]
    report.checks.extend(rep.checks())
    return _finish(report, started, args.json)


def cmd_comass(args) -> int:
    started = time.monotonic()
    report = VerificationReport(
        command="comass",
        parameters={
            "file": args.file,
            "multistarts": args.multistarts,
            "tol": args.tol,
            "samples": args.samples,
        },
        checks=[],
        provenance={"seed": args.seed},
    )
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        N, k = int(tokens[0]), int(tokens[1])
        coeffs = [float(tok) for tok in tokens[2:]]
        if len(coeffs) != n_coefficients(N, k):
            raise ValueError(
                f"expected {n_coefficients(N, k)} coefficients, got {len(coeffs)}"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        tensor = AlternatingTensor(N, k, np.array(coeffs))
        value = comass(tensor, args.multistarts, args.tol, seed=args.seed)
        oracle = comass_oracle(tensor, args.samples, args.seed)
    except (OSError, ValueError, IndexError) as err:
        return _input_error(err)
    report.parameters.update({"ambient_dim": N, "degree": k})
    report.add(
        "optimizer_dominates_oracle",
        value >= oracle - 1e-6,
        measured=value,
        threshold=oracle,
        tolerance=1e-6,
        detail="sampling oracle is a lower bound for the optimizer",
    )
    report.add("comass", True, measured=value)
    report.add("oracle", True, measured=oracle)
    return _finish(report, started, args.json)


def cmd_integrate(args) -> int:
    started = time.monotonic()
    report = VerificationReport(
        command="integrate",
        parameters={
            "mesh": args.mesh,
            "field": args.field,
            "order": args.order,
            "cap": args.cap,
        },
        checks=[],
        provenance={"seed": None, "quadrature_order": args.order},
    )
    try:
        current = read_mesh(args.mesh)
        if args.field == "volume":
            tensor = AlternatingTensor.basis(
                current.ambient_dim, tuple(range(current.degree))
            )
            field = constant_form_field(tensor)
        elif args.field == "plane-sum":
            field = coordinate_plane_sum(args.c, current.ambient_dim)
        elif args.field == "vanishing":
            params = make_params(args.n, args.a)
            m = current.ambient_dim - args.n
            coords = WedgeCoordinates.from_axes(
                current.ambient_dim, range(args.n), range(args.n, args.n + m)
            )
            field = build_vanishing_calibration(params, coords).field
        else:
            raise ValueError(f"unknown field {args.field!r}")
        rep = calibration_inequality_check(current, field, args.cap, args.order)
    except (OSError, ValueError) as err:
        return _input_error(err)
    report.parameters.update(
        {"ambient_dim": current.ambient_dim, "degree": current.degree,
         "simplices": len(current)}
    )
    report.checks.extend(rep.checks())
    return _finish(report, started, args.json)


# -- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    A subcommand's name selects its ``cmd_*`` function only when ``main``
    runs, so a function replaced after import is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="vancal",
        description="Construct and verify vanishing calibrations for plane pairs.",
    )
    parser.add_argument("--version", action="version", version=f"vancal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cutoff", help="cutoff family constants and inequality check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float)
    p.add_argument("--sweep", type=int, help="tabulate this many admissible a values")
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--json", help="also write the JSON report here")
    p.add_argument("--csv", help="write the sweep CSV here")

    p = sub.add_parser("threshold", help="intersection-angle threshold table")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--csv")

    p = sub.add_parser("verify-pair", help="two-plane calibration pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, default=6)
    p.add_argument("--tol-comass", type=float, default=COMASS_GRID_TOL)
    p.add_argument("--tol-closed", type=float, default=CLOSEDNESS_MIN_ORDER,
                   help="minimum fitted closedness order")
    p.add_argument("--json")

    p = sub.add_parser("retraction", help="area-nonincreasing retraction suite")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--a", type=float, default=2.5)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--planes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force-c", type=float, help=argparse.SUPPRESS)  # negative control
    p.add_argument("--json")

    p = sub.add_parser("fermi", help="first-order Fermi volume expansion")
    p.add_argument("--surface", required=True,
                   choices=["sphere", "cylinder", "catenoid", "plane", "graph"])
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--poly", help="graph heights, e.g. '2,0:0.3 0,2:0.1'")
    p.add_argument("--json")

    p = sub.add_parser("comass", help="comass of a tensor from file")
    p.add_argument("--file", required=True,
                   help="text file: 'N k' then binomial(N,k) coefficients")
    p.add_argument("--multistarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")

    p = sub.add_parser("integrate", help="pair a mesh current with a form field")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", default="volume",
                   choices=["volume", "plane-sum", "vanishing"])
    p.add_argument("--c", type=int, default=2, help="block size for plane-sum")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--a", type=float, default=2.5)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--cap", type=float, default=1.0)
    p.add_argument("--json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
