"""Command-line front end: verification pipelines with JSON/CSV reports.

Commands: cutoff, threshold, verify-pair, retraction, fermi, comass,
integrate.  The CLI parses, calls the library, renders and exits: every
verdict, tolerance and input rule is the library's, and each JSON command
renders the ``checks()`` of a library report.  ``threshold`` and ``cutoff
--sweep`` print a CSV table; the others fill the parameters, provenance and
checks of an empty report, and ``_reported`` times it, prints its JSON (also
to ``--json``) and exits 0 iff every check passes, else 1.  Exit code 2 has
two channels: a ValueError in a ``_rejects(name)`` block prints the report
ending in that one failing check, and any other OSError or ValueError is a
command-line error, an ``error:`` line on stderr with nothing on stdout.
Reports are deterministic for a fixed seed (byte-identical JSON except for
wall_time_ms).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import sys
import time

import numpy as np

from . import __version__
from .calibration import (
    angle_budget,
    build_vanishing_calibration,
    coordinate_plane_sum,
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
    ComassReport,
    comass,
    comass_oracle,
    constant_form_field,
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
from .reports import Check, VerificationReport
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


# -- output --------------------------------------------------------------------------


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


class _Rejected(Exception):
    """A failed ``_rejects`` block; its one argument is the failing check."""


@contextlib.contextmanager
def _rejects(name: str, **fields):
    """Turn a ValueError inside the block into the one failing check ``name``."""
    try:
        yield
    except ValueError as err:
        raise _Rejected(Check(name, False, detail=str(err), **fields)) from err


def _reported(command):
    """Run ``command(args, report)`` on an empty report; time, write and judge it.

    The command fills the report's parameters, provenance and checks.  The
    exit code is 0 iff every check passes and 1 otherwise, or 2 when a
    ``_rejects`` block failed.  The JSON goes to stdout and to ``--json``.
    """

    @functools.wraps(command)
    def run(args) -> int:
        started = time.monotonic()
        report = VerificationReport(args.command, {}, [])
        try:
            command(args, report)
            code = 0 if report.overall_pass else 1
        except _Rejected as rejected:
            report.checks.append(rejected.args[0])
            code = 2
        report.wall_time_ms = int((time.monotonic() - started) * 1000)
        text = report.to_json()
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
        return code

    return run


# -- commands ---------------------------------------------------------------------


def cmd_cutoff(args) -> int:
    if args.sweep is None:
        if args.a is None:
            raise ValueError("--a or --sweep is required")
        return _cutoff_report(args)
    if args.a is not None or args.json is not None:
        raise ValueError("--sweep takes neither --a nor --json")
    if args.sweep < 1:
        raise ValueError("--sweep must be >= 1")
    lo, hi = admissible_interval(args.n)
    margin = (hi - lo) * 1e-3
    a_values = np.linspace(lo + margin, hi - margin, args.sweep)
    rows = []
    all_pass = True
    for a in a_values:
        params = make_params(args.n, float(a))
        rep = verify_inequality_one(params, args.grid)
        all_pass &= rep.passed
        constants = (a, params.c, params.theta, params.delta, params.kappa)
        rows.append([f"{v:.12g}" for v in constants] + ["pass" if rep.passed else "fail"])
    _emit_csv(["a", "c", "theta", "delta", "kappa", "status"], rows, args.csv)
    return 0 if all_pass else 1


@_reported
def _cutoff_report(args, report: VerificationReport) -> None:
    report.parameters.update(n=args.n, a=args.a, grid=args.grid)
    report.provenance.update(seed=None, grid=args.grid)
    with _rejects("admissible", measured=args.a):
        params = make_params(args.n, args.a)
    rep = verify_inequality_one(params, args.grid)
    report.parameters.update(
        c=params.c, theta=params.theta, delta=params.delta, kappa=params.kappa
    )
    report.checks.extend(rep.checks())


def cmd_threshold(args) -> int:
    if args.n_max < args.n_min:
        raise ValueError("--n-max must be >= --n-min")
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


@_reported
def cmd_verify_pair(args, report: VerificationReport) -> None:
    try:
        cfg = parse_config(args.config)
        n = int(cfg["n"])
        a = float(cfg["a"])
        grid = args.grid if args.grid is not None else int(cfg.get("grid", 6))
        seed = int(cfg.get("seed", 0))
        basis1 = parse_matrix(cfg["plane1"])
        basis2 = parse_matrix(cfg["plane2"])
        N = basis1.shape[1]
        # one value applies to every axis
        bounds = [np.array([float(tok) for tok in cfg.get(key, default).split()])
                  for key, default in (("region_low", "-1.2"), ("region_high", "1.2"))]
        lows, highs = (np.full(N, b[0]) if b.size == 1 else b for b in bounds)
    except (KeyError, ValueError, OSError) as err:
        raise ValueError(f"malformed config: {err}") from None

    report.parameters.update(config=args.config, n=n, a=a, grid=grid, ambient_dim=N)
    report.provenance.update(seed=seed, grid=grid)
    with _rejects("pipeline"):
        params = make_params(n, a)
        pair = intersect_and_split(
            OrientedSubspace(N, basis1), OrientedSubspace(N, basis2)
        )
        report.parameters["intersection_dim"] = pair.intersection_dim
        report.checks.append(angle_budget(params, pair))
        if not report.overall_pass:
            return
        rep, _field = verify_pair_calibration(
            params, pair, (lows, highs), grid, seed=seed
        )
    report.checks.extend(rep.checks())


@_reported
def cmd_retraction(args, report: VerificationReport) -> None:
    report.parameters.update(
        n=args.n, a=args.a, m=args.m, samples=args.samples, planes=args.planes,
        force_c=args.force_c,
    )
    report.provenance["seed"] = args.seed
    with _rejects("parameters"):
        if args.force_c is not None:
            params = CutoffParams.forced(args.n, args.force_c)
        else:
            params = make_params(args.n, args.a)
        N = args.n + args.m
        coords = WedgeCoordinates.from_axes(N, range(args.n), range(args.n, N))
    retraction = RetractionMap(coords, params)
    rep = verify_area_nonincreasing(retraction, args.samples, args.planes, args.seed)
    report.checks.extend(rep.checks())


def _parse_poly(text: str):
    terms = {}
    for token in text.split():
        exponents, _, coeff = token.partition(":")
        key = tuple(int(e) for e in exponents.split(","))
        terms[key] = float(coeff)
    return polynomial_height(terms)


# fermi --surface presets: args -> (patch, base point u, normal direction at u)


def _sphere_preset(args):
    patch = sphere_patch(args.radius, args.dim)
    u = np.full(args.dim, 0.7) + 0.1 * np.arange(args.dim)
    return patch, u, -patch.point(u)  # inward normal


def _cylinder_preset(args):
    patch = cylinder_patch(args.radius)
    u = np.array([0.4, 0.2])
    p = patch.point(u)
    return patch, u, -np.array([p[0], p[1], 0.0])


def _catenoid_preset(args):
    patch = catenoid_patch()
    u = np.array([0.5, 0.3])
    return patch, u, patch.normal_frame(u)[:, 0]


def _graph_preset(args):
    if not args.poly:
        raise ValueError("graph preset requires --poly")
    patch = graph_patch([_parse_poly(args.poly)], dim=args.dim)
    direction = np.zeros(args.dim + 1)
    direction[-1] = 1.0
    return patch, np.zeros(args.dim), direction


_FERMI_PRESETS = {
    "sphere": _sphere_preset,
    "cylinder": _cylinder_preset,
    "catenoid": _catenoid_preset,
    "plane": lambda args: (plane_patch(2, 1), np.array([0.3, -0.2]), np.array([0.0, 0.0, 1.0])),
    "graph": _graph_preset,
}


@_reported
def cmd_fermi(args, report: VerificationReport) -> None:
    ys = [0.04, 0.02, 0.01]
    report.parameters.update(
        surface=args.surface, radius=args.radius, dim=args.dim, poly=args.poly
    )
    report.provenance.update(seed=0, y_sequence=ys)
    with _rejects("preset"):
        patch, u, direction = _FERMI_PRESETS[args.surface](args)
        # np.linalg.LinAlgError, raised on a non-finite preset, is a ValueError
        rep = verify_first_order(patch, u, direction, ys)
    report.parameters["point"] = [float(v) for v in u]
    report.checks.extend(rep.checks())


@_reported
def cmd_comass(args, report: VerificationReport) -> None:
    report.parameters.update(
        file=args.file, multistarts=args.multistarts, tol=args.tol, samples=args.samples
    )
    report.provenance["seed"] = args.seed
    with open(args.file, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("tensor file must start with 'N k'")
    N, k = int(tokens[0]), int(tokens[1])
    tensor = AlternatingTensor(N, k, np.array([float(tok) for tok in tokens[2:]]))
    if not np.isfinite(tensor.coefficients).all():
        raise ValueError("coefficients must be finite")
    value = comass(tensor, args.multistarts, args.tol, seed=args.seed)
    oracle = comass_oracle(tensor, args.samples, args.seed)
    report.parameters.update(ambient_dim=N, degree=k)
    report.checks.extend(ComassReport(value, oracle).checks())


def _vanishing_field(args, current):
    params = make_params(args.n, args.a)
    N = current.ambient_dim
    coords = WedgeCoordinates.from_axes(N, range(args.n), range(args.n, N))
    return build_vanishing_calibration(params, coords).field


# integrate --field: (args, mesh current) -> form field
_INTEGRATE_FIELDS = {
    "volume": lambda args, current: constant_form_field(
        AlternatingTensor.basis(current.ambient_dim, tuple(range(current.degree)))
    ),
    "plane-sum": lambda args, current: coordinate_plane_sum(args.c, current.ambient_dim),
    "vanishing": _vanishing_field,
}


@_reported
def cmd_integrate(args, report: VerificationReport) -> None:
    report.parameters.update(mesh=args.mesh, field=args.field, order=args.order, cap=args.cap)
    report.provenance.update(seed=None, quadrature_order=args.order)
    current = read_mesh(args.mesh)
    field = _INTEGRATE_FIELDS[args.field](args, current)
    rep = calibration_inequality_check(current, field, args.cap, args.order)
    report.parameters.update(
        ambient_dim=current.ambient_dim, degree=current.degree, simplices=len(current)
    )
    report.checks.extend(rep.checks())


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
    reported = argparse.ArgumentParser(add_help=False)
    reported.add_argument("--json", help="also write the JSON report here")

    p = sub.add_parser("cutoff", parents=[reported],
                       help="cutoff family constants and inequality check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float)
    p.add_argument("--sweep", type=int,
                   help="tabulate this many admissible a values (no --a or --json)")
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--csv", help="write the sweep CSV here")

    p = sub.add_parser("threshold", help="intersection-angle threshold table")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--csv")

    p = sub.add_parser("verify-pair", parents=[reported], help="two-plane calibration pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, help="grid points per axis (default: config, else 6)")

    p = sub.add_parser("retraction", parents=[reported],
                       help="area-nonincreasing retraction suite")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--a", type=float, default=2.5)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--planes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force-c", type=float, help=argparse.SUPPRESS)  # negative control

    p = sub.add_parser("fermi", parents=[reported], help="first-order Fermi volume expansion")
    p.add_argument("--surface", required=True, choices=list(_FERMI_PRESETS))
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--poly", help="graph heights, e.g. '2,0:0.3 0,2:0.1'")

    p = sub.add_parser("comass", parents=[reported], help="comass of a tensor from file")
    p.add_argument("--file", required=True,
                   help="text file: 'N k' then binomial(N,k) coefficients")
    p.add_argument("--multistarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("integrate", parents=[reported],
                       help="pair a mesh current with a form field")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", default="volume", choices=list(_INTEGRATE_FIELDS))
    p.add_argument("--c", type=int, default=2, help="block size for plane-sum")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--a", type=float, default=2.5)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--cap", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError) as err:  # a command-line error: stderr only, exit 2
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
