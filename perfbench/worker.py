"""One pass of one workload in a fresh process; prints one JSON line.

Run by ``run.py``, once per pass, so ``ru_maxrss`` belongs to that pass
alone.  The pass imports vancal from ``src/`` of the current directory,
generates its inputs from the seed, then runs every task in a closed loop
(the next task starts when the previous one has finished) and checks each
exit code, verdict and known value against the generator's expectation.

Between tasks the pass times fixed reference kernels (see
``reference_seconds``), so that ``run.py`` can divide out the speed the
machine had during the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import mmap
import os
import resource
import shutil
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402

# -- machine speed -------------------------------------------------------------------

_ARRAY = np.linspace(0.0, 1.0, 1 << 19)  # 4 MiB, past the per-core caches
_ARRAY_OUT = np.empty_like(_ARRAY)
_FRESH_PAGES = 2048  # 8 MiB
REF_REPEATS = 3


def _interpreter_kernel() -> int:
    total = 0
    for i in range(45_000):
        total += (i * i) % 7
    return total


def _array_kernel() -> float:
    # in place, so its time does not depend on the heap that vancal left behind
    for _ in range(4):
        np.multiply(_ARRAY, _ARRAY, out=_ARRAY_OUT)
        np.add(_ARRAY_OUT, 1.0, out=_ARRAY_OUT)
        np.sqrt(_ARRAY_OUT, out=_ARRAY_OUT)
    return float(_ARRAY_OUT[-1])


def _fresh_pages_kernel() -> None:
    # a new mapping each time, so every page faults whatever the heap holds
    with mmap.mmap(-1, _FRESH_PAGES * mmap.PAGESIZE) as pages:
        view = np.frombuffer(pages, dtype=np.uint8)
        view[::mmap.PAGESIZE] = 1
        del view


def _mixed_kernel() -> float:
    records = [{"i": i, "x": i * 0.5, "s": str(i)} for i in range(1500)]
    records = json.loads(json.dumps(records))
    records.sort(key=lambda r: -r["x"])
    m = np.arange(36.0).reshape(6, 6) + 10.0 * np.eye(6)
    total = 0.0
    for _ in range(60):
        total += float(np.linalg.det(m)) + float(np.einsum("ij,ij->", m, m))
        total += float(np.linalg.qr(m)[1][0, 0])
    return total


# Fixed work in the styles of code vancal runs: interpreted loops, passes
# over arrays larger than the per-core caches, first touches of new memory
# (the grid scan and the sampling oracle allocate hundreds of MB), and
# Python objects mixed with small linear algebra (per-point evaluation, the
# frame optimizer).
REFERENCE_KERNELS = (_interpreter_kernel, _array_kernel, _fresh_pages_kernel, _mixed_kernel)


def reference_seconds() -> float:
    """How fast the machine runs right now: the sum over the reference
    kernels of each one's fastest of REF_REPEATS runs."""
    total = 0.0
    for kernel in REFERENCE_KERNELS:
        best = math.inf
        for _ in range(REF_REPEATS):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        total += best
    return total


def import_vancal(root: str):
    """Import vancal from root/src, refusing any other copy on the path."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vancal", "__init__.py")):
        raise SystemExit(f"error: no vancal sources under {src}")
    sys.path.insert(0, src)
    import vancal
    import vancal.cli

    if not os.path.abspath(vancal.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: imported vancal from {vancal.__file__}, not {src}")
    return vancal


# -- running tasks -------------------------------------------------------------------


def run_grid_task(vancal, config_path: str) -> tuple[int, dict]:
    """verify_calibration through the public API, as criterion 05 calls it."""
    import numpy as np

    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    coords = vancal.WedgeCoordinates(6, np.array(cfg["x_frame"]), np.array(cfg["y_frame"]))
    cal = vancal.build_vanishing_calibration(vancal.make_params(cfg["n"], cfg["a"]), coords)
    report = vancal.verify_calibration(
        cal, (cfg["region_low"], cfg["region_high"]), cfg["grid"], seed=cfg["seed"]
    )
    out = {name: getattr(report, name) for name in report.__dataclass_fields__}
    out["overall_pass"] = report.passed
    return (0 if report.passed else 1), out


def run_cli_task(vancal, argv: list) -> tuple[int, dict]:
    """vancal.cli.main(argv) in-process with stdout captured and parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = vancal.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    text = buf.getvalue()
    if text.lstrip().startswith("{"):
        return code, json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    return code, {"csv": rows}


def lookup(report: dict, path: str):
    """Resolve a ``known`` path of the generator against a parsed report."""
    head, _, rest = path.partition(".")
    if head == "checks":
        name, _, field = rest.rpartition(".")
        for check in report.get("checks", []):
            if check.get("name") == name:
                return check.get(field)
        return None
    if head == "parameters":
        return report.get("parameters", {}).get(rest)
    if head == "csv":
        row_key, _, column = rest.partition(".")
        for row in report.get("csv", []):
            if next(iter(row.values())) == row_key:
                return float(row[column])
        return None
    return report.get(path)


def check_task(task: dict, code: int, report: dict) -> list:
    """Every way the outcome differs from the expectation, as readable strings."""
    problems = []
    if code != task["exit_code"]:
        problems.append(f"exit code {code}, expected {task['exit_code']}")
    if task["passed"] is not None and report.get("overall_pass") != task["passed"]:
        problems.append(f"verdict {report.get('overall_pass')}, expected {task['passed']}")
    failing = {c["name"] for c in report.get("checks", []) if not c.get("passed")}
    if task["passed"] and failing:
        problems.append(f"failing checks {sorted(failing)}")
    missing = set(task["failing"]) - failing
    if missing:
        problems.append(f"checks {sorted(missing)} were expected to fail")
    for path, (value, tol) in task["known"].items():
        got = lookup(report, path)
        if not isinstance(got, (int, float)) or not math.isfinite(got) or abs(got - value) > tol:
            problems.append(f"{path} = {got!r}, expected {value!r} +- {tol:g}")
    return problems


def run_pass(vancal, tasks: list, work_dir: str, tracer=None, ref_samples=None) -> list:
    """Closed loop over the tasks; returns one record per task.

    Given a list ``ref_samples``, appends ``reference_seconds()`` to it before
    the first task and after each task; that time is not part of any task's.
    """
    records = []
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        if ref_samples is not None:
            ref_samples.append(reference_seconds())
        for index, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = index
            started = time.perf_counter()
            try:
                if task["kind"] == "grid":
                    code, report = run_grid_task(vancal, task["argv"][0])
                else:
                    code, report = run_cli_task(vancal, task["argv"])
                problems = check_task(task, code, report)
            except Exception as exc:  # a raising task is a failed task, not a crash
                problems = [f"raised {type(exc).__name__}: {exc}"]
            records.append({"name": task["name"], "seconds": time.perf_counter() - started,
                            "problems": problems})
            if ref_samples is not None:
                ref_samples.append(reference_seconds())
    finally:
        os.chdir(cwd)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True, help="input files go here")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--layers", choices=["spans", "memory"],
                        help="trace the pass: timed spans, or peak allocations")
    parser.add_argument("--spans-file", help="with --layers spans, write the spans here (.npz)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    vancal = import_vancal(root)
    tasks = inputs.generate(args.workload, args.seed, args.work_dir)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    with contextlib.ExitStack() as stack:
        if args.layers:
            import tracing

            tracer = tracing.Tracer()
            stack.enter_context(
                tracing.installed(tracer, vancal, memory=args.layers == "memory"))
        ref_samples = []
        records = run_pass(vancal, tasks, args.work_dir, tracer, ref_samples)
    shutil.rmtree(args.work_dir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_s": ref_samples,
        "tasks": records,
    }
    if tracer is not None:
        if args.spans_file:
            tracer.save(args.spans_file)
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
