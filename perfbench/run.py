"""vancal benchmark: seeded workloads, end-to-end metrics, and a traced breakdown.

Usage, from the root of a vancal checkout:

    python3 perfbench/run.py --workload grid-scan --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh worker process (``worker.py``):
it imports vancal from ``src/``, generates its inputs from the seed, runs
every task in a closed loop and checks every verdict.  Passes repeat until
``--seconds`` is used up (at least ``MIN_PASSES``).

``--trace 0`` prints the end-to-end metrics: ``wall_norm_s`` (one pass
after set-up, at the mean of each task's faster half of times; see
``normalized_pass``), ``setup_s`` (worker start to first task: ``import
vancal`` and input generation, as a median over passes) and
``peak_rss_mb`` (the worker's ``ru_maxrss``, as a median over passes).
The two times are taken at reference speed: multiplied by the run's
``speed_factor``, from fixed kernels the worker times between tasks.  The
plain times are printed beside them.
``--trace 1`` repeats a triple of passes instead: untraced, traced with
spans, and one that records peak allocations; it prints the per-layer
metrics and ``trace.overhead_s``, the traced minus the untraced
``wall_norm_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and sample count, the failed fraction, and the machine.
Everything a run writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

MIN_PASSES = 2  # untraced passes per run; a traced run makes at least one triple
# a run must end within 180 s: no pass starts after this, none may run past it
LAST_START_S = 120.0
HARD_LIMIT_S = 170.0
OUT_DIR = ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# worker.reference_seconds() on a 2-vCPU Xeon while it runs at its faster level
REF_NOMINAL_S = 0.017


def machine(env: dict) -> dict:
    """What the numbers depend on: cores, CPU, versions and thread settings."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: env.get(var) for var in BLAS_THREAD_VARS + ("VANCAL_THREADS",)},
    }


def worker_env() -> dict:
    """VANCAL_THREADS pinned to 1; BLAS/OpenMP pools capped at the usable cores."""
    env = dict(os.environ)
    env["VANCAL_THREADS"] = "1"
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def run_worker(args, index: int, env: dict, layers: str | None, deadline: float) -> dict:
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", work_dir]
    if layers:
        cmd += ["--layers", layers]
    if layers == "spans":
        cmd += ["--spans-file", os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{index}.npz")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, env: dict) -> list:
    """Closed loop of worker passes until --seconds is used up."""
    layer_cycle = [None, "spans", "memory"] if args.trace else [None]
    min_cycles = 1 if args.trace else MIN_PASSES
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    passes = []
    while True:
        for layers in layer_cycle:
            result = run_worker(args, len(passes), env, layers, deadline)
            result["layers_mode"] = layers
            passes.append(result)
        elapsed = time.monotonic() - started
        cycles = len(passes) // len(layer_cycle)
        per_cycle = elapsed / cycles
        if cycles >= min_cycles and elapsed + per_cycle > args.seconds:
            return passes
        if elapsed + per_cycle > LAST_START_S:
            return passes


def faster_half_mean(values) -> float:
    """The mean of the faster (smaller) half of the values, at least one."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, len(ordered) // 2)])


def faster_half_pass(passes: list) -> float:
    """One pass at the faster-half mean of each task's times over the passes."""
    count = len(passes[0]["tasks"])
    return sum(faster_half_mean([p["tasks"][i]["seconds"] for p in passes])
               for i in range(count))


def speed_factor(passes: list) -> float:
    """REF_NOMINAL_S over the faster-half mean of the passes' reference samples.

    The machine's speed moves between levels about 1.5x apart, for seconds
    to minutes at a time (other tenants on the same cores).  A task's time
    and the reference kernels' time, both taken over the faster half of a
    run, slow down together when the whole run is slow; their ratio moves
    less than either.
    """
    return REF_NOMINAL_S / faster_half_mean(s for p in passes for s in p["ref_s"])


def normalized_pass(passes: list) -> float:
    """One pass at reference speed: faster_half_pass times the speed factor."""
    return faster_half_pass(passes) * speed_factor(passes)


def summarize(args, passes: list) -> tuple[dict, list]:
    """Metric values and the readable lines that go before the JSON result."""
    plain = [p for p in passes if p["layers_mode"] is None]
    lines = []
    if not args.trace:
        metrics = {}
        speed = speed_factor(plain)
        for name, unit in END_TO_END_UNITS.items():
            if name == "wall_norm_s":
                values = [p["wall_s"] * speed for p in plain]
                value, how = normalized_pass(plain), "faster-half task times at reference speed,"
            elif name == "setup_s":
                values = [p[name] * speed for p in plain]
                value, how = statistics.median(values), "median at reference speed of"
            else:
                values = [p[name] for p in plain]
                value, how = statistics.median(values), "median of"
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:>14} {value:12.4f} {unit:<5} {how} {len(values)} passes, "
                         f"pass range {min(values):.4f}..{max(values):.4f}")
        refs = [s for p in plain for s in p["ref_s"]]
        lines.append(f"{'speed factor':>14} {speed:12.4f}       {REF_NOMINAL_S} s over the "
                     f"faster-half mean of {len(refs)} reference samples, "
                     f"{min(refs):.4f}..{max(refs):.4f} s")
        raw = [p["wall_s"] for p in plain]
        lines.append(f"{'wall_s':>14} {faster_half_pass(plain):12.4f} s     faster-half task "
                     f"times of {len(raw)} passes, pass range {min(raw):.4f}..{max(raw):.4f} "
                     "(as measured; not a BENCHMARK.json metric)")
        return metrics, lines

    spans = [p for p in passes if p["layers_mode"] == "spans"]
    memory = [p for p in passes if p["layers_mode"] == "memory"]
    units = layer_units()
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = normalized_pass(spans) - normalized_pass(plain)
            count = len(spans)
        else:
            source = memory if name.endswith("peak_alloc_mb") else spans
            value = statistics.median(p["layers"][name] for p in source)
            count = len(source)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:>52} {value:14.4f} {unit:<6} median of {count}")
    return metrics, lines


def layer_units() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "vancal", "__init__.py")):
        print("error: run from the root of a vancal checkout (src/vancal is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = worker_env()
    try:
        passes = run_passes(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(1 for p in passes for t in p["tasks"] if t["problems"])
    metrics, lines = summarize(args, passes)
    info = machine(env)
    for p in passes:
        for t in p["tasks"]:
            if t["problems"]:
                lines.append(f"FAILED {t['name']}: {'; '.join(t['problems'])}")
    lines.append(f"{'failed_frac':>14} {failed / attempted:12.4f}       "
                 f"{failed} of {attempted} tasks in {len(passes)} passes")
    lines.append("machine " + json.dumps(info, sort_keys=True))
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                                    ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "machine": info, "metrics": metrics, "passes": passes}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
