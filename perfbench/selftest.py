"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py

The last test runs traced passes of every workload (about a minute).
"""

from __future__ import annotations

import copy
import filecmp
import inspect
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

vancal = worker.import_vancal(ROOT)

# per-layer metric -> the workload that exercises it (BENCHMARK.json's layer map)
EXERCISED_ON = {
    "grid-scan": [
        "coords.r.ns_per_point", "coords.z.ns_per_point", "coords.points_per_grid_point",
        "calibration.pointwise_comass.ns_per_point", "calibration.iter_grid_chunks.s",
        "threads.ordered_map.items", "calibration.verify_calibration.peak_alloc_mb",
    ],
    "comass-battery": [
        "exterior.comass.calls", "exterior.comass.ms_per_call",
        "exterior.comass_oracle.us_per_sample", "exterior.comass_oracle.peak_alloc_mb",
        "exterior.random_orthonormal_frames.self_s", "exterior.plucker.minors",
    ],
    "pointwise-pipeline": [
        "calibration.field_eval.us_per_call", "exterior.evaluate.us_per_call",
        "exterior.wedge.us_per_call", "exterior.interior_product.us_per_call",
        "exterior.finite_difference_exterior_derivative.calls",
        "currents.integrate_form.us_per_simplex", "currents.Simplex.tangent_frame.us_per_call",
        "currents.read_mesh.s", "retraction.differential.us_per_call",
        "retraction.plane_volume_scaling.us_per_call", "cli.main.self_s", "reports.to_json.s",
        "cutoff.verify_inequality_one.s", "subspaces.intersect_and_split.s",
        "fermi.verify_first_order.s",
    ],
}


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping), a has c [1, 2];
    # d [9, 12] runs past the root's end, e [20, 21] is a second root
    start = [0.0, 1.0, 3.0, 1.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0, 21.0]
    parent = [-1, 0, 0, 1, 0, -1]
    got = tracing.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6; a: 3 - 1; b: 3; c: 1; d: 3; e: 1
    np.testing.assert_allclose(got, [4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_parents_tasks_and_outermost_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.task = 7
    outer = tracer.begin("f")
    inner = tracer.begin("f")
    tracer.end(inner)
    tracer.end(outer)
    arrays = tracer.arrays()
    assert list(arrays["parent"]) == [-1, 0]
    assert list(arrays["task"]) == [7, 7]
    assert list(arrays["outermost"]) == [True, False]
    # outer [0, 3] with inner [1, 2]: self times 2 + 1; outermost inclusive 3
    assert tracing.summarize(tracer)["f"] == {"calls": 2, "self_s": 3.0, "s": 3.0,
                                              "units": 0.0}


def _snapshot():
    namespaces = [vancal] + [m for n, m in sys.modules.items() if n.startswith("vancal.")]
    state = {(ns.__name__, key): value for ns in namespaces for key, value in vars(ns).items()
             if key != "__warningregistry__"}
    for _, cls_name, method, _ in tracing.METHODS:
        for ns in namespaces:
            cls = vars(ns).get(cls_name)
            if inspect.isclass(cls):
                state[(cls_name, method)] = cls.__dict__[method]
    state[("FormField", "__init__")] = vancal.FormField.__dict__["__init__"]
    return state


def test_wrappers_cover_every_namespace_and_are_restored(tmp_path):
    before = _snapshot()
    comass = vancal.exterior.comass
    tracer = tracing.Tracer()
    with tracing.installed(tracer, vancal):
        # from-imported names are wrapped where they are used, not only where defined
        for ns in (vancal, vancal.exterior, vancal.cli, vancal.calibration):
            assert ns.comass is not comass
            assert ns.comass.__wrapped__ is comass
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tensor = vancal.AlternatingTensor(6, 3, np.arange(20.0))
            vancal.cli.comass(tensor, multistarts=4, max_iter=1)
        tasks = [t for t in inputs.generate("pointwise-pipeline", 5, str(tmp_path))
                 if t["argv"][0] in ("cutoff", "fermi", "verify-pair")][:3]
        records = worker.run_pass(vancal, tasks, str(tmp_path), tracer)
    assert all(not r["problems"] for r in records)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)  # re-emitted
    assert tracer.counters["exterior.comass.unconverged"] == 1
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_normalized_pass_on_hand_built_passes():
    nominal = run.REF_NOMINAL_S
    # two tasks over four passes; the faster half of the reference samples
    # averages half the nominal speed
    passes = [
        {"tasks": [{"seconds": 1.0}, {"seconds": 4.0}], "ref_s": [nominal, 3 * nominal]},
        {"tasks": [{"seconds": 3.0}, {"seconds": 2.0}], "ref_s": [2 * nominal, 9 * nominal]},
        {"tasks": [{"seconds": 2.0}, {"seconds": 3.0}], "ref_s": [2 * nominal]},
        {"tasks": [{"seconds": 9.0}, {"seconds": 5.0}],
         "ref_s": [7 * nominal, 8 * nominal, 10 * nominal]},
    ]
    assert run.faster_half_mean([4.0, 1.0, 3.0]) == 1.0
    # faster half of the reference samples: 1, 2, 2, 3 (times nominal)
    assert run.speed_factor(passes) == pytest.approx(0.5)
    assert run.faster_half_pass(passes) == pytest.approx(1.5 + 2.5)
    assert run.normalized_pass(passes) == pytest.approx(2.0)


def test_pass_takes_a_reference_sample_around_every_task(tmp_path):
    tasks = [t for t in inputs.generate("pointwise-pipeline", 3, str(tmp_path))
             if t["argv"][0] in ("cutoff", "threshold")]
    samples = []
    records = worker.run_pass(vancal, tasks, str(tmp_path), ref_samples=samples)
    assert len(samples) == len(records) + 1
    assert all(0.0 < s < 1.0 for s in samples)


def _manifest_dir(root, workload, seed):
    out = os.path.join(root, f"{workload}-{seed}")
    inputs.generate(workload, seed, out)
    return out


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    first = _manifest_dir(tmp_path / "a", workload, 3)
    second = _manifest_dir(tmp_path / "b", workload, 3)
    other = _manifest_dir(tmp_path / "c", workload, 4)
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second)) and "manifest.json" in names
    _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []
    _, mismatch, _ = filecmp.cmpfiles(first, other, names, shallow=False)
    changed = [name for name in mismatch if name != "manifest.json"]
    # another seed gives other inputs, except to the battery, whose forms are fixed
    assert bool(changed) == (workload != "comass-battery")


def test_known_forms_match_vancal_basis_order():
    ex = vancal.exterior
    dx = [ex.AlternatingTensor.basis(8, (i,)) for i in range(8)]
    omega = dx[0].wedge(dx[1]) + dx[2].wedge(dx[3]) + dx[4].wedge(dx[5]) + dx[6].wedge(dx[7])
    got = inputs.form_coefficients(8, 4, inputs.kahler_square_terms())
    np.testing.assert_array_equal(got, 0.5 * omega.wedge(omega).coefficients)
    phi = sum((c * ex.AlternatingTensor.basis(7, idx) for c, idx in inputs.associative_terms()),
              ex.AlternatingTensor.zero(7, 3))
    np.testing.assert_array_equal(inputs.form_coefficients(7, 3, inputs.associative_terms()),
                                  phi.coefficients)


def test_gate_flags_wrong_expectations(tmp_path):
    tasks = {t["name"]: t for t in inputs.generate("pointwise-pipeline", 2, str(tmp_path))}
    cutoff = next(t for name, t in tasks.items() if name.startswith("cutoff"))
    control = tasks["verify-pair angle budget control"]

    wrong_verdict = dict(copy.deepcopy(cutoff), passed=False, exit_code=1)
    wrong_value = copy.deepcopy(cutoff)
    wrong_value["known"]["parameters.kappa"][0] += 1e-9
    control_passes = dict(copy.deepcopy(control), exit_code=0, passed=True, failing=[])
    missing_failure = copy.deepcopy(control)
    missing_failure["failing"] = ["angle_budget", "max_comass"]
    bad_argv = dict(copy.deepcopy(cutoff), argv=["cutoff", "--n"])

    batch = [cutoff, control, wrong_verdict, wrong_value, control_passes, missing_failure,
             bad_argv]
    records = worker.run_pass(vancal, batch, str(tmp_path))
    flagged = [bool(r["problems"]) for r in records]
    assert flagged == [False, False, True, True, True, True, True]


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = set(tracing.layer_metrics(tracing.Tracer()))
    assert set(names) == produced | {"trace.overhead_s"}
    assert set(sum(EXERCISED_ON.values(), [])) <= produced


def _traced_pass(tmp_path, workload, layers):
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", "1", "--work-dir", str(tmp_path / f"{workload}-{layers}"),
           "--layers", layers, "--spawned", repr(spawned)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          env=dict(os.environ, VANCAL_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(not t["problems"] for t in result["tasks"]), result["tasks"]
    return result["layers"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_layer_metric_is_nonzero_where_exercised(tmp_path, workload):
    spans = _traced_pass(tmp_path, workload, "spans")
    names = EXERCISED_ON[workload]
    if any(name.endswith("peak_alloc_mb") for name in names):
        spans.update({k: v for k, v in _traced_pass(tmp_path, workload, "memory").items()
                      if k.endswith("peak_alloc_mb")})
    zero = [name for name in names if not (spans[name] > 0 and math.isfinite(spans[name]))]
    assert zero == []
