"""Every benchmark task meets its expectation on the current sources.

``perfbench/inputs.py`` states, per task, the exit code, the verdict, the
checks that must fail and the report values that must hold; the benchmark
runs those checks only when it measures.  One seeded pass of each workload
here turns a change that breaks such an expectation (a renamed check, a
dropped report field) into a test failure.  The perfbench modules are
imported as they are and not modified.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

import vancal
import vancal.cli  # noqa: F401  (run_pass calls vancal.cli.main)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = _load("worker")  # puts perfbench/ on sys.path and imports its inputs
inputs = worker.inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_benchmark_workload_tasks_meet_their_expectations(workload, tmp_path):
    tasks = inputs.generate(workload, 0, str(tmp_path))
    assert tasks
    records = worker.run_pass(vancal, tasks, str(tmp_path))
    problems = {r["name"]: r["problems"] for r in records if r["problems"]}
    assert problems == {}
