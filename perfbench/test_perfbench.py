"""Self-tests of the benchmark: PYTHONPATH=src python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys

import pytest

import run
import spans
from rteuler import cli


def small_doc(seed: int) -> dict:
    """The desk config shrunk so that a traced run takes well under a second."""
    doc = run.workload_doc(seed)
    doc["study"].update(num_paths=6, levels=[4, 8, 16], reference_n=64)
    doc["moments"].update(num_paths=5, n_list=[4, 8, 16])
    doc["simulate"]["n"] = 32
    return doc


def traced(p: run.Plan) -> spans.Tracer:
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        for argv in p.calls:
            assert tracer.call(spans.ROOT, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_config_path_steps_match_observed(workload, tmp_path):
    p = run.plan(workload, small_doc(3), tmp_path, workers=1)
    tracer = traced(p)
    assert spans.path_steps(tracer.spans) == p.path_steps
    files = {rel: (tmp_path / rel).read_bytes() for rel in p.outputs}
    assert run.check_outputs(p, files) == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_are_not_negative_and_add_up(workload, tmp_path):
    tracer = traced(run.plan(workload, small_doc(4), tmp_path, workers=1))
    own = spans.self_times(tracer.spans)
    assert min(own.values()) >= 0.0
    roots = [s for s in tracer.spans if s["name"] == spans.ROOT]
    counted = sum(c[1] for s in tracer.spans for c in s.get("counted", {}).values())
    total = sum(s["end"] - s["start"] for s in roots)
    assert sum(own.values()) + counted == pytest.approx(total, rel=1e-9)
    metrics = spans.layer_metrics(tracer.spans)
    assert all(v >= 0 for v in metrics.values())


def test_uninstall_restores_the_original_functions():
    targets = spans.TARGETS + spans.COUNTED
    before = [getattr(importlib.import_module(m), a) for m, a, _ in targets]
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        during = [getattr(importlib.import_module(m), a) for m, a, _ in targets]
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
    finally:
        tracer.uninstall()
    after = [getattr(importlib.import_module(m), a) for m, a, _ in targets]
    assert all(a is b for a, b in zip(after, before))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "converge-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".perfbench_work").exists()


def test_oracle_lists_the_default_and_held_out_seeds():
    digests = run.SPEC["oracle"]["digests"]
    for seed in (run.SPEC["default_seed"], run.SPEC["held_out_seed"]):
        assert set(digests[str(seed)]) == {"converge", "moments", "simulate"}
