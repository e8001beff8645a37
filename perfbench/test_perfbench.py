"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracing import COUNT_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Bytes depend on the timestamp in each cache entry, so they are left out.
REPEATABLE_COUNTS = [name for name in COUNT_METRICS if not name.startswith("cache.bytes")]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_on_one_seed(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert {m: first[m]["value"] for m in REPEATABLE_COUNTS} == {
        m: second[m]["value"] for m in REPEATABLE_COUNTS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    one = workloads.op_order(workload, 1)
    assert one == workloads.op_order(workload, 1)
    assert one != workloads.op_order(workload, 2)
    assert sorted(one) == sorted(workloads.deck(workload))


def test_spans_nest_as_calls_nest(tmp_path, monkeypatch):
    monkeypatch.setenv("ZSF_CACHE_DIR", str(tmp_path))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from zsumfree import cli

    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["compute", "12", "6", "--oracle"]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()

    layers = [span[0] for span in tracer.spans]
    parent = {i: tracer.spans[span[3]][0] if span[3] is not None else None
              for i, span in enumerate(tracer.spans)}
    assert layers[0] == "cli" and parent[0] is None
    walk_parents = sorted(parent[i] for i, layer in enumerate(layers) if layer == "walk")
    assert walk_parents == ["cli", "facets"]  # once inside build_complex, once from cli
    assert {parent[i] for i, layer in enumerate(layers) if layer != "cli"} <= {"cli", "facets"}
    assert tracer.counts["oracle.agree"] == tracer.counts["oracle.calls"] == 1
    assert tracer.counts["cache.misses"] == tracer.counts["cache.stores"] == 1
    assert all(self_s >= 0 for self_s in tracer.self_times().values())
    assert cli.main is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-cache", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
