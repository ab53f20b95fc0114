"""Tests of the benchmark harness itself, on the tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = run.WORKLOADS


def _is_count(key: str) -> bool:
    return not key.endswith("_s")


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_runs_and_matches_its_digest(name):
    result, lines = run.measure(name, seed=3, seconds=0, trace=False, size="tiny")
    assert result["correct"], lines
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracer_leaves_outputs_unchanged_and_restores_foamlab(name):
    wl, _, _ = run.setup(name, 5, "tiny")
    _, plain = run.run_pass(wl)
    evaluate = sys.modules["foamlab.foameval"].evaluate
    t = tracer.Tracer()
    t.install()
    try:
        assert sys.modules["foamlab.statespace"].evaluate is not evaluate
        spans, traced = run.run_pass(wl)
        summary = t.summary()
    finally:
        t.uninstall()
    assert traced == plain
    assert sys.modules["foamlab.statespace"].evaluate is evaluate
    assert summary["trace.spans"] > 0
    self_total = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0 < self_total <= sum(b - a for a, b in spans.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, lines = run.measure(name, seed=4, seconds=0, trace=True, size="tiny")
    second, _ = run.measure(name, seed=4, seconds=0, trace=True, size="tiny")
    assert first["correct"], lines
    assert set(first["metrics"]) == set(tracer.PER_LAYER)
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if _is_count(k)}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]


def test_digest_mismatch_is_a_failure():
    wl, _, _ = run.setup("rank", 0, "tiny")
    expected = json.loads(run.DIGESTS.read_text())["rank"]["tiny"]
    label = wl.items[0].label
    tampered = dict(expected, items=dict(expected["items"], **{label: "0" * 16}))
    verdict = run.Verdict(wl, tampered)
    verdict.check(run.run_pass(wl)[1])
    assert not verdict.correct
    assert verdict.failed == 1


def test_tail_needs_ten_values_beyond_it():
    assert run.tail([float(i) for i in range(1, 121)]) == (108.0, 90)
    assert run.tail([float(i) for i in range(1, 6)]) == (5.0, 100)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
