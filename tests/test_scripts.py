"""Smoke tests: the scripts in ``scripts/`` run and report no failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> subprocess.CompletedProcess:
    # the scripts put ``src`` on the path relative to the working directory
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_operator_matrices():
    res = run_script("scripts/operator_matrices.py", "2", "3")
    assert res.returncode == 0, res.stderr
    assert "[e,f] == h : True" in res.stdout
    assert res.stdout.count("d^3 == 0 : True") == 2
    assert "FAIL" not in res.stdout


def test_rank_report():
    res = run_script("scripts/rank_report.py", "2")
    assert res.returncode == 0, res.stderr
    assert "relation checks" in res.stdout
    assert "FAIL" not in res.stdout
