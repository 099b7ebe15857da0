"""Smoke tests for the scripts under scripts/: each runs to completion (on a
small range where it takes one) and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    (
        ["benchmark_reduction.py", "--min", "4", "--max", "40", "--large", "30030"],
        "       n      |V|    k      reduced       oracle    ratio",
    ),
    (["integral_census.py", "--min", "4", "--max", "60"], "composite n in [4, 60]"),
    (["output_corpus.py"], "$ zdgspec survey 4 1500 --format csv"),
]


@pytest.mark.parametrize("argv, header", SCRIPTS, ids=[a[0] for a, _ in SCRIPTS])
def test_script_runs(argv, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
