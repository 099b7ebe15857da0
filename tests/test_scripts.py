"""Smoke tests for the scripts under scripts/: each runs to completion (on a
small range where it takes one) and prints its header, and the timing
script's --oracle-cap decides which n it times on the oracle."""

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


def run_script(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", **env
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("argv, header", SCRIPTS, ids=[a[0] for a, _ in SCRIPTS])
def test_script_runs(argv, header):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_scripts_start_at_4():
    # below 4 there is no composite: each script starts at 4, as the CLI does
    proc = run_script(["benchmark_reduction.py", "--min", "1", "--max", "10", "--large"])
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == [
        "4", "6", "8", "9", "10"
    ]
    low, four = (
        run_script(["integral_census.py", "--min", m, "--max", "10"]) for m in "14"
    )
    assert low.returncode == 0, low.stderr
    assert low.stdout.splitlines()[1:] == four.stdout.splitlines()[1:]


def test_benchmark_oracle_cap():
    # n = 18 has 11 vertices: capped under --oracle-cap 10, timed under 30
    argv = ["benchmark_reduction.py", "--min", "18", "--max", "18", "--large"]
    for cap, oracle in [("10", "(capped)"), ("30", "ms")]:
        proc = run_script([*argv, "--oracle-cap", cap])
        assert proc.returncode == 0, proc.stderr
        row = proc.stdout.splitlines()[1].split()
        assert row[:3] == ["18", "11", "4"] and row[4].endswith(oracle), (cap, row)
