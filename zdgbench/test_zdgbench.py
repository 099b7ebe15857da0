"""Tests of the benchmark itself: python3 -m pytest zdgbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_workloads as wl
from bench_arith import (
    class_degrees,
    composites,
    divisors,
    is_composite,
    laplacian_moments,
    vertex_count,
)
from bench_speed import REF_PROBE_S
from bench_trace import REQUIRED
from run import END_TO_END, PER_LAYER, ROOT, Round, clock, failed_count, score, spawn

HERE = Path(__file__).resolve().parent


def _rounds(workload: str, seed: int, count: int = 3) -> list[list[list[str]]]:
    rng = wl.rng_for(workload, seed)
    return [wl.WORKLOADS[workload](rng) for _ in range(count)]


def _numbers(cmd: list[str]) -> list[int]:
    if cmd[0] in ("spectrum", "analyze"):
        return [int(cmd[1])]
    return composites(int(cmd[1]), int(cmd[2]))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_inputs_are_seeded_and_in_envelope(workload):
    for seed in range(5):
        rounds = _rounds(workload, seed)
        assert rounds == _rounds(workload, seed)
        assert rounds != _rounds(workload, seed + 100)
        for cmds in rounds:
            for cmd in cmds:
                ns = _numbers(cmd)
                assert ns and all(is_composite(n) and n <= wl.ENVELOPE for n in ns)
                if cmd[0] == "verify":
                    assert all(vertex_count(n) <= wl.ORACLE_CAP for n in ns)
                if cmd[0] in ("spectrum", "analyze") and workload == "dense-quotient":
                    assert ns[0] <= wl.DENSE_MAX
                    assert len(divisors(ns[0])) - 2 in wl.DENSE_K


@pytest.mark.parametrize(
    "workload,span", [("sweep", wl.SWEEP_RANGE), ("oracle-verify", wl.VERIFY_RANGE)]
)
def test_windows_tile_the_range(workload, span):
    for cmds in _rounds(workload, 7):
        wins = sorted((int(c[1]), int(c[2])) for c in cmds)
        assert wins[0][0] == span[0] and wins[-1][1] == span[1]
        assert all(b + 1 == c for (_, b), (c, _) in zip(wins, wins[1:]))


def test_bulk_inputs_are_base_times_prime():
    for cmds in _rounds("bulk-classes", 3):
        bases = set()
        for cmd in cmds:
            n = int(cmd[1])
            base = next(b for b in wl.BULK_BASES if n % b == 0 and not is_composite(n // b))
            bases.add(base)
            assert wl.BULK_BAND[0] <= n <= wl.BULK_BAND[1]
            assert len(divisors(n)) - 2 <= 30
        assert bases == set(wl.BULK_BASES)


@pytest.mark.parametrize("n", [n for n in range(4, 61) if is_composite(n)])
def test_moments_match_explicit_graph(n):
    verts = [x for x in range(1, n) if math.gcd(x, n) > 1]
    adj = [[x != y and (x * y) % n == 0 for y in verts] for x in verts]
    deg = [sum(row) for row in adj]
    lap = [
        [deg[i] if i == j else -int(adj[i][j]) for j in range(len(verts))]
        for i in range(len(verts))
    ]
    trace1 = sum(lap[i][i] for i in range(len(verts)))
    trace2 = sum(v * v for row in lap for v in row)  # trace of L^2, L symmetric
    assert vertex_count(n) == len(verts)
    assert laplacian_moments(n) == (trace1, trace2)
    expanded = sorted(d for size, d in class_degrees(n) for _ in range(size))
    assert expanded == sorted(deg)


SPECTRUM_15 = json.dumps(
    {
        "n": 15,
        "vertex_count": 6,
        "spectrum": [
            {"value": v, "multiplicity": m, "exact": True}
            for v, m in [(0, 1), (2, 3), (4, 1), (6, 1)]
        ],
        "delta": 2,
        "Delta": 4,
    },
    separators=(",", ":"),
)


def _fake_round(outputs: list[tuple[int, str]]) -> Round:
    rnd = Round([["spectrum", "15"] for _ in outputs], traced=False)
    rnd.result = {"commands": [{"rc": rc, "out": out, "err": ""} for rc, out in outputs]}
    score(rnd)
    return rnd


def test_good_record_passes():
    assert failed_count(_fake_round([(0, SPECTRUM_15 + "\n")])) == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: s.replace('"multiplicity":3', '"multiplicity":2'),  # count off
        lambda s: s.replace('"value":6', '"value":6.001'),  # moment off
        lambda s: s.replace('"value":0,', '"value":0.5,'),  # no zero eigenvalue
        lambda s: s.replace('"delta":2', '"delta":1'),
        lambda s: s[:-5],  # truncated JSON
    ],
)
def test_corrupted_record_counts_as_failed(corrupt):
    bad = corrupt(SPECTRUM_15)
    assert bad != SPECTRUM_15
    rnd = _fake_round([(0, SPECTRUM_15 + "\n"), (0, bad + "\n")])
    assert failed_count(rnd) / len(rnd.commands) == 0.5


def test_times_are_rescaled_by_the_round_probe():
    rnd = Round([["spectrum", "15"]] * 2, traced=False, setup_raw_s=0.2)
    rnd.result = {"commands": [{"latency_s": 1.0}, {"latency_s": 3.0}]}
    # the median probe of the round runs twice as long as the reference
    rnd.probes = [2 * REF_PROBE_S, 2 * REF_PROBE_S, 9 * REF_PROBE_S]
    assert rnd.wall_raw_s == pytest.approx(4.2)
    assert rnd.setup_s == pytest.approx(0.1)
    assert rnd.latencies_s == pytest.approx([0.5, 1.5])
    assert rnd.wall_s == pytest.approx(2.1)


def test_wrong_exit_code_counts_as_failed():
    assert failed_count(_fake_round([(2, SPECTRUM_15 + "\n")])) == 1


def test_checks_pass_on_real_output_and_spans_fire():
    commands = [["spectrum", str(n)] for n in (4, 8, 12, 15, 18, 30, 1024, 2310)]
    commands += [["analyze", "12"], ["survey", "4", "60", "--format", "csv"], ["verify", "4", "40"]]
    for traced in (False, True):
        rnd = spawn(commands, traced, deadline=clock() + 120)
        assert rnd.ok, rnd.failures
        score(rnd)
        assert rnd.failures == []
    fired = {span[0] for span in rnd.result["spans"]}
    for workload, required in REQUIRED.items():
        assert set(required) <= fired, workload


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
