"""Seeded inputs for the four workloads.

A round is one fresh worker process running one list of CLI commands. Each
workload draws a new list per round from a random.Random seeded by the
workload name and --seed, so a seed fixes the whole sequence of inputs.

Every list is stratified so that the work in a round hardly depends on the
draw: the run-to-run spread then measures the machine and the code, not the
luck of the draw. The reasons for each workload are in README.md.
"""

from __future__ import annotations

import functools
import random

from bench_arith import is_prime

ENVELOPE = 10**7  # largest n the project supports
ORACLE_CAP = 1200  # default explicit-graph vertex cap of `zdgspec verify`

# sweep: the range is tiled completely by windows of fixed width whose phase
# the seed draws, so every round surveys the same n and only the cut points
# move.
SWEEP_RANGE = (4, 803)
SWEEP_WIDTH = 10

# dense-quotient: one n <= 10^4 per number k of proper divisors. The integer
# char-poly costs about k^5, so drawing per k keeps a round's cost steady.
DENSE_MAX = 10**4
DENSE_K = (28, 30, 34, 38, 46)

# bulk-classes: n = b*p with p prime, one n per base b, n in the band.
BULK_BASES = (2, 6, 30, 210)
BULK_BAND = (1_000_000, 1_020_000)

# oracle-verify: tiled like sweep; every graph in the range is far under the
# cap, since a graph on n has fewer than n vertices.
VERIFY_RANGE = (4, 303)
VERIFY_WIDTH = 10


def tiling(lo: int, hi: int, width: int, rng: random.Random) -> list[tuple[int, int]]:
    """Windows covering [lo, hi] exactly: one of seed-drawn length below
    width, then windows of the given width, the last one cut at hi."""
    cuts = [lo, *range(lo + rng.randrange(1, width), hi + 1, width), hi + 1]
    return [(a, b - 1) for a, b in zip(cuts, cuts[1:])]


def _sweep(rng: random.Random) -> list[list[str]]:
    wins = tiling(*SWEEP_RANGE, SWEEP_WIDTH, rng)
    rng.shuffle(wins)
    return [["survey", str(a), str(b), "--format", "csv"] for a, b in wins]


def _divisor_counts(limit: int) -> list[int]:
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            counts[m] += 1
    return counts


@functools.cache
def dense_pool() -> dict[int, list[int]]:
    """Every n <= DENSE_MAX grouped by k, for k in DENSE_K."""
    counts = _divisor_counts(DENSE_MAX)
    return {k: [n for n in range(4, DENSE_MAX + 1) if counts[n] - 2 == k] for k in DENSE_K}


def _dense(rng: random.Random) -> list[list[str]]:
    cmds = [
        [rng.choice(("spectrum", "analyze")), str(rng.choice(ns))]
        for ns in dense_pool().values()
    ]
    rng.shuffle(cmds)
    return cmds


def bulk_n(base: int, rng: random.Random) -> int:
    lo, hi = BULK_BAND
    while True:
        p = rng.randrange(-(-lo // base), hi // base + 1)
        if is_prime(p):
            return base * p


def _bulk(rng: random.Random) -> list[list[str]]:
    cmds = [["spectrum", str(bulk_n(b, rng))] for b in BULK_BASES]
    rng.shuffle(cmds)
    return cmds


def _verify(rng: random.Random) -> list[list[str]]:
    wins = tiling(*VERIFY_RANGE, VERIFY_WIDTH, rng)
    rng.shuffle(wins)
    return [["verify", str(a), str(b)] for a, b in wins]


WORKLOADS = {
    "sweep": _sweep,
    "dense-quotient": _dense,
    "bulk-classes": _bulk,
    "oracle-verify": _verify,
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")
