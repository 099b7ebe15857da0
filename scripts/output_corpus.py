#!/usr/bin/env python3
"""Canonical-output corpus: everything a change to the exact or the float
route, or to the order of the checks on n, must leave byte-identical.

Prints, for a fixed list of CLI commands run in process, the command, its
stdout, its stderr (each line prefixed with "stderr: ") and its exit code;
then `exact_total_spectrum(n).pairs()` (or None)
for every composite n in [4, 3000]. The command list is `survey 4 1500`
(CSV), `survey 4 3000` (JSON, the one format whose rows carry the two
quotient flags), `survey 700 760` as CSV and as JSON (it
crosses n = 720, k = 28, and its quotients fall in four isqrt(k) groups, so
it pins rows whose residue polynomials came from zero-padded stacks),
`verify 4 303`, `spectrum` and `analyze` of
four seeded n <= 10^4 for each of 28, 30, 34, 38 and 46 proper divisors,
`spectrum` of two seeded n = b*p in [1.0e6, 1.02e6] for each base b in
2, 6, 30, 210, `spectrum` of 19996, 1024, 2310, 15, 32805, 81729 and
8100243 (the last three each have a quotient value just above a class
value), `spectrum 36 --method brute` (the oracle's eigenvalues, coalesced),
`spectrum 15 --method closed-form` (the closed form of n = pq), the
closed-form families end to end: `analyze` of 1024 and 15, `spectrum` of
8388608 (2^23), 4782969 (3^14) and 9997619 (3137 * 3187), and
`spectrum 1024 --method reduced` (the reduced route on a prime power),
`divisor-graph` of 18, 72 and 720 (4, 10 and 28 proper divisors, each
with clique and edgeless classes of more than one vertex, so their `L:`
rows pin the diagonal d - 1 - [n | d^2] phi(n/d)) and `graph 12 --edges`,
and the refusals `spectrum 13` and `analyze 1` (exit 2), `spectrum`,
`analyze` and
`spectrum --method closed-form` of 36893488147419103232 (2^65, more zero
divisors than int64 counts), and `analyze 6983776800` and
`divisor-graph 6983776800` (2302 proper divisors, past the exact
char-poly's order), and `analyze 3317044064679887385961981` (psi_13, a
strong pseudoprime to every Miller-Rabin base) and
`spectrum 618970019642690137449562111` (2^89 - 1, prime), both past the
bound below which that test proves primality, and `analyze
9999999999999999` and `analyze 6917529027641081856` (3 * 2^61), whose
candidate windows for integer roots may hold up to 5.9e7 and 3.2e10
integers, each exit 5.

The n are drawn with the standard library only, so two trees of the
package see the same inputs. The BLAS thread count is pinned to 1 before
numpy is imported, because the last digits of `verify`'s `max_dev` depend
on it. To compare two trees, run this one file against each and diff:

    PYTHONPATH=old/src python3 scripts/output_corpus.py > old.txt
    PYTHONPATH=src python3 scripts/output_corpus.py > new.txt
    cmp old.txt new.txt
"""

import argparse
import contextlib
import io
import os
import random

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from zdgspec.cli import main as cli_main
from zdgspec.join_spectrum import exact_total_spectrum

DENSE_MAX = 10**4
DENSE_K = (28, 30, 34, 38, 46)
BULK_BASES = (2, 6, 30, 210)
BULK_BAND = (1_000_000, 1_020_000)
FIXED_N = (19996, 1024, 2310, 15, 32805, 81729, 8100243)
CLOSED_ANALYZE_N = (1024, 15)
CLOSED_SPECTRUM_N = (2**23, 3**14, 3137 * 3187)
DIVISOR_GRAPH_N = (18, 72, 720)
EXACT_RANGE = (4, 3000)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def divisor_counts(limit: int) -> list[int]:
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            counts[m] += 1
    return counts


def commands(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    cmds = [
        ["survey", "4", "1500", "--format", "csv"],
        ["survey", "4", "3000", "--format", "json"],
        ["survey", "700", "760", "--format", "csv"],
        ["survey", "700", "760", "--format", "json"],
        ["verify", "4", "303"],
    ]
    counts = divisor_counts(DENSE_MAX)
    for k in DENSE_K:
        pool = [n for n in range(4, DENSE_MAX + 1) if counts[n] - 2 == k]
        for n in sorted(rng.sample(pool, min(4, len(pool)))):
            cmds += [["spectrum", str(n)], ["analyze", str(n)]]
    lo, hi = BULK_BAND
    for b in BULK_BASES:
        primes = [p for p in range(-(-lo // b), hi // b + 1) if is_prime(p)]
        cmds += [["spectrum", str(b * p)] for p in sorted(rng.sample(primes, 2))]
    cmds += [["spectrum", str(n)] for n in FIXED_N]
    cmds += [["spectrum", "36", "--method", "brute"]]
    cmds += [["spectrum", "15", "--method", "closed-form"]]
    cmds += [["analyze", str(n)] for n in CLOSED_ANALYZE_N]
    cmds += [["spectrum", str(n)] for n in CLOSED_SPECTRUM_N]
    cmds += [["spectrum", "1024", "--method", "reduced"]]
    cmds += [["divisor-graph", str(n)] for n in DIVISOR_GRAPH_N]
    cmds += [["graph", "12", "--edges"]]
    cmds += [["spectrum", "13"], ["analyze", "1"]]
    huge = str(2**65)
    cmds += [["spectrum", huge], ["analyze", huge]]
    cmds += [["spectrum", huge, "--method", "closed-form"]]
    cmds += [["analyze", "6983776800"], ["divisor-graph", "6983776800"]]
    cmds += [["analyze", "3317044064679887385961981"]]
    cmds += [["spectrum", "618970019642690137449562111"]]
    cmds += [["analyze", "9999999999999999"], ["analyze", str(3 * 2**61)]]
    return cmds


def run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the drawn n")
    args = parser.parse_args()
    for argv in commands(args.seed):
        text, err, code = run(argv)
        print("$ zdgspec " + " ".join(argv))
        print(text, end="")
        for line in err.splitlines():
            print("stderr: " + line)
        print(f"exit {code}")
    lo, hi = EXACT_RANGE
    for n in range(lo, hi + 1):
        if not is_prime(n):
            exact = exact_total_spectrum(n)
            print(n, None if exact is None else exact.pairs())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
