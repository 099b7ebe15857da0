#!/usr/bin/env python3
"""Time the divisor-class reduction against the explicit-matrix oracle.

The reduced path diagonalizes a k x k quotient plus bookkeeping, where k is
the number of proper divisors of n; the oracle builds the full
z x z Laplacian, z = n - phi(n) - 1, and diagonalizes its two blocks of
order about z/2, split along x -> n - x.  This script reports both
timings over a range.  On a few large highly composite n, where only the
reduced path is feasible, it times the reduced path and the exact
integrality decision side by side: `exact_total_spectrum` on the reduced
path's assembly, which computes its residue polynomial as `assemble_range`
does for a range of one, then decides it.  The default large n run up
to 8648640, which has 446 proper divisors, the most of any n <= 10^7; its
spectrum is not integral, so the decision is settled modulo one prime.
"""

import argparse
import time

from zdgspec.join_spectrum import (
    brute_spectrum,
    exact_total_spectrum,
    reduced_spectrum,
)
from zdgspec.numtheory import euler_phi, is_prime
from zdgspec.zdg_explicit import DEFAULT_ORACLE_CAP


def time_once(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min", type=int, default=4, dest="n_min")
    parser.add_argument("--max", type=int, default=400, dest="n_max")
    parser.add_argument(
        "--stride",
        type=int,
        default=1,
        help="sample every stride-th composite in the range",
    )
    parser.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        help="skip the explicit oracle above this many vertices",
    )
    parser.add_argument(
        "--large",
        type=int,
        nargs="*",
        default=[30030, 510510, 8648640, 9699690],
        help="additional n to run through the reduced path and the exact "
        "integrality decision alone",
    )
    args = parser.parse_args()

    # no composite lies below 4, and the library refuses n < 4
    start = max(args.n_min, 4)
    composites = [n for n in range(start, args.n_max + 1) if not is_prime(n)]
    composites = composites[:: args.stride]

    print(f"{'n':>8} {'|V|':>8} {'k':>4} {'reduced':>12} {'oracle':>12} {'ratio':>8}")
    for n in composites:
        z = n - euler_phi(n) - 1
        t_red, assembly = time_once(reduced_spectrum, n)
        k = len(assembly.graph.vertices)
        if z <= args.oracle_cap:
            t_brute, _ = time_once(brute_spectrum, n, args.oracle_cap)
            ratio = t_brute / t_red if t_red > 0 else float("inf")
            print(
                f"{n:>8} {z:>8} {k:>4} {t_red * 1e3:>10.2f}ms"
                f" {t_brute * 1e3:>10.2f}ms {ratio:>7.1f}x"
            )
        else:
            print(
                f"{n:>8} {z:>8} {k:>4} {t_red * 1e3:>10.2f}ms"
                f" {'(capped)':>12} {'':>8}"
            )

    large = [n for n in args.large if n >= 4 and not is_prime(n)]
    if large:
        print()
        print(f"{'n':>8} {'|V|':>8} {'k':>4} {'reduced':>12} {'exact':>12} integral")
    for n in large:
        z = n - euler_phi(n) - 1
        t_red, assembly = time_once(reduced_spectrum, n)
        t_exact, exact = time_once(exact_total_spectrum, assembly)
        k = len(assembly.graph.vertices)
        print(
            f"{n:>8} {z:>8} {k:>4} {t_red * 1e3:>10.2f}ms"
            f" {t_exact * 1e3:>10.2f}ms {exact is not None}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
