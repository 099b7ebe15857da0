#!/usr/bin/env python3
"""Census of Laplacian-integral zero-divisor graphs.

Sweeps composite n in a range, decides integrality with
`exact_total_spectrum` (no floating-point snapping), and tallies the
outcomes by the multiplicative shape of n. Prime powers and products of two
primes are integral by theorem, and `exact_total_spectrum` returns their
closed forms without a characteristic polynomial, so their rows count
shapes, not tests. Every other n is decided through the exact integer
characteristic polynomial of the quotient; that is the interesting column.
The range is walked a chunk at a time by `assemble_range`, as `survey` walks
it, so the polynomials modulo the exclusion prime that a chunk's assemblies
carry come from one `char_poly_integer` call on the list of the chunk's
quotients, which batches them itself; a closed-family n is passed on as n
alone.
"""

import argparse
from collections import Counter

from zdgspec.join_spectrum import assemble_range, exact_total_spectrum
from zdgspec.numtheory import factorize, is_prime

GUARANTEED = ("p^t", "pq")


def shape(n: int) -> str:
    fact = factorize(n)
    if fact.is_prime_power:
        return "p^t"
    if fact.is_product_of_two_distinct_primes:
        return "pq"
    if len(fact.primes) == 2:
        return "p^a q^b"
    return "3+ primes"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min", type=int, default=4, dest="n_min")
    parser.add_argument("--max", type=int, default=2000, dest="n_max")
    parser.add_argument(
        "--show-spectra",
        action="store_true",
        help="print the spectrum of every integral n found",
    )
    args = parser.parse_args()

    # the spectra of the guaranteed families are kept only to be shown
    integral = []
    tally: Counter[tuple[str, bool]] = Counter()
    # no composite lies below 4, and the library refuses n < 4
    lo = max(args.n_min, 4)
    composites = (n for n in range(lo, args.n_max + 1) if not is_prime(n))
    for fact, assembly in assemble_range(composites):
        n = fact.n
        exact = exact_total_spectrum(n if assembly is None else assembly)
        label = shape(n)
        tally[(label, exact is not None)] += 1
        if exact is not None and (args.show_spectra or label not in GUARANTEED):
            integral.append((n, label, exact))

    print(f"composite n in [{args.n_min}, {args.n_max}]")
    print(f"{'shape':>10} {'integral':>9} {'not':>6}")
    for label in ["p^t", "pq", "p^a q^b", "3+ primes"]:
        yes = tally[(label, True)]
        no = tally[(label, False)]
        if yes or no:
            print(f"{label:>10} {yes:>9} {no:>6}")

    exceptional = [(n, s) for n, label, s in integral if label not in GUARANTEED]
    print(f"\nintegral outside the two guaranteed families: "
          f"{len(exceptional)}")
    for n, spectrum in exceptional:
        pairs = ", ".join(
            f"{int(v)}^{m}" if m > 1 else f"{int(v)}"
            for v, m in spectrum.pairs()
        )
        print(f"  n={n}: {pairs}")
    if args.show_spectra:
        for n, label, spectrum in integral:
            pairs = "; ".join(f"{int(v)}:{m}" for v, m in spectrum.pairs())
            print(f"n={n} [{label}] {pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
