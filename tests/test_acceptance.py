"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each test
collects every violation in its range before asserting, so a failure names
all offending n at once.
"""

import time

import numpy as np

from zdgspec.analysis import complement_disconnected, degree_extremes, mu_equals_kappa
from zdgspec.divisor_graph import build_divisor_graph, weighted_laplacian
from zdgspec.eigen import char_poly_integer, integer_roots_complete, max_deviation
from zdgspec.errors import OracleCapError
from zdgspec.join_spectrum import (
    brute_spectrum,
    prime_power_spectrum,
    reduced_spectrum,
)
from zdgspec.numtheory import euler_phi, factorize, is_prime
from zdgspec.zdg_explicit import build_zero_divisor_graph

from helpers import (
    class_names,
    degrees,
    edge_count_doubled,
    expand_classes,
    is_integral,
    value_sum,
    zero_multiplicity,
)


def _composites(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if not is_prime(n)]


def _finish(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} - {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:20])


def _prime_powers(limit: int) -> list[tuple[int, int]]:
    out = []
    for p in range(2, int(limit**0.5) + 1):
        if not is_prime(p):
            continue
        t = 2
        while p**t <= limit:
            out.append((p, t))
            t += 1
    return sorted(out, key=lambda pt: pt[0] ** pt[1])


def test_criterion_1_oracle_equivalence():
    failures = []
    started = time.time()
    worst = 0.0
    for n in _composites(4, 500):
        red = reduced_spectrum(n).total
        brute = brute_spectrum(n)
        dev = max_deviation(red, brute)
        tol = 1e-8 * max(1.0, red.max_value)
        if dev is None:
            failures.append(f"n={n}: size differs from {len(brute)} oracle values")
        elif dev > tol:
            failures.append(f"n={n}: deviation {dev:.3e} > {tol:.3e}")
        else:
            worst = max(worst, dev)
    elapsed = time.time() - started
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _finish(
        1,
        f"reduced vs brute over [4,500], worst deviation {worst:.3e}, "
        f"{elapsed:.1f}s",
        failures,
    )


def test_criterion_2_worked_examples():
    failures = []

    total15 = reduced_spectrum(15).total
    if total15.pairs() != [(0.0, 1), (2.0, 3), (4.0, 1), (6.0, 1)]:
        failures.append(f"n=15 spectrum {total15.pairs()}")
    if total15.max_value != 6.0 or total15.second_smallest() != 2.0:
        failures.append("n=15 lambda/mu mismatch")

    g18 = build_divisor_graph(18)
    names = class_names(g18)
    if names != ["K̄_6", "K̄_2", "K_2", "K_1"]:
        failures.append(f"n=18 class structure {names}")
    if g18.vertices != (2, 3, 6, 9) or g18.edges() != [(2, 9), (3, 6), (6, 9)]:
        failures.append("divisor graph of 18 is not the path 2-9-6-3")

    for p, q in [(2, 3), (3, 2), (2, 5), (5, 2), (3, 5)]:
        n = p * p * q
        printed = (
            1,
            -(p * p + p * q + q - 3),
            (p * q - 1) * (p * p + q - 2) + (p - 1) * (q - 1),
            -(p - 1) * (q - 1) * (p * p + p * q - p - 1),
            0,
        )
        computed = char_poly_integer(weighted_laplacian(build_divisor_graph(n)))
        if computed.coefficients != printed:
            failures.append(
                f"(p,q)=({p},{q}): {computed.coefficients} != {printed}"
            )

    _finish(2, "worked examples n=15, n=18 and the quartic family", failures)


def test_criterion_3_prime_power_closed_forms():
    failures = []
    checked = 0
    for p, t in _prime_powers(4096):
        n = p**t
        closed = prime_power_spectrum(p, t)
        red = reduced_spectrum(n).total
        if closed.pairs() != red.pairs():
            failures.append(f"n={n}: closed form != reduced")
        if not is_integral(red):
            failures.append(f"n={n}: reduced spectrum did not snap to integers")
        # the quotient part of the closed form, from the integer char-poly
        # with the closed-form shortcut bypassed: 0 and p^i - 1, i != t // 2
        roots = {0} | {p**i - 1 for i in range(1, t) if i != t // 2}
        poly = char_poly_integer(weighted_laplacian(build_divisor_graph(n)))
        found, complete = integer_roots_complete(poly, roots)
        if not complete or found != dict.fromkeys(roots, 1):
            failures.append(f"n={n}: integer char-poly roots {dict(found)}")
        if p ** (t - 1) - 1 <= 1200:
            brute = brute_spectrum(n)
            dev = max_deviation(closed, brute)
            tol = 1e-8 * max(1.0, closed.max_value)
            if dev is None or dev > tol:
                failures.append(f"n={n}: brute disagrees ({dev})")
        checked += 1
    _finish(
        3,
        f"{checked} prime powers up to 4096: reduced, brute, integer char-poly",
        failures,
    )


def test_criterion_4_characterization_sweeps():
    failures = []
    started = time.time()
    for n in _composites(4, 2000):
        assembly = reduced_spectrum(n)
        total = assembly.total
        lam = total.max_value
        tol = 1e-8 * max(1.0, lam)
        numeric_lambda_order = abs(lam - sum(assembly.graph.weights)) <= tol
        fact = factorize(n)
        if numeric_lambda_order != complement_disconnected(fact):
            failures.append(f"n={n}: lambda=|V| predicate mismatch")
        mu = total.second_smallest()
        kappa = degree_extremes(fact)[0]
        if mu is None:
            numeric_mu_kappa = False
        else:
            numeric_mu_kappa = abs(mu - kappa) <= 1e-8 * max(1.0, abs(mu))
        if numeric_mu_kappa != mu_equals_kappa(fact):
            failures.append(f"n={n}: mu=kappa predicate mismatch")
    elapsed = time.time() - started
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    _finish(
        4,
        f"characterizations over [4,2000] on the reduced path, {elapsed:.1f}s",
        failures,
    )


def test_criterion_5_quotient_extremes():
    failures = []
    for n in _composites(4, 2000):
        fact = factorize(n)
        if fact.is_prime_power:
            continue
        assembly = reduced_spectrum(n)
        lam = assembly.total.max_value
        if abs(lam - assembly.quotient.max_value) > 1e-8 * max(1.0, lam):
            failures.append(f"n={n}: lambda not the largest quotient eigenvalue")
        if fact.is_product_of_two_distinct_primes:
            continue
        mu = assembly.total.second_smallest()
        q2 = assembly.quotient.second_smallest()
        if mu is None or q2 is None or abs(mu - q2) > 1e-8 * max(1.0, abs(mu)):
            failures.append(f"n={n}: mu not the second smallest quotient eigenvalue")
    _finish(5, "mu and lambda read off the quotient matrix over [4,2000]", failures)


def test_criterion_6_structural_invariants():
    failures = []
    for n in _composites(4, 1000):
        assembly = reduced_spectrum(n)
        expected = n - euler_phi(n) - 1
        if sum(assembly.graph.weights) != expected:
            failures.append(f"n={n}: vertex count")
        if assembly.total.total_multiplicity != expected:
            failures.append(f"n={n}: multiplicity sum")
        if zero_multiplicity(assembly.total) != 1:
            failures.append(f"n={n}: zero multiplicity")
        oracle, cls, expanded = expand_classes(n)
        degree_sum = sum(degrees(oracle))
        if abs(value_sum(assembly.total) - degree_sum) > 1e-8 * max(1.0, degree_sum):
            failures.append(f"n={n}: trace != 2|E|")
        if edge_count_doubled(assembly) != degree_sum:
            failures.append(f"n={n}: reduced degree sum != oracle degree sum")
        if np.bincount(cls).tolist() != list(assembly.graph.weights):
            failures.append(f"n={n}: class sizes != divisor weights")
        if not np.array_equal(expanded, oracle.adjacency):
            failures.append(f"n={n}: class expansion differs from the oracle")
    _finish(6, "structural invariants over [4,1000]", failures)


def test_criterion_7_bounds_and_kappa():
    failures = []
    for n in _composites(4, 1000):
        total = reduced_spectrum(n).total
        lam = total.max_value
        z = total.total_multiplicity
        tol = 1e-8 * max(1.0, lam)
        if lam > z + tol:
            failures.append(f"n={n}: lambda exceeds |V|")
        oracle_degrees = degrees(build_zero_divisor_graph(n))
        if z >= 2:
            delta_max = max(oracle_degrees)
            if lam < delta_max + 1 - tol:
                failures.append(f"n={n}: lambda below Delta+1")
            equality = abs(lam - (delta_max + 1)) <= tol
            if equality != (delta_max == z - 1):
                failures.append(f"n={n}: Delta+1 equality characterization")
        if degree_extremes(factorize(n))[0] != min(oracle_degrees):
            failures.append(f"n={n}: delta closed form != oracle min degree")
    _finish(7, "spectral bounds and kappa over [4,1000]", failures)


def test_criterion_8_reduction_payoff():
    failures = []
    n = 30030
    started = time.time()
    assembly = reduced_spectrum(n)
    elapsed = time.time() - started
    if elapsed >= 1.0:
        failures.append(f"reduced path took {elapsed:.2f}s")
    if len(assembly.graph.vertices) != 62:
        failures.append(f"k = {len(assembly.graph.vertices)}")
    expected = n - euler_phi(n) - 1
    if assembly.total.total_multiplicity != expected:
        failures.append("multiplicity sum != n - phi(n) - 1")
    trace = edge_count_doubled(assembly)
    if abs(value_sum(assembly.total) - trace) > 1e-8 * max(1.0, trace):
        failures.append("trace identity")
    try:
        brute_spectrum(n)
        failures.append("oracle unexpectedly ran above its cap")
    except OracleCapError:
        pass
    _finish(
        8,
        f"n=30030 reduced in {elapsed * 1000:.0f}ms, oracle capped",
        failures,
    )
