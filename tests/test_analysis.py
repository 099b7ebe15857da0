import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import zdgspec.join_spectrum
from zdgspec.analysis import (
    analyze,
    analyze_range,
    complement_disconnected,
    degree_extremes,
    lambda_from_quotient,
    mu_equals_kappa,
    mu_from_quotient,
)
from zdgspec.divisor_graph import require_composite, vertex_count
from zdgspec.errors import EmptyGraphError
from zdgspec.join_spectrum import class_pairs, reduced_spectrum
from zdgspec.numtheory import euler_phi, factorize, is_prime
from zdgspec.zdg_explicit import build_zero_divisor_graph

from helpers import (
    class_degrees,
    degrees,
    dense_pool,
    edge_count_doubled,
    reduced_report,
)

composite = st.integers(min_value=4, max_value=500).filter(lambda n: not is_prime(n))


@pytest.mark.parametrize("n", [3**5, 7 * 11, 2**2 * 7 * 11])
def test_factorize_calls_per_analysis(n):
    # n is factored once, by its refusal in assemble_range, whose
    # factorization every closed-form invariant and the divisor graph read;
    # 308 adds the exclusion prime's check in the residue kernel
    calls = {3**5: 1, 7 * 11: 1, 2**2 * 7 * 11: 2}
    before = factorize.cache_info()
    next(analyze_range([n]))
    after = factorize.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == calls[n]


def test_algebraic_connectivity_examples():
    assert analyze(15).mu == 2.0
    assert analyze(9).mu == 2.0  # K_2: mu equals the order
    mu12 = analyze(12).mu
    assert 0.6 < mu12 < 0.7
    assert analyze(4).mu is None


def test_spectral_radius_examples():
    assert analyze(15).lambda_ == 6.0
    assert analyze(16).lambda_ == 7.0
    assert analyze(4).lambda_ == 0.0


def test_vertex_connectivity_examples():
    # kappa is the least degree delta: p - 1, and p - 2 for n = p^2
    assert analyze(12).kappa == degree_extremes(factorize(12))[0] == 1
    assert analyze(49).kappa == degree_extremes(factorize(49))[0] == 5
    assert analyze(8).kappa == degree_extremes(factorize(8))[0] == 1
    with pytest.raises(EmptyGraphError):
        require_composite(13)


def test_laplacian_integral_examples():
    assert analyze(15).laplacian_integral
    assert analyze(16).laplacian_integral
    assert not analyze(12).laplacian_integral


def test_analyze_builds_divisor_graph_once(monkeypatch):
    built = []
    real = zdgspec.join_spectrum.build_divisor_graph

    def counting(fact):
        g = real(fact)
        built.append(g.n)
        return g

    monkeypatch.setattr(zdgspec.join_spectrum, "build_divisor_graph", counting)
    assert analyze(30).laplacian_integral is False
    assert built == [30]


def test_predicate_examples():
    assert complement_disconnected(factorize(15))
    assert not complement_disconnected(factorize(12))
    assert not complement_disconnected(factorize(4))

    assert mu_equals_kappa(factorize(15))
    assert mu_equals_kappa(factorize(8))
    assert not mu_equals_kappa(factorize(12))
    assert not mu_equals_kappa(factorize(9))  # complete graph: mu = kappa + 1
    assert not mu_equals_kappa(factorize(4))  # mu undefined on one vertex


def _quotient_extremes(n):
    report = analyze(n)
    return report.mu_from_quotient, report.lambda_from_quotient


def test_quotient_extremes_examples():
    assert _quotient_extremes(12) == (True, True)
    assert _quotient_extremes(18) == (True, True)
    # pq: lambda = p+q-2 always sits in the 2x2 quotient, mu = p-1 never
    assert _quotient_extremes(15) == (False, True)
    # the whole spectrum of 4 is {0}, and mu is undefined on one vertex
    assert _quotient_extremes(4) == (False, True)


def test_quotient_flags_match_the_numeric_comparison():
    # the flags are number theory on the factorization; the strict numeric
    # comparison of reduced_spectrum(n)'s total against its coalesced
    # quotient, within 1e-8 relative, must agree on every composite
    # n <= 2000 and every n <= 10^4 of 28 to 46 proper divisors
    ns = [n for n in range(4, 2001) if not is_prime(n)] + dense_pool()
    for n, (report, _, _) in zip(ns, analyze_range(ns)):
        numeric, _ = reduced_report(n)
        flags = (report.mu_from_quotient, report.lambda_from_quotient)
        assert flags == (numeric.mu_from_quotient, numeric.lambda_from_quotient), n


@pytest.mark.parametrize("t", range(2, 8))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_flags_of_prime_powers(p, t):
    # lambda = p^(t-1) - 1 lies in the quotient iff t >= 3 (or n = 4, whose
    # spectrum is {0}), mu = p - 1 iff t >= 4; the numeric comparison agrees
    n = p**t
    fact = factorize(n)
    expected = (t >= 4, t >= 3 or n == 4)
    assert (mu_from_quotient(fact), lambda_from_quotient(fact)) == expected
    report, numeric = analyze(n), reduced_report(n)[0]
    assert (report.mu_from_quotient, report.lambda_from_quotient) == expected
    assert (numeric.mu_from_quotient, numeric.lambda_from_quotient) == expected


def test_quotient_flags_at_a_near_tie():
    # 6399 = 3^4 * 79: lambda is the quotient's 2132.00198..., 0.00198 above
    # the class value 2132 of n/3; both flags hold with no tolerance, as the
    # numeric comparison has them
    report, assembly = analyze(6399), reduced_spectrum(6399)
    assert (2132, 1) in class_pairs(assembly.graph)
    assert report.lambda_ == assembly.quotient.max_value
    assert 0.00197 < report.lambda_ - 2132 < 0.00199
    assert report.mu_from_quotient and report.lambda_from_quotient
    assert reduced_report(6399)[0] == report


@given(composite)
@settings(max_examples=60, deadline=None)
def test_lambda_equals_order_numeric(n):
    report = analyze(n)
    numeric = abs(report.lambda_ - report.vertex_count) <= 1e-8 * max(
        1.0, report.lambda_
    )
    assert numeric == report.lambda_equals_order == report.complement_disconnected


@given(composite)
@settings(max_examples=60, deadline=None)
def test_mu_equals_kappa_numeric(n):
    report = analyze(n)
    if report.mu is None:
        assert not report.mu_equals_kappa
        return
    numeric = abs(report.mu - report.kappa) <= 1e-8 * max(1.0, abs(report.mu))
    assert numeric == report.mu_equals_kappa


@given(composite)
@settings(max_examples=60, deadline=None)
def test_mu_bounded_by_kappa(n):
    report = analyze(n)
    if report.mu is None:
        return
    root = math.isqrt(n)
    complete = root * root == n and is_prime(root)
    slack = 1 if complete else 0
    assert -1e-9 <= report.mu <= report.kappa + slack + 1e-8 * max(1.0, report.mu)


@given(composite)
@settings(max_examples=60, deadline=None)
def test_lambda_bounds(n):
    report = analyze(n)
    tol = 1e-8 * max(1.0, report.lambda_)
    assert report.lambda_ <= report.vertex_count + tol
    if report.vertex_count >= 2:
        assert report.lambda_ >= report.Delta_max + 1 - tol
        equality = abs(report.lambda_ - (report.Delta_max + 1)) <= tol
        assert equality == (report.Delta_max == report.vertex_count - 1)


@given(composite)
@settings(max_examples=40, deadline=None)
def test_degrees_match_oracle(n):
    report = analyze(n)
    oracle = degrees(build_zero_divisor_graph(n))
    assert report.delta_min == min(oracle)
    assert report.Delta_max == max(oracle)
    assert report.kappa == min(oracle)
    assert edge_count_doubled(reduced_spectrum(n)) == sum(oracle)


def test_closed_form_degrees_and_order_match_oracle():
    # delta = kappa, Delta = n/p - 1 - [p^2 | n] and |V| = n - phi(n) - 1,
    # against the degrees of the explicit graph itself
    for n in range(4, 1001):
        if is_prime(n):
            continue
        oracle = degrees(build_zero_divisor_graph(n))
        assert degree_extremes(factorize(n)) == (min(oracle), max(oracle)), n
        assert vertex_count(factorize(n)) == len(oracle), n


@given(composite)
@settings(max_examples=50, deadline=None)
def test_extremes_avoid_class_values(n):
    # when mu and lambda come from the quotient they stay clear of every
    # class-contributed value by more than the coalescing tolerance
    from zdgspec.numtheory import factorize

    fact = factorize(n)
    if fact.is_prime_power or fact.is_product_of_two_distinct_primes:
        return
    report, assembly = analyze(n), reduced_spectrum(n)
    class_values = {v for v, _ in class_pairs(assembly.graph)}
    for value in (report.mu, report.lambda_):
        for cv in class_values:
            assert abs(value - cv) > 1e-8


def test_report_fields_n15():
    report = analyze(15)
    assert report.vertex_count == 6
    assert report.mu == 2.0
    assert report.lambda_ == 6.0
    assert report.kappa == 2
    assert (report.delta_min, report.Delta_max) == (2, 4)
    assert report.laplacian_integral
    assert report.mu_equals_kappa
    assert not report.mu_from_quotient  # mu is only read off the quotient when n is not pq
    assert report.lambda_from_quotient


def test_class_degree_helper():
    degs = class_degrees(reduced_spectrum(18).graph)
    # A_2 sees A_9 (1); A_3 sees A_6 (2); A_6 is complete of size 2 (3+1);
    # A_9 is a complete singleton seeing A_2 and A_6 (8)
    assert degs == [1, 2, 4, 8]
    assert degree_extremes(factorize(18)) == (1, 8)


def _closed_family_sample() -> list[int]:
    """Every p^t and pq in [4, 20000], every p^t <= 10^7, and 400 seeded
    pq <= 10^7."""
    ns = set()
    for n in range(4, 20001):
        fact = factorize(n)
        if fact.is_prime_power and not fact.is_prime:
            ns.add(n)
        elif fact.is_product_of_two_distinct_primes:
            ns.add(n)
    for p in range(2, math.isqrt(10**7) + 1):
        if is_prime(p):
            ns.update(p**t for t in range(2, 24) if p**t <= 10**7)
    rng = random.Random(2101)
    pq = set()
    while len(pq) < 400:
        p = rng.randrange(2, math.isqrt(10**7))  # p < q <= 10^7 / p
        q = rng.randrange(p + 1, 10**7 // p + 1)
        if is_prime(p) and is_prime(q):
            pq.add(p * q)
    return sorted(ns | pq)


def test_closed_route_equals_reduced_route():
    # the closed-form report and spectrum of p^t and pq, byte for byte what
    # the reduced route gives: every field of the report, and every entry's
    # value bits, multiplicity and exact flag
    ns = _closed_family_sample()
    assert 10**7 > max(ns) > 9 * 10**6 and 2**23 in ns and 3**14 in ns
    for n in ns:
        report, total, route = next(analyze_range([n]))
        reference, reference_total = reduced_report(n)
        assert route == "closed_form", n
        assert report == reference, n
        assert _entries(total) == _entries(reference_total), n


def _entries(spectrum):
    return [(e.value.hex(), e.multiplicity, e.exact) for e in spectrum.entries]


@pytest.mark.parametrize("n", [4, 9, 2**23, 15, 3137 * 3187])
def test_closed_route_builds_nothing_of_size_k(n, monkeypatch):
    def refused(*args):
        raise AssertionError("the closed route reached the divisor graph")

    for name in ("build_divisor_graph", "symmetric_eigenvalues", "char_poly_integer"):
        monkeypatch.setattr(zdgspec.join_spectrum, name, refused)
    report, _, route = next(analyze_range([n]))
    assert route == "closed_form" and report.laplacian_integral

