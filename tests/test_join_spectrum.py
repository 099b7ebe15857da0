from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdgspec.join_spectrum
from zdgspec import eigen
from zdgspec.analysis import analyze
from zdgspec.divisor_graph import build_divisor_graph, weighted_laplacian
from zdgspec.eigen import (
    EXCLUSION_PRIME,
    SpectrumMultiset,
    char_poly_integer,
    coalesce,
    integer_roots_complete,
    max_deviation,
)
from zdgspec.errors import EmptyGraphError, OracleCapError
from zdgspec.join_spectrum import (
    brute_spectrum,
    class_pairs,
    exact_total_spectrum,
    prime_power_spectrum,
    reduced_spectrum,
    residue_polynomials,
)
from zdgspec.numtheory import Factorization, euler_phi, is_prime
from zdgspec.zdg_explicit import build_zero_divisor_graph

from helpers import (
    degrees,
    evaluate,
    expand,
    is_integral,
    value_sum,
    zero_multiplicity,
)
from test_eigen import _spy_primes

composite = st.integers(min_value=4, max_value=400).filter(lambda n: not is_prime(n))


# ---------------------------------------------------------------------------
# class spectra


def test_class_contribution_pairs():
    # the class of d adds d - 1, phi(n/d) - 1 times, clique or not: at 18
    # the edgeless classes of 2 (6 vertices) and 3 (2) and the clique of 6
    # (2), while the singleton 9 adds nothing; 25 is the clique K_4, whose
    # value 4 is both d - 1 and the class size
    assert class_pairs(build_divisor_graph(18)) == [(1, 5), (2, 1), (5, 1)]
    assert class_pairs(build_divisor_graph(27)) == [(2, 5), (8, 1)]
    assert class_pairs(build_divisor_graph(25)) == [(4, 3)]
    assert class_pairs(build_divisor_graph(16)) == [(1, 3), (3, 1)]


def test_class_values_in_the_oracle_spectrum():
    # every class of w = phi(n/d) > 1 vertices adds d - 1 at least w - 1
    # times to the raw spectrum of the explicit graph, clique or not
    for n in range(4, 301):
        if is_prime(n):
            continue
        raw = brute_spectrum(n)
        for d in [d for d in range(2, n) if n % d == 0]:
            w = euler_phi(n // d)
            if w > 1:
                hits = np.count_nonzero(np.abs(raw - (d - 1)) <= 1e-9 * n)
                assert hits >= w - 1, (n, d)


# ---------------------------------------------------------------------------
# reduced path


def test_reduced_n15_paper_table():
    total = reduced_spectrum(15).total
    assert total.pairs() == [(0.0, 1), (2.0, 3), (4.0, 1), (6.0, 1)]
    assert is_integral(total)


def test_reduced_n18_class_part_and_quotient():
    assembly = reduced_spectrum(18)
    assert sorted(class_pairs(assembly.graph)) == [(1, 5), (2, 1), (5, 1)]
    # quotient: roots of x(x^3 - 14x^2 + 47x - 22), one zero plus three reals
    assert assembly.quotient.total_multiplicity == 4
    assert zero_multiplicity(assembly.quotient) == 1
    quotient_nonzero = [e.value for e in assembly.quotient.entries if e.value != 0]
    assert sum(quotient_nonzero) == pytest.approx(14.0)


def test_reduced_n4_single_vertex():
    total = reduced_spectrum(4).total
    assert total.pairs() == [(0.0, 1)]


def test_reduced_rejects_primes():
    with pytest.raises(EmptyGraphError):
        reduced_spectrum(11)
    with pytest.raises(OverflowError, match="more zero divisors than int64"):
        reduced_spectrum(2**65)


@pytest.mark.parametrize(
    "entry",
    [reduced_spectrum, exact_total_spectrum, brute_spectrum],
)
def test_entries_refuse_a_prime_or_n_below_4(entry):
    # the refusal comes first: never factorize's ValueError for n < 1
    for n in (0, -6, 1, 13):
        with pytest.raises(EmptyGraphError):
            entry(n)


@pytest.mark.parametrize(
    "entry", [analyze, reduced_spectrum, exact_total_spectrum, brute_spectrum]
)
def test_entries_take_integers_only(entry):
    # a float n is refused, not computed in floats; an integer type such as
    # np.int64 is taken as the Python int it equals
    with pytest.raises(TypeError):
        entry(12.0)
    got, want = entry(np.int64(30)), entry(30)
    if entry is brute_spectrum:
        assert np.array_equal(got, want)
    elif entry is reduced_spectrum:
        assert type(got.n) is int and got.total == want.total
        assert got.graph.vertices == want.graph.vertices
        assert all(type(d) is int for d in got.graph.vertices)
    else:
        assert got == want
        if entry is analyze:
            fields = (got.n, got.vertex_count, got.delta_min, got.Delta_max)
            assert all(type(x) is int for x in fields)


# 2^5 3^3 5^2 7 11 13 17 19, with 2302 proper divisors: past the order of
# the exact char-poly, yet its vertex count fits in int64
ORDER_2302 = 6983776800


def _no_divisors(self):
    raise AssertionError(f"divisors of {self.n} enumerated after a refusal")


@pytest.mark.parametrize(
    "entry", [build_divisor_graph, reduced_spectrum, exact_total_spectrum]
)
@pytest.mark.parametrize(
    "n, refusal, message",
    [
        (0, EmptyGraphError, "no zero divisors"),
        (3, EmptyGraphError, "no zero divisors"),
        (13, EmptyGraphError, "no zero divisors"),
        (3317044064679887385961981, OverflowError, "cannot prove"),  # psi_13
        (ORDER_2302, OverflowError, "order 2302 is too large"),
        (2**65, OverflowError, "more zero divisors than int64"),
        # past both the order and int64's vertex count: the order comes first
        (ORDER_2302 << 64, OverflowError, "order 26878 is too large"),
    ],
)
def test_int_entries_refuse_as_analyze_does(entry, n, refusal, message, monkeypatch):
    # one gate: the same check refuses n first, with the same exception
    # type and message, before a divisor, and so any k x k array, exists
    with pytest.raises(refusal, match=message) as expected:
        analyze(n)
    monkeypatch.setattr(Factorization, "divisors_with_exponents", _no_divisors)
    with pytest.raises(refusal) as refused:
        entry(n)
    assert str(refused.value) == str(expected.value)


@given(composite)
@settings(max_examples=60, deadline=None)
def test_count_identity(n):
    assembly = reduced_spectrum(n)
    assert assembly.total.total_multiplicity == n - euler_phi(n) - 1
    assert sum(assembly.graph.weights) == n - euler_phi(n) - 1


@given(composite)
@settings(max_examples=40, deadline=None)
def test_trace_identity_against_oracle_degrees(n):
    assembly = reduced_spectrum(n)
    degree_sum = sum(degrees(build_zero_divisor_graph(n)))
    assert value_sum(assembly.total) == pytest.approx(degree_sum, rel=1e-9, abs=1e-6)


def test_reduced_coalesces_pairs_not_vertices(monkeypatch):
    # 9699690 has 254 proper divisors but 8.04 million vertices
    lengths = []
    real = zdgspec.join_spectrum.coalesce

    def recording(values, *args, **kwargs):
        lengths.append(len(values))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(zdgspec.join_spectrum, "coalesce", recording)
    assembly = reduced_spectrum(9699690)
    k = len(assembly.graph.vertices)
    assert k == 254
    assert assembly.total.total_multiplicity == 9699690 - euler_phi(9699690) - 1
    assert lengths == [k]


@pytest.mark.parametrize("n", [18, 9699690, 9999930])
def test_reduced_makes_one_lapack_call(monkeypatch, n):
    # 18 returns LAPACK's values as they are; 9699690 and 9999930 are graded
    # and refine them from the eigenvectors of the same call
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    reduced_spectrum(n)
    assert calls == ["eigh"]


# Nonzero eigenvalues of the weighted quotient Laplacian of n = 9999930, from
# the exact integer matrix at 50 digits (mpmath.eig), rounded to 20.
QUOTIENT_9999930 = [
    "0.64820171148899880529",
    "1.2554360244485227643",
    "2.7417315987608652748",
    "4.7967622336348955615",
    "7.9135718590775324908",
    "17.643876815949366372",
    "333338.00022575815914",
    "666669.00013954088899",
    "999996.00003481080951",
    "1666655.9999878003878",
    "1999989.0000258667142",
    "3333311.0000048705153",
    "4999965.0000011091648",
]


def test_graded_quotient_keeps_relative_accuracy():
    # class sizes run from 1 to 2666640, so ||C|| is 6.7e6 and plain LAPACK
    # values would be off from the 11th significant digit on
    quotient = reduced_spectrum(9999930).quotient
    assert quotient.entries[0].value == 0.0
    assert quotient.entries[0].multiplicity == 1
    nonzero = expand(quotient)[1:]
    assert len(nonzero) == len(QUOTIENT_9999930)
    for got, ref in zip(nonzero, QUOTIENT_9999930):
        assert got == pytest.approx(float(ref), rel=1e-13)


def _assert_class_values_stand_apart(n):
    """Every class value c of n is certified not to be a quotient root (the
    residue char-poly is nonzero at c), so c must be one exact entry whose
    multiplicity is its classes' w - 1, and each quotient entry must reach
    the total unmerged."""
    assembly = reduced_spectrum(n)
    (residues,) = char_poly_integer([weighted_laplacian(assembly.graph)], EXCLUSION_PRIME)
    classes = Counter()
    for c, m in class_pairs(assembly.graph):
        assert evaluate(residues, c) != 0
        classes[c] += m
    total = {e.value: e for e in assembly.total.entries}
    assert len(total) == len(assembly.total.entries)
    for c, m in classes.items():
        assert (total[c].multiplicity, total[c].exact) == (m, True)
    assert all(total[e.value] == e for e in assembly.quotient.entries)
    assert len(total) == len(classes) + len(assembly.quotient.entries)


# n, a class value c with its multiplicity, and the quotient value just above c
# that a tolerance-chained merge used to fold into it
CLASS_VALUE_NEIGHBORS = [
    (32805, 3644, 5, 3644.000035),
    (73503, 24500, 1, 24500.000245),
    (81729, 27242, 1, 27242.0001527),
    (8100243, 2700080, 1, 2700080.0000015),
]


@pytest.mark.parametrize("n, c, mult, near", CLASS_VALUE_NEIGHBORS)
def test_class_value_not_merged_into_nearby_quotient_value(n, c, mult, near):
    _assert_class_values_stand_apart(n)
    total = reduced_spectrum(n).total
    [exact] = [e for e in total.entries if e.value == c]
    assert (exact.multiplicity, exact.exact) == (mult, True)
    [apart] = [e for e in total.entries if c < e.value < c + 1]
    assert apart.value == pytest.approx(near, abs=1e-7)
    assert (apart.multiplicity, apart.exact) == (1, False)


def test_lambda_is_the_quotient_value_above_a_class_value():
    # not the mean 27242.0000763 of it and the class value 27242
    assert analyze(81729).lambda_ == pytest.approx(27242.0001527, abs=1e-7)


@given(st.sampled_from([q for q in range(1009, 1301) if is_prime(q)]))
@settings(max_examples=25, deadline=None)
def test_class_values_stand_apart_on_3_to_the_4_times_q(q):
    # the quotient value next to a class value is about 0.15 / q above it
    _assert_class_values_stand_apart(81 * q)


@given(composite)
@settings(max_examples=60, deadline=None)
def test_zero_multiplicity_exactly_one(n):
    assert zero_multiplicity(reduced_spectrum(n).total) == 1


@given(composite)
@settings(max_examples=60, deadline=None)
def test_quotient_contributes_k_values(n):
    assembly = reduced_spectrum(n)
    k = len(assembly.graph.vertices)
    assert assembly.quotient.total_multiplicity == k
    assert zero_multiplicity(assembly.quotient) >= 1


@given(composite)
@settings(max_examples=60, deadline=None)
def test_classes_contribute_size_minus_one(n):
    g = reduced_spectrum(n).graph
    assert [m for _, m in class_pairs(g)] == [w - 1 for w in g.weights if w > 1]


# ---------------------------------------------------------------------------
# prime-power closed forms


def test_prime_power_fixtures():
    assert prime_power_spectrum(3, 2).pairs() == [(0.0, 1), (2.0, 1)]
    assert prime_power_spectrum(2, 2).pairs() == [(0.0, 1)]
    assert prime_power_spectrum(2, 3).pairs() == [(0.0, 1), (1.0, 1), (3.0, 1)]
    assert prime_power_spectrum(2, 4).pairs() == [(0.0, 1), (1.0, 4), (3.0, 1), (7.0, 1)]
    assert prime_power_spectrum(3, 5).pairs() == [
        (0.0, 1), (2.0, 54), (8.0, 17), (26.0, 6), (80.0, 2)
    ]
    assert prime_power_spectrum(3, 6).pairs() == [
        (0.0, 1), (2.0, 162), (8.0, 54), (26.0, 17), (80.0, 6), (242.0, 2)
    ]


def test_prime_power_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_power_spectrum(6, 2)
    with pytest.raises(ValueError):
        prime_power_spectrum(3, 1)
    # a probable prime past psi_13 is not proven prime, so it is refused
    with pytest.raises(OverflowError, match="cannot prove"):
        prime_power_spectrum(2**89 - 1, 2)


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(min_value=2, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_prime_power_total_multiplicity(p, t):
    assert prime_power_spectrum(p, t).total_multiplicity == p ** (t - 1) - 1


@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]))
@settings(max_examples=10, deadline=None)
def test_prime_power_triple_agreement(pt):
    p, t = pt
    n = p**t
    closed = prime_power_spectrum(p, t)
    red = reduced_spectrum(n).total
    assert closed.pairs() == red.pairs()
    brute = brute_spectrum(n)
    dev = max_deviation(closed, brute)
    assert dev is not None and dev <= 1e-8 * max(1.0, closed.max_value)


def test_prime_power_spectral_radius_is_order():
    # largest eigenvalue hits the vertex count for prime powers above 4
    for p, t in [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]:
        ms = prime_power_spectrum(p, t)
        assert ms.max_value == p ** (t - 1) - 1


# ---------------------------------------------------------------------------
# brute oracle


def test_brute_fixtures():
    raw = brute_spectrum(8)
    assert isinstance(raw, np.ndarray) and raw.dtype == np.float64
    assert raw.tolist() == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)
    assert coalesce(raw).pairs() == [(0.0, 1), (1.0, 1), (3.0, 1)]
    assert coalesce(brute_spectrum(9)).pairs() == [(0.0, 1), (2.0, 1)]


@pytest.mark.parametrize("n", [4, 8, 9, 36, 100, 210, 225])
def test_brute_is_the_raw_laplacian_spectrum(n):
    # the oracle's values are those of the textbook D - A to rounding; 4, 9
    # and 8 have 1, 2 and 3 vertices, 225 an even count and the rest odd
    adj = build_zero_divisor_graph(n).adjacency.astype(np.float64)
    whole = np.linalg.eigvalsh(np.diag(adj.sum(axis=1)) - adj)
    raw = brute_spectrum(n)
    assert len(raw) == n - euler_phi(n) - 1
    assert np.abs(raw - whole).max() <= 1e-12 * max(1.0, whole[-1])


def test_brute_refuses_labels_not_closed_under_negation(monkeypatch):
    real = zdgspec.join_spectrum.build_zero_divisor_graph

    def shifted(n, cap):
        g = real(n, cap)
        return g._replace(vertex_labels=tuple(x + 1 for x in g.vertex_labels))

    monkeypatch.setattr(zdgspec.join_spectrum, "build_zero_divisor_graph", shifted)
    with pytest.raises(ArithmeticError):
        brute_spectrum(36)


def test_brute_refuses_a_graph_without_twins(monkeypatch):
    # one symmetric pair inside the first half of 36's 23 vertices flipped,
    # labels untouched: 2 and 34 are no longer twins, which the oracle checks
    # on the graph rather than assuming it
    real = zdgspec.join_spectrum.build_zero_divisor_graph

    def flipped(n, cap):
        g = real(n, cap)
        adj = g.adjacency.copy()
        adj[0, 3] = adj[3, 0] = not adj[0, 3]
        return g._replace(adjacency=adj)

    monkeypatch.setattr(zdgspec.join_spectrum, "build_zero_divisor_graph", flipped)
    with pytest.raises(ArithmeticError, match="twins"):
        brute_spectrum(36)


def test_brute_cap_error():
    with pytest.raises(OracleCapError):
        brute_spectrum(420, cap=50)


@given(composite)
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_sampled(n):
    red = reduced_spectrum(n).total
    brute = brute_spectrum(n)
    dev = max_deviation(red, brute)
    assert dev is not None and dev <= 1e-8 * max(1.0, red.max_value)


# ---------------------------------------------------------------------------
# exact route


def test_exact_total_spectrum_integral_cases():
    assert exact_total_spectrum(16).pairs() == [(0.0, 1), (1.0, 4), (3.0, 1), (7.0, 1)]
    assert exact_total_spectrum(15).pairs() == [(0.0, 1), (2.0, 3), (4.0, 1), (6.0, 1)]
    assert exact_total_spectrum(12) is None
    # n = 2p is the star K_{1,p-1}
    assert exact_total_spectrum(2 * 1000003).pairs() == [
        (0.0, 1),
        (1.0, 1000001),
        (1000003.0, 1),
    ]


def test_exact_total_spectrum_reuses_assembly(monkeypatch):
    # one assembly carries its residues, as assemble_range yields it, and
    # the other computes its own
    assemblies = {n: reduced_spectrum(n) for n in (12, 15)}
    (residues,) = residue_polynomials([assemblies[12].graph])
    assemblies[12] = assemblies[12]._replace(residues=residues)

    def no_build(n):
        raise AssertionError("divisor graph built again")

    monkeypatch.setattr(zdgspec.join_spectrum, "build_divisor_graph", no_build)
    assert exact_total_spectrum(assemblies[12]) is None
    assert exact_total_spectrum(assemblies[15]).pairs() == [
        (0.0, 1),
        (2.0, 3),
        (4.0, 1),
        (6.0, 1),
    ]


def test_assembly_decides_as_its_n():
    # every composite n <= 2000, p^t and pq included: the reduced route's
    # exact answer is the closed form's where one exists
    for n in range(4, 2001):
        if not is_prime(n):
            assert exact_total_spectrum(reduced_spectrum(n)) == exact_total_spectrum(n)


@given(composite)
@settings(max_examples=30, deadline=None)
def test_exact_route_agrees_with_float_route(n):
    exact = exact_total_spectrum(n)
    total = reduced_spectrum(n).total
    if exact is None:
        assert not is_integral(total)
    else:
        dev = max_deviation(exact, expand(total))
        assert dev is not None and dev <= 1e-8 * max(1.0, total.max_value)


# 720, 840, 1260, 1680 and 2520 are the least n with k = 28, 30, 34, 38 and
# 46 proper divisors, the orders the dense-quotient benchmark draws
@pytest.mark.parametrize("n", [720, 840, 1260, 1680, 2520, 30030, 8648640])
def test_non_integral_settled_by_one_prime(monkeypatch, n):
    seen = _spy_primes(monkeypatch)
    assert exact_total_spectrum(n) is None
    assert seen == [eigen.EXCLUSION_PRIME]


def test_exact_total_spectrum_checks_its_residues():
    # the residues of one graph are checked against its order and modulus
    polys = residue_polynomials([build_divisor_graph(n) for n in (12, 72)])
    assembly = reduced_spectrum(72)
    assert exact_total_spectrum(assembly._replace(residues=polys[1])) is None
    with pytest.raises(ValueError):
        exact_total_spectrum(assembly._replace(residues=polys[0]))
    wrong_modulus = polys[1]._replace(modulus=EXCLUSION_PRIME - 2)
    with pytest.raises(ValueError):
        exact_total_spectrum(assembly._replace(residues=wrong_modulus))


INTEGRAL_FAMILIES = [
    (2**20, prime_power_spectrum(2, 20).pairs()),
    (2 * 1000003, [(0.0, 1), (1.0, 1000001), (1000003.0, 1)]),
]


@pytest.mark.parametrize("n, expected", INTEGRAL_FAMILIES)
def test_integral_families_reach_no_elimination(monkeypatch, n, expected):
    seen = _spy_primes(monkeypatch)
    assert exact_total_spectrum(n).pairs() == expected
    assert seen == []


@pytest.mark.parametrize("n, expected", INTEGRAL_FAMILIES)
def test_integral_still_lifted_in_full(monkeypatch, n, expected):
    # the lift, called on the quotient Laplacian itself, runs over the first
    # table primes that Hadamard's bound asks for and deflates to the
    # closed form
    seen = _spy_primes(monkeypatch)
    assembly = reduced_spectrum(n)
    poly = char_poly_integer(weighted_laplacian(assembly.graph))
    assert seen and seen == list(eigen._word_primes()[: len(seen)])
    candidates = {round(v) for v in assembly.quotient_values}
    roots, complete = integer_roots_complete(poly, candidates)
    assert complete
    pairs = list(roots.items()) + class_pairs(assembly.graph)
    assert SpectrumMultiset.from_pairs(pairs).pairs() == expected
