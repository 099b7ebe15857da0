import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zdgspec import eigen
from zdgspec.divisor_graph import build_divisor_graph, weighted_laplacian
from zdgspec.eigen import (
    IntPolynomial,
    SpectrumEntry,
    SpectrumMultiset,
    char_poly_integer,
    coalesce,
    integer_roots_complete,
    max_deviation,
    symmetric_eigenvalues,
)
from zdgspec.numtheory import is_prime

from helpers import degree, evaluate, is_integral

small_dim = st.integers(min_value=1, max_value=6)


def int_matrix(dim: int, bound: int):
    entry = st.integers(min_value=-bound, max_value=bound)
    return st.lists(
        st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(lambda rows: np.array(rows, dtype=np.int64))


def symmetric_int_matrix(dim: int):
    return int_matrix(dim, 9).map(lambda a: a + a.T)


# ---------------------------------------------------------------------------
# floating-point solver


def test_trivial_eigenvalues():
    assert symmetric_eigenvalues(np.array([[0.0]])) == [0.0]
    vals = symmetric_eigenvalues(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert vals == pytest.approx([0.0, 2.0])


def test_rejects_nonsymmetric_and_bad_shape():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[-np.inf, 0.0], [0.0, 1.0]]), vectors=True)
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=True)


def test_accepts_asymmetry_below_the_tolerance():
    # not exactly symmetric, so the tolerance decides: off by 3e-12, within
    # SYMMETRY_RTOL of the largest |a_ij|, which is 4 = -min(a), not max(a)
    a = np.array([[2.0, -1.0], [-1.0, -4.0]])
    a[0, 1] += 3e-12
    assert (a != a.T).any()
    root = math.sqrt(10)
    assert symmetric_eigenvalues(a) == pytest.approx([-1 - root, -1 + root])
    a[0, 1] += 2e-12
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigenvalues(a)


@given(small_dim.flatmap(symmetric_int_matrix))
@settings(max_examples=60, deadline=None)
def test_eigenvectors_come_with_the_values(m):
    a = m.astype(float)
    vals, vecs = symmetric_eigenvalues(a, vectors=True)
    scale = 1.0 + np.abs(a).sum()
    assert isinstance(vals, np.ndarray) and (np.diff(vals) >= 0).all()
    assert vals == pytest.approx(symmetric_eigenvalues(a), abs=1e-12 * scale)
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-12 * scale)
    assert np.allclose(vecs.T @ vecs, np.eye(len(vals)), atol=1e-12)


@given(small_dim.flatmap(symmetric_int_matrix))
@settings(max_examples=120, deadline=None)
def test_eigenvalue_sum_matches_trace(m):
    vals = symmetric_eigenvalues(m.astype(float))
    trace = float(np.trace(m))
    assert abs(sum(vals) - trace) <= 1e-8 * (1.0 + abs(trace))


# ---------------------------------------------------------------------------
# coalescing


def test_coalesce_groups_and_snaps():
    ms = coalesce([0.0, 1.0000000001, 0.9999999999])
    assert ms.pairs() == [(0.0, 1), (1.0, 2)]
    assert all(e.exact for e in ms.entries)


def test_coalesce_plain_multiplicities():
    ms = coalesce([2.0, 2.0, 2.0, 4.0])
    assert ms.pairs() == [(2.0, 3), (4.0, 1)]


def test_coalesce_keeps_distinct_values_apart():
    ms = coalesce([1.0, 1.5, 2.0])
    assert ms.pairs() == [(1.0, 1), (1.5, 1), (2.0, 1)]
    assert [e.exact for e in ms.entries] == [True, False, True]


def test_coalesce_relative_tolerance_chains():
    # gaps of 5e8*tol*|value| split, gaps below tol*|value| chain
    base = 1e6
    ms = coalesce([base, base * (1 + 5e-9), base * 1.5])
    assert ms.total_multiplicity == 3
    assert len(ms.entries) == 2
    assert ms.entries[0].multiplicity == 2


def test_coalesce_non_integer_representative_not_exact():
    ms = coalesce([0.5, 0.5])
    assert ms.pairs() == [(0.5, 2)]
    assert not ms.entries[0].exact
    assert not is_integral(ms)


def test_coalesce_lists_each_exact_value_once():
    # the gap of 1e-6 is past tol, so two groups form, but both snap to 5
    ms = coalesce([0.0, 5 - 5e-7, 5 + 5e-7])
    assert ms.pairs() == [(0.0, 1), (5.0, 2)]
    assert all(e.exact for e in ms.entries)


def _just_past(prev: float, excess: float) -> float:
    # the least float found above prev by a gap of (1 + excess) times the
    # tolerance that still splits a group there
    tol = eigen.COALESCE_TOL
    value = prev + tol * max(1.0, abs(prev)) * (1 + excess)
    while not value - prev > tol * max(1.0, -prev, value):
        value = math.nextafter(value, math.inf)
    return value


@st.composite
def _near_groups(draw) -> tuple[list[float], int]:
    """Runs of equal or near-equal values, each within the tolerance of the
    value before it, and each run just past the tolerance above the one
    before; the first starts within the snap of an integer, at a tiny
    negative, or anywhere. Returns the values and the number of runs."""
    start = draw(
        st.one_of(
            st.builds(
                lambda c, d: c + d,
                st.integers(-60, 10**6),
                st.floats(-1e-6, 1e-6),
            ),
            st.floats(-1e-6, 0.0),
            st.floats(-1e9, 1e9),
        )
    )
    runs = draw(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 40), st.sampled_from([500, 1999, 2000])),
                st.sampled_from([0.0, 1e-9, 0.5, 0.999]),
                st.sampled_from([1e-7, 1e-3, 0.5]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    tol = eigen.COALESCE_TOL
    values = [start]
    for i, (size, step, excess) in enumerate(runs):
        if i:
            values.append(_just_past(values[-1], excess))
        for _ in range(size - 1):
            prev = values[-1]
            values.append(prev + step * tol * max(1.0, abs(prev)))
    return values, len(runs)


@given(_near_groups())
@settings(max_examples=150, deadline=None)
def test_coalesce_entries_strictly_ascend(case):
    # at the one tolerance no group mean passes the next one's, and two
    # groups that snap to one integer share its entry
    values, runs = case
    ms = coalesce(values)
    got = [e.value for e in ms.entries]
    assert all(a < b for a, b in zip(got, got[1:]))
    exact = [e.value for e in ms.entries if e.exact]
    assert len(set(exact)) == len(exact)
    assert all(v.is_integer() for v in exact)
    assert ms.total_multiplicity == len(values)
    assert len(ms.entries) <= runs


def test_max_deviation_compares_each_eigenvalue():
    ms = SpectrumMultiset.from_pairs([(0, 1), (2, 2)])
    assert max_deviation(ms, [0.0, 2.0, 2.0]) == 0.0
    # the mean of the pair is 2, but each value is 0.25 away from it
    assert max_deviation(ms, np.array([1e-12, 1.75, 2.25])) == 0.25
    assert max_deviation(ms, [0.0, 2.0]) is None
    assert max_deviation(ms, [0.0, 2.0, 2.0, 2.0]) is None


def test_from_pairs_sorts_and_sums_equal_values():
    # unsorted pairs, equal values summed into one exact entry, a zero
    # multiplicity dropped
    ms = SpectrumMultiset.from_pairs([(5, 2), (3, 4), (3, 0), (0, 1), (5, 1), (3, 1)])
    assert [(e.value, e.multiplicity, e.exact) for e in ms.entries] == [
        (0.0, 1, True),
        (3.0, 5, True),
        (5.0, 3, True),
    ]
    # a float never joins an integer, even one of equal value
    inexact = SpectrumMultiset((SpectrumEntry(3.0, 1, False),))
    assert inexact.plus_exact([(3, 2)]).entries == (
        SpectrumEntry(3.0, 1, False),
        SpectrumEntry(3.0, 2, True),
    )


def test_second_smallest_counts_multiplicity():
    assert coalesce([0.0, 2.0, 2.0]).second_smallest() == 2.0
    assert coalesce([0.0, 0.0, 3.0]).second_smallest() == 0.0
    assert coalesce([0.0]).second_smallest() is None


# ---------------------------------------------------------------------------
# exact characteristic polynomials


def test_char_poly_fixtures():
    assert char_poly_integer(weighted_laplacian(build_divisor_graph(12))).coefficients == (
        1,
        -10,
        27,
        -14,
        0,
    )
    assert char_poly_integer(weighted_laplacian(build_divisor_graph(18))).coefficients == (
        1,
        -14,
        47,
        -22,
        0,
    )
    assert char_poly_integer(np.array([[0]])).coefficients == (1, 0)


def test_char_poly_2x2_by_hand():
    # det(xI - M) = x^2 - (a+d)x + (ad - bc)
    m = np.array([[3, 5], [-2, 7]])
    assert char_poly_integer(m).coefficients == (1, -10, 31)


@given(small_dim.flatmap(symmetric_int_matrix))
@settings(max_examples=80, deadline=None)
def test_char_poly_matches_numeric_oracle(m):
    # np.poly reconstructs coefficients from LAPACK eigenvalues
    exact = char_poly_integer(m).coefficients
    approx = np.poly(m.astype(float))
    scale = max(1.0, max(abs(c) for c in exact))
    assert np.allclose(exact, approx, atol=1e-6 * scale)


def fraction_det_shifted(m, s: int) -> int:
    """det(sI - M) by Gaussian elimination over the rationals."""
    k = len(m)
    a = [[Fraction(s * (i == j) - int(m[i][j])) for j in range(k)] for i in range(k)]
    det = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, k):
            if not a[r][c]:
                continue
            f = a[r][c] / a[c][c]
            for j in range(c, k):
                a[r][j] -= f * a[c][j]
    return int(det)


@given(
    st.integers(min_value=1, max_value=10).flatmap(lambda d: int_matrix(d, 10**9)),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_char_poly_evaluates_to_determinant(m, s):
    assert evaluate(char_poly_integer(m), s) == fraction_det_shifted(m, s)


def _spy_primes(monkeypatch) -> list[int]:
    """Record the prime each call of the per-prime kernel is handed."""
    seen: list[int] = []
    real = eigen._char_poly_mod

    def spy(a, p, orders=None):
        seen.append(p)
        return real(a, p, orders)

    monkeypatch.setattr(eigen, "_char_poly_mod", spy)
    return seen


def test_char_poly_large_entries_prime_count(monkeypatch):
    seen = _spy_primes(monkeypatch)
    m = np.random.default_rng(5).integers(-(10**18), 10**18, size=(20, 20))
    poly = char_poly_integer(m)
    # 20 rows of norm 2^60.8 to 2^61.5: twice Hadamard's bound has 1225
    # bits, which 59 distinct primes below 2^21 cover and 58 do not
    assert len(seen) == len(set(seen)) == 59
    norms = (math.isqrt(sum(x * x for x in row)) for row in m.tolist())
    twice_bound = 2 * math.prod(2 + r for r in norms)
    assert twice_bound.bit_length() == 1225
    assert math.prod(seen[:-1]) < twice_bound < math.prod(seen)
    assert all(2**20 < p < 2**21 for p in seen)
    assert degree(poly) == 20
    for s in (0, 1, -2):
        assert evaluate(poly, s) == fraction_det_shifted(m, s)


def test_char_poly_needs_more_than_100_primes(monkeypatch):
    seen = _spy_primes(monkeypatch)
    m = np.random.default_rng(7).integers(-(2**62), 2**62, size=(44, 44))
    poly = char_poly_integer(m)
    assert len(seen) > 100
    for s in (0, 3):
        assert evaluate(poly, s) == fraction_det_shifted(m, s)


def test_char_poly_pivot_vanishing_modulo_one_prime():
    # m[1][0] is the largest table prime, always chosen; only modulo it does
    # the entry vanish, which the power sums of order 4 must not notice
    p = eigen._word_primes()[0]
    m = np.array(
        [[3, -1, 4, 1], [p, 5, -9, 2], [6, -5, 3, p], [5, 8, -9, 7]], dtype=np.int64
    )
    poly = char_poly_integer(m)
    for s in range(-2, 3):
        assert evaluate(poly, s) == fraction_det_shifted(m, s)


def test_char_poly_attains_hadamard_bound():
    # an order-8 Sylvester Hadamard matrix has orthogonal rows, so
    # det = prod of the row norms = (sqrt(8) * scale)^8 exactly; at this scale
    # the first product of table primes above the bound B stays below 2 det,
    # so only a modulus above 2B lifts the constant term with its sign
    h = np.array([[1]], dtype=np.int64)
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    scale = 4_400_000
    m = h * scale
    det = 8**4 * scale**8
    bound = (2 + math.isqrt(8 * scale**2)) ** 8
    product = 1
    for p in eigen._word_primes():
        if product > bound:
            break
        product *= p
    assert bound < product < 2 * det
    poly = char_poly_integer(m)
    assert poly.coefficients[-1] == det
    for s in (0, 1, -1):
        assert evaluate(poly, s) == fraction_det_shifted(m, s)


class _Eliminated(Exception):
    pass


def _forbid_elimination(monkeypatch) -> None:
    def no_elimination(a, p):
        raise _Eliminated

    monkeypatch.setattr(eigen, "_char_poly_mod", no_elimination)


def test_char_poly_refuses_bound_beyond_table(monkeypatch):
    _forbid_elimination(monkeypatch)
    # diagonal entries 2^62 - 2 give factors 2 + |d| = 2^62, so twice the
    # bound is 2^(1 + 62 * 717 + r) with the last entry 2^r - 2
    def matrix(r):
        return np.diag([2**62 - 2] * 717 + [2**r - 2]).astype(np.int64)

    with pytest.raises(_Eliminated):  # 2B has 44497 bits: accepted
        char_poly_integer(matrix(41))
    with pytest.raises(OverflowError):  # 44498 bits: refused
        char_poly_integer(matrix(42))


def test_char_poly_refuses_order_2048(monkeypatch):
    _forbid_elimination(monkeypatch)
    # a zero-stride view: refusing it must allocate nothing of order k^2
    m = np.broadcast_to(np.int64(0), (2048, 2048))
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            char_poly_integer(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_char_poly_modulo_prime_skips_bound(monkeypatch):
    # the bound guards only the lift: modulo one prime the order-718 matrix
    # that the lift refuses reaches elimination, while order 2048 does not
    _forbid_elimination(monkeypatch)
    m = np.diag([2**62 - 2] * 717 + [2**42 - 2]).astype(np.int64)
    with pytest.raises(_Eliminated):
        char_poly_integer(m, eigen.EXCLUSION_PRIME)
    with pytest.raises(OverflowError):
        char_poly_integer(
            np.broadcast_to(np.int64(0), (2048, 2048)), eigen.EXCLUSION_PRIME
        )


def test_exclusion_prime_is_first_table_prime():
    assert eigen.EXCLUSION_PRIME == eigen._word_primes()[0] == 2**21 - 9


@given(
    st.one_of(
        st.integers(min_value=1, max_value=93).flatmap(lambda d: int_matrix(d, 10**9)),
        small_dim.flatmap(symmetric_int_matrix),
    ).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sampled_from(
                [q for q in (2, 3, 7, 101, eigen.EXCLUSION_PRIME) if q > len(m)]
            ),
        )
    )
)
@example((np.array([[0, 1], [1, 0]]), 3))
@example((np.pad([[0, 1], [1, 0]], (0, 89)), 97))
@settings(max_examples=100, deadline=None)
def test_char_poly_modulo_prime_is_exact_reduced(mq):
    # each prime above the order; x^2 - 1 modulo an odd q is x^2 + q - 1,
    # which a trace check that reduces tr^2 - tr(M^2) = -2 modulo q before
    # halving reads as (q - 2) // 2, at any order
    m, q = mq
    residues = char_poly_integer(m, q)
    assert residues.modulus == q
    assert residues.coefficients == tuple(
        c % q for c in char_poly_integer(m).coefficients
    )


@given(
    st.lists(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda k: int_matrix(k, 2**40)
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([13, 101, eigen._word_primes()[-1], eigen.EXCLUSION_PRIME]),
)
@settings(max_examples=100, deadline=None)
def test_char_poly_stack_equals_each_lone_matrix(mats, q):
    # matrices of mixed orders up to 12, zero-padded into one stack, give
    # each member the polynomial it has alone, of its own order; the stack
    # mixes kernel step counts, which only makes each member's padding wider
    orders = [len(m) for m in mats]
    top = max(orders)
    stack = np.stack([np.pad(m, (0, top - len(m))) for m in mats])
    polys = char_poly_integer(stack, q, orders)
    assert polys == [char_poly_integer(m, q) for m in mats]


def test_char_poly_stack_argument_checks():
    stack = np.zeros((2, 3, 3), dtype=np.int64)
    q = eigen.EXCLUSION_PRIME
    assert [p.coefficients for p in char_poly_integer(stack, q)] == [(1, 0, 0, 0)] * 2
    assert [p.coefficients for p in char_poly_integer(stack, q, [1, 3])] == [
        (1, 0),
        (1, 0, 0, 0),
    ]
    with pytest.raises(ValueError):
        char_poly_integer(stack)  # a stack needs a modulus
    for orders in ([3], [1, 4], [-1, 2]):
        with pytest.raises(ValueError):
            char_poly_integer(stack, q, orders)


@pytest.mark.parametrize("modulus", [None, eigen.EXCLUSION_PRIME])
def test_char_poly_trace_check(monkeypatch, modulus):
    real = eigen._char_poly_mod

    def wrong_trace(a, p):
        out = real(a, p)
        out[-2] = (out[-2] + 1) % p
        return out

    monkeypatch.setattr(eigen, "_char_poly_mod", wrong_trace)
    with pytest.raises(ArithmeticError):
        char_poly_integer(np.array([[3, 5], [-2, 7]]), modulus)
    # an order whose trace product takes two chunks
    k = 91
    m = np.arange(k * k, dtype=np.int64).reshape(k, k) % 11 - 5
    with pytest.raises(ArithmeticError):
        char_poly_integer(m, modulus)


def hessenberg(a: np.ndarray, p: int) -> np.ndarray:
    """Upper Hessenberg form of the int64 residues a modulo the prime p.

    Returns a new k x k int64 array with entries in [0, p), similar to a
    modulo p. The pivot of column m - 1 is its first nonzero entry from row
    m down, swapped into row and column m.
    """
    h = a.copy()
    k = h.shape[0]
    for m in range(1, k - 1):
        if not h[m, m - 1]:
            below = np.flatnonzero(h[m + 1 :, m - 1])
            if not below.size:
                continue
            i = m + 1 + int(below[0])
            h[[m, i]] = h[[i, m]]
            h[:, [m, i]] = h[:, [i, m]]
        u = h[m + 1 :, m - 1] * pow(int(h[m, m - 1]), -1, p) % p
        # row i -= u_i * row m for i > m, then column m += sum_i u_i * column i
        h[m + 1 :, m - 1] = 0
        rows = h[m + 1 :, m:]
        rows -= u[:, None] * h[m, m:]
        rows %= p
        col = h[:, m]
        col += h[:, m + 1 :] @ u
        col %= p
    return h


def hessenberg_char_poly(h: np.ndarray, p: int) -> list[int]:
    """Ascending coefficients of det(xI - H) modulo p, length k + 1.

    The leading principal characteristic polynomials of a Hessenberg H follow
    p_(m+1) = x p_m - sum_(i <= m) h_im h_(i+1,i)...h_(m,m-1) p_i
    (Cohen, GTM 138, algorithm 2.2.9), one vector-matrix product per column.
    """
    k = h.shape[0]
    polys = np.zeros((k + 1, k + 1), dtype=np.int64)
    polys[0, 0] = 1
    t = np.ones(k, dtype=np.int64)  # t[i] = h_(i+1,i)...h_(m,m-1), i < m
    for m in range(k):
        if m:
            t[:m] = t[:m] * h[m, m - 1] % p
        f = h[: m + 1, m] * t[: m + 1] % p
        acc = -(f @ polys[: m + 1, : m + 2])
        acc[1:] += polys[m, : m + 1]
        polys[m + 1, : m + 2] = acc % p
    return polys[k].tolist()


def seeded_matrix(bound: int):
    # one seed per matrix, so that order 130 costs no 16900 separate draws; a
    # third of them 70% zeros, so that Hessenberg pivots vanish and swap
    def build(k, seed, sparse):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, bound, size=(k, k))
        return m * (rng.random((k, k)) < 0.3) if sparse else m

    return st.builds(
        build,
        st.integers(min_value=1, max_value=130),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([False, False, True]),
    )


def extreme_idempotent(k: int, q: int) -> np.ndarray:
    """R = c u v^T modulo q with c = (q - 1)/2 = -1/2, u all ones and v of
    k//2 - 1 ones, a zero last entry when k is odd, and minus ones else:
    v.u = -2, so R^2 = c (v.u) R = R, and every entry of every power of R
    off the zero column is +-(q - 1)/2, the largest symmetric residue."""
    v = np.where(np.arange(k) < k // 2 - 1, 1, -1)
    v[-1] *= 1 - k % 2
    return (q - 1) // 2 * np.outer(np.ones(k, dtype=np.int64), v) % q


# primes below 2^21 modulo which c = 1/k > q/2 for k = 90 and 91: the all-c
# matrix R of order k has R^2 = k c R = R, so every product its trace
# product sums is (c - q)^2, all of one sign. The one chunk at k = 90 sums
# 0.90 * 2^53; at k = 91 the first chunk of 2^13 products sums 0.978 * 2^53
SIGN_COHERENT_PRIME = {90: 2095987, 91: 2096911}


def sign_coherent(k: int) -> tuple[np.ndarray, int]:
    q = SIGN_COHERENT_PRIME[k]
    return np.full((k, k), pow(k, -1, q)), q


def seeded_residues(k: int, q: int) -> np.ndarray:
    return np.random.default_rng(k).integers(0, q, size=(k, k))


def symmetric_residues(k: int, q: int) -> np.ndarray:
    """Random symmetric residues modulo q. Every power of R is symmetric, so
    the trace product's tr(R^s R^s) sums k^2 squares, of mean about
    q^2/12: at k = 160 and q = 2^21 - 9 they come to 1.05 * 2^53, which one
    unchunked float64 sum does not hold exactly, while each chunk does."""
    a = np.random.default_rng(k).integers(0, q, size=(k, k))
    return np.triu(a) + np.triu(a, 1).T


@given(
    seeded_matrix(2**26),
    st.sampled_from([eigen.EXCLUSION_PRIME, eigen._word_primes()[-1], 131]),
)
@example(extreme_idempotent(90, eigen.EXCLUSION_PRIME), eigen.EXCLUSION_PRIME)
@example(extreme_idempotent(91, eigen.EXCLUSION_PRIME), eigen.EXCLUSION_PRIME)
@example(*sign_coherent(90))
@example(*sign_coherent(91))
@example(symmetric_residues(160, eigen.EXCLUSION_PRIME), eigen.EXCLUSION_PRIME)
@example(seeded_residues(9, eigen.EXCLUSION_PRIME), eigen.EXCLUSION_PRIME)
@example(seeded_residues(30, eigen.EXCLUSION_PRIME), eigen.EXCLUSION_PRIME)
@settings(max_examples=150, deadline=None)
def test_power_sum_kernel_matches_hessenberg(m, q):
    # the power sums give the polynomial of the Hessenberg reference for
    # orders up to 130, k^2 in one to three chunks of the trace product; the
    # examples push the float64 products to the bound at k = 90, one chunk,
    # and at k = 91, two: every residue of every power at the largest
    # symmetric residue, and every sum of one chunk near 2^53; and at
    # k = 160 a trace product that only its chunks keep exact. The stacks
    # fill by doubling: at k = 9 (s = 4 baby and g = 3 giant steps) every
    # doubling is whole; at k = 30 (s = g = 6) the last baby doubling makes
    # 2 of 4 powers and the last giant one 1 of 4; at k = 90 and 91 the
    # last doublings are partial too, and at k = 160 STEP_SPAN makes every
    # step one power
    r = m % q
    assert eigen._char_poly_mod(r, q) == hessenberg_char_poly(hessenberg(r, q), q)


@given(
    st.integers(min_value=-(2**52) + 1, max_value=2**52 - 1),
    st.sampled_from([2, 101, eigen._word_primes()[-1], eigen.EXCLUSION_PRIME]),
)
@example(2**52 - 1, eigen.EXCLUSION_PRIME)
@example(  # y/q just below and just past a half-integer
    2**31 * eigen.EXCLUSION_PRIME + (eigen.EXCLUSION_PRIME - 1) // 2,
    eigen.EXCLUSION_PRIME,
)
@example(
    -(2**31) * eigen.EXCLUSION_PRIME - (eigen.EXCLUSION_PRIME + 1) // 2,
    eigen.EXCLUSION_PRIME,
)
@settings(max_examples=200)
def test_centre_gives_symmetric_residues(y, q):
    # the bound |x| <= q/2 + 2 that makes the float64 trace product exact
    x = eigen._centre(np.array([float(y)]), q)[0]
    assert x == int(x) and (int(x) - y) % q == 0
    assert abs(x) <= q / 2 + 2


def test_power_sums_check_cayley_hamilton():
    # tr(M^1) ... tr(M^6) of an order-5 matrix, over the integers: the first
    # five give the polynomial, and any one of the six off by 1 breaks it
    q = 101
    m = np.array(
        [
            [3, 1, 4, 1, 5],
            [9, 2, 6, 5, 3],
            [5, 8, 9, 7, 9],
            [3, 2, 3, 8, 4],
            [6, 2, 6, 4, 3],
        ]
    )
    power, sums = np.eye(5, dtype=object), []
    for _ in range(6):
        power = power.dot(m.astype(object))
        sums.append(int(np.trace(power)) % q)
    expected = [c % q for c in char_poly_integer(m).coefficients[::-1]]
    assert eigen._newton_char_poly(sums, q) == expected
    for j in range(6):
        wrong = sums.copy()
        wrong[j] = (wrong[j] + 1) % q
        with pytest.raises(ArithmeticError):
            eigen._newton_char_poly(wrong, q)


@pytest.mark.parametrize("k", [eigen.NEWTON_BLOCK - 1, 40, 3 * eigen.NEWTON_BLOCK + 2])
def test_newton_blocks_match_hessenberg(k):
    # orders that fit one block of Newton's identities, that add one block
    # into the later sums, and that add two; any power sum off by 1,
    # p_(k+1) included, breaks Cayley-Hamilton
    q = eigen.EXCLUSION_PRIME
    r = seeded_residues(k, q)
    power, sums = np.eye(k, dtype=object), []
    for _ in range(k + 1):
        power = power.dot(r.astype(object)) % q
        sums.append(int(np.trace(power)) % q)
    assert eigen._newton_char_poly(sums, q) == hessenberg_char_poly(hessenberg(r, q), q)
    for j in (0, k // 2, k):
        wrong = sums.copy()
        wrong[j] = (wrong[j] + 1) % q
        with pytest.raises(ArithmeticError):
            eigen._newton_char_poly(wrong, q)


@pytest.mark.parametrize(
    "k, q, accepted", [(6, 7, True), (7, 7, False), (8, 7, False), (2, 2, False)]
)
def test_kernel_needs_order_below_prime(monkeypatch, k, q, accepted):
    # Newton's identities divide by every order up to k, so a modulus
    # q <= k is refused before any elimination
    _forbid_elimination(monkeypatch)
    m = np.arange(k * k, dtype=np.int64).reshape(k, k) % 5 - 2
    with pytest.raises(_Eliminated if accepted else ValueError):
        char_poly_integer(m, q)


def test_char_poly_rejects_modulus_out_of_range():
    for q in (1, 2**21, 2**26):
        with pytest.raises(ValueError):
            char_poly_integer(np.array([[1]]), q)


def test_char_poly_refuses_composite_modulus(monkeypatch):
    # modulo 4 or 6 a pivot can lack an inverse, and modulo 9 or 15 the
    # residues mean nothing; each is refused before any elimination, and so
    # are 2047 and 1373653, strong pseudoprimes to the bases 2 and to 2 and 3
    _forbid_elimination(monkeypatch)
    m = np.array([[1, 2, 3], [2, 5, 7], [4, 1, 6]])
    for q in (4, 6, 9, 15, 2047, 1373653, 2**25):
        with pytest.raises(ValueError):
            char_poly_integer(m, q)
    with pytest.raises(_Eliminated):
        char_poly_integer(m, 7)


def test_word_primality_is_exact():
    # the primality check char_poly_integer makes of its modulus refuses the
    # strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5
    assert not any(eigen.is_prime(q) for q in (2047, 1373653, 25326001))
    assert all(eigen.is_prime(q) for q in eigen._word_primes()[:50])
    assert [q for q in range(2, 10**4) if eigen.is_prime(q)] == [
        q for q in range(2, 10**4) if all(q % d for d in range(2, math.isqrt(q) + 1))
    ]


def test_word_prime_table_is_prime_and_covers_bound():
    # a sieve that stops short of sqrt(2^PRIME_BITS) lets in products of two
    # primes above its limit, such as 1031 * 2027 below 2^21
    table = eigen._word_primes()
    hi = 1 << eigen.PRIME_BITS
    assert list(table) == sorted(table, reverse=True)
    assert hi - 2**15 <= table[-1] and table[0] < hi
    assert all(is_prime(q) for q in table)
    # the lift needs a product above twice a bound of MAX_BOUND_BITS bits
    assert math.prod(table) > 2 ** (eigen.MAX_BOUND_BITS + 1)


def test_char_poly_rejects_bad_input():
    with pytest.raises(ValueError):
        char_poly_integer(np.array([[0.5]]))
    with pytest.raises(ValueError):
        char_poly_integer(np.zeros((2, 3), dtype=int))


def test_int_polynomial_basics():
    p = IntPolynomial((1, -3, 2))  # (x-1)(x-2)
    assert degree(p) == 2
    assert evaluate(p, 1) == 0 and evaluate(p, 2) == 0 and evaluate(p, 3) == 2
    with pytest.raises(ValueError):
        IntPolynomial((2, 0))


# ---------------------------------------------------------------------------
# integer roots


def test_integer_roots_fixtures():
    roots, full = integer_roots_complete(IntPolynomial((1, -10, 27, -14, 0)), range(11))
    assert roots == Counter({0: 1})
    assert not full

    roots, full = integer_roots_complete(IntPolynomial((1, -2, 0)), range(3))
    assert roots == Counter({0: 1, 2: 1})
    assert full


def test_integer_roots_prime_power_quotient():
    # the class part adds the missing eigenvalue 1 of the full n=8 spectrum
    poly = char_poly_integer(weighted_laplacian(build_divisor_graph(8)))
    roots, full = integer_roots_complete(poly, range(4))
    assert full
    assert roots == Counter({0: 1, 3: 1})


def test_integer_roots_irrational_positive_pair():
    # x^2 - 3x + 1 has two positive irrational roots
    roots, full = integer_roots_complete(IntPolynomial((1, -3, 1)), range(4))
    assert roots == Counter()
    assert not full


def test_integer_roots_constant():
    roots, full = integer_roots_complete(IntPolynomial((1,)), range(1))
    assert roots == Counter() and full


def test_integer_roots_far_candidate():
    roots, full = integer_roots_complete(IntPolynomial((1, -(10**15), 0)), {0, 10**15})
    assert roots == Counter({0: 1, 10**15: 1})
    assert full


def test_integer_roots_missing_candidate_is_incomplete():
    # (x - 2)(x - 5) with 5 left out of the candidates
    roots, full = integer_roots_complete(IntPolynomial((1, -7, 10)), range(4))
    assert roots == Counter({2: 1})
    assert not full


def test_split_modulo_prime_but_not_over_integers():
    # x^2 - q is x^2 modulo q: complete on the candidate 0 there, not over Z
    q = eigen.EXCLUSION_PRIME
    m = np.array([[0, q], [1, 0]])
    exact = char_poly_integer(m)
    residues = char_poly_integer(m, q)
    assert exact.coefficients == (1, 0, -q)
    assert residues.coefficients == (1, 0, 0)
    assert evaluate(residues, q + 3) == 9
    assert integer_roots_complete(residues, {0}) == (Counter({0: 2}), True)
    assert integer_roots_complete(exact, {0}) == (Counter(), False)


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=7))
@settings(max_examples=120)
def test_integer_roots_roundtrip(roots):
    poly = char_poly_integer(np.diag(roots)) if roots else IntPolynomial((1,))
    found, full = integer_roots_complete(poly, range(13))
    assert full
    assert found == Counter(roots)


@given(small_dim.flatmap(symmetric_int_matrix))
@settings(max_examples=60, deadline=None)
def test_exact_roots_agree_with_numeric_when_factored(m):
    # shift to a positive-definite-ish matrix so the nonneg assumption holds
    m = m + np.eye(m.shape[0], dtype=int) * (int(np.abs(m).sum()) + 1)
    roots, full = integer_roots_complete(
        char_poly_integer(m), range(int(np.trace(m)) + 1)
    )
    if not full:
        return
    numeric = sorted(symmetric_eigenvalues(m.astype(float)))
    exact = sorted(v for v, mult in roots.items() for _ in range(mult))
    assert len(numeric) == len(exact)
    scale = max(1.0, max(abs(v) for v in numeric))
    assert np.allclose(numeric, exact, atol=1e-8 * scale)
