"""Dense symmetric eigensolving and exact integer spectral machinery.

Two routes to a spectrum live here and check each other:

* a floating-point route: LAPACK via numpy for every symmetric matrix (the
  k x k quotient of the fast path and the explicit oracle Laplacian alike),
  plus multiset coalescing with integer snapping;
* an exact route: the characteristic polynomial of an integer matrix,
  computed modulo word-size primes, one prime at a time, as many as
  Hadamard's coefficient bound asks for, and lifted to the integers by the
  Chinese remainder theorem; and the deflation of its integer roots from a
  candidate set. For each prime p > k the coefficients come from the power
  sums tr(R^j) of the k x k residues R by Newton's identities, with the
  powers taken in baby and giant steps: O(sqrt(k)) matrix products in all,
  each a float64 BLAS product that is exact because the primes stay below
  2^21, holding (s + g) k^2 float64 numbers for s baby and g giant steps,
  s g >= k + 1. Each stack fills by doubling, one stacked product per
  doubling, so the steps cost O(log k) numpy calls; Newton's identities add
  each finished block of coefficients into the later sums with one int64
  convolution. The lifted coefficients are Python ints. Given one prime as
  the modulus, the same two functions work in F_p[x] instead: the
  polynomial modulo that prime alone, and its deflation modulo it. A
  polynomial that does not split over the candidates modulo p cannot split
  over them over the integers, so one prime settles most verdicts.

Modulo one prime the kernel also takes a (b, K, K) stack of matrices of
orders k_i <= K, each zero-padded to K, with one leading batch axis through
every product: one set of numpy calls for the whole stack. The result is
exact member by member, not approximately so: the zero block adds nothing
to any power, tr((R + 0)^j) = tr(R^j) for j >= 1, so each member's first
k_i + 1 power sums, and the coefficients, Cayley-Hamilton check and trace
check made from them, are the integers it gets alone; the bounds that keep
the float64 products exact hold for K as for k. A lone matrix is a stack of
one, so there is one kernel.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from operator import itemgetter, mul
from typing import NamedTuple

import numpy as np

from .numtheory import is_prime

COALESCE_TOL = 1e-8
INTEGER_SNAP_TOL = 1e-6
SYMMETRY_RTOL = 1e-12
EPS = 2.0**-52  # np.finfo(np.float64).eps, the float64 machine epsilon


# ---------------------------------------------------------------------------
# spectra as multisets


class SpectrumEntry(NamedTuple):
    value: float
    multiplicity: int
    exact: bool


class SpectrumMultiset(NamedTuple):
    """Eigenvalues with multiplicities, ascending, with exactness flags."""

    entries: tuple[SpectrumEntry, ...]

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int]]) -> "SpectrumMultiset":
        """Exact spectrum from sorted-or-not (integer value, multiplicity)
        pairs; equal values sum into one entry (``_push``), a zero
        multiplicity is dropped."""
        out: list[SpectrumEntry] = []
        for v, m in sorted(pairs, key=itemgetter(0)):
            if m:
                _push(out, float(v), m, True)
        return cls(tuple(out))

    def plus_exact(self, pairs: Iterable[tuple[int, int]]) -> "SpectrumMultiset":
        """This multiset with exact entries added for integer (value,
        multiplicity) pairs, values ascending and distinct and multiplicities
        positive, in one merge of the two ascending lists: each value joins
        the entry before it when that entry is exact and equal to it
        (``_push``)."""
        out: list[SpectrumEntry] = []
        entries = self.entries
        i = 0
        for v, m in pairs:
            value = float(v)
            while i < len(entries) and entries[i].value <= value:
                out.append(entries[i])
                i += 1
            _push(out, value, m, True)
        out += entries[i:]
        return SpectrumMultiset(tuple(out))

    @property
    def total_multiplicity(self) -> int:
        return sum(map(itemgetter(1), self.entries))

    def pairs(self) -> list[tuple[float, int]]:
        return [(e.value, e.multiplicity) for e in self.entries]

    @property
    def max_value(self) -> float:
        return self.entries[-1].value

    def second_smallest(self) -> float | None:
        """Second smallest counting multiplicity; None on fewer than 2 values."""
        if self.total_multiplicity < 2:
            return None
        first = self.entries[0]
        if first.multiplicity >= 2:
            return first.value
        return self.entries[1].value


def coalesce(values: Sequence[float]) -> SpectrumMultiset:
    """Group near-equal floats into a multiset, in one pass.

    Successive values chain into one group while each gap stays within
    COALESCE_TOL * max(1, |value|). A group is represented by its mean,
    snapped to the nearest integer (and flagged exact) when within 1e-6 of
    one (``_close_group``), and added by the one merge rule (``_push``), so
    two groups that snap to one integer sum into one entry. The groups come
    in ascending order, a gap above the tolerance is far above the rounding
    of a mean, rounding to integers is monotone and an unsnapped mean lies
    more than 1e-6 from every integer, so the entries come out strictly
    ascending, and no exact value is listed twice.
    """
    out: list[SpectrumEntry] = []
    total, count, prev = 0.0, 0, 0.0
    for value in sorted(map(float, values)):
        # prev <= value, so max(|prev|, |value|) is max(-prev, value)
        if count and value - prev > COALESCE_TOL * max(1.0, -prev, value):
            _close_group(out, total, count)
            total, count = 0.0, 0
        total += value
        count += 1
        prev = value
    if count:
        _close_group(out, total, count)
    return SpectrumMultiset(tuple(out))


def _close_group(out: list[SpectrumEntry], total: float, count: int) -> None:
    """Add the group of ``count`` values summing to ``total`` to ``out``:
    its mean, snapped and exact when within INTEGER_SNAP_TOL of an integer
    (``_push``)."""
    mean = total / count
    nearest = round(mean)
    exact = abs(mean - nearest) <= INTEGER_SNAP_TOL
    _push(out, float(nearest) if exact else mean, count, exact)


def _push(out: list[SpectrumEntry], value: float, m: int, exact: bool) -> None:
    """The one merge rule of every multiset: an exact value equal to the last
    entry of ``out``, when that is exact, sums into it; anything else is
    appended. No exact value is listed twice and no float joins an integer."""
    if exact and out and out[-1].exact and out[-1].value == value:
        out[-1] = SpectrumEntry(value, out[-1].multiplicity + m, True)
    else:
        out.append(SpectrumEntry(value, m, exact))


def max_deviation(spectrum: SpectrumMultiset, values: Sequence[float]) -> float | None:
    """Largest absolute gap, eigenvalue by eigenvalue, between a spectrum
    expanded by multiplicity and the ascending eigenvalues ``values``.

    None when the expanded spectrum and ``values`` differ in length.
    """
    expanded = np.repeat(
        [e.value for e in spectrum.entries], [e.multiplicity for e in spectrum.entries]
    )
    values = np.asarray(values, dtype=np.float64)
    if expanded.shape != values.shape:
        return None
    return float(np.abs(expanded - values).max(initial=0.0))


# ---------------------------------------------------------------------------
# floating-point eigensolver


def symmetric_eigenvalues(m: np.ndarray, vectors: bool = False):
    """All eigenvalues of a symmetric matrix, ascending, from one LAPACK call:
    ``eigvalsh``'s as a list, or with ``vectors`` ``eigh``'s arrays of values
    and eigenvectors as they are."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of order >= 1, got shape {a.shape}")
    # the largest |a_ij|, with no float temporary of a's size; NaN or inf
    # anywhere carries through to here
    scale = max(a.max(), -a.min())
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    # exact symmetry, the usual case, is settled on a boolean array
    if not (a == a.T).all() and np.abs(a - a.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    if not vectors:
        return np.linalg.eigvalsh(a).tolist()
    return np.linalg.eigh(a)


# ---------------------------------------------------------------------------
# exact integer polynomials

# The exact route works modulo primes p < 2^PRIME_BITS, in fact p <= 2^21 - 9,
# on symmetric residues |x| <= p/2 + 2 < 2^20 (see _centre), whose products
# stay below 2^40. A step of the kernel sums k < 2^11 = MAX_ORDER of them,
# below 2^51, inside _centre's range; a chunk of its trace product sums
# TRACE_CHUNK = 2^13 of them, below 2^53. Either is an exact float64 integer,
# and so is every partial sum, so the float64 products are exact in whatever
# order BLAS sums, with or without fused multiply-add. The primes' product
# must exceed twice the coefficient bound, which is refused past
# MAX_BOUND_BITS bits, before any k x k array exists.
PRIME_BITS = 21
MAX_ORDER = 2048
MAX_BOUND_BITS = 44497
TRACE_CHUNK = 1 << (53 - 2 * (PRIME_BITS - 1))
# coefficients whose Newton terms are summed one by one in Python before a
# convolution adds them into every later sum (see _newton_char_poly)
NEWTON_BLOCK = 16
# float64 numbers in the stacked product of one doubling step: at 256 KB the
# step's _centre still finds the fresh powers in cache, and past it one power
# at a time is faster (from k = 130 on, one BLAS thread)
STEP_SPAN = 1 << 15
# the largest prime below 2^PRIME_BITS, the first of _word_primes(); a
# constant, so that a verdict settled modulo it never sieves the table
EXCLUSION_PRIME = (1 << PRIME_BITS) - 9


def _divide_linear(
    c: Sequence[int], r: int, modulus: int | None = None
) -> tuple[list[int], int]:
    """Synthetic division of descending coefficients by x - r: the quotient
    and the remainder, which is the value at r; both reduced modulo the
    modulus when one is given."""
    acc = [c[0]]
    if modulus is None:
        for coeff in c[1:]:
            acc.append(coeff + r * acc[-1])
    else:
        r %= modulus
        for coeff in c[1:]:
            acc.append((coeff + r * acc[-1]) % modulus)
    return acc[:-1], acc[-1]


_Polynomial = NamedTuple(
    "_Polynomial", [("coefficients", tuple[int, ...]), ("modulus", int | None)]
)


class IntPolynomial(_Polynomial):
    """Monic polynomial, highest degree first: exact integer coefficients,
    or residues in [0, modulus) when a modulus is given. A subclass, since a
    NamedTuple class body cannot check its fields in __new__."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...], modulus: int | None = None):
        if not coefficients or coefficients[0] != 1:
            raise ValueError("polynomial must be monic")
        return super().__new__(cls, coefficients, modulus)


@functools.cache
def _word_primes() -> tuple[int, ...]:
    """The primes in [2^21 - 2^15, 2^21), descending, sieved on first use:
    2227 of them, whose product exceeds 2^46741 > 2^MAX_BOUND_BITS."""
    hi = 1 << PRIME_BITS
    lo = hi - (1 << 15)
    small = np.ones(math.isqrt(hi) + 1, dtype=bool)
    small[:2] = False
    for d in range(2, math.isqrt(small.size) + 1):
        if small[d]:
            small[d * d :: d] = False
    window = np.ones(hi - lo, dtype=bool)
    for d in np.flatnonzero(small).tolist():
        window[-lo % d :: d] = False
    return tuple((lo + np.flatnonzero(window)[::-1]).tolist())


def _char_poly_mod(
    r: np.ndarray, p: int, orders: Sequence[int] | None = None
) -> list[list[int]] | list[int]:
    """Ascending coefficients of det(xI - R) modulo the prime p > k, length
    k + 1, for each member R of a (b, K, K) stack of int64 residues in
    [0, p) of ``_residues``, which it leaves as they are: member i is the
    leading orders[i] x orders[i] block, zero beyond it (every order K when
    ``orders`` is not given). A lone K x K matrix is a batch of one, whose
    one list is returned. The coefficients come from the power sums
    tr(R^j), j <= k + 1, taken for the whole stack at once: the zero
    padding changes no tr((R + 0)^j) for j >= 1, so each member gets
    exactly the sums, and the coefficients, that it gets alone.

    Baby steps R, R^2, ..., R^s and giant steps I, R^s, ..., R^((g-1)s), with
    s = isqrt(K) + 1 and s g >= K + 1 (Paterson and Stockmeyer, SIAM J.
    Comput. 2, 1973), each stack filled by doubling: the c powers after the
    first m known ones come from one stacked product of c <= m known powers
    with the m-th, R^(m+j) = R^j R^m, and one _centre, so that O(log s)
    numpy calls make the O(sqrt(K)) float64 BLAS products of symmetric
    residues, each exact since its sums stay below K 2^40 < 2^51. A step
    holds at most STEP_SPAN numbers, so from b K^2 > STEP_SPAN / 2 on the
    powers come one at a time, as the cache favours there. The giant
    steps are stored transposed, so that tr(R^(is) R^j) =
    sum_ab (R^(is))^T_ab (R^j)_ab, and one product of each member's
    flattened giant stack with its flattened baby stack gives every
    tr(R^(is + j)). That product is summed over chunks of TRACE_CHUNK
    entries of the K^2 axis, whose sums stay below 2^53, each reduced
    modulo p before they are added; one chunk up to K = 90. The two stacks
    hold (s + g) b K^2 float64 numbers, about 3 GB for one member at
    K = 2047.
    """
    lone = r.ndim == 2
    if lone:
        r = r[None]
    b, k = r.shape[:2]
    s = math.isqrt(k) + 1
    g = -(-(k + 1) // s)
    most = max(1, STEP_SPAN // (b * k * k))  # powers per doubling step
    baby = np.empty((s, b, k, k))
    baby[0] = r
    _centre(baby[0], p)
    m = 1
    while m < s:  # baby[j] = R^(j+1)
        c = min(m, s - m, most)
        _centre(np.matmul(baby[:c], baby[m - 1], out=baby[m : m + c]), p)
        m += c
    giant = np.zeros((g, b, k, k))
    giant[0].reshape(b, k * k)[:, :: k + 1] = 1
    giant[1:2] = baby[-1].transpose(0, 2, 1)  # empty when k <= 1 and g = 1
    m = 2
    while m < g:  # giant[i] = (R^(is))^T
        c = min(m - 1, g - m, most)
        _centre(np.matmul(giant[m - 1], giant[1 : 1 + c], out=giant[m : m + c]), p)
        m += c
    flat_giant = giant.reshape(g, b, k * k).transpose(1, 0, 2)  # (b, g, K^2)
    flat_baby = baby.reshape(s, b, k * k).transpose(1, 2, 0)  # (b, K^2, s)
    sums = 0
    for lo in range(0, k * k, TRACE_CHUNK):
        chunk = slice(lo, lo + TRACE_CHUNK)
        product = flat_giant[..., chunk] @ flat_baby[:, chunk]
        sums = (sums + product.astype(np.int64)) % p
    rows = sums.reshape(b, g * s).tolist()
    polys = [
        _newton_char_poly(row[: n + 1], p)
        for row, n in zip(rows, [k] * b if orders is None else orders)
    ]
    return polys[0] if lone else polys


def _centre(y: np.ndarray, p: int) -> np.ndarray:
    """Reduce the float64 integers y, |y| < 2^52, in place to symmetric
    residues modulo p < 2^21, |y| <= p/2 + 2, and return y.

    y - rint(y/p) p, with y/p taken as y times the float 1/p: its two
    roundings leave it within 2/p of y/p, so rint lands on an integer within
    1/2 + 2/p of y/p. The product rint(y/p) p and the difference are
    integers below 2^53, hence exact.
    """
    t = y * (1.0 / p)
    np.rint(t, out=t)
    t *= p
    y -= t
    return y


def _newton_char_poly(sums: list[int], p: int) -> list[int]:
    """Ascending coefficients, length k + 1, of the monic polynomial modulo
    the prime p > k whose roots have the power sums p_j = sums[j - 1], each
    in [0, p).

    Newton's identities give the descending coefficients c_0 = 1, ...,
    c_k from m c_m = -(c_0 p_m + c_1 p_(m-1) + ... + c_(m-1) p_1), which
    divides by m <= k < p; the inverses of 1, ..., k come from
    1/m = -(p // m) / (p % m). The last sum, p_(k+1), is not needed for
    them: by Cayley-Hamilton c_0 p_(k+1) + ... + c_k p_1 = 0, and
    ArithmeticError is raised when it does not hold. The coefficients are
    found in blocks of NEWTON_BLOCK, the last one up to k: within a block the
    terms of its own coefficients are summed in Python, and once it is done
    its terms in every later sum are added at once, by one int64
    convolution with the power sums, exact since each sum holds at most
    k + 1 < 2^11 terms below p^2 < 2^42.
    """
    k = len(sums) - 1
    inv = [0, 1]
    for m in range(2, k + 1):
        inv.append((p - p // m) * inv[p % m] % p)
    c = [1]
    known = [0] * (k + 2)  # for each order, the terms of the blocks before lo
    lo = 0
    for hi in (*range(NEWTON_BLOCK, k - NEWTON_BLOCK + 1, NEWTON_BLOCK), k + 1):
        block = c[lo:]
        for m in range(len(c), hi):
            t = known[m] + sum(map(mul, block, sums[m - lo - 1 :: -1]))
            block.append(-t * inv[m] % p)
        c[lo:] = block
        if hi <= k:
            tail = np.convolve(block, sums)[hi - lo - 1 : k - lo + 1]
            known[hi:] = (tail + known[hi:]).tolist()
            lo = hi
    if (known[k + 1] + sum(map(mul, c[lo:], sums[k - lo :: -1]))) % p:
        raise ArithmeticError("power sums violate Cayley-Hamilton")
    return c[::-1]


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The entries of an integer ndarray modulo p, in [0, p), as int64."""
    wide = np.uint64 if a.dtype.kind == "u" else np.int64
    return (a.astype(wide, copy=False) % wide(p)).astype(np.int64, copy=False)


def check_order(k: int) -> None:
    """Refuse an order past the char-poly's envelope: OverflowError for
    k >= MAX_ORDER."""
    if k >= MAX_ORDER:
        limit = f"n may have at most {MAX_ORDER - 1} proper divisors"
        raise OverflowError(f"order {k} is too large: {limit}")


def char_poly_integer(
    m, modulus: int | None = None, orders: Sequence[int] | None = None
) -> IntPolynomial | list[IntPolynomial]:
    """Exact characteristic polynomial det(xI - M) of an integer matrix, or,
    given a modulus, of each matrix of a stack.

    Multi-modular (Dumas, Pernet and Wan, ISSAC 2005): the coefficients are
    computed modulo as many primes below 2^21 as it takes for their product
    to exceed twice Hadamard's coefficient bound
    B = prod_i (2 + isqrt(sum_j m_ij^2)), one prime at a time, and the
    Chinese remainder theorem lifts them to the symmetric residues. Each
    prime runs one kernel (``_char_poly_mod``): Newton's identities on the
    traces of the powers of the residues, O(sqrt(k)) float64 BLAS matrix
    products of O(k^3) operations each, exact since every sum stays below
    2^53, checked against Cayley-Hamilton; it holds (s + g) k^2 float64
    numbers, s g >= k + 1 and s = isqrt(k) + 1, about 3 GB at k = 2047.
    Given a modulus, which must be a prime above the order and below 2^21,
    since Newton divides by every m <= k, the polynomial is computed modulo
    it alone: one reduction, no bound and no lift, coefficients in
    [0, modulus). Then ``m`` may also be a (b, K, K) stack of integer
    matrices, member i the leading orders[i] x orders[i] block of m[i] and
    zero beyond it (every order K when ``orders`` is not given), and a list
    of b polynomials is returned, each of its member's own order: one
    kernel call takes the whole stack, since the zero padding changes no
    power sum tr((M + 0)^j), j >= 1, so each member's sums, coefficients and
    checks are exactly those it gets alone. A lone matrix is a stack of one.
    The top two coefficients are checked against the traces of M and M^2:
    over the integers for the lift, on the same int64 residues as the
    kernel for a modulus. Before any elimination, raises OverflowError for
    an order of 2048 or more or, without a modulus, a bound above 2^44497,
    the envelope of the word primes, and ValueError for a modulus that is
    not a prime in (K, 2^21), for a stack without one, or for orders that
    do not fit the stack.
    """
    arr = np.asarray(m)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if arr.ndim == 3 and modulus is None:
        raise ValueError("a stack of matrices needs a modulus")
    if arr.dtype.kind not in "iu":
        raise ValueError("expected integer entries")
    k = arr.shape[-1]
    check_order(k)
    if modulus is not None and not (
        max(k, 1) < modulus < 1 << PRIME_BITS and is_prime(modulus)
    ):
        raise ValueError(
            f"modulus {modulus} is not a prime above the order {k} "
            f"and below 2^{PRIME_BITS}"
        )
    if modulus is not None:
        return _char_poly_residues(arr, modulus, orders)
    rows = arr.tolist()
    norms = (math.isqrt(sum(x * x for x in row)) for row in rows)
    twice_bound = 2 * math.prod(2 + r for r in norms)
    if twice_bound.bit_length() > MAX_BOUND_BITS:
        raise OverflowError(
            f"coefficients need a modulus above 2^{twice_bound.bit_length() - 1}, "
            f"beyond 2^{MAX_BOUND_BITS}"
        )
    chosen, product = [], 1
    for p in _word_primes():
        if product > twice_bound:
            break
        chosen.append(p)
        product *= p
    residues = [_char_poly_mod(_residues(arr, p), p) for p in chosen]
    weights = [product // p * pow(product // p % p, -1, p) for p in chosen]
    lifted = (sum(map(mul, weights, c)) % product for c in zip(*residues))
    coeffs = tuple(x - product if x > product // 2 else x for x in lifted)[::-1]
    # over the integers, where tr^2 - tr(M^2) is even
    trace = sum(rows[i][i] for i in range(k))
    trace_sq = sum(rows[i][j] * rows[j][i] for i in range(k) for j in range(k))
    if coeffs[:3] != (1, -trace, (trace * trace - trace_sq) // 2)[: k + 1]:
        raise ArithmeticError("characteristic polynomial disagrees with the traces")
    return IntPolynomial(coeffs)


def _char_poly_residues(
    arr: np.ndarray, q: int, orders: Sequence[int] | None
) -> IntPolynomial | list[IntPolynomial]:
    """``char_poly_integer`` modulo the prime q of a checked matrix, or of
    each member of a checked stack, of the given orders."""
    r = _residues(arr, q)
    stack = r.ndim == 3
    if not stack:
        polys = [_char_poly_mod(r, q)]
        r = r[None]
    else:
        k = r.shape[-1]
        orders = [k] * len(r) if orders is None else list(orders)
        if len(orders) != len(r) or not all(0 <= n <= k for n in orders):
            raise ValueError(f"orders {orders} do not fit a stack of shape {r.shape}")
        polys = _char_poly_mod(r, q, orders)
    # twice e2 is tr(R)^2 - tr(R^2) for the residues r modulo q, an even
    # number, so it is reduced modulo 2q and only then halved, since modulo
    # 2 there is no inverse of 2; each r_ij r_ji is reduced before it is
    # summed, so that no int64 sum overflows
    traces = r.trace(axis1=1, axis2=2).tolist()
    squares = (r * r.transpose(0, 2, 1) % (2 * q)).sum(axis=(1, 2)).tolist()
    out = []
    for c, t, t2 in zip(polys, traces, squares):
        coeffs = tuple(c)[::-1]
        twice_e2 = (t * t - t2) % (2 * q)
        if coeffs[:3] != (1, -t % q, twice_e2 // 2)[: len(c)]:
            raise ArithmeticError("characteristic polynomial disagrees with the traces")
        out.append(IntPolynomial(coeffs, q))
    return out if stack else out[0]


def integer_roots_complete(
    p: IntPolynomial, candidates: Iterable[int]
) -> tuple[Counter, bool]:
    """Integer roots of p among the candidates, with multiplicity.

    Each distinct candidate r is deflated out by synthetic division while
    p(r) == 0. The roots and fully_factored (deflation reached degree zero)
    are exact; a root missing from the candidates makes fully_factored False.
    When p has a modulus, division and remainders are taken modulo it, and
    fully_factored says whether p splits over the candidates' residues. A
    polynomial that splits over the candidates over the integers splits so
    modulo every prime, so a False there proves it does not.
    """
    c = list(p.coefficients)
    roots: Counter = Counter()
    for r in sorted(set(candidates)):
        while len(c) > 1:
            quot, rem = _divide_linear(c, r, p.modulus)
            if rem:
                break
            roots[r] += 1
            c = quot
    return roots, len(c) == 1
