"""Dense symmetric eigensolving and exact integer spectral machinery.

Two routes to a spectrum live here and check each other:

* a floating-point route: LAPACK via numpy for every symmetric matrix (the
  k x k quotient of the fast path and the explicit oracle Laplacian alike),
  plus multiset coalescing with integer snapping;
* an exact route: the characteristic polynomial of an integer matrix,
  computed by Hessenberg reduction modulo a Mersenne prime above the
  coefficient bound and lifted to the integers, and the deflation of its
  integer roots from a candidate set. Coefficients are Python ints, so
  nothing overflows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import mul

import numpy as np

DEFAULT_COALESCE_TOL = 1e-8
INTEGER_SNAP_TOL = 1e-6
SYMMETRY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# spectra as multisets


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    exact: bool


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with multiplicities, ascending, with exactness flags."""

    entries: tuple[SpectrumEntry, ...]
    coalesce_tol: float

    @classmethod
    def from_pairs(
        cls,
        pairs: list[tuple[float, int]] | list[tuple[int, int]],
        exact: bool = True,
        coalesce_tol: float = 0.0,
    ) -> "SpectrumMultiset":
        """Build directly from sorted-or-not (value, multiplicity) pairs."""
        merged: dict[float, int] = {}
        for value, mult in pairs:
            if mult:
                merged[value] = merged.get(value, 0) + mult
        entries = tuple(
            SpectrumEntry(float(v), m, exact) for v, m in sorted(merged.items())
        )
        return cls(entries, coalesce_tol)

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def pairs(self) -> list[tuple[float, int]]:
        return [(e.value, e.multiplicity) for e in self.entries]

    def expand(self) -> list[float]:
        out: list[float] = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return out

    def value_sum(self) -> float:
        return sum(e.value * e.multiplicity for e in self.entries)

    @property
    def min_value(self) -> float:
        return self.entries[0].value

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

    def zero_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries if e.value == 0.0)

    @property
    def is_integral(self) -> bool:
        return all(e.exact for e in self.entries)


def coalesce(
    values: Sequence[float | tuple[float, int]], tol: float = DEFAULT_COALESCE_TOL
) -> SpectrumMultiset:
    """Group near-equal values into a multiset.

    Each item is a value or a (value, multiplicity) pair; a pair counts as
    that many copies of its value, so exact multiplicities never have to be
    expanded. Successive values chain into one group while each gap stays
    within max(tol, tol*|value|). A group is represented by its mean, snapped
    to the nearest integer (and flagged exact) when within 1e-6 of one.
    """
    pairs = sorted(
        (float(item[0]), item[1]) if isinstance(item, tuple) else (float(item), 1)
        for item in values
    )
    entries: list[SpectrumEntry] = []
    total, count, prev = 0.0, 0, 0.0
    for value, mult in pairs:
        if count and value - prev > max(tol, tol * max(abs(prev), abs(value))):
            entries.append(_close_group(total, count))
            total, count = 0.0, 0
        total += value * mult
        count += mult
        prev = value
    if count:
        entries.append(_close_group(total, count))
    return SpectrumMultiset(tuple(entries), tol)


def _close_group(total: float, count: int) -> SpectrumEntry:
    mean = total / count
    nearest = round(mean)
    if abs(mean - nearest) <= INTEGER_SNAP_TOL:
        return SpectrumEntry(float(nearest), count, True)
    return SpectrumEntry(mean, count, False)


def max_deviation(a: SpectrumMultiset, b: SpectrumMultiset) -> float | None:
    """Largest per-eigenvalue gap between two coalesced spectra.

    None when the (value, multiplicity) shapes disagree, i.e. different
    entry counts or any multiplicity mismatch.
    """
    if len(a.entries) != len(b.entries):
        return None
    worst = 0.0
    for ea, eb in zip(a.entries, b.entries):
        if ea.multiplicity != eb.multiplicity:
            return None
        worst = max(worst, abs(ea.value - eb.value))
    return worst


# ---------------------------------------------------------------------------
# floating-point eigensolver


def symmetric_eigenvalues(m: np.ndarray) -> list[float]:
    """All eigenvalues of a symmetric matrix, ascending, from LAPACK."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of order >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return [float(v) for v in np.linalg.eigvalsh(a)]


# ---------------------------------------------------------------------------
# exact integer polynomials

# exponents e of the Mersenne primes 2^e - 1 that char_poly_integer works modulo
MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
    11213, 19937, 21701, 23209, 44497,
)


def _divide_linear(c: Sequence[int], r: int) -> tuple[list[int], int]:
    """Synthetic division of descending coefficients by x - r: the quotient
    and the remainder, which is the value at r."""
    acc = [c[0]]
    for coeff in c[1:]:
        acc.append(coeff + r * acc[-1])
    return acc[:-1], acc[-1]


@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with exact integer coefficients, highest degree first."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int) -> int:
        return _divide_linear(self.coefficients, x)[1]


def _mersenne_modulus(rows: list[list[int]]) -> int:
    """Smallest tabled Mersenne prime above 2 * (1 + R)^k, R the largest
    absolute row sum."""
    r = max((sum(map(abs, row)) for row in rows), default=0)
    need = len(rows) * (1 + r).bit_length() + 2
    for e in MERSENNE_EXPONENTS:
        if e > need:
            return (1 << e) - 1
    raise ValueError(f"coefficients need a prime above 2^{need}, beyond the table")


def _hessenberg_mod(h: list[list[int]], p: int) -> None:
    """Reduce h in place to upper Hessenberg form mod the Mersenne prime p
    by similarity; entries come back reduced to [0, p)."""
    k, e = len(h), p.bit_length()
    for m in range(1, k - 1):
        for row in h[m:]:
            row[m - 1] %= p
        i = next((i for i in range(m, k) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        h[m] = pivot = [x % p for x in h[m]]
        inv = pow(pivot[m - 1], -1, p)
        # row i -= u_i * row m for every i > m, then column m += sum u_i *
        # column i. Row entries fold as (x & p) + (x >> e): still x mod p,
        # and below 2p + 2 without a division.
        us = [(i, h[i][m - 1] * inv % p) for i in range(m + 1, k) if h[i][m - 1]]
        for i, u in us:
            row = h[i]
            row[m - 1] = 0
            row[m:] = [
                (x & p) + (x >> e)
                for x in [a + (p - u) * b for a, b in zip(row[m:], pivot[m:])]
            ]
        if us:
            cols, uvals = zip(*us)
            for row in h:
                row[m] = (row[m] + sum(map(mul, uvals, [row[i] for i in cols]))) % p
    for row in h:
        row[:] = [x % p for x in row]


def char_poly_integer(m) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of an integer matrix.

    Computed modulo a Mersenne prime P above twice the coefficient bound
    (1 + R)^k, R the largest absolute row sum, and lifted to the symmetric
    residues: M is reduced to upper Hessenberg form H by similarity over
    Z/P, and the leading principal characteristic polynomials of H follow
    p_m = (x - h_mm) p_(m-1) - sum_i h_im h_(i+1,i)...h_(m,m-1) p_(i-1)
    (Cohen, GTM 138, algorithm 2.2.9); O(k^3) operations on numbers below
    P. The top two coefficients are checked against the traces of M and
    M^2. Raises ValueError when the bound exceeds the largest tabled prime.
    """
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("expected integer entries")
    rows = arr.tolist()
    k = len(rows)
    p = _mersenne_modulus(rows)
    h = [[x % p for x in row] for row in rows]
    _hessenberg_mod(h, p)
    polys = [[1]]  # ascending coefficients of p_0, ..., p_k mod p
    for m in range(k):
        acc = [0, *polys[m]]
        t = 1  # h_(i+1,i) ... h_(m,m-1), the empty product at i = m
        for i in range(m, -1, -1):
            f = h[i][m] * t % p
            acc[: i + 1] = [a - f * c for a, c in zip(acc, polys[i])]
            t = t * h[i][i - 1] % p if i else 0
            if not t:
                break
        polys.append([x % p for x in acc])
    coeffs = tuple(x - p if x > p // 2 else x for x in reversed(polys[k]))
    trace = sum(rows[i][i] for i in range(k))
    trace_sq = sum(rows[i][j] * rows[j][i] for i in range(k) for j in range(k))
    if coeffs[:3] != (1, -trace, (trace * trace - trace_sq) // 2)[: k + 1]:
        raise ArithmeticError("characteristic polynomial disagrees with the traces")
    return IntPolynomial(coeffs)


def integer_roots_complete(
    p: IntPolynomial, candidates: Iterable[int]
) -> tuple[Counter, bool]:
    """Integer roots of p among the candidates, with multiplicity.

    Each distinct candidate r is deflated out by synthetic division while
    p(r) == 0. The roots and fully_factored (deflation reached degree zero)
    are exact; a root missing from the candidates makes fully_factored False.
    """
    c = list(p.coefficients)
    roots: Counter = Counter()
    for r in sorted(set(candidates)):
        while len(c) > 1:
            quot, rem = _divide_linear(c, r)
            if rem:
                break
            roots[r] += 1
            c = quot
    return roots, len(c) == 1
