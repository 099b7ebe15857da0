"""Dense symmetric eigensolving and exact integer spectral machinery.

Two routes to a spectrum live here and check each other:

* a floating-point route: LAPACK via numpy for every symmetric matrix (the
  k x k quotient of the fast path and the explicit oracle Laplacian alike),
  plus multiset coalescing with integer snapping;
* an exact route: the characteristic polynomial of an integer matrix by
  fraction-free (Bareiss) elimination over Z[x], and complete extraction of
  its integer roots. Coefficients are Python ints, so nothing overflows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

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
# exact integer polynomials (ascending coefficient lists internally)


def _trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


def _divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division by a monic divisor; stays in Z."""
    assert den[-1] == 1
    if den == [1]:
        return list(num), [0]
    rem = list(num)
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return [0], _trim(rem)
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        coeff = rem[i]
        if coeff:
            quot[i - dd] = coeff
            for j, dj in enumerate(den):
                rem[i - dd + j] -= coeff * dj
    return _trim(quot), _trim(rem)


def _eval(c: list[int], x: int) -> int:
    out = 0
    for coeff in reversed(c):
        out = out * x + coeff
    return out


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

    def _ascending(self) -> list[int]:
        return list(reversed(self.coefficients))

    @classmethod
    def _from_ascending(cls, c: list[int]) -> "IntPolynomial":
        return cls(tuple(reversed(_trim(list(c)))))

    def evaluate(self, x: int) -> int:
        return _eval(self._ascending(), x)


def char_poly_integer(m) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of an integer matrix.

    Fraction-free Gaussian elimination over Z[x]: every pivot of xI - M is a
    leading principal characteristic polynomial, hence monic and nonzero, so
    no pivoting is needed and all interior divisions are exact.
    """
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("expected integer entries")
    k = arr.shape[0]
    a: list[list[list[int]]] = [
        [
            [-int(arr[i, j]), 1] if i == j else [-int(arr[i, j])]
            for j in range(k)
        ]
        for i in range(k)
    ]
    prev: list[int] = [1]
    for r in range(k - 1):
        pivot = a[r][r]
        for i in range(r + 1, k):
            left = a[i][r]
            for j in range(r + 1, k):
                if left == [0] or a[r][j] == [0]:
                    num = _mul(a[i][j], pivot)
                else:
                    num = _sub(_mul(a[i][j], pivot), _mul(left, a[r][j]))
                quot, rem = _divmod_monic(num, prev)
                assert rem == [0], "fraction-free elimination lost exactness"
                a[i][j] = quot
        prev = pivot
    return IntPolynomial._from_ascending(a[k - 1][k - 1])


def integer_roots_complete(p: IntPolynomial) -> tuple[Counter, bool]:
    """Extract every nonnegative integer root with multiplicity.

    Assumes a nonnegative spectrum (Laplacian-type input), so candidates are
    0 and the positive divisors of the trailing nonzero coefficient, capped
    by the root sum (the negated second coefficient). Each hit is deflated
    out by synthetic division; fully_factored reports whether deflation
    reached degree zero.
    """
    c = p._ascending()
    roots: Counter = Counter()
    while len(c) > 1 and c[0] == 0:
        roots[0] += 1
        c = c[1:]
    cand = 1
    while len(c) > 1:
        bound = -c[-2]  # sum of remaining roots when all are nonnegative
        if cand > bound:
            break
        if c[0] % cand == 0 and _eval(c, cand) == 0:
            while _eval(c, cand) == 0:
                roots[cand] += 1
                c, rem = _divmod_monic(c, [-cand, 1])
                assert rem == [0]
                if len(c) == 1:
                    break
        else:
            cand += 1
    return roots, len(c) == 1
