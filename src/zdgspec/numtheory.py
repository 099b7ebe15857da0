"""Integer arithmetic foundation: factorization, primality, totient, divisors.

The one home of primality and factorization in the package. Everything here
is exact integer arithmetic on Python ints. Factorization is deterministic
trial division, which is plenty for the desk-scale moduli (n up to ~10^7)
this package targets; its cache holds the last FACTORIZE_CACHE_SIZE n, so a
sweep over a range keeps each n's repeated questions cheap without holding
every n it has seen.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

FACTORIZE_CACHE_SIZE = 1024


class Factorization(NamedTuple):
    """Prime-power decomposition of a positive integer.

    ``factors`` is ordered by increasing prime; n == 1 has an empty list.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def smallest_prime(self) -> int:
        if not self.factors:
            raise ValueError("1 has no prime factors")
        return self.factors[0][0]

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    @property
    def is_product_of_two_distinct_primes(self) -> bool:
        return len(self.factors) == 2 and self.factors[0][1] == self.factors[1][1] == 1

    @property
    def phi(self) -> int:
        """Euler's phi of n, the count of integers in [1, n] coprime to n."""
        out = self.n
        for p, _ in self.factors:
            out = out // p * (p - 1)
        return out

    def divisor_count(self) -> int:
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    def divisors_with_exponents(self) -> list[tuple[int, tuple[int, ...], int]]:
        """Every divisor d of n, ascending (1 and n included), with its exponent
        vector over ``primes`` and phi(n / d) = prod (p^j - p^j // p), p^j || n / d."""
        out: list[tuple[int, tuple[int, ...], int]] = [(1, (), 1)]
        for p, e in self.factors:
            steps = [((i,), p**i, p ** (e - i) - p ** (e - i) // p) for i in range(e + 1)]
            out = [(d * q, a + i, f * g) for d, a, f in out for i, q, g in steps]
        out.sort(key=itemgetter(0))  # the divisors are distinct
        return out


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).is_prime


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n; phi(1) == 1."""
    return factorize(n).phi

