"""Integer arithmetic foundation: factorization, primality, totient, divisors.

The one home of primality and factorization in the package. Everything here
is exact integer arithmetic on Python ints. Factorization is trial division
by the primes below TRIAL_BOUND = 2^12, which alone factors every
n < 2^24, the desk-scale moduli (n up to ~10^7) this package targets. A
cofactor left above 2^24 has no prime factor below 2^12: it is tested with
Miller-Rabin to the first 13 prime bases and split by Pollard-Brent rho
until every part passes. That test is exact below 3.3 * 10^24; a part at or
above that bound that passes is not proven prime, and is refused with
OverflowError. Its cache holds the last FACTORIZE_CACHE_SIZE n, so
a sweep over a range keeps each n's repeated questions cheap without holding
every n it has seen.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

FACTORIZE_CACHE_SIZE = 1024
# trial division runs over the primes below 2^12, which covers sqrt(10^7),
# so every n < 2^24 is factored by it alone; per n of [10^6, 10^7] it takes
# 6.7 us at 2^12 against 10.2 at 2^10 (more cofactors reach rho) and 6.6 at
# 2^14, and per n of [10^9, 10^12] 94 us against 85 at 2^10 and 123 at 2^14
TRIAL_BOUND = 1 << 12
# the first 13 primes: a strong probable prime to all of them is prime below
# MILLER_RABIN_EXACT_BELOW > 3.3 * 10^24 (Sorenson and Webster, Math. Comp.
# 86, 2017); the first 12, up to 37, suffice only below 3.2 * 10^23
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# every base of MILLER_RABIN_BASES
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


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


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit - 1) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, limit, d)))
    return tuple(compress(range(limit), flags))


# the trial divisors: 564 primes, sieved once, where the odd candidates
# below TRIAL_BOUND would be 2048
_TRIAL_PRIMES = _primes_below(TRIAL_BOUND)


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Factor n >= 1: trial division by the primes below TRIAL_BOUND, then
    Miller-Rabin and Pollard-Brent rho on the cofactor left (see
    ``_split``)."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors = []
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        # m has no prime below TRIAL_BOUND, so below its square m is prime
        primes = [m] if m < TRIAL_BOUND * TRIAL_BOUND else sorted(_split(m))
        factors += [(q, primes.count(q)) for q in sorted(set(primes))]
    return Factorization(n, tuple(factors))


def _is_strong_probable_prime(m: int) -> bool:
    """Miller-Rabin of an odd m > 41 to every base in MILLER_RABIN_BASES;
    exact below MILLER_RABIN_EXACT_BELOW, a strong probable-prime test
    from it on."""
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _split(m: int) -> list[int]:
    """The primes of m, with repetition, for an m without a prime factor
    below TRIAL_BOUND: m itself when Miller-Rabin passes it, else the primes
    of a factor that ``_rho`` finds and of its cofactor. OverflowError for
    a part at or above MILLER_RABIN_EXACT_BELOW that passes, which the test
    does not prove prime."""
    if _is_strong_probable_prime(m):
        if m >= MILLER_RABIN_EXACT_BELOW:
            raise OverflowError(
                f"cannot prove {m} prime: Miller-Rabin to the first 13 prime "
                f"bases is exact only below {MILLER_RABIN_EXACT_BELOW}"
            )
        return [m]
    # rho finds a prime p in about sqrt(p) steps, too many for m = p^e with
    # a large p, so perfect powers are taken apart first; every prime of m
    # is at least 2^12, so e is at most log2(m) / 12
    for e in range(2, m.bit_length() // 12 + 1):
        root = _integer_root(m, e)
        if root**e == m:
            return _split(root) * e
    d = _rho(m)
    return _split(d) + _split(m // d)


def _integer_root(m: int, e: int) -> int:
    """floor(m^(1/e)) for m >= 1, by Newton's iteration from above."""
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _rho(m: int) -> int:
    """A proper factor of the odd composite m: Pollard's rho with Brent's
    cycle finding and batched gcds (Brent, BIT 20, 1980), on x^2 + c from
    x = 2 for c = 1, 2, ... until one c splits m, so the result is
    reproducible."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += batch
            r *= 2
        if g == m:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % m
                g = math.gcd(x - saved, m)
        if g != m:
            return g


def is_prime(n: int) -> bool:
    """Whether n is prime, read off ``factorize(n)``. A probable prime at or
    above MILLER_RABIN_EXACT_BELOW (psi_13), such as 2^89 - 1, is not proven
    prime there, so it raises OverflowError rather than answer."""
    return n >= 2 and factorize(n).is_prime


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n; phi(1) == 1."""
    return factorize(n).phi

