import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from zdgspec import numtheory
from zdgspec.divisor_graph import build_divisor_graph
from zdgspec.numtheory import TRIAL_BOUND, euler_phi, factorize, is_prime


def test_factorize_small_values():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(30030).factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))
    assert factorize(1).factors == ()
    assert factorize(97).factors == ((97, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=2, max_value=200000))
def test_factorize_multiplies_back(n):
    fact = factorize(n)
    prod = 1
    for p, e in fact.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorization_shape_predicates():
    assert factorize(15).is_product_of_two_distinct_primes
    assert not factorize(12).is_product_of_two_distinct_primes
    assert factorize(32).is_prime_power
    assert not factorize(1).is_prime_power
    assert factorize(49).smallest_prime == 7
    assert factorize(30).smallest_prime == 2


@given(st.integers(min_value=1, max_value=5000))
def test_euler_phi_matches_direct_count(n):
    assert euler_phi(n) == sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


@given(st.integers(min_value=2, max_value=3000))
def test_divisor_sum_of_phi_is_n(n):
    # classic identity: sum of phi(d) over divisors d of n equals n
    divs = factorize(n).divisors_with_exponents()
    assert sum(euler_phi(d) for d, _, _ in divs) == n
    assert [f for _, _, f in divs] == [euler_phi(n // d) for d, _, _ in divs]


@given(st.integers(min_value=1, max_value=10000))
def test_all_divisors_sorted_and_complete(n):
    fact = factorize(n)
    divs = fact.divisors_with_exponents()
    assert [d for d, _, _ in divs] == [d for d in range(1, n + 1) if n % d == 0]
    for d, exps, _ in divs:
        assert d == math.prod(p**a for p, a in zip(fact.primes, exps))


@given(st.integers(min_value=2, max_value=20000))
def test_is_prime_matches_trial_division(n):
    naive = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == naive


def test_divisor_count_matches_formula():
    assert factorize(30030).divisor_count() == 64
    assert factorize(12).divisor_count() == 6
    assert factorize(4096).divisor_count() == 13


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    factors, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = bytearray(len(range(d * d, limit + 1, d)))
    return [p for p in range(limit + 1) if flags[p]]


def test_factorize_matches_trial_division():
    # every n <= 10^5 is factored by trial division below 2^12 alone; the
    # seeded n up to 10^10 and the products of primes of 2^12 to 10^5, up to
    # 10^10 too, leave cofactors above 2^24 for Miller-Rabin and rho
    for n in range(1, 10**5 + 1):
        assert factorize(n).factors == _trial_division(n), n
    rng = random.Random(2310)
    primes = [p for p in _sieve(10**5) if p >= TRIAL_BOUND]
    sample = [rng.randrange(10**5, 10**10) for _ in range(150)]
    sample += [rng.choice(primes) * rng.choice(primes) for _ in range(100)]
    sample += [math.prod(rng.choices(primes[:200], k=2)) * rng.randrange(1, 100)]
    sample += [TRIAL_BOUND**2 - 3, TRIAL_BOUND**2 + 1, 4099**2, 4099**2 * 4111]
    for n in sample:
        assert factorize(n).factors == _trial_division(n), n


@pytest.mark.parametrize(
    "p, q", [(99999971, 99999989), (999999929, 999999937), (2, 2**61 - 1)]
)
def test_factorize_word_size_semiprimes_in_a_second(p, q):
    # trial division took 5.8 s on the first and did not finish the last in
    # 2 minutes: it ran to the square root of the cofactor
    start = time.perf_counter()
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert time.perf_counter() - start < 1.0


def test_factorize_past_the_trial_bound():
    m61, m31 = 2**61 - 1, 2**31 - 1
    assert factorize(m61**2).factors == ((m61, 2),)
    assert factorize(4099**2 * m61**3).factors == ((4099, 2), (m61, 3))
    assert factorize(m31 * m61).factors == ((m31, 1), (m61, 1))
    assert factorize(2**64 + 1).factors == ((274177, 1), (67280421310721, 1))
    # strong pseudoprimes to the bases up to 37 and to the bases 2 and 3
    assert not is_prime(318665857834031151167461)
    assert not is_prime(1373653) and not is_prime(3215031751)
    g = build_divisor_graph(2 * m61)
    assert (g.vertices, g.weights) == ((2, m61), (m61 - 1, 1))


@pytest.mark.parametrize(
    "n",
    [1287836182261 * 2575672364521, 2**89 - 1, 3 * (2**89 - 1)],
    ids=["psi13", "2^89-1", "3*(2^89-1)"],
)
def test_factorize_refuses_unproven_probable_primes(n):
    # psi_13, the least strong pseudoprime to all 13 bases, and the prime
    # 2^89 - 1 both pass them; from psi_13 on that proves nothing, so a part
    # that passes there is refused rather than taken as prime
    bound = numtheory.MILLER_RABIN_EXACT_BELOW
    assert bound == 1287836182261 * 2575672364521
    with pytest.raises(OverflowError, match="cannot prove"):
        factorize(n)
    with pytest.raises(OverflowError, match="cannot prove"):
        is_prime(n)
    # below the bound the test is exact, and a composite is still split
    assert math.prod(p**e for p, e in factorize(bound - 2).factors) == bound - 2
