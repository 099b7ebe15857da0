import math

import pytest
from hypothesis import given, strategies as st

from zdgspec.numtheory import euler_phi, factorize, is_prime


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
