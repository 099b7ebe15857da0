"""Integer arithmetic the benchmark uses to draw inputs and check outputs.

Deliberately independent of zdgspec: the checks must not share code with
the program they check. Trial division is enough for n <= 10^7.
"""

from __future__ import annotations


def factor(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization of n >= 1, ascending primes."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == [(n, 1)]


def is_composite(n: int) -> bool:
    return n >= 4 and not is_prime(n)


def composites(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 4), hi + 1) if is_composite(n)]


def phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def vertex_count(n: int) -> int:
    """Number of nonzero zero divisors of Z_n."""
    return n - phi(n) - 1


def class_degrees(n: int) -> list[tuple[int, int]]:
    """(class size, vertex degree) for each proper divisor d of n.

    The vertices x with gcd(x, n) = d number phi(n/d). Their neighbours are
    the nonzero multiples of n/d other than x itself, so each has degree
    d - 1, less one when x is a multiple of n/d, i.e. when n divides d^2.
    """
    return [
        (phi(n // d), d - 1 - (1 if (d * d) % n == 0 else 0))
        for d in divisors(n)[1:-1]
    ]


def laplacian_moments(n: int) -> tuple[int, int]:
    """(trace L, trace L^2) of the Laplacian of the zero-divisor graph.

    trace L is the degree sum; the diagonal of L^2 is deg^2 + deg.
    """
    first = second = 0
    for size, deg in class_degrees(n):
        first += size * deg
        second += size * (deg * deg + deg)
    return first, second
