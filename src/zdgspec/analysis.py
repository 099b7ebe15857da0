"""Derived graph quantities and the number-theoretic characterizations.

n = p^t and n = pq are answered end to end from their closed-form quotient
and total spectra (``closed_form_spectra``): no divisor graph, no
eigensolver, no characteristic polynomial. Every other n rides on the
reduced path: mu and lambda are read off the assembled spectrum, and the
quotient flags off its coalesced quotient values. For every n the vertex
count n - phi(n) - 1, the degree extremes and kappa have closed forms in the
factorization of n, and the predicates (complement disconnectedness,
lambda = |V|, mu = kappa) are exact number theory; the numeric spectrum
only corroborates them in tests.

A range of n is analyzed a chunk at a time (``analyze_range``): the float
route stays per n, and the residue polynomials of the exact integrality
test come from one kernel call per group of the chunk's quotients, with
every row byte for byte that of ``analyze_assembly`` of its n alone.

Conventions at the degenerate end: Gamma(Z_4) is a single vertex, so mu is
reported as undefined (None) rather than 0, and mu_equals_kappa is False
there and for n = p^2, where the graph is complete and mu = kappa + 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from typing import NamedTuple

from .divisor_graph import require_composite, vertex_count
from .eigen import IntPolynomial, SpectrumMultiset, check_order
from .errors import EmptyGraphError
from .join_spectrum import (
    SpectrumAssembly,
    closed_form_spectra,
    exact_total_spectrum,
    reduced_spectrum,
    residue_polynomials,
)
from .numtheory import Factorization

EXTREME_MATCH_RTOL = 1e-8
# n per chunk of assemble_range, whose rows are held until the chunk's
# residue polynomials are done: in process, `survey 4 3000` took 0.60 s at
# 1, 0.48 at 16, 0.40 at 64, 0.38 at 128 and 256 and 0.41 at 1024 (one BLAS
# thread); and a chunk stays well inside the factorize cache, so each n
# tested for primality is still cached when it is analyzed
RANGE_CHUNK = 128


class AnalysisReport(NamedTuple):
    n: int
    vertex_count: int
    mu: float | None
    lambda_: float
    kappa: int
    delta_min: int
    Delta_max: int
    laplacian_integral: bool
    complement_disconnected: bool
    lambda_equals_order: bool
    mu_equals_kappa: bool
    mu_from_quotient: bool
    lambda_from_quotient: bool


def degree_extremes(n: int) -> tuple[int, int]:
    """Least and greatest vertex degree, in closed form: a vertex x with
    gcd(x, n) = d has degree d - 1 - [n | d^2], least at d = p and greatest
    at d = n/p, for p the smallest prime of n. So delta = p - 1 - [n = p^2],
    which is kappa, and Delta = n/p - 1 - [p^2 | n]."""
    p = require_composite(n).smallest_prime
    return p - 1 - (n == p * p), n // p - 1 - (n % (p * p) == 0)


def vertex_connectivity(n: int) -> int:
    """Closed form: p - 1 in general, p - 2 for n = p^2 (complete graph)."""
    fact = require_composite(n)
    p = fact.smallest_prime
    if len(fact.factors) == 1 and fact.factors[0][1] == 2:
        return p - 2
    return p - 1


def complement_disconnected(n: int) -> bool:
    """The complement of the zero-divisor graph is disconnected exactly for
    n = p*q with distinct primes and for prime powers other than 4."""
    fact = require_composite(n)
    if fact.is_product_of_two_distinct_primes:
        return True
    return fact.is_prime_power and n != 4


def mu_equals_kappa(n: int) -> bool:
    """Algebraic connectivity equals vertex connectivity exactly for
    n = p*q and for prime powers p^t with t >= 3.

    For n = p^2 the graph is complete, where mu = kappa + 1; for n = 4 mu
    is undefined on the single vertex. Both report False.
    """
    fact = require_composite(n)
    if fact.is_product_of_two_distinct_primes:
        return True
    return fact.is_prime_power and fact.factors[0][1] >= 3


def is_laplacian_integral(
    n: int,
    assembly: SpectrumAssembly | None = None,
    residues: IntPolynomial | None = None,
) -> bool:
    """Exact test through the integer characteristic polynomial.

    Class values are integers by construction, so the spectrum is
    integral iff the quotient polynomial factors completely over Z. Every
    root is verified exactly; the candidates come from the quotient
    eigenvalues of ``assembly``, the reduced path's result for n, and the
    first test from ``residues``, its polynomial modulo EXCLUSION_PRIME,
    each computed when not given (see ``exact_total_spectrum``).
    """
    return exact_total_spectrum(n, assembly, residues) is not None


def _quotient_extremes(
    quotient: SpectrumMultiset, total: SpectrumMultiset
) -> tuple[bool, bool]:
    """Whether mu and lambda of the whole graph equal the second smallest
    and largest eigenvalue of the quotient matrix C, within 1e-8 relative.

    Always computed; the equalities are guaranteed only when n has at least
    two distinct prime factors (and n != pq for the mu half).
    """
    lam_ok = _close(total.max_value, quotient.max_value)
    mu = total.second_smallest()
    q2 = quotient.second_smallest()
    mu_ok = mu is not None and q2 is not None and _close(mu, q2)
    return mu_ok, lam_ok


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXTREME_MATCH_RTOL * max(1.0, abs(a))


def _refusals(n: int) -> tuple[Factorization, int]:
    """The factorization and vertex count of n, once n passes the refusals
    that come before anything of size k is built: EmptyGraphError for a
    prime or n < 4, then OverflowError, as ``char_poly_integer`` would, when
    the quotient order (the number of proper divisors of n) is past the
    exact characteristic polynomial's envelope, then when the vertex count
    is past int64 (``vertex_count``)."""
    fact = require_composite(n)
    check_order(fact.divisor_count() - 2)
    return fact, vertex_count(fact)


def analyze_assembly(
    n: int,
    assembly: SpectrumAssembly | None = None,
    residues: IntPolynomial | None = None,
) -> tuple[AnalysisReport, SpectrumMultiset, str]:
    """Full report for one n, the total spectrum it was read from, and the
    route that spectrum took: "closed_form" or "reduced".

    Refusals come first, off the factorization (``_refusals``). Then
    n = p^t and n = pq are answered by arithmetic on the factorization
    (``closed_form_spectra``), integral by theorem; every other n by its
    ``reduced_spectrum`` and the exact integrality test on that assembly.
    ``assembly`` and ``residues``, when given, are that reduced spectrum
    and its residue polynomial (see ``exact_total_spectrum``), as
    ``assemble_range`` computes them a chunk at a time.
    """
    fact, count = _refusals(n)
    closed = closed_form_spectra(fact)
    if closed is not None:
        quotient, total = closed
        integral, route = True, "closed_form"
    else:
        if assembly is None:
            assembly = reduced_spectrum(n)
        quotient, total = assembly.quotient, assembly.total
        integral, route = is_laplacian_integral(n, assembly, residues), "reduced"
    delta_min, Delta_max = degree_extremes(n)
    mu_ok, lam_ok = _quotient_extremes(quotient, total)
    disconnected = complement_disconnected(n)
    report = AnalysisReport(
        n=n,
        vertex_count=count,
        mu=total.second_smallest(),
        lambda_=total.max_value,
        kappa=vertex_connectivity(n),
        delta_min=delta_min,
        Delta_max=Delta_max,
        laplacian_integral=integral,
        complement_disconnected=disconnected,
        # lambda = |V| for exactly the n whose complement disconnects
        lambda_equals_order=disconnected,
        mu_equals_kappa=mu_equals_kappa(n),
        mu_from_quotient=mu_ok,
        lambda_from_quotient=lam_ok,
    )
    return report, total, route


def analyze(n: int) -> AnalysisReport:
    return analyze_assembly(n)[0]


def assemble_range(
    ns: Iterable[int],
) -> Iterator[tuple[int, SpectrumAssembly | None, IntPolynomial | None]]:
    """(n, reduced spectrum, residue polynomial) for each n of ``ns`` in
    turn, both None for n = p^t and n = pq, which need neither, a chunk of
    at most RANGE_CHUNK n at a time.

    Each n passes its refusals (``_refusals``) before its divisor graph is
    built; then ``reduced_spectrum(n)`` is computed for each n of the chunk
    outside the closed families, and their residue polynomials by one
    ``char_poly_integer`` call per group of orders (``residue_polynomials``).
    A refused n ends the chunk before it: the n before it are yielded, and
    then its refusal is raised, so its divisor graph is never built.
    """
    it = iter(ns)
    while chunk := list(islice(it, RANGE_CHUNK)):
        assemblies: dict[int, SpectrumAssembly | None] = {}
        refusal = None
        for n in chunk:
            try:
                fact, _ = _refusals(n)
            except (EmptyGraphError, OverflowError) as exc:
                refusal = exc
                break
            closed = fact.is_prime_power or fact.is_product_of_two_distinct_primes
            assemblies[n] = None if closed else reduced_spectrum(n)
        reduced = [a for a in assemblies.values() if a is not None]
        polys = residue_polynomials([a.graph for a in reduced])
        residues = {a.n: poly for a, poly in zip(reduced, polys)}
        for n, assembly in assemblies.items():
            yield n, assembly, residues.get(n)
        if refusal is not None:
            raise refusal


def analyze_range(
    ns: Iterable[int],
) -> Iterator[tuple[AnalysisReport, SpectrumMultiset, str]]:
    """``analyze_assembly(n)`` for each n of ``ns`` in turn, computed a
    chunk at a time (``assemble_range``), so that the residue polynomials of
    a chunk take one kernel call per group; the rows of the n before a
    refused one are yielded before its refusal is raised."""
    for n, assembly, residues in assemble_range(ns):
        yield analyze_assembly(n, assembly, residues)
