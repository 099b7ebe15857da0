"""Derived graph quantities and the number-theoretic characterizations.

Every n, alone or in a range, takes the one route of
``join_spectrum.assemble_range``, which refuses and classifies it once.
n = p^t and n = pq are answered end to end from their closed-form total
spectrum (``closed_form_spectra``): no divisor graph, no eigensolver, no
characteristic polynomial. Every other n rides on the reduced path, and mu
and lambda are read off the assembled spectrum. For every n the vertex
count n - phi(n) - 1 and the degree extremes have closed forms in the
factorization of n, and kappa is the least degree delta. The predicates
(complement disconnectedness, lambda = |V|, mu = kappa, and whether mu and
lambda come from the quotient) are exact number theory on that
factorization; the numeric spectrum only corroborates them in tests. Each
reads the ``Factorization`` that ``assemble_range`` refused n with, so n is
factored and validated once per report.

A range of n is analyzed a chunk at a time (``analyze_range``): the float
route stays per n, and the residue polynomial of the exact integrality test
rides on each reduced assembly, from one kernel call per group of the
chunk's quotients. A lone n is a range of one (``analyze``).

Conventions at the degenerate end: Gamma(Z_4) is a single vertex, so mu is
reported as undefined (None) rather than 0, and mu_equals_kappa is False
there and for n = p^2, where the graph is complete and mu = kappa + 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .eigen import SpectrumMultiset
from .join_spectrum import (
    SpectrumAssembly,
    assemble_range,
    closed_form_spectra,
    exact_total_spectrum,
)
from .numtheory import Factorization


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


def degree_extremes(fact: Factorization) -> tuple[int, int]:
    """Least and greatest vertex degree of a composite n, in closed form from
    its factorization: a vertex x with gcd(x, n) = d has degree
    d - 1 - [n | d^2], least at d = p and greatest at d = n/p, for p the
    smallest prime of n. So delta = p - 1 - [n = p^2] and
    Delta = n/p - 1 - [p^2 | n]. delta is also the vertex connectivity
    kappa, whose closed form is p - 1, and p - 2 for the complete graph of
    n = p^2."""
    n, p = fact.n, fact.smallest_prime
    return p - 1 - (n == p * p), n // p - 1 - (n % (p * p) == 0)


def complement_disconnected(fact: Factorization) -> bool:
    """The complement of the zero-divisor graph of a composite n is
    disconnected exactly for n = p*q with distinct primes and for prime
    powers other than 4."""
    if fact.is_product_of_two_distinct_primes:
        return True
    return fact.is_prime_power and fact.n != 4


def mu_equals_kappa(fact: Factorization) -> bool:
    """Algebraic connectivity equals vertex connectivity exactly for
    n = p*q and for prime powers p^t with t >= 3.

    For n = p^2 the graph is complete, where mu = kappa + 1; for n = 4 mu
    is undefined on the single vertex. Both report False.
    """
    if fact.is_product_of_two_distinct_primes:
        return True
    return fact.is_prime_power and fact.factors[0][1] >= 3


def lambda_from_quotient(fact: Factorization) -> bool:
    """Whether lambda is the largest eigenvalue of the quotient Laplacian:
    false exactly at n = p^2, p odd. For two or more distinct primes this is
    the paper's theorem; the quotient of pq is {0, p + q - 2}, lambda = |V|.
    Extending the paper, the quotient of p^t holds 0 and p^i - 1 for i in
    [1, t - 1] but t // 2, so lambda = p^(t-1) - 1 lies in it iff t >= 3, or
    at n = 4, whose whole spectrum is {0}."""
    return not (fact.is_prime_power and fact.factors[0][1] == 2) or fact.n == 4


def mu_from_quotient(fact: Factorization) -> bool:
    """Whether mu is the second smallest eigenvalue of the quotient
    Laplacian: false exactly at n = pq, p^2 (4 included) and p^3. For two or
    more distinct primes but pq this is the paper's theorem; pq has
    mu = p - 1 below p + q - 2. Extending the paper, mu = p - 1 of p^t, the
    class of p, lies in its quotient (see ``lambda_from_quotient``) iff
    t // 2 != 1, that is t >= 4; n = 4 has no mu."""
    if fact.is_product_of_two_distinct_primes:
        return False
    return not fact.is_prime_power or fact.factors[0][1] >= 4


def is_laplacian_integral(assembly: SpectrumAssembly) -> bool:
    """Exact test through the integer characteristic polynomial.

    Class values are integers by construction, so the spectrum is
    integral iff the quotient polynomial factors completely over Z. Every
    root is verified exactly; the candidates come from the quotient
    eigenvalues of ``assembly``, the reduced spectrum of its n, and the
    first test from the residue polynomial it carries, as
    ``assemble_range`` yields it (see ``exact_total_spectrum``).
    """
    return exact_total_spectrum(assembly) is not None


def analyze_assembly(
    fact: Factorization, assembly: SpectrumAssembly | None
) -> tuple[AnalysisReport, SpectrumMultiset, str]:
    """Full report for one n, the total spectrum it was read from, and the
    route that spectrum took: "closed_form" or "reduced", from what
    ``assemble_range`` yields for n, which has refused and classified it.

    n = p^t and n = pq, for which the assembly is None, are answered by
    arithmetic on the factorization (``closed_form_spectra``), integral by
    theorem; every other n by its reduced spectrum and the exact
    integrality test on that assembly, residue polynomial and all.
    """
    n = fact.n
    if assembly is None:
        total = closed_form_spectra(fact)
        integral, route = True, "closed_form"
    else:
        total = assembly.total
        integral, route = is_laplacian_integral(assembly), "reduced"
    delta_min, Delta_max = degree_extremes(fact)
    disconnected = complement_disconnected(fact)
    report = AnalysisReport(
        n=n,
        # fits in int64: assemble_range checked it (``vertex_count``)
        vertex_count=n - fact.phi - 1,
        mu=total.second_smallest(),
        lambda_=total.max_value,
        kappa=delta_min,
        delta_min=delta_min,
        Delta_max=Delta_max,
        laplacian_integral=integral,
        complement_disconnected=disconnected,
        # lambda = |V| for exactly the n whose complement disconnects
        lambda_equals_order=disconnected,
        mu_equals_kappa=mu_equals_kappa(fact),
        mu_from_quotient=mu_from_quotient(fact),
        lambda_from_quotient=lambda_from_quotient(fact),
    )
    return report, total, route


def analyze(n: int) -> AnalysisReport:
    """The report of n, as a range of one (``analyze_range``)."""
    return next(analyze_range([n]))[0]


def analyze_range(
    ns: Iterable[int],
) -> Iterator[tuple[AnalysisReport, SpectrumMultiset, str]]:
    """Report, total spectrum and route for each n of ``ns`` in turn
    (``analyze_assembly``), computed a chunk at a time (``assemble_range``),
    so that the residue polynomials the chunk's assemblies carry take one
    kernel call per group; the rows of the n before a refused one are
    yielded before its refusal is raised."""
    for fact, assembly in assemble_range(ns):
        yield analyze_assembly(fact, assembly)
