"""Laplacian spectrum assembly for the zero-divisor graph of Z_n.

The fast path never touches the n - phi(n) - 1 explicit vertices. The gcd
classes partition them equitably, each class induces a complete or empty
graph, and the whole graph is the generalized join of those pieces over the
proper-divisor quotient. The spectrum then splits into

* one (value, multiplicity) pair per class of w > 1 vertices
  (``class_pairs``): d - 1 with multiplicity w - 1 for the class of d,
  clique or not, added as an exact integer entry;
* the k eigenvalues of the vertex-weighted quotient Laplacian, exactly one
  of which is 0, from one LAPACK call and coalesced once. A class integer
  joins one of their entries only when that entry is exact and equal to it.

``brute_spectrum`` is the independent oracle: it builds the explicit graph
and returns the LAPACK eigenvalues of its Laplacian, from two blocks of
half the order split along x -> n - x, one per vertex and unmerged, so a
check compares them eigenvalue by eigenvalue with the expanded reduced
spectrum. It is capped, by its ``cap`` argument passed to the builder,
because it scales with n rather than with the number of divisors.

``closed_form_spectra`` is the third route, and the one home of its
formulas: for n = p^t (the paper's theorem, also ``prime_power_spectrum``)
and n = pq, whose graph is K_(p-1,q-1), the total spectrum in closed form,
exact integers, no linear algebra at all.

``assemble_range`` is the one route from n to its spectra: it refuses and
classifies each n once, off its factorization, and hands on the reduced
spectrum of each n outside the closed families, its residue polynomial
riding on it, a chunk at a time. A lone n is a range of one, for
``exact_total_spectrum`` as for ``analysis.analyze``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from operator import mul
from typing import NamedTuple

import numpy as np

from .divisor_graph import (
    WeightedDivisorGraph,
    build_divisor_graph,
    require_reducible,
    symmetric_form,
    upper_edges,
    weighted_laplacian,
    weighted_laplacians,
)
from .eigen import (
    EPS,
    EXCLUSION_PRIME,
    STEP_SPAN,
    IntPolynomial,
    SpectrumMultiset,
    char_poly_integer,
    coalesce,
    integer_roots_complete,
    symmetric_eigenvalues,
)
from .errors import EmptyGraphError
from .numtheory import Factorization, is_prime
from .zdg_explicit import DEFAULT_ORACLE_CAP, build_zero_divisor_graph

# n per chunk of assemble_range, whose rows are held until the chunk's
# residue polynomials are done: in process, `survey 4 3000` took 0.60 s at
# 1, 0.48 at 16, 0.40 at 64, 0.38 at 128 and 256 and 0.41 at 1024 (one BLAS
# thread); and a chunk stays well inside the factorize cache, so each n
# tested for primality is still cached when it is analyzed
RANGE_CHUNK = 128
# integers exact_total_spectrum's candidate windows may hold, bounded before
# they are built: while rho < 1/2, as for every n <= 10^7, each of the
# k < MAX_ORDER windows holds at most one, so no such n is refused
MAX_CANDIDATES = 1 << 12


class SpectrumAssembly(NamedTuple):
    """Reduced-path spectrum together with the pieces it was built from, and
    the quotient's char-poly modulo EXCLUSION_PRIME, filled by
    ``assemble_range`` and left None by ``reduced_spectrum``."""

    n: int
    graph: WeightedDivisorGraph
    quotient_values: tuple[float, ...]  # ascending, before coalescing
    quotient: SpectrumMultiset
    total: SpectrumMultiset
    residues: IntPolynomial | None = None


def class_pairs(g: WeightedDivisorGraph) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) pairs the gcd classes add to the spectrum.

    A class of w vertices induces K_w (spectrum 0, w with multiplicity
    w - 1) or its complement (0 with multiplicity w); the join removes one
    zero and shifts the rest by the class's neighbour weight, d - 1 - w for
    a clique and d - 1 otherwise (see ``divisor_graph``). So the class of d
    adds d - 1, w - 1 times, and a singleton adds nothing.
    """
    return [(d - 1, w - 1) for d, w in zip(g.vertices, g.weights) if w > 1]


def _quotient_eigenvalues(g: WeightedDivisorGraph) -> list[float]:
    """Eigenvalues of the weighted quotient Laplacian, ascending, from one eigh call.

    LAPACK's values are off by up to about eps * ||C|| for the symmetric
    form C, which is most of a small value of a strongly graded quotient,
    with classes of 1 to millions of vertices. So each value is the
    Rayleigh quotient of its eigenvector v, from the same call, in the
    integer form: the sum over edges of m_i*m_j*(x_i - x_j)^2 over the sum
    of m_i*x_i^2, with x = W^(-1/2) v. Every term is nonnegative with exact
    integer weights, so nothing cancels, and the error is second order in
    that of v. Every quotient takes this one path.
    """
    _, vectors = symmetric_eigenvalues(symmetric_form(g), vectors=True)
    w = np.array(g.weights, dtype=np.float64)
    x = vectors / np.sqrt(w)[:, None]
    i, j = upper_edges(g.adjacency)
    # one (edges, k) and one (k, k) array, squared and weighted in place
    diff = x[i]
    diff -= x[j]
    diff *= diff
    weight = w[i]
    weight *= w[j]
    diff *= weight[:, None]
    x *= x
    x *= w[:, None]
    return sorted((np.add.reduce(diff) / np.add.reduce(x)).tolist())


def reduced_spectrum(n: int | Factorization) -> SpectrumAssembly:
    """Full Laplacian spectrum of the zero-divisor graph via the quotient.

    Runtime is governed by the number of proper divisors k, never by n:
    one k x k symmetric eigenproblem, one coalescing of its k values, and
    at most k class (value, multiplicity) pairs added as exact integers.
    Given n, it is refused first, as ``analyze`` refuses it
    (``require_reducible``), so no k x k array of an n past the envelope
    exists; given the factorization a caller refused n with, nothing is
    refused again.
    """
    g = build_divisor_graph(n)
    quotient_values = _quotient_eigenvalues(g)
    quotient = coalesce(quotient_values)
    return SpectrumAssembly(
        n=g.n,
        graph=g,
        quotient_values=tuple(quotient_values),
        quotient=quotient,
        # the class values d - 1 ascend with the divisors d
        total=quotient.plus_exact(class_pairs(g)),
    )


def residue_polynomials(graphs: Sequence[WeightedDivisorGraph]) -> list[IntPolynomial]:
    """The characteristic polynomial modulo EXCLUSION_PRIME of each graph's
    weighted Laplacian, the residue polynomial ``exact_total_spectrum``
    deflates, from one ``char_poly_integer`` call per group.

    The graphs are grouped by isqrt(k), which fixes the kernel's baby-step
    count, and each group is zero-padded to its largest order K only, since
    padding across groups would give small orders the giant steps of large
    ones. A group holds at most max(1, STEP_SPAN // K^2) graphs, so that one
    call holds no more numbers than one graph of order near sqrt(STEP_SPAN)
    alone, and every order above 181 is a group of one.
    """
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        groups.setdefault(math.isqrt(len(g.vertices)), []).append(i)
    out: dict[int, IntPolynomial] = {}
    for members in groups.values():
        top = max(len(graphs[i].vertices) for i in members)
        size = max(1, STEP_SPAN // (top * top))
        for lo in range(0, len(members), size):
            part = members[lo : lo + size]
            stack = weighted_laplacians([graphs[i] for i in part])
            orders = [len(graphs[i].vertices) for i in part]
            out.update(zip(part, char_poly_integer(stack, EXCLUSION_PRIME, orders)))
    return [out[i] for i in range(len(graphs))]


def assemble_range(
    ns: Iterable[int],
) -> Iterator[tuple[Factorization, SpectrumAssembly | None]]:
    """(factorization, reduced spectrum) for each n of ``ns`` in turn, the
    spectrum None for n = p^t and n = pq (``closed_form_spectra``), a chunk of
    at most RANGE_CHUNK n at a time: the one route from n to its spectra, a
    lone n being a range of one.

    Each n is refused once, off its factorization and before its divisor
    graph is built from it, by the one gate ``require_reducible``, which
    every int entry point to the reduced route shares. The reduced spectra
    of the chunk's other n carry their residue polynomials, from one
    ``char_poly_integer`` call per group of orders (``residue_polynomials``).
    A refused n ends the chunk: the n before it are yielded, then its refusal
    is raised, so its divisor graph is never built.
    """
    it = iter(ns)
    while chunk := list(islice(it, RANGE_CHUNK)):
        rows: list[tuple[Factorization, SpectrumAssembly | None]] = []
        refusal = None
        for n in chunk:
            try:
                fact = require_reducible(n)
            except (EmptyGraphError, OverflowError) as exc:
                refusal = exc
                break
            closed = fact.is_prime_power or fact.is_product_of_two_distinct_primes
            rows.append((fact, None if closed else reduced_spectrum(fact)))
        polys = iter(residue_polynomials([a.graph for _, a in rows if a is not None]))
        for fact, a in rows:
            yield fact, None if a is None else a._replace(residues=next(polys))
        if refusal is not None:
            raise refusal


def exact_total_spectrum(n: int | SpectrumAssembly) -> SpectrumMultiset | None:
    """Exact integer spectrum when one exists, None otherwise.

    Given n, it is a range of one (``assemble_range``), and the two
    integral families come in closed form, with no polynomial
    (``closed_form_spectra``): n = p^t, the paper's theorem, and n = pq,
    whose graph is the complete bipartite K_(p-1,q-1). Given a reduced
    spectrum, it decides that assembly, as it does every other n: class
    values are integers by construction, so the spectrum is integral
    precisely when the quotient characteristic polynomial factors
    completely over the integers. Its roots are deflated exactly from the nonnegative integers
    within rho = 1e3 * k * eps * ||C||_F of a quotient eigenvalue, ||C||_F
    the Frobenius norm of the symmetric form, read off the eigenvalues as
    the root of their sum of squares: Weyl's bound plus LAPACK's backward
    error, below 0.01 for n <= 10^7. Only a larger float error hides a
    root. OverflowError, before any candidate exists, when the windows may
    hold more than MAX_CANDIDATES integers. The polynomial is first
    deflated modulo the one prime EXCLUSION_PRIME = 2^21 - 9: the
    assembly's residues, computed as for a range of one when it carries
    none. A split over the candidates over Z would reduce to a split over
    their residues, so when deflation stops short there the answer is None,
    certified, without Hadamard's bound or the lift. Only a polynomial that
    splits modulo that prime pays for the integer polynomial and the exact
    deflation. ValueError for residues of another order or modulus.
    """
    assembly = n
    if not isinstance(n, SpectrumAssembly):
        fact, assembly = next(assemble_range([n]))
        if assembly is None:
            return closed_form_spectra(fact)
    residues = assembly.residues or residue_polynomials([assembly.graph])[0]
    values = assembly.quotient_values
    k = len(values)
    if (residues.modulus, len(residues.coefficients)) != (EXCLUSION_PRIME, k + 1):
        raise ValueError(f"residues are not of order {k} modulo {EXCLUSION_PRIME}")
    norm = math.sqrt(sum(map(mul, values, values)))
    rho = 1e3 * k * EPS * norm
    # each of the k windows holds at most floor(2 rho) + 1 integers
    most = k * (math.floor(2 * rho) + 1)
    if most > MAX_CANDIDATES:
        raise OverflowError(
            f"n={assembly.n} has up to {most} integers in its candidate-root windows, "
            f"above {MAX_CANDIDATES}"
        )
    candidates = {
        r
        for v in values
        for r in range(max(0, math.ceil(v - rho)), math.floor(v + rho) + 1)
    }
    if not integer_roots_complete(residues, candidates)[1]:
        return None
    poly = char_poly_integer(weighted_laplacian(assembly.graph))
    roots, complete = integer_roots_complete(poly, candidates)
    if not complete:
        return None
    pairs = list(roots.items()) + class_pairs(assembly.graph)
    return SpectrumMultiset.from_pairs(pairs)


def _prime_power_pairs(p: int, t: int) -> list[tuple[int, int]]:
    """The (value, multiplicity) pairs of n = p^t, t >= 2.

    The quotient adds 0 and p^i - 1 for each i in [1, t - 1] but t // 2;
    the class of p^i adds p^i - 1 with multiplicity phi(p^(t - i)) - 1,
    phi(p^j) = p^j - p^(j - 1).
    """
    quotient = [(0, 1)] + [(p**i - 1, 1) for i in range(1, t) if i != t // 2]
    classes = [(p**i - 1, p ** (t - i) - p ** (t - i - 1) - 1) for i in range(1, t)]
    return quotient + classes


def prime_power_spectrum(p: int, t: int) -> SpectrumMultiset:
    """Closed-form spectrum for n = p^t, t >= 2, as exact integers.

    0 once, and p^i - 1 for each i in [1, t - 1], phi(p^(t - i)) - 1 times
    from the class of p^i plus once from the quotient unless i = t // 2;
    the multiplicities total p^(t-1) - 1. ValueError for a p that is not
    prime or t < 2; OverflowError for a probable prime p at or above
    psi_13, which ``is_prime`` cannot prove prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < 2:
        raise ValueError("exponent must be at least 2")
    return SpectrumMultiset.from_pairs(_prime_power_pairs(p, t))


def closed_form_spectra(fact: Factorization) -> SpectrumMultiset | None:
    """The total spectrum of a composite n = p^t or n = pq in closed form,
    as exact integers; None for any other composite n.

    p^t comes from the paper's theorem (see ``prime_power_spectrum``). For
    p < q the graph of pq is the complete bipartite K_(p-1,q-1): the
    quotient adds 0 and p + q - 2, the class of p adds p - 1 with
    multiplicity q - 2 and the class of q adds q - 1 with multiplicity
    p - 2.
    """
    if fact.is_prime_power:
        pairs = _prime_power_pairs(*fact.factors[0])
    elif fact.is_product_of_two_distinct_primes:
        p, q = fact.primes
        pairs = [(0, 1), (p + q - 2, 1), (p - 1, q - 2), (q - 1, p - 2)]
    else:
        return None
    return SpectrumMultiset.from_pairs(pairs)


def brute_spectrum(n: int, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Oracle eigenvalues of the explicit vertex-level graph's Laplacian: an
    ascending float64 array of n - phi(n) - 1 values, never coalesced, so a
    defect in ``coalesce`` cannot hide on both sides of a comparison.
    Refused, by ``build_zero_divisor_graph``, for a prime or n < 4 and past
    ``cap`` vertices (OracleCapError), since the eigensolve is cubic in them.

    The Laplacian L is one float array: 0 - A, which keeps +0.0 off the
    edges, with the degrees written on its diagonal. Negation x -> n - x
    maps the ascending zero divisors onto themselves in reverse order and
    keeps xy = 0 (mod n), so J L J = L for the reversal J, and L is
    orthogonally similar to two blocks of half its order (Cantoni and
    Butler, Linear Algebra Appl. 13, 1976). With z vertices, h = z // 2,
    A = L[:h, :h] and C = L[:h, z-h:] reversed by columns, the vectors
    (u, -Ju) span A - C and the vectors (u, Ju) span A + C; for odd z the
    middle vertex n/2 is its own partner and borders A + C with
    sqrt(2) L[:h, h] and L[h, h]. Both blocks are exact integer matrices
    but for that border, and each takes one LAPACK call. The reversal is
    checked on the labels, ArithmeticError if it fails; no gcd class enters.
    """
    g = build_zero_divisor_graph(n, cap)
    labels = np.array(g.vertex_labels)
    if not (labels + labels[::-1] == n).all():
        raise ArithmeticError(f"zero divisors of {n} are not closed under x -> n - x")
    adj = g.adjacency
    lap = np.subtract(0.0, adj, dtype=np.float64)
    lap.flat[:: len(lap) + 1] = adj.sum(axis=1)
    z = len(lap)
    h = z // 2
    a = lap[:h, :h]
    c = lap[:h, z - h :][:, ::-1]
    plus = np.empty((z - h, z - h))
    np.add(a, c, out=plus[:h, :h])
    if z % 2:
        plus[:h, h] = plus[h, :h] = math.sqrt(2.0) * lap[:h, h]
        plus[h, h] = lap[h, h]
    values = symmetric_eigenvalues(plus)
    if h:
        values += symmetric_eigenvalues(a - c)
    return np.sort(values)
