"""The weighted graph on the proper divisors of n and its quotient matrices.

Vertices are the proper divisors d_1 < ... < d_k of n; d_i and d_j are
adjacent iff n divides d_i * d_j. Vertex d_i carries the weight
phi(n / d_i), the size of the residue class {x : gcd(x, n) = d_i}. The
adjacency B = [n | d_i * d_j] keeps its diagonal: the class of d_i induces
a clique when n divides d_i^2, else no edge. This graph is the quotient of
the zero-divisor graph of Z_n under its class partition. By the Chinese
remainder theorem x in the class of d annihilates the d - 1 nonzero
multiples of n / d, itself among them when n | d^2. So two closed-form
k x k matrices carry the quotient part of the Laplacian spectrum:

* the vertex-weighted Laplacian L = diag(d - 1) - B W, W = diag(weights)
  (integer entries, zero row sums, generally nonsymmetric), and
* its symmetric similar form W^(1/2) L W^(-1/2).

B is read off the exponent vectors a_i of the divisors over the
factorization n = prod p^e: n | d_i * d_j iff a_i + a_j >= e in every
coordinate; phi(n / d_i) = prod phi(p^(e - a_i)) comes from the pass that
generates d_i. So the graph is one k x k broadcast and multiplies no divisors.

All arrays use ascending divisor order so fixtures are reproducible.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .eigen import check_order
from .errors import EmptyGraphError
from .numtheory import Factorization, factorize

INT64_MAX = np.iinfo(np.int64).max


class WeightedDivisorGraph(NamedTuple):
    n: int
    vertices: tuple[int, ...]
    weights: tuple[int, ...]
    adjacency: np.ndarray  # (k, k) bool, symmetric, true diagonal at cliques

    def edges(self) -> list[tuple[int, int]]:
        """Edges as ascending (d_i, d_j) divisor pairs."""
        i, j = upper_edges(self.adjacency)
        v = self.vertices
        return [(v[a], v[b]) for a, b in zip(i.tolist(), j.tolist())]


def upper_edges(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices i < j of the edges, in row-major order: the
    diagonal, where a clique class meets itself, holds no edge."""
    i, j = np.nonzero(adjacency)
    upper = i < j
    return i[upper], j[upper]


def require_composite(n: int) -> Factorization:
    """The factorization of n, once n is known to be composite: every entry
    point validates n with it and reads n's shape off what it returns.
    TypeError for an n that is not an integer, a float among them, and an
    integer type such as np.int64 is taken as a Python int; then
    EmptyGraphError for a prime, and for n < 4 without factoring it."""
    n = operator.index(n)
    if n < 4 or (fact := factorize(n)).is_prime:
        raise EmptyGraphError(f"Z_{n} has no zero divisors")
    return fact


def vertex_count(fact: Factorization) -> int:
    """n - phi(n) - 1, the number of zero divisors of n, read off its
    factorization; OverflowError when it does not fit in int64, the integer
    type of the quotient matrices, whose every weight and neighbor sum it
    bounds. Past 2^64 a product of many small primes has millions of
    divisors, so this is checked before any is enumerated."""
    z = fact.n - fact.phi - 1
    if z > INT64_MAX:
        raise OverflowError(f"Z_{fact.n} has more zero divisors than int64 can count")
    return z


def require_reducible(n: int) -> Factorization:
    """The factorization of n, once the reduced route can take n: the one
    gate, which every entry point given an int runs, in this order, before
    any divisor is enumerated. EmptyGraphError for a prime or n < 4
    (``require_composite``); OverflowError for 2048 proper divisors or more
    (``check_order``), then for more zero divisors than int64 counts
    (``vertex_count``)."""
    fact = require_composite(n)
    check_order(fact.divisor_count() - 2)
    vertex_count(fact)
    return fact


def build_divisor_graph(n: int | Factorization) -> WeightedDivisorGraph:
    """Build the weighted divisor graph of a composite n >= 4 inside the
    reduced route's envelope. Given n, it refuses any other n first, as
    ``require_reducible`` does; given the factorization that a caller
    refused n with, it refuses nothing again."""
    fact = n if isinstance(n, Factorization) else require_reducible(n)
    divs, exps, weights = zip(*fact.divisors_with_exponents()[1:-1])
    # one row per prime: reducing over a short leading axis of contiguous
    # k-long rows is ~18x faster at k = 446 than over a trailing prime axis
    a = np.array([*zip(*exps)], dtype=np.int16)  # (r, k)
    e = np.array([x for _, x in fact.factors], dtype=np.int16)[:, None, None]
    # the diagonal 2a_i >= e says n | d_i^2; the class of d_i holds the
    # d_i u with u prime to n / d_i, so n | xy within it exactly then
    adj = (a[:, :, None] + a[:, None] >= e).all(axis=0)
    return WeightedDivisorGraph(fact.n, divs, weights, adj)


def _diagonal(g: WeightedDivisorGraph) -> list[int]:
    """d - 1 - [n | d^2] m for each vertex d of weight m, in exact integers:
    the diagonal of diag(d - 1) - B W, the neighbour weight of the class."""
    clique = g.adjacency.diagonal().tolist()
    return [d - 1 - m * c for d, m, c in zip(g.vertices, g.weights, clique)]


def weighted_laplacian(g: WeightedDivisorGraph) -> np.ndarray:
    """Vertex-weighted Laplacian diag(d - 1) - B W, a k x k int64 matrix:
    -m_j off the diagonal on edges, neighbour weight sums on the diagonal.
    Integer entries, zero row sums."""
    minus_w = -np.array(g.weights, dtype=np.int64)
    lap = np.multiply(g.adjacency, minus_w, dtype=np.int64)
    lap.flat[:: len(minus_w) + 1] = _diagonal(g)
    return lap


def symmetric_form(g: WeightedDivisorGraph) -> np.ndarray:
    """Symmetric matrix similar to the weighted Laplacian.

    Equal to W^{1/2} L W^{-1/2} for W = diag(weights): same diagonal,
    -sqrt(m_i * m_j) on edges. This is the matrix the eigensolver sees.
    The product m_i * m_j is rounded once to float64 before the root, as
    for the exact integer product while the weights stay below 2^53, and
    so is each diagonal entry, from its exact integer.
    """
    w = np.array(g.weights, dtype=np.float64)
    root = np.sqrt(np.multiply.outer(w, w))
    c = np.where(g.adjacency, np.negative(root, out=root), 0.0)
    c.flat[:: len(w) + 1] = _diagonal(g)
    return c
