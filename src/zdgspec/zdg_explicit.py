"""Brute-force zero-divisor graph of Z_n: the verification oracle.

Vertices are the ring elements x in [1, n-1] with gcd(x, n) > 1; x and y
are adjacent iff n divides x*y. Construction is a direct O(z^2) product
scan over the z = n - phi(n) - 1 zero divisors, deliberately independent of
the divisor-graph reduction it is used to check. Its cost is quadratic in z
in memory, and the oracle's eigensolve cubic, so the builder refuses a graph
of more than ``cap`` vertices, DEFAULT_ORACLE_CAP unless its caller says
otherwise, before it builds any array. The products are taken in
the narrowest unsigned integer type that holds (n - 1)^2, which bounds every
one of them, so the scan is exact and moves no more bytes than it must.

Negation x -> n - x maps zero divisors to zero divisors, and
(n - x)y = -xy (mod n), so x and n - x are twins, with the same neighbours
but for each other; on the ascending labels negation is the reversal
i -> z - 1 - i, with n/2 its own image when n is even. The adjacency is
therefore unchanged by reversing both its rows and its columns, and a row
is unchanged by reversing it but at its own twin pair. Both are what
``join_spectrum.brute_spectrum`` checks on the graph and uses to read half
its eigenvalues off the degrees and solve for the other half only.

The graph knows nothing of the gcd classes. The test suite groups its
vertices by gcd with n, expands the divisor graph's adjacency, diagonal
included, over those classes (two classes joined whole or not at all, a
class a clique where the diagonal holds) and checks that the expansion
equals this adjacency entry for entry.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .divisor_graph import require_composite
from .errors import OracleCapError

DEFAULT_ORACLE_CAP = 1200


class SimpleGraph(NamedTuple):
    vertex_labels: tuple[int, ...]
    adjacency: np.ndarray  # (z, z) bool, symmetric, false diagonal

    @property
    def order(self) -> int:
        return len(self.vertex_labels)

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as ascending label pairs."""
        return [
            (self.vertex_labels[i], self.vertex_labels[j])
            for i, j in np.argwhere(np.triu(self.adjacency))
        ]


def build_zero_divisor_graph(n: int, cap: int = DEFAULT_ORACLE_CAP) -> SimpleGraph:
    """Explicit zero-divisor graph of Z_n for composite n >= 4.

    EmptyGraphError for a prime or n < 4, then OracleCapError when its
    n - phi(n) - 1 vertices are more than ``cap``; both before any array
    exists.
    """
    z = n - require_composite(n).phi - 1
    if z > cap:
        raise OracleCapError(
            f"explicit graph for n={n} has {z} vertices, above the cap {cap}"
        )
    x = np.arange(2, n - 1)
    labels = x[np.gcd(x, n) > 1]
    product = np.min_scalar_type((n - 1) ** 2)
    v = labels.astype(product)
    residues = np.outer(v, v)
    residues %= product.type(n)
    adj = residues == 0
    np.fill_diagonal(adj, False)
    return SimpleGraph(tuple(labels.tolist()), adj)
