"""Views of spectra, graphs and assemblies that only the tests read."""

import numpy as np

from zdgspec.divisor_graph import WeightedDivisorGraph, build_divisor_graph
from zdgspec.eigen import SpectrumMultiset
from zdgspec.join_spectrum import SpectrumAssembly
from zdgspec.zdg_explicit import SimpleGraph, build_zero_divisor_graph


def expand(spectrum: SpectrumMultiset) -> list[float]:
    """Every value, repeated by its multiplicity, ascending."""
    return [e.value for e in spectrum.entries for _ in range(e.multiplicity)]


def value_sum(spectrum: SpectrumMultiset) -> float:
    return sum(e.value * e.multiplicity for e in spectrum.entries)


def zero_multiplicity(spectrum: SpectrumMultiset) -> int:
    return sum(e.multiplicity for e in spectrum.entries if e.value == 0.0)


def neighbors(graph: WeightedDivisorGraph, i: int) -> np.ndarray:
    return np.flatnonzero(graph.adjacency[i])


def degrees(g: SimpleGraph) -> list[int]:
    """Degree sequence in vertex-label order."""
    return g.adjacency.sum(axis=1).tolist()


def expand_classes(n: int) -> tuple[SimpleGraph, np.ndarray, np.ndarray]:
    """The oracle graph of n, each vertex's gcd class (an index into the
    divisor graph's vertices), and the divisor graph expanded over those
    classes: x ~ y iff their classes are adjacent, or are one clique class.

    The expansion equals the oracle adjacency exactly when the graph is the
    generalized join of its gcd classes, each a clique where ``complete``
    says and edgeless elsewhere, over the divisor graph.
    """
    oracle = build_zero_divisor_graph(n)
    g = build_divisor_graph(n)
    cls = np.searchsorted(g.vertices, np.gcd(oracle.vertex_labels, n))
    expanded = (g.adjacency | np.diag(g.complete))[np.ix_(cls, cls)]
    np.fill_diagonal(expanded, False)
    return oracle, cls, expanded


def class_names(graph: WeightedDivisorGraph) -> list[str]:
    """Name of the subgraph each gcd class induces, in divisor order; K_1
    for a singleton of either kind (the two coincide on one vertex)."""
    return [
        "K_1" if w == 1 else f"K_{w}" if c else f"K̄_{w}"
        for w, c in zip(graph.weights, graph.complete.tolist())
    ]


def class_degrees(graph: WeightedDivisorGraph) -> list[int]:
    """Degree of the vertices of each gcd class, in divisor order: the
    neighbor weight M, plus w - 1 inside a clique of w vertices."""
    return [
        m + (w - 1) * c
        for w, m, c in zip(
            graph.weights, graph.neighbor_weights.tolist(), graph.complete.tolist()
        )
    ]


def edge_count_doubled(assembly: SpectrumAssembly) -> int:
    """Sum of all vertex degrees, i.e. twice the edge count."""
    g = assembly.graph
    return sum(w * d for w, d in zip(g.weights, class_degrees(g)))
