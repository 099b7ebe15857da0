"""Views of spectra, graphs and assemblies that only the tests read."""

import numpy as np

from zdgspec.divisor_graph import WeightedDivisorGraph
from zdgspec.eigen import SpectrumMultiset
from zdgspec.join_spectrum import SpectrumAssembly


def expand(spectrum: SpectrumMultiset) -> list[float]:
    """Every value, repeated by its multiplicity, ascending."""
    return [e.value for e in spectrum.entries for _ in range(e.multiplicity)]


def value_sum(spectrum: SpectrumMultiset) -> float:
    return sum(e.value * e.multiplicity for e in spectrum.entries)


def zero_multiplicity(spectrum: SpectrumMultiset) -> int:
    return sum(e.multiplicity for e in spectrum.entries if e.value == 0.0)


def neighbors(graph: WeightedDivisorGraph, i: int) -> np.ndarray:
    return np.flatnonzero(graph.adjacency[i])


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
