"""Views of spectra, graphs and assemblies that only the tests read."""

import numpy as np

from zdgspec.analysis import class_vertex_degree
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


def edge_count_doubled(assembly: SpectrumAssembly) -> int:
    """Sum of all vertex degrees, i.e. twice the edge count."""
    return sum(c.size * class_vertex_degree(c) for c in assembly.contributions)
