"""Views of spectra, graphs and assemblies that only the tests read, and
reference copies of rewritten bodies."""

import math
from operator import mul
from typing import NamedTuple

import numpy as np

from zdgspec import eigen
from zdgspec.analysis import AnalysisReport, complement_disconnected, mu_equals_kappa
from zdgspec.divisor_graph import WeightedDivisorGraph, build_divisor_graph
from zdgspec.eigen import (
    COALESCE_TOL,
    INTEGER_SNAP_TOL,
    IntPolynomial,
    SpectrumEntry,
    SpectrumMultiset,
    symmetric_eigenvalues,
)
from zdgspec.join_spectrum import SpectrumAssembly, reduced_spectrum
from zdgspec.numtheory import factorize
from zdgspec.zdg_explicit import DEFAULT_ORACLE_CAP, SimpleGraph, build_zero_divisor_graph

# relative gap within which a quotient eigenvalue counts as mu or lambda in
# the numeric comparison that corroborates the report's quotient flags
EXTREME_MATCH_RTOL = 1e-8
DENSE_MAX = 10**4
DENSE_K = (28, 30, 34, 38, 46)


def dense_pool() -> list[int]:
    """Every n <= 10^4 with 28, 30, 34, 38 or 46 proper divisors: the
    largest quotients below 10^4."""
    counts = [0] * (DENSE_MAX + 1)
    for d in range(1, DENSE_MAX + 1):
        for m in range(d, DENSE_MAX + 1, d):
            counts[m] += 1
    return [n for n in range(4, DENSE_MAX + 1) if counts[n] - 2 in DENSE_K]


def expand(spectrum: SpectrumMultiset) -> list[float]:
    """Every value, repeated by its multiplicity, ascending."""
    return [e.value for e in spectrum.entries for _ in range(e.multiplicity)]


def value_sum(spectrum: SpectrumMultiset) -> float:
    return sum(e.value * e.multiplicity for e in spectrum.entries)


def zero_multiplicity(spectrum: SpectrumMultiset) -> int:
    return sum(e.multiplicity for e in spectrum.entries if e.value == 0.0)


def is_integral(spectrum: SpectrumMultiset) -> bool:
    return all(e.exact for e in spectrum.entries)


def degree(p: IntPolynomial) -> int:
    return len(p.coefficients) - 1


def evaluate(p: IntPolynomial, x: int) -> int:
    """p(x), or its residue when p has a modulus."""
    return eigen._divide_linear(p.coefficients, x, p.modulus)[1]


def neighbors(graph: WeightedDivisorGraph, i: int) -> np.ndarray:
    """The other vertices adjacent to vertex i: the diagonal is no edge."""
    j = np.flatnonzero(graph.adjacency[i])
    return j[j != i]


def degrees(g: SimpleGraph) -> list[int]:
    """Degree sequence in vertex-label order."""
    return g.adjacency.sum(axis=1).tolist()


def expand_classes(n: int) -> tuple[SimpleGraph, np.ndarray, np.ndarray]:
    """The oracle graph of n, each vertex's gcd class (an index into the
    divisor graph's vertices), and the divisor graph's adjacency B expanded
    over those classes: x ~ y iff B holds for their classes, x != y.

    The expansion equals the oracle adjacency exactly when the graph is the
    generalized join of its gcd classes, each a clique where the diagonal
    of B holds and edgeless elsewhere, over the divisor graph.
    """
    oracle = build_zero_divisor_graph(n)
    g = build_divisor_graph(n)
    cls = np.searchsorted(g.vertices, np.gcd(oracle.vertex_labels, n))
    expanded = g.adjacency[np.ix_(cls, cls)]
    np.fill_diagonal(expanded, False)
    return oracle, cls, expanded


def class_names(graph: WeightedDivisorGraph) -> list[str]:
    """Name of the subgraph each gcd class induces, in divisor order; K_1
    for a singleton of either kind (the two coincide on one vertex)."""
    return [
        "K_1" if w == 1 else f"K_{w}" if c else f"K̄_{w}"
        for w, c in zip(graph.weights, graph.adjacency.diagonal().tolist())
    ]


def class_degrees(graph: WeightedDivisorGraph) -> list[int]:
    """Degree of the vertices of each gcd class, in divisor order, counted
    off the adjacency: the weights of the classes B joins the class to, its
    own included when it is a clique, less the vertex itself."""
    b = graph.adjacency
    return (b @ np.array(graph.weights, dtype=np.int64) - b.diagonal()).tolist()


def edge_count_doubled(assembly: SpectrumAssembly) -> int:
    """Sum of all vertex degrees, i.e. twice the edge count."""
    g = assembly.graph
    return sum(w * d for w, d in zip(g.weights, class_degrees(g)))


def reduced_report(n: int) -> tuple[AnalysisReport, SpectrumMultiset]:
    """The report and total spectrum of n read off ``reduced_spectrum(n)``
    alone: the vertex count and degrees from the divisor graph's classes, mu,
    lambda and the quotient flags from the coalesced float spectra (mu and
    lambda within EXTREME_MATCH_RTOL of the quotient's second smallest and
    largest value), and integrality from their exact flags. For p^t and pq
    the closed route must give exactly this."""
    assembly = reduced_spectrum(n)
    total, quotient = assembly.total, assembly.quotient

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= EXTREME_MATCH_RTOL * max(1.0, abs(a))

    mu, q2 = total.second_smallest(), quotient.second_smallest()
    degs = class_degrees(assembly.graph)
    fact = factorize(n)
    disconnected = complement_disconnected(fact)
    report = AnalysisReport(
        n=n,
        vertex_count=sum(assembly.graph.weights),
        mu=mu,
        lambda_=total.max_value,
        kappa=min(degs),
        delta_min=min(degs),
        Delta_max=max(degs),
        laplacian_integral=is_integral(total),
        complement_disconnected=disconnected,
        lambda_equals_order=disconnected,
        mu_equals_kappa=mu_equals_kappa(fact),
        mu_from_quotient=mu is not None and q2 is not None and close(mu, q2),
        lambda_from_quotient=close(total.max_value, quotient.max_value),
    )
    return report, total


# ---------------------------------------------------------------------------
# reference copies: the straightforward bodies that faster ones replaced,
# kept so that tests can require bit-for-bit equal results from the shipped
# versions


class ReferenceDivisorGraph(NamedTuple):
    """The divisor graph as ``reference_build_divisor_graph`` returns it:
    the adjacency with a false diagonal, the neighbor weight sums M and the
    clique flags."""

    n: int
    vertices: tuple[int, ...]
    weights: tuple[int, ...]
    adjacency: np.ndarray
    neighbor_weights: np.ndarray
    complete: np.ndarray


def reference_brute_spectrum(n: int, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """The oracle as two LAPACK calls on the blocks A + C and A - C of the
    z x z float Laplacian, split along x -> n - x."""
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


def reference_divisors_with_exponents(n: int) -> list[tuple[int, tuple[int, ...], int]]:
    out: list[tuple[int, tuple[int, ...], int]] = [(1, (), 1)]
    for p, e in factorize(n).factors:
        steps = [(i, p**i, p ** (e - i) - p ** (e - i) // p) for i in range(e + 1)]
        out = [(d * q, a + (i,), f * g) for d, a, f in out for i, q, g in steps]
    return sorted(out)


def reference_build_divisor_graph(n: int) -> ReferenceDivisorGraph:
    fact = factorize(n)
    divs, exps, weights = zip(*reference_divisors_with_exponents(n)[1:-1])
    a = np.array(exps, dtype=np.int16).T.copy()  # (r, k)
    e = np.array([x for _, x in fact.factors], dtype=np.int16)[:, None]
    adj = (a[:, :, None] + a[:, None] >= e[:, None]).all(axis=0)
    complete = adj.diagonal().copy()
    np.fill_diagonal(adj, False)
    w = np.array(weights, dtype=np.int64)
    return ReferenceDivisorGraph(n, divs, weights, adj, adj @ w, complete)


def reference_weighted_laplacian(g: ReferenceDivisorGraph) -> np.ndarray:
    lap = -(g.adjacency * np.asarray(g.weights, dtype=np.int64))
    np.fill_diagonal(lap, g.neighbor_weights)
    return lap


def reference_symmetric_form(g: ReferenceDivisorGraph) -> np.ndarray:
    w = np.asarray(g.weights, dtype=np.float64)
    c = np.where(g.adjacency, -np.sqrt(np.multiply.outer(w, w)), 0.0)
    np.fill_diagonal(c, g.neighbor_weights)
    return c


def reference_quotient_eigenvalues(g: ReferenceDivisorGraph) -> list[float]:
    """The Rayleigh quotients of the eigenvectors of the symmetric form,
    upper edges taken from np.triu."""
    _, vectors = np.linalg.eigh(reference_symmetric_form(g))
    w = np.asarray(g.weights, dtype=np.float64)
    x = vectors / np.sqrt(w)[:, None]
    i, j = np.nonzero(np.triu(g.adjacency))
    num = ((w[i] * w[j])[:, None] * (x[i] - x[j]) ** 2).sum(axis=0)
    den = (w[:, None] * x**2).sum(axis=0)
    return sorted((num / den).tolist())


def reference_merged(entries) -> SpectrumMultiset:
    out: list[SpectrumEntry] = []
    for e in sorted(entries, key=lambda e: e.value):
        if e.exact and out and out[-1].exact and out[-1].value == e.value:
            m = e.multiplicity + out.pop().multiplicity
            e = SpectrumEntry(e.value, m, True)
        out.append(e)
    return SpectrumMultiset(tuple(out))


def reference_coalesce(values) -> SpectrumMultiset:
    def group_entry(total: float, count: int) -> SpectrumEntry:
        mean = total / count
        nearest = round(mean)
        if abs(mean - nearest) > INTEGER_SNAP_TOL:
            return SpectrumEntry(mean, count, False)
        return SpectrumEntry(float(nearest), count, True)

    entries: list[SpectrumEntry] = []
    tol = COALESCE_TOL
    total, count, prev = 0.0, 0, 0.0
    for value in sorted(map(float, values)):
        if count and value - prev > max(tol, tol * max(abs(prev), abs(value))):
            entries.append(group_entry(total, count))
            total, count = 0.0, 0
        total += value
        count += 1
        prev = value
    if count:
        entries.append(group_entry(total, count))
    return reference_merged(entries)


def reference_degree_extremes(g: ReferenceDivisorGraph) -> tuple[int, int]:
    degs = g.neighbor_weights + (np.asarray(g.weights) - 1) * g.complete
    return int(degs.min()), int(degs.max())


def reference_newton_char_poly(sums: list[int], p: int) -> list[int]:
    """Newton's identities one coefficient at a time, every term in Python."""
    k = len(sums) - 1
    c = [1]
    for m in range(1, k + 1):
        c.append(-sum(map(mul, c, sums[m - 1 :: -1])) * pow(m, -1, p) % p)
    if sum(map(mul, c, sums[::-1])) % p:
        raise ArithmeticError("power sums violate Cayley-Hamilton")
    return c[::-1]


def reference_char_poly_mod(r: np.ndarray, p: int) -> list[int]:
    """The power-sum kernel with its baby and giant steps taken one product
    at a time."""
    k = r.shape[0]
    s = math.isqrt(k) + 1
    g = -(-(k + 1) // s)
    baby = np.empty((s, k, k))
    baby[0] = r
    eigen._centre(baby[0], p)
    for j in range(1, s):
        eigen._centre(np.matmul(baby[j - 1], baby[0], out=baby[j]), p)
    step = baby[-1].T
    giant = np.zeros((g, k, k))
    giant[0].flat[:: k + 1] = 1
    giant[1:2] = step
    for i in range(2, g):
        eigen._centre(np.matmul(step, giant[i - 1], out=giant[i]), p)
    flat_giant, flat_baby = giant.reshape(g, k * k), baby.reshape(s, k * k).T
    sums = np.zeros((g, s), dtype=np.int64)
    for lo in range(0, k * k, eigen.TRACE_CHUNK):
        chunk = slice(lo, lo + eigen.TRACE_CHUNK)
        sums += (flat_giant[:, chunk] @ flat_baby[chunk]).astype(np.int64) % p
    return reference_newton_char_poly(sums.ravel().tolist()[: k + 1], p)
