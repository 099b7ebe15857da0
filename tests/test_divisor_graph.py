import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdgspec.divisor_graph
from zdgspec.divisor_graph import (
    build_divisor_graph,
    require_composite,
    symmetric_form,
    weighted_laplacian,
)
from zdgspec.errors import EmptyGraphError
from zdgspec.numtheory import euler_phi, factorize, is_prime

from helpers import neighbors

composite = st.integers(min_value=4, max_value=2000).filter(lambda n: not is_prime(n))


def test_rejects_primes_and_small_n():
    for n in (2, 3, 5, 7, 13, 97):
        with pytest.raises(EmptyGraphError):
            require_composite(n)
    # never factorize's ValueError for n < 1: the refusal comes first
    for n in (0, 1, -4, -6):
        with pytest.raises(EmptyGraphError):
            require_composite(n)


def test_require_composite_returns_the_factorization():
    assert require_composite(60) == factorize(60)
    assert require_composite(2**65).factors == ((2, 65),)


def test_build_from_a_refused_factorization(monkeypatch):
    # given the factorization a caller refused n with, the build refuses
    # nothing again and returns the graph it builds from n
    graphs = {n: build_divisor_graph(n) for n in (4, 12, 18, 720, 2**64)}

    def refused(*args):
        raise AssertionError("n refused twice")

    monkeypatch.setattr(zdgspec.divisor_graph, "require_composite", refused)
    monkeypatch.setattr(zdgspec.divisor_graph, "vertex_count", refused)
    for n, g in graphs.items():
        built = build_divisor_graph(factorize(n))
        assert type(built.n) is int and built.n == n
        assert (built.vertices, built.weights) == (g.vertices, g.weights)
        assert np.array_equal(built.adjacency, g.adjacency)


def test_vertex_count_bounded_by_int64():
    # 2^64 has 2^63 - 1 zero divisors, the most int64 can count
    g = build_divisor_graph(2**64)
    assert sum(g.weights) == 2**63 - 1
    # the Laplacian diagonal adds d - 1, up to 2^63 - 1, onto -[n | d^2] w:
    # 2^63 - 2 at 2^63, a clique of one vertex
    lap = weighted_laplacian(g)
    assert lap[-1, -1] == 2**63 - 2
    assert lap.sum(axis=1).tolist() == [0] * len(g.vertices)
    with pytest.raises(OverflowError):
        build_divisor_graph(2**65)
    with pytest.raises(OverflowError):
        build_divisor_graph(2**40 * 3**20)


def test_n18_is_the_path_2_9_6_3():
    g = build_divisor_graph(18)
    assert g.vertices == (2, 3, 6, 9)
    assert g.weights == (6, 2, 2, 1)
    assert g.edges() == [(2, 9), (3, 6), (6, 9)]


def test_n12_graph():
    g = build_divisor_graph(12)
    assert g.vertices == (2, 3, 4, 6)
    assert g.weights == (2, 2, 2, 1)
    assert g.edges() == [(2, 6), (3, 4), (4, 6)]


def test_n9_single_vertex():
    g = build_divisor_graph(9)
    assert g.vertices == (3,)
    assert g.weights == (2,)
    assert g.edges() == []
    # one clique class, K_2: a true diagonal, and no neighbour weight
    assert g.adjacency.tolist() == [[True]]
    assert weighted_laplacian(g).tolist() == [[0]]


@given(composite)
@settings(max_examples=60, deadline=None)
def test_adjacency_equivalent_predicate(n):
    # n | d_i*d_j is the same relation as (n/d_j) | d_i, on the diagonal too
    g = build_divisor_graph(n)
    k = len(g.vertices)
    for i in range(k):
        for j in range(k):
            di, dj = g.vertices[i], g.vertices[j]
            assert g.adjacency[i, j] == ((di % (n // dj)) == 0)


@given(composite)
@settings(max_examples=80, deadline=None)
def test_weights_and_count_identity(n):
    g = build_divisor_graph(n)
    assert all(w == euler_phi(n // d) for d, w in zip(g.vertices, g.weights))
    assert sum(g.weights) == n - euler_phi(n) - 1


@given(composite)
@settings(max_examples=60, deadline=None)
def test_divisor_graph_connected(n):
    g = build_divisor_graph(n)
    k = len(g.vertices)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in neighbors(g, i):
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    assert len(seen) == k


@given(composite)
@settings(max_examples=60, deadline=None)
def test_complete_matches_oracle_class_kinds(n):
    g = build_divisor_graph(n)
    assert g.adjacency.diagonal().tolist() == [d * d % n == 0 for d in g.vertices]


def test_class_degrees_examples():
    # the neighbour weights M = d - 1 - [n | d^2] phi(n/d) on the diagonal
    lap = weighted_laplacian(build_divisor_graph(18))
    assert lap.diagonal().tolist() == [1, 2, 3, 8]
    # n = pq: M values are phi(p), phi(q) at vertices p, q
    assert weighted_laplacian(build_divisor_graph(15)).diagonal().tolist() == [2, 4]


def test_weighted_laplacian_n18_matrix():
    g = build_divisor_graph(18)
    expected = np.array(
        [
            [1, 0, 0, -1],
            [0, 2, -2, 0],
            [0, -2, 3, -1],
            [-6, 0, -2, 8],
        ]
    )
    assert np.array_equal(weighted_laplacian(g), expected)


@given(composite)
@settings(max_examples=80, deadline=None)
def test_laplacian_rows_sum_to_zero_exactly(n):
    lap = weighted_laplacian(build_divisor_graph(n))
    assert lap.dtype.kind == "i"
    assert np.array_equal(lap.sum(axis=1), np.zeros(lap.shape[0], dtype=lap.dtype))


def test_symmetric_form_entries_n18():
    c = symmetric_form(build_divisor_graph(18))
    assert c[0, 3] == pytest.approx(-np.sqrt(6.0))
    assert c[3, 0] == c[0, 3]
    assert np.array_equal(np.diag(c), [1, 2, 3, 8])


@given(composite)
@settings(max_examples=50, deadline=None)
def test_symmetric_form_similar_to_laplacian(n):
    # independent oracle: eigenvalues of the nonsymmetric integer Laplacian
    g = build_divisor_graph(n)
    lap_eigs = np.sort(np.linalg.eigvals(weighted_laplacian(g).astype(float)).real)
    c_eigs = np.sort(np.linalg.eigvalsh(symmetric_form(g)))
    assert np.allclose(lap_eigs, c_eigs, atol=1e-9 * max(1.0, abs(c_eigs[-1])))


@given(composite)
@settings(max_examples=50, deadline=None)
def test_similarity_transform_recovers_c(n):
    g = build_divisor_graph(n)
    w = np.array(g.weights, dtype=float)
    lap = weighted_laplacian(g).astype(float)
    transformed = np.diag(np.sqrt(w)) @ lap @ np.diag(1.0 / np.sqrt(w))
    assert np.allclose(transformed, symmetric_form(g), atol=1e-9)


def _scan_divisors(n):
    """Proper divisors of n by trial division up to sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(low) | {n // d for d in low})[1:-1]


def test_build_matches_pairwise_definition():
    # the exponent-vector broadcast against the definition, pair by pair:
    # n | d_i * d_j (the diagonal included), weight phi(n / d), M_i the sum
    # of neighbor weights, and C with -sqrt(m_i * m_j) from the exact
    # integer product, bit for bit
    cases = [(n, _scan_divisors(n)) for n in range(4, 3001) if not is_prime(n)]
    cases.append((8648640, _scan_divisors(8648640)))
    cases.append((2**62, [2**i for i in range(1, 62)]))  # k = 61
    for n, divs in cases:
        g = build_divisor_graph(n)
        k = len(divs)
        w = [euler_phi(n // d) for d in divs]
        adj = np.zeros((k, k), dtype=bool)
        lap = np.zeros((k, k), dtype=np.int64)
        c = np.zeros((k, k), dtype=np.float64)
        m = [0] * k
        for i in range(k):
            for j in range(k):
                adj[i, j] = (divs[i] * divs[j]) % n == 0
                if i != j and adj[i, j]:
                    m[i] += w[j]
                    lap[i, j] = -w[j]
                    c[i, j] = -math.sqrt(w[i] * w[j])
            lap[i, i] = m[i]
            c[i, i] = float(m[i])
        assert g.vertices == tuple(divs)
        assert g.weights == tuple(w)
        assert np.array_equal(g.adjacency, adj)
        assert np.array_equal(weighted_laplacian(g), lap)
        assert np.array_equal(symmetric_form(g).view(np.int64), c.view(np.int64))
