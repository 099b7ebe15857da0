import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdgspec.divisor_graph import build_divisor_graph
from zdgspec.errors import EmptyGraphError, OracleCapError
from zdgspec.numtheory import euler_phi, factorize, is_prime
from zdgspec.zdg_explicit import DEFAULT_ORACLE_CAP, build_zero_divisor_graph

from helpers import class_names, degrees, expand_classes

composite = st.integers(min_value=4, max_value=600).filter(lambda n: not is_prime(n))


def test_small_graphs():
    g8 = build_zero_divisor_graph(8)
    assert g8.vertex_labels == (2, 4, 6)
    assert g8.edges() == [(2, 4), (4, 6)]
    assert degrees(g8) == [1, 2, 1]

    g9 = build_zero_divisor_graph(9)
    assert g9.vertex_labels == (3, 6)
    assert g9.edges() == [(3, 6)]

    g4 = build_zero_divisor_graph(4)
    assert g4.vertex_labels == (2,)
    assert g4.edges() == []
    assert degrees(g4) == [0]


def test_rejects_primes():
    with pytest.raises(EmptyGraphError):
        build_zero_divisor_graph(13)
    with pytest.raises(EmptyGraphError):
        build_zero_divisor_graph(3)


def test_cap_refuses_before_any_array(monkeypatch):
    # n = 420 has 323 vertices: one above the cap is refused before the
    # product table exists, and the cap itself is built
    assert 420 - euler_phi(420) - 1 == 323
    with monkeypatch.context() as m:
        m.setattr(np, "outer", lambda *a: pytest.fail("product table built"))
        with pytest.raises(OracleCapError, match="has 323 vertices, above the cap 322"):
            build_zero_divisor_graph(420, cap=322)
    assert build_zero_divisor_graph(420, cap=323).order == 323
    assert DEFAULT_ORACLE_CAP == 1200
    with pytest.raises(OracleCapError):
        build_zero_divisor_graph(2002)  # 1281 vertices


def test_zero_divisors_reverse_under_negation():
    # x -> n - x reverses the ascending labels and fixes the adjacency, the
    # symmetry the oracle's split eigensolve rests on
    for n in range(4, 501):
        if is_prime(n):
            continue
        g = build_zero_divisor_graph(n)
        labels = np.array(g.vertex_labels)
        assert (labels + labels[::-1] == n).all(), n
        assert np.array_equal(g.adjacency[::-1, ::-1], g.adjacency), n


def test_twin_vectors_are_laplacian_eigenvectors():
    # x and n - x are twins, so on the integer D - A the vector
    # e_x - e_(n-x) is an eigenvector for deg x + [n | x^2]: the values the
    # oracle reads off the degrees without an eigensolve
    for n in range(4, 301):
        if is_prime(n):
            continue
        g = build_zero_divisor_graph(n)
        adj = g.adjacency.astype(np.int64)
        lap = np.diag(adj.sum(axis=1)) - adj
        z = g.order
        for i, x in enumerate(g.vertex_labels[: z // 2]):
            v = np.zeros(z, dtype=np.int64)
            v[i], v[z - 1 - i] = 1, -1
            value = int(lap[i, i]) + (x * x % n == 0)
            assert np.array_equal(lap @ v, value * v), (n, x)


@given(composite)
@settings(max_examples=80, deadline=None)
def test_vertex_count_identity(n):
    g = build_zero_divisor_graph(n)
    assert g.order == n - euler_phi(n) - 1


@given(composite)
@settings(max_examples=50, deadline=None)
def test_adjacency_matches_definition(n):
    g = build_zero_divisor_graph(n)
    labels = g.vertex_labels
    for i, x in enumerate(labels):
        assert math.gcd(x, n) > 1
        for j, y in enumerate(labels):
            expected = i != j and (x * y) % n == 0
            assert bool(g.adjacency[i, j]) == expected


# (n - 1)^2 bounds every product, and the narrowest unsigned type holding it
# is uint16 up to n = 256, uint32 from 258 (257 is prime) and uint64 at
# 67591 = 257 * 263, whose 518 vertices are checked on every 17th row
@pytest.mark.parametrize("n, step", [(256, 1), (258, 1), (67591, 17)])
def test_adjacency_exact_in_every_product_type(n, step):
    g = build_zero_divisor_graph(n)
    labels = [x for x in range(2, n - 1) if math.gcd(x, n) > 1]
    assert g.vertex_labels == tuple(labels)
    assert all(type(x) is int for x in g.vertex_labels)
    for i in range(0, len(labels), step):
        x = labels[i]
        row = [j != i and x * y % n == 0 for j, y in enumerate(labels)]
        assert g.adjacency[i].tolist() == row


def _class_members(n: int) -> list[tuple[int, ...]]:
    oracle, cls, _ = expand_classes(n)
    labels = np.array(oracle.vertex_labels)
    return [tuple(labels[cls == i].tolist()) for i in range(cls.max() + 1)]


def test_n18_class_structure():
    assert _class_members(18) == [(2, 4, 8, 10, 14, 16), (3, 15), (6, 12), (9,)]
    assert class_names(build_divisor_graph(18)) == ["K̄_6", "K̄_2", "K_2", "K_1"]


def test_n12_class_sizes():
    sizes = [len(m) for m in _class_members(12)]
    assert sizes == [2, 2, 2, 1]
    assert sizes == [euler_phi(12 // d) for d in build_divisor_graph(12).vertices]


@given(composite)
@settings(max_examples=60, deadline=None)
def test_partition_invariants(n):
    oracle, cls, _ = expand_classes(n)
    g = build_divisor_graph(n)
    labels = oracle.vertex_labels
    assert labels == tuple(x for x in range(1, n) if math.gcd(x, n) > 1)
    assert [g.vertices[i] for i in cls] == [math.gcd(x, n) for x in labels]
    assert np.bincount(cls).tolist() == list(g.weights)
    assert list(g.weights) == [euler_phi(n // d) for d in g.vertices]


@given(composite)
@settings(max_examples=40, deadline=None)
def test_join_reconstruction_matches_oracle(n):
    # the expansion is equitable, all-or-none between classes and a clique
    # exactly where ``complete`` says, so equality shows all three of the
    # oracle graph
    oracle, _, expanded = expand_classes(n)
    assert np.array_equal(expanded, oracle.adjacency)


def test_degree_closed_form_matches_oracle():
    # the Chinese remainder count behind L = diag(d - 1) - B W: x with
    # gcd(x, n) = d is adjacent to the d - 1 nonzero multiples of n/d, less
    # x itself when n | d^2
    for n in range(4, 1001):
        if is_prime(n):
            continue
        oracle = build_zero_divisor_graph(n)
        d = np.gcd(oracle.vertex_labels, n)
        assert degrees(oracle) == (d - 1 - (d * d % n == 0)).tolist(), n


@given(composite)
@settings(max_examples=60, deadline=None)
def test_complete_iff_p_squared(n):
    g = build_zero_divisor_graph(n)
    z = g.order
    complete = g.edge_count == z * (z - 1) // 2
    root = math.isqrt(n)
    assert complete == (root * root == n and is_prime(root))


@given(composite)
@settings(max_examples=60, deadline=None)
def test_min_degree_closed_form(n):
    # smallest prime divisor p gives delta = p-1, except p-2 when n = p^2
    degs = degrees(build_zero_divisor_graph(n))
    p = factorize(n).smallest_prime
    root = math.isqrt(n)
    expected = p - 2 if (root * root == n and is_prime(root)) else p - 1
    assert min(degs) == expected
