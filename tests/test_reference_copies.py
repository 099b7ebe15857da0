"""The shipped per-n stages against the reference copies in helpers.

Each stage must give bit-for-bit the result of its reference copy: every
array with the same dtype, shape and bytes, every float with the same bits,
and every multiplicity and exactness flag, on every composite n in
[4, 2000] and on every n <= 10^4 with 28, 30, 34, 38 or 46 proper divisors;
the divisor graph and its matrices also on five n past 2^54 (``HUGE``).
The residue polynomials that ``assemble_range`` takes a zero-padded group at
a time must each equal the reference kernel's on its own lone residues.
The shipped adjacency keeps the clique diagonal that the reference build
split off into ``complete``, and the shipped matrices come from closed forms
rather than the reference's neighbor weight sums ``adj @ w``. Every quotient
takes the one refined float path, so the quotient eigenvalues of every n are
compared as Rayleigh quotients; coalescing is compared at its one tolerance.
The oracle's eigenvalues must equal, bit for bit, those of the two LAPACK
calls on the float Laplacian's split blocks, on every composite n <= 600.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from zdgspec import eigen, join_spectrum
from zdgspec.analysis import degree_extremes
from zdgspec.divisor_graph import build_divisor_graph, symmetric_form, weighted_laplacian
from zdgspec.eigen import SpectrumEntry, coalesce
from zdgspec.join_spectrum import (
    _quotient_eigenvalues,
    brute_spectrum,
    class_pairs,
    reduced_spectrum,
)
from zdgspec.numtheory import factorize, is_prime

from helpers import (
    DENSE_K,
    dense_pool,
    reference_brute_spectrum,
    reference_build_divisor_graph,
    reference_char_poly_mod,
    reference_coalesce,
    reference_degree_extremes,
    reference_merged,
    reference_quotient_eigenvalues,
    reference_symmetric_form,
    reference_weighted_laplacian,
)

NS = [n for n in range(4, 2001) if not is_prime(n)] + dense_pool()
# n past 2^54 with a clique class of d > 2^53: its diagonal entry
# d - 1 - m of C must be rounded to float64 once, from the exact integer
HUGE = (2**40 * 3**10, 9 * 2**55, 3 * 2**61, 6 * 10**17, 10**18)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _entries(spectrum) -> list[tuple[str, int, bool]]:
    return [(e.value.hex(), e.multiplicity, e.exact) for e in spectrum.entries]


def test_dense_pool_covers_every_order():
    assert {len(build_divisor_graph(n).vertices) for n in dense_pool()} == set(DENSE_K)


def test_divisor_graph_and_matrices_match_reference():
    for n in NS + list(HUGE):
        g, ref = build_divisor_graph(n), reference_build_divisor_graph(n)
        assert (g.n, g.vertices, g.weights) == (ref.n, ref.vertices, ref.weights), n
        assert _same_array(g.adjacency, ref.adjacency | np.diag(ref.complete)), n
        assert _same_array(symmetric_form(g), reference_symmetric_form(ref)), n
        assert _same_array(weighted_laplacian(g), reference_weighted_laplacian(ref)), n
        assert g.edges() == [
            (g.vertices[i], g.vertices[j]) for i, j in np.argwhere(np.triu(ref.adjacency))
        ], n


def test_quotient_eigenvalues_and_spectra_match_reference():
    for n in NS:
        g, ref = build_divisor_graph(n), reference_build_divisor_graph(n)
        values = _quotient_eigenvalues(g)
        assert _bits(values) == _bits(reference_quotient_eigenvalues(ref)), n
        assembly = reduced_spectrum(n)
        quotient = reference_coalesce(values)
        assert _entries(assembly.quotient) == _entries(quotient), n
        classes = [SpectrumEntry(float(v), m, True) for v, m in class_pairs(g)]
        total = reference_merged([*quotient.entries, *classes])
        assert _entries(assembly.total) == _entries(total), n
        assert degree_extremes(factorize(n)) == reference_degree_extremes(ref), n


def test_brute_spectrum_matches_reference():
    # every composite n <= 600, the oracle-verify range with both parities
    # of the vertex count: one eigvalsh and the twin values from the degrees
    # against the two eigvalsh calls of the float Laplacian's blocks
    parities = set()
    for n in range(4, 601):
        if is_prime(n):
            continue
        values = brute_spectrum(n)
        assert _same_array(values, reference_brute_spectrum(n)), n
        parities.add(len(values) % 2)
    assert parities == {0, 1}


def test_kernel_matches_reference():
    q = eigen.EXCLUSION_PRIME
    for n in NS:
        r = eigen._residues(weighted_laplacian(build_divisor_graph(n)), q)
        assert eigen._char_poly_mod(r, q) == reference_char_poly_mod(r, q), n


def test_chunk_groups_match_reference(monkeypatch):
    # every stack of residues that the kernel takes for ``assemble_range``
    # over [4, 2000] and the dense pool is zero-padded and of a single
    # isqrt(k); each reduced assembly carries its member's polynomial, the
    # reference kernel's on its lone residues, of order k modulo q
    q = eigen.EXCLUSION_PRIME
    stacks = []
    real = eigen._char_poly_mod

    def spy(stack, modulus, orders):
        stacks.append((stack, orders))
        return real(stack, modulus, orders)

    monkeypatch.setattr(eigen, "_char_poly_mod", spy)
    checked = 0
    for fact, assembly in join_spectrum.assemble_range(NS):
        if assembly is None:
            continue
        r = eigen._residues(weighted_laplacian(build_divisor_graph(fact.n)), q)
        expected = reference_char_poly_mod(r, q)
        assert assembly.residues.modulus == q, fact.n
        assert list(assembly.residues.coefficients[::-1]) == expected, fact.n
        checked += 1
    assert checked == sum(len(orders) for _, orders in stacks)
    assert max(len(orders) for _, orders in stacks) > 1
    for stack, orders in stacks:
        assert len({math.isqrt(k) for k in orders}) == 1
        assert stack.shape[1] == max(orders)
        for member, k in zip(stack, orders):
            assert not member[k:].any() and not member[:, k:].any()


def _chained(values: list[float], steps: list[float]) -> list[float]:
    # runs of values whose relative gaps sit at the coalescing tolerance
    out = []
    for v, s in zip(values, steps):
        out += [v, v * (1 + s), v * (1 + 2 * s)]
    return out


def _runs(values: list[float], steps: list[float], length: int) -> list[float]:
    # runs of more than 8 values, each gap a step of the first value
    out = []
    for v, s in zip(values, steps):
        out += [v * (1 + i * s) for i in range(length)]
    return out


def _straddling(centres: list[int], offsets: list[float]) -> list[float]:
    # values within the snap tolerance below and above each integer, so that
    # adjacent groups snap to one integer from either side
    return [c + d for c in centres for d in offsets]


@given(
    st.lists(st.floats(min_value=-1e9, max_value=1e9), max_size=12),
    st.lists(st.sampled_from([0.0, 5e-9, 1e-8, 1.5e-8, 1e-7, 5e-7]), max_size=12),
    st.integers(min_value=9, max_value=24),
    st.lists(st.integers(min_value=-60, max_value=60), max_size=4),
    st.lists(st.sampled_from([-9e-7, -6e-7, -3e-7, 0.0, 3e-7, 6e-7, 9e-7]), max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_coalesce_matches_reference(values, steps, length, centres, offsets):
    straddling = _straddling(centres, offsets)
    for vals in (
        values,
        _chained(values, steps),
        [-0.0, 0.0, *values],
        _runs(values, steps, length),
        straddling,
        straddling + values,
    ):
        assert _entries(coalesce(vals)) == _entries(reference_coalesce(vals))


@given(
    st.lists(st.floats(min_value=-50, max_value=50), max_size=12),
    st.lists(st.sampled_from([0.0, 1e-7, 0.25, 0.5]), max_size=12),
    st.dictionaries(
        st.integers(min_value=-60, max_value=60), st.integers(1, 9), max_size=10
    ),
)
@settings(max_examples=300, deadline=None)
def test_plus_exact_matches_reference_merge(values, nudges, pairs):
    # quotient-like entries, exact ones among them, merged in one pass with
    # ascending distinct integer pairs, some equal to an exact entry
    quotient = coalesce([round(v) + d for v, d in zip(values, nudges)] + values)
    pairs = sorted(pairs.items())
    classes = [SpectrumEntry(float(v), m, True) for v, m in pairs]
    expected = reference_merged([*quotient.entries, *classes])
    assert _entries(quotient.plus_exact(pairs)) == _entries(expected)

