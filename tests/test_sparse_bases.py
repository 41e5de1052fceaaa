"""Homology bases, class coordinates and induced maps from the sparse
reduction, checked against the dense oracle in `dense_oracle.py` on drawn
complexes at p = 2, 3 and 101.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from posetlab.complexes import SimplicialComplex, reduced_order_complex
from posetlab.errors import PosetLabError
from posetlab.generators import make_family
from posetlab.homology import (
    chain_complex,
    induced_inclusion_map,
    relative_chain_complex,
    vertex_link_map,
)
from posetlab.linalg import FieldSpec

EXAMPLES = settings(max_examples=40, deadline=None)


@st.composite
def complexes(draw):
    """A random complex on at most seven vertices, or the order complex of a
    `random-poset` instance minus its minimum."""
    if draw(st.booleans()):
        verts = [f"v{i}" for i in range(draw(st.integers(3, 7)))]
        face = st.lists(st.sampled_from(verts), min_size=1, max_size=5, unique=True)
        return SimplicialComplex.from_faces(draw(st.lists(face, min_size=1, max_size=6)))
    n, d = draw(st.sampled_from([(4, 1), (5, 1), (5, 2), (6, 2), (5, 3)]))
    return reduced_order_complex(make_family("random-poset", n, d, draw(st.integers(0, 40))))


def cases(draw):
    delta = draw(complexes())
    fld = FieldSpec(draw(st.sampled_from([2, 3, 101])))
    return delta, fld, random.Random(draw(st.integers(0, 2**32)))


def dense_vector(chain, n):
    vec = np.zeros(n, dtype=np.int64)
    for i, v in chain.items():
        vec[i] = v
    return vec


def check_bases(ccr, rng):
    """Every degree: β_k cycles, independent modulo the boundaries, whose
    coordinates round-trip through class_coordinates."""
    p = ccr.p
    for k in ccr.degrees:
        n = ccr.size(k)
        basis = ccr.homology_basis(k)
        assert len(basis) == dense.betti(ccr, k) == ccr.betti(k), k
        if not basis:
            continue
        h = np.column_stack([dense_vector(c, n) for c in basis])
        assert not (dense.boundary(ccr, k) @ h % p).any(), k
        bound = dense.boundary(ccr, k + 1)
        together = np.concatenate([bound, h], axis=1)
        assert dense.rank(together, p) == dense.rank(bound, p) + len(basis), k

        coeffs = [[rng.randrange(p) for _ in basis] for _ in range(3)]
        chains = []
        for c in coeffs:
            w = np.array([rng.randrange(p) for _ in range(bound.shape[1])], dtype=np.int64)
            vec = (h @ np.array(c) + bound @ w) % p
            chains.append({i: int(v) for i, v in enumerate(vec) if v})
        got = ccr.class_coordinates(k, chains)
        assert [[col.get(i, 0) for i in range(len(basis))] for col in got] == coeffs, k


@EXAMPLES
@given(st.data())
def test_sparse_bases_against_dense_oracle(data):
    delta, fld, rng = cases(data.draw)
    check_bases(chain_complex(delta, fld), rng)
    v = data.draw(st.sampled_from(delta.vertices))
    check_bases(relative_chain_complex(delta, delta.contrastar((v,)), fld), rng)


@EXAMPLES
@given(st.data())
def test_induced_map_ranks_against_dense_oracle(data):
    delta, fld, _ = cases(data.draw)
    for v in delta.vertices[:3]:
        assert vertex_link_map(delta, v, fld).rank == dense.vertex_link_map(delta, v, fld).rank
        gamma = delta.contrastar((v,))
        for dim in range(delta.dim + 1):
            got = induced_inclusion_map(delta, gamma, dim, fld)
            want = dense.induced_inclusion_map(delta, gamma, dim, fld)
            assert (got.rank, got.domain_dim, got.codomain_dim) == (
                want.rank, want.domain_dim, want.codomain_dim
            ), (v, dim)


def test_class_coordinates_refuse_a_non_cycle():
    ccr = chain_complex(SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")]), FieldSpec())
    edge = ccr.index[1][("a", "b")]
    with pytest.raises(PosetLabError):
        ccr.class_coordinates(1, [{edge: 1}])
