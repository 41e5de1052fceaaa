"""Homology bases and class coordinates from the sparse reduction, checked
against the dense oracle in `dense_oracle.py` on drawn complexes at p = 2, 3
and 101; and the interval classes read off interval Betti numbers against
the dense induced maps of the oracle.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from conftest import drawn_poset
from posetlab.audit import select_basis
from posetlab.complexes import SimplicialComplex, reduced_order_complex
from posetlab.errors import PosetLabError
from posetlab.generators import face_poset_of_complex, make_family, random_pure_subcomplex, suite
from posetlab.homology import (
    chain_complex,
    maximal_interval_classes,
    poset_is_cohen_macaulay,
    relative_chain_complex,
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


def test_class_coordinates_refuse_a_non_cycle():
    ccr = chain_complex(SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")]), FieldSpec())
    edge = ccr.index[1][("a", "b")]
    with pytest.raises(PosetLabError):
        ccr.class_coordinates(1, [{edge: 1}])


# -- interval classes against the dense induced maps -----------------------------


def class_outcome(P, fld, compute):
    """The ambient dimension and the greedy basis in both orders, or the
    type and dimension of the error raised on the way."""
    try:
        classes = compute(P, fld)
        data = SimpleNamespace(interval_classes=classes, fld=fld)
        chosen = [select_basis(data, reverse).chosen for reverse in (False, True)]
    except PosetLabError as exc:
        return type(exc).__name__, getattr(exc, "dimension", None)
    for vector in classes.classes.values():
        assert vector.dtype == np.int64 and vector[np.flatnonzero(vector)[0]] == 1
    return classes.ambient_dim, chosen


def drawn_cm_face_posets(fld):
    """Face posets of pure complexes drawn on up to seven vertices that are
    Cohen-Macaulay over the field: simplicial posets, so lower Eulerian."""
    for n, d in ((5, 1), (6, 1), (5, 2), (6, 2), (7, 2), (6, 3)):
        for seed in range(6):
            P = face_poset_of_complex(random_pure_subcomplex(n, d, seed), name=f"r{n}-{d}-s{seed}")
            if poset_is_cohen_macaulay(P, fld)[0]:
                yield P


def near_misses():
    """A triangle with a pendant edge, whose pendant interval carries no
    class, and induced subposets of the Boolean lattice of rank 4."""
    lopsided = SimplicialComplex([("a", "b", "c"), ("c", "d")])
    return [face_poset_of_complex(lopsided, name="lopsided")] + [drawn_poset(s) for s in range(24)]


@pytest.mark.parametrize("p", [2, 3, 101])
def test_interval_classes_against_dense_oracle(p):
    """The same ambient dimension, the same greedy choice in both orders,
    or the same error with the same dimension."""
    fld = FieldSpec(p)
    seen = set()
    posets = [P for _, P in suite() if P.has_minimum] + list(drawn_cm_face_posets(fld)) + near_misses()
    for P in posets:
        got = class_outcome(P, fld, maximal_interval_classes)
        assert got == class_outcome(P, fld, dense.maximal_interval_classes), P.name
        if isinstance(got[0], int):
            seen.add("orders differ" if got[1][0] != got[1][1] else "classes")
        else:
            seen.add(got[0])
    assert {"classes", "orders differ", "OmegaNotOneDimensionalError", "PosetLabError"} <= seen
