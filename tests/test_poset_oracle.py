"""The poset layer against `poset_oracle.py`, the code it replaced: covers of
derived posets, ranks, Möbius values, lower Eulerian (with its witness), the
meet, simplicial and cubical tests, and the toric polynomials.  Drawn
instances are small; the `large` tier runs the cli-files inputs of 730
elements (`pytest -m large`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poset_oracle as oracle
from posetlab import poset as poset_module
from posetlab.errors import NotLowerGradedError, PosetLabError
from posetlab.generators import boolean_lattice, cube_face_lattice, make_family
from posetlab.hvectors import cubical_h, short_cubical_h, toric_face_polynomials, toric_h
from posetlab.poset import (
    FinitePoset,
    is_cubical_poset,
    is_lower_eulerian,
    is_meet_semilattice,
    is_simplicial_poset,
    mobius,
    mobius_from,
    rank_profile,
)

EXAMPLES = settings(max_examples=40, deadline=None)


# -- near-misses ---------------------------------------------------------------


def two_face(cells, tops=("T",)):
    """A rank-3 poset: a minimum, vertices v0, v1, ..., one element e_j per
    cell (a tuple of vertex numbers) above its vertices, and every top above
    every cell."""
    verts = [f"v{i}" for i in range(1 + max(max(c) for c in cells))]
    edges = [f"e{j}" for j in range(len(cells))]
    covers = [("0", v) for v in verts]
    covers += [(verts[i], e) for e, cell in zip(edges, cells) for i in cell]
    covers += [(e, t) for e in edges for t in tops]
    return FinitePoset.from_covers(["0", *verts, *edges, *tops], covers, name="2-face")


def polygon_face(n, tops=("T",)):
    """The face lattice of an n-gon (n = 2 is a digon); two tops glue two
    n-gons along their boundary."""
    return two_face([(i, (i + 1) % n) for i in range(n)], tops)


def without_element(P, rank, pick):
    """P minus one element of the given rank (a vertex or an edge)."""
    rho = rank_profile(P).ranks
    of_rank = [e for e in P.elements if rho[e] == rank]
    drop = of_rank[pick % len(of_rank)]
    return P.induced([e for e in P.elements if e != drop])


def without_cover(P, pick):
    """P with one cover relation removed; the rest stay irredundant."""
    covers = list(P.covers)
    del covers[pick % len(covers)]
    return FinitePoset.from_covers(P.elements, covers, name=f"{P.name}-cover")


def boolean_dual_plus_min(n):
    return boolean_lattice(n).dual().attach_min()


def cube_3_without_cover(lower, upper):
    P = cube_face_lattice(3)
    return without_cover(P, P.covers.index((lower, upper)))


# The cube test's distinct spans fail alone on the doubled edges, and its
# pair count on the cube without the cover 11x < 1xx (the test's vertex v is
# 000, so the codes stay right).  The Boolean test's atom count fails alone
# on four atoms under two coatoms, its distinct supports on the doubled edge
# of the triangle, its pair count on the Boolean lattice without 12 < 123.
NEAR_MISSES = [
    ("digon", lambda: polygon_face(2)),
    ("pentagon", lambda: polygon_face(5)),
    ("digon-pair", lambda: two_face([(0, 1), (0, 1), (2, 3), (2, 3)])),
    ("two-squares", lambda: polygon_face(4, tops=("A", "B"))),
    ("triangle-and-pendant-edge", lambda: two_face([(0, 1), (1, 2), (2, 3), (0, 2)])),
    ("square-with-doubled-edge", lambda: two_face([(0, 1), (0, 2), (1, 3), (1, 3)])),
    ("cube-3-minus-vertex", lambda: without_element(cube_face_lattice(3), 1, 0)),
    ("cube-3-minus-edge", lambda: without_element(cube_face_lattice(3), 2, 0)),
    ("cube-3-minus-cover-at-v", lambda: cube_3_without_cover("00x", "0xx")),
    ("cube-3-minus-cover-off-v", lambda: cube_3_without_cover("11x", "1xx")),
    ("four-atoms-two-coatoms", lambda: two_face([(0, 1, 2), (1, 2, 3)])),
    ("triangle-with-doubled-edge", lambda: two_face([(0, 1), (0, 1), (1, 2)])),
    ("boolean-4-minus-cover", lambda: without_cover(
        boolean_lattice(4), boolean_lattice(4).covers.index(("12", "123")))),
    ("boolean-3-dual-plus-min", lambda: boolean_dual_plus_min(3)),
]


@st.composite
def posets(draw):
    kind = draw(st.sampled_from([
        "random-poset", "cube-lattice", "cube-boundary", "grid", "cycle",
        "interval", "boolean", "simplex-boundary", "glued", "polygon",
        "minus-element", "minus-cover", "boolean-dual",
    ]))
    if kind == "random-poset":
        n, d = draw(st.sampled_from([(3, 1), (4, 1), (5, 2), (6, 2), (6, 3), (7, 2)]))
        return make_family(kind, n, d, draw(st.integers(0, 60)))
    if kind == "cube-lattice":
        return make_family(kind, draw(st.integers(0, 4)))
    if kind == "cube-boundary":
        return make_family(kind, draw(st.integers(1, 4)))
    if kind == "grid":
        return make_family(kind, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    if kind == "cycle":
        return make_family(kind, draw(st.integers(3, 8)))
    if kind == "interval":
        return make_family(kind, *draw(st.sampled_from([
            ("boolean", 2), ("boolean", 3), ("cycle", 4), ("cycle", 5),
            ("cube-lattice", 1), ("cube-lattice", 2), ("simplex-boundary", 2),
        ])))
    if kind == "boolean":
        return make_family(kind, draw(st.integers(0, 4)))
    if kind == "simplex-boundary":
        return make_family(kind, draw(st.integers(1, 4)))
    if kind == "glued":
        return make_family(kind, draw(st.integers(1, 3)))
    if kind == "polygon":
        tops = draw(st.sampled_from([("T",), ("A", "B")]))
        return polygon_face(draw(st.integers(2, 6)), tops)
    if kind == "minus-element":
        P = cube_face_lattice(draw(st.integers(2, 4)))
        return without_element(P, draw(st.sampled_from([1, 2])), draw(st.integers(0, 200)))
    if kind == "minus-cover":
        P = draw(st.sampled_from([cube_face_lattice, boolean_lattice]))(draw(st.integers(1, 4)))
        return without_cover(P, draw(st.integers(0, 500)))
    return boolean_dual_plus_min(draw(st.integers(1, 4)))


# -- the comparison --------------------------------------------------------------


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of the error it raised."""
    try:
        return "value", fn(*args)
    except PosetLabError as exc:
        return type(exc).__name__, str(exc)


def same_poset(got, want):
    assert got.elements == want.elements
    assert got.covers == want.covers
    assert got._topo == want._topo
    assert (got.leq_matrix == want.leq_matrix).all()


def check_against_oracle(P, members):
    idx = [P.index(x) for x in members]
    same_poset(P.induced(members), oracle.from_leq(list(members), P.leq_matrix[np.ix_(idx, idx)]))
    same_poset(P.dual(), oracle.from_leq(list(P.elements), P.leq_matrix.T.copy()))

    assert outcome(lambda: rank_profile(P).rho.tolist()) == outcome(
        lambda: oracle.rank_matrix(P).tolist()
    )
    table = mobius(P)._values
    for i in range(len(P)):
        assert table[i].tolist() == oracle.mobius_row(P, i), P.elements[i]
    if P.has_minimum:
        m = P.index(P.minimum())
        row = oracle.mobius_row(P, m)
        assert mobius_from(P, P.minimum()) == {
            P.elements[j]: row[j] for j in np.flatnonzero(P.leq_matrix[m])
        }
    verdict = is_lower_eulerian(P)
    assert (verdict.ok, verdict.witness) == oracle.lower_eulerian(P)

    assert is_meet_semilattice(P) == oracle.is_meet_semilattice(P)
    assert outcome(is_simplicial_poset, P) == outcome(oracle.is_simplicial, P)
    assert outcome(is_cubical_poset, P) == outcome(oracle.is_cubical, P)

    if oracle.toric_applies(P):
        assert toric_face_polynomials(P) == oracle.toric_face_polynomials(P)
        assert toric_h(P).entries == oracle.toric_h(P)
    else:
        with pytest.raises(NotLowerGradedError):
            toric_h(P)


@EXAMPLES
@given(st.data())
def test_poset_layer_matches_oracle(data):
    P = data.draw(posets())
    members = data.draw(st.lists(st.sampled_from(P.elements), min_size=1, unique=True))
    check_against_oracle(P, members)


@pytest.mark.parametrize("name, build", NEAR_MISSES, ids=[n for n, _ in NEAR_MISSES])
def test_near_misses_match_oracle(name, build):
    P = build()
    check_against_oracle(P, P.elements[1:] or P.elements)


def test_near_misses_fail_the_cube_and_boolean_tests():
    assert is_cubical_poset(polygon_face(4)) and is_cubical_poset(polygon_face(4, ("A", "B")))
    assert not is_meet_semilattice(polygon_face(4, ("A", "B")))
    for name, build in NEAR_MISSES:
        P = build()
        if name != "two-squares":
            assert not is_cubical_poset(P), name
        assert not is_simplicial_poset(P), name


def test_cube_test_runs_once_per_poset(monkeypatch):
    calls = []
    real = poset_module._cube_interval
    monkeypatch.setattr(
        poset_module, "_cube_interval", lambda *args: calls.append(args) or real(*args)
    )
    P = cube_face_lattice(3)
    assert is_cubical_poset(P)
    cubical_h(P)
    short_cubical_h(P)
    assert len(calls) == 1  # the one maximal element, once


@pytest.mark.large
@pytest.mark.parametrize("family", ["cube-lattice", "cube-boundary"])
def test_poset_layer_matches_oracle_at_cli_scale(family):
    P = make_family(family, 6)
    check_against_oracle(P, P.elements[:-1])
