"""The poset layer against `poset_oracle.py`, the code it replaced: the
file loader on valid and faulty files, the redundant-cover check, every
derived poset (covers, topological order, order matrix and bitsets) against
the one built from its order matrix, ranks, Möbius values, lower Eulerian
(with its witness), the meet, simplicial and cubical tests, and the toric
polynomials, also on Python integers throughout.  Drawn instances are small; the `large` tier
runs the cli-files inputs of 730 elements (`pytest -m large`).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poset_oracle as oracle
from posetlab import hvectors, poset as poset_module
from posetlab.errors import (
    NotLocallyGradedError,
    NotLowerGradedError,
    PosetLabError,
    RedundantCoverError,
    SizeLimitError,
    UnknownElementError,
)
from posetlab.generators import boolean_lattice, cube_face_lattice, make_family, suite
from posetlab.hvectors import cubical_h, short_cubical_h, toric_face_polynomials, toric_h
from posetlab.poset import (
    FinitePoset,
    is_cubical_poset,
    is_graded,
    is_lower_eulerian,
    is_meet_semilattice,
    is_simplicial_poset,
    mobius,
    mobius_from,
    poset_from_dict,
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


def crown():
    """m1 < p < q and m2 < q: every interval is graded, yet q lies at height
    2 over the cover m2 < q, so heights alone give the wrong rank there."""
    return FinitePoset.from_covers(
        ["m1", "m2", "p", "q"], [("m1", "p"), ("p", "q"), ("m2", "q")], name="crown"
    )


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
    assert got._down_sets() == want._down_sets()
    assert got._up_sets() == want._up_sets()


def check_derived_posets(P, members):
    """Every derived poset against the oracle's, built from its order matrix."""
    leq = P.leq_matrix
    same_poset(P.induced(members), oracle.induced(P, members))
    same_poset(P.dual(), oracle.from_leq(list(P.elements), leq.T.copy()))
    same_poset(P.attach_min(), oracle.attach_min(P))
    if np.count_nonzero(leq) <= poset_module.MAX_ELEMENTS:
        same_poset(P.interval_poset(), oracle.interval_poset(P))
    else:
        with pytest.raises(SizeLimitError):
            P.interval_poset()
    same_poset(P.upset(members[0]), oracle.induced(
        P, [e for e, up in zip(P.elements, leq[P.index(members[0])]) if up]))
    strict = leq & ~np.eye(len(P), dtype=bool)
    maxima = {P.elements[i] for i in np.flatnonzero(~strict.any(axis=1))}
    rest = [e for e in P.elements if e not in maxima]
    if rest and (not P.has_minimum or P.minimum() in rest):
        same_poset(P.remove_maximal(), oracle.induced(P, rest))
    if P.has_minimum and len(P) > 1:
        bottom = P.minimum()
        same_poset(P.remove_min(), oracle.induced(P, [e for e in P.elements if e != bottom]))
        # the atoms: above the minimum with nothing strictly between
        above = strict[P.index(bottom)]
        atoms = above & ~(above.astype(np.int64) @ strict.astype(np.int64)).astype(bool)
        same_poset(P.remove_atoms(), oracle.induced(
            P, [e for e, atom in zip(P.elements, atoms) if not atom]))


def check_against_oracle(P, members):
    check_derived_posets(P, members)

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
    for Q in (P, P.induced(members), P.dual()):
        assert is_graded(Q) == oracle.is_graded(Q)

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


def test_redundant_cover_check_matches_oracle():
    """Drawn acyclic cover lists, many of them redundant, with the elements
    listed in shuffled order so that index order is not the order."""
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        elements = [f"e{i}" for i in rng.sample(range(n), n)]
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 12))}
        covers = [(f"e{a}", f"e{b}") for a, b in rng.sample(sorted(pairs), len(pairs))]
        want = oracle.redundant_cover(elements, covers)
        seen.add(want is None)
        if want is None:
            assert FinitePoset.from_covers(elements, covers).covers == tuple(sorted(covers))
        else:
            with pytest.raises(RedundantCoverError) as err:
                FinitePoset.from_covers(elements, covers)
            assert (err.value.lower, err.value.upper, err.value.witness) == want
    assert seen == {True, False}


# -- the file loader ---------------------------------------------------------------


FAULTS = [
    "unknown-lower", "unknown-upper", "self-loop", "repeated-cover", "repeated-element",
    "cycle", "redundant-cover", "short-cover", "long-cover", "non-string-cover-entry",
    "non-string-element", "cover-not-a-list",
]


def poset_file(draw, P):
    """P as a parsed poset file, its elements and covers in a drawn order."""
    return {
        "name": P.name,
        "elements": draw(st.permutations(P.elements)),
        "covers": [list(c) for c in draw(st.permutations(P.covers))],
    }


def add_fault(draw, data, P, fault):
    """Put one fault of the named kind into `data`, at a drawn position."""
    strict = [(a, b) for a in P.elements for b in P.elements if a != b and P.leq(a, b)]
    # An element below others, where it can: a self-loop there also stalls
    # the topological sort above it.
    x = draw(st.sampled_from(sorted({a for a, _ in strict}) or P.elements))
    longer = sorted(set(strict) - set(P.covers))
    if fault in ("repeated-element", "non-string-element"):
        entry = x if fault == "repeated-element" else 4711
        data["elements"].insert(draw(st.integers(0, len(data["elements"]))), entry)
        return
    entry = {
        "unknown-lower": ["ghost", x],
        "unknown-upper": [x, "ghost"],
        "self-loop": [x, x],
        "repeated-cover": list(draw(st.sampled_from(P.covers))) if P.covers else [x, x],
        "cycle": list(draw(st.sampled_from(strict)))[::-1] if strict else [x, x],
        "redundant-cover": list(draw(st.sampled_from(longer))) if longer else [x, x],
        "short-cover": [x],
        "long-cover": list(draw(st.sampled_from(P.covers))) + [x] if P.covers else [x, x, x],
        "non-string-cover-entry": [x, 4711],
        "cover-not-a-list": x,
    }[fault]
    data["covers"].insert(draw(st.integers(0, len(data["covers"]))), entry)


def any_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def check_loader(data):
    """poset_from_dict, and from_covers on the raw lists (passed as one-shot
    iterators), against the oracle's: the same poset and bitsets, or the same
    error class and message."""
    elements, covers = data["elements"], data["covers"]
    runs = [
        (any_outcome(FinitePoset.from_covers, iter(elements), iter(covers)),
         any_outcome(oracle.from_covers, elements, covers)),
        (any_outcome(poset_from_dict, data), any_outcome(oracle.from_dict, data)),
    ]
    for got, want in runs:
        assert got[0] == want[0]
        if got[0] != "value":
            assert got == want
            continue
        same_poset(got[1], want[1])
        assert got[1].name == want[1].name
        assert got[1]._down_sets() == want[1]._down_sets()
        assert got[1]._up_sets() == want[1]._up_sets()


@EXAMPLES
@given(st.data())
def test_loader_matches_oracle_on_valid_files(data):
    check_loader(poset_file(data.draw, data.draw(posets())))


@EXAMPLES
@given(st.data())
def test_loader_matches_oracle_on_faulty_files(data):
    """One to three faults in one file: the first in file order is named."""
    P = data.draw(posets())
    doc = poset_file(data.draw, P)
    for fault in data.draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)):
        add_fault(data.draw, doc, P, fault)
    check_loader(doc)


@pytest.mark.parametrize("elements, covers", [
    # x < top with x listed after top: the self-loop on x also stalls the
    # topological sort at top, and x is the one to name.
    (["top", "x"], [("x", "top"), ("x", "x")]),
    # Covers of the wrong arity; flattened, the last list would read as the
    # valid covers a < b, c < d.
    (["a", "b", "c", "d"], [("a", "b"), ("b",), ("c", "d")]),
    (["a", "b", "c", "d"], [("a", "b", "c"), ("c", "d")]),
    (["a", "b", "c", "d"], [("a",), ("b", "c", "d")]),
])
def test_from_covers_matches_oracle_on_hand_picked_faults(elements, covers):
    got = any_outcome(FinitePoset.from_covers, elements, covers)
    assert got[0] != "value"
    assert got == any_outcome(oracle.from_covers, elements, covers)


@pytest.mark.parametrize("covers, shown", [
    ([("a", "b"), ("a", "b", "c")], "('a', 'b', 'c')"),
    ([("a",)], "('a',)"),
    ([("a", ["b"])], "('a', ['b'])"),
    ([7], "7"),
])
def test_malformed_covers_raise_a_poset_error_naming_the_cover(covers, shown):
    """Not a pair, or an id that is no dict key: a PosetLabError, not the
    ValueError or TypeError of unpacking or hashing it."""
    for build in (FinitePoset.from_covers, oracle.from_covers):
        with pytest.raises(PosetLabError) as info:
            build(["a", "b", "c"], covers)
        assert type(info.value) is PosetLabError
        assert str(info.value) == f"cover {shown} is not a pair of element ids"


def test_per_cover_loop_runs_only_on_faulty_covers(monkeypatch):
    calls = []
    loop = poset_module._checked_cover_indices
    monkeypatch.setattr(poset_module, "_checked_cover_indices", lambda *args: calls.append(args) or loop(*args))
    for _, P in suite():
        poset_from_dict({"name": P.name, "elements": list(P.elements), "covers": [list(c) for c in P.covers]})
    assert calls == []
    with pytest.raises(UnknownElementError):
        FinitePoset.from_covers(["a", "b"], [("a", "b"), ("b", "ghost")])
    assert len(calls) == 1


def test_is_graded_matches_oracle():
    """Drawn posets and their induced subposets, with and without a
    minimum, locally graded or not, graded or not."""
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        P = make_family("random-poset", rng.randint(4, 8), rng.randint(1, 3), seed)
        for members in (P.elements, rng.sample(P.elements, rng.randint(1, len(P)))):
            Q = P.induced(members)
            got = is_graded(Q)
            assert got == oracle.is_graded(Q), (seed, members)
            try:
                rank_profile(Q)
            except NotLocallyGradedError:
                seen.add("not locally graded")
            else:
                seen.add("graded" if got[0] else "locally graded, not graded")
            if not Q.has_minimum:
                seen.add("no minimum")
    assert seen == {"not locally graded", "graded", "locally graded, not graded", "no minimum"}


@pytest.mark.parametrize("name, build", NEAR_MISSES, ids=[n for n, _ in NEAR_MISSES])
def test_near_misses_match_oracle(name, build):
    P = build()
    check_against_oracle(P, P.elements[1:] or P.elements)


@pytest.mark.parametrize("build, locally_graded", [
    (crown, True),
    (lambda: crown().attach_min(), False),  # [0^, q] has chains of lengths 2 and 3
], ids=["crown", "crown-plus-min"])
def test_crown_ranks_match_oracle(build, locally_graded):
    P = build()
    assert outcome(lambda: rank_profile(P).rho.tolist()) == outcome(
        lambda: oracle.rank_matrix(P).tolist()
    )
    assert is_graded(P) == oracle.is_graded(P) == (False, None)
    assert (outcome(rank_profile, P)[0] == "value") == locally_graded
    check_against_oracle(P, P.elements[1:])


def test_dense_rank_program_runs_only_off_local_gradedness(monkeypatch):
    """Fresh copies of the suite, the near-misses and the crowns: the dense
    program runs exactly on the posets the oracle finds not locally graded."""
    calls = []
    real = poset_module._dense_rank_matrix
    monkeypatch.setattr(
        poset_module, "_dense_rank_matrix", lambda P: calls.append(P.name) or real(P)
    )
    instances = [P for _, P in suite()] + [build() for _, build in NEAR_MISSES]
    instances += [crown(), crown().attach_min()]
    want = []
    for P in instances:
        P = FinitePoset.from_covers(P.elements, P.covers, name=P.name)
        if outcome(oracle.rank_matrix, P)[0] != "value":
            want.append(P.name)
        outcome(rank_profile, P)
    assert calls == want
    assert "crown+min" in want and "crown" not in want


def check_toric_on_python_ints(P):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hvectors, "_INT64_GUARD", 0)  # every rank's bound exceeds it
        assert toric_face_polynomials(P) == oracle.toric_face_polynomials(P)
        assert toric_h(P).entries == oracle.toric_h(P)


def test_exact_toric_recursion_matches_oracle_on_the_suite():
    for _, P in suite():
        check_toric_on_python_ints(P)


@EXAMPLES
@given(st.data())
def test_exact_toric_recursion_matches_oracle_on_drawn_posets(data):
    check_toric_on_python_ints(data.draw(posets().filter(oracle.toric_applies)))


def test_near_misses_fail_the_cube_and_boolean_tests():
    assert is_cubical_poset(polygon_face(4)) and is_cubical_poset(polygon_face(4, ("A", "B")))
    assert not is_meet_semilattice(polygon_face(4, ("A", "B")))
    for name, build in NEAR_MISSES:
        P = build()
        if name != "two-squares":
            assert not is_cubical_poset(P), name
        assert not is_simplicial_poset(P), name


def bowtie():
    """0 < a, b < c, d: every pair has a meet but c, d, the two maximal
    elements, whose common lower bounds a and b have no greatest."""
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]
    return FinitePoset.from_covers(["0", "a", "b", "c", "d"], covers, name="bowtie")


MEET_CASES = [(f"{name}-min", lambda build=build: build().remove_min()) for name, build in NEAR_MISSES] + [
    ("antichain", lambda: FinitePoset.from_covers(["a", "b"], [], name="antichain")),
    ("bowtie", bowtie),
    ("bowtie-min", lambda: bowtie().remove_min()),
    ("bowtie-plus-top", lambda: oracle.attach_max(bowtie())),
]


@pytest.mark.parametrize("name, build", MEET_CASES, ids=[n for n, _ in MEET_CASES])
def test_meet_test_matches_oracle_off_the_minimum(name, build):
    """The cover-pair meet test against the test on every pair, on posets
    without a minimum and on the bowtie with and without a top."""
    P = build()
    assert is_meet_semilattice(P) == oracle.is_meet_semilattice(P)


def test_bowtie_fails_the_meet_test_only_at_its_maximal_pair():
    """Its one failing pair shares no upper cover, so only the adjoined top's
    pairs, the maximal elements, can find it; with either of them gone the
    rest is a meet-semilattice."""
    assert not is_meet_semilattice(bowtie())
    for drop in "cd":
        P = bowtie()
        assert is_meet_semilattice(P.induced([e for e in P.elements if e != drop]))
    assert not is_meet_semilattice(FinitePoset.from_covers(["a", "b"], []))


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


def butterfly(d):
    """A minimum, then two elements of each rank 1..d, each above both
    elements of the rank below: the face poset of the sphere with two cells
    in each dimension, lower Eulerian of rank d."""
    elements = ["0"] + [f"{s}{i}" for i in range(1, d + 1) for s in "ab"]
    covers = [("0", "a1"), ("0", "b1")]
    covers += [(f"{s}{i}", f"{u}{i + 1}") for i in range(1, d) for s in "ab" for u in "ab"]
    return FinitePoset.from_covers(elements, covers, name=f"butterfly-{d}")


def chain(k):
    return FinitePoset.from_covers(
        [str(i) for i in range(k)], [(str(i), str(i + 1)) for i in range(k - 1)], name=f"chain-{k}"
    )


def check_mobius(P, chunk):
    """`mobius` of P matches the oracle, with the chunk bound at `chunk`
    triples when one is given."""
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(poset_module, "_TRIPLE_CHUNK", chunk)
        table = mobius(P)._values.tolist()
    assert table == [oracle.mobius_row(P, i) for i in range(len(P))]


# Face posets, and tall posets with a level per element or pair of elements.
# Chunks of 1 or 7 triples split pairs and levels and leave a partial last
# chunk, which a table that drops or repeats it gets wrong.
MOBIUS_CASES = [
    ("cube-lattice-3", lambda: cube_face_lattice(3), [None, 1, 7]),
    ("cube-lattice-4", lambda: cube_face_lattice(4), [None, 7]),
    ("grid-3x3", lambda: make_family("grid", 3, 3), [None, 1, 7]),
    ("grid-4x4", lambda: make_family("grid", 4, 4), [None]),
    ("butterfly-6", lambda: butterfly(6), [None, 1, 7]),
    ("butterfly-20", lambda: butterfly(20), [None, 7]),
    ("chain-12", lambda: chain(12), [None, 1, 7]),
]


@pytest.mark.parametrize(
    "build, chunk",
    [(build, chunk) for _, build, chunks in MOBIUS_CASES for chunk in chunks],
    ids=[f"{name}-{chunk or 'default'}" for name, _, chunks in MOBIUS_CASES for chunk in chunks],
)
def test_mobius_matches_oracle(build, chunk):
    check_mobius(build(), chunk)


@EXAMPLES
@given(st.data())
def test_mobius_matches_oracle_on_drawn_posets(data):
    n, d = data.draw(st.sampled_from([(6, 2), (6, 3), (7, 2)]))
    P = make_family("random-poset", n, d, data.draw(st.integers(0, 60)))
    check_mobius(P, data.draw(st.sampled_from([None, 1, 7])))


@pytest.mark.large
def test_toric_recursion_past_int64_matches_oracle():
    """From rank 63 on the int64 bound fails, and (q-1)^e for e >= 67 has
    coefficients beyond int64, so int64 alone would overflow at rank 70."""
    P = butterfly(70)
    assert toric_face_polynomials(P) == oracle.toric_face_polynomials(P)
    assert toric_h(P).entries == oracle.toric_h(P)


@pytest.mark.large
@pytest.mark.parametrize("family", ["cube-lattice", "cube-boundary"])
def test_poset_layer_matches_oracle_at_cli_scale(family):
    P = make_family(family, 6)
    check_against_oracle(P, P.elements[:-1])
