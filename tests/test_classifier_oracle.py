"""The link-scan classifiers against the face-by-face oracle in
`classifier_oracle.py`: same flags and the same first-failure witnesses, at
p = 2, 3 and 101, on a fixed seeded sample of complexes.  The scan of an
order complex from interval Betti numbers is checked against the
chain-level scan the same way, on a fixed sample of posets, and so is the
scan of the elements comparable with a vertex against the link of that
vertex.  The vertex deletions it reads off the long exact sequence are
checked against direct reductions.  The vertex top ranks the audit reads
off a scan's top cycle basis are checked against the dense vertex link map
of `dense_oracle.py`.  The pair test that decides the order-complex scan's
CM, Buchsbaum and Gorenstein* verdicts, its records by interval tops, the
Gorenstein* shortcut of doubly CM and the graph vectors of small intervals
are each checked against the chain-level scan or a chain complex, and so
are Buchsbaum* by doubly CM (against the per-face loop) and the sphere test
of intervals with its acyclic deletions (against direct reductions).  A
scan computes doubly CM once.  The top ranks of every face, read off vertex
bitsets, are checked against the subset map of `classifier_oracle.py`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import classifier_oracle as oracle
import dense_oracle
from conftest import drawn_poset, rp2, torus7
from posetlab.complexes import SimplicialComplex, order_complex, reduced_order_complex
from posetlab.generators import (
    face_poset_of_complex,
    make_family,
    path_complex,
    random_pure_subcomplex,
    simplex_boundary_complex,
    suite,
)
from posetlab import homology
from posetlab.homology import (
    ChainComplexRep,
    IntervalBetti,
    LinkScan,
    OrderComplexScan,
    _chains,
)
from posetlab.linalg import FieldSpec
from posetlab.poset import _bits, build_from_covers

PAIRS = (
    ("cohen_macaulay", oracle.is_cohen_macaulay),
    ("buchsbaum", oracle.is_buchsbaum),
    ("doubly_cm", oracle.is_doubly_cm),
    ("buchsbaum_star", oracle.is_buchsbaum_star),
)


def random_complex(seed):
    """Up to five random faces on six vertices, so often impure."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(6)]
    faces = [rng.sample(verts, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
    return SimplicialComplex.from_faces(faces, name=f"random-s{seed}")


def cone(delta, apex="c"):
    return SimplicialComplex([f + (apex,) for f in delta.facets], name=f"cone({delta.name})")


def disjoint_spheres(n):
    sphere = simplex_boundary_complex(n)
    twin = [tuple(f"t{v}" for v in f) for f in sphere.facets]
    return SimplicialComplex(list(sphere.facets) + twin, name=f"two-spheres-{n}")


def samples():
    out = [random_complex(seed) for seed in range(12)]
    out += [random_pure_subcomplex(6, d, seed) for d in (1, 2) for seed in range(4)]
    out += [reduced_order_complex(make_family("random-poset", 5, 2, seed)) for seed in range(3)]
    out += [cone(simplex_boundary_complex(2)), cone(path_complex(3)), cone(random_complex(3))]
    out += [disjoint_spheres(2), disjoint_spheres(3)]
    out += [simplex_boundary_complex(2), simplex_boundary_complex(3)]
    out += [reduced_order_complex(make_family("cube-boundary", n)) for n in (2, 3)]
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
def test_link_scan_matches_oracle(p):
    fld = FieldSpec(p)
    seen = set()
    for delta in samples():
        scan = LinkScan(delta, fld)
        for name, slow in PAIRS:
            assert getattr(scan, name)() == slow(delta, fld), (delta, name)
        got = scan.classes()
        assert got == oracle.classify(delta, fld), delta
        wit = got.witnesses
        if not got.doubly_cm and got.cohen_macaulay and isinstance(wit["doubly_cm"][1], tuple):
            seen.add("doubly CM fails at a face")
        if got.buchsbaum and not got.buchsbaum_star:
            seen.add("Buchsbaum* fails with a rank")
        if got.cohen_macaulay and got.buchsbaum and got.doubly_cm and got.gorenstein_star and got.buchsbaum_star:
            seen.add("all five hold")
    assert seen == {"doubly CM fails at a face", "Buchsbaum* fails with a rank", "all five hold"}


# -- the order-complex scan against the chain-level scan -------------------------

CLASSIFIERS = ("cohen_macaulay", "buchsbaum", "gorenstein_star", "doubly_cm", "buchsbaum_star")


def poset_samples():
    out = [drawn_poset(seed) for seed in range(25)]
    out += [build_from_covers(["0"], [], name="point"), face_poset_of_complex(rp2(), name="rp2")]
    out += [make_family("boolean", 3), make_family("cube-boundary", 3), make_family("cycle", 4)]
    return out


def chain_level(P, members, fld):
    members = list(members)
    delta = order_complex(P.induced(members)) if members else SimplicialComplex.void()
    return LinkScan(delta, fld)


VERTEX_LINKS = ("maximal v (an interval)", "non-maximal v (a join)")


def scan_pairs(P, fld):
    """(kind, order-complex scan, chain-level scan) of Δ(P̄) and Δ(Q̄),
    P̄ = P minus its minimum and Q̄ = P̄ minus its maximal elements, and of
    the link of every vertex v of each.  The link is the scan of the
    elements comparable with v, from the same memo: an interval when v is
    maximal, a join otherwise (`VERTEX_LINKS`)."""
    intervals = IntervalBetti(P, fld)
    pbar = [x for x in P.elements if x != P.minimum()]
    qbar = [x for x in pbar if x not in P.maximal_elements()]
    for members in (pbar, qbar):
        slow = chain_level(P, members, fld)
        yield "whole complex", intervals.scan(members), slow
        for v in members:
            above = [x for x in members if P.lt(v, x)]
            link = [x for x in members if P.lt(x, v)] + above
            kind = VERTEX_LINKS[bool(above)]
            yield kind, intervals.scan(link), LinkScan(slow.delta.link((v,)), fld)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_order_complex_scan_matches_chain_level_scan(p):
    """Δ(P̄) and Δ(P̄ minus its maximal elements), from one memo, and the
    scan of the link of every element: records, Betti numbers, classifiers."""
    fld = FieldSpec(p)
    seen = set()
    for P in poset_samples():
        for _, got, want in scan_pairs(P, fld):
            assert got.delta == want.delta, P.name
            assert got.records == want.records, P.name
            assert got.betti() == want.betti(), P.name
            for name in CLASSIFIERS:
                flag, wit = getattr(got, name)()
                assert (flag, wit) == getattr(want, name)(), (P.name, name)
                if not flag:
                    seen.add(name)
            ok, wit = got.doubly_cm()
            if not ok and got.cohen_macaulay()[0] and isinstance(wit[1], tuple):
                seen.add("doubly CM fails at a face")
    assert seen == {*CLASSIFIERS, "doubly CM fails at a face"}


def open_intervals(intervals):
    """Member bitsets of the nonempty open intervals of P̂, P with a new
    bottom and top."""
    everything = (1 << len(intervals.P)) - 1
    lows = [everything] + intervals.above
    highs = [everything] + intervals.below
    return sorted({lo & hi for lo in lows for hi in highs} - {0})


@pytest.mark.parametrize("p", [2, 3, 101])
def test_deletions_from_cm_intervals_match_direct_reductions(p):
    """For every Cohen-Macaulay open interval I of P̂ and every v in I, the
    vector the long exact sequence gives for I - v is that of a reduction
    of the chains of I - v."""
    fld = FieldSpec(p)
    seen = set()
    for P in poset_samples():
        intervals = IntervalBetti(P, fld)
        for members in open_intervals(intervals):
            if not OrderComplexScan(intervals, members).cohen_macaulay()[0]:
                continue
            got = intervals._deletions(members)
            assert sorted(got) == list(_bits(members)), P.name
            top = intervals._vector(members)
            for v, vector in got.items():
                faces = _chains(members & ~(1 << v), intervals.above)
                ccr = ChainComplexRep(faces, p)
                want = tuple(ccr.betti(k) for k in range(-1, len(faces) - 1))
                assert vector == want, (P.name, members, v)
                if len(want) < len(top):
                    seen.add("cone")
                elif want[-1] < top[-1]:
                    seen.add("top cycles reach v")
                if any(want[:-1]):
                    seen.add("homology below the top")
    assert seen == {"cone", "top cycles reach v", "homology below the top"}


@pytest.mark.parametrize("p", [2, 3, 101])
def test_pair_test_decides_cm_and_gorenstein_star(p):
    """The pair test passes exactly when the chain-level scan finds Δ
    Cohen-Macaulay, `_is_sphere` holds exactly when Δ is Gorenstein*, and
    the CM, Buchsbaum and Gorenstein* verdicts and witnesses are the
    chain-level ones on both sides of it.  The records and the per-face
    tops the audit reads are the chain-level ones either way."""
    fld = FieldSpec(p)
    seen = set()
    for P in poset_samples():
        for kind, fast, slow in scan_pairs(P, fld):
            cm, gorenstein = slow.cohen_macaulay()[0], slow.gorenstein_star()[0]
            assert fast._pair_test == cm, P.name
            assert fast.intervals._is_sphere(fast.ground) == gorenstein, P.name
            for name in ("cohen_macaulay", "buchsbaum", "gorenstein_star"):
                assert getattr(fast, name)() == getattr(slow, name)(), (P.name, name)
            assert fast.records == slow.records, P.name
            assert [fast.link_top(f) for f, _, _ in slow.records] == [top for *_, top in slow.records]
            seen.add(("passes" if cm else "fails", "Gorenstein*" if gorenstein else "not Gorenstein*", kind))
            if slow.buchsbaum()[0] and not cm:
                seen.add("Buchsbaum, not CM")
            if not slow.delta.is_pure():
                seen.add("not pure")
    verdicts = {(cm, gor) for cm in ("passes", "fails") for gor in ("Gorenstein*", "not Gorenstein*")}
    verdicts.discard(("fails", "Gorenstein*"))
    near_misses = {"Buchsbaum, not CM", "not pure"}
    kinds = ("whole complex", *VERTEX_LINKS)
    assert seen == {(*v, kind) for v in verdicts for kind in kinds} | near_misses


@pytest.mark.parametrize("p", [2, 3, 101])
def test_rp2_and_torus_fall_back_to_the_face_loop(p):
    """RP² is CM over F_3 and F_101 but not over F_2, and Gorenstein* over
    none; the torus is Buchsbaum and never CM.  Where the pair test fails
    the face loop gives the chain-level witnesses."""
    fld = FieldSpec(p)
    fixtures = (
        (face_poset_of_complex(rp2(), name="rp2"), p != 2),
        (face_poset_of_complex(torus7(), name="torus"), False),
    )
    for P, cm in fixtures:
        pbar = [x for x in P.elements if x != P.minimum()]
        fast, slow = IntervalBetti(P, fld).scan(pbar), chain_level(P, pbar, fld)
        assert fast._pair_test == cm, P.name
        assert fast.cohen_macaulay()[0] == cm
        assert fast.buchsbaum() == (True, None)
        assert not fast.gorenstein_star()[0]
        for name in CLASSIFIERS:
            assert getattr(fast, name)() == getattr(slow, name)(), (P.name, name)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_gorenstein_star_scans_are_doubly_cm_without_deletions(p, monkeypatch):
    """A Gorenstein* Δ is doubly CM by the face-by-face oracle, which
    deletes each vertex and scans the rest, and the order-complex scan says
    so without reading a single vertex deletion."""
    fld = FieldSpec(p)

    def refuse(self, members, v):
        raise AssertionError("a vertex deletion was read off a Gorenstein* complex")

    spheres = 0
    for P in poset_samples():
        for _, fast, slow in scan_pairs(P, fld):
            if not slow.gorenstein_star()[0]:
                continue
            assert oracle.is_doubly_cm(slow.delta, fld) == (True, None), P.name
            with monkeypatch.context() as m:
                m.setattr(IntervalBetti, "_deleted_vector", refuse)
                assert fast.doubly_cm() == (True, None), P.name
            spheres += len(slow.delta.vertices) > 1
    assert spheres


@pytest.mark.parametrize("p", [2, 3, 101])
def test_buchsbaum_star_from_doubly_cm_matches_the_face_loop(p, monkeypatch):
    """Buchsbaum* of the order-complex scans, and of the scans of their
    vertex links, is the per-face loop's verdict and witness (and the
    chain-level scan's).  A doubly CM complex passes without a single
    `top_rank`; any other goes through the loop, unless it is not even
    Buchsbaum.  The loop fails some CM complexes and passes some that are
    not CM, such as two disjoint circles.  It passes no CM complex: a CM
    complex that is Buchsbaum* is doubly CM (Athanasiadis-Welker), and a
    simplex, the order complex of a chain, is not Buchsbaum*, since no top
    cycle reaches the void link of its facet."""
    fld = FieldSpec(p)
    ranked = []
    top_rank = OrderComplexScan.top_rank

    def recording(self, face):
        ranked.append(face)
        return top_rank(self, face)

    seen = set()
    for P in [*poset_samples(), face_poset_of_complex(disjoint_spheres(2), name="two-circles")]:
        for _, fast, slow in scan_pairs(P, fld):
            loop = LinkScan.buchsbaum_star(fast)
            ranked.clear()
            with monkeypatch.context() as m:
                m.setattr(OrderComplexScan, "top_rank", recording)
                got = OrderComplexScan(fast.intervals, fast.ground).buchsbaum_star()
            assert got == loop == slow.buchsbaum_star(), P.name
            assert not (ranked and fast.doubly_cm()[0]), P.name
            cm = "CM" if fast._pair_test else "not CM"
            seen.add((cm, "face loop" if ranked else "no face rank", got[0]))
    loops = {("CM", "face loop", False), ("not CM", "face loop", False), ("not CM", "face loop", True)}
    assert {("CM", "no face rank", True), *loops} <= seen
    assert ("CM", "face loop", True) not in seen


@pytest.mark.parametrize("p", [2, 3, 101])
def test_doubly_cm_is_computed_once_per_scan(p, monkeypatch):
    """Past the first `doubly_cm` of a scan, a second one and
    `buchsbaum_star` read its result: they give the chain-level verdicts
    and witnesses without asking the memo for a sphere or a deletion."""
    fld = FieldSpec(p)
    reads = []
    deleted_vector, is_sphere = IntervalBetti._deleted_vector, IntervalBetti._is_sphere

    def counting(method):
        return lambda *args: reads.append(method) or method(*args)

    def refuse(*args):
        raise AssertionError("doubly CM was computed again")

    for P in poset_samples():
        for _, fast, slow in scan_pairs(P, fld):
            with monkeypatch.context() as m:
                m.setattr(IntervalBetti, "_deleted_vector", counting(deleted_vector))
                m.setattr(IntervalBetti, "_is_sphere", counting(is_sphere))
                first = fast.doubly_cm()
            with monkeypatch.context() as m:
                m.setattr(IntervalBetti, "_deleted_vector", refuse)
                m.setattr(IntervalBetti, "_is_sphere", refuse)
                assert fast.doubly_cm() == first == slow.doubly_cm(), P.name
                assert fast.buchsbaum_star() == slow.buchsbaum_star(), P.name
    assert deleted_vector in reads and is_sphere in reads


@pytest.mark.parametrize("p", [2, 3, 101])
def test_sphere_intervals_and_their_deletions_match_chain_level(p, monkeypatch):
    """`_is_sphere` of every open interval of P̂ is the chain-level
    Gorenstein* verdict of its order complex, including intervals whose own
    vector is that of a sphere but one of whose links is not.  For a sphere
    every vertex deletion is acyclic, which direct reductions confirm, and
    `_deletions` says so without a top cycle basis or a rank."""
    fld = FieldSpec(p)

    def refuse(*args):
        raise AssertionError("a sphere's deletions reduced its top cycles")

    seen = set()
    for P in [*poset_samples(), pendant_square()]:
        intervals = IntervalBetti(P, fld)
        for members in open_intervals(intervals):
            slow = chain_level(P, [P.elements[i] for i in _bits(members)], fld)
            sphere = intervals._is_sphere(members)
            assert sphere == slow.gorenstein_star()[0], (P.name, members)
            vector = intervals._vector(members)
            if not sphere:
                if vector[-1] == 1 and not any(vector[:-1]):
                    seen.add("sphere vector, not Gorenstein*")
                continue
            with monkeypatch.context() as m:
                m.setattr(homology, "_top_rows", refuse)
                m.setattr(homology.linalg, "rank", refuse)
                got = intervals._deletions(members)
            for v, deleted in got.items():
                faces = _chains(members & ~(1 << v), intervals.above)
                want = tuple(ChainComplexRep(faces, p).betti(k) for k in range(-1, len(faces) - 1))
                assert deleted == want == (0,) * len(vector), (P.name, members, v)
            seen.add(f"sphere of dimension {min(len(vector) - 2, 2)}")
    assert seen == {"sphere vector, not Gorenstein*", *(f"sphere of dimension {e}" for e in (0, 1, 2))}


def pendant_square():
    """A poset of height 1 whose order complex is a square with a pendant
    edge: connected, so Cohen-Macaulay, with the vector (0, 0, 1) of a
    circle, yet the pendant vertex's link is a single point."""
    covers = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"), ("a1", "c")]
    return build_from_covers(["a1", "a2", "b1", "b2", "c"], covers, name="pendant-square")


def drawn_members(intervals, rng, count):
    """Random nonempty member bitsets and every open interval of P̂."""
    n = len(intervals.P)
    drawn = {sum(1 << i for i in range(n) if rng.random() < rng.choice((0.2, 0.4, 0.7))) for _ in range(count)}
    return sorted((drawn | set(open_intervals(intervals))) - {0})


@pytest.mark.parametrize("p", [2, 3, 101])
def test_graph_vectors_match_chain_complexes(p):
    """Member sets of dimension at most 1 get their vector off the bitsets,
    and it is that of a reduction of their chains; any other set is left to
    the reduction."""
    rng = random.Random(p)
    seen = set()
    for P in poset_samples():
        intervals = IntervalBetti(P, FieldSpec(p))
        for members in drawn_members(intervals, rng, 20):
            faces = _chains(members, intervals.above)
            want = tuple(ChainComplexRep(faces, p).betti(k) for k in range(-1, len(faces) - 1))
            got = intervals._graph_vector(members)
            if len(want) > 3:
                assert got is None, (P.name, members)
                continue
            assert got == want, (P.name, members)
            assert intervals._vector(members) == want
            seen.add(("points", "graph")[len(want) - 2])
            if len(want) == 3 and want[1]:
                seen.add("disconnected graph")
            if len(want) == 3 and want[2]:
                seen.add("graph with a cycle")
    assert seen == {"points", "graph", "disconnected graph", "graph with a cycle"}


def test_rp2_face_poset_doubly_cm_stops_at_the_cm_witness(monkeypatch):
    """Over F_2 the RP² face poset is not CM, and `doubly_cm` returns that
    witness without reading any vertex deletion."""
    P = face_poset_of_complex(rp2(), name="rp2")
    scan = IntervalBetti(P, FieldSpec(2)).scan(x for x in P.elements if x != P.minimum())

    def refuse(self, members):
        raise AssertionError("a deletion was read off a complex that is not CM")

    monkeypatch.setattr(IntervalBetti, "_deletions", refuse)
    ok, wit = scan.cohen_macaulay()
    assert not ok
    assert scan.doubly_cm() == (False, wit)


def test_rp2_face_poset_is_cohen_macaulay_over_f3_only():
    P = face_poset_of_complex(rp2(), name="rp2")
    pbar = [x for x in P.elements if x != P.minimum()]
    assert not IntervalBetti(P, FieldSpec(2)).scan(pbar).cohen_macaulay()[0]
    for p in (3, 101):
        assert IntervalBetti(P, FieldSpec(p)).scan(pbar).cohen_macaulay() == (True, None)


# -- top ranks against the dense vertex link map ---------------------------------


def top_rank_pairs(scan, fld):
    """Per vertex v of a pure complex: (top_rank((v,)), top Betti number of
    v's record) and the dense oracle's (rank, codomain_dim)."""
    tops = {f: top for f, _, top in scan.records if len(f) == 1}
    for v in scan.delta.vertices:
        report = dense_oracle.vertex_link_map(scan.delta, v, fld)
        yield v, (scan.top_rank((v,)), tops[(v,)]), (report.rank, report.codomain_dim)


def qbar_scans(fld):
    """The order-complex scans of Δ(Q̄), Q̄ = P minus its minimum and its
    maximal elements, for the suite instances where Q̄ is not empty."""
    for _, P in suite():
        if P.has_minimum and len(P.maximal_elements()) + 1 < len(P):
            yield IntervalBetti(P, fld).scan(P.remove_maximal().remove_min().elements)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_top_rank_matches_vertex_link_map(p):
    fld = FieldSpec(p)
    shapes = ((5, 1), (6, 2), (7, 2), (6, 3))
    drawn = [random_pure_subcomplex(n, d, seed) for n, d in shapes for seed in range(4)]
    scans = [LinkScan(delta, fld) for delta in drawn] + list(qbar_scans(fld))
    short = 0
    for scan in scans:
        assert scan.delta.is_pure()
        for v, got, want in top_rank_pairs(scan, fld):
            assert got == want, (scan.delta, v)
            short += want[0] < want[1]
    assert short  # some vertex link is not reached


@pytest.mark.parametrize("p", [2, 3, 101])
def test_top_rank_matches_subset_map_on_every_face(p):
    """`top_rank` of every nonempty face, the rank at the AND of its
    vertices' bitsets, is the oracle's rank through the subset map, on the
    pure link scans of `samples()`, the pure order-complex scans of
    `scan_pairs` and those of Δ(Q̄) for cube-boundary-3 and 4.  Some face
    ranks below its first vertex, so its other vertices count."""
    fld = FieldSpec(p)
    scans = [LinkScan(delta, fld) for delta in samples()]
    scans += [fast for P in poset_samples() for _, fast, _ in scan_pairs(P, fld)]
    for n in (3, 4):
        P = make_family("cube-boundary", n)
        scans.append(IntervalBetti(P, fld).scan(P.remove_maximal().remove_min().elements))
    below = 0
    for scan in scans:
        if not scan.delta.is_pure():
            continue
        want = oracle.top_ranks(scan, fld)
        for face, rank in want.items():
            assert scan.top_rank(face) == rank, (scan.delta, face)
            below += rank < want[face[:1]]
    assert below


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_top_rank_matches_vertex_link_map_on_drawn_pure_complexes(data):
    n = data.draw(st.integers(2, 7))
    d, seed = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**32))
    delta = random_pure_subcomplex(n, d, seed)
    fld = FieldSpec(data.draw(st.sampled_from([2, 3, 101])))
    for v, got, want in top_rank_pairs(LinkScan(delta, fld), fld):
        assert got == want, (delta, v)
