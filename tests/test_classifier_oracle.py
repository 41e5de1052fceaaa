"""The link-scan classifiers against the face-by-face oracle in
`classifier_oracle.py`: same flags and the same first-failure witnesses, at
p = 2, 3 and 101, on a fixed seeded sample of complexes.  The scan of an
order complex from interval Betti numbers is checked against the
chain-level scan the same way, on a fixed sample of posets, and the vertex
deletions it reads off the long exact sequence against direct reductions.
The vertex top ranks the audit reads off a scan's top cycle basis are
checked against the dense vertex link map of `dense_oracle.py`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import classifier_oracle as oracle
import dense_oracle
from conftest import drawn_poset, rp2
from posetlab.complexes import SimplicialComplex, order_complex, reduced_order_complex
from posetlab.errors import FaceNotInComplexError
from posetlab.generators import (
    face_poset_of_complex,
    make_family,
    path_complex,
    random_pure_subcomplex,
    simplex_boundary_complex,
    suite,
)
from posetlab.homology import (
    ChainComplexRep,
    IntervalBetti,
    LinkScan,
    OrderComplexScan,
    _chains,
    classify,
    is_buchsbaum,
    is_buchsbaum_star,
    is_cohen_macaulay,
    is_doubly_cm,
)
from posetlab.linalg import FieldSpec
from posetlab.poset import _bits, build_from_covers

PAIRS = (
    (is_cohen_macaulay, oracle.is_cohen_macaulay),
    (is_buchsbaum, oracle.is_buchsbaum),
    (is_doubly_cm, oracle.is_doubly_cm),
    (is_buchsbaum_star, oracle.is_buchsbaum_star),
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
        for fast, slow in PAIRS:
            assert fast(delta, fld) == slow(delta, fld), (delta, fast.__name__)
        got = classify(delta, fld)
        assert got == oracle.classify(delta, fld), delta
        wit = got.witnesses
        if not got.doubly_cm and got.cohen_macaulay and isinstance(wit["doubly_cm"][1], tuple):
            seen.add("doubly CM fails at a face")
        if got.buchsbaum and not got.buchsbaum_star:
            seen.add("Buchsbaum* fails with a rank")
        if got.cohen_macaulay and got.buchsbaum and got.doubly_cm and got.gorenstein_star and got.buchsbaum_star:
            seen.add("all five hold")
    assert seen == {"doubly CM fails at a face", "Buchsbaum* fails with a rank", "all five hold"}


@pytest.mark.parametrize("p", [2, 3, 101])
def test_vertex_link_scan_matches_fresh_scan(p):
    fld = FieldSpec(p)
    for delta in samples():
        scan = LinkScan(delta, fld)
        for v in delta.vertices:
            got = scan.vertex_link(v)
            fresh = LinkScan(delta.link((v,)), fld)
            assert got.delta == fresh.delta
            assert got.records == fresh.records, (delta, v)
            assert got.doubly_cm() == fresh.doubly_cm(), (delta, v)


# -- the order-complex scan against the chain-level scan -------------------------

CLASSIFIERS = ("cohen_macaulay", "buchsbaum", "gorenstein_star", "doubly_cm", "buchsbaum_star")


def poset_samples():
    out = [drawn_poset(seed) for seed in range(24)]
    out += [build_from_covers(["0"], [], name="point"), face_poset_of_complex(rp2(), name="rp2")]
    out += [make_family("boolean", 3), make_family("cube-boundary", 3), make_family("cycle", 4)]
    return out


def chain_level(P, members, fld):
    members = list(members)
    delta = order_complex(P.induced(members)) if members else SimplicialComplex.void()
    return LinkScan(delta, fld)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_order_complex_scan_matches_chain_level_scan(p):
    """Δ(P̄) and Δ(P̄ minus its maximal elements), from one memo, and the
    scan of the link of every element: records, Betti numbers, classifiers."""
    fld = FieldSpec(p)
    seen = set()
    for P in poset_samples():
        intervals = IntervalBetti(P, fld)
        pbar = [x for x in P.elements if x != P.minimum()]
        qbar = [x for x in pbar if x not in P.maximal_elements()]
        for members in (pbar, qbar):
            fast, slow = intervals.scan(members), chain_level(P, members, fld)
            pairs = [(fast, slow)] + [(fast.vertex_link(v), slow.vertex_link(v)) for v in members]
            for got, want in pairs:
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
            if not OrderComplexScan(intervals, members, ()).cohen_macaulay()[0]:
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


def test_vertex_link_of_a_non_vertex_is_refused():
    P = make_family("boolean", 2)
    scan = IntervalBetti(P, FieldSpec(2)).scan(["1", "2"])
    with pytest.raises(FaceNotInComplexError):
        scan.vertex_link(scan.delta.vertices[0]).vertex_link(scan.delta.vertices[1])


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_top_rank_matches_vertex_link_map_on_drawn_pure_complexes(data):
    n = data.draw(st.integers(2, 7))
    d, seed = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**32))
    delta = random_pure_subcomplex(n, d, seed)
    fld = FieldSpec(data.draw(st.sampled_from([2, 3, 101])))
    for v, got, want in top_rank_pairs(LinkScan(delta, fld), fld):
        assert got == want, (delta, v)
