import random

import numpy as np
import pytest

import dense_oracle
from posetlab import _kernels, homology
from posetlab.complexes import (
    SimplicialComplex,
    order_complex,
    reduced_order_complex,
)
from posetlab.errors import (
    NotASubcomplexError,
    OmegaNotOneDimensionalError,
    PosetLabError,
)
from posetlab.generators import (
    boolean_lattice,
    cubical_complex_poset,
    face_poset_of_complex,
    full_simplex_complex,
    make_family,
    path_complex,
    points_complex,
    simplex_boundary_complex,
)
from posetlab.homology import (
    LinkScan,
    chain_complex,
    classify,
    is_buchsbaum,
    is_buchsbaum_star,
    is_cohen_macaulay,
    is_doubly_cm,
    maximal_interval_classes,
    poset_is_cohen_macaulay,
    reduced_homology,
    relative_chain_complex,
    relative_homology,
)
from dense_oracle import rank as matrix_rank
from posetlab.linalg import FieldSpec
from posetlab.poset import reduced_euler_char, rank_profile

FLD = FieldSpec()


def circle():
    return SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])


# -- reduced homology ---------------------------------------------------------


def test_circle_betti():
    report = reduced_homology(circle(), FLD)
    assert report.betti == {-1: 0, 0: 0, 1: 1}


def test_sphere_betti():
    report = reduced_homology(simplex_boundary_complex(3), FLD)
    assert report.betti == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_point_betti():
    report = reduced_homology(SimplicialComplex([("a",)]), FLD)
    assert report.betti == {-1: 0, 0: 0}


def test_void_betti():
    report = reduced_homology(SimplicialComplex.void(), FLD)
    assert report.betti == {-1: 1}


def test_boundary_of_boundary_vanishes():
    for c in (circle(), simplex_boundary_complex(3), path_complex(3)):
        assert chain_complex(c, FLD).verify_boundary_identity()


def test_euler_poincare_agreement():
    for c in (
        circle(),
        simplex_boundary_complex(3),
        path_complex(2),
        points_complex(4),
        order_complex(boolean_lattice(3).remove_min()),
    ):
        assert reduced_homology(c, FLD).alternating_sum() == c.reduced_euler_char()


# -- relative homology ----------------------------------------------------------


def test_relative_of_pair_with_itself_is_zero():
    c = circle()
    report = relative_homology(c, c, FLD)
    assert all(v == 0 for v in report.betti.values())


def test_edge_relative_to_endpoints():
    edge = SimplicialComplex([("a", "b")])
    ends = SimplicialComplex([("a",), ("b",)])
    report = relative_homology(edge, ends, FLD)
    assert report.betti == {0: 0, 1: 1}


def test_relative_requires_subcomplex():
    with pytest.raises(NotASubcomplexError):
        relative_homology(circle(), SimplicialComplex([("z",)]), FLD)


def test_pair_excision_onto_link():
    # H_i(star v, link v) == H_i(Delta, cost v) == H~_{i-1}(link v), verified
    # numerically in every degree.
    for delta in (circle(), simplex_boundary_complex(3)):
        for v in delta.vertices:
            star = delta.closed_star(v)
            link = delta.link((v,))
            cost = delta.contrastar((v,))
            pair_a = relative_homology(star, link, FLD)
            pair_b = relative_homology(delta, cost, FLD)
            link_b = reduced_homology(link, FLD)
            for i in range(0, delta.dim + 1):
                assert pair_a.betti.get(i, 0) == pair_b.betti.get(i, 0)
                assert pair_b.betti.get(i, 0) == link_b.betti.get(i - 1, 0)


# -- maps of top homology onto vertex links ------------------------------------------


def test_vertex_link_map_on_circle():
    """H̃_1 of a circle onto H̃_0 of the link of a vertex, two points."""
    scan = LinkScan(circle(), FLD)
    tops = {f: top for f, _, top in scan.records}
    assert (scan.top_rank(("a",)), tops[("a",)]) == (1, 1)


def test_vertex_link_map_of_isolated_vertex_is_zero():
    c = SimplicialComplex([("a", "b"), ("z",)])
    assert LinkScan(c, FLD).top_rank(("z",)) == 0


def test_vertex_link_maps_surjective_on_truncated_cube_boundary():
    P = cubical_complex_poset("cube-boundary", 3)
    q_bar = P.remove_maximal().remove_min()
    scan = LinkScan(order_complex(q_bar), FLD)
    tops = {f: top for f, _, top in scan.records}
    for x in q_bar.minimal_elements():
        assert scan.top_rank((x,)) == tops[(x,)] == 2, x  # three edges meet at x


# -- interval classes ----------------------------------------------------------------


def test_interval_classes_of_cycle():
    c4 = cubical_complex_poset("cycle", 4)
    classes = maximal_interval_classes(c4, FLD)
    assert classes.ambient_dim == 3  # four isolated points
    assert len(classes.classes) == 4
    stacked = np.column_stack(list(classes.classes.values()))
    assert matrix_rank(stacked, FLD.characteristic) == 3
    for vec in classes.classes.values():
        assert vec.any()


def test_interval_classes_span_for_tetrahedron_boundary():
    P = face_poset_of_complex(simplex_boundary_complex(3))
    classes = maximal_interval_classes(P, FLD)
    q_bar = P.remove_maximal().remove_min()
    ambient = order_complex(q_bar)
    expect = reduced_homology(ambient, FLD).betti[rank_profile(P).top_rank - 2]
    assert classes.ambient_dim == expect
    stacked = np.column_stack(list(classes.classes.values()))
    assert matrix_rank(stacked, FLD.characteristic) == classes.ambient_dim
    assert abs(reduced_euler_char(P.remove_maximal())) == classes.ambient_dim


def test_induced_maps_reduce_each_boundary_once(monkeypatch):
    """The ambient basis and the class coordinates share one tracked
    reduction per degree; no rank-only reduction is redone with tracking."""
    built = []
    boundary = homology.ChainComplexRep.boundary

    def recording(self, k, *skip):
        built.append((self, k))  # held, so no id is reused
        return boundary(self, k, *skip)

    monkeypatch.setattr(homology.ChainComplexRep, "boundary", recording)
    classes = maximal_interval_classes(make_family("cube-boundary", 4), FLD)
    assert classes.ambient_dim == 7  # eight facets, one relation
    assert built and len(built) == len({(id(c), k) for c, k in built})


def test_cleared_columns_are_built_empty():
    ccr = chain_complex(reduced_order_complex(make_family("cube-boundary", 3)), FLD)
    full = ccr.boundary(1)
    assert len(full) == ccr.size(1) and all(full)  # no skip set: every column
    skip = ccr._reduce(2)[0]
    assert skip
    cleared = ccr.boundary(1, skip)
    assert [col if j not in skip else {} for j, col in enumerate(full)] == cleared
    assert cleared.size == full.size - sum(len(full[j]) for j in skip)


def test_interval_classes_need_rank_two():
    P = face_poset_of_complex(points_complex(3))
    with pytest.raises(PosetLabError):
        maximal_interval_classes(P, FLD)


def test_interval_classes_flag_bad_hypotheses():
    # A triangle with a pendant edge: the pendant maximal face sits at the
    # wrong rank, so its open interval carries no top homology at all.
    lopsided = SimplicialComplex([("a", "b", "c"), ("c", "d")])
    P = face_poset_of_complex(lopsided)
    with pytest.raises(OmegaNotOneDimensionalError) as err:
        maximal_interval_classes(P, FLD)
    assert err.value.dimension == 0


# -- classifiers -----------------------------------------------------------------------


def test_sphere_classification():
    classes = classify(simplex_boundary_complex(3), FLD)
    assert classes.cohen_macaulay
    assert classes.buchsbaum
    assert classes.doubly_cm
    assert classes.gorenstein_star
    assert classes.buchsbaum_star


def test_path_is_cm_but_not_doubly_cm():
    path = path_complex(2)
    classes = classify(path, FLD)
    assert classes.cohen_macaulay
    assert not classes.doubly_cm
    assert classes.witnesses["doubly_cm"][0] == "p1"
    assert not classes.gorenstein_star


def test_disconnected_complex_fails_cm_at_empty_face():
    c = SimplicialComplex([("a", "b"), ("b", "c"), ("x", "y")])
    ok, witness = is_cohen_macaulay(c, FLD)
    assert not ok
    assert witness == ((), 0)


def test_wedge_of_triangles_fails_cm_at_the_shared_vertex():
    wedge = SimplicialComplex([("a", "b", "m"), ("m", "x", "y")])
    ok, witness = is_cohen_macaulay(wedge, FLD)
    assert not ok
    assert witness == (("m",), 0)  # the link of m is disconnected


def test_impure_complex_fails_buchsbaum():
    c = SimplicialComplex([("a", "b"), ("z",)])
    ok, witness = is_buchsbaum(c, FLD)
    assert not ok
    assert witness[0] == "not pure"


def test_points_are_buchsbaum_star():
    ok, _ = is_buchsbaum_star(points_complex(4), FLD)
    assert ok


def test_single_point_is_cm_not_doubly_cm():
    point = SimplicialComplex([("a",)])
    assert is_cohen_macaulay(point, FLD)[0]
    assert not is_doubly_cm(point, FLD)[0]
    assert not is_buchsbaum_star(point, FLD)[0]


def test_buchsbaum_definitions_agree():
    # Definition via links, via link Cohen-Macaulayness, and via relative
    # homology vanishing against contrastars must coincide.
    samples = [
        simplex_boundary_complex(2),
        simplex_boundary_complex(3),
        path_complex(2),
        points_complex(3),
        SimplicialComplex([("a", "b"), ("z",)]),
        SimplicialComplex([("a", "b", "c"), ("c", "d", "e")]),
    ]
    for delta in samples:
        via_links = is_buchsbaum(delta, FLD)[0]
        via_link_cm = delta.is_pure() and all(
            is_cohen_macaulay(delta.link(f), FLD)[0] for f in delta.faces() if f
        )
        via_relative = delta.is_pure() and all(
            all(
                relative_homology(delta, delta.contrastar(f), FLD).betti.get(i, 0) == 0
                for i in range(0, delta.dim)
            )
            for f in delta.faces()
            if f
        )
        assert via_links == via_link_cm == via_relative


def test_poset_cm_equals_truncated_complex_cm():
    for P in (boolean_lattice(3), cubical_complex_poset("cycle", 4)):
        assert poset_is_cohen_macaulay(P, FLD)[0]
        assert is_cohen_macaulay(reduced_order_complex(P), FLD)[0]


def test_cm_poset_top_homology_counts_euler_char():
    # |chi~| equals the top reduced Betti number of the truncated order
    # complex for Cohen-Macaulay posets.
    from posetlab.generators import cube_face_lattice, simplicial_poset_glue

    for P in (
        boolean_lattice(3),
        cubical_complex_poset("cycle", 5),
        face_poset_of_complex(simplex_boundary_complex(3)),
        cube_face_lattice(2),
        simplicial_poset_glue("two-facets-shared-boundary", 2),
        cubical_complex_poset("grid", 2, 2),
    ):
        d = rank_profile(P).top_rank
        delta = reduced_order_complex(P)
        betti = reduced_homology(delta, FLD).betti
        assert abs(reduced_euler_char(P)) == betti.get(d - 1, 0)


def test_relative_chain_complex_boundary_identity():
    delta = simplex_boundary_complex(3)
    gamma = delta.contrastar(("s0",))
    assert relative_chain_complex(delta, gamma, FLD).verify_boundary_identity()


# -- sparse ranks against the dense oracle ---------------------------------------------


def _random_complex(rng):
    verts = [f"v{i}" for i in range(rng.randint(3, 8))]
    faces = [rng.sample(verts, rng.randint(1, min(5, len(verts)))) for _ in range(rng.randint(1, 7))]
    return SimplicialComplex.from_faces(faces)


def sparse_rank_samples():
    """(complex, subcomplex or None) pairs: random complexes, order complexes
    of random posets, relative pairs and the void complex."""
    rng = random.Random(2011)
    out = [(_random_complex(rng), None) for _ in range(10)]
    out += [
        (reduced_order_complex(make_family("random-poset", n, levels, seed)), None)
        for n, levels in ((6, 3), (7, 2))
        for seed in range(3)
    ]
    for delta in (simplex_boundary_complex(3), reduced_order_complex(boolean_lattice(3)), _random_complex(rng)):
        v = delta.vertices[0]
        out.append((delta, delta.contrastar((v,))))
        out.append((delta.closed_star(v), delta.link((v,))))
        out.append((delta, delta))
    out.append((full_simplex_complex(3), simplex_boundary_complex(3)))
    out.append((SimplicialComplex.void(), None))
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
def test_sparse_boundary_rank_matches_dense_rank(p):
    fld = FieldSpec(p)
    for delta, gamma in sparse_rank_samples():
        def fresh():
            if gamma is None:
                return chain_complex(delta, fld)
            return relative_chain_complex(delta, gamma, fld)

        present = fresh().degrees
        degrees = range(min(present), max(present) + 2)
        for order in (reversed(degrees), degrees):
            ccr = fresh()
            for k in order:
                expect = matrix_rank(dense_oracle.boundary(ccr, k), p)
                assert ccr.boundary_rank(k) == expect, (delta, gamma, k)


def test_large_order_complex_homology_builds_no_dense_matrix(monkeypatch):
    """Betti numbers take ranks only: the reduction never tracks the cycle
    combinations V_j, which only bases and coordinates need."""
    built, reduced = [], []
    rref_inplace = _kernels.rref_inplace

    def recording(delta, fld):
        built.append(chain_complex(delta, fld))
        return built[-1]

    def untracked(matrix, p, skip=frozenset(), track=False):
        assert not track
        reduced.append(len(matrix))
        return rref_inplace(matrix, p, skip)

    monkeypatch.setattr(homology, "chain_complex", recording)
    monkeypatch.setattr(_kernels, "rref_inplace", untracked)
    delta = reduced_order_complex(make_family("cube-boundary", 5))
    for p in (2, 101):
        report = homology.reduced_homology(delta, FieldSpec(p))
        assert report.betti == {k: int(k == 4) for k in range(-1, 5)}
    assert len(built) == 2
    assert len(reduced) == sum(len(ccr.degrees) for ccr in built)
