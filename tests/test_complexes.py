import pytest

from conftest import brute_force_chains
from dense_oracle import open_interval_complex
from posetlab.complexes import (
    SimplicialComplex,
    complex_from_dict,
    complex_to_dict,
    is_subcomplex,
    order_complex,
    reduced_order_complex,
)
from posetlab.errors import (
    EmptyComplexError,
    FaceNotInComplexError,
    PosetLabError,
    UnknownVertexError,
)
from posetlab.generators import (
    boolean_lattice,
    cubical_complex_poset,
    simplex_boundary_complex,
)
from posetlab.poset import build_from_covers


def triangle_boundary():
    return SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])


def full_triangle():
    return SimplicialComplex([("a", "b", "c")])


# -- construction ----------------------------------------------------------------


def test_void_versus_empty():
    void = SimplicialComplex.void()
    assert void.is_void
    assert void.dim == -1
    assert void.faces() == ((),)
    with pytest.raises(EmptyComplexError):
        SimplicialComplex([])


def test_non_maximal_facet_rejected():
    with pytest.raises(PosetLabError):
        SimplicialComplex([("a", "b"), ("a",)])


def test_from_faces_keeps_maximal():
    c = SimplicialComplex.from_faces([(), ("a",), ("a", "b"), ("b",)])
    assert c.facets == (("a", "b"),)


def test_facets_deduplicated_and_sorted():
    c = SimplicialComplex([("b", "a"), ("a", "b")])
    assert c.facets == (("a", "b"),)
    assert c.vertices == ("a", "b")


# -- order complexes ---------------------------------------------------------------


def test_order_complex_of_antichain():
    P = build_from_covers(["a", "b"], [])
    c = order_complex(P)
    assert c.facets == (("a",), ("b",))
    assert c.dim == 0


def test_order_complex_of_two_chain():
    P = build_from_covers(["x", "y"], [("x", "y")])
    assert order_complex(P).facets == (("x", "y"),)


def test_order_complex_f_vector_of_truncated_boolean_lattice():
    bar = boolean_lattice(3).remove_min()
    c = order_complex(bar)
    # Oracle: chains enumerated by brute force from the order relation.
    chains = brute_force_chains(bar.elements, bar.lt)
    by_size = {}
    for chain in chains:
        by_size[len(chain)] = by_size.get(len(chain), 0) + 1
    assert by_size == {0: 1, 1: 7, 2: 12, 3: 6}
    assert c.f_vector().counts == (1, 7, 12, 6)
    assert c.reduced_euler_char() == 0  # cone over the top element


def test_order_complex_pure_iff_graded():
    assert order_complex(boolean_lattice(3)).is_pure()
    lopsided = build_from_covers(
        ["0", "a", "b", "c"], [("0", "a"), ("0", "b"), ("b", "c")]
    )
    assert not order_complex(lopsided).is_pure()


def test_reduced_order_complex_of_singleton_is_void():
    P = build_from_covers(["a"], [])
    assert reduced_order_complex(P).is_void


def test_open_interval_complex_of_cover_is_void():
    B2 = boolean_lattice(2)
    assert open_interval_complex(B2, "e", "1").is_void
    assert open_interval_complex(B2, "e", "12").facets == (("1",), ("2",))


# -- invariants ---------------------------------------------------------------------


def test_reduced_euler_characteristics():
    assert SimplicialComplex.void().reduced_euler_char() == -1
    assert triangle_boundary().reduced_euler_char() == -1
    tetra = simplex_boundary_complex(3)
    assert tetra.reduced_euler_char() == 1
    assert tetra.f_vector().counts == (1, 4, 6, 4)


def test_f_vector_alternating_sum_matches_euler_char():
    for c in (triangle_boundary(), full_triangle(), simplex_boundary_complex(3)):
        assert c.f_vector().alternating_sum() == c.reduced_euler_char()


# -- subcomplex constructions ----------------------------------------------------------


def test_link_of_vertex_in_triangle_boundary():
    link = triangle_boundary().link(("a",))
    assert link.facets == (("b",), ("c",))


def test_link_of_empty_face_is_whole_complex():
    c = triangle_boundary()
    assert c.link(()) == c


def test_link_requires_member_face():
    with pytest.raises(FaceNotInComplexError):
        triangle_boundary().link(("a", "b", "c"))


def test_contrastar_in_full_triangle():
    cost = full_triangle().contrastar(("a",))
    assert cost.facets == (("b", "c"),)


def test_contrastar_of_empty_face_rejected():
    with pytest.raises(EmptyComplexError):
        full_triangle().contrastar(())


def test_closed_star_in_cycle():
    c4 = SimplicialComplex([("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v3")])
    star = c4.closed_star("v1")
    assert star.facets == (("v0", "v1"), ("v1", "v2"))
    with pytest.raises(UnknownVertexError):
        c4.closed_star("nope")


def test_star_and_contrastar_partition_facets():
    for c in (triangle_boundary(), simplex_boundary_complex(3)):
        for sigma in c.faces():
            if not sigma:
                continue
            cost = c.contrastar(sigma)
            for facet in c.facets:
                contains = set(sigma) <= set(facet)
                assert contains != (facet in cost.face_set())


def test_delete_vertices():
    edge = SimplicialComplex([("a", "b")])
    assert edge.delete_vertices(["a", "b"]).is_void
    with pytest.raises(UnknownVertexError):
        edge.delete_vertices(["zz"])


def test_deleting_maximal_elements_matches_truncated_order_complex():
    for P in (
        boolean_lattice(3),
        cubical_complex_poset("cycle", 4),
        cubical_complex_poset("cube-boundary", 3),
    ):
        delta = reduced_order_complex(P)
        Q = P.remove_maximal()
        assert delta.delete_vertices(P.maximal_elements()) == reduced_order_complex(Q)


# -- serialization -----------------------------------------------------------------


def test_complex_json_roundtrip():
    c = simplex_boundary_complex(2)
    data = complex_to_dict(c)
    assert data["facets"] == sorted(data["facets"])
    assert complex_from_dict(data) == c


def test_reader_enforces_maximality():
    with pytest.raises(PosetLabError):
        complex_from_dict({"name": "bad", "vertices": ["a", "b"], "facets": [["a", "b"], ["b"]]})


def test_subcomplex_test():
    tri = full_triangle()
    assert is_subcomplex(triangle_boundary(), tri)
    assert not is_subcomplex(tri, triangle_boundary())
