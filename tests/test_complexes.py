import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

import posetlab
from conftest import brute_force_chains, drawn_poset
from dense_oracle import closed_star, is_subcomplex, open_interval_complex
from posetlab.complexes import (
    SimplicialComplex,
    complex_from_dict,
    complex_to_dict,
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
    make_family,
    simplex_boundary_complex,
)
from posetlab.poset import build_from_covers


def triangle_boundary():
    return SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])


def full_triangle():
    return SimplicialComplex([("a", "b", "c")])


def f_vector(c):
    """Face counts (f_{-1}, f_0, ..., f_{dim}) from the listed faces."""
    sizes = [len(f) for f in c.faces()]
    return tuple(sizes.count(k) for k in range(c.dim + 2))


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


def facet_list_error(facets):
    """The message `SimplicialComplex` gives a facet list, or None, as its
    pairwise maximality loop gave it: the first facet in (length, vertices)
    order that lies in another, named with its first container."""
    facet_list = sorted({tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f))
    if not facet_list:
        return "a complex must contain at least the empty face"
    for f in facet_list:
        if len(set(f)) != len(f):
            return f"facet {f!r} repeats a vertex"
    for i, f in enumerate(facet_list):
        for g in facet_list[i + 1 :]:
            if set(f) < set(g):
                return f"facet {f!r} is contained in facet {g!r}; facets must be maximal"
    if len(facet_list) > 1 and () in facet_list:
        return "the empty face is only a facet of the void complex"
    return None


def test_facet_check_matches_the_pairwise_loop():
    rng = random.Random(22)
    seen = set()
    for _ in range(2000):
        facets = drawn_faces(rng)[: rng.choice((0, 1, 2, 4, 30))]
        if rng.random() < 0.1:
            v = rng.choice([v for f in facets for v in f] or ["v0"])
            facets.append([v, v])
        want = facet_list_error(facets)
        try:
            SimplicialComplex(facets)
            got = None
        except PosetLabError as exc:
            got = str(exc)
        assert got == want, facets
        seen.add(None if want is None else "facet ()" if want.startswith("facet ()") else want.split()[-1])
    assert seen == {None, "face", "vertex", "maximal", "facet ()"}


def test_facet_files_load_in_linear_time():
    """32,000 random triangles on 3,000 vertices and a cone over a
    50,000-edge path; the pairwise loop took several seconds at 8,000
    triangles and grows quadratically."""
    rng = random.Random(7)
    names = [f"v{i}" for i in range(3000)]
    triangles = {tuple(sorted(rng.sample(names, 3))) for _ in range(32000)}
    cone = [("apex", f"p{i}", f"p{i + 1}") for i in range(50000)]
    start = time.perf_counter()
    assert len(SimplicialComplex(triangles).facets) == len(triangles)
    assert len(SimplicialComplex(cone).facets) == 50000
    assert time.perf_counter() - start < 15
    with pytest.raises(PosetLabError, match="facet \\('apex', 'p7'\\) is contained in facet \\('apex', 'p6', 'p7'\\)"):
        SimplicialComplex(cone + [("apex", "p7")])


def test_from_faces_keeps_maximal():
    c = SimplicialComplex.from_faces([(), ("a",), ("a", "b"), ("b",)])
    assert c.facets == (("a", "b"),)


def maximal_faces(faces):
    """The maximal faces of a collection, as `from_faces` kept them before
    its bitsets: each candidate, longest first, against every kept face."""
    normed = sorted({tuple(sorted(f)) for f in faces}, key=len, reverse=True)
    kept = []
    for f in normed:
        if not any(set(f) <= set(k) for k in kept):
            kept.append(f)
    return tuple(sorted(kept, key=lambda f: (len(f), f)))


def drawn_faces(rng):
    """Up to 30 faces on up to 7 vertices, repeats and the empty face included."""
    verts = [f"v{i}" for i in range(rng.randint(1, 7))]
    return [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(rng.randint(1, 30))]


def test_from_faces_matches_the_quadratic_oracle():
    rng = random.Random(16)
    for _ in range(300):
        faces = drawn_faces(rng)
        assert SimplicialComplex.from_faces(faces).facets == maximal_faces(faces), faces
    assert SimplicialComplex.from_faces([()]).is_void


def test_contrastar_and_deletion_match_the_quadratic_oracle():
    rng = random.Random(61)
    for _ in range(100):
        c = SimplicialComplex.from_faces(drawn_faces(rng))
        if c.is_void:
            continue
        drop = rng.sample(c.vertices, rng.randint(1, len(c.vertices)))
        kept = [tuple(v for v in f if v not in drop) for f in c.facets]
        assert c.delete_vertices(drop).facets == maximal_faces(kept)
        sigma = rng.choice([f for f in c.faces() if f])
        candidates = [f for f in c.facets if not set(sigma) <= set(f)]
        candidates += [tuple(u for u in f if u != v) for f in c.facets if set(sigma) <= set(f) for v in sigma]
        assert c.contrastar(sigma).facets == maximal_faces(candidates)


def test_order_complex_facets_are_the_maximal_chains():
    for seed in range(12):
        P = drawn_poset(seed)
        chains = brute_force_chains(P.elements, P.lt)
        assert order_complex(P).facets == maximal_faces(chains), P.name


# Each line: the error of `from_faces` or the facets it keeps.
_REPEATS = """
from posetlab.complexes import SimplicialComplex
for faces in ([("a", "b"), ("a", "a")], [("a", "b", "c"), ("c", "d", "c"), ("b", "b")]):
    try:
        print(SimplicialComplex.from_faces(faces).facets)
    except Exception as exc:
        print(exc)
"""


def test_from_faces_refuses_a_repeated_vertex_under_every_hash_seed():
    """A non-maximal face that repeats a vertex is refused whatever the set
    iteration order; the message names the first such face by (length,
    vertices)."""
    src = os.path.dirname(os.path.dirname(posetlab.__file__))
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _REPEATS], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "facet ('a', 'a') repeats a vertex\nfacet ('b', 'b') repeats a vertex\n", seed


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
    assert f_vector(c) == (1, 7, 12, 6)
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


# The posets of the homology-large workload: spheres, contractible ones,
# those of the interval classes and drawn ones.
WORKLOAD_FAMILIES = (
    ("simplex-boundary", 5),
    ("cube-boundary", 4),
    ("glued", 4),
    ("boolean", 6),
    ("interval", "boolean", 5),
    ("grid", 4, 4),
    *(("random-poset", 8, 3, seed) for seed in (31, 32, 33)),
)


def test_reduced_order_complex_matches_the_order_complex_of_p_minus_its_minimum():
    one_atom = build_from_covers(["0", "a", "b", "c"], [("0", "a"), ("a", "b"), ("a", "c")], name="one-atom")
    posets = [drawn_poset(seed) for seed in range(10)]
    posets += [one_atom, boolean_lattice(1)] + [make_family(*spec) for spec in WORKLOAD_FAMILIES]
    for P in posets:
        got, want = reduced_order_complex(P), order_complex(P.remove_min())
        assert (got.name, got.facets) == (want.name, want.facets), P.name
        assert got.faces() == want.faces()
    assert reduced_order_complex(one_atom).facets == (("a", "b"), ("a", "c"))
    singleton = build_from_covers(["a"], [], name="dot")
    assert reduced_order_complex(singleton) == SimplicialComplex.void()
    assert reduced_order_complex(singleton).name == "chains(dot-min)"


def test_faces_come_in_size_then_vertex_order():
    rng = random.Random(5)
    names = ["a", "b10", "b2", "c", "C", "10", "9"]
    for _ in range(20):
        facets = [rng.sample(names, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        c = SimplicialComplex.from_faces(facets)
        every = {s for f in c.facets for k in range(len(f) + 1) for s in combinations(f, k)}
        assert c.faces() == tuple(sorted(every, key=lambda s: (len(s), s)))


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
    assert f_vector(tetra) == (1, 4, 6, 4)


def test_f_vector_alternating_sum_matches_euler_char():
    for c in (triangle_boundary(), full_triangle(), simplex_boundary_complex(3)):
        assert sum((-1) ** (i % 2) * n for i, n in enumerate(f_vector(c), start=-1)) == c.reduced_euler_char()


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


def test_link_and_contrastar_refuse_what_no_facet_holds():
    """A face is what some facet holds; a tuple that repeats a vertex is
    never one, though a facet holds its vertex set."""
    c = triangle_boundary()
    for bad in (("a", "b", "c"), ("d",), ("a", "a"), ("b", "a", "a")):
        for op in (c.link, c.contrastar):
            with pytest.raises(FaceNotInComplexError) as exc:
                op(bad)
            assert str(exc.value) == f"face {sorted(bad)!r} is not in the complex"
    assert c.link(("b", "a")).is_void and c.link(()) == c
    rng = random.Random(3)
    for _ in range(200):
        c = SimplicialComplex.from_faces(drawn_faces(rng))
        faces = frozenset(c.faces())
        sigma = tuple(rng.choices(c.vertices + ("w",), k=rng.randint(0, 3)))
        if tuple(sorted(sigma)) in faces:
            assert c.link(sigma).facets == maximal_faces(
                [tuple(v for v in f if v not in sigma) for f in c.facets if set(sigma) <= set(f)]
            )
        else:
            with pytest.raises(FaceNotInComplexError):
                c.link(sigma)
            with pytest.raises(FaceNotInComplexError):
                c.contrastar(sigma)


def test_contrastar_in_full_triangle():
    cost = full_triangle().contrastar(("a",))
    assert cost.facets == (("b", "c"),)


def test_contrastar_of_empty_face_rejected():
    with pytest.raises(EmptyComplexError):
        full_triangle().contrastar(())


def test_closed_star_in_cycle():
    c4 = SimplicialComplex([("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v3")])
    star = closed_star(c4, "v1")
    assert star.facets == (("v0", "v1"), ("v1", "v2"))
    with pytest.raises(UnknownVertexError):
        closed_star(c4, "nope")


def test_star_and_contrastar_partition_facets():
    for c in (triangle_boundary(), simplex_boundary_complex(3)):
        for sigma in c.faces():
            if not sigma:
                continue
            cost = c.contrastar(sigma)
            for facet in c.facets:
                contains = set(sigma) <= set(facet)
                assert contains != (facet in cost.faces())


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
