import json

import pytest

from posetlab.complexes import complex_to_dict
from posetlab.errors import SizeLimitError, UnsupportedKindError
from posetlab.generators import (
    XorShift64Star,
    boolean_lattice,
    cube_face_lattice,
    cubical_complex_poset,
    face_poset_of_complex,
    make_family,
    random_pure_subcomplex,
    simplex_boundary_complex,
    simplicial_poset_glue,
    suite,
)
from posetlab.poset import (
    is_cubical_poset,
    is_lower_eulerian,
    is_simplicial_poset,
    poset_to_dict,
    rank_profile,
)


def test_boolean_lattice_sizes():
    assert len(boolean_lattice(0)) == 1
    assert len(boolean_lattice(3)) == 8
    assert is_lower_eulerian(boolean_lattice(3))
    with pytest.raises(SizeLimitError):
        boolean_lattice(7)


@pytest.mark.parametrize("n", range(1, 7))
def test_cube_boundary_is_the_cube_lattice_without_its_top(n):
    """Built from the cube's covers, the same poset as the subposet of its
    face lattice on every face but the top: elements in the same order,
    the same covers and file bytes."""
    P = make_family("cube-boundary", n)
    L = cube_face_lattice(n)
    (top,) = L.maximal_elements()
    Q = L.induced([e for e in L.elements if e != top], name=f"cube-boundary-{n}")
    assert P.elements == Q.elements
    assert P.covers == Q.covers
    assert json.dumps(poset_to_dict(P)) == json.dumps(poset_to_dict(Q))


def test_cube_face_lattice_counts():
    assert len(cube_face_lattice(0)) == 2
    assert len(cube_face_lattice(2)) == 10  # 1 + 4 + 4 + 1
    assert len(cube_face_lattice(3)) == 28
    assert rank_profile(cube_face_lattice(2)).top_rank == 3


def test_face_poset_of_triangle_boundary():
    P = face_poset_of_complex(simplex_boundary_complex(2))
    assert len(P) == 7
    assert is_lower_eulerian(P)
    assert is_simplicial_poset(P)


def test_cycle_and_grid_kinds():
    c4 = cubical_complex_poset("cycle", 4)
    assert len(c4) == 9
    assert is_cubical_poset(c4)
    grid = cubical_complex_poset("grid", 2, 2)
    assert len(grid) == 26  # 9 vertices, 12 edges, 4 squares, plus the minimum
    assert rank_profile(grid).top_rank == 3
    assert is_cubical_poset(grid)


def test_cube_boundary_kind():
    P = cubical_complex_poset("cube-boundary", 3)
    assert len(P) == 27
    counts = rank_profile(P).rank_counts()
    assert counts == [1, 8, 12, 6]
    assert is_cubical_poset(P)


def test_unsupported_kind():
    with pytest.raises(UnsupportedKindError):
        cubical_complex_poset("torus", 3)
    with pytest.raises(UnsupportedKindError):
        simplicial_poset_glue("moebius", 2)
    with pytest.raises(UnsupportedKindError):
        make_family("nonsense", 1)
    with pytest.raises(UnsupportedKindError):
        make_family("interval", "random", 5, 2, 1)


def test_glued_poset_shape():
    P = simplicial_poset_glue("two-facets-shared-boundary", 2)
    assert len(P) == 9
    assert len(P.maximal_elements()) == 2
    assert is_simplicial_poset(P)
    assert is_lower_eulerian(P)


def test_prng_is_stable():
    rng = XorShift64Star(1)
    words = [rng.next_word() for _ in range(3)]
    rng2 = XorShift64Star(1)
    assert words == [rng2.next_word() for _ in range(3)]
    assert words != [XorShift64Star(2).next_word() for _ in range(3)]


def test_random_subcomplex_deterministic():
    a = random_pure_subcomplex(6, 2, 7)
    b = random_pure_subcomplex(6, 2, 7)
    assert a.facets == b.facets
    assert json.dumps(complex_to_dict(a)) == json.dumps(complex_to_dict(b))
    assert a.is_pure()
    assert all(len(f) == 3 for f in a.facets)
    c = random_pure_subcomplex(6, 2, 8)
    assert c.facets != a.facets


def test_random_subcomplex_never_empty():
    for seed in range(20):
        c = random_pure_subcomplex(5, 1, seed)
        assert len(c.facets) >= 1


def test_make_family_reproducible():
    spec = ("grid", 2, 3)
    assert poset_to_dict(make_family(*spec)) == poset_to_dict(make_family(*spec))


def test_suite_contents():
    instances = suite()
    names = [name for name, _ in instances]
    assert len(names) == len(set(names))
    assert len(instances) >= 30
    assert all(len(P) <= 2000 for _, P in instances)
    again = suite()
    assert [poset_to_dict(P) for _, P in instances] == [
        poset_to_dict(P) for _, P in again
    ]


def test_suite_families_have_expected_structure(suite_posets):
    for name, P in suite_posets:
        if name.startswith(("cycle", "grid", "cube-boundary", "cube-lattice")):
            assert is_cubical_poset(P), name
        if name.startswith(("boolean", "simplex-boundary", "glued", "random", "path", "points")):
            assert is_simplicial_poset(P), name
        if not name.startswith("random"):
            assert is_lower_eulerian(P), name
