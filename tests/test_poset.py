from itertools import combinations

import numpy as np
import pytest

from conftest import brute_force_reduced_euler
from posetlab.complexes import order_complex
from posetlab.errors import (
    CycleDetectedError,
    DuplicateCoverError,
    DuplicateElementError,
    EmptyPosetError,
    NoMinimumError,
    NotLocallyGradedError,
    RankCollapseError,
    RedundantCoverError,
    UnknownElementError,
)
from posetlab.generators import (
    boolean_lattice,
    cube_face_lattice,
    cubical_complex_poset,
    face_poset_of_complex,
    simplex_boundary_complex,
    simplicial_poset_glue,
)
from posetlab.poset import (
    FinitePoset,
    atoms_below,
    build_from_covers,
    is_graded,
    is_lower_eulerian,
    min_atoms_below,
    mobius,
    mobius_from,
    poset_from_dict,
    poset_to_dict,
    posets_isomorphic,
    rank_alternating_sum,
    rank_profile,
    reduced_euler_char,
    structural_predicates,
)


def subsets_poset_oracle(n):
    """Boolean lattice by explicit subset inclusion, no cover machinery."""
    subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
    leq = {(a, b): a <= b for a in subsets for b in subsets}
    return subsets, leq


# -- construction -------------------------------------------------------------


def test_singleton():
    P = build_from_covers(["a"], [])
    assert len(P) == 1
    assert P.minimum() == "a"
    assert P.maximal_elements() == ("a",)


def test_redundant_cover_rejected_with_witness():
    with pytest.raises(RedundantCoverError) as err:
        build_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert err.value.lower == "a"
    assert err.value.upper == "c"
    assert err.value.witness == "b"


def test_boolean_lattice_matches_subset_inclusion_oracle():
    B3 = boolean_lattice(3)
    assert len(B3) == 8
    subsets, oracle = subsets_poset_oracle(3)

    def name(s):
        return "".join(str(i + 1) for i in sorted(s)) or "e"

    for a in subsets:
        for b in subsets:
            assert B3.leq(name(a), name(b)) == oracle[(a, b)]


def test_construction_errors():
    with pytest.raises(EmptyPosetError):
        build_from_covers([], [])
    with pytest.raises(DuplicateElementError):
        build_from_covers(["a", "a"], [])
    with pytest.raises(UnknownElementError):
        build_from_covers(["a"], [("a", "z")])
    with pytest.raises(DuplicateCoverError):
        build_from_covers(["a", "b"], [("a", "b"), ("a", "b")])
    with pytest.raises(CycleDetectedError):
        build_from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetectedError):
        build_from_covers(["a"], [("a", "a")])


# -- rank structure -----------------------------------------------------------


def test_chain_ranks():
    chain = build_from_covers(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    prof = rank_profile(chain)
    assert prof.ranks == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert prof.top_rank == 3


def test_not_locally_graded_witness():
    P = build_from_covers(
        ["0", "a", "b", "c", "d"],
        [("0", "a"), ("a", "c"), ("0", "b"), ("b", "d"), ("d", "c")],
    )
    with pytest.raises(NotLocallyGradedError) as err:
        rank_profile(P)
    assert (err.value.lower, err.value.upper) == ("0", "c")
    assert set(err.value.lengths) == {2, 3}


def test_square_face_lattice_rank_via_chain_enumeration():
    sq = cube_face_lattice(2)
    prof = rank_profile(sq)
    assert prof.top_rank == 3
    # Oracle: longest chain found by brute-force DFS over the order relation.
    els = sq.elements
    best = 0
    stack = [[e] for e in els]
    while stack:
        chain = stack.pop()
        best = max(best, len(chain) - 1)
        for e in els:
            if sq.lt(chain[-1], e):
                stack.append(chain + [e])
    assert best == 3


def test_interval_rank_strictly_increases_on_covers():
    P = boolean_lattice(4)
    prof = rank_profile(P)
    ranks = prof.ranks
    for a, b in P.covers:
        assert ranks[b] == ranks[a] + 1


# -- Möbius function ----------------------------------------------------------


def test_mobius_singleton():
    P = build_from_covers(["a"], [])
    assert mobius(P).mu("a", "a") == 1


def test_mobius_boolean_3():
    B3 = boolean_lattice(3)
    table = mobius(B3)
    assert table.mu("e", "123") == -1
    # Subset-rank parity holds everywhere in a Boolean lattice.
    for (x, y), value in table.items():
        k = len(y.replace("e", "")) - len(x.replace("e", ""))
        assert value == (-1) ** k


def test_mobius_square_lattice():
    sq = cube_face_lattice(2)
    assert mobius(sq).mu("e", "xx") == -1


def test_mobius_rejects_incomparable_pair():
    from posetlab.errors import NotComparableError

    B2 = boolean_lattice(2)
    with pytest.raises(NotComparableError):
        mobius(B2).mu("1", "2")
    with pytest.raises(NotComparableError):
        B2.interval("1", "2")


def test_mobius_recursion_sums_to_zero():
    for P in (boolean_lattice(3), cube_face_lattice(2), cubical_complex_poset("cycle", 5)):
        table = mobius(P)
        leq = P.leq_matrix
        for x in P.elements:
            ix = P.index(x)
            for y in P.elements:
                iy = P.index(y)
                if x == y or not leq[ix, iy]:
                    continue
                total = sum(
                    table.mu(x, z)
                    for z in P.elements
                    if leq[ix, P.index(z)] and leq[P.index(z), iy]
                )
                assert total == 0


def test_mobius_equals_brute_force_chain_count():
    # Alternating chain count of the open interval, from the raw definition.
    for P in (boolean_lattice(4), cubical_complex_poset("cycle", 4)):
        table = mobius(P)
        for x in P.elements:
            for y in P.elements:
                if not P.lt(x, y):
                    continue
                between = P.open_interval_elements(x, y)
                expected = brute_force_reduced_euler(between, P.lt)
                assert table.mu(x, y) == expected


# -- Eulerian classification ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_boolean_lattices_lower_eulerian(n):
    assert is_lower_eulerian(boolean_lattice(n))


def test_cycle_poset_lower_eulerian():
    assert is_lower_eulerian(cubical_complex_poset("cycle", 4))


def test_three_atoms_one_top_is_not_eulerian():
    P = build_from_covers(
        ["0", "a", "b", "c", "d"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "d"), ("b", "d"), ("c", "d")],
    )
    verdict = is_lower_eulerian(P)
    assert not verdict
    assert verdict.witness == ("0", "d")


def test_no_minimum_is_not_lower_eulerian():
    P = build_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
    verdict = is_lower_eulerian(P)
    assert not verdict
    assert "minimum" in verdict.reason


# -- derived posets -----------------------------------------------------------


def test_attach_max_on_antichain():
    P = build_from_covers(["a", "b"], [])
    hat = P.attach_max()
    assert len(hat) == 3
    assert len(hat.maximal_elements()) == 1
    top = hat.maximal_elements()[0]
    assert hat.lt("a", top) and hat.lt("b", top)


def test_remove_min_of_diamond():
    B2 = boolean_lattice(2)
    bar = B2.remove_min()
    assert len(bar) == 3
    assert set(bar.minimal_elements()) == {"1", "2"}
    assert bar.maximal_elements() == ("12",)


def test_remove_min_requires_minimum():
    P = build_from_covers(["a", "b"], [])
    with pytest.raises(NoMinimumError):
        P.remove_min()
    with pytest.raises(EmptyPosetError):
        build_from_covers(["a"], []).remove_min()


def test_atoms_and_maximals():
    B3 = boolean_lattice(3)
    assert len(B3.atoms()) == 3
    assert len(B3.maximal_elements()) == 1
    c4 = cubical_complex_poset("cycle", 4)
    assert len(c4.atoms()) == 4
    assert len(c4.maximal_elements()) == 4


def test_upset_of_cycle_vertex():
    c4 = cubical_complex_poset("cycle", 4)
    up = c4.upset("v0")
    assert len(up) == 3
    assert up.minimum() == "v0"
    assert len(up.maximal_elements()) == 2


def test_atom_counts():
    c4 = cubical_complex_poset("cycle", 4)
    assert min_atoms_below(c4) == 2  # 2^(d-1) with d = 2
    assert all(atoms_below(c4, y) == 2 for y in c4.maximal_elements())
    assert min_atoms_below(boolean_lattice(3)) == 3
    tri = face_poset_of_complex(simplex_boundary_complex(2))
    assert all(atoms_below(tri, y) == 2 for y in tri.maximal_elements())
    assert min_atoms_below(tri) == 2


def test_remove_maximal_and_atoms():
    B3 = boolean_lattice(3)
    Q = B3.remove_maximal()
    assert rank_profile(Q).top_rank == 2
    sq = cube_face_lattice(2)
    stripped = sq.remove_atoms()
    assert mobius_from(stripped, "e")["xx"] == 3  # (-1)^(d-1) (f_0 - 1)
    c4 = cubical_complex_poset("cycle", 4)
    Qc = c4.remove_maximal()
    assert len(Qc) == 5
    assert set(Qc.maximal_elements()) == {"v0", "v1", "v2", "v3"}


def test_remove_maximal_collapse():
    with pytest.raises(RankCollapseError):
        build_from_covers(["a"], []).remove_maximal()


def test_rank_alternating_sum_and_euler_char():
    tri = face_poset_of_complex(simplex_boundary_complex(2))
    assert rank_alternating_sum(tri) == -1
    assert reduced_euler_char(tri) == -1
    assert rank_alternating_sum(boolean_lattice(1)) == 0
    c4 = cubical_complex_poset("cycle", 4)
    assert rank_alternating_sum(c4) == -1
    assert reduced_euler_char(c4) == -1


# -- interval poset -----------------------------------------------------------


def test_interval_poset_singleton():
    P = build_from_covers(["a"], [])
    assert len(P.interval_poset()) == 1


def test_interval_poset_of_two_chain():
    P = build_from_covers(["x", "y"], [("x", "y")])
    Int = P.interval_poset()
    assert len(Int) == 3
    assert sorted(Int.covers) == [("[x::x]", "[x::y]"), ("[y::y]", "[x::y]")]


def test_interval_poset_mobius_product_law():
    for P in (boolean_lattice(3), cubical_complex_poset("cycle", 4)):
        Int = P.interval_poset()
        table = mobius(P)
        int_table = mobius(Int)
        for x in P.elements:
            for y in P.elements:
                if not P.leq(x, y):
                    continue
                for a in P.elements:
                    for b in P.elements:
                        if not (P.leq(a, x) and P.leq(y, b)):
                            continue
                        lhs = int_table.mu(f"[{x}::{y}]", f"[{a}::{b}]")
                        assert lhs == table.mu(a, x) * table.mu(y, b)


def test_min_attached_interval_poset_is_lower_eulerian():
    bar = boolean_lattice(2).remove_min()
    assert is_lower_eulerian(bar.interval_poset().attach_min())


# -- structural predicates ------------------------------------------------------


def test_boolean_4_predicates():
    preds = structural_predicates(boolean_lattice(4))
    assert preds.is_simplicial and preds.is_meet_semilattice and preds.is_graded


def test_cycle_poset_is_cubical_meet_semilattice():
    preds = structural_predicates(cubical_complex_poset("cycle", 4))
    assert preds.is_cubical and preds.is_meet_semilattice


def test_glued_simplicial_poset_is_not_meet_semilattice():
    glued = simplicial_poset_glue("two-facets-shared-boundary", 2)
    preds = structural_predicates(glued)
    assert preds.is_simplicial
    assert not preds.is_meet_semilattice
    assert not preds.is_cubical


def test_cube_lattices_are_cubical():
    for n in (1, 2, 3):
        assert structural_predicates(cube_face_lattice(n)).is_cubical


def test_graded_detection():
    assert is_graded(boolean_lattice(3)) == (True, 3)
    P = build_from_covers(["0", "a", "b", "c"], [("0", "a"), ("0", "b"), ("b", "c")])
    assert is_graded(P)[0] is False


# -- duality & isomorphism -----------------------------------------------------


def test_double_dual_is_identity():
    for P in (boolean_lattice(3), cubical_complex_poset("cycle", 5)):
        assert P.dual().dual() == P


def test_atoms_match_dual_coatoms():
    B3 = boolean_lattice(3)
    dual = B3.dual()
    top_of_dual = dual.minimum()  # the old maximum
    assert top_of_dual == "123"
    coatoms_in_dual = set(dual.atoms())
    covers_of_top = {a for a, b in B3.covers if b == "123"}
    assert coatoms_in_dual == covers_of_top


def test_order_complex_is_dual_invariant():
    for P in (boolean_lattice(3), cubical_complex_poset("cycle", 4)):
        assert order_complex(P) == order_complex(P.dual())


def digon_pair_lattice():
    # Same rank and cover-degree profile as the square face lattice, but the
    # vertex-edge incidences form two doubled edges instead of a 4-cycle.
    return build_from_covers(
        ["0", "v1", "v2", "v3", "v4", "e1", "e2", "e3", "e4", "T"],
        [("0", "v1"), ("0", "v2"), ("0", "v3"), ("0", "v4"),
         ("v1", "e1"), ("v2", "e1"), ("v1", "e2"), ("v2", "e2"),
         ("v3", "e3"), ("v4", "e3"), ("v3", "e4"), ("v4", "e4"),
         ("e1", "T"), ("e2", "T"), ("e3", "T"), ("e4", "T")],
        name="digons",
    )


def test_refinement_resistant_impostor_is_not_cubical():
    digon = digon_pair_lattice()
    assert is_lower_eulerian(digon)
    assert not posets_isomorphic(digon, cube_face_lattice(2))
    preds = structural_predicates(digon)
    assert not preds.is_cubical
    assert not preds.is_simplicial
    assert not preds.is_meet_semilattice  # two edges share both endpoints


def test_fresh_ids_avoid_collisions():
    P = build_from_covers(["1^", "0^"], [("0^", "1^")])
    hat = P.attach_max()
    assert len(hat) == 3
    assert len(set(hat.elements)) == 3
    both = hat.attach_min()
    assert len(set(both.elements)) == 4


def test_interval_poset_label_fallback():
    P = build_from_covers(["a::b", "c"], [("a::b", "c")])
    Int = P.interval_poset()
    assert len(Int) == 3
    assert len(set(Int.elements)) == 3


def test_exact_mobius_row_matches_fast_path(monkeypatch):
    from posetlab import poset as poset_module
    from posetlab.poset import _mobius_row_exact

    P = cube_face_lattice(2)
    table = mobius(P)._values
    assert table.dtype == np.int64
    for i in range(len(P)):
        assert list(table[i]) == list(_mobius_row_exact(P, i))
    # A guard of 0 sends every table through the exact fallback.
    monkeypatch.setattr(poset_module, "_INT64_GUARD", 0)
    fresh = cube_face_lattice(2)
    exact = mobius(fresh)._values
    assert exact.dtype == object
    assert exact.tolist() == table.tolist()
    assert is_lower_eulerian(fresh)


def test_strict_upset():
    c4 = cubical_complex_poset("cycle", 4)
    up = c4.upset("v0", strict=True)
    assert len(up) == 2
    assert set(up.elements) == {"v0|v1", "v0|v3"}


def test_posets_isomorphic():
    B3 = boolean_lattice(3)
    relabeled = FinitePoset.from_covers(
        [e.replace("1", "x").replace("2", "y").replace("3", "z") for e in B3.elements],
        [
            (a.replace("1", "x").replace("2", "y").replace("3", "z"),
             b.replace("1", "x").replace("2", "y").replace("3", "z"))
            for a, b in B3.covers
        ],
    )
    assert posets_isomorphic(B3, relabeled)
    chain8 = build_from_covers(
        [str(i) for i in range(8)], [(str(i), str(i + 1)) for i in range(7)]
    )
    assert not posets_isomorphic(B3, chain8)
    assert not posets_isomorphic(B3, boolean_lattice(2))


# -- serialization ---------------------------------------------------------------


def test_json_roundtrip_and_sorted_covers():
    P = cubical_complex_poset("grid", 2, 2)
    data = poset_to_dict(P)
    assert data["covers"] == sorted(data["covers"])
    Q = poset_from_dict(data)
    assert Q == P
    assert Q.name == P.name
