from math import comb

import pytest

from poset_oracle import toric_h_penultimate_alternating
from posetlab import hvectors
from posetlab.errors import InexactDivisionError, NotCubicalError, NotSimplicialError
from posetlab.generators import (
    boolean_lattice,
    cube_face_lattice,
    cubical_complex_poset,
    face_poset_of_complex,
    full_simplex_complex,
    points_complex,
    simplex_boundary_complex,
    simplicial_poset_glue,
)
from posetlab.hvectors import (
    cubical_h,
    cubical_h_penultimate_direct,
    hetyei_decomposition_check,
    short_cubical_h,
    simplicial_h,
    toric_face_polynomials,
    toric_h,
    toric_h_penultimate_direct,
)
from posetlab.poset import rank_alternating_sum, rank_profile, reduced_euler_char


def triangle_poset():
    return face_poset_of_complex(simplex_boundary_complex(2))


def cycle4():
    return cubical_complex_poset("cycle", 4)


# -- coefficient rows -----------------------------------------------------------


@pytest.mark.parametrize("k", [*range(7), 40])
def test_binomial_rows(k):
    """(1-q)^k and (q-1)^k against math.comb; comb(40, 20) is past 64 bits."""
    signed = tuple((-1) ** i * comb(k, i) for i in range(k + 1))
    assert hvectors._expand([(1, 0, k)], k + 1) == signed
    assert hvectors._q_minus_one(k) == tuple((-1) ** k * c for c in signed)


def test_cubical_h_times_one_plus_q_is_the_dividend():
    """Multiplying the quotient back by 1+q gives the dividend
    2^(d-1) + q h^sc(q) + (-2)^(d-1) chi~ q^(d+1) the division started from."""
    for P in (cycle4(), cube_face_lattice(2), cubical_complex_poset("cube-boundary", 4)):
        h = cubical_h(P).entries
        d = len(h) - 1
        dividend = (2 ** (d - 1), *short_cubical_h(P).entries, (-2) ** (d - 1) * rank_alternating_sum(P))
        assert tuple(a + b for a, b in zip(h + (0,), (0,) + h)) == dividend


def test_cubical_h_raises_on_a_corrupted_euler_characteristic(monkeypatch):
    chi = rank_alternating_sum
    monkeypatch.setattr(hvectors, "rank_alternating_sum", lambda P: chi(P) + 1)
    with pytest.raises(InexactDivisionError):
        cubical_h(cycle4())


# -- simplicial ----------------------------------------------------------------


def test_simplicial_h_of_triangle_boundary():
    assert simplicial_h(triangle_poset()).entries == (1, 1, 1)


def test_simplicial_h_of_full_simplex_is_unit():
    for n in (1, 2, 3):
        P = face_poset_of_complex(full_simplex_complex(n))
        entries = simplicial_h(P).entries
        assert entries == (1,) + (0,) * (n + 1)


def test_simplicial_h_of_single_point():
    P = face_poset_of_complex(points_complex(1))
    assert simplicial_h(P).entries == (1, 0)


def test_simplicial_h_rejects_cubical_poset():
    with pytest.raises(NotSimplicialError):
        simplicial_h(cubical_complex_poset("cube-boundary", 3))


# -- toric ---------------------------------------------------------------------


def test_toric_polynomials_for_atoms_and_edges():
    c4 = cycle4()
    polys = toric_face_polynomials(c4)
    f_atom, g_atom = polys["v0"]
    assert (f_atom, g_atom) == ((1,), (1,))
    f_edge, g_edge = polys["v0|v1"]
    assert f_edge == (1, 1)  # q + 1
    assert g_edge == (1,)


def test_toric_polynomials_palindromic_on_eulerian_lattices():
    for P in (boolean_lattice(4), cube_face_lattice(3)):
        polys = toric_face_polynomials(P)
        ranks = rank_profile(P).ranks
        for y, (f, _) in polys.items():
            if y == P.minimum():
                continue
            assert len(f) <= ranks[y]
            coeffs = f + (0,) * (ranks[y] - len(f))
            assert coeffs == coeffs[::-1]


def test_toric_h_of_cycle():
    report = toric_h(cycle4())
    assert report.entries == (1, 2, 1)


def test_toric_h_of_square_lattice():
    assert toric_h(cube_face_lattice(2)).entries == (1, 1, 0, 0)


def test_toric_equals_simplicial_on_simplicial_posets():
    for P in (
        triangle_poset(),
        boolean_lattice(3),
        face_poset_of_complex(simplex_boundary_complex(3)),
        simplicial_poset_glue("two-facets-shared-boundary", 2),
    ):
        assert toric_h(P).entries == simplicial_h(P).entries


def test_toric_low_and_top_coefficients():
    for P in (cycle4(), boolean_lattice(3), cube_face_lattice(2), triangle_poset()):
        entries = toric_h(P).entries
        d = rank_profile(P).top_rank
        f0 = len(P.atoms())
        assert entries[0] == 1
        assert entries[1] == f0 - d
        assert entries[d] == (-1) ** ((d - 1) % 2) * reduced_euler_char(P)


def test_toric_penultimate_direct_values():
    assert toric_h_penultimate_direct(cycle4()) == 2
    assert toric_h_penultimate_direct(triangle_poset()) == 1
    assert toric_h_penultimate_direct(boolean_lattice(2)) == 0


def test_toric_penultimate_alternating_matches_pipeline():
    for P in (cycle4(), triangle_poset(), cubical_complex_poset("cube-boundary", 3)):
        d = rank_profile(P).top_rank
        assert toric_h_penultimate_alternating(P) == toric_h(P).entries[d - 1]


def test_toric_h_on_plain_lower_eulerian_poset():
    # Lower Eulerian but neither simplicial, cubical, nor a meet-semilattice:
    # the recursion must still run and produce the flag-count answer.
    from test_poset import digon_pair_lattice

    digon = digon_pair_lattice()
    assert toric_h(digon).entries == (1, 1, 0, 0)


def test_glued_spheres_have_sphere_h_vector():
    for n in (1, 2, 3):
        P = simplicial_poset_glue("two-facets-shared-boundary", n)
        entries = simplicial_h(P).entries
        assert entries == (1,) + (0,) * n + (1,)


# -- cubical -------------------------------------------------------------------


def test_short_and_full_cubical_h_of_cycle():
    assert short_cubical_h(cycle4()).entries == (4, 4)
    assert cubical_h(cycle4()).entries == (2, 2, 2)


def test_cubical_h_of_single_square():
    P = cube_face_lattice(2)
    assert short_cubical_h(P).entries == (4, 0, 0)
    entries = cubical_h(P).entries
    assert entries == (4, 0, 0, 0)
    assert entries[3] == 0  # (-2)^(d-1) chi with chi = 0


def test_cubical_h_rejects_simplicial_input():
    with pytest.raises(NotCubicalError):
        cubical_h(face_poset_of_complex(simplex_boundary_complex(3)))


def test_cubical_top_coefficient_identity():
    for P in (
        cycle4(),
        cube_face_lattice(2),
        cubical_complex_poset("cube-boundary", 3),
        cubical_complex_poset("grid", 2, 2),
    ):
        d = rank_profile(P).top_rank
        chi = rank_alternating_sum(P)
        assert cubical_h(P).entries[d] == (-2) ** (d - 1) * chi


def test_cubical_penultimate_direct_small_ranks():
    assert cubical_h_penultimate_direct(cycle4()) == 4 - 2  # f_0 - 2 at rank 2
    # rank 3: 2 f_1 - 3 f_0 + 4
    sq = cube_face_lattice(2)
    assert cubical_h_penultimate_direct(sq) == 2 * 4 - 3 * 4 + 4
    cube = cubical_complex_poset("cube-boundary", 3)
    assert cubical_h_penultimate_direct(cube) == 2 * 12 - 3 * 8 + 4
    # rank 4: 4 f_2 - 6 f_1 + 7 f_0 - 8
    four = cubical_complex_poset("cube-boundary", 4)
    assert cubical_h_penultimate_direct(four) == 4 * 24 - 6 * 32 + 7 * 16 - 8


def test_penultimate_links_short_and_full_cubical():
    for P in (
        cycle4(),
        cube_face_lattice(2),
        cubical_complex_poset("cube-boundary", 3),
        cubical_complex_poset("grid", 1, 2),
    ):
        d = rank_profile(P).top_rank
        chi = rank_alternating_sum(P)
        hc = cubical_h(P).entries
        hsc = short_cubical_h(P).entries
        assert hc[d - 1] == hsc[d - 1] - (-2) ** (d - 1) * chi


def test_short_cubical_penultimate_from_atom_upsets():
    for P in (cycle4(), cubical_complex_poset("cube-boundary", 3)):
        d = rank_profile(P).top_rank
        hsc = short_cubical_h(P).entries
        total = sum(
            (-1) ** (d % 2) * reduced_euler_char(P.upset(x)) for x in P.atoms()
        )
        assert hsc[d - 1] == total


def test_hetyei_decomposition():
    ok, residual = hetyei_decomposition_check(cycle4())
    assert ok and residual == (0, 0)
    segment = cube_face_lattice(1)
    ok, _ = hetyei_decomposition_check(segment)
    assert ok
    assert short_cubical_h(segment).entries == (2, 0)
    ok, residual = hetyei_decomposition_check(cubical_complex_poset("cube-boundary", 3))
    assert ok and residual == (0, 0, 0)


def test_hetyei_upsets_of_cycle():
    c4 = cycle4()
    for x in c4.atoms():
        assert simplicial_h(c4.upset(x)).entries == (1, 1)
