"""Simplicial, toric, short-cubical and cubical h-vectors.

Every h-vector is a tuple of Python ints, lowest power of q first.  The
alternating-sign expansions of (1-q)^k and (q-1)^k are closed-form binomial
rows, and the cubical h-vector divides by 1+q exactly or raises, so an
arithmetic slip surfaces as a hard failure instead of a wrong number.  The
toric recursion runs one rank at a time on coefficient matrices, in int64
while a bound on the coefficients allows it and on Python integers beyond
that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb

import numpy as np

from .errors import (
    InexactDivisionError,
    NotCubicalError,
    NotLowerGradedError,
    NotSimplicialError,
    PosetLabError,
    UpsetNotSimplicialError,
)
from .poset import (
    _INT64_GUARD,
    FinitePoset,
    is_cubical_poset,
    is_graded,
    is_lower_eulerian,
    is_simplicial_poset,
    rank_alternating_sum,
    rank_profile,
    reduced_euler_char,
)


@dataclass(frozen=True)
class HVectorReport:
    kind: str  # simplicial | toric | cubical | short-cubical
    entries: tuple
    rank: int

    def to_dict(self):
        return {"kind": self.kind, "rank": self.rank, "entries": list(self.entries)}


def _graded_rank(P):
    graded, d = is_graded(P)
    if not graded:
        raise NotLowerGradedError(f"poset {P.name!r} is not graded")
    return d


def _rank_counts(P):
    return rank_profile(P).rank_counts()


def _expand(terms, length):
    """Coefficients of q^0..q^(length-1) in the sum of c q^i (1-q)^e over
    the triples (c, i, e) of `terms`."""
    out = [0] * length
    for c, i, e in terms:
        for t in range(e + 1):
            out[i + t] += (-1) ** t * comb(e, t) * c
    return tuple(out)


def _q_minus_one(e):
    """Coefficients of (q-1)^e, lowest power first."""
    return tuple((-1) ** (e - t) * comb(e, t) for t in range(e + 1))


# -- simplicial ---------------------------------------------------------------


def simplicial_h(P: FinitePoset) -> HVectorReport:
    """Entries h_0..h_d of the simplicial h-vector of a simplicial poset:
    the coefficients of the sum of f_(i-1) q^i (1-q)^(d-i)."""
    if not is_simplicial_poset(P):
        raise NotSimplicialError(f"poset {P.name!r} is not simplicial")
    d = _graded_rank(P)
    terms = ((c, i, d - i) for i, c in enumerate(_rank_counts(P)))
    return HVectorReport("simplicial", _expand(terms, d + 1), d)


# -- toric --------------------------------------------------------------------


def _require_lower_eulerian(P):
    verdict = is_lower_eulerian(P)
    if not verdict:
        raise NotLowerGradedError(
            f"poset {P.name!r} is not lower Eulerian ({verdict.reason})"
        )


def _toric_levels(P, d):
    """(Z_k, F_k, G_k) for k = 0..d, on a lower Eulerian P graded of rank d:
    the elements of rank k, by name, and the coefficient rows of their first
    and second face polynomials.

    With G_j the rows on Z_j, F_k = sum over j < k of
    leq[Z_j, Z_k]^T G_j (q-1)^(k-j-1): one matrix product per pair of ranks.
    The products run in int64 while a bound on their magnitudes stays under
    the guard `mobius` uses, and on Python ints (dtype=object) from the first
    rank where it does not.
    """
    els = P.elements
    m = P.index(P.minimum())
    profile = rank_profile(P)
    rank = profile.rho[m].tolist()
    order = sorted(range(len(P)), key=lambda i: (rank[i], els[i]))
    ends = np.cumsum(profile.rank_counts()).tolist()
    Z = [order[a:b] for a, b in zip([0] + ends, ends)]  # the elements of each rank
    powers = [_q_minus_one(e) for e in range(d)]
    G = [np.ones((1, 1), dtype=np.int64)]
    yield Z[0], G[0], G[0]
    largest = [1]  # the largest |coefficient| in G[j]
    for k in range(1, d + 1):
        # |F_k| <= sum |Z_j| |G_j| 2^(k-j-1), and |G_k| <= 2 |F_k|.
        bound = 2 * sum(len(Z[j]) * largest[j] << (k - j - 1) for j in range(k))
        dtype = np.int64 if bound <= _INT64_GUARD else object
        F = np.zeros((len(Z[k]), k), dtype=dtype)
        for j in range(k):
            below = P.leq_matrix[np.ix_(Z[j], Z[k])].T @ G[j].astype(dtype)
            for c, b in enumerate(powers[k - j - 1]):
                F[:, c : c + below.shape[1]] += b * below
        Gk = np.diff(F[:, : (k - 1) // 2 + 1], axis=1, prepend=0)
        G.append(Gk)
        largest.append(int(np.abs(Gk).max()))
        yield Z[k], F, Gk


def toric_face_polynomials(P: FinitePoset) -> dict:
    """The bottom-up pair of polynomials attached to every element, as
    coefficient tuples, lowest power first, without trailing zeros.

    The pair for the minimum is (1, 1); above it, the first polynomial sums
    the second over the strict lower set weighted by (q-1)^(interval rank - 1),
    and the second truncates-and-differences the first halfway up its degree.
    They are computed one rank at a time (`_toric_levels`).
    """
    _require_lower_eulerian(P)
    els = P.elements
    return {
        els[z]: (tuple(np.trim_zeros(f, "b")), tuple(np.trim_zeros(g, "b")))
        for Z, F, G in _toric_levels(P, _graded_rank(P))
        for z, f, g in zip(Z, F.tolist(), G.tolist())
    }


def toric_h(P: FinitePoset) -> HVectorReport:
    """Generalized h-vector from the face-polynomial recursion.

    The defining sum of g_y (q-1)^(d - rank y) over the elements y produces
    h_d + h_{d-1} q + ... + h_0 q^d, so the entry order is reversed off the
    coefficient vector.  It is summed one rank k at a time: the column sums
    of G_k, in Python ints, times (q-1)^(d-k).
    """
    d = _graded_rank(P)
    _require_lower_eulerian(P)
    coeffs = [0] * (d + 1)
    for k, (_, _, G) in enumerate(_toric_levels(P, d)):
        g = G.sum(axis=0, dtype=object).tolist()
        for c, b in enumerate(_q_minus_one(d - k)):
            for t, a in enumerate(g):
                coeffs[c + t] += a * b
    return HVectorReport("toric", tuple(reversed(coeffs)), d)


def toric_h_penultimate_direct(P: FinitePoset) -> int:
    """h_{d-1} via atom upsets: sum of |chi~| over atom upsets minus d |chi~(P)|.

    Valid for Cohen-Macaulay meet-semilattices; asserted against the
    polynomial pipeline.
    """
    d = _graded_rank(P)
    if d < 1:
        raise PosetLabError("needs rank at least 1")
    value = sum(
        abs(reduced_euler_char(P.upset(x))) for x in P.atoms()
    ) - d * abs(reduced_euler_char(P))
    pipeline = toric_h(P).entries[d - 1]
    if value != pipeline:
        raise PosetLabError(
            f"direct penultimate toric value {value} != pipeline {pipeline}"
        )
    return value


# -- cubical ------------------------------------------------------------------


def _require_cubical(P):
    if not is_cubical_poset(P):
        raise NotCubicalError(f"poset {P.name!r} is not cubical")


def short_cubical_h(P: FinitePoset) -> HVectorReport:
    """Entries h^sc_0..h^sc_{d-1}, the coefficients of the sum of
    f_(i-1) (2q)^i (1-q)^(d-i-1) over i < d; length d by construction."""
    _require_cubical(P)
    d = _graded_rank(P)
    if d < 1:
        raise PosetLabError("cubical h-vectors need rank at least 1")
    counts = _rank_counts(P)
    terms = ((counts[i + 1] << i, i, d - i - 1) for i in range(d))
    return HVectorReport("short-cubical", _expand(terms, d), d)


def cubical_h(P: FinitePoset) -> HVectorReport:
    """Cubical h-vector via exact division by (1+q).

    The dividend is 2^(d-1) + q*h^sc(q) + (-2)^(d-1) chi~ q^(d+1); it is
    divided from the top down, and a nonzero remainder can only come from
    corrupted input and raises.
    """
    sc = short_cubical_h(P)
    d = sc.rank
    rem = [2 ** (d - 1), *sc.entries, (-2) ** (d - 1) * rank_alternating_sum(P)]
    for i in range(d + 1, 0, -1):
        rem[i - 1] -= rem[i]  # rem[i] is now the coefficient of q^(i-1)
    if rem[0]:
        raise InexactDivisionError(f"cubical dividend of {P.name!r} leaves remainder {rem[0]} mod 1+q")
    return HVectorReport("cubical", tuple(rem[1:]), d)


def cubical_h_penultimate_direct(P: FinitePoset) -> int:
    """h^c_{d-1} by the closed-form signed face-count formula; asserted
    against the division pipeline."""
    _require_cubical(P)
    d = _graded_rank(P)
    if d < 2:
        raise PosetLabError("needs rank at least 2")
    counts = _rank_counts(P)
    value = (-2) ** (d - 1) + sum(
        (-1) ** ((d - i - 1) % 2) * (2 ** (d - 1) - 2 ** (i - 1)) * counts[i]
        for i in range(1, d + 1)
    )
    pipeline = cubical_h(P).entries[d - 1]
    if value != pipeline:
        raise PosetLabError(
            f"direct penultimate cubical value {value} != pipeline {pipeline}"
        )
    return value


def hetyei_decomposition_check(P: FinitePoset):
    """Short cubical h-vector against the sum of the simplicial h-vectors of
    the atom upsets; returns (matches, residual coefficients), the residual
    padded to the longest of them."""
    sc = short_cubical_h(P).entries
    ups = []
    for x in sorted(P.atoms()):
        up = P.upset(x)
        if not is_simplicial_poset(up):
            raise UpsetNotSimplicialError(x)
        ups.append(simplicial_h(up).entries)
    residual = tuple(c - sum(col) for c, *col in zip_longest(sc, *ups, fillvalue=0))
    return not any(residual), residual
