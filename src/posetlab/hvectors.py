"""Simplicial, toric, short-cubical and cubical h-vectors.

All pipelines run on exact integer polynomials; the alternating-sign
expansions of (q-1)^k cancel exactly or not at all, so any arithmetic slip
surfaces as a hard failure instead of a wrong number.  The toric recursion
runs one rank at a time on coefficient matrices, in int64 while a bound on
the coefficients allows it and on Python integers beyond that bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotCubicalError,
    NotLowerGradedError,
    NotSimplicialError,
    PosetLabError,
    UpsetNotSimplicialError,
)
from .intpoly import ONE_MINUS_Q, ONE_PLUS_Q, Q, Q_MINUS_ONE, IntPolynomial
from .poset import (
    _INT64_GUARD,
    FinitePoset,
    atoms_below,
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
    source: str = ""

    def to_dict(self):
        return {"kind": self.kind, "rank": self.rank, "entries": list(self.entries)}


def _graded_rank(P):
    graded, d = is_graded(P)
    if not graded:
        raise NotLowerGradedError(f"poset {P.name!r} is not graded")
    return d


def _rank_counts(P):
    return rank_profile(P).rank_counts()


# -- simplicial ---------------------------------------------------------------


def simplicial_h_polynomial(P: FinitePoset) -> IntPolynomial:
    if not is_simplicial_poset(P):
        raise NotSimplicialError(f"poset {P.name!r} is not simplicial")
    d = _graded_rank(P)
    counts = _rank_counts(P)
    poly = IntPolynomial()
    for i, c in enumerate(counts):
        poly = poly + c * Q**i * ONE_MINUS_Q ** (d - i)
    return poly


def simplicial_h(P: FinitePoset) -> HVectorReport:
    """Entries h_0..h_d of the simplicial h-vector of a simplicial poset."""
    poly = simplicial_h_polynomial(P)
    d = _graded_rank(P)
    return HVectorReport("simplicial", poly.padded(d + 1), d, P.name)


# -- toric --------------------------------------------------------------------


def _require_lower_eulerian(P):
    verdict = is_lower_eulerian(P)
    if not verdict:
        raise NotLowerGradedError(
            f"poset {P.name!r} is not lower Eulerian ({verdict.reason})"
        )


def _grouped_sum(terms, powers):
    """The sum of IntPolynomial(coeffs) * powers[r] over the (r, coeffs)
    terms.  Coefficients are added per r first, so each r costs one product."""
    sums = {}
    for r, coeffs in terms:
        acc = sums.setdefault(r, [])
        acc.extend([0] * (len(coeffs) - len(acc)))
        for t, c in enumerate(coeffs):
            acc[t] += c
    total = IntPolynomial()
    for r, acc in sums.items():
        total = total + IntPolynomial(acc) * powers[r]
    return total


def toric_face_polynomials(P: FinitePoset) -> dict:
    """The bottom-up pair of polynomials attached to every element.

    The pair for the minimum is (1, 1); above it, the first polynomial sums
    the second over the strict lower set weighted by (q-1)^(interval rank - 1),
    and the second truncates-and-differences the first halfway up its degree.
    With Z_k the elements of rank k and G_j the coefficient rows of the
    second polynomials on Z_j, the first polynomials on Z_k are
    F_k = sum over j < k of leq[Z_j, Z_k]^T G_j (q-1)^(k-j-1): one matrix
    product per pair of ranks.  The products run in int64 while a bound on
    their magnitudes stays under the guard `mobius` uses, and on Python ints
    (dtype=object) from the first rank where it does not.
    """
    _require_lower_eulerian(P)
    d = _graded_rank(P)
    els = P.elements
    m = P.index(P.minimum())
    profile = rank_profile(P)
    rank = profile.rho[m].tolist()
    order = sorted(range(len(P)), key=lambda i: (rank[i], els[i]))
    ends = np.cumsum(profile.rank_counts()).tolist()
    Z = [order[a:b] for a, b in zip([0] + ends, ends)]  # the elements of each rank
    powers = [(Q_MINUS_ONE**e).coeffs for e in range(d)]
    one = IntPolynomial.constant(1)
    out = {els[m]: (one, one)}
    G = [np.ones((1, 1), dtype=np.int64)]
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
        for z, f, g in zip(Z[k], F.tolist(), Gk.tolist()):
            out[els[z]] = (IntPolynomial(f), IntPolynomial(g))
    return out


def toric_h(P: FinitePoset) -> HVectorReport:
    """Generalized h-vector from the face-polynomial recursion.

    The defining sum produces h_d + h_{d-1} q + ... + h_0 q^d, so the entry
    order is reversed off the coefficient vector.
    """
    d = _graded_rank(P)
    polys = toric_face_polynomials(P)
    ranks = rank_profile(P).ranks
    powers = [Q_MINUS_ONE ** (d - r) for r in range(d + 1)]
    total = _grouped_sum(((ranks[y], g.coeffs) for y, (_, g) in polys.items()), powers)
    coeffs = total.padded(d + 1)
    return HVectorReport("toric", tuple(reversed(coeffs)), d, P.name)


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


def toric_h_penultimate_alternating(P: FinitePoset) -> int:
    """h_{d-1} as the signed sum of (atoms below y - d) over all elements.

    Needs only lower Eulerian; follows from the symmetry of the face
    polynomials.
    """
    _require_lower_eulerian(P)
    d = _graded_rank(P)
    ranks = rank_profile(P).ranks
    return sum(
        (-1) ** (d - ranks[y]) * (atoms_below(P, y) - d) for y in P.elements
    )


# -- cubical ------------------------------------------------------------------


def _require_cubical(P):
    if not is_cubical_poset(P):
        raise NotCubicalError(f"poset {P.name!r} is not cubical")


def short_cubical_h_polynomial(P: FinitePoset) -> IntPolynomial:
    _require_cubical(P)
    d = _graded_rank(P)
    if d < 1:
        raise PosetLabError("cubical h-vectors need rank at least 1")
    counts = _rank_counts(P)
    two_q = IntPolynomial((0, 2))
    poly = IntPolynomial()
    for i in range(d):
        poly = poly + counts[i + 1] * two_q**i * ONE_MINUS_Q ** (d - i - 1)
    return poly


def short_cubical_h(P: FinitePoset) -> HVectorReport:
    """Entries h^sc_0..h^sc_{d-1}; length d by construction."""
    poly = short_cubical_h_polynomial(P)
    d = _graded_rank(P)
    return HVectorReport("short-cubical", poly.padded(d), d, P.name)


def cubical_h(P: FinitePoset) -> HVectorReport:
    """Cubical h-vector via exact division by (1+q).

    The dividend is 2^(d-1) + q*h^sc(q) + (-2)^(d-1) chi~ q^(d+1); a nonzero
    remainder can only come from corrupted input and raises.
    """
    sc = short_cubical_h_polynomial(P)
    d = _graded_rank(P)
    chi = rank_alternating_sum(P)
    dividend = (
        IntPolynomial.constant(2 ** (d - 1))
        + Q * sc
        + IntPolynomial.monomial(d + 1, (-2) ** (d - 1) * chi)
    )
    quotient = dividend.divide_exact(ONE_PLUS_Q)
    return HVectorReport("cubical", quotient.padded(d + 1), d, P.name)


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
    """Short cubical h-polynomial against the sum of simplicial h-polynomials
    of the atom upsets; returns (matches, residual polynomial)."""
    sc = short_cubical_h_polynomial(P)
    total = IntPolynomial()
    for x in sorted(P.atoms()):
        up = P.upset(x)
        if not is_simplicial_poset(up):
            raise UpsetNotSimplicialError(x)
        total = total + simplicial_h_polynomial(up)
    residual = sc - total
    return residual.is_zero(), residual
