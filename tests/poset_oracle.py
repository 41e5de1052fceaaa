"""The poset layer as the package computed it before the down-set bitsets:
the boolean matrix product for covers, ranks and Möbius values one cover or one row at a
time, the meet test on every pair, Boolean intervals by atom supports, cube
intervals by isomorphism with a template cube lattice, and the toric
recursion one pair at a time.  Kept as the reference the fast paths are
checked against; small inputs, except in the `large` tier.
"""

from itertools import combinations

import numpy as np

from posetlab.errors import NotLocallyGradedError
from posetlab.generators import cube_face_lattice
from posetlab.hvectors import _graded_rank
from posetlab.intpoly import Q_MINUS_ONE, IntPolynomial
from posetlab.poset import (
    FinitePoset,
    _toposort,
    is_graded,
    posets_isomorphic,
)

_NO_CHAIN = -1


def from_leq(elements, leq, name="poset"):
    """`FinitePoset._from_leq` with the boolean matrix product."""
    n = len(elements)
    lt = leq & ~np.eye(n, dtype=bool)
    child = lt & ~np.matmul(lt, lt)
    covers = tuple(sorted((elements[i], elements[j]) for i, j in zip(*np.nonzero(child))))
    parents = [[] for _ in range(n)]
    children = [[] for _ in range(n)]
    for i, j in zip(*np.nonzero(child)):
        parents[i].append(int(j))
        children[j].append(int(i))
    topo = _toposort(n, parents, children, elements)
    return FinitePoset(elements, leq.copy(), covers, topo, name=name)


def rank_matrix(P):
    """rho[i, j] as `rank_profile` gives it, one cover at a time; raises
    NotLocallyGradedError with the same witness."""
    n = len(P)
    leq = P.leq_matrix
    children = [[] for _ in range(n)]
    for a, b in P.covers:
        children[P.index(b)].append(P.index(a))
    longest = np.full((n, n), _NO_CHAIN, dtype=np.int32)
    shortest = np.full((n, n), n + 1, dtype=np.int32)
    np.fill_diagonal(longest, 0)
    np.fill_diagonal(shortest, 0)
    for j in P._topo:
        for z in children[j]:
            lz = longest[:, z]
            np.maximum(longest[:, j], np.where(lz >= 0, lz + 1, _NO_CHAIN), out=longest[:, j])
            np.minimum(shortest[:, j], shortest[:, z] + 1, out=shortest[:, j])
    bad = leq & (longest != np.where(shortest <= n, shortest, _NO_CHAIN))
    if bad.any():
        pairs = np.argwhere(bad)
        i, j = min(pairs, key=lambda ij: (P.elements[ij[0]], P.elements[ij[1]]))
        raise NotLocallyGradedError(
            P.elements[i], P.elements[j], (int(shortest[i, j]), int(longest[i, j]))
        )
    return np.where(leq, longest, _NO_CHAIN)


def mobius_row(P, i):
    """Möbius values mu(i, j) for all j, walking the whole topological order."""
    n = len(P)
    leq = P.leq_matrix
    mu = [0] * n
    mu[i] = 1
    up = leq[i]
    for j in P._topo:
        if j == i or not up[j]:
            continue
        below = up & leq[:, j]
        below[j] = False
        mu[j] = -sum(mu[z] for z in np.flatnonzero(below))
    return mu


def lower_eulerian(P):
    """(ok, witness) of `is_lower_eulerian`, one row at a time in element-name
    order; the witness is the first row's first offender by name."""
    if not P.has_minimum:
        return False, None
    try:
        rho = rank_matrix(P)
    except NotLocallyGradedError as exc:
        return False, (exc.lower, exc.upper)
    leq = P.leq_matrix
    for i in sorted(range(len(P)), key=lambda k: P.elements[k]):
        row = mobius_row(P, i)
        offenders = sorted(
            P.elements[j]
            for j in np.flatnonzero(leq[i])
            if row[j] != (1 if rho[i, j] % 2 == 0 else -1)
        )
        if offenders:
            return False, (P.elements[i], offenders[0])
    return True, None


def is_meet_semilattice(P):
    n = len(P)
    leq = P.leq_matrix
    signatures = {leq[:, i].tobytes() for i in range(n)}
    for i, j in combinations(range(n), 2):
        if leq[i, j] or leq[j, i]:
            continue
        if (leq[:, i] & leq[:, j]).tobytes() not in signatures:
            return False
    return True


def _boolean_interval(P, rho, x):
    im, ix = P.index(P.minimum()), P.index(x)
    k = rho[im, ix]
    leq = P.leq_matrix
    members = np.flatnonzero(leq[im] & leq[:, ix])
    if len(members) != 2**k:
        return False
    atom_ids = [i for i in members if rho[im, i] == 1]
    if len(atom_ids) != k:
        return False
    support = {}
    for z in members:
        sig = frozenset(a for a in atom_ids if leq[a, z])
        if sig in support.values():
            return False
        support[z] = sig
    return all(leq[z, w] == (support[z] <= support[w]) for z in members for w in members)


def _cube_interval(P, rho, x, templates):
    m = P.minimum()
    k = rho[P.index(m), P.index(x)]
    if k == 0:
        return True
    interval = P.interval(m, x)
    if k not in templates:
        templates[k] = cube_face_lattice(k - 1)
    template = templates[k]
    return len(interval) == len(template) and posets_isomorphic(interval, template)


def is_simplicial(P):
    """Every lower interval, not only the maximal ones, checked on its own."""
    P.minimum()
    try:
        rho = rank_matrix(P)
    except NotLocallyGradedError:
        return False
    return all(_boolean_interval(P, rho, x) for x in P.elements)


def is_cubical(P):
    P.minimum()
    try:
        rho = rank_matrix(P)
    except NotLocallyGradedError:
        return False
    templates = {}
    return all(_cube_interval(P, rho, x, templates) for x in P.elements)


def toric_face_polynomials(P):
    """{element: (f, g)}, summing over every pair y < z with its own power of
    (q - 1); the caller checks lower Eulerian and graded first."""
    rho = rank_matrix(P)
    bottom = P.minimum()
    m = P.index(bottom)
    leq = P.leq_matrix
    out = {bottom: (IntPolynomial.constant(1), IntPolynomial.constant(1))}
    order = sorted(P.elements, key=lambda e: (rho[m, P.index(e)], e))
    for z in order[1:]:
        iz = P.index(z)
        f = IntPolynomial()
        for y in order:
            iy = P.index(y)
            if iy != iz and leq[iy, iz]:
                f = f + out[y][1] * Q_MINUS_ONE ** (rho[iy, iz] - 1)
        half = (rho[m, iz] - 1) // 2
        ks = [f.coefficient(i) for i in range(half + 1)]
        out[z] = (f, IntPolynomial([ks[0]] + [ks[i] - ks[i - 1] for i in range(1, half + 1)]))
    return out


def toric_h(P):
    d = _graded_rank(P)
    m = P.index(P.minimum())
    rho = rank_matrix(P)
    total = IntPolynomial()
    for y, (_, g) in toric_face_polynomials(P).items():
        total = total + g * Q_MINUS_ONE ** (d - rho[m, P.index(y)])
    return tuple(reversed(total.padded(d + 1)))


def toric_applies(P):
    """The hypotheses `toric_h` checks: lower Eulerian and graded."""
    return lower_eulerian(P)[0] and is_graded(P)[0]

