"""The poset layer as the package computed it before the down-set bitsets:
the redundant-cover test one boolean row per cover, the boolean matrix
product for covers, ranks and Möbius values one cover or one row at a
time, the meet test on every pair, Boolean intervals by atom supports, cube
intervals by isomorphism with a template cube lattice (the isomorphism
test is here too), the toric recursion one pair at a time, and gradedness
by its own chain-length program.  Kept as the reference the fast paths are
checked against; small inputs, except in the `large` tier.
"""

from itertools import combinations

import numpy as np

from posetlab.errors import NotLocallyGradedError
from posetlab.generators import cube_face_lattice
from posetlab.hvectors import _graded_rank
from posetlab.intpoly import Q_MINUS_ONE, IntPolynomial
from posetlab.poset import FinitePoset, _closure, _toposort

_NO_CHAIN = -1


def redundant_cover(elements, covers):
    """The first cover (a, b), in list order, with some z such that
    a < z < b, and the lowest-index such z: (a, b, z), or None.  The covers
    must name distinct elements and be acyclic."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    parents = [[] for _ in range(n)]
    children = [[] for _ in range(n)]
    for a, b in covers:
        parents[index[a]].append(index[b])
        children[index[b]].append(index[a])
    leq = _closure(n, parents, _toposort(n, parents, children, elements))
    lt = leq & ~np.eye(n, dtype=bool)
    for a, b in covers:
        between = lt[index[a]] & lt[:, index[b]]
        if between.any():
            return a, b, elements[int(np.flatnonzero(between)[0])]
    return None


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


def is_graded(P):
    """All maximal chains of P have one common length; returns (flag, length).
    The longest and shortest chain from a minimal element, one dynamic
    program over the covers."""
    n = len(P)
    children = [[] for _ in range(n)]
    for a, b in P.covers:
        children[P.index(b)].append(P.index(a))
    longest = np.zeros(n, dtype=np.int64)
    shortest = np.zeros(n, dtype=np.int64)
    for j in P._topo:
        if children[j]:
            longest[j] = 1 + max(longest[z] for z in children[j])
            shortest[j] = 1 + min(shortest[z] for z in children[j])
    tops = [P.index(e) for e in P.maximal_elements()]
    lengths = {int(longest[t]) for t in tops} | {int(shortest[t]) for t in tops}
    if len(lengths) == 1:
        return True, lengths.pop()
    return False, None


# -- poset isomorphism -------------------------------------------------------


def _wl_colors(P):
    """Stable cover-degree refinement colors, comparable across posets."""
    n = len(P)
    children = [[] for _ in range(n)]
    parents = [[] for _ in range(n)]
    for a, b in P.covers:
        ia, ib = P.index(a), P.index(b)
        children[ib].append(ia)
        parents[ia].append(ib)
    colors = [(len(children[i]), len(parents[i])) for i in range(n)]
    for _ in range(n):
        new = [
            (
                colors[i],
                tuple(sorted(colors[c] for c in children[i])),
                tuple(sorted(colors[p] for p in parents[i])),
            )
            for i in range(n)
        ]
        canon = {sig: rank for rank, sig in enumerate(sorted(set(new)))}
        refreshed = [canon[sig] for sig in new]
        if len(set(refreshed)) == len(set(colors)):
            colors = refreshed
            break
        colors = refreshed
    return colors


def posets_isomorphic(P: FinitePoset, Q: FinitePoset) -> bool:
    """Exhaustive backtracking with color refinement pruning."""
    n = len(P)
    if n != len(Q) or len(P.covers) != len(Q.covers):
        return False
    cp = _wl_colors(P)
    cq = _wl_colors(Q)
    if sorted(cp) != sorted(cq):
        return False

    children_p = [[] for _ in range(n)]
    for a, b in P.covers:
        children_p[P.index(b)].append(P.index(a))
    by_color_q = {}
    for j in range(n):
        by_color_q.setdefault(cq[j], []).append(j)

    # Map in topological order so every cover child is placed first.
    order = list(P._topo)

    leq_p = P.leq_matrix
    leq_q = Q.leq_matrix
    child_q = np.zeros((n, n), dtype=bool)
    for a, b in Q.covers:
        child_q[Q.index(a), Q.index(b)] = True

    mapping = [-1] * n
    used = [False] * n

    def backtrack(k):
        if k == n:
            return True
        v = order[k]
        for w in by_color_q.get(cp[v], []):
            if used[w]:
                continue
            if any(not child_q[mapping[c], w] for c in children_p[v]):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(k + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    if not backtrack(0):
        return False
    perm = np.array(mapping)
    return bool((leq_p == leq_q[np.ix_(perm, perm)]).all())
