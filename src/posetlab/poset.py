"""Finite posets: construction, rank structure, Möbius function, derived posets.

A poset is stored as its irredundant cover list plus a cached boolean
reachability matrix, so order queries and interval traversals are numpy
row operations.  The principal down-sets are also read once into Python int
bitsets (bit i of down[j] is set iff i <= j); the structural predicates are
set arithmetic on them.  Instances are immutable after construction; lazy
caches are filled with idempotent writes and are safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleDetectedError,
    DuplicateCoverError,
    DuplicateElementError,
    EmptyPosetError,
    NoMinimumError,
    NotComparableError,
    NotLocallyGradedError,
    NotLowerGradedError,
    PosetLabError,
    RankCollapseError,
    RedundantCoverError,
    UnknownElementError,
)

_NO_CHAIN = -1


class FinitePoset:
    """A finite strict partial order over opaque string identifiers."""

    __slots__ = ("name", "_elements", "_index", "_covers", "_leq", "_topo", "_cache")

    def __init__(self, elements, leq, covers, topo, name="poset"):
        # Internal constructor; use from_covers / build_from_covers instead.
        self.name = name
        self._elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self._elements)}
        self._covers = tuple(covers)
        leq.flags.writeable = False
        self._leq = leq
        self._topo = tuple(topo)
        self._cache = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_covers(cls, elements, covers, name="poset"):
        """Build from identifiers and irredundant cover pairs (lower, upper).

        The strict order is the transitive closure of the covers.  Redundant
        covers are rejected rather than silently reduced.
        """
        elements = list(elements)
        if not elements:
            raise EmptyPosetError("a poset needs at least one element")
        index = {}
        for e in elements:
            if e in index:
                raise DuplicateElementError(e)
            index[e] = len(index)
        n = len(elements)

        seen = set()
        cover_idx = []
        for a, b in covers:
            if a not in index:
                raise UnknownElementError(a)
            if b not in index:
                raise UnknownElementError(b)
            if a == b:
                raise CycleDetectedError([a])
            if (a, b) in seen:
                raise DuplicateCoverError(a, b)
            seen.add((a, b))
            cover_idx.append((index[a], index[b]))

        parents = [[] for _ in range(n)]  # j in parents[i] iff i is covered by j
        children = [[] for _ in range(n)]
        for ia, ib in cover_idx:
            parents[ia].append(ib)
            children[ib].append(ia)

        topo = _toposort(n, parents, children, elements)
        leq = _closure(n, parents, topo)

        lt = leq & ~np.eye(n, dtype=bool)
        for ia, ib in cover_idx:
            between = lt[ia] & lt[:, ib]
            if between.any():
                z = int(np.flatnonzero(between)[0])
                raise RedundantCoverError(elements[ia], elements[ib], elements[z])

        covers_sorted = tuple(sorted((elements[ia], elements[ib]) for ia, ib in cover_idx))
        return cls(elements, leq, covers_sorted, topo, name=name)

    @classmethod
    def _from_leq(cls, elements, leq, name="poset"):
        """Build from a valid reflexive order matrix (internal, no validation)."""
        elements = list(elements)
        if not elements:
            raise EmptyPosetError("a poset needs at least one element")
        n = len(elements)
        # j covers i when i < j and i lies below no other element below j.
        down = _bitsets(leq.T)
        parents = [[] for _ in range(n)]
        children = [[] for _ in range(n)]
        for j in range(n):
            strict = down[j] ^ (1 << j)
            covered = 0
            for z in _bits(strict):
                covered |= down[z] ^ (1 << z)
            children[j] = _bits(strict & ~covered)
            for i in children[j]:
                parents[i].append(j)
        covers = tuple(sorted((elements[i], elements[j]) for j in range(n) for i in children[j]))
        topo = _toposort(n, parents, children, elements)
        P = cls(elements, leq.copy(), covers, topo, name=name)
        P._cache["down"] = down
        return P

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self._elements)

    def __repr__(self):
        return f"FinitePoset({self.name!r}, {len(self)} elements, {len(self._covers)} covers)"

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return (
            sorted(self._elements) == sorted(other._elements)
            and self._covers == other._covers
        )

    def __hash__(self):
        return hash((tuple(sorted(self._elements)), self._covers))

    @property
    def elements(self):
        return self._elements

    @property
    def covers(self):
        return self._covers

    @property
    def leq_matrix(self):
        return self._leq

    def _down_sets(self):
        """Principal down-sets as int bitsets: bit i of entry j is set iff
        element i <= element j."""
        if "down" not in self._cache:
            self._cache["down"] = _bitsets(self._leq.T)
        return self._cache["down"]

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElementError(x) from None

    def leq(self, x, y):
        return bool(self._leq[self.index(x), self.index(y)])

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def minimum(self):
        if "minimum" not in self._cache:
            rows = np.flatnonzero(self._leq.all(axis=1))
            self._cache["minimum"] = int(rows[0]) if rows.size else None
        m = self._cache["minimum"]
        if m is None:
            raise NoMinimumError(f"poset {self.name!r} has no minimum element")
        return self._elements[m]

    @property
    def has_minimum(self):
        try:
            self.minimum()
            return True
        except NoMinimumError:
            return False

    def maximal_elements(self):
        """Elements with empty strict up-set, in element order."""
        lt = self._leq & ~np.eye(len(self), dtype=bool)
        return tuple(self._elements[i] for i in np.flatnonzero(~lt.any(axis=1)))

    def minimal_elements(self):
        lt = self._leq & ~np.eye(len(self), dtype=bool)
        return tuple(self._elements[i] for i in np.flatnonzero(~lt.any(axis=0)))

    def atoms(self):
        """Elements covering the minimum."""
        m = self.minimum()
        return tuple(b for a, b in self._covers if a == m)

    def cover_children(self, x):
        return tuple(a for a, b in self._covers if b == x)

    def cover_parents(self, x):
        return tuple(b for a, b in self._covers if a == x)

    # -- derived posets ----------------------------------------------------

    def induced(self, members, name=None):
        """Subposet on `members` with the restricted order."""
        members = list(members)
        if not members:
            raise EmptyPosetError("induced subposet would be empty")
        idx = [self.index(x) for x in members]
        sub = self._leq[np.ix_(idx, idx)]
        return FinitePoset._from_leq(members, sub, name=name or f"{self.name}|sub")

    def interval(self, x, y):
        """The closed interval [x, y] as a poset."""
        ix, iy = self.index(x), self.index(y)
        if not self._leq[ix, iy]:
            raise NotComparableError(x, y)
        mask = self._leq[ix] & self._leq[:, iy]
        members = [self._elements[i] for i in np.flatnonzero(mask)]
        return self.induced(members, name=f"{self.name}[{x},{y}]")

    def open_interval_elements(self, x, y):
        """Elements strictly between x and y, in element order."""
        ix, iy = self.index(x), self.index(y)
        mask = self._leq[ix] & self._leq[:, iy]
        mask[ix] = mask[iy] = False
        return tuple(self._elements[i] for i in np.flatnonzero(mask))

    def upset(self, x, strict=False):
        """The subposet on {y : x <= y} (or x < y when strict)."""
        ix = self.index(x)
        mask = self._leq[ix].copy()
        if strict:
            mask[ix] = False
        members = [self._elements[i] for i in np.flatnonzero(mask)]
        return self.induced(members, name=f"{self.name}>={x}")

    def dual(self):
        return FinitePoset._from_leq(
            self._elements, self._leq.T.copy(), name=f"{self.name}^op"
        )

    def _fresh_id(self, base):
        e = base
        while e in self._index:
            e += "'"
        return e

    def attach_max(self, label="1^"):
        """Adjoin a new maximum element above everything."""
        n = len(self)
        top = self._fresh_id(label)
        leq = np.zeros((n + 1, n + 1), dtype=bool)
        leq[:n, :n] = self._leq
        leq[:, n] = True
        return FinitePoset._from_leq(
            list(self._elements) + [top], leq, name=f"{self.name}+max"
        )

    def attach_min(self, label="0^"):
        """Adjoin a new minimum element below everything."""
        n = len(self)
        bot = self._fresh_id(label)
        leq = np.zeros((n + 1, n + 1), dtype=bool)
        leq[1:, 1:] = self._leq
        leq[0, :] = True
        return FinitePoset._from_leq(
            [bot] + list(self._elements), leq, name=f"{self.name}+min"
        )

    def remove_min(self):
        m = self.minimum()
        rest = [e for e in self._elements if e != m]
        if not rest:
            raise EmptyPosetError("removing the minimum empties the poset")
        return self.induced(rest, name=f"{self.name}-min")

    def remove_maximal(self):
        """Drop all maximal elements; keeps the minimum when one exists."""
        maxima = set(self.maximal_elements())
        rest = [e for e in self._elements if e not in maxima]
        if not rest:
            raise RankCollapseError("removing maximal elements empties the poset")
        if self.has_minimum and self.minimum() not in rest:
            raise RankCollapseError("removing maximal elements drops the minimum")
        return self.induced(rest, name=f"{self.name}-max")

    def remove_atoms(self):
        """Drop the atoms; requires a minimum, which is kept."""
        drop = set(self.atoms())
        rest = [e for e in self._elements if e not in drop]
        return self.induced(rest, name=f"{self.name}-atoms")

    def interval_poset(self, name=None):
        """Nonempty closed intervals [x, y], ordered by containment."""
        n = len(self)
        leq = self._leq
        pairs = [(i, j) for i in range(n) for j in range(n) if leq[i, j]]
        lo = np.array([i for i, _ in pairs])
        hi = np.array([j for _, j in pairs])
        # [b,c] <= [a,d] iff a <= b and c <= d
        contain = leq.T[np.ix_(lo, lo)] & leq[np.ix_(hi, hi)]
        labels = [f"[{self._elements[i]}::{self._elements[j]}]" for i, j in pairs]
        if len(set(labels)) != len(labels):
            # Element ids that themselves contain '::' can collide; fall back
            # to positional labels.
            labels = [f"[{i}::{j}]" for i, j in pairs]
        return FinitePoset._from_leq(labels, contain, name=name or f"Int({self.name})")


def build_from_covers(elements, covers, name="poset"):
    return FinitePoset.from_covers(elements, covers, name=name)


def _bitsets(matrix):
    """The rows of a boolean matrix as int bitsets, column i as bit i."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _bits(mask):
    """Indices of the set bits of an int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _toposort(n, parents, children, elements):
    indeg = [len(children[i]) for i in range(n)]
    stack = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while stack:
        u = stack.pop()
        topo.append(u)
        for v in parents[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(topo) != n:
        stuck = next(elements[i] for i in range(n) if indeg[i] > 0)
        raise CycleDetectedError([stuck])
    return topo


def _closure(n, parents, topo):
    leq = np.eye(n, dtype=bool)
    for u in reversed(topo):
        row = leq[u]
        for v in parents[u]:
            row |= leq[v]
    return leq


# -- rank structure ----------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    """Interval ranks of a locally graded poset.

    `ranks` and `top_rank` are element ranks relative to the minimum and are
    only present when the poset has one.
    """

    poset: FinitePoset
    rho: np.ndarray  # rho[i, j] = common maximal chain length of [i, j]; -1 elsewhere

    def interval_rank(self, x, y):
        i, j = self.poset.index(x), self.poset.index(y)
        if not self.poset.leq_matrix[i, j]:
            raise NotComparableError(x, y)
        return int(self.rho[i, j])

    @property
    def ranks(self):
        m = self.poset.index(self.poset.minimum())
        return {e: int(self.rho[m, i]) for i, e in enumerate(self.poset.elements)}

    @property
    def top_rank(self):
        m = self.poset.index(self.poset.minimum())
        return int(self.rho[m].max())

    def rank_counts(self):
        """Number of elements of each rank, indices 0..top_rank."""
        m = self.poset.index(self.poset.minimum())
        counts = [0] * (self.top_rank + 1)
        for i in range(len(self.poset)):
            counts[int(self.rho[m, i])] += 1
        return counts


def rank_profile(P: FinitePoset) -> RankProfile:
    """Ranks of all closed intervals; raises NotLocallyGradedError on failure."""
    cached = P._cache.get("rank_profile")
    if cached is not None:
        return cached
    n = len(P)
    leq = P.leq_matrix
    children = [[] for _ in range(n)]
    for a, b in P.covers:
        children[P.index(b)].append(P.index(a))

    # Row j holds the chain lengths from every element up to j; one gather
    # over the cover children of j fills it.
    longest = np.full((n, n), _NO_CHAIN, dtype=np.int32)
    shortest = np.full((n, n), n + 1, dtype=np.int32)
    for j in P._topo:
        if children[j]:
            lz = longest[children[j]].max(axis=0)
            longest[j] = np.where(lz >= 0, lz + 1, _NO_CHAIN)
            np.minimum(shortest[children[j]].min(axis=0) + 1, n + 1, out=shortest[j])
        longest[j, j] = shortest[j, j] = 0
    longest, shortest = longest.T, shortest.T

    # On the order shortest <= n; off it, leq masks the fill values.
    bad = leq & (longest != shortest)
    if bad.any():
        pairs = np.argwhere(bad)
        order = sorted(range(len(pairs)), key=lambda k: (P.elements[pairs[k][0]], P.elements[pairs[k][1]]))
        i, j = pairs[order[0]]
        raise NotLocallyGradedError(
            P.elements[i], P.elements[j], (int(shortest[i, j]), int(longest[i, j]))
        )
    rho = longest  # _NO_CHAIN off the order, where no chain reaches
    rho.flags.writeable = False
    profile = RankProfile(P, rho)
    P._cache["rank_profile"] = profile
    return profile


def is_graded(P: FinitePoset):
    """All maximal chains of P have one common length; returns (flag, length)."""
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


# -- Möbius function ---------------------------------------------------------


class MobiusTable:
    """Möbius values on all pairs x <= y of a finite poset."""

    def __init__(self, poset, values):
        self.poset = poset
        self._values = values  # values[i, j] = mu(i, j) when i <= j, else 0

    def mu(self, x, y):
        i, j = self.poset.index(x), self.poset.index(y)
        if not self.poset.leq_matrix[i, j]:
            raise NotComparableError(x, y)
        return int(self._values[i, j])

    def __getitem__(self, pair):
        return self.mu(*pair)

    def items(self):
        els = self.poset.elements
        rows, cols = np.nonzero(self.poset.leq_matrix)
        values = self._values[rows, cols].tolist()
        for i, j, v in zip(rows.tolist(), cols.tolist(), values):
            yield (els[i], els[j]), int(v)


# |mu| above 2^62 / n could overflow the int64 sum of n such values.
_INT64_GUARD = 2**62
_GATHER_ROWS = 128


def _mobius_row_exact(P, i):
    # Arbitrary-precision rerun for the rare huge-value poset.
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
    return np.array(mu, dtype=object)


def mobius(P: FinitePoset) -> MobiusTable:
    """The full Möbius table, one column at a time in topological order:
    mu(., j) = -sum of mu(., z) over z < j, which is 0 outside the down-set
    of j and gives mu(i, j) for every i < j at once."""
    cached = P._cache.get("mobius")
    if cached is not None:
        return cached
    n = len(P)
    leq = P.leq_matrix
    guard = _INT64_GUARD // max(n, 1)
    cols = np.zeros((n, n), dtype=np.int64)  # cols[j, i] = mu(i, j)
    for j in P._topo:
        below = np.flatnonzero(leq[:, j])
        below = below[below != j]
        col = cols[j]
        # Gathered a block of rows at a time, to bound the temporary.
        for start in range(0, below.size, _GATHER_ROWS):
            col -= cols[below[start : start + _GATHER_ROWS]].sum(axis=0)
        if below.size and np.abs(col).max() > guard:
            values = np.array([_mobius_row_exact(P, i) for i in range(n)], dtype=object)
            break
        col[j] = 1
    else:
        values = cols.T
    table = MobiusTable(P, values)
    P._cache["mobius"] = table
    return table


def mobius_from(P: FinitePoset, x) -> dict:
    """Möbius values mu(x, y) for all y >= x, keyed by element."""
    i = P.index(x)
    row = mobius(P)._values[i]
    return {
        P.elements[j]: int(row[j]) for j in np.flatnonzero(P.leq_matrix[i])
    }


def reduced_euler_char(P: FinitePoset) -> int:
    """Möbius value from the minimum to a freshly attached maximum."""
    m = P.minimum()
    row = mobius_from(P, m)
    return -sum(row.values())


def rank_alternating_sum(P: FinitePoset) -> int:
    """Signed count of elements by rank; the minimum contributes -1."""
    if not P.has_minimum:
        raise NotLowerGradedError(f"poset {P.name!r} has no minimum element")
    try:
        profile = rank_profile(P)
    except NotLocallyGradedError as exc:
        raise NotLowerGradedError(str(exc)) from exc
    ranks = profile.ranks
    return sum((-1) ** ((r - 1) % 2) for r in ranks.values())


# -- Eulerian classification -------------------------------------------------


@dataclass(frozen=True)
class LowerEulerianResult:
    ok: bool
    reason: str = ""
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def is_lower_eulerian(P: FinitePoset) -> LowerEulerianResult:
    """Minimum + locally graded + Möbius equals rank parity on every interval."""
    if not P.has_minimum:
        return LowerEulerianResult(False, "no minimum element")
    try:
        profile = rank_profile(P)
    except NotLocallyGradedError as exc:
        return LowerEulerianResult(
            False, "not locally graded", (exc.lower, exc.upper)
        )
    values = mobius(P)._values
    odd = (profile.rho & 1).astype(bool)
    bad = P.leq_matrix & np.where(odd, values != -1, values != 1)
    if bad.any():
        # The witness: the first offending row by element name, then its
        # first offender by name.
        name = P.elements.__getitem__
        i = min(np.flatnonzero(bad.any(axis=1)), key=name)
        j = min(np.flatnonzero(bad[i]), key=name)
        return LowerEulerianResult(
            False, "Möbius value differs from rank parity", (name(i), name(j))
        )
    return LowerEulerianResult(True)


# -- atom counts -------------------------------------------------------------


def atoms_below(P: FinitePoset, y) -> int:
    """Number of atoms of P in the interval [minimum, y]."""
    iy = P.index(y)
    return sum(1 for a in P.atoms() if P.leq_matrix[P.index(a), iy])


def min_atoms_below(P: FinitePoset) -> int:
    """Minimum of atoms_below over the maximal elements."""
    P.minimum()
    return min(atoms_below(P, y) for y in P.maximal_elements())


# -- structural predicates ---------------------------------------------------


@dataclass(frozen=True)
class StructuralPredicates:
    is_meet_semilattice: bool
    is_simplicial: bool
    is_cubical: bool
    is_graded: bool


def is_meet_semilattice(P: FinitePoset) -> bool:
    """Every pair of elements has a greatest lower bound."""
    if "meet" not in P._cache:
        # The common down-set of a pair is a principal down-set iff the pair
        # has a meet.
        down = P._down_sets()
        principal = set(down)
        P._cache["meet"] = all(
            principal.issuperset(map(a.__and__, down[i + 1 :]))
            for i, a in enumerate(down)
        )
    return P._cache["meet"]


def _all_lower_intervals(P, test) -> bool:
    """test(down-sets, atom bitset, x, rank of x) on [min, x] for every
    maximal x; False when P is not locally graded.  Lower intervals of a
    Boolean lattice or of a cube's face lattice are again Boolean or cube
    lattices, so the maximal x decide for every lower interval."""
    m = P.index(P.minimum())
    try:
        rho = rank_profile(P).rho[m]
    except NotLocallyGradedError:
        return False
    down = P._down_sets()
    atoms = sum(1 << int(i) for i in np.flatnonzero(rho == 1))
    tops = [P.index(x) for x in P.maximal_elements()]
    return all(test(down, atoms, x, int(rho[x])) for x in tops)


def _boolean_interval(down, atoms, x, k) -> bool:
    """Is [min, x], of rank k, isomorphic to the Boolean lattice of rank k?

    With k atoms, 2^k elements with distinct atom supports have every subset
    of the atoms as a support.  "<=" lies inside support inclusion, which
    has 3^k pairs z <= w, so that pair count makes them equal.  The element
    count follows from the other tests; it only ends the work early.
    """
    members = _bits(down[x])
    if len(members) != 1 << k or (down[x] & atoms).bit_count() != k:
        return False
    if len({down[z] & atoms for z in members}) != len(members):
        return False
    return sum(down[z].bit_count() for z in members) == 3**k


def _cube_interval(down, atoms, x, k) -> bool:
    """Is [min, x], of rank k >= 1, the face lattice of the (k-1)-cube?

    The k-1 edges at one vertex v are the axes, and the code c(u) of a vertex
    u is the set of axes below every face above both u and v.  A face spans
    the subcube [AND, OR] of its vertices' codes.  If the 3^(k-1) nonempty
    faces span distinct subcubes, they span each subcube once, and on the
    one-vertex faces c is injective.  "<=" lies inside span inclusion, which
    has 5^(k-1) pairs, so that pair count makes them equal (Metropolis-Rota,
    the lattice of faces of the n-cube, 1978).  The element, vertex and axis
    counts follow from the last two tests; they only end the work early.
    """
    if k == 0:
        return True  # the one-element interval is the (-1)-cube lattice
    members = _bits(down[x])
    verts = _bits(down[x] & atoms)
    if len(members) != 3 ** (k - 1) + 1 or len(verts) != 1 << (k - 1):
        return False
    faces = [f for f in members if down[f] & atoms]  # the nonempty faces
    v = verts[0]
    above_v = [f for f in faces if down[f] >> v & 1]
    axes = [f for f in above_v if (down[f] & atoms).bit_count() == 2]
    if len(axes) != k - 1:
        return False
    full = (1 << (k - 1)) - 1
    code = dict.fromkeys(verts, full)
    for f in above_v:
        on = sum(1 << t for t, e in enumerate(axes) if down[f] >> e & 1)
        for u in _bits(down[f] & atoms):
            code[u] &= on
    spans = set()
    for f in faces:
        low, high = full, 0
        for u in _bits(down[f] & atoms):
            low &= code[u]
            high |= code[u]
        spans.add((low, high))
    if len(spans) != len(faces):
        return False
    return sum(down[f].bit_count() - 1 for f in faces) == 5 ** (k - 1)


def is_simplicial_poset(P: FinitePoset) -> bool:
    """Every lower interval is a Boolean lattice."""
    if "simplicial" not in P._cache:
        P._cache["simplicial"] = _all_lower_intervals(P, _boolean_interval)
    return P._cache["simplicial"]


def is_cubical_poset(P: FinitePoset) -> bool:
    """Every lower interval is the face lattice of a cube."""
    if "cubical" not in P._cache:
        P._cache["cubical"] = _all_lower_intervals(P, _cube_interval)
    return P._cache["cubical"]


def structural_predicates(P: FinitePoset) -> StructuralPredicates:
    P.minimum()
    meet = is_meet_semilattice(P)
    graded, _ = is_graded(P)
    return StructuralPredicates(
        meet, is_simplicial_poset(P), is_cubical_poset(P), graded
    )


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


# -- serialization -----------------------------------------------------------


def poset_to_dict(P: FinitePoset) -> dict:
    return {
        "name": P.name,
        "elements": list(P.elements),
        "covers": [list(c) for c in sorted(P.covers)],
    }


def jsonable(value):
    """Plain JSON data: numpy integers and arrays become ints and lists,
    tuples become lists, keys become strings, anything else its str()."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def json_list(entry, what, item=str) -> tuple:
    """A list from a parsed JSON file, as a tuple, when every entry is of type
    `item`; anything else raises a PosetLabError that names the bad entry."""
    if not isinstance(entry, list):
        raise PosetLabError(f"{what} {entry!r} is not a list")
    bad = [x for x in entry if not isinstance(x, item)]
    if bad:
        kind = "string id" if item is str else item.__name__
        raise PosetLabError(f"{what} entry {bad[0]!r} is not a {kind}")
    return tuple(entry)


def poset_from_dict(data: dict) -> FinitePoset:
    elements = json_list(data.get("elements"), "elements")
    covers = [json_list(c, "cover") for c in json_list(data.get("covers"), "covers", list)]
    bad = [c for c in covers if len(c) != 2]
    if bad:
        raise PosetLabError(f"cover {list(bad[0])!r} is not a pair of element ids")
    return FinitePoset.from_covers(elements, covers, name=data.get("name", "poset"))
