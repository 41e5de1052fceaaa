"""Finite posets: construction, rank structure, Möbius function, derived posets.

A poset is stored as its irredundant cover list plus a cached boolean
reachability matrix, so order queries and interval traversals are numpy row
operations.  The principal down-sets (and up-sets) are also kept as Python
int bitsets (bit i of down[j] is set iff i <= j).  Every poset is built from
its covers, a derived poset from covers read off its parent, so the bitsets
come first, in topological order, and the matrix is unpacked from them.  The
cover check, the structural predicates and the interval scans of the order
complex are set arithmetic on them.  A cover list is checked in one pass,
and one cover at a time only to name the first bad one.  Heights come from
one relaxation over the cover arrays.  Interval ranks are longest chain
lengths above the minimal elements, filled one height level at a time.  The
Möbius table is filled one height level at a time too, over the comparable
triples x <= z < y.  Instances are immutable after construction; lazy caches
are filled with idempotent writes and are safe to share between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

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
    SizeLimitError,
    UnknownElementError,
)

_NO_CHAIN = -1
# Every poset holds an n x n order matrix and a Möbius table of 8n^2 bytes,
# so a poset file or an interval poset over this many elements is refused.
MAX_ELEMENTS = 4096


def _check_size(what, n):
    if n > MAX_ELEMENTS:
        raise SizeLimitError(f"{what} of {n} elements", f"{MAX_ELEMENTS} elements")


class FinitePoset:
    """A finite strict partial order over opaque string identifiers."""

    __slots__ = ("name", "_elements", "_index", "_covers", "_leq", "_topo", "_cache")

    def __init__(self, elements, leq, covers, topo, down, up, name="poset"):
        # Called by from_covers, which derives every argument from the covers
        # after checking them; down and up are the principal bitsets.
        self.name = name
        self._elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self._elements)}
        self._covers = tuple(covers)
        leq.flags.writeable = False
        self._leq = leq
        self._topo = tuple(topo)
        self._cache = {"down": tuple(down), "up": tuple(up)}

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
        _check_size("a poset", len(elements))
        index = {e: i for i, e in enumerate(elements)}
        if len(index) < len(elements):
            seen = set()
            for e in elements:
                if e in seen:
                    raise DuplicateElementError(e)
                seen.add(e)
        n = len(elements)
        lo, hi = _cover_indices(index, list(covers))

        parents = [[] for _ in range(n)]  # j in parents[i] iff i is covered by j
        children = [[] for _ in range(n)]
        for ia, ib in zip(lo, hi):
            parents[ia].append(ib)
            children[ib].append(ia)
        topo = _toposort(n, parents, children, elements)

        # The principal up- and down-sets as int bitsets, each the union of
        # its neighbours' in topological order.
        up, down = [0] * n, [0] * n
        for u in reversed(topo):
            row = 1 << u
            for v in parents[u]:
                row |= up[v]
            up[u] = row
        for u in topo:
            row = 1 << u
            for v in children[u]:
                row |= down[v]
            down[u] = row

        # A cover (a, b) is redundant when some z has a < z < b; the witness
        # is the lowest such index.
        for ia, ib in zip(lo, hi):
            between = up[ia] & down[ib]
            if between.bit_count() > 2:
                between &= ~(1 << ia | 1 << ib)
                z = (between & -between).bit_length() - 1
                raise RedundantCoverError(elements[ia], elements[ib], elements[z])

        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in up), dtype=np.uint8)
        leq = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
        covers_sorted = tuple(sorted(zip(map(elements.__getitem__, lo), map(elements.__getitem__, hi))))
        return cls(elements, leq, covers_sorted, topo, down, up, name=name)

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
        return self._cache["down"]

    def _up_sets(self):
        """Principal up-sets as int bitsets: bit j of entry i is set iff
        element i <= element j."""
        return self._cache["up"]

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
        """Elements whose up-set holds only themselves, in element order."""
        up = self._up_sets()
        return tuple(e for i, e in enumerate(self._elements) if up[i] == 1 << i)

    def minimal_elements(self):
        down = self._down_sets()
        return tuple(e for i, e in enumerate(self._elements) if down[i] == 1 << i)

    def atoms(self):
        """Elements covering the minimum."""
        m = self.minimum()
        return tuple(b for a, b in self._covers if a == m)

    # -- derived posets ----------------------------------------------------

    def induced(self, members, name=None):
        """Subposet on `members` with the restricted order."""
        members = list(members)
        if not members:
            raise EmptyPosetError("induced subposet would be empty")
        idx = [self.index(x) for x in members]
        # Members in topological order: the highest one left below j is
        # maximal there, so j covers it; clearing its down-set leaves the rest.
        at = np.argsort(self._topo).tolist()
        order = sorted(range(len(idx)), key=lambda k: at[idx[k]])
        rows = [idx[k] for k in order]
        packed = np.packbits(self._leq[np.ix_(rows, rows)].T, axis=1, bitorder="little")
        down = [int.from_bytes(row.tobytes(), "little") for row in packed]
        pairs = []
        for j, rest in enumerate(down):
            rest ^= 1 << j
            while rest:
                z = rest.bit_length() - 1
                pairs.append((order[z], order[j]))
                rest &= ~down[z]
        return _derived(members, pairs, name or f"{self.name}|sub")

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

    def upset(self, x):
        """The subposet on {y : x <= y}."""
        members = [self._elements[i] for i in np.flatnonzero(self._leq[self.index(x)])]
        return self.induced(members, name=f"{self.name}>={x}")

    def dual(self):
        ix = self._index
        return _derived(self._elements, [(ix[b], ix[a]) for a, b in self._covers], f"{self.name}^op")

    def _fresh_id(self, base):
        e = base
        while e in self._index:
            e += "'"
        return e

    def attach_min(self):
        """Adjoin a new minimum element, "0^" primed until it is fresh."""
        ix = self._index
        pairs = [(0, 1 + ix[m]) for m in self.minimal_elements()]
        pairs += [(1 + ix[a], 1 + ix[b]) for a, b in self._covers]
        return _derived([self._fresh_id("0^"), *self._elements], pairs, f"{self.name}+min")

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
        leq, ix = self._leq, self._index
        _check_size("an interval poset", int(np.count_nonzero(leq)))
        pairs = list(zip(*(side.tolist() for side in np.nonzero(leq))))
        pos = {p: k for k, p in enumerate(pairs)}
        covers = []
        for a, b in self._covers:
            w, x = ix[a], ix[b]
            # w is covered by x: [x, y] is covered by [w, y], and [v, w] by [v, x].
            covers += [(pos[x, y], pos[w, y]) for y in np.flatnonzero(leq[x]).tolist()]
            covers += [(pos[v, w], pos[v, x]) for v in np.flatnonzero(leq[:, w]).tolist()]
        labels = [f"[{self._elements[i]}::{self._elements[j]}]" for i, j in pairs]
        if len(set(labels)) != len(labels):
            # Element ids that themselves contain '::' can collide; fall back
            # to positional labels.
            labels = [f"[{i}::{j}]" for i, j in pairs]
        return _derived(labels, covers, name or f"Int({self.name})")


def build_from_covers(elements, covers, name="poset"):
    return FinitePoset.from_covers(elements, covers, name=name)


def _derived(elements, pairs, name):
    """A derived poset from its covers as index pairs into `elements`.  They
    go to from_covers in (lower, upper) index order, which fixes the
    topological order however they were found."""
    return FinitePoset.from_covers(elements, [(elements[i], elements[j]) for i, j in sorted(pairs)], name)


def _bits(mask):
    """Indices of the set bits of an int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _cover_indices(index, covers):
    """The covers as lists of lower and upper indices.  The whole list is
    checked in one pass: pairs of known ids, no self-loops, no repeats.  Only
    when that fails does the per-cover loop run, to raise for the first bad
    cover in list order."""
    try:
        if set(map(len, covers)) <= {2}:
            flat = list(map(index.__getitem__, chain.from_iterable(covers)))
            lo, hi = flat[0::2], flat[1::2]
            if not any(map(operator.eq, lo, hi)) and len(set(zip(lo, hi))) == len(lo):
                return lo, hi
    except (KeyError, TypeError):
        pass
    return _checked_cover_indices(index, covers)


def _checked_cover_indices(index, covers):
    """`_cover_indices` one cover at a time, raising for the first bad one."""
    seen = set()
    lo, hi = [], []
    for cover in covers:
        try:
            a, b = cover
            unknown = [x for x in (a, b) if x not in index]
        except (TypeError, ValueError):  # not a pair, or an unhashable id
            raise PosetLabError(f"cover {cover!r} is not a pair of element ids") from None
        if unknown:
            raise UnknownElementError(unknown[0])
        if a == b:
            raise CycleDetectedError([a])
        if (a, b) in seen:
            raise DuplicateCoverError(a, b)
        seen.add((a, b))
        lo.append(index[a])
        hi.append(index[b])
    return lo, hi


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


# -- rank structure ----------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    """Interval ranks of a locally graded poset.

    `ranks` and `top_rank` are element ranks relative to the minimum and are
    only present when the poset has one.
    """

    poset: FinitePoset
    rho: np.ndarray  # rho[i, j] = common maximal chain length of [i, j]; -1 elsewhere

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
    """Ranks of all closed intervals; raises NotLocallyGradedError on failure.

    R[y, t] is the longest chain length from the t-th minimal element m_t up
    to y, filled one height level at a time.  P is locally graded exactly
    when R[b, t] = R[a, t] + 1 on every cover a < b with m_t <= a: then every
    saturated chain from m_t to y has length R[y, t], and a maximal chain of
    [x, y] with m_t <= x extends by one fixed chain of [m_t, x] to such a
    chain, so rho[x, y] = R[y, t] - R[x, t].  Heights alone do not suffice
    without a minimum: in the crown m1 < p < q, m2 < q every interval is
    graded, yet q sits at height 2 over the cover m2 < q.  When the test
    fails, the dense program finds the witness.
    """
    # The cache holds the arrays, not the profile: a profile refers back to
    # P, and a cycle through P._cache would keep derived posets alive until
    # a full garbage collection.
    cached = P._cache.get("rank_profile")
    if cached is not None:
        return RankProfile(P, cached)
    n = len(P)
    lo, hi, height = _heights(P)
    minimal = np.flatnonzero(height == 0)
    R = np.full((n, minimal.size), _NO_CHAIN, dtype=np.int32)
    R[minimal, np.arange(minimal.size)] = 0
    # The covers into level k read only the finished rows of lower levels.
    level = height[hi]
    for k in range(1, int(height.max()) + 1):
        into = level == k
        below = R[lo[into]]
        np.maximum.at(R, hi[into], np.where(below >= 0, below + 1, _NO_CHAIN))

    Rlo, Rhi = R[lo], R[hi]
    if ((Rlo >= 0) & (Rhi != Rlo + 1)).any():
        rho = _dense_rank_matrix(P)
    else:
        t = (R >= 0).argmax(axis=1)  # the first minimal element below x
        rho = R.T[t]  # rho[x, y] = R[y, t(x)]
        rho -= R[np.arange(n), t][:, None]
        np.copyto(rho, _NO_CHAIN, where=~P.leq_matrix)
    rho.flags.writeable = False
    P._cache["rank_profile"] = rho
    return RankProfile(P, rho)


def _heights(P: FinitePoset):
    """The covers as index arrays lo < hi, and the height of every element,
    the longest chain length from a minimal element up to it, by relaxing
    every cover until nothing moves: one round per level."""
    cached = P._cache.get("heights")
    if cached is not None:
        return cached
    index = P._index
    lo = np.array([index[a] for a, _ in P.covers], dtype=np.intp)
    hi = np.array([index[b] for _, b in P.covers], dtype=np.intp)
    height = np.zeros(len(P), dtype=np.int32)
    while lo.size:
        lifted = height.copy()
        np.maximum.at(lifted, hi, height[lo] + 1)
        if (lifted == height).all():
            break
        height = lifted
    for array in (lo, hi, height):
        array.flags.writeable = False
    P._cache["heights"] = lo, hi, height
    return lo, hi, height


def _dense_rank_matrix(P: FinitePoset) -> np.ndarray:
    """The longest and shortest chain lengths of every pair, one gather per
    element; raises NotLocallyGradedError on the first pair by name where
    they differ, and otherwise returns the longest."""
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
    return longest  # _NO_CHAIN off the order, where no chain reaches


def is_graded(P: FinitePoset):
    """All maximal chains of P have one common length; returns (flag, length).

    Such a P is locally graded: two maximal chains of different lengths in
    [a, b] extend, by one chain below a and one above b, to maximal chains
    of P of different lengths.  Otherwise the lengths are the ranks of
    [a, b] over the comparable pairs of a minimal a and a maximal b.
    """
    try:
        rho = rank_profile(P).rho
    except NotLocallyGradedError:
        return False, None
    lows = [P.index(x) for x in P.minimal_elements()]
    highs = [P.index(y) for y in P.maximal_elements()]
    lengths = set(rho[np.ix_(lows, highs)][P.leq_matrix[np.ix_(lows, highs)]].tolist())
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

    def arrays(self):
        """The pairs x <= y as index arrays `rows` and `cols`, ordered by the
        name of x, then of y (one sort on the ranks of the two names), and
        `values`, mu(x, y) over them: int64, or Python ints past the guard."""
        els = self.poset.elements
        n = len(els)
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=els.__getitem__)] = np.arange(n)
        rows, cols = np.divmod(np.flatnonzero(self.poset.leq_matrix), n)
        order = np.argsort(rank[rows] * n + rank[cols])
        rows, cols = rows[order], cols[order]
        return rows, cols, self._values[rows, cols]


# |mu| above 2^62 / n could overflow the int64 sum of n such values.
_INT64_GUARD = 2**62
# The Möbius table expands at most this many triples x <= z < y at once.
_TRIPLE_CHUNK = 8192


def mobius(P: FinitePoset) -> MobiusTable:
    """The full Möbius table by Hall's recursion mu(x, y) = -sum of mu(x, z)
    over x <= z < y (Rota 1964), for all y of one height at a time: every
    z < y lies lower, so mu(x, z) is final, and each triple x <= z < y
    subtracts it from mu(x, y) in place, a chunk of triples at a time.  That
    is T = sum over z of |down z| (|up z| - 1) subtractions, with one Python
    pass per height and per chunk.  The table is int64 until a level passes
    the guard, and Python ints (dtype=object) after it: each entry sums
    fewer than n values, all under the guard, so the level that passes it
    has not overflowed."""
    cached = P._cache.get("mobius")  # the values, as for rank_profile
    if cached is not None:
        return MobiusTable(P, cached)
    n = len(P)
    guard = _INT64_GUARD // max(n, 1)
    height = _heights(P)[2]
    # The elements by height, and the down-set of each in that order: the
    # down-set of the element at position p is low[start[p] : start[p + 1]],
    # int32 to halve the list.  Listing it copies n^2 booleans; that is done
    # before the table exists, to keep the peak low.
    by_height = np.argsort(height, kind="stable")
    where = np.empty(n, dtype=np.intp)
    where[by_height] = np.arange(n)
    low = (np.flatnonzero(P.leq_matrix.T[by_height]) % n).astype(np.int32)
    size = np.count_nonzero(P.leq_matrix, axis=0)[by_height]
    start = np.concatenate(([0], np.cumsum(size)))
    bounds = np.searchsorted(height[by_height], np.arange(int(height.max(initial=0)) + 2))
    table = np.eye(n, dtype=np.int64)
    flat = table.reshape(-1)  # flat[x * n + y] = mu(x, y)
    for p0, p1 in zip(bounds[1:-1], bounds[2:]):
        # The pairs z < y of the level: y at positions p0 .. p1 - 1.
        y = np.repeat(by_height[p0:p1], size[p0:p1])
        z = low[start[p0] : start[p1]].astype(np.intp)
        strict = z != y
        z, y = z[strict], y[strict]
        # Triple t of the level belongs to the pair k with first[k] <= t <
        # first[k + 1] and reads the (t - first[k])-th x of the down-set of
        # z[k], at low[t + shift[k]].
        first = np.concatenate(([0], np.cumsum(size[where[z]])))
        shift = start[where[z]] - first[:-1]
        total = int(first[-1])
        for a in range(0, total, _TRIPLE_CHUNK):
            b = min(a + _TRIPLE_CHUNK, total)
            # The chunk meets pairs k0 .. k1 - 1, c[k] triples of each.
            k0, k1 = np.searchsorted(first, (a, b - 1), side="right")
            k0 -= 1
            c = np.diff(np.clip(first[k0 : k1 + 1], a, b))
            row = low[np.arange(a, b) + np.repeat(shift[k0:k1], c)].astype(np.intp)
            row *= n
            np.subtract.at(flat, row + np.repeat(y[k0:k1], c), flat[row + np.repeat(z[k0:k1], c)])
        # The level's entries off the diagonal are mu(z, y) over its pairs.
        if table.dtype != object and np.abs(flat[z * n + y]).max(initial=0) > guard:
            table = table.astype(object)
            flat = table.reshape(-1)
    P._cache["mobius"] = table
    return MobiusTable(P, table)


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


# -- structural predicates ---------------------------------------------------


def is_meet_semilattice(P: FinitePoset) -> bool:
    """Every pair of elements has a greatest lower bound.

    Only two kinds of pairs are tested: two lower covers of one element,
    and two maximal elements, the lower covers of an adjoined top 1.  That
    suffices by this lemma: in a finite poset with a top, if any two
    elements with a common upper cover have a meet, then every pair has one.
    Proof: induct on u; every pair of elements lies below the top.  Let
    x, y <= u, not both below any v < u; if x = u or y = u, the other one is
    the meet.  Else take x <= x' < u and y <= y' < u, both covered by u, and
    let m = x' ^ y', which exists (x' = y' would put x and y below it).
    Every common lower bound of x and y lies below m, so
    x ^ y = (x ^ m) ^ y, and both meets exist by induction: x and m lie
    below x' < u, then x ^ m and y below y' < u.  Adjoining a top changes no
    meet of two elements of P.
    """
    if "meet" not in P._cache:
        # The common down-set of a pair is a principal down-set iff the pair
        # has a meet.
        down = P._down_sets()
        principal = set(down)
        index = P._index
        groups = [[] for _ in range(len(P))]  # the down-sets of u's lower covers
        has_upper = [False] * len(P)
        for a, b in P.covers:
            groups[index[b]].append(down[index[a]])
            has_upper[index[a]] = True
        groups.append([d for d, above in zip(down, has_upper) if not above])  # the maximal ones
        P._cache["meet"] = all(
            principal.issuperset(map(a.__and__, group[k + 1 :]))
            for group in groups
            for k, a in enumerate(group)
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
    if not set(map(type, entry)) <= {item}:
        bad = [x for x in entry if not isinstance(x, item)]
        if bad:
            kind = "string id" if item is str else item.__name__
            raise PosetLabError(f"{what} entry {bad[0]!r} is not a {kind}")
    return tuple(entry)


def json_name(data: dict, default: str) -> str:
    """The "name" of a parsed JSON file, `default` when it has none; a name
    that is not a string raises a PosetLabError that names it."""
    name = data.get("name", default)
    if not isinstance(name, str):
        raise PosetLabError(f"name {name!r} is not a string")
    return name


def poset_from_dict(data: dict) -> FinitePoset:
    name = json_name(data, "poset")
    elements = json_list(data.get("elements"), "elements")
    covers = json_list(data.get("covers"), "covers", list)
    if not set(map(type, chain.from_iterable(covers))) <= {str}:
        covers = [json_list(c, "cover") for c in covers]
    if not set(map(len, covers)) <= {2}:
        bad = next(c for c in covers if len(c) != 2)
        raise PosetLabError(f"cover {list(bad)!r} is not a pair of element ids")
    return FinitePoset.from_covers(elements, covers, name=name)
