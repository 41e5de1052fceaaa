"""Reduced simplicial homology over a prime field.

Orientation convention: faces are sorted vertex tuples, boundary signs come
from removal position, and the empty face sits in degree -1 so homology is
reduced.

Everything comes from one sparse left-to-right column reduction per degree
(`_kernels.rref_inplace`), with clearing: a pivot row i of the reduced
boundary from degree k+1 marks a k-face whose boundary column reduces to zero
(R_{k+1}[j] = ±σ_i + lower terms and ∂R_{k+1}[j] = 0 put ∂σ_i in the span of
earlier columns), so it is skipped.  The ranks give the Betti numbers.  The
columns of degree k that reduce to zero and are not cleared are the essential
ones; the combinations V_j that reduce them form the homology basis, V_j
with leading face j.  Class coordinates reduce a cycle by its largest face
against those V_j and the reduced boundary columns from degree k+1, whose
leading faces are the cleared ones.  No dense matrix is built; bases and
coordinates depend only on the face order.

`reduced_homology` reduces the strong-collapse core of Δ, not Δ itself
(Barmak-Minian, *Strong homotopy types, nerves and collapses*, DCG 2012).
A vertex v is dominated by w ≠ v when every facet holding v also holds w.
Then lk v is a cone with apex w, so Δ collapses onto Δ − v, over ℤ and so
over every field.  Deleting dominated vertices until none is left gives the
core; Boissonnat, Pritam and Pareek (*Strong collapse for persistence*, ESA
2018) shrink complexes the same way before computing homology.  A cone is
the case of one apex in every facet.  When one vertex is left, every
reduced Betti number is 0 and no chain complex is built: Δ(P − 0̂) of a
poset with a maximum is a cone.  Otherwise the core's chain complex is reduced, and its
Betti numbers are padded with zeros up to the dimension of Δ.  Only Betti
numbers come from the core; bases, class coordinates and the scans below
keep the chain complex of Δ itself.  The interval scans gain nothing from
it: in the order complex of an open interval of a lower Eulerian poset
every vertex link is a homology sphere, never a cone, so no vertex is
dominated.

The classifiers read one `LinkScan` per complex, and two identities spare
them most link computations:

- Doubly CM by reuse: lk_{Δ-v}(σ) = lk_Δ(σ) - v.  When σ∪{v} is not a face,
  this is lk_Δ(σ) itself, which the Cohen-Macaulay scan already passed; only
  the faces σ of lk_Δ(v) need new homology.  A CM complex is pure, so Δ - v
  drops dimension exactly when v lies in every facet.
- Buchsbaum* by excision: H_d(Δ, cost σ) ≅ H̃_{d-|σ|}(lk σ) for pure Δ of
  dimension d, and neither side has d-boundaries.  So the map from H_d(Δ) has
  the rank of the rows of a top cycle basis at the d-faces containing σ, and
  the link's top Betti number as codomain.  Each vertex keeps the bitset of
  the d-faces the basis meets that hold it, and the d-faces containing σ are
  the AND of the bitsets of its vertices.  For σ = {v} it is the map
  H̃_d(Δ) → H̃_{d-1}(lk v), which the audit's atom-link check reads off that
  basis.

The order complex Δ(S) of a set S of poset elements needs no link built
at all (`OrderComplexScan`); three more identities reduce its scan to the
homology of open intervals of Ŝ, S with a new bottom 0̂ and top 1̂:

- Links are joins: the link of a chain c_1 < ... < c_k is the join
  Δ(0̂, c_1) * Δ(c_1, c_2) * ... * Δ(c_k, 1̂), and over a field
  β̃_{r+1}(A * B) = sum over i + j = r of β̃_i(A) β̃_j(B) (Künneth;
  Björner-Garsia-Stanley 1982).  In t^(i+1) powers the Betti vectors
  multiply as polynomials, the void complex being 1.  The link of a vertex
  v is Δ(S ∩ (·, v)) * Δ(S ∩ (v, ·)), the order complex of the elements
  comparable with v; for a maximal v it is Δ(S ∩ (·, v)).
- Vertex deletion: Δ(S) - v = Δ(S - v), so deleting v changes only the
  intervals (a, b) with a < v < b, which become (a, b) - v (Baclawski 1980).
  In a link lk_{Δ-v}(σ), with σ∪{v} a chain, v lies in exactly one factor.
- Deletion from a Cohen-Macaulay interval: let Δ = Δ(I) be CM of dimension
  e and v ∈ I.  Excision gives H_k(Δ, Δ - v) ≅ H̃_{k-1}(lk v), so the long
  exact sequence of (Δ, Δ - v) gives H̃_k(Δ - v) = 0 for k < e - 1,
  β̃_{e-1}(Δ - v) = β̃_{e-1}(lk v) - r and β̃_e(Δ - v) = β̃_e(Δ) - r, where r
  is the rank of H̃_e(Δ) → H̃_{e-1}(lk v): by the excision of Buchsbaum*, the
  rank of a top cycle basis restricted to the top chains through v.  Here
  lk v = Δ(I ∩ (·, v)) * Δ(I ∩ (v, ·)), and Δ - v = lk v when v is
  comparable with all of I.  So doubly CM builds no Δ(I - v).

Most verdicts need no face at all; the face loops run only to find the
witness of a verdict that fails:

- Pairs decide CM: Δ(S) is CM iff every open interval of Ŝ has reduced
  homology only in its top degree (Björner-Garsia-Stanley 1982).  A link's
  factors are the intervals S ∩ (a, b), a < b in Ŝ, and each such interval
  is, up to void factors, the link of a face; a join of complexes with
  homology only on top has homology only on top.  So one memoised vector
  per comparable pair decides CM, and CM implies Buchsbaum, since a CM
  complex is pure.  The top coefficient of a join is the product of the
  factors' top coefficients, so the records are then (face, None, product
  of tops), and Δ(S) is Gorenstein* iff every such interval also has top
  Betti number 1.
- Gorenstein* complexes are doubly CM (Baclawski 1980; Stanley,
  *Combinatorics and Commutative Algebra*, ch. III): for a homology sphere
  Δ, Mayer-Vietoris with star(v) makes Δ - v acyclic, and each of its
  links is a sphere or a sphere minus a vertex.  Doubly CM reads no vertex
  deletion then.  The same holds interval by interval: a homology sphere
  minus a vertex is acyclic (Baclawski, *Cohen-Macaulay connectivity and
  geometric lattices*, 1982), so when Δ(I) and, recursively, the intervals
  below and above each of its elements are spheres, every Δ(I - v) has the
  zero vector and no top cycle of Δ(I) is reduced.
- Doubly CM ⇒ Buchsbaum* (Athanasiadis-Welker, *Buchsbaum* complexes*,
  Math. Z. 2012), so Buchsbaum* runs its face loop only when doubly CM fails.
- Small intervals are graphs: an order complex of dimension at most 1 is
  a graph with V vertices, E edges (comparable pairs) and c components,
  with reduced Betti vector (0, c - 1, E - V + c), or (0, n - 1) for an
  antichain of n points, over every field.  No chain complex is built.

A scan also gives its complex's reduced Betti numbers (`betti`) and its
five classifier flags (`classes`).  `poset_scan(P)`, the scan of
Δ(P − 0̂), is the only one the CLI reads for a poset file; facet files take
`LinkScan`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, reduce
from operator import and_

import numpy as np

from . import _kernels, linalg
from .complexes import SimplicialComplex, _maximal_chains
from .errors import OmegaNotOneDimensionalError, PosetLabError
from .linalg import FieldSpec
from .poset import FinitePoset, _bits, rank_profile


class ChainComplexRep:
    """Ordered face lists per degree; the boundary maps are reduced sparsely mod p."""

    def __init__(self, faces_by_degree, p):
        self.p = p
        self.faces = faces_by_degree  # degree -> tuple of faces (sorted tuples)
        self.index = {
            k: {f: i for i, f in enumerate(fs)} for k, fs in faces_by_degree.items()
        }
        self.degrees = sorted(faces_by_degree)
        self._boundary = {}  # degree -> the reduced boundary, (pivots, cycles)

    def size(self, k):
        return len(self.faces.get(k, ()))

    def _column(self, k, face):
        """Sparse column of the boundary of one k-face: {row in degree k-1: sign}."""
        below = self.index.get(k - 1, {})
        col = {}
        for pos in range(len(face)):
            i = below.get(face[:pos] + face[pos + 1 :])
            if i is not None:
                col[i] = 1 if pos % 2 == 0 else self.p - 1
        return col

    def boundary(self, k, skip=frozenset()):
        """The boundary from degree k, one column per k-face; the columns
        indexed in `skip` are left empty, since the reduction passes over
        them."""
        return _kernels.SparseMatrix(
            {} if j in skip else self._column(k, f)
            for j, f in enumerate(self.faces.get(k, ()))
        )

    def _reduce(self, k, track=False):
        """`rref_inplace` of the boundary from degree k, with the pivot rows
        of degree k+1 cleared first: (pivots, cycles if `track`)."""
        done = self._boundary.get(k)
        if done is None or (track and done[1] is None):
            if self.size(k):
                skip = self._reduce(k + 1)[0]
                done = _kernels.rref_inplace(self.boundary(k, skip), self.p, skip, track)
            else:
                done = ({}, {})
            self._boundary[k] = done
        return done

    def boundary_rank(self, k):
        return len(self._reduce(k)[0])

    def betti(self, k):
        n_k = self.size(k)
        if n_k == 0:
            return 0
        return n_k - self.boundary_rank(k) - self.boundary_rank(k + 1)

    def homology_basis(self, k):
        """Cycle representatives {face index: coefficient}, one V_j per
        essential column j in order of j; V_j has leading face j.  Clearing
        passes over the pivot rows of degree k+1, so the columns that reduce
        to zero are exactly the essential ones."""
        return [{**rest, j: 1} for j, rest in self._reduce(k, track=True)[1].items()]

    def class_coordinates(self, k, chains):
        """Coordinates in `homology_basis(k)` of cycles given as {face index:
        value}: one {basis position: coefficient} per chain.

        The chains are written in the reduced boundary columns from degree
        k+1, keyed by pivot row, and the basis cycles, keyed by leading face;
        these leading faces are all distinct.  A chain outside their span is
        not a cycle.
        """
        cycles = self._reduce(k, track=True)[1]
        columns = {**self._reduce(k + 1)[0], **cycles}
        position = {j: n for n, j in enumerate(cycles)}
        out = []
        for coeffs in _kernels.span_coefficients(chains, columns, self.p):
            if coeffs is None:
                raise PosetLabError("chain is not a cycle of the complex")
            out.append({position[j]: c for j, c in coeffs.items() if j in position})
        return out


def _by_degree(faces):
    """{degree: faces} from a tuple of faces listed one size at a time, as
    `SimplicialComplex.faces` lists them: one slice per size."""
    out, start = {}, 0
    while start < len(faces):
        size = len(faces[start])
        end = bisect_right(faces, size, lo=start, key=len)
        out[size - 1] = faces[start:end]
        start = end
    return out


def chain_complex(delta: SimplicialComplex, fld: FieldSpec) -> ChainComplexRep:
    """Augmented chain complex of a complex; degree -1 holds the empty face."""
    return ChainComplexRep(_by_degree(delta.faces()), fld.characteristic)


@dataclass(frozen=True)
class HomologyReport:
    """Betti numbers by dimension (reduced for a single complex, else relative)."""

    betti: dict
    characteristic: int


def reduced_homology(delta: SimplicialComplex, fld: FieldSpec) -> HomologyReport:
    """Reduced Betti numbers from -1 to delta.dim, read off the strong-collapse
    core (module docstring); all zero, with no chain complex, when the core
    is one vertex."""
    core = _strong_core(delta)
    degrees = range(-1, delta.dim + 1)
    if core is None:
        return HomologyReport(dict.fromkeys(degrees, 0), fld.characteristic)
    ccr = chain_complex(core, fld)
    return HomologyReport({k: ccr.betti(k) for k in degrees}, fld.characteristic)


def _strong_core(delta):
    """The strong-collapse core of a complex: delta itself when no vertex is
    dominated, None when one vertex is left.

    A cone is caught by one intersection of its facets.  Otherwise each
    vertex keeps the bitset of the facets holding it; v is dominated by w
    when that bitset lies in w's, and w is then in the first facet holding
    v.  Deleting v shrinks those facets, and each one that now lies in
    another facet is dropped, which can make the vertices of the dropped
    facet dominated in turn; they go back on the worklist.
    """
    facets = delta.facets
    if set(facets[0]).intersection(*facets[1:]):
        return None
    index = {v: i for i, v in enumerate(delta.vertices)}
    cells = [[index[v] for v in f] for f in facets]
    holders = [0] * len(index)
    for j, cell in enumerate(cells):
        for v in cell:
            holders[v] |= 1 << j
    left = len(index)
    work, queued = list(range(len(index))), [True] * len(index)
    while work and left > 1:
        v = work.pop()
        queued[v] = False
        held = holders[v]
        first = cells[(held & -held).bit_length() - 1]
        if not any(w != v and held & holders[w] == held for w in first):
            continue
        holders[v] = 0
        left -= 1
        for j in _bits(held):
            cell = cells[j]
            cell.remove(v)
            inside = ~(1 << j)
            for u in cell:
                inside &= holders[u]
            if inside:
                cells[j] = None
                for u in cell:
                    holders[u] &= ~(1 << j)
                    if not queued[u]:
                        queued[u] = True
                        work.append(u)
    if left == 1:
        return None
    if left == len(index):
        return delta
    names = delta.vertices
    return SimplicialComplex(
        [[names[v] for v in cell] for cell in cells if cell is not None], name=delta.name, _checked=True
    )


@dataclass(frozen=True)
class MaximalIntervalClasses:
    """For each maximal element, the class its open lower interval carries
    into the top homology of the doubly truncated order complex."""

    ambient_dim: int  # dimension of the target homology space
    classes: dict  # maximal element -> coordinate vector (length ambient_dim)


def maximal_interval_classes(P: FinitePoset, fld: FieldSpec) -> MaximalIntervalClasses:
    if rank_profile(P).top_rank < 2:
        raise PosetLabError("interval classes need rank at least 2")
    bottom, maximals = P.minimum(), set(P.maximal_elements())
    return _interval_classes(P, IntervalBetti(P, fld).scan(x for x in P.elements if x != bottom and x not in maximals))


def _interval_classes(P, qbar):
    """`maximal_interval_classes`, given the scan of Δ(Q̄).

    P has rank d, so Δ(Q̄) has no face above degree d − 2 and the map
    H̃_{d−2}(0̂, y) → H̃_{d−2}(Q̄) of a maximal y is the inclusion of cycle
    spaces: its rank is β̃_{d−2}(0̂, y), the size of the interval's own
    homology basis.  When that is 1, the one cycle has the ambient's index
    chains as faces, and its coordinates, scaled so the first nonzero one is
    1, are the class.
    """
    deg = rank_profile(P).top_rank - 2
    iv, p = qbar.intervals, qbar.fld.characteristic
    ambient, _ = qbar.top_complex
    ambient_dim = len(ambient.homology_basis(deg))
    classes = {}
    for y in sorted(P.maximal_elements()):
        interval = iv._complex(qbar.ground & iv.below[P.index(y)])
        basis = interval.homology_basis(deg)
        if len(basis) != 1:
            raise OmegaNotOneDimensionalError(y, len(basis))
        (cycle,) = basis
        index, faces = ambient.index[deg], interval.faces[deg]
        (coords,) = ambient.class_coordinates(deg, [{index[faces[j]]: c for j, c in cycle.items()}])
        column = np.zeros(ambient_dim, dtype=np.int64)
        column[list(coords)] = list(coords.values())
        lead = int(column[np.flatnonzero(column)[0]])
        classes[y] = column * pow(lead, p - 2, p) % p
    return MaximalIntervalClasses(ambient_dim, classes)


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class ComplexClasses:
    cohen_macaulay: bool
    buchsbaum: bool
    doubly_cm: bool
    gorenstein_star: bool
    buchsbaum_star: bool
    witnesses: dict = dataclass_field(default_factory=dict)


def _bad_top(vector):
    """(lowest degree below the top with nonzero homology or None, top Betti
    number) of a reduced Betti vector, degrees -1 up."""
    bad = next((i - 1 for i in range(len(vector) - 1) if vector[i]), None)
    return bad, vector[-1]


def _link_homology(link, fld):
    """`_bad_top` of the link's reduced Betti vector."""
    ccr = chain_complex(link, fld)
    return _bad_top([ccr.betti(i) for i in range(-1, link.dim + 1)])


class LinkScan:
    """Link homology of every face of one complex, computed once, on first use.

    Each face keeps only the two integers of `_link_homology`, in face order,
    so each classifier's (flag, witness) is what a scan of its own would give.
    """

    def __init__(self, delta: SimplicialComplex, fld: FieldSpec):
        self.delta = delta
        self.fld = fld

    @cached_property
    def records(self):
        return [(f, *_link_homology(self.delta.link(f), self.fld)) for f in self.delta.faces()]

    def betti(self):
        """Reduced Betti numbers of the complex, {degree: β̃}, from -1 to its dimension."""
        return reduced_homology(self.delta, self.fld).betti

    def cohen_macaulay(self):
        """Vanishing link homology below top dimension for every face incl. ();
        the witness is the first failing (face, degree)."""
        hit = next(((f, bad) for f, bad, _ in self.records if bad is not None), None)
        return hit is None, hit

    def buchsbaum(self):
        """Pure, with the link condition required only of nonempty faces."""
        if not self.delta.is_pure():
            return False, ("not pure", None)
        hit = next(((f, bad) for f, bad, _ in self.records if f and bad is not None), None)
        return hit is None, hit

    def gorenstein_star(self):
        """Cohen-Macaulay with every link's top Betti number equal to 1."""
        for f, bad, top in self.records:
            if bad is not None or top != 1:
                link_dim = max(len(g) for g in self.delta.facets if set(f) <= set(g)) - len(f) - 1
                return False, (f, link_dim if bad is None else bad)
        return True, None

    def doubly_cm(self):
        """Cohen-Macaulay, and so is every vertex deletion, in the same dimension."""
        ok, wit = self.cohen_macaulay()
        if not ok:
            return False, wit
        delta = self.delta
        for v in delta.vertices:
            if all(v in f for f in delta.facets):
                return False, (v, "dimension drops")
            deleted = delta.delete_vertices([v])
            for sigma in delta.link((v,)).faces():
                bad, _ = _link_homology(deleted.link(sigma), self.fld)
                if bad is not None:
                    return False, (v, (sigma, bad))
        return True, None

    @cached_property
    def top_complex(self):
        """The chain complex of Δ and its dimension d."""
        return chain_complex(self.delta, self.fld), self.delta.dim

    @cached_property
    def top_cycles(self):
        """The rows of a top cycle basis and the vertex bitsets (`_top_rows`)."""
        return _top_rows(*self.top_complex)

    def top_rank(self, face):
        """Rank of H̃_d(Δ) → H̃_{d-|σ|}(lk σ) for a nonempty face σ of a pure Δ
        of dimension d, by excision (see the module docstring): the rows at
        the d-faces that hold every vertex of σ."""
        rows, holders = self.top_cycles
        at = reduce(and_, (holders.get(v, 0) for v in face))
        return linalg.rank((rows[j] for j in _bits(at)), self.fld.characteristic)

    def buchsbaum_star(self):
        """Buchsbaum, plus top homology surjects onto every contrastar pair;
        the witness is the first (face, rank of that map) that falls short."""
        ok, wit = self.buchsbaum()
        if not ok:
            return False, wit
        ranks = ((f, self.top_rank(f), top) for f, _, top in self.records if f and top)
        hit = next(((f, rank) for f, rank, top in ranks if rank < top), None)
        return hit is None, hit

    def classes(self) -> ComplexClasses:
        """The five classifiers' flags, with a first-failure witness per property."""
        names = ("cohen_macaulay", "buchsbaum", "gorenstein_star", "doubly_cm", "buchsbaum_star")
        results = {name: getattr(self, name)() for name in names}
        flags = {name: ok for name, (ok, _) in results.items()}
        witnesses = {name: wit for name, (_, wit) in results.items() if wit is not None}
        return ComplexClasses(**flags, witnesses=witnesses)


def _top_rows(ccr, d):
    """A top cycle basis of a chain complex of dimension d as rows
    {d-face index: {basis position: coefficient}}, for the faces it meets,
    and {vertex: bitset of the d-face indices among those that hold it}."""
    rows = {}
    for n, cycle in enumerate(ccr.homology_basis(d)):
        for j, c in cycle.items():
            rows.setdefault(j, {})[n] = c
    holders = {}
    for j in rows:
        for v in ccr.faces[d][j]:
            holders[v] = holders.get(v, 0) | 1 << j
    return rows, holders


def _chains(members, above):
    """The chains of a set of poset elements given as a bitset, by degree,
    each a tuple of indices going up the order; degree -1 holds ()."""
    faces = {-1: ((),)}
    layer = [((x,), above[x] & members) for x in _bits(members)]
    while layer:
        faces[len(layer[0][0]) - 1] = tuple(c for c, _ in layer)
        layer = [(c + (y,), rest & above[y]) for c, rest in layer for y in _bits(rest)]
    return faces


def _join_vector(a, b):
    """Reduced Betti vector (β̃_-1, ..., β̃_dim) of a join from its
    factors': the product of the polynomials sum β̃_i t^(i+1)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class IntervalBetti:
    """Reduced Betti vectors of the order complexes of sets of elements of
    one poset over one field, each computed once and keyed by its member
    bitset; the scans of `scan` share them."""

    def __init__(self, P: FinitePoset, fld: FieldSpec):
        self.P = P
        self.fld = fld
        self.below = [d ^ 1 << i for i, d in enumerate(P._down_sets())]
        self.above = [u ^ 1 << i for i, u in enumerate(P._up_sets())]
        self.position = [0] * len(P)
        for k, i in enumerate(P._topo):
            self.position[i] = k
        self._memo = {0: (1,)}  # the empty set spans the void complex
        self._spheres = {}  # members -> whether Δ(members) is Gorenstein* (`_is_sphere`)
        self._kept = {}  # members -> the chain complex a scan keeps for its top cycles

    def _complex(self, members):
        """The chain complex of Δ(members), the one a scan keeps if any, so
        that its reductions are shared."""
        got = self._kept.get(members)
        return got if got is not None else ChainComplexRep(_chains(members, self.above), self.fld.characteristic)

    def _vector(self, members):
        got = self._memo.get(members)
        if got is None:
            got = self._graph_vector(members)
            if got is None:
                ccr = self._complex(members)
                got = tuple(ccr.betti(k) for k in range(-1, len(ccr.faces) - 1))
            self._memo[members] = got
        return got

    def _graph_vector(self, members):
        """The vector of a nonempty Δ(members) of dimension at most 1, read
        off the bitsets, or None when it has a chain of three elements: an
        antichain of n points gives (0, n − 1), a graph with V vertices, E
        edges and c components (0, c − 1, E − V + c).  The test for a chain
        of three reads the full up- and down-sets within `members`."""
        above, below = self.above, self.below
        edges = 0
        for x in _bits(members):
            up = above[x] & members
            if up:
                if below[x] & members:
                    return None
                edges += up.bit_count()
        n = members.bit_count()
        if not edges:
            return (0, n - 1)
        components, rest = 0, members
        while rest:
            components += 1
            frontier = rest & -rest
            while frontier:
                rest &= ~frontier
                reach = 0
                for x in _bits(frontier):
                    reach |= above[x] | below[x]
                frontier = reach & rest
        return (0, components - 1, edges - n + components)

    def _is_sphere(self, members):
        """Whether Δ(members) is Gorenstein*: its vector is (0, ..., 0, 1),
        and so, recursively, is that of members ∩ (·, x) and of
        members ∩ (x, ·) for every x in it.  These reach every interval
        members ∩ (a, b), and the link of a chain is the join of such
        intervals, so every link is a homology sphere too."""
        got = self._spheres.get(members)
        if got is None:
            vector = self._vector(members)
            got = vector[-1] == 1 and not any(vector[:-1]) and all(
                self._is_sphere(members & self.below[x]) and self._is_sphere(members & self.above[x])
                for x in _bits(members)
            )
            self._spheres[members] = got
        return got

    def _deleted_vector(self, members, v):
        """The vector of members − v, for an element index v in `members`
        and Δ(members) Cohen-Macaulay; the first call for `members` fills
        the entries of members − u for every u in it (`_deletions`)."""
        key = members & ~(1 << v)
        if key not in self._memo:
            for u, vector in self._deletions(members).items():
                self._memo.setdefault(members & ~(1 << u), vector)
        return self._memo[key]

    def _deletions(self, members):
        """{v: the vector of members − v} for every v in `members`, read off
        the long exact sequence (module docstring) when Δ = Δ(members) is
        Cohen-Macaulay of dimension e; not valid otherwise.  lk v is the join
        of the members below and above v.  If v is comparable with all of
        them, Δ − v = lk v.  Else Δ − v keeps dimension e and its vector is
        zero below e − 1, with β̃_{e−1}(lk v) − r and β̃_e(Δ) − r on top,
        where r is the rank of the restriction of a top cycle basis of Δ to
        the top chains through v.  A Gorenstein* Δ (`_is_sphere`) minus a
        vertex is acyclic (module docstring), so it needs none of this."""
        top = self._vector(members)
        e = len(top) - 2
        if self._is_sphere(members):
            return dict.fromkeys(_bits(members), (0,) * (e + 2))
        links = {
            v: _join_vector(self._vector(members & self.below[v]), self._vector(members & self.above[v]))
            for v in _bits(members)
        }
        rows, holders = {}, {}
        if top[-1] and any(lk[-1] for lk in links.values()):
            rows, holders = _top_rows(self._complex(members), e)
        out = {}
        for v, lk in links.items():
            if not members & ~(self.above[v] | self.below[v] | 1 << v):
                out[v] = tuple(lk)
            else:
                r = 0
                if lk[-1] and v in holders:
                    r = linalg.rank((rows[j] for j in _bits(holders[v])), self.fld.characteristic)
                out[v] = (0,) * e + (lk[-1] - r, top[-1] - r)
        return out

    def scan(self, members):
        """The `OrderComplexScan` of Δ(members)."""
        ground = sum(1 << self.P.index(x) for x in members)
        return OrderComplexScan(self, ground)


class OrderComplexScan(LinkScan):
    """The `LinkScan` of the order complex Δ(S) of a set S of elements,
    `ground`, read off interval Betti vectors.

    The link of a chain c of S is the join of the order complexes of the
    intervals S ∩ (a, b) over consecutive a < b in 0̂ < c < 1̂.  Deleting a
    vertex u from Δ(S) deletes it from the one interval that holds it.
    Records and witnesses come in the face order of the chain-level scan,
    so every classifier gives the same answer.
    """

    def __init__(self, intervals: IntervalBetti, ground: int):
        self.intervals = intervals
        self.fld = intervals.fld
        self.ground = ground  # member bitset of S

    @cached_property
    def delta(self):
        """Δ(S), whose facets are the maximal chains of S: they go up the
        covers within S, read off the bitsets, from the minimal elements of
        S.  No subposet is built."""
        iv = self.intervals
        names, S = iv.P.elements, self.ground
        if not S:
            return SimplicialComplex.void()
        covers = []
        for x in _bits(S):
            up = iv.above[x] & S
            covers += [(names[x], names[y]) for y in _bits(up) if not up & iv.below[y]]
        starts = [names[x] for x in _bits(S) if not iv.below[x] & S]
        return SimplicialComplex(_maximal_chains(covers, starts), name=f"chains({iv.P.name}|sub)", _checked=True)

    def _intervals(self, chain):
        """The member bitsets of the intervals (a, b) over consecutive
        a < b in 0̂ < chain < 1̂, for a chain of element indices going up."""
        iv, lower = self.intervals, self.ground
        for x in chain:
            yield lower & iv.below[x]
            lower = self.ground & iv.above[x]
        yield lower

    def _chain(self, face):
        """A face as element indices going up."""
        iv = self.intervals
        return sorted(map(iv.P.index, face), key=iv.position.__getitem__)

    def _link_vector(self, face, drop=None):
        """Reduced Betti vector of the link of a face, as a join of
        intervals; the element index `drop` is deleted from the one that
        holds it, which must be Cohen-Macaulay (see `doubly_cm`)."""
        iv = self.intervals
        vector = (1,)
        for members in self._intervals(self._chain(face)):
            if drop is not None and members >> drop & 1:
                vector = _join_vector(vector, iv._deleted_vector(members, drop))
            else:
                vector = _join_vector(vector, iv._vector(members))
        return vector

    def link_top(self, face):
        """The top Betti number of the link of a face: the product of the
        top Betti numbers of its intervals (Künneth)."""
        vectors = self.intervals._vector
        top = 1
        for members in self._intervals(self._chain(face)):
            top *= vectors(members)[-1]
        return top

    @cached_property
    def _pair_test(self):
        """Whether each open interval S ∩ (a, b) of Ŝ has homology only in
        its top degree.  These are all the intervals that links of Δ(S) are
        joins of, and each is, up to void factors, the link of a face, so
        Δ(S) is Cohen-Macaulay exactly when this passes."""
        iv, S = self.intervals, self.ground
        seen = set()
        for low in [S, *(S & iv.above[a] for a in _bits(S))]:
            seen.add(low)
            seen.update(low & iv.below[b] for b in _bits(low))
        return not any(any(iv._vector(members)[:-1]) for members in sorted(seen, key=int.bit_count))

    @cached_property
    def records(self):
        """As `LinkScan.records`.  Past the pair test (`_pair_test`) every
        link has homology only in its top degree, and its top Betti
        number is `link_top`; no join is formed."""
        if not self._pair_test:
            return [(f, *_bad_top(self._link_vector(f))) for f in self.delta.faces()]
        return [(f, None, self.link_top(f)) for f in self.delta.faces()]

    def cohen_macaulay(self):
        """As `LinkScan.cohen_macaulay`; the face loop runs only when the
        pair test fails, to find the witness."""
        if self._pair_test:
            return True, None
        return super().cohen_macaulay()

    def buchsbaum(self):
        """As `LinkScan.buchsbaum`: a Cohen-Macaulay complex is pure, so the
        pair test decides it when it passes."""
        if self._pair_test:
            return True, None
        return super().buchsbaum()

    def gorenstein_star(self):
        """As `LinkScan.gorenstein_star`; the sphere test of S decides it
        when it passes (`IntervalBetti._is_sphere`)."""
        if self.intervals._is_sphere(self.ground):
            return True, None
        return super().gorenstein_star()

    def buchsbaum_star(self):
        """As `LinkScan.buchsbaum_star`: a doubly CM complex is Buchsbaum*
        (module docstring); otherwise the face loop decides."""
        if self.doubly_cm()[0]:
            return True, None
        return super().buchsbaum_star()

    def betti(self):
        """As `LinkScan.betti`: the link of the empty face is Δ(S)."""
        return dict(enumerate(self._link_vector(()), -1))

    @cached_property
    def top_complex(self):
        """As `LinkScan.top_complex`, on the chains of S as index tuples; the
        memo keeps it for the vector and the vertex deletions of S."""
        iv = self.intervals
        ccr = iv._kept[self.ground] = iv._complex(self.ground)
        return ccr, len(ccr.faces) - 2

    def top_rank(self, face):
        """As `LinkScan.top_rank`; the face's vertices become element indices."""
        return super().top_rank(tuple(map(self.intervals.P.index, face)))

    def doubly_cm(self):
        """As `LinkScan.doubly_cm`, computed once per scan (`_doubly_cm`)."""
        return self._doubly_cm

    @cached_property
    def _doubly_cm(self):
        """`doubly_cm`.  lk_{Δ-v}(σ) is the join of the intervals of σ with v
        deleted from the one that holds it, (a, b) with a and b consecutive
        around v in 0̂ < σ ∪ {v} < 1̂.

        A Gorenstein* complex passes at once (module docstring).  Past
        `cohen_macaulay()`, every interval of a link is itself the link of a
        face of Δ(S) (join it with maximal chains of the other intervals),
        so it is Cohen-Macaulay, and the vector of (a, b) − v
        comes from the long exact sequence (`IntervalBetti._deletions`).
        That rule holds only there: the scans of one memo share these
        entries, and each is the true vector of its member set.  The
        vectors of the other intervals are zero below the top, so the only
        entry of lk_{Δ-v}(σ) below its top is β̃_{e−1}((a, b) − v) times
        their tops.  A vertex for which that number is 0 on every such
        (a, b) passes without its face loop; otherwise the loop runs in
        face order, so the witness is the chain-level scan's.  Vertices go
        in name order, the order of `delta.vertices`, without building Δ."""
        ok, wit = self.cohen_macaulay()
        if not ok:
            return False, wit
        iv, S = self.intervals, self.ground
        if iv._is_sphere(S):
            return True, None
        names = iv.P.elements
        with_vertex = None
        for i in sorted(_bits(S), key=names.__getitem__):
            v = names[i]
            # v lies in every facet when it is comparable with every vertex.
            if not S & ~(iv.above[i] | iv.below[i] | 1 << i):
                return False, (v, "dimension drops")
            if all(_bad_top(iv._deleted_vector(m, i))[0] is None for m in self._around(i)):
                continue
            if with_vertex is None:
                # vertex -> the faces holding it, in face order; taking the
                # vertex out keeps that order, so these run through lk(v) in
                # its face order.
                with_vertex = {}
                for f in self.delta.faces():
                    for u in f:
                        with_vertex.setdefault(u, []).append(f)
            for f in with_vertex[v]:
                sigma = tuple(x for x in f if x != v)
                bad, _ = _bad_top(self._link_vector(sigma, drop=i))
                if bad is not None:
                    return False, (v, (sigma, bad))
        return True, None

    def _around(self, i):
        """The member bitsets of the intervals (a, b) that hold the vertex i
        in the links of the faces of lk(i): a and b are consecutive around i
        in 0̂ < σ ∪ {i} < 1̂ for some face σ, so a is 0̂ or below i and b is
        1̂ or above it."""
        iv, S = self.intervals, self.ground
        bottoms = [S, *(S & iv.above[a] for a in _bits(S & iv.below[i]))]
        tops = [S, *(S & iv.below[b] for b in _bits(S & iv.above[i]))]
        return [m & n for m in bottoms for n in tops]


def poset_scan(P: FinitePoset, fld: FieldSpec) -> OrderComplexScan:
    """The `OrderComplexScan` of Δ(P − 0̂), on a memo of its own; the
    NoMinimumError of `P.minimum()` when P has no minimum."""
    bottom = P.minimum()
    return IntervalBetti(P, fld).scan(x for x in P.elements if x != bottom)

