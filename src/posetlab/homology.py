"""Reduced and relative simplicial homology over a prime field.

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

The classifiers read one `LinkScan` per complex, and two identities spare
them most link computations:

- Doubly CM by reuse: lk_{Δ-v}(σ) = lk_Δ(σ) - v.  When σ∪{v} is not a face,
  this is lk_Δ(σ) itself, which the Cohen-Macaulay scan already passed; only
  the faces σ of lk_Δ(v) need new homology.  A CM complex is pure, so Δ - v
  drops dimension exactly when v lies in every facet.
- Buchsbaum* by excision: H_d(Δ, cost σ) ≅ H̃_{d-|σ|}(lk σ) for pure Δ of
  dimension d, and neither side has d-boundaries.  So the map from H_d(Δ) has
  the rank of the rows of a top cycle basis at the d-faces containing σ, and
  the link's top Betti number as codomain.  For σ = {v} it is the map
  H̃_d(Δ) → H̃_{d-1}(lk v), which the audit's atom-link check reads off that
  basis.

An order complex Δ(X) needs no link built at all (`OrderComplexScan`); three
more identities reduce its scan to the homology of open intervals of X̂,
X with a new bottom 0̂ and top 1̂:

- Links are joins: the link of a chain c_1 < ... < c_k is the join
  Δ(0̂, c_1) * Δ(c_1, c_2) * ... * Δ(c_k, 1̂), and over a field
  β̃_{r+1}(A * B) = sum over i + j = r of β̃_i(A) β̃_j(B) (Künneth;
  Björner-Garsia-Stanley 1982).  In t^(i+1) powers the Betti vectors
  multiply as polynomials, the void complex being 1.
- Vertex deletion: Δ(X) - v = Δ(X - v), so deleting v changes only the
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

A scan also gives its complex's reduced Betti numbers (`betti`) and the five
flags of `classify` (`classes`).  `poset_scan(P)`, the scan of Δ(P − 0̂), is
the only one the CLI reads for a poset file; facet files take `LinkScan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import _kernels, linalg
from .complexes import SimplicialComplex, is_subcomplex, order_complex
from .errors import (
    FaceNotInComplexError,
    NotASubcomplexError,
    OmegaNotOneDimensionalError,
    PosetLabError,
)
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

    def verify_boundary_identity(self):
        """dd = 0 on every face, as an exact sum mod p."""
        for k in self.degrees:
            for face in self.faces[k]:
                total = {}
                for i, s in self._column(k, face).items():
                    for h, t in self._column(k - 1, self.faces[k - 1][i]).items():
                        total[h] = (total.get(h, 0) + s * t) % self.p
                if any(total.values()):
                    return False
        return True


def chain_complex(delta: SimplicialComplex, fld: FieldSpec) -> ChainComplexRep:
    """Augmented chain complex of a complex; degree -1 holds the empty face."""
    by_deg = {}
    for f in delta.faces():
        by_deg.setdefault(len(f) - 1, []).append(f)
    faces = {k: tuple(fs) for k, fs in by_deg.items()}
    return ChainComplexRep(faces, fld.characteristic)


def relative_chain_complex(
    delta: SimplicialComplex, gamma: SimplicialComplex, fld: FieldSpec
) -> ChainComplexRep:
    """Quotient complex on the faces of delta that are not in gamma."""
    if not is_subcomplex(gamma, delta):
        missing = next(f for f in gamma.facets if f not in delta.face_set())
        raise NotASubcomplexError(missing)
    gamma_faces = gamma.face_set()
    by_deg = {}
    for f in delta.faces():
        if f not in gamma_faces:
            by_deg.setdefault(len(f) - 1, []).append(f)
    if not by_deg:
        by_deg = {0: []}
    faces = {k: tuple(fs) for k, fs in by_deg.items()}
    return ChainComplexRep(faces, fld.characteristic)


@dataclass(frozen=True)
class HomologyReport:
    """Betti numbers by dimension (reduced for a single complex, else relative)."""

    betti: dict
    characteristic: int

    def alternating_sum(self):
        return sum((-1) ** (k % 2) * b for k, b in self.betti.items())


def reduced_homology(delta: SimplicialComplex, fld: FieldSpec) -> HomologyReport:
    ccr = chain_complex(delta, fld)
    betti = {k: ccr.betti(k) for k in range(-1, delta.dim + 1)}
    return HomologyReport(betti, fld.characteristic)


def relative_homology(
    delta: SimplicialComplex, gamma: SimplicialComplex, fld: FieldSpec
) -> HomologyReport:
    ccr = relative_chain_complex(delta, gamma, fld)
    betti = {k: ccr.betti(k) for k in range(0, delta.dim + 1)}
    return HomologyReport(betti, fld.characteristic)


@dataclass(frozen=True)
class MaximalIntervalClasses:
    """For each maximal element, the class its open lower interval carries
    into the top homology of the doubly truncated order complex."""

    ambient_dim: int  # dimension of the target homology space
    classes: dict  # maximal element -> coordinate vector (length ambient_dim)


def maximal_interval_classes(P: FinitePoset, fld: FieldSpec) -> MaximalIntervalClasses:
    if rank_profile(P).top_rank < 2:
        raise PosetLabError("interval classes need rank at least 2")
    return _interval_classes(P, IntervalBetti(P, fld).scan(P.remove_maximal().remove_min().elements))


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
        interval = iv._complex(qbar.vertex_set & iv.below[P.index(y)])
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


def _link_homology(link, fld):
    """(lowest degree below the top with nonzero homology or None, top Betti number)."""
    ccr = chain_complex(link, fld)
    bad = next((i for i in range(-1, link.dim) if ccr.betti(i) != 0), None)
    return bad, ccr.betti(link.dim)


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

    def vertex_link(self, v):
        """The scan of lk(v), read off this one: lk_{lk v}(σ) = lk(σ ∪ {v})."""
        scan = LinkScan(self.delta.link((v,)), self.fld)
        by_face = {f: rest for f, *rest in self.records}
        scan.records = [(s, *by_face[tuple(sorted(s + (v,)))]) for s in scan.delta.faces()]
        return scan

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
        """The rows of a top cycle basis per d-face index (`_top_rows`) and
        the d-faces holding each nonempty face."""
        ccr, d = self.top_complex
        holders = {}
        for j, facet in enumerate(ccr.faces.get(d, ())):
            for k in range(1, len(facet) + 1):
                for sub in combinations(facet, k):
                    holders.setdefault(sub, []).append(j)
        return _top_rows(ccr, d), holders

    def top_rank(self, face):
        """Rank of H̃_d(Δ) → H̃_{d-|σ|}(lk σ) for a nonempty face σ of a pure Δ
        of dimension d, by excision (see the module docstring)."""
        rows, holders = self.top_cycles
        restricted = (rows.get(j, {}) for j in holders.get(face, ()))
        return linalg.rank(restricted, self.fld.characteristic)

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
    {d-face index: {basis position: coefficient}}, for the faces it meets."""
    rows = {}
    for n, cycle in enumerate(ccr.homology_basis(d)):
        for j, c in cycle.items():
            rows.setdefault(j, {})[n] = c
    return rows


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


def _bad_top(vector):
    """`_link_homology` read off a reduced Betti vector."""
    bad = next((i - 1 for i in range(len(vector) - 1) if vector[i]), None)
    return bad, vector[-1]


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
        self._kept = {}  # members -> the chain complex a scan keeps for its top cycles

    def _complex(self, members):
        """The chain complex of Δ(members), the one a scan keeps if any, so
        that its reductions are shared."""
        got = self._kept.get(members)
        return got if got is not None else ChainComplexRep(_chains(members, self.above), self.fld.characteristic)

    def _vector(self, members):
        got = self._memo.get(members)
        if got is None:
            ccr = self._complex(members)
            got = self._memo[members] = tuple(ccr.betti(k) for k in range(-1, len(ccr.faces) - 1))
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
        the top chains through v."""
        top = self._vector(members)
        e = len(top) - 2
        links = {
            v: _join_vector(self._vector(members & self.below[v]), self._vector(members & self.above[v]))
            for v in _bits(members)
        }
        through = {}  # v -> the rows of the top cycle basis at top chains through v
        if top[-1] and any(lk[-1] for lk in links.values()):
            ccr = self._complex(members)
            for j, row in _top_rows(ccr, e).items():
                for v in ccr.faces[e][j]:
                    through.setdefault(v, []).append(row)
        out = {}
        for v, lk in links.items():
            if not members & ~(self.above[v] | self.below[v] | 1 << v):
                out[v] = tuple(lk)
            else:
                r = linalg.rank(through[v], self.fld.characteristic) if lk[-1] and v in through else 0
                out[v] = (0,) * e + (lk[-1] - r, top[-1] - r)
        return out

    def scan(self, members):
        """The `OrderComplexScan` of Δ(members)."""
        ground = sum(1 << self.P.index(x) for x in members)
        return OrderComplexScan(self, ground, ())


class OrderComplexScan(LinkScan):
    """The `LinkScan` of an order complex, read off interval Betti vectors.

    The complex is Δ(V): V holds the elements of a ground set S that are
    comparable with every element of a fixed chain B and not in B.  B is
    empty except in `vertex_link`.  The link of a chain c of V is the join
    of the order complexes of S ∩ (a, b) over consecutive a < b in
    0̂ < c ∪ B < 1̂.  Deleting a vertex u from Δ(V) deletes it from the one
    interval that holds it.  Records and witnesses come in the face order
    of the chain-level scan, so every classifier gives the same answer.
    """

    def __init__(self, intervals: IntervalBetti, ground: int, base: tuple):
        self.intervals = intervals
        self.fld = intervals.fld
        self.ground = ground
        self.base = base  # element indices
        for b in base:
            ground &= intervals.above[b] | intervals.below[b]
        self.vertex_set = ground

    @cached_property
    def delta(self):
        P = self.intervals.P
        members = [P.elements[i] for i in _bits(self.vertex_set)]
        return order_complex(P.induced(members)) if members else SimplicialComplex.void()

    def _intervals(self, chain):
        """The member bitsets of the intervals (a, b) over consecutive
        a < b in 0̂ < chain < 1̂, for a chain of element indices going up."""
        iv, lower = self.intervals, self.ground
        for x in chain:
            yield lower & iv.below[x]
            lower = self.ground & iv.above[x]
        yield lower

    def _link_vector(self, face, drop=None):
        """Reduced Betti vector of the link of a face, as a join of
        intervals; the element index `drop` is deleted from the one that
        holds it, which must be Cohen-Macaulay (see `doubly_cm`)."""
        iv = self.intervals
        chain = sorted([*map(iv.P.index, face), *self.base], key=iv.position.__getitem__)
        vector = (1,)
        for members in self._intervals(chain):
            if drop is not None and members >> drop & 1:
                vector = _join_vector(vector, iv._deleted_vector(members, drop))
            else:
                vector = _join_vector(vector, iv._vector(members))
        return vector

    @cached_property
    def records(self):
        return [(f, *_bad_top(self._link_vector(f))) for f in self.delta.faces()]

    def betti(self):
        """As `LinkScan.betti`: the link of the empty face is Δ(V)."""
        return dict(enumerate(self._link_vector(()), -1))

    @cached_property
    def top_complex(self):
        """As `LinkScan.top_complex`, on the chains of V as index tuples; the
        memo keeps it for the vector and the vertex deletions of V."""
        iv = self.intervals
        ccr = iv._kept[self.vertex_set] = iv._complex(self.vertex_set)
        return ccr, len(ccr.faces) - 2

    def top_rank(self, face):
        """As `LinkScan.top_rank`; the face becomes its chain of indices."""
        iv = self.intervals
        return super().top_rank(tuple(sorted(map(iv.P.index, face), key=iv.position.__getitem__)))

    def vertex_link(self, v):
        """The scan of lk(v): v joins the fixed chain."""
        i = self.intervals.P.index(v)
        if not self.vertex_set >> i & 1:
            raise FaceNotInComplexError((v,))
        return OrderComplexScan(self.intervals, self.ground, self.base + (i,))

    def doubly_cm(self):
        """As `LinkScan.doubly_cm`; lk_{Δ-v}(σ) is the join of the intervals
        of σ with v deleted from the one that holds it, (a, b) with a and b
        consecutive around v in 0̂ < σ ∪ B < 1̂.

        Past `cohen_macaulay()`, every interval of a link is itself the link
        of a face of Δ(V) (join it with maximal chains of the other
        intervals), so it is Cohen-Macaulay, and the vector of (a, b) − v
        comes from the long exact sequence (`IntervalBetti._deletions`).
        That rule holds only there: the scans of one memo share these
        entries, and each is the true vector of its member set.  The
        vectors of the other intervals are zero below the top, so the only
        entry of lk_{Δ-v}(σ) below its top is β̃_{e−1}((a, b) − v) times
        their tops.  A vertex for which that number is 0 on every such
        (a, b) passes without its face loop; otherwise the loop runs in
        face order, so the witness is the chain-level scan's."""
        ok, wit = self.cohen_macaulay()
        if not ok:
            return False, wit
        iv = self.intervals
        with_vertex = None
        for v in self.delta.vertices:
            i = iv.P.index(v)
            # v lies in every facet when it is comparable with every vertex.
            if not self.vertex_set & ~(iv.above[i] | iv.below[i] | 1 << i):
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
        in 0̂ < σ ∪ B < 1̂ for some face σ."""
        iv = self.intervals
        lower = [x for x in self.base if iv.below[i] >> x & 1]
        upper = [x for x in self.base if iv.above[i] >> x & 1]
        # The intervals of B around i, then every element of V inside them.
        low = self.ground & (iv.above[max(lower, key=iv.position.__getitem__)] if lower else -1)
        high = self.ground & (iv.below[min(upper, key=iv.position.__getitem__)] if upper else -1)
        bottoms = [low] + [self.ground & iv.above[a] for a in _bits(low & iv.below[i])]
        tops = [high] + [self.ground & iv.below[b] for b in _bits(high & iv.above[i])]
        return [m & n for m in bottoms for n in tops]


def is_cohen_macaulay(delta: SimplicialComplex, fld: FieldSpec):
    """`LinkScan.cohen_macaulay` of a fresh scan."""
    return LinkScan(delta, fld).cohen_macaulay()


def is_buchsbaum(delta: SimplicialComplex, fld: FieldSpec):
    """`LinkScan.buchsbaum` of a fresh scan."""
    return LinkScan(delta, fld).buchsbaum()


def is_doubly_cm(delta: SimplicialComplex, fld: FieldSpec):
    """`LinkScan.doubly_cm` of a fresh scan."""
    return LinkScan(delta, fld).doubly_cm()


def is_buchsbaum_star(delta: SimplicialComplex, fld: FieldSpec):
    """`LinkScan.buchsbaum_star` of a fresh scan."""
    return LinkScan(delta, fld).buchsbaum_star()


def classify(delta: SimplicialComplex, fld: FieldSpec) -> ComplexClasses:
    """Cohen-Macaulay, Buchsbaum, doubly CM, Gorenstein*, Buchsbaum* flags
    with a first-failure witness per property, all from one link scan."""
    return LinkScan(delta, fld).classes()


def poset_scan(P: FinitePoset, fld: FieldSpec) -> OrderComplexScan:
    """The `OrderComplexScan` of Δ(P − 0̂), on a memo of its own; the
    NoMinimumError of `P.minimum()` when P has no minimum."""
    bottom = P.minimum()
    return IntervalBetti(P, fld).scan(x for x in P.elements if x != bottom)


def poset_is_cohen_macaulay(P: FinitePoset, fld: FieldSpec):
    """A poset with minimum is CM exactly when the order complex of the
    poset minus its minimum is; the cone over the minimum adds nothing."""
    return poset_scan(P, fld).cohen_macaulay()
