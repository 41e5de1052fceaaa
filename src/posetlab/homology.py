"""Reduced and relative simplicial homology over a prime field.

Orientation convention: faces are sorted vertex tuples, boundary signs come
from removal position, and the empty face sits in degree -1 so homology is
reduced.  All bases (cycle representatives, induced-map matrices) are the
deterministic output of dense left-to-right column reduction.

Betti numbers need only ranks, and those come from sparse column reduction
with clearing: a pivot row i of the reduced boundary from degree k+1 marks a
k-face whose boundary column reduces to zero (R_{k+1}[j] = ±σ_i + lower terms
and ∂R_{k+1}[j] = 0 put ∂σ_i in the span of earlier columns), so it is
skipped.  No dense matrix is built for a rank.

The classifiers read one `LinkScan` per complex, and two identities spare
them most link computations:

- Doubly CM by reuse: lk_{Δ-v}(σ) = lk_Δ(σ) - v.  When σ∪{v} is not a face,
  this is lk_Δ(σ) itself, which the Cohen-Macaulay scan already passed; only
  the faces σ of lk_Δ(v) need new homology.  A CM complex is pure, so Δ - v
  drops dimension exactly when v lies in every facet.
- Buchsbaum* by excision: H_d(Δ, cost σ) ≅ H̃_{d-|σ|}(lk σ) for pure Δ of
  dimension d, and neither Δ nor the pair has d-boundaries.  So the map from
  H_d(Δ) has the rank of the rows of a top cycle basis that index d-faces
  containing σ, and its codomain has the link's top Betti number.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import linalg
from .complexes import (
    SimplicialComplex,
    is_subcomplex,
    open_interval_complex,
    order_complex,
    reduced_order_complex,
)
from .errors import (
    NotASubcomplexError,
    OmegaNotOneDimensionalError,
    PosetLabError,
    UnknownVertexError,
)
from .linalg import FieldSpec
from .poset import FinitePoset, rank_profile


class ChainComplexRep:
    """Ordered face lists per degree plus boundary matrices mod p."""

    def __init__(self, faces_by_degree, p):
        self.p = p
        self.faces = faces_by_degree  # degree -> tuple of faces (sorted tuples)
        self.index = {
            k: {f: i for i, f in enumerate(fs)} for k, fs in faces_by_degree.items()
        }
        self.degrees = sorted(faces_by_degree)
        self._boundary = {}
        self._pivots = {}
        self._hbasis = {}

    def size(self, k):
        return len(self.faces.get(k, ()))

    def boundary(self, k):
        """Matrix of the boundary map from degree k to degree k-1."""
        if k in self._boundary:
            return self._boundary[k]
        mat = np.zeros((self.size(k - 1), self.size(k)), dtype=np.int64)
        if mat.size:
            for j, face in enumerate(self.faces[k]):
                for i, sign in self._column(k, face).items():
                    mat[i, j] = sign
        self._boundary[k] = mat
        return mat

    def _column(self, k, face):
        """Sparse column of the boundary of one k-face: {row in degree k-1: sign}."""
        below = self.index[k - 1]
        col = {}
        for pos in range(len(face)):
            i = below.get(face[:pos] + face[pos + 1 :])
            if i is not None:
                col[i] = 1 if pos % 2 == 0 else self.p - 1
        return col

    def _pivot_rows(self, k):
        """Pivot rows of the sparse reduction of the boundary from degree k,
        with the pivot rows of degree k+1 cleared first."""
        if k not in self._pivots:
            if not (self.size(k) and self.size(k - 1)):
                self._pivots[k] = set()
            else:
                skip = self._pivot_rows(k + 1)
                cols = (self._column(k, f) for f in self.faces[k])
                self._pivots[k] = linalg.sparse_pivot_rows(cols, self.p, skip)
        return self._pivots[k]

    def boundary_rank(self, k):
        return len(self._pivot_rows(k))

    def betti(self, k):
        n_k = self.size(k)
        if n_k == 0:
            return 0
        return n_k - self.boundary_rank(k) - self.boundary_rank(k + 1)

    def cycle_space(self, k):
        return linalg.nullspace(self.boundary(k), self.p)

    def homology_basis(self, k):
        """Cycle representatives: columns of the returned (n_k x betti_k) matrix."""
        if k not in self._hbasis:
            cycles = self.cycle_space(k)
            bound = self.boundary(k + 1)
            stacked = np.concatenate([bound, cycles], axis=1)
            _, piv = linalg.rref(stacked, self.p)
            chosen = [c - bound.shape[1] for c in piv if c >= bound.shape[1]]
            self._hbasis[k] = cycles[:, chosen]
        return self._hbasis[k]

    def class_coordinates(self, k, chain_vectors):
        """Coordinates of cycle columns in the chosen homology basis."""
        basis = self.homology_basis(k)
        bound = self.boundary(k + 1)
        system = np.concatenate([bound, basis], axis=1)
        sols, ok = linalg.solve_many(system, chain_vectors, self.p)
        if not ok.all():
            raise PosetLabError("chain is not a cycle of the complex")
        return sols[bound.shape[1] :, :]

    def verify_boundary_identity(self):
        """dd = 0 as an exact matrix statement in every degree."""
        for k in self.degrees:
            prod = (self.boundary(k) @ self.boundary(k + 1)) % self.p
            if prod.size and prod.any():
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

    def top_dim(self):
        return max(self.betti) if self.betti else -1


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
class InducedMapReport:
    """An induced map on homology in explicit chosen bases."""

    domain_dim: int
    codomain_dim: int
    rank: int
    matrix: np.ndarray  # codomain_dim x domain_dim, entries mod p

    @property
    def surjective(self):
        return self.rank == self.codomain_dim


def _induced_report(src_ccr, src_deg, dst_ccr, dst_deg, chain_map, p):
    """Push the source homology basis through a chain-level map."""
    basis = src_ccr.homology_basis(src_deg)
    b_src = basis.shape[1]
    b_dst = dst_ccr.betti(dst_deg)
    if b_src == 0 or b_dst == 0:
        matrix = np.zeros((b_dst, b_src), dtype=np.int64)
        return InducedMapReport(b_src, b_dst, 0, matrix)
    images = (chain_map @ basis) % p
    coords = dst_ccr.class_coordinates(dst_deg, images)
    return InducedMapReport(b_src, b_dst, linalg.rank(coords, p), coords)


def induced_inclusion_map(
    delta: SimplicialComplex,
    gamma: SimplicialComplex,
    dim: int,
    fld: FieldSpec,
) -> InducedMapReport:
    """The canonical map from reduced homology of delta to homology of the
    pair (delta, gamma), computed from the chain-level projection."""
    src = chain_complex(delta, fld)
    dst = relative_chain_complex(delta, gamma, fld)
    return _induced_report(
        src, dim, dst, dim, _projection_matrix(src, dst, dim), fld.characteristic
    )


def _projection_matrix(src, dst, k):
    mat = np.zeros((dst.size(k), src.size(k)), dtype=np.int64)
    dst_index = dst.index.get(k, {})
    for j, face in enumerate(src.faces.get(k, ())):
        i = dst_index.get(face)
        if i is not None:
            mat[i, j] = 1
    return mat


def vertex_link_map(
    gamma: SimplicialComplex, v, fld: FieldSpec
) -> InducedMapReport:
    """Top homology of gamma mapped onto the link of v one degree down.

    Chain level: a face containing v maps to the face minus v, signed by the
    position of v; faces without v map to zero.
    """
    if v not in gamma.vertices:
        raise UnknownVertexError(v)
    k = gamma.dim
    link = gamma.link((v,))
    src = chain_complex(gamma, fld)
    dst = chain_complex(link, fld)
    p = fld.characteristic
    mat = np.zeros((dst.size(k - 1), src.size(k)), dtype=np.int64)
    dst_index = dst.index.get(k - 1, {})
    for j, face in enumerate(src.faces.get(k, ())):
        if v not in face:
            continue
        pos = face.index(v)
        reduced = face[:pos] + face[pos + 1 :]
        i = dst_index.get(reduced)
        if i is not None:
            mat[i, j] = 1 if pos % 2 == 0 else p - 1
    return _induced_report(src, k, dst, k - 1, mat, p)


@dataclass(frozen=True)
class MaximalIntervalClasses:
    """For each maximal element, the class its open lower interval carries
    into the top homology of the doubly truncated order complex."""

    ambient_dim: int  # dimension of the target homology space
    classes: dict  # maximal element -> coordinate vector (length ambient_dim)


def maximal_interval_classes(P: FinitePoset, fld: FieldSpec) -> MaximalIntervalClasses:
    profile = rank_profile(P)
    d = profile.top_rank
    if d < 2:
        raise PosetLabError("interval classes need rank at least 2")
    bottom = P.minimum()
    q_bar = P.remove_maximal().remove_min()
    ambient = order_complex(q_bar)
    amb_ccr = chain_complex(ambient, fld)
    deg = d - 2
    ambient_dim = amb_ccr.betti(deg)
    p = fld.characteristic
    classes = {}
    for y in sorted(P.maximal_elements()):
        interval = open_interval_complex(P, bottom, y)
        src = chain_complex(interval, fld)
        inclusion = np.zeros((amb_ccr.size(deg), src.size(deg)), dtype=np.int64)
        amb_index = amb_ccr.index.get(deg, {})
        for j, face in enumerate(src.faces.get(deg, ())):
            inclusion[amb_index[face], j] = 1
        report = _induced_report(src, deg, amb_ccr, deg, inclusion, p)
        if report.rank != 1:
            raise OmegaNotOneDimensionalError(y, report.rank)
        reduced = linalg.rref(report.matrix.T, p)[0].T
        first = np.flatnonzero(reduced.any(axis=0))[0]
        classes[y] = reduced[:, first].copy()
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

    def buchsbaum_star(self):
        """Buchsbaum, plus top homology surjects onto every contrastar pair;
        the witness is the first (face, rank of that map) that falls short."""
        ok, wit = self.buchsbaum()
        if not ok:
            return False, wit
        ccr = chain_complex(self.delta, self.fld)
        d = self.delta.dim
        cycles = ccr.cycle_space(d)
        rows = {}
        for j, facet in enumerate(ccr.faces.get(d, ())):
            for k in range(1, len(facet) + 1):
                for sub in combinations(facet, k):
                    rows.setdefault(sub, []).append(j)
        for f, _, top in self.records:
            if f and top:
                rank = linalg.rank(cycles[rows[f]], self.fld.characteristic)
                if rank < top:
                    return False, (f, rank)
        return True, None


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
    scan = LinkScan(delta, fld)
    names = ("cohen_macaulay", "buchsbaum", "gorenstein_star", "doubly_cm", "buchsbaum_star")
    results = {name: getattr(scan, name)() for name in names}
    flags = {name: ok for name, (ok, _) in results.items()}
    witnesses = {name: wit for name, (_, wit) in results.items() if wit is not None}
    return ComplexClasses(**flags, witnesses=witnesses)


def poset_is_cohen_macaulay(P: FinitePoset, fld: FieldSpec):
    """A poset with minimum is CM exactly when the order complex of the
    poset minus its minimum is; the cone over the minimum adds nothing."""
    return is_cohen_macaulay(reduced_order_complex(P), fld)
