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
leading faces are the cleared ones.  Induced maps push the basis through a
chain map {source face index: (target face index, sign)}.  No dense matrix
is built; bases and coordinates depend only on the face order.

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

from . import _kernels, linalg
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


def _induced_report(src_ccr, src_deg, dst_ccr, dst_deg, chain_map):
    """Push the source homology basis through a chain map given as
    {source face index: (target face index, sign)}."""
    basis = src_ccr.homology_basis(src_deg)
    # The length of the target basis, not `betti`: a rank-only reduction
    # would be redone with tracking by `class_coordinates`.
    b_dst = len(dst_ccr.homology_basis(dst_deg))
    matrix = np.zeros((b_dst, len(basis)), dtype=np.int64)
    if not (basis and b_dst):
        return InducedMapReport(len(basis), b_dst, 0, matrix)
    images = []
    for cycle in basis:
        image = {}
        for i, v in cycle.items():
            if i in chain_map:
                t, sign = chain_map[i]
                image[t] = image.get(t, 0) + sign * v
        images.append(image)
    coords = dst_ccr.class_coordinates(dst_deg, images)
    for c, col in enumerate(coords):
        for r, v in col.items():
            matrix[r, c] = v
    return InducedMapReport(len(basis), b_dst, linalg.rank(coords, dst_ccr.p), matrix)


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
    return _induced_report(src, dim, dst, dim, _projection(src, dst, dim))


def _projection(src, dst, k):
    """The chain map sending each k-face of src that dst has to itself."""
    dst_index = dst.index.get(k, {})
    faces = enumerate(src.faces.get(k, ()))
    return {j: (dst_index[f], 1) for j, f in faces if f in dst_index}


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
    dst_index = dst.index.get(k - 1, {})
    chain_map = {}
    for j, face in enumerate(src.faces.get(k, ())):
        if v not in face:
            continue
        pos = face.index(v)
        i = dst_index.get(face[:pos] + face[pos + 1 :])
        if i is not None:
            chain_map[j] = (i, -1 if pos % 2 else 1)
    return _induced_report(src, k, dst, k - 1, chain_map)


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
    ambient_dim = len(amb_ccr.homology_basis(deg))  # as in `_induced_report`
    p = fld.characteristic
    classes = {}
    for y in sorted(P.maximal_elements()):
        src = chain_complex(open_interval_complex(P, bottom, y), fld)
        report = _induced_report(src, deg, amb_ccr, deg, _projection(src, amb_ccr, deg))
        if report.rank != 1:
            raise OmegaNotOneDimensionalError(y, report.rank)
        # The image is spanned by its first nonzero column, scaled so that
        # its first nonzero entry is 1.
        column = report.matrix[:, np.flatnonzero(report.matrix.any(axis=0))[0]]
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
        by_face = {}  # d-face index -> {top cycle position: coefficient}
        for n, cycle in enumerate(ccr.homology_basis(d)):
            for i, v in cycle.items():
                by_face.setdefault(i, {})[n] = v
        rows = {}
        for j, facet in enumerate(ccr.faces.get(d, ())):
            for k in range(1, len(facet) + 1):
                for sub in combinations(facet, k):
                    rows.setdefault(sub, []).append(j)
        for f, _, top in self.records:
            if f and top:
                restricted = (by_face.get(i, {}) for i in rows[f])
                rank = linalg.rank(restricted, self.fld.characteristic)
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
