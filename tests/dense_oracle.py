"""Dense F_p linear algebra and homology, as the package computed them before
the sparse reduction took over: numpy row reduction on full boundary
matrices.  Kept as the reference the sparse bases, class coordinates, the
ranks of maps on top homology and the interval classes are checked against;
small inputs only.  The induced maps on homology in explicit bases, and the
interval classes through them, are the ones the package computed before it
read the classes off interval Betti numbers.  The order complex of an open
interval, built on its own, is here too: the package reads open intervals
off its interval scans instead; so is the closed star of a vertex, which
only the excision tests build, and the relative homology of a pair, the
excision oracle of the link scans' top ranks and the Buchsbaum* oracle.
"""

from dataclasses import dataclass

import numpy as np

from posetlab.complexes import SimplicialComplex, order_complex
from posetlab.errors import OmegaNotOneDimensionalError, PosetLabError, UnknownVertexError
from posetlab.homology import (
    ChainComplexRep,
    HomologyReport,
    MaximalIntervalClasses,
    _by_degree,
    chain_complex,
)
from posetlab.poset import rank_profile


def open_interval_complex(P, x, y, name=None):
    """Order complex of the open interval (x, y); void when y covers x."""
    members = P.open_interval_elements(x, y)
    if not members:
        return SimplicialComplex.void(name=name or f"chains({P.name}({x},{y}))")
    return order_complex(P.induced(members), name=name or f"chains({P.name}({x},{y}))")


def closed_star(delta, vertex):
    """The complex generated by the facets of delta containing the vertex."""
    if vertex not in delta.vertices:
        raise UnknownVertexError(vertex)
    return SimplicialComplex([f for f in delta.facets if vertex in f], name=f"star({delta.name})", _checked=True)


# -- relative homology ---------------------------------------------------------


class NotASubcomplexError(PosetLabError):
    def __init__(self, face=None):
        self.face = face
        detail = f": face {sorted(face)!r} missing from the ambient complex" if face else ""
        super().__init__(f"not a subcomplex{detail}")


def is_subcomplex(sub, ambient):
    amb = frozenset(ambient.faces())
    return all(f in amb for f in sub.facets)


def relative_chain_complex(delta, gamma, fld):
    """Quotient complex on the faces of delta that are not in gamma."""
    if not is_subcomplex(gamma, delta):
        missing = next(f for f in gamma.facets if f not in frozenset(delta.faces()))
        raise NotASubcomplexError(missing)
    gamma_faces = frozenset(gamma.faces())
    faces = _by_degree(tuple(f for f in delta.faces() if f not in gamma_faces))
    return ChainComplexRep(faces or {0: ()}, fld.characteristic)


def relative_homology(delta, gamma, fld):
    ccr = relative_chain_complex(delta, gamma, fld)
    betti = {k: ccr.betti(k) for k in range(0, delta.dim + 1)}
    return HomologyReport(betti, fld.characteristic)


# -- row reduction -------------------------------------------------------------


def _rref_inplace(a, p, npiv):
    """Reduce `a` in place, pivots only in the first `npiv` columns; pivot
    columns left to right, the first nonzero row at or below the cursor."""
    m, n = a.shape
    piv_cols = []
    r = 0
    for c in range(npiv):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], c:] = a[[pr, r], c:]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return r, np.asarray(piv_cols, dtype=np.int64)


def _prepare(matrix, p: int) -> np.ndarray:
    a = np.array(matrix, dtype=np.int64, order="C", copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    np.mod(a, p, out=a)
    return a


def rref(matrix, p: int, npiv: int | None = None):
    """Reduced row echelon form mod p. Returns (reduced matrix, pivot columns)."""
    a = _prepare(matrix, p)
    if npiv is None:
        npiv = a.shape[1]
    if a.size == 0 or npiv == 0:
        return a, np.empty(0, dtype=np.int64)
    _, piv = _rref_inplace(a, p, npiv)
    return a, piv


def rank(matrix, p: int) -> int:
    return len(rref(matrix, p)[1])


def nullspace(matrix, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the kernel (one per free column)."""
    a = _prepare(matrix, p)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    r, piv = _rref_inplace(a, p, n)
    piv_set = set(int(c) for c in piv)
    free = [c for c in range(n) if c not in piv_set]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for i in range(r):
            basis[piv[i], k] = (-a[i, c]) % p
    return basis


def solve_many(matrix, rhs, p: int):
    """Solve A x = b for every column b of `rhs`.

    Returns (solutions, ok) where ok[j] is False for inconsistent columns and
    solutions[:, j] is the particular solution with free variables zero.
    """
    a = _prepare(matrix, p)
    b = _prepare(rhs, p)
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("dimension mismatch between matrix and right-hand sides")
    k = b.shape[1]
    if k == 0:
        return np.zeros((n, 0), dtype=np.int64), np.ones(0, dtype=bool)
    aug = np.concatenate([a, b], axis=1)
    if aug.size == 0:
        ok = np.all(b == 0, axis=0)
        return np.zeros((n, k), dtype=np.int64), ok
    r, piv = _rref_inplace(aug, p, n)
    ok = np.all(aug[r:, n:] == 0, axis=0)
    sols = np.zeros((n, k), dtype=np.int64)
    for i in range(r):
        sols[piv[i], :] = aug[i, n:]
    sols[:, ~ok] = 0
    return sols, ok


# -- homology of a ChainComplexRep's faces -------------------------------------


def boundary(ccr, k):
    """Dense matrix of the boundary map from degree k to degree k-1."""
    mat = np.zeros((ccr.size(k - 1), ccr.size(k)), dtype=np.int64)
    below = ccr.index.get(k - 1, {})
    for j, face in enumerate(ccr.faces.get(k, ())):
        for pos in range(len(face)):
            i = below.get(face[:pos] + face[pos + 1 :])
            if i is not None:
                mat[i, j] = 1 if pos % 2 == 0 else ccr.p - 1
    return mat


def verify_boundary_identity(ccr):
    """dd = 0 on every face of a `ChainComplexRep`, as an exact sum mod p.
    Each face's boundary is taken here by slicing the tuple and looking the
    result up by value, not through the package's own columns."""
    p = ccr.p
    for k in ccr.degrees:
        for face in ccr.faces[k]:
            total = {}
            for pos in range(len(face)):
                side = face[:pos] + face[pos + 1 :]
                if side not in ccr.index.get(k - 1, {}):
                    continue
                for q in range(len(side)):
                    edge = side[:q] + side[q + 1 :]
                    if edge in ccr.index.get(k - 2, {}):
                        total[edge] = (total.get(edge, 0) + (-1) ** (pos + q)) % p
            if any(total.values()):
                return False
    return True


def betti(ccr, k):
    if ccr.size(k) == 0:
        return 0
    return ccr.size(k) - rank(boundary(ccr, k), ccr.p) - rank(boundary(ccr, k + 1), ccr.p)


def homology_basis(ccr, k):
    """Cycle representatives: columns of the returned (n_k x betti_k) matrix."""
    cycles = nullspace(boundary(ccr, k), ccr.p)
    bound = boundary(ccr, k + 1)
    stacked = np.concatenate([bound, cycles], axis=1)
    _, piv = rref(stacked, ccr.p)
    chosen = [c - bound.shape[1] for c in piv if c >= bound.shape[1]]
    return cycles[:, chosen]


def class_coordinates(ccr, k, chain_vectors):
    """Coordinates of cycle columns in the chosen homology basis."""
    basis = homology_basis(ccr, k)
    bound = boundary(ccr, k + 1)
    system = np.concatenate([bound, basis], axis=1)
    sols, ok = solve_many(system, chain_vectors, ccr.p)
    if not ok.all():
        raise PosetLabError("chain is not a cycle of the complex")
    return sols[bound.shape[1] :, :]


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
    basis = homology_basis(src_ccr, src_deg)
    b_src = basis.shape[1]
    b_dst = betti(dst_ccr, dst_deg)
    if b_src == 0 or b_dst == 0:
        matrix = np.zeros((b_dst, b_src), dtype=np.int64)
        return InducedMapReport(b_src, b_dst, 0, matrix)
    images = (chain_map @ basis) % p
    coords = class_coordinates(dst_ccr, dst_deg, images)
    return InducedMapReport(b_src, b_dst, rank(coords, p), coords)


def _projection_matrix(src, dst, k):
    mat = np.zeros((dst.size(k), src.size(k)), dtype=np.int64)
    dst_index = dst.index.get(k, {})
    for j, face in enumerate(src.faces.get(k, ())):
        i = dst_index.get(face)
        if i is not None:
            mat[i, j] = 1
    return mat


def induced_inclusion_map(delta, gamma, dim, fld):
    src = chain_complex(delta, fld)
    dst = relative_chain_complex(delta, gamma, fld)
    return _induced_report(
        src, dim, dst, dim, _projection_matrix(src, dst, dim), fld.characteristic
    )


def vertex_link_map(gamma, v, fld):
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


def maximal_interval_classes(P, fld):
    """For each maximal y, the image of H̃_{d-2}(0̂, y) in H̃_{d-2}(Δ(Q̄)) under
    the map induced by inclusion, which must have rank 1; the class is its
    first nonzero column, scaled so that its first nonzero entry is 1."""
    if rank_profile(P).top_rank < 2:
        raise PosetLabError("interval classes need rank at least 2")
    deg = rank_profile(P).top_rank - 2
    p = fld.characteristic
    ambient = chain_complex(order_complex(P.remove_maximal().remove_min()), fld)
    classes = {}
    for y in sorted(P.maximal_elements()):
        src = chain_complex(open_interval_complex(P, P.minimum(), y), fld)
        report = _induced_report(src, deg, ambient, deg, _projection_matrix(src, ambient, deg), p)
        if report.rank != 1:
            raise OmegaNotOneDimensionalError(y, report.rank)
        column = report.matrix[:, np.flatnonzero(report.matrix.any(axis=0))[0]]
        lead = int(column[np.flatnonzero(column)[0]])
        classes[y] = column * pow(lead, p - 2, p) % p
    return MaximalIntervalClasses(betti(ambient, deg), classes)
