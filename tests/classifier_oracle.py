"""The face-by-face classifiers as they were before `LinkScan`: every scan
builds each link (and each vertex deletion and contrastar pair) afresh.
Kept verbatim as the reference the fast classifiers are checked against;
the Buchsbaum* maps run through the dense oracle in `dense_oracle.py`.
The top ranks of a scan by the subset map they were once read off are here
too, the reference for the ranks read off vertex bitsets.
"""

from itertools import combinations

from dense_oracle import _induced_report, _projection_matrix, relative_chain_complex
from posetlab import linalg
from posetlab.homology import ComplexClasses, OrderComplexScan, chain_complex
from posetlab.linalg import FieldSpec
from posetlab.complexes import SimplicialComplex


def _link_scan(delta, fld):
    """One sweep of link homology over all faces.

    Returns (cm_ok, cm_wit, buch_ok, buch_wit, gor_ok, gor_wit); the
    Buchsbaum part covers only the nonempty-face condition plus purity.
    """
    cm_ok, cm_wit = True, None
    gor_ok, gor_wit = True, None
    buch_ok = delta.is_pure()
    buch_wit = None if buch_ok else ("not pure", None)
    for face in delta.faces():
        link = delta.link(face)
        ccr = chain_complex(link, fld)
        bad = next(
            (i for i in range(-1, link.dim) if ccr.betti(i) != 0), None
        )
        if bad is not None:
            if cm_ok:
                cm_ok, cm_wit = False, (face, bad)
            if buch_ok and face:
                buch_ok, buch_wit = False, (face, bad)
        if gor_ok and (bad is not None or ccr.betti(link.dim) != 1):
            gor_ok = False
            gor_wit = (face, bad if bad is not None else link.dim)
    return cm_ok, cm_wit, buch_ok, buch_wit, gor_ok, gor_wit


def is_cohen_macaulay(delta: SimplicialComplex, fld: FieldSpec):
    """Vanishing link homology below top dimension for every face incl. ().

    Returns (flag, witness); the witness is the first failing (face, degree).
    """
    cm_ok, cm_wit, *_ = _link_scan(delta, fld)
    return cm_ok, cm_wit


def is_buchsbaum(delta: SimplicialComplex, fld: FieldSpec):
    """Pure, with the link condition required only of nonempty faces."""
    if not delta.is_pure():
        return False, ("not pure", None)
    for face in delta.faces():
        if not face:
            continue
        link = delta.link(face)
        ccr = chain_complex(link, fld)
        bad = next((i for i in range(-1, link.dim) if ccr.betti(i) != 0), None)
        if bad is not None:
            return False, (face, bad)
    return True, None


def is_doubly_cm(delta: SimplicialComplex, fld: FieldSpec):
    """Cohen-Macaulay, and so is every vertex deletion, in the same dimension."""
    cm_ok, cm_wit = is_cohen_macaulay(delta, fld)
    if not cm_ok:
        return False, cm_wit
    for v in delta.vertices:
        deleted = delta.delete_vertices([v])
        if deleted.dim != delta.dim:
            return False, (v, "dimension drops")
        ok, wit = is_cohen_macaulay(deleted, fld)
        if not ok:
            return False, (v, wit)
    return True, None


def _relative_surjectivity(delta, src_ccr, face, fld):
    dst = relative_chain_complex(delta, delta.contrastar(face), fld)
    d = delta.dim
    return _induced_report(
        src_ccr, d, dst, d, _projection_matrix(src_ccr, dst, d), fld.characteristic
    )


def is_buchsbaum_star(delta: SimplicialComplex, fld: FieldSpec):
    """Buchsbaum, plus top homology surjects onto every contrastar pair."""
    buch_ok, buch_wit = is_buchsbaum(delta, fld)
    if not buch_ok:
        return False, buch_wit
    src = chain_complex(delta, fld)
    for face in delta.faces():
        if not face:
            continue
        report = _relative_surjectivity(delta, src, face, fld)
        if not report.surjective:
            return False, (face, report.rank)
    return True, None


def classify(delta: SimplicialComplex, fld: FieldSpec) -> ComplexClasses:
    """Cohen-Macaulay, Buchsbaum, doubly CM, Gorenstein*, Buchsbaum* flags
    with a first-failure witness per property."""
    witnesses = {}
    cm, cm_wit, buch, buch_wit, gor, gor_wit = _link_scan(delta, fld)
    if cm_wit:
        witnesses["cohen_macaulay"] = cm_wit
    if buch_wit:
        witnesses["buchsbaum"] = buch_wit
    if gor_wit:
        witnesses["gorenstein_star"] = gor_wit

    doubly = cm
    if cm:
        for v in delta.vertices:
            deleted = delta.delete_vertices([v])
            if deleted.dim != delta.dim:
                doubly, wit = False, (v, "dimension drops")
            else:
                ok, sub_wit = is_cohen_macaulay(deleted, fld)
                doubly, wit = ok, (v, sub_wit)
            if not doubly:
                witnesses["doubly_cm"] = wit
                break
    elif cm_wit:
        witnesses["doubly_cm"] = cm_wit

    bstar = buch
    if buch:
        src = chain_complex(delta, fld)
        for face in delta.faces():
            if not face:
                continue
            report = _relative_surjectivity(delta, src, face, fld)
            if not report.surjective:
                bstar = False
                witnesses["buchsbaum_star"] = (face, report.rank)
                break
    elif buch_wit:
        witnesses["buchsbaum_star"] = buch_wit

    return ComplexClasses(cm, buch, doubly, gor, bstar, witnesses)


def top_ranks(scan, fld):
    """{face: `top_rank(face)`} for every nonempty face of a pure scan's
    complex, through a map from every nonempty subset of every top face to
    the top faces holding it: the rank of the top cycle rows at the top
    faces holding the face.  A face of an order-complex scan becomes its
    chain of element indices, as the faces of its chain complex are."""
    ccr, d = scan.top_complex
    rows = {}
    for n, cycle in enumerate(ccr.homology_basis(d)):
        for j, c in cycle.items():
            rows.setdefault(j, {})[n] = c
    holders = {}
    for j, facet in enumerate(ccr.faces.get(d, ())):
        for k in range(1, len(facet) + 1):
            for sub in combinations(facet, k):
                holders.setdefault(sub, []).append(j)
    out = {}
    for face in scan.delta.faces():
        if not face:
            continue
        key = face
        if isinstance(scan, OrderComplexScan):
            iv = scan.intervals
            key = tuple(sorted(map(iv.P.index, face), key=iv.position.__getitem__))
        out[face] = linalg.rank((rows.get(j, {}) for j in holders.get(key, ())), fld.characteristic)
    return out
