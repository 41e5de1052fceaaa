"""Mechanical instance-level verification of the package's headline
inequality, the identities feeding it, and the truncation structure results.

Every check record stores the values both sides evaluated to, so each verdict
can be recomputed from the report alone.  Hypothesis checks always run first
and failed hypotheses downgrade dependent checks to "inapplicable" rather
than letting them pass vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    BasisNotFoundError,
    EmptyPosetError,
    NotLowerGradedError,
    OmegaNotOneDimensionalError,
)
from .generators import suite
from .homology import _interval_classes, poset_scan
from .hvectors import cubical_h, simplicial_h, toric_h
from .linalg import FieldSpec
from .poset import (
    FinitePoset,
    atoms_below,
    is_cubical_poset,
    is_graded,
    is_lower_eulerian,
    is_meet_semilattice,
    is_simplicial_poset,
    jsonable,
    mobius_from,
    rank_alternating_sum,
    rank_profile,
    reduced_euler_char,
)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    lhs: object
    rhs: object
    verdict: str
    witness: object = None

    def to_dict(self):
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "lhs": jsonable(self.lhs),
            "rhs": jsonable(self.rhs),
            "verdict": self.verdict,
            "witness": jsonable(self.witness),
        }


@dataclass
class AuditReport:
    instance: str
    characteristic: int
    checks: list = field(default_factory=list)

    def failures(self):
        return [c for c in self.checks if c.verdict == FAIL]

    @property
    def passed(self):
        return not self.failures()

    def to_dict(self):
        return {
            "instance": self.instance,
            "field": self.characteristic,
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class BasisSelection:
    """Greedily chosen maximal elements whose interval classes form a basis."""

    chosen: tuple
    vectors: dict
    certificate_rank: int


class _InstanceData:
    """Shared per-instance facts: hypotheses, Möbius values, atom counts, link scans."""

    def __init__(self, P: FinitePoset, fld: FieldSpec):
        self.P = P
        self.fld = fld
        self.has_min = P.has_minimum
        if not self.has_min:
            self.lower_eulerian = False
            self.le_witness = "no minimum element"
            self.cm = False
            self.cm_witness = "no minimum element"
            self.graded, self.rank = is_graded(P)
            self.simplicial = self.cubical = False
            self.meet = is_meet_semilattice(P)
            self.qualifies = False
            return
        verdict = is_lower_eulerian(P)
        self.lower_eulerian = bool(verdict)
        self.le_witness = verdict.witness if not verdict else None
        # Δ(P̄) and Δ(Q̄) are scanned from one memo of interval homology.
        self.pbar = poset_scan(P, fld)
        self.cm, self.cm_witness = self.pbar.cohen_macaulay()
        self.graded, self.rank = is_graded(P)
        self.simplicial = is_simplicial_poset(P)
        self.cubical = is_cubical_poset(P)
        self.meet = is_meet_semilattice(P)
        self.qualifies = self.lower_eulerian and self.cm and self.graded

        hat = P.attach_max()
        existing = set(P.elements)
        top = next(e for e in hat.elements if e not in existing)
        self.atoms = sorted(P.atoms())
        self.atom_mu = {x: mobius_from(hat, x)[top] for x in self.atoms}
        self.mu_bottom_top = mobius_from(hat, P.minimum())[top]
        self.maximals = sorted(P.maximal_elements())
        self.alpha = {y: atoms_below(P, y) for y in self.maximals}
        self.alpha_min = min(self.alpha.values()) if self.alpha else 0

    # Derived quantities, each computed on first use.  The truncations and
    # the interval classes serve only the rank >= 2 checks.
    @cached_property
    def Q(self):
        return self.P.remove_maximal()

    @cached_property
    def R(self):
        return self.Q.remove_atoms()

    @cached_property
    def chi_q(self):
        return reduced_euler_char(self.Q)

    @cached_property
    def chi_r(self):
        return reduced_euler_char(self.R)

    @cached_property
    def qbar(self):
        return self.pbar.intervals.scan(self.Q.remove_min().elements)

    @cached_property
    def interval_classes(self):
        return _interval_classes(self.P, self.qbar)

    @cached_property
    def cubical_entries(self):
        return cubical_h(self.P).entries


def _na(check_id, anchor, reason):
    return CheckRecord(check_id, anchor, None, None, INAPPLICABLE, witness=reason)


def _skip_reason(data):
    reasons = []
    if not data.has_min:
        reasons.append("no minimum")
    else:
        if not data.lower_eulerian:
            reasons.append("not lower Eulerian")
        if not data.cm:
            reasons.append("not Cohen-Macaulay")
        if not data.graded:
            reasons.append("not graded")
    return ", ".join(reasons) or None


ANCHOR_MAIN = "sum over atoms of |mu(x, top)| >= alphaP * |mu(bottom, top)| in the max-attached poset"
ANCHOR_SIGN = "(-1)^d * mu(x, top) >= 0 for every atom x"
ANCHOR_DECOMP = (
    "sum|mu(x,top)| - alphaP|mu(bottom,top)| == "
    "(alphaP-1)|chi(Q)| - |chi(R)| + sum over maximal y of (alpha(y)-alphaP)"
)
ANCHOR_STEP = (
    "sum over atoms x of Q, y >= x in Q of (-1)^(rank(y)-1) == chi(Q) - chi(R)"
)
ANCHOR_INTERVAL_ROUTE = (
    "rank alternating sums of the min-attached interval posets of Q-bar and "
    "R-bar equal chi(Q) and chi(R)"
)
ANCHOR_BASIS_SIZE = "|B| == top Betti number of the doubly truncated order complex == |chi(Q)|"
ANCHOR_SUFF = "|chi(R)| <= sum over y in B of (alpha(y) - 1)"
ANCHOR_ORDER = "the bound verdict is unchanged under reversed greedy order"
ANCHOR_MAINS = (
    "simplicial h_{d-1} == (-1)^d sum_atoms mu(x,top) - d*(-1)^(d+1) mu(bottom,top)"
)
ANCHOR_MAINC = (
    "cubical h_{d-1} == (-1)^d sum_atoms mu(x,top) - 2^(d-1)*(-1)^(d+1) mu(bottom,top)"
)


def _hypothesis_record(check_id, anchor, holds, witness=None):
    # A hypothesis that does not hold is not an audit failure: the instance
    # is simply outside the statement's scope, so the record (and everything
    # depending on it) reads "inapplicable".
    return CheckRecord(
        check_id,
        anchor,
        bool(holds),
        True,
        PASS if holds else INAPPLICABLE,
        witness=witness if not holds else None,
    )


def check_hypotheses(data: _InstanceData):
    return [
        _hypothesis_record(
            "hypothesis-minimum", "the poset has a minimum element", data.has_min
        ),
        _hypothesis_record(
            "hypothesis-lower-eulerian",
            "every interval is graded with Möbius value equal to its rank parity",
            data.lower_eulerian,
            witness=data.le_witness,
        ),
        _hypothesis_record(
            "hypothesis-cohen-macaulay",
            "the order complex minus the minimum is Cohen-Macaulay over the field",
            data.cm,
            witness=data.cm_witness,
        ),
        _hypothesis_record(
            "hypothesis-graded", "all maximal chains share one length", data.graded
        ),
    ]


def check_main_inequality(data: _InstanceData):
    if not (data.has_min and data.lower_eulerian and data.cm):
        reason = _skip_reason(data)
        return [_na("main-inequality", ANCHOR_MAIN, reason), _na("atom-sign", ANCHOR_SIGN, reason)]
    lhs = sum(abs(v) for v in data.atom_mu.values())
    rhs = data.alpha_min * abs(data.mu_bottom_top)
    recs = [
        CheckRecord(
            "main-inequality", ANCHOR_MAIN, lhs, rhs, PASS if lhs >= rhs else FAIL
        )
    ]
    if not data.graded:
        recs.append(_na("atom-sign", ANCHOR_SIGN, "not graded"))
        return recs
    d = data.rank
    signed = {x: (-1) ** d * v for x, v in data.atom_mu.items()}
    bad = [x for x, v in sorted(signed.items()) if v < 0]
    recs.append(
        CheckRecord(
            "atom-sign",
            ANCHOR_SIGN,
            min(signed.values()) if signed else 0,
            0,
            FAIL if bad else PASS,
            witness=bad[0] if bad else None,
        )
    )
    return recs


def check_mobius_decomposition(data: _InstanceData):
    if not (data.qualifies and data.rank >= 2):
        reason = _skip_reason(data) or "rank below 2"
        return [_na("mobius-decomposition", ANCHOR_DECOMP, reason)]
    chi_q, chi_r = data.chi_q, data.chi_r
    lhs = sum(abs(v) for v in data.atom_mu.values()) - data.alpha_min * abs(
        data.mu_bottom_top
    )
    rhs = (
        (data.alpha_min - 1) * abs(chi_q)
        - abs(chi_r)
        + sum(data.alpha[y] - data.alpha_min for y in data.maximals)
    )
    return [
        CheckRecord(
            "mobius-decomposition",
            ANCHOR_DECOMP,
            lhs,
            rhs,
            PASS if lhs == rhs else FAIL,
        )
    ]


def check_truncation_step(data: _InstanceData):
    if not (data.qualifies and data.rank >= 2):
        reason = _skip_reason(data) or "rank below 2"
        return [
            _na("truncation-alternating-sum", ANCHOR_STEP, reason),
            _na("interval-poset-route", ANCHOR_INTERVAL_ROUTE, reason),
        ]
    Q, R = data.Q, data.R
    chi_q, chi_r = data.chi_q, data.chi_r
    profile = rank_profile(Q)
    ranks = profile.ranks
    lhs = 0
    for x in Q.atoms():
        ix = Q.index(x)
        for j in np.flatnonzero(Q.leq_matrix[ix]):
            lhs += (-1) ** (ranks[Q.elements[j]] - 1)
    rhs = chi_q - chi_r
    recs = [
        CheckRecord(
            "truncation-alternating-sum",
            ANCHOR_STEP,
            lhs,
            rhs,
            PASS if lhs == rhs else FAIL,
        )
    ]

    def interval_route_value(X):
        # psi of the min-attached interval poset of X minus its own minimum;
        # when X is just the minimum, the interval poset is empty and
        # attaching a bottom leaves the singleton, whose psi is -1.
        try:
            bar = X.remove_min()
        except EmptyPosetError:
            return -1
        return rank_alternating_sum(bar.interval_poset().attach_min())

    try:
        route = (interval_route_value(Q), interval_route_value(R))
        verdict = PASS if route == (chi_q, chi_r) else FAIL
        recs.append(
            CheckRecord(
                "interval-poset-route",
                ANCHOR_INTERVAL_ROUTE,
                list(route),
                [chi_q, chi_r],
                verdict,
            )
        )
    except NotLowerGradedError as exc:
        recs.append(
            CheckRecord(
                "interval-poset-route",
                ANCHOR_INTERVAL_ROUTE,
                None,
                [chi_q, chi_r],
                FAIL,
                witness=str(exc),
            )
        )
    return recs


def select_basis(data: _InstanceData, reverse=False) -> BasisSelection:
    """Greedy scan of the maximal elements in (reversed) lexicographic order,
    keeping an element when its class grows the span.

    Raises BasisNotFoundError when the classes cannot span; for a lower
    Eulerian Cohen-Macaulay instance that would contradict the spanning
    property the audit relies on, so callers treat it as a hard failure.
    """
    classes = data.interval_classes
    order = sorted(classes.classes, reverse=reverse)
    chosen = []
    columns = []
    p = data.fld.characteristic
    current_rank = 0
    for y in order:
        candidate = columns + [{i: int(v) for i, v in enumerate(classes.classes[y]) if v}]
        r = linalg.rank(candidate, p)
        if r > current_rank:
            chosen.append(y)
            columns = candidate
            current_rank = r
        if current_rank == classes.ambient_dim:
            break
    if current_rank != classes.ambient_dim:
        raise BasisNotFoundError(
            f"interval classes span only {current_rank} of {classes.ambient_dim} dimensions"
        )
    return BasisSelection(
        tuple(chosen),
        {y: classes.classes[y] for y in chosen},
        current_rank,
    )


def check_basis_bound(data: _InstanceData):
    anchor_ids = [
        ("basis-size", ANCHOR_BASIS_SIZE),
        ("basis-deficiency-bound", ANCHOR_SUFF),
        ("basis-order-independence", ANCHOR_ORDER),
    ]
    if not (data.qualifies and data.rank >= 2):
        reason = _skip_reason(data) or "rank below 2"
        return [_na(cid, anch, reason) for cid, anch in anchor_ids]
    chi_q, chi_r = data.chi_q, data.chi_r
    try:
        selection = select_basis(data)
    except (OmegaNotOneDimensionalError, BasisNotFoundError) as exc:
        return [
            CheckRecord(cid, anch, None, None, FAIL, witness=str(exc))
            for cid, anch in anchor_ids
        ]
    b = selection.certificate_rank
    size_ok = len(selection.chosen) == b == abs(chi_q)
    recs = [
        CheckRecord(
            "basis-size",
            ANCHOR_BASIS_SIZE,
            [len(selection.chosen), b],
            abs(chi_q),
            PASS if size_ok else FAIL,
            witness=None
            if size_ok
            else "homology and Möbius pipelines disagree on the top Betti number",
        )
    ]
    bound_rhs = sum(data.alpha[y] - 1 for y in selection.chosen)
    bound_ok = abs(chi_r) <= bound_rhs
    recs.append(
        CheckRecord(
            "basis-deficiency-bound",
            ANCHOR_SUFF,
            abs(chi_r),
            bound_rhs,
            PASS if bound_ok else FAIL,
        )
    )
    reversed_sel = select_basis(data, reverse=True)
    reversed_ok = abs(chi_r) <= sum(data.alpha[y] - 1 for y in reversed_sel.chosen)
    recs.append(
        CheckRecord(
            "basis-order-independence",
            ANCHOR_ORDER,
            bound_ok,
            reversed_ok,
            PASS if bound_ok == reversed_ok else FAIL,
        )
    )
    return recs


def check_penultimate_identities(data: _InstanceData):
    recs = []
    d = data.rank
    atoms_term = sum(data.atom_mu.values()) if data.has_min else None
    if data.has_min and data.simplicial and data.graded and d >= 1:
        lhs = simplicial_h(data.P).entries[d - 1]
        rhs = (-1) ** d * atoms_term - d * (-1) ** (d + 1) * data.mu_bottom_top
        recs.append(
            CheckRecord(
                "simplicial-penultimate-identity",
                ANCHOR_MAINS,
                lhs,
                rhs,
                PASS if lhs == rhs else FAIL,
            )
        )
    else:
        recs.append(
            _na(
                "simplicial-penultimate-identity",
                ANCHOR_MAINS,
                "not a graded simplicial poset of rank >= 1",
            )
        )
    if data.has_min and data.cubical and data.graded and d >= 1:
        lhs = data.cubical_entries[d - 1]
        rhs = (-1) ** d * atoms_term - 2 ** (d - 1) * (-1) ** (d + 1) * data.mu_bottom_top
        recs.append(
            CheckRecord(
                "cubical-penultimate-identity",
                ANCHOR_MAINC,
                lhs,
                rhs,
                PASS if lhs == rhs else FAIL,
            )
        )
    else:
        recs.append(
            _na(
                "cubical-penultimate-identity",
                ANCHOR_MAINC,
                "not a graded cubical poset of rank >= 1",
            )
        )
    return recs


def check_nonnegativity_corollaries(data: _InstanceData):
    recs = []
    d = data.rank
    cubical_ok = data.has_min and data.cubical and data.graded and data.cm and d >= 1
    if cubical_ok:
        entries = data.cubical_entries
        recs.append(
            CheckRecord(
                "cubical-penultimate-nonneg",
                "cubical h_{d-1} >= 0 for Cohen-Macaulay cubical posets",
                entries[d - 1],
                0,
                PASS if entries[d - 1] >= 0 else FAIL,
            )
        )
        recs.append(
            CheckRecord(
                "cubical-top-nonneg",
                "cubical h_d >= 0 for Cohen-Macaulay cubical posets",
                entries[d],
                0,
                PASS if entries[d] >= 0 else FAIL,
            )
        )
    else:
        reason = "not a Cohen-Macaulay graded cubical poset"
        recs.append(_na("cubical-penultimate-nonneg", "cubical h_{d-1} >= 0", reason))
        recs.append(_na("cubical-top-nonneg", "cubical h_d >= 0", reason))

    toric_ok = data.qualifies and d >= 1
    if toric_ok:
        entries = toric_h(data.P).entries
        recs.append(
            CheckRecord(
                "toric-top-nonneg",
                "toric h_d >= 0 for lower Eulerian Cohen-Macaulay posets",
                entries[d],
                0,
                PASS if entries[d] >= 0 else FAIL,
            )
        )
        if data.meet:
            recs.append(
                CheckRecord(
                    "toric-penultimate-nonneg",
                    "toric h_{d-1} >= 0 for lower Eulerian CM meet-semilattices",
                    entries[d - 1],
                    0,
                    PASS if entries[d - 1] >= 0 else FAIL,
                )
            )
        else:
            recs.append(
                _na(
                    "toric-penultimate-nonneg",
                    "toric h_{d-1} >= 0",
                    "not a meet-semilattice",
                )
            )
    else:
        reason = _skip_reason(data) or "rank below 1"
        recs.append(_na("toric-top-nonneg", "toric h_d >= 0", reason))
        recs.append(_na("toric-penultimate-nonneg", "toric h_{d-1} >= 0", reason))
    return recs


def check_truncation_structure(data: _InstanceData):
    ids = [
        (
            "hypothesis-interval-doubly-cm",
            "every open interval below a maximal element is doubly Cohen-Macaulay",
        ),
        (
            "hypothesis-truncation-buchsbaum",
            "the order complex minus the minimum is Buchsbaum",
        ),
        (
            "truncation-doubly-cm",
            "the doubly truncated order complex is doubly Cohen-Macaulay",
        ),
        (
            "truncation-buchsbaum-star",
            "the doubly truncated order complex is Buchsbaum*",
        ),
        (
            "atom-link-surjectivity",
            "top homology surjects onto every minimal-vertex link one degree down",
        ),
        (
            "facet-transversal-deletion",
            "every facet meets the maximal elements once; deleting them yields the truncated order complex",
        ),
    ]
    if not (data.qualifies and data.rank >= 2):
        reason = _skip_reason(data) or "rank below 2"
        return [_na(cid, anch, reason) for cid, anch in ids]

    recs = []

    interval_ok = True
    interval_wit = None
    for y in data.maximals:
        ok, wit = data.pbar.vertex_link(y).doubly_cm()
        if not ok:
            interval_ok, interval_wit = False, (y, wit)
            break
    recs.append(_hypothesis_record(ids[0][0], ids[0][1], interval_ok, interval_wit))

    buch_ok, buch_wit = data.pbar.buchsbaum()
    recs.append(_hypothesis_record(ids[1][0], ids[1][1], buch_ok, buch_wit))

    if interval_ok:
        dcm_ok, dcm_wit = data.qbar.doubly_cm()
        recs.append(
            CheckRecord(
                ids[2][0], ids[2][1], dcm_ok, True,
                PASS if dcm_ok else FAIL, witness=dcm_wit,
            )
        )
    else:
        recs.append(_na(ids[2][0], ids[2][1], "interval hypothesis failed"))

    if interval_ok and buch_ok:
        bs_ok, bs_wit = data.qbar.buchsbaum_star()
        recs.append(
            CheckRecord(
                ids[3][0], ids[3][1], bs_ok, True,
                PASS if bs_ok else FAIL, witness=bs_wit,
            )
        )
    else:
        recs.append(_na(ids[3][0], ids[3][1], "hypotheses failed"))

    # P is graded of rank >= 2: its atoms are the minimal vertices of Δ(Q̄).
    tops = {f: top for f, _, top in data.qbar.records if len(f) == 1}
    maps = ((x, data.qbar.top_rank((x,)), tops[(x,)]) for x in data.atoms)
    surj_wit = next((m for m in maps if m[1] != m[2]), None)
    recs.append(
        CheckRecord(
            ids[4][0], ids[4][1], surj_wit is None, True,
            PASS if surj_wit is None else FAIL, witness=surj_wit,
        )
    )

    delta_pbar = data.pbar.delta
    transversal = set(data.maximals)
    unique = all(
        len(transversal.intersection(f)) == 1 for f in delta_pbar.facets
    )
    deleted = delta_pbar.delete_vertices(data.maximals)
    same = deleted == data.qbar.delta
    recs.append(
        CheckRecord(
            ids[5][0], ids[5][1],
            [unique, same], [True, True],
            PASS if unique and same else FAIL,
        )
    )
    return recs


def audit_poset(P: FinitePoset, fld: FieldSpec | None = None) -> AuditReport:
    """Run every audit check against one poset instance."""
    fld = fld or FieldSpec()
    data = _InstanceData(P, fld)
    report = AuditReport(P.name, fld.characteristic)
    report.checks.extend(check_hypotheses(data))
    report.checks.extend(check_main_inequality(data))
    report.checks.extend(check_mobius_decomposition(data))
    report.checks.extend(check_truncation_step(data))
    report.checks.extend(check_basis_bound(data))
    report.checks.extend(check_penultimate_identities(data))
    report.checks.extend(check_nonnegativity_corollaries(data))
    report.checks.extend(check_truncation_structure(data))
    return report


def run_suite(fld: FieldSpec | None = None, family: str | None = None):
    """Audit the built-in suite; reports sorted by instance name."""
    fld = fld or FieldSpec()
    reports = []
    for name, poset in suite():
        if family and family != "all" and not name.startswith(family):
            continue
        reports.append(audit_poset(poset, fld))
    reports.sort(key=lambda r: r.instance)
    return reports
