"""Mechanical instance-level verification of the package's headline
inequality, the identities feeding it, and the truncation structure results.

A record is one of three kinds, each built in one place:
- a hypothesis (`_hypothesis_record`): "pass" when it holds, else
  "inapplicable" with a witness, since an instance outside a statement's
  scope is not a failure;
- a comparison (`_compare`): the values both sides evaluated to and "pass"
  or "fail" by the check's relation between them, so each verdict can be
  recomputed from the report alone;
- an inapplicable check (`_na`): no sides, and the reason as its witness.

Hypothesis checks always run first, and failed hypotheses downgrade
dependent checks to "inapplicable" rather than letting them pass vacuously.
One scope rule, `_out_of_scope`, names the reason for the statements that
need the minimum, the lower Eulerian, Cohen-Macaulay and graded hypotheses
and a least rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (
    BasisNotFoundError,
    OmegaNotOneDimensionalError,
)
from .generators import suite
from .homology import OrderComplexScan, _interval_classes, poset_scan
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
    mobius,
    mobius_from,
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


class _InstanceData:
    """Shared per-instance facts: hypotheses, Möbius values, atom counts, link scans."""

    def __init__(self, P: FinitePoset, fld: FieldSpec):
        self.P = P
        self.fld = fld
        self.has_min = P.has_minimum
        self.graded, self.rank = is_graded(P)
        self.meet = is_meet_semilattice(P)
        if not self.has_min:
            self.lower_eulerian = self.cm = self.simplicial = self.cubical = False
            self.le_witness = self.cm_witness = "no minimum element"
            return
        verdict = is_lower_eulerian(P)
        self.lower_eulerian = bool(verdict)
        self.le_witness = verdict.witness if not verdict else None
        # Δ(P̄) and Δ(Q̄) are scanned from one memo of interval homology.
        self.pbar = poset_scan(P, fld)
        self.cm, self.cm_witness = self.pbar.cohen_macaulay()
        self.simplicial = is_simplicial_poset(P)
        self.cubical = is_cubical_poset(P)

        # mu(x, top) in P with a top attached is -(sum of mu(x, z) over z >= x).
        self.atoms = sorted(P.atoms())
        self.atom_mu = {x: -sum(mobius_from(P, x).values()) for x in self.atoms}
        self.mu_bottom_top = reduced_euler_char(P)
        self.maximals = sorted(P.maximal_elements())
        self.alpha = {y: atoms_below(P, y) for y in self.maximals}
        self.alpha_min = min(self.alpha.values()) if self.alpha else 0

    # Derived quantities, each computed on first use.  The truncations and
    # the interval classes serve only the rank >= 2 checks.  Q = P minus its
    # maximal elements and R = Q minus its atoms are masks on P's indices,
    # read against P's own tables: Q is a down-set of P, so its atoms, its
    # ranks and its Möbius values from the minimum are P's.  A chain of P
    # from the minimum meets at most one atom, right after it, so by Hall's
    # theorem mu_R(0, y) = mu_P(0, y) + sum of mu_P(a, y) over atoms a < y.
    @cached_property
    def bottom(self):
        return self.P.index(self.P.minimum())

    @cached_property
    def q_mask(self):
        mask = np.ones(len(self.P), dtype=bool)
        mask[[self.P.index(y) for y in self.maximals]] = False
        return mask

    @cached_property
    def r_mask(self):
        mask = self.q_mask.copy()
        mask[[self.P.index(x) for x in self.atoms]] = False
        return mask

    @cached_property
    def chi_q(self):
        return -int(mobius(self.P)._values[self.bottom, self.q_mask].sum())

    @cached_property
    def chi_r(self):
        rows = [self.bottom] + [self.P.index(x) for x in self.atoms]
        return -int(mobius(self.P)._values[np.ix_(rows, self.r_mask)].sum())

    @cached_property
    def qbar(self):
        """The scan of Δ(Q̄), Q̄ = Q minus the minimum."""
        names = self.P.elements
        return self.pbar.intervals.scan(names[i] for i in np.flatnonzero(self.q_mask) if i != self.bottom)

    @cached_property
    def interval_classes(self):
        return _interval_classes(self.P, self.qbar)

    @cached_property
    def cubical_entries(self):
        return cubical_h(self.P).entries


def _out_of_scope(data, min_rank):
    """Why a statement on lower Eulerian Cohen-Macaulay graded posets of rank
    at least `min_rank` does not apply to the instance; None when it does."""
    if not data.has_min:
        return "no minimum"
    failed = [
        reason
        for holds, reason in (
            (data.lower_eulerian, "not lower Eulerian"),
            (data.cm, "not Cohen-Macaulay"),
            (data.graded, "not graded"),
        )
        if not holds
    ]
    if failed:
        return ", ".join(failed)
    return f"rank below {min_rank}" if data.rank < min_rank else None


def _hypothesis_record(check_id, anchor, holds, witness=None):
    # A hypothesis that does not hold is not an audit failure: the instance
    # is simply outside the statement's scope, so the record (and everything
    # depending on it) reads "inapplicable".
    return CheckRecord(
        check_id, anchor, bool(holds), True, PASS if holds else INAPPLICABLE, witness=None if holds else witness
    )


def _compare(check_id, anchor, lhs, rhs, holds, witness=None):
    """The record of a relation between two computed sides; the witness is
    kept only when the relation fails."""
    return CheckRecord(check_id, anchor, lhs, rhs, PASS if holds else FAIL, witness=None if holds else witness)


def _na(check_id, anchor, reason):
    return CheckRecord(check_id, anchor, None, None, INAPPLICABLE, witness=reason)


# Each check as its (id, anchor) pair.
MAIN = ("main-inequality", "sum over atoms of |mu(x, top)| >= alphaP * |mu(bottom, top)| in the max-attached poset")
SIGN = ("atom-sign", "(-1)^d * mu(x, top) >= 0 for every atom x")
DECOMPOSITION = (
    "mobius-decomposition",
    "sum|mu(x,top)| - alphaP|mu(bottom,top)| == "
    "(alphaP-1)|chi(Q)| - |chi(R)| + sum over maximal y of (alpha(y)-alphaP)",
)
STEP = ("truncation-alternating-sum", "sum over atoms x of Q, y >= x in Q of (-1)^(rank(y)-1) == chi(Q) - chi(R)")
INTERVAL_ROUTE = (
    "interval-poset-route",
    "rank alternating sums of the min-attached interval posets of Q-bar and R-bar equal chi(Q) and chi(R)",
)
BASIS_SIZE = ("basis-size", "|B| == top Betti number of the doubly truncated order complex == |chi(Q)|")
BASIS_BOUND = ("basis-deficiency-bound", "|chi(R)| <= sum over y in B of (alpha(y) - 1)")
BASIS_ORDER = ("basis-order-independence", "the bound verdict is unchanged under reversed greedy order")
SIMPLICIAL_IDENTITY = (
    "simplicial-penultimate-identity",
    "simplicial h_{d-1} == (-1)^d sum_atoms mu(x,top) - d*(-1)^(d+1) mu(bottom,top)",
)
CUBICAL_IDENTITY = (
    "cubical-penultimate-identity",
    "cubical h_{d-1} == (-1)^d sum_atoms mu(x,top) - 2^(d-1)*(-1)^(d+1) mu(bottom,top)",
)
INTERVALS_DOUBLY_CM = (
    "hypothesis-interval-doubly-cm",
    "every open interval below a maximal element is doubly Cohen-Macaulay",
)
PBAR_BUCHSBAUM = ("hypothesis-truncation-buchsbaum", "the order complex minus the minimum is Buchsbaum")
QBAR_DOUBLY_CM = ("truncation-doubly-cm", "the doubly truncated order complex is doubly Cohen-Macaulay")
QBAR_BUCHSBAUM_STAR = ("truncation-buchsbaum-star", "the doubly truncated order complex is Buchsbaum*")
ATOM_LINKS = ("atom-link-surjectivity", "top homology surjects onto every minimal-vertex link one degree down")
TRANSVERSAL = (
    "facet-transversal-deletion",
    "every facet meets the maximal elements once; deleting them yields the truncated order complex",
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
        reason = _out_of_scope(data, 0)
        return [_na(*MAIN, reason), _na(*SIGN, reason)]
    lhs = sum(abs(v) for v in data.atom_mu.values())
    rhs = data.alpha_min * abs(data.mu_bottom_top)
    main = _compare(*MAIN, lhs, rhs, lhs >= rhs)
    if not data.graded:
        return [main, _na(*SIGN, "not graded")]
    signed = {x: (-1) ** data.rank * v for x, v in sorted(data.atom_mu.items())}
    least = min(signed.values(), default=0)
    bad = next((x for x, v in signed.items() if v < 0), None)
    return [main, _compare(*SIGN, least, 0, least >= 0, bad)]


def check_mobius_decomposition(data: _InstanceData):
    reason = _out_of_scope(data, 2)
    if reason:
        return [_na(*DECOMPOSITION, reason)]
    lhs = sum(abs(v) for v in data.atom_mu.values()) - data.alpha_min * abs(data.mu_bottom_top)
    rhs = (
        (data.alpha_min - 1) * abs(data.chi_q)
        - abs(data.chi_r)
        + sum(data.alpha[y] - data.alpha_min for y in data.maximals)
    )
    return [_compare(*DECOMPOSITION, lhs, rhs, lhs == rhs)]


def check_truncation_step(data: _InstanceData):
    reason = _out_of_scope(data, 2)
    if reason:
        return [_na(*STEP, reason), _na(*INTERVAL_ROUTE, reason)]
    P, b = data.P, data.bottom
    chi = [data.chi_q, data.chi_r]
    rho, leq = rank_profile(P).rho, P.leq_matrix
    # (-1)^(rank(y) - 1) summed over the y >= x in Q, for each atom x of Q.
    above_atoms = leq[[P.index(x) for x in data.atoms]][:, data.q_mask].sum(axis=0)
    odd = rho[b, data.q_mask] % 2 == 1
    step = int(above_atoms[odd].sum() - above_atoms[~odd].sum())

    # psi of the min-attached interval poset of X = Q̄ or R̄: the new bottom
    # counts -1 and [x, y] has rank 1 + rho(x, y), since X is convex in the
    # graded P.  An empty R̄ leaves the bottom alone, whose psi is -1.
    def interval_route_value(mask):
        members = [i for i in np.flatnonzero(mask) if i != b]
        block = np.ix_(members, members)
        pairs = leq[block]
        odd = pairs & (rho[block] % 2 == 1)
        return -1 + np.count_nonzero(pairs) - 2 * np.count_nonzero(odd)

    route = [interval_route_value(data.q_mask), interval_route_value(data.r_mask)]
    return [
        _compare(*STEP, step, chi[0] - chi[1], step == chi[0] - chi[1]),
        _compare(*INTERVAL_ROUTE, route, chi, route == chi),
    ]


def select_basis(data: _InstanceData, reverse=False) -> tuple:
    """The maximal elements a greedy scan in (reversed) lexicographic order
    keeps, each kept when its class grows the span.  A class grows the
    span exactly when it is independent of the classes before it, that is,
    when one left-to-right column reduction of the classes in that order
    keeps its column a pivot, so the chosen elements are the columns that do
    not reduce to zero.

    Raises BasisNotFoundError unless the chosen classes span all of the top
    homology of Δ(Q̄); for a lower Eulerian Cohen-Macaulay instance that would
    contradict the spanning property the audit relies on, so callers treat
    it as a hard failure.
    """
    classes = data.interval_classes
    order = sorted(classes.classes, reverse=reverse)
    matrix = _kernels.SparseMatrix(
        {i: int(v) for i, v in enumerate(classes.classes[y]) if v} for y in order
    )
    _, dependent = _kernels.rref_inplace(matrix, data.fld.characteristic, track=True)
    chosen = tuple(y for j, y in enumerate(order) if j not in dependent)
    if len(chosen) != classes.ambient_dim:
        raise BasisNotFoundError(
            f"interval classes span only {len(chosen)} of {classes.ambient_dim} dimensions"
        )
    return chosen


def check_basis_bound(data: _InstanceData):
    checks = (BASIS_SIZE, BASIS_BOUND, BASIS_ORDER)
    reason = _out_of_scope(data, 2)
    if reason:
        return [_na(*check, reason) for check in checks]
    try:
        chosen = select_basis(data)
    except (OmegaNotOneDimensionalError, BasisNotFoundError) as exc:
        return [_compare(*check, None, None, False, str(exc)) for check in checks]
    size, betti = [len(chosen), data.interval_classes.ambient_dim], abs(data.chi_q)
    deficiency = abs(data.chi_r)
    bound = sum(data.alpha[y] - 1 for y in chosen)
    bound_ok = deficiency <= bound
    reversed_ok = deficiency <= sum(data.alpha[y] - 1 for y in select_basis(data, reverse=True))
    return [
        _compare(
            *BASIS_SIZE, size, betti, size == [betti, betti],
            "homology and Möbius pipelines disagree on the top Betti number",
        ),
        _compare(*BASIS_BOUND, deficiency, bound, bound_ok),
        _compare(*BASIS_ORDER, bound_ok, reversed_ok, bound_ok == reversed_ok),
    ]


def check_penultimate_identities(data: _InstanceData):
    d = data.rank
    in_scope = data.has_min and data.graded and d >= 1

    def identity_rhs(c):  # c = d for simplicial posets and 2^(d-1) for cubical ones
        return (-1) ** d * sum(data.atom_mu.values()) - c * (-1) ** (d + 1) * data.mu_bottom_top

    recs = []
    if in_scope and data.simplicial:
        lhs, rhs = simplicial_h(data.P).entries[d - 1], identity_rhs(d)
        recs.append(_compare(*SIMPLICIAL_IDENTITY, lhs, rhs, lhs == rhs))
    else:
        recs.append(_na(*SIMPLICIAL_IDENTITY, "not a graded simplicial poset of rank >= 1"))
    if in_scope and data.cubical:
        lhs, rhs = data.cubical_entries[d - 1], identity_rhs(2 ** (d - 1))
        recs.append(_compare(*CUBICAL_IDENTITY, lhs, rhs, lhs == rhs))
    else:
        recs.append(_na(*CUBICAL_IDENTITY, "not a graded cubical poset of rank >= 1"))
    return recs


def check_nonnegativity_corollaries(data: _InstanceData):
    d = data.rank
    if data.has_min and data.cubical and data.graded and data.cm and d >= 1:
        h = data.cubical_entries
        recs = [
            _compare(
                "cubical-penultimate-nonneg", "cubical h_{d-1} >= 0 for Cohen-Macaulay cubical posets",
                h[d - 1], 0, h[d - 1] >= 0,
            ),
            _compare("cubical-top-nonneg", "cubical h_d >= 0 for Cohen-Macaulay cubical posets", h[d], 0, h[d] >= 0),
        ]
    else:
        reason = "not a Cohen-Macaulay graded cubical poset"
        recs = [
            _na("cubical-penultimate-nonneg", "cubical h_{d-1} >= 0", reason),
            _na("cubical-top-nonneg", "cubical h_d >= 0", reason),
        ]
    reason = _out_of_scope(data, 1)
    if reason:
        return recs + [
            _na("toric-top-nonneg", "toric h_d >= 0", reason),
            _na("toric-penultimate-nonneg", "toric h_{d-1} >= 0", reason),
        ]
    h = toric_h(data.P).entries
    recs.append(
        _compare("toric-top-nonneg", "toric h_d >= 0 for lower Eulerian Cohen-Macaulay posets", h[d], 0, h[d] >= 0)
    )
    if data.meet:
        recs.append(
            _compare(
                "toric-penultimate-nonneg", "toric h_{d-1} >= 0 for lower Eulerian CM meet-semilattices",
                h[d - 1], 0, h[d - 1] >= 0,
            )
        )
    else:
        recs.append(_na("toric-penultimate-nonneg", "toric h_{d-1} >= 0", "not a meet-semilattice"))
    return recs


def check_truncation_structure(data: _InstanceData):
    checks = (INTERVALS_DOUBLY_CM, PBAR_BUCHSBAUM, QBAR_DOUBLY_CM, QBAR_BUCHSBAUM_STAR, ATOM_LINKS, TRANSVERSAL)
    reason = _out_of_scope(data, 2)
    if reason:
        return [_na(*check, reason) for check in checks]

    iv = data.pbar.intervals
    # y is maximal, so its link in Δ(P̄) is Δ((0̂, y)).
    scans = ((y, OrderComplexScan(iv, data.pbar.ground & iv.below[data.P.index(y)]).doubly_cm()) for y in data.maximals)
    interval_wit = next(((y, wit) for y, (ok, wit) in scans if not ok), None)
    interval_ok = interval_wit is None
    buch_ok, buch_wit = data.pbar.buchsbaum()
    recs = [
        _hypothesis_record(*INTERVALS_DOUBLY_CM, interval_ok, interval_wit),
        _hypothesis_record(*PBAR_BUCHSBAUM, buch_ok, buch_wit),
    ]

    if interval_ok:
        dcm_ok, dcm_wit = data.qbar.doubly_cm()
        recs.append(_compare(*QBAR_DOUBLY_CM, dcm_ok, True, dcm_ok, dcm_wit))
    else:
        recs.append(_na(*QBAR_DOUBLY_CM, "interval hypothesis failed"))

    if interval_ok and buch_ok:
        bs_ok, bs_wit = data.qbar.buchsbaum_star()
        recs.append(_compare(*QBAR_BUCHSBAUM_STAR, bs_ok, True, bs_ok, bs_wit))
    else:
        recs.append(_na(*QBAR_BUCHSBAUM_STAR, "hypotheses failed"))

    # P is graded of rank >= 2: its atoms are the minimal vertices of Δ(Q̄).
    maps = ((x, data.qbar.top_rank((x,)), data.qbar.link_top((x,))) for x in data.atoms)
    surj_wit = next((m for m in maps if m[1] != m[2]), None)
    recs.append(_compare(*ATOM_LINKS, surj_wit is None, True, surj_wit is None, surj_wit))

    delta_pbar = data.pbar.delta
    transversal = set(data.maximals)
    sides = [
        all(len(transversal.intersection(f)) == 1 for f in delta_pbar.facets),
        delta_pbar.delete_vertices(data.maximals) == data.qbar.delta,
    ]
    recs.append(_compare(*TRANSVERSAL, sides, [True, True], all(sides)))
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
