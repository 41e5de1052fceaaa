"""audit-suite: the identity audit over the built-in instances at p = 101.

One operation audits one instance and serialises its report, as
`posetlab audit all` does for each instance.  The suite is fixed, so the seed
changes nothing here.
"""

from __future__ import annotations

import hashlib
import json
import os

from posetlab.audit import audit_poset
from posetlab.generators import suite
from posetlab.linalg import FieldSpec
from posetlab.poset import poset_to_dict

import oracle
from common import Op, dump, order_of

PRIME = 101
HERE = os.path.dirname(os.path.abspath(__file__))
# sha256 of each instance's report bytes, written by
# `PYTHONPATH=src python3 perfbench/wl_audit.py` from the root of a checkout.
REFERENCE = os.path.join(HERE, "audit_reference.json")

# Instances small enough for the benchmark's own tests; random-6-2-s2 is
# not Cohen-Macaulay, so most of its checks are out of scope.
REDUCED = ("boolean-3", "cycle-4", "grid-1x2", "random-5-2-s1", "random-6-2-s2", "simplex-boundary-3")


def _audit(poset, fld):
    return dump(audit_poset(poset, fld).to_dict())


def build(seed, workdir, reduced=False):
    fld = FieldSpec(PRIME)
    ops = []
    for name, poset in suite():
        if reduced and name not in REDUCED:
            continue
        ops.append(
            Op(
                name,
                lambda poset=poset: _audit(poset, fld),
                {"poset": poset_to_dict(poset)},
            )
        )
    return ops


def _relation(check_id):
    """How a record's verdict follows from its recorded lhs and rhs."""
    if check_id.startswith("hypothesis-"):
        return "hypothesis"
    if check_id in ("main-inequality", "atom-sign") or check_id.endswith("-nonneg"):
        return ">="
    if check_id == "basis-deficiency-bound":
        return "<="
    if check_id == "basis-size":
        return "basis-size"
    if check_id in (
        "mobius-decomposition",
        "truncation-alternating-sum",
        "interval-poset-route",
        "basis-order-independence",
        "simplicial-penultimate-identity",
        "cubical-penultimate-identity",
        "truncation-doubly-cm",
        "truncation-buchsbaum-star",
        "atom-link-surjectivity",
        "facet-transversal-deletion",
    ):
        return "=="
    return None


def expected_verdict(record):
    """The verdict a record's own lhs and rhs imply, or None when no rule
    covers its check id."""
    lhs, rhs = record["lhs"], record["rhs"]
    rel = _relation(record["id"])
    if rel is None:
        return None
    if lhs is None and rhs is None:
        return "inapplicable"
    if rel == "hypothesis":
        return "pass" if lhs is True else "inapplicable"
    if lhs is None:
        return "fail"
    if rel == ">=":
        holds = lhs >= rhs
    elif rel == "<=":
        holds = lhs <= rhs
    elif rel == "basis-size":
        holds = lhs[0] == lhs[1] == rhs
    else:
        holds = lhs == rhs
    return "pass" if holds else "fail"


def _facts(order):
    """Which hypotheses hold, and the rank, from the benchmark's own
    computations.  Every built-in instance has a minimum."""
    if order.minimum() is None:
        return {"hypothesis-minimum": False}, 0
    graded = order.graded()
    facts = {
        "hypothesis-minimum": True,
        "hypothesis-lower-eulerian": order.lower_eulerian(),
        "hypothesis-cohen-macaulay": order.cohen_macaulay(PRIME),
        "hypothesis-graded": graded,
    }
    return facts, max(order.chain_lengths(order.minimum())[0]) if graded else 0


def check_report(op, report_dict):
    """Problems with one instance's serialised report."""
    problems = []
    if report_dict.get("instance") != op.label or report_dict.get("field") != PRIME:
        problems.append(f"{op.label}: report names {report_dict.get('instance')!r} at p={report_dict.get('field')}")
    records = {rec["id"]: rec for rec in report_dict.get("checks", [])}
    for rec in report_dict.get("checks", []):
        where = f"{op.label}/{rec['id']}"
        if rec["verdict"] == "fail":
            problems.append(f"{where}: verdict is fail")
        want = expected_verdict(rec)
        if want is None:
            problems.append(f"{where}: no rule recomputes this check's verdict")
        elif want != rec["verdict"]:
            problems.append(f"{where}: verdict {rec['verdict']} but lhs/rhs give {want}")
    if not records:
        problems.append(f"{op.label}: report has no checks")
        return problems

    # Whether each instance is in the statements' scope is recomputed here, so
    # a hypothesis predicate that goes wrong cannot turn checks inapplicable
    # and skip their work unnoticed.
    order = order_of(op.expect["poset"])
    facts, rank = _facts(order)
    for cid, holds in facts.items():
        got = records.get(cid, {}).get("lhs")
        if got is not holds:
            problems.append(f"{op.label}/{cid}: reads {got} but the benchmark computes {holds}")
    scoped = all(facts.get(c) for c in ("hypothesis-minimum", "hypothesis-lower-eulerian", "hypothesis-cohen-macaulay"))
    applicable = {
        "main-inequality": scoped,
        "hypothesis-truncation-buchsbaum": scoped and facts["hypothesis-graded"] and rank >= 2,
    }
    for cid, want in applicable.items():
        rec = records.get(cid)
        got = rec is not None and rec["lhs"] is not None
        if got != want:
            problems.append(f"{op.label}/{cid}: {'computed' if got else 'skipped'}, but the instance is {'in' if want else 'out of'} scope")
    main = records.get("main-inequality")
    if scoped and main is not None:
        sides = oracle.main_inequality_sides(order)
        if [main["lhs"], main["rhs"]] != list(sides):
            problems.append(
                f"{op.label}/main-inequality: sides {main['lhs']}, {main['rhs']} but Hall's chain count gives {sides[0]}, {sides[1]}"
            )
    return problems


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check(ops, outcomes):
    """Each report must equal, byte for byte, the one pinned in REFERENCE (the
    report bytes are fixed from commit to commit), and pass the checks above."""
    problems = []
    with open(REFERENCE) as fh:
        pinned = json.load(fh)["reports"]
    for op, out in zip(ops, outcomes):
        if out.failed:
            continue
        text = out.value
        if _digest(text) != pinned.get(op.label):
            problems.append(f"{op.label}: report bytes differ from the reference in {os.path.basename(REFERENCE)}")
        problems.extend(check_report(op, json.loads(text)))
    return problems


def write_reference():
    """Pin the sha256 of every instance's report bytes."""
    reports = {op.label: _digest(op.call()) for op in build(0, None)}
    with open(REFERENCE, "w") as fh:
        fh.write(dump({"field": PRIME, "reports": reports}))


if __name__ == "__main__":
    write_reference()
