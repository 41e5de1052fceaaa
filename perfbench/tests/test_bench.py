"""Fast tests of the benchmark itself: each workload on reduced inputs, and
each output check against a planted wrong answer.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import wl_audit
import wl_cli
import wl_homology
from common import order_of
from tracing import Tracer

ROOT = run.ROOT
KNOWN_FAULTS = {"malformed cover-arity", "malformed element-type"}


def _run_reduced(module, tmp_path, seed=3):
    ops = module.build(seed, str(tmp_path), reduced=True)
    outcomes, _ = run.run_pass(ops)
    return ops, outcomes


def _value(ops, outcomes, label):
    for op, out in zip(ops, outcomes):
        if op.label == label:
            return op, out.value
    raise KeyError(label)


# -- reference computations ------------------------------------------------------


def _boolean(n):
    names = ["".join(str(i) for i in range(n) if s >> i & 1) or "e" for s in range(1 << n)]
    covers = [(names[s], names[s | 1 << i]) for s in range(1 << n) for i in range(n) if not s >> i & 1]
    return oracle.Order(names, covers)


def test_oracle_on_boolean_lattices():
    b3 = _boolean(3)
    assert b3.ranks()[b3.pos["012"]] == 3
    assert b3.signed_chains_from(b3.minimum())[b3.pos["012"]] == -1
    # Proper part of B3 is a hexagon: a circle, reduced Euler characteristic -1.
    inner = [i for i in range(len(b3)) if b3.elements[i] not in ("e", "012")]
    assert oracle.reduced_euler(b3.chain_counts(inner)) == -1
    mask = sum(1 << i for i in inner)
    assert len(b3.chains(mask)) == sum(b3.chain_counts(inner)) - 1
    assert b3.reduced_betti(mask, 2) == [0, 0, 1]
    assert b3.graded() and b3.lower_eulerian() and b3.cohen_macaulay(101)
    assert oracle.simplicial_h([1, 3, 3, 1]) == [1, 0, 0, 0]
    assert oracle.rank_mod_p([[1, 2], [2, 4]], 101) == 1
    assert oracle.rank_mod_p([[1, 1], [1, 0]], 2) == 2


def test_oracle_rejects_non_cohen_macaulay():
    # The face poset of two disjoint edges 12 and 34: without the empty face
    # its order complex is two disjoint paths, of dimension 1 with reduced
    # H_0 of rank 1.
    two = oracle.Order(
        ["0", "1", "2", "3", "4", "12", "34"],
        [("0", "1"), ("0", "2"), ("0", "3"), ("0", "4"), ("1", "12"), ("2", "12"), ("3", "34"), ("4", "34")],
    )
    assert two.graded() and two.lower_eulerian()
    assert two.reduced_betti(0b1111110, 101) == [0, 1, 0]
    assert not two.cohen_macaulay(101)


def test_oracle_cubical_h_of_a_square():
    # Face lattice of a square: empty face, 4 vertices, 4 edges, the square.
    # By hand: h^sc = 4(1-q)^2 + 8q(1-q) + 4q^2 = 4, chi = 0, so the dividend
    # is 4 + 4q and the cubical h-vector is (4, 0, 0, 0).
    assert oracle.short_cubical_h([1, 4, 4, 1]) == [4, 0, 0]
    assert oracle.cubical_h([1, 4, 4, 1]) == [4, 0, 0, 0]


# -- audit-suite ---------------------------------------------------------------


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    return _run_reduced(wl_audit, tmp_path_factory.mktemp("audit"))


def test_audit_reduced_passes(audit_run):
    ops, outcomes = audit_run
    assert not any(o.failed for o in outcomes)
    assert wl_audit.check(ops, outcomes) == []


def _report(audit_run, name):
    ops, outcomes = audit_run
    op, text = _value(ops, outcomes, name)
    return op, json.loads(text)


def _record(doc, check_id):
    return next(r for r in doc["checks"] if r["id"] == check_id)


def test_audit_rejects_flipped_verdict(audit_run):
    op, doc = _report(audit_run, "boolean-3")
    rec = _record(doc, "mobius-decomposition")
    assert rec["verdict"] == "pass"
    rec["verdict"] = "inapplicable"
    assert any("lhs/rhs give pass" in p for p in wl_audit.check_report(op, doc))


def test_audit_rejects_fail_and_wrong_sides(audit_run):
    op, doc = _report(audit_run, "boolean-3")
    main = _record(doc, "main-inequality")
    bad = copy.deepcopy(doc)
    bad_main = _record(bad, "main-inequality")
    bad_main["lhs"] = main["lhs"] + 1
    assert any("Hall's chain count" in p for p in wl_audit.check_report(op, bad))
    bad_main["lhs"], bad_main["rhs"], bad_main["verdict"] = 0, 1, "fail"
    problems = wl_audit.check_report(op, bad)
    assert any("verdict is fail" in p for p in problems)


SCOPE = ("hypothesis-minimum", "hypothesis-lower-eulerian", "hypothesis-cohen-macaulay", "hypothesis-graded")


def _out_of_scope(doc, hypothesis):
    """The report a predicate that wrongly denies `hypothesis` would give:
    every other check reads inapplicable, with no sides, and its work is
    skipped."""
    hyp = _record(doc, hypothesis)
    hyp["lhs"], hyp["verdict"] = False, "inapplicable"
    for rec in doc["checks"]:
        if rec["id"] not in SCOPE:
            rec["lhs"] = rec["rhs"] = None
            rec["verdict"] = "inapplicable"


@pytest.mark.parametrize("hypothesis", ["hypothesis-cohen-macaulay", "hypothesis-lower-eulerian"])
def test_audit_rejects_denied_hypothesis(audit_run, hypothesis):
    op, doc = _report(audit_run, "boolean-3")
    _out_of_scope(doc, hypothesis)
    problems = wl_audit.check_report(op, doc)
    assert any(f"{hypothesis}: reads False" in p for p in problems)
    assert any("main-inequality: skipped" in p for p in problems)
    assert any("hypothesis-truncation-buchsbaum: skipped" in p for p in problems)


def test_audit_rejects_granted_hypothesis(audit_run):
    op, doc = _report(audit_run, "random-6-2-s2")
    cm = _record(doc, "hypothesis-cohen-macaulay")
    assert cm["lhs"] is False
    cm["lhs"], cm["verdict"] = True, "pass"
    assert any("reads True" in p for p in wl_audit.check_report(op, doc))


def test_audit_rejects_changed_report_bytes(audit_run):
    ops, outcomes = audit_run
    bad = [copy.copy(o) for o in outcomes]
    bad[0].value = bad[0].value.replace('"field": 101', '"field":  101')
    problems = wl_audit.check(ops, bad)
    assert any("report bytes differ" in p for p in problems)


def test_audit_rejects_unknown_check(audit_run):
    op, doc = _report(audit_run, "cycle-4")
    doc["checks"].append({"id": "new-check", "lhs": 1, "rhs": 1, "verdict": "pass", "anchor": "", "witness": None})
    assert any("no rule" in p for p in wl_audit.check_report(op, doc))


def test_oracle_scope_facts_on_suite():
    """Every built-in instance is in scope except random-6-2-s2, which is not
    Cohen-Macaulay."""
    from posetlab.generators import suite
    from posetlab.poset import poset_to_dict

    outside = []
    for name, poset in suite():
        facts, _ = wl_audit._facts(order_of(poset_to_dict(poset)))
        if not all(facts.values()):
            outside.append((name, [k for k, v in facts.items() if not v]))
    assert outside == [("random-6-2-s2", ["hypothesis-cohen-macaulay"])]


# -- homology-large ------------------------------------------------------------------


@pytest.fixture(scope="module")
def homology_run(tmp_path_factory):
    return _run_reduced(wl_homology, tmp_path_factory.mktemp("homology"))


def test_homology_reduced_passes(homology_run):
    ops, outcomes = homology_run
    assert not any(o.failed for o in outcomes)
    assert wl_homology.check(ops, outcomes) == []
    kinds = {op.expect["kind"] for op in ops}
    assert kinds == {"sphere", "contractible", "euler-only", "classes"}


@pytest.mark.parametrize("label", [
    "homology simplex-boundary-3 p=2",
    "homology boolean-3 p=101",
    "homology random-poset-5-2-3 p=101",
])
def test_homology_rejects_betti_off_by_one(homology_run, label):
    ops, outcomes = homology_run
    op, betti = _value(ops, outcomes, label)
    bad = dict(betti)
    bad[max(bad)] += 1
    assert wl_homology.check_homology(op, bad)


def test_homology_rejects_collapsed_classes(homology_run):
    ops, outcomes = homology_run
    op, result = _value(ops, outcomes, "interval-classes grid-2-2 p=101")
    bad = copy.deepcopy(result)
    first, *rest = bad["classes"]
    for y in rest:
        bad["classes"][y] = list(bad["classes"][first])
    assert any("span" in p for p in wl_homology.check_classes(op, bad))


# -- cli-files -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    return _run_reduced(wl_cli, tmp_path_factory.mktemp("cli"))


def test_cli_reduced_passes(cli_run):
    ops, outcomes = cli_run
    failed = {op.label for op, out in zip(ops, outcomes) if out.failed}
    assert failed <= KNOWN_FAULTS
    assert wl_cli.check(ops, outcomes) == []


def test_cli_rejects_wrong_exit_code(cli_run):
    ops, outcomes = cli_run
    op, result = _value(ops, outcomes, "check simplicial simplex-boundary-3")
    assert wl_cli.check_call(op, dict(result, code=1))
    op, result = _value(ops, outcomes, "malformed unknown-element")
    assert wl_cli.check_call(op, dict(result, code=1))
    assert wl_cli.check_call(op, dict(result, stderr="Traceback (most recent call last):\n"))


def _rewrite(op, edit):
    with open(op.expect["out"]) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(op.expect["out"], "w") as fh:
        json.dump(doc, fh)


def test_cli_rejects_wrong_outputs(tmp_path):
    ops, outcomes = _run_reduced(wl_cli, tmp_path)
    by_label = {op.label: (op, out.value) for op, out in zip(ops, outcomes)}

    op, result = by_label["compute mobius cube-lattice-2"]
    _rewrite(op, lambda d: d["values"][1].__setitem__(2, -d["values"][1][2]))
    assert wl_cli.check_call(op, result)

    op, result = by_label["compute cubical-h cube-lattice-2"]
    _rewrite(op, lambda d: d["entries"].__setitem__(0, d["entries"][0] + 1))
    assert wl_cli.check_call(op, result)

    op, result = by_label["compute toric-h simplex-boundary-3"]
    _rewrite(op, lambda d: d["entries"].__setitem__(0, d["entries"][0] + 1))
    problems = wl_cli.check_call(op, result)
    assert any("symmetric" in p for p in problems)
    assert any("simplicial" in p for p in problems)

    op, result = by_label["compute homology cube-boundary-3 p=101"]
    _rewrite(op, lambda d: d["betti"].__setitem__("2", 2))
    assert wl_cli.check_call(op, result)


# -- tracing and the runner ------------------------------------------------------------


def _traced_counts(tmp_path):
    tracer = Tracer()
    tracer.install(extra_modules=[wl_homology])
    try:
        with tracer.span("setup"):
            ops = wl_homology.build(5, str(tmp_path), reduced=True)
        run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    return tracer


def test_trace_counts_repeat_and_cover_every_metric(tmp_path):
    import posetlab.homology as homology

    original = homology.reduced_homology
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert homology.reduced_homology is original
    assert wl_homology.reduced_homology is original
    assert first.counts == second.counts
    assert first.counts["linalg.eliminations"] > 0
    assert first.counts["complexes.links"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names - set(first.layer_metrics()) == {"trace.overhead_s"}


def test_trace_overhead_is_estimated(tmp_path):
    span_cost, count_cost = costs = Tracer.wrapper_costs(calls=2000, repeats=3)
    assert span_cost > count_cost > 0
    assert _traced_counts(tmp_path).overhead_s(costs) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
