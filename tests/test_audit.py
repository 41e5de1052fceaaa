import json

import pytest

from posetlab import homology
from posetlab.audit import (
    FAIL,
    INAPPLICABLE,
    PASS,
    _InstanceData,
    audit_poset,
    run_suite,
    select_basis,
)
from posetlab.complexes import order_complex
from posetlab.generators import (
    boolean_lattice,
    cubical_complex_poset,
    face_poset_of_complex,
    make_family,
    points_complex,
    random_pure_subcomplex,
)
from posetlab.linalg import FieldSpec
from posetlab.poset import build_from_covers


def by_id(report):
    return {c.check_id: c for c in report.checks}


@pytest.fixture(scope="module")
def cycle4_report():
    return audit_poset(cubical_complex_poset("cycle", 4))


def test_cycle_audit_values(cycle4_report):
    checks = by_id(cycle4_report)
    assert checks["main-inequality"].lhs == 4
    assert checks["main-inequality"].rhs == 2
    assert checks["main-inequality"].verdict == PASS
    assert checks["mobius-decomposition"].lhs == 2
    assert checks["mobius-decomposition"].rhs == 2
    assert checks["truncation-alternating-sum"].lhs == 4
    assert checks["basis-size"].lhs == [3, 3]
    assert checks["basis-size"].rhs == 3
    assert checks["basis-deficiency-bound"].lhs == 1
    assert checks["basis-deficiency-bound"].rhs == 3
    assert checks["simplicial-penultimate-identity"].lhs == 2
    assert checks["cubical-penultimate-identity"].lhs == 2
    assert cycle4_report.passed


def test_cycle_structure_checks(cycle4_report):
    checks = by_id(cycle4_report)
    for cid in (
        "truncation-doubly-cm",
        "truncation-buchsbaum-star",
        "atom-link-surjectivity",
        "facet-transversal-deletion",
    ):
        assert checks[cid].verdict == PASS, cid


def test_cube_boundary_audit():
    report = audit_poset(cubical_complex_poset("cube-boundary", 3))
    checks = by_id(report)
    assert checks["main-inequality"].lhs == 8
    assert checks["main-inequality"].rhs == 4
    assert checks["mobius-decomposition"].lhs == 4
    assert checks["basis-size"].rhs == 5
    assert checks["basis-deficiency-bound"].lhs == 11
    assert checks["basis-deficiency-bound"].rhs == 15
    assert report.passed


def test_audit_builds_the_chain_complex_of_qbar_once(monkeypatch):
    """Atom-link surjectivity, Buchsbaum*, the interval classes, the Betti
    vector of Δ(Q̄) and its vertex deletions read one chain complex of
    Δ(Q̄), built on its chains as index tuples."""
    P = make_family("cube-boundary", 4)
    Q = P.remove_maximal().remove_min()
    qbar = sum(1 << P.index(x) for x in Q.elements)
    delta_qbar = order_complex(Q)
    built, listed = [], []
    build, chains = homology.chain_complex, homology._chains

    def counting(delta, fld):
        built.append(delta)
        return build(delta, fld)

    def listing(members, above):
        listed.append(members)
        return chains(members, above)

    monkeypatch.setattr(homology, "chain_complex", counting)
    monkeypatch.setattr(homology, "_chains", listing)
    checks = by_id(audit_poset(P))
    for cid in ("truncation-buchsbaum-star", "atom-link-surjectivity", "basis-size", "truncation-doubly-cm"):
        assert checks[cid].verdict == PASS, cid
    assert not any(delta == delta_qbar for delta in built)
    assert listed.count(qbar) == 1


def test_rank_one_poset_passes_trivially():
    report = audit_poset(face_poset_of_complex(points_complex(3)))
    checks = by_id(report)
    assert checks["main-inequality"].verdict == PASS
    assert checks["main-inequality"].lhs == 3
    assert checks["main-inequality"].rhs == 2
    assert checks["mobius-decomposition"].verdict == INAPPLICABLE
    assert report.passed


def test_non_cm_instance_is_out_of_scope_not_failing():
    complex_ = random_pure_subcomplex(6, 2, 2)
    report = audit_poset(face_poset_of_complex(complex_))
    checks = by_id(report)
    assert checks["hypothesis-cohen-macaulay"].verdict == INAPPLICABLE
    assert checks["hypothesis-cohen-macaulay"].witness is not None
    assert checks["main-inequality"].verdict == INAPPLICABLE
    assert report.passed  # nothing *failed*; the instance is out of scope


def test_min_less_poset_marks_everything_inapplicable():
    P = build_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
    report = audit_poset(P)
    checks = by_id(report)
    assert checks["hypothesis-minimum"].verdict == INAPPLICABLE
    assert all(
        c.verdict == INAPPLICABLE for c in report.checks if not c.check_id.startswith("hypothesis")
    )


def test_basis_selection_is_a_certified_basis():
    data = _InstanceData(cubical_complex_poset("cycle", 4), FieldSpec())
    selection = select_basis(data)
    assert len(selection.chosen) == 3
    assert selection.certificate_rank == 3
    reversed_selection = select_basis(data, reverse=True)
    assert len(reversed_selection.chosen) == 3
    assert selection.chosen != reversed_selection.chosen  # different, equally valid


def test_report_serialization_schema(cycle4_report):
    payload = cycle4_report.to_dict()
    assert set(payload) == {"instance", "field", "checks"}
    assert payload["field"] == 101
    for check in payload["checks"]:
        assert set(check) == {"id", "anchor", "lhs", "rhs", "verdict", "witness"}
        assert check["verdict"] in (PASS, FAIL, INAPPLICABLE)
    json.dumps(payload)  # JSON-serializable throughout


def test_every_verdict_recomputable_from_recorded_values(cycle4_report):
    for check in cycle4_report.checks:
        if check.verdict != PASS:
            continue
        cid = check.check_id
        if cid in ("main-inequality",):
            assert check.lhs >= check.rhs
        elif cid in ("mobius-decomposition", "truncation-alternating-sum"):
            assert check.lhs == check.rhs
        elif cid == "basis-deficiency-bound":
            assert check.lhs <= check.rhs


def test_run_suite_family_filter():
    reports = run_suite(family="cycle")
    names = [r.instance for r in reports]
    assert names == sorted(names)
    assert all(n.startswith("cycle") for n in names)
    assert len(names) == 4


def test_audit_field_is_configurable():
    report = audit_poset(boolean_lattice(2), FieldSpec(7))
    assert report.characteristic == 7
    assert report.passed


@pytest.mark.parametrize("p", [2, 3])
def test_audit_holds_in_small_characteristics(p):
    # The suite instances carry no torsion, so verdicts must not depend on
    # the field; small characteristics flush out accidental sign assumptions.
    fld = FieldSpec(p)
    for P in (
        cubical_complex_poset("cycle", 4),
        boolean_lattice(3),
        cubical_complex_poset("cube-boundary", 3),
        face_poset_of_complex(points_complex(3)),
    ):
        report = audit_poset(P, fld)
        assert report.passed, (P.name, p, [c.check_id for c in report.failures()])
