import hashlib
import json
import os
import random
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle
from conftest import drawn_poset
from poset_oracle import mobius_row
from posetlab import audit, homology
from posetlab.audit import (
    FAIL,
    INAPPLICABLE,
    PASS,
    _InstanceData,
    audit_poset,
    check_basis_bound,
    check_main_inequality,
    check_mobius_decomposition,
    check_nonnegativity_corollaries,
    check_penultimate_identities,
    check_truncation_step,
    check_truncation_structure,
    run_suite,
    select_basis,
)
from posetlab.cli import main
from posetlab.complexes import order_complex
from posetlab.errors import BasisNotFoundError, EmptyPosetError
from posetlab.generators import (
    boolean_lattice,
    cubical_complex_poset,
    face_poset_of_complex,
    make_family,
    points_complex,
    random_pure_subcomplex,
    suite,
)
from posetlab.linalg import FieldSpec
from posetlab.poset import (
    FinitePoset,
    build_from_covers,
    rank_alternating_sum,
    rank_profile,
    reduced_euler_char,
)


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
    assert data.interval_classes.ambient_dim == 3
    assert select_basis(data) == ("v0|v1", "v0|v3", "v1|v2")
    assert select_basis(data, reverse=True) == ("v2|v3", "v1|v2", "v0|v3")  # different, equally valid


def test_report_serialization_schema(cycle4_report):
    payload = cycle4_report.to_dict()
    assert set(payload) == {"instance", "field", "checks"}
    assert payload["field"] == 101
    for check in payload["checks"]:
        assert set(check) == {"id", "anchor", "lhs", "rhs", "verdict", "witness"}
        assert check["verdict"] in (PASS, FAIL, INAPPLICABLE)
    json.dumps(payload)  # JSON-serializable throughout


# How each check's verdict follows from its recorded sides.
RELATIONS = {
    "hypothesis-minimum": "hypothesis",
    "hypothesis-lower-eulerian": "hypothesis",
    "hypothesis-cohen-macaulay": "hypothesis",
    "hypothesis-graded": "hypothesis",
    "main-inequality": ">=",
    "atom-sign": ">=",
    "mobius-decomposition": "==",
    "truncation-alternating-sum": "==",
    "interval-poset-route": "==",
    "basis-size": "basis-size",
    "basis-deficiency-bound": "<=",
    "basis-order-independence": "==",
    "simplicial-penultimate-identity": "==",
    "cubical-penultimate-identity": "==",
    "cubical-penultimate-nonneg": ">=",
    "cubical-top-nonneg": ">=",
    "toric-top-nonneg": ">=",
    "toric-penultimate-nonneg": ">=",
    "hypothesis-interval-doubly-cm": "hypothesis",
    "hypothesis-truncation-buchsbaum": "hypothesis",
    "truncation-doubly-cm": "==",
    "truncation-buchsbaum-star": "==",
    "atom-link-surjectivity": "==",
    "facet-transversal-deletion": "==",
}

HOLDS = {
    ">=": lambda lhs, rhs: lhs >= rhs,
    "<=": lambda lhs, rhs: lhs <= rhs,
    "==": lambda lhs, rhs: lhs == rhs,
    "basis-size": lambda lhs, rhs: lhs[0] == lhs[1] == rhs,
}

# What the scope rule says of an instance outside a statement's hypotheses
# or below its rank, and the reasons the checks give for their own scopes.
SCOPE_REASONS = {
    "no minimum",
    "not lower Eulerian",
    "not Cohen-Macaulay",
    "not lower Eulerian, not Cohen-Macaulay",
    "not Cohen-Macaulay, not graded",
    "not lower Eulerian, not Cohen-Macaulay, not graded",
    "rank below 1",
    "rank below 2",
}
CHECK_REASONS = {
    "not graded",
    "not a graded simplicial poset of rank >= 1",
    "not a graded cubical poset of rank >= 1",
    "not a Cohen-Macaulay graded cubical poset",
    "not a meet-semilattice",
    "interval hypothesis failed",
    "hypotheses failed",
}


def implied_verdict(check):
    relation = RELATIONS[check.check_id]
    if check.lhs is None and check.rhs is None:
        return INAPPLICABLE
    if relation == "hypothesis":
        assert check.rhs is True
        return PASS if check.lhs is True else INAPPLICABLE
    return PASS if HOLDS[relation](check.lhs, check.rhs) else FAIL


def test_every_verdict_recomputable_from_recorded_values():
    """Every record of the suite, of drawn posets and of a one-element
    poset, a four-element chain and a poset without a minimum, at p = 2, 3
    and 101, has the verdict its sides imply by its check's relation, and a
    witness only when it does not pass.  The scope rule gives each of its
    reasons here."""
    posets = [P for _, P in suite()] + [drawn_poset(seed) for seed in range(60)]
    posets += [
        build_from_covers(["0"], [], name="point"),
        build_from_covers(["0", "a", "b", "c"], [("0", "a"), ("a", "b"), ("b", "c")], name="chain-4"),
        build_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")], name="no-minimum"),
    ]
    ids, reasons = set(), set()
    for P in posets:
        for p in (2, 3, 101):
            for check in audit_poset(P, FieldSpec(p)).checks:
                assert check.verdict == implied_verdict(check), (P.name, p, check)
                assert check.verdict != PASS or check.witness is None, (P.name, p, check)
                ids.add(check.check_id)
                if check.lhs is None and check.rhs is None:
                    reasons.add(check.witness)
    assert ids == set(RELATIONS)
    assert SCOPE_REASONS <= reasons <= SCOPE_REASONS | CHECK_REASONS


def test_scope_rule_reasons_no_poset_gives():
    """A poset with a minimum whose order complex is Cohen-Macaulay is
    graded, so these reasons are read off instance flags set by hand."""
    flags = {"has_min": True, "lower_eulerian": True, "cm": True, "graded": False, "rank": 3}
    assert audit._out_of_scope(SimpleNamespace(**flags), 2) == "not graded"
    assert audit._out_of_scope(SimpleNamespace(**{**flags, "lower_eulerian": False}), 2) == "not lower Eulerian, not graded"
    flags["graded"] = True
    assert [audit._out_of_scope(SimpleNamespace(**flags), r) for r in (0, 3, 4)] == [None, None, "rank below 4"]
    assert audit._out_of_scope(SimpleNamespace(**{**flags, "has_min": False, "cm": False}), 0) == "no minimum"


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


PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "audit_pins.json")


@pytest.mark.parametrize("p", ["2", "3", "101"])
def test_audit_all_bytes_match_the_pins(p, capsys):
    """`posetlab audit all --field p` gives the exit code and the sha256 of
    the stdout and stderr bytes pinned in audit_pins.json."""
    with open(PINS) as fh:
        pinned = json.load(fh)[p]
    code = main(["audit", "all", "--field", p])
    out, err = capsys.readouterr()
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest(out), digest(err)) == (pinned["exit"], pinned["stdout"], pinned["stderr"])


# -- the truncation step against Q and R built as posets --------------------------


def dense_route_value(X):
    """psi of the min-attached interval poset of X minus its minimum, built
    as a poset; -1 when X is its minimum alone."""
    try:
        bar = X.remove_min()
    except EmptyPosetError:
        return -1
    return rank_alternating_sum(bar.interval_poset().attach_min())


def qualifying_rank_two_or_more(posets, fld):
    for P in posets:
        data = _InstanceData(P, fld)
        if audit._out_of_scope(data, 2) is None:
            yield data


def drawn_qualifying_posets():
    """Face posets of drawn pure complexes and drawn posets of the
    random-poset family; the caller keeps the ones the audit finds lower
    Eulerian, CM and graded of rank >= 2."""
    out = [face_poset_of_complex(random_pure_subcomplex(n, d, seed)) for n, d in ((5, 1), (6, 2), (7, 2), (7, 3)) for seed in range(4)]
    out += [make_family("random-poset", n, levels, seed) for n, levels in ((6, 2), (6, 3), (7, 3)) for seed in range(3)]
    return out


def loop_step_value(Q):
    """The sum over atoms x of Q and y >= x in Q of (-1)^(rank(y) - 1)."""
    ranks = rank_profile(Q).ranks
    return sum((-1) ** (ranks[y] - 1) for x in Q.atoms() for y in Q.upset(x).elements)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_truncation_step_matches_truncations_built_as_posets(p):
    """The step's values, read off P's own tables (masks for Q and R, P's
    Möbius row and interval ranks), are those of Q = P - max and R = Q -
    atoms built as posets: their Euler characteristics, the alternating sum
    over their own ranks, and the interval posets of Q-bar and R-bar built
    and graded on their own; the dense path never meets a poset that is not
    lower graded there.  Rank-2 instances have an empty R-bar and read -1."""
    fld = FieldSpec(p)
    seen = set()
    for kind, posets in (("suite", [P for _, P in suite()]), ("drawn", drawn_qualifying_posets())):
        for data in qualifying_rank_two_or_more(posets, fld):
            Q = data.P.remove_maximal()
            R = Q.remove_atoms()
            checks = {c.check_id: c for c in check_truncation_step(data)}
            chi = [reduced_euler_char(Q), reduced_euler_char(R)]
            assert [data.chi_q, data.chi_r] == chi, data.P.name
            step = checks["truncation-alternating-sum"]
            assert step.lhs == loop_step_value(Q) == step.rhs, data.P.name
            route = checks["interval-poset-route"]
            assert route.lhs == [dense_route_value(Q), dense_route_value(R)] == chi, data.P.name
            seen.add((kind, "empty R-bar" if len(R) == 1 else "R-bar"))
    assert seen == {(kind, r) for kind in ("suite", "drawn") for r in ("empty R-bar", "R-bar")}


def test_suite_audit_builds_no_interval_poset_and_no_qbar_face_ranks(monkeypatch):
    """The route makes no `interval_poset` call, and Buchsbaum* of Δ(Q̄)
    makes no per-face `top_rank` call: the only top ranks of a scan of Δ(Q̄)
    are those of the atom-link check, one per atom."""
    ranked = []
    top_rank = homology.OrderComplexScan.top_rank

    def refuse(self, name=None):
        raise AssertionError("the audit built an interval poset")

    def recording(self, face):
        ranked.append(face)
        return top_rank(self, face)

    posets = [P for _, P in suite()]  # the interval family is built with interval_poset
    monkeypatch.setattr(FinitePoset, "interval_poset", refuse)
    monkeypatch.setattr(homology.OrderComplexScan, "top_rank", recording)
    qualifying = 0
    for P in posets:
        ranked.clear()
        checks = by_id(audit_poset(P))
        if checks["truncation-buchsbaum-star"].verdict == INAPPLICABLE:
            assert ranked == [], P.name
            continue
        assert checks["truncation-buchsbaum-star"].verdict == PASS, P.name
        assert ranked == [(x,) for x in sorted(P.atoms())], P.name
        qualifying += 1
    assert qualifying == 28


def chi_r_oracle(P):
    """chi(R) of R = P minus its maximal elements and its atoms, built as a
    poset: minus the sum of R's own Möbius row from the minimum."""
    drop = set(P.maximal_elements()) | set(P.atoms())
    R = P.induced([x for x in P.elements if x not in drop])
    return -sum(mobius_row(R, R.index(R.minimum())))


def test_chi_r_from_the_atom_identity_matches_the_subposet_row():
    """chi(R) read off P's Möbius table by the atom identity equals the
    recurrence on R built as a poset, with no Eulerian or CM hypothesis."""
    chain = build_from_covers(["0", "a", "b", "c"], [("0", "a"), ("a", "b"), ("b", "c")], name="chain-4")
    posets = [P for _, P in suite()] + [drawn_poset(seed) for seed in range(40)]
    posets += drawn_qualifying_posets() + [chain]
    seen = set()
    for P in posets:
        data = _InstanceData(P, FieldSpec())
        assert data.chi_r == chi_r_oracle(P), P.name
        if audit._out_of_scope(data, 0) is None:
            seen.add("qualifies")
        seen.update(kind for kind, flag in (("not CM", data.cm), ("not lower Eulerian", data.lower_eulerian)) if not flag)
        seen.add(f"rank {min(data.rank, 3)}" if data.graded else "ungraded")
    assert seen == {"qualifies", "not CM", "not lower Eulerian", "rank 1", "rank 2", "rank 3", "ungraded"}


def greedy_rank_loop(classes, p, reverse=False):
    """The greedy basis by one dense rank per candidate: (chosen, rank)."""
    chosen, current = [], 0
    for y in sorted(classes.classes, reverse=reverse):
        r = dense_oracle.rank(np.column_stack([classes.classes[x] for x in chosen + [y]]), p)
        if r > current:
            chosen.append(y)
            current = r
        if current == classes.ambient_dim:
            break
    return tuple(chosen), current


@pytest.mark.parametrize("p", [2, 3, 101])
def test_select_basis_matches_the_rank_loop(p):
    """One column reduction picks the elements the rank-per-candidate loop
    picks, in both orders: on the qualifying instances and on drawn classes
    with repeated and dependent columns, where the loop stops short of a
    basis and `select_basis` refuses with the span it reached."""
    fld = FieldSpec(p)
    posets = [P for _, P in suite()] + drawn_qualifying_posets()
    instances = [data.interval_classes for data in qualifying_rank_two_or_more(posets, fld)]
    rng = random.Random(p)
    for _ in range(60):
        dim = rng.randint(1, 4)
        pool = [np.array([rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(dim)]) for _ in range(rng.randint(1, 3))]
        vectors = [sum(rng.randrange(p) * v for v in pool) % p for _ in range(rng.randint(1, 6))]
        instances.append(homology.MaximalIntervalClasses(dim, {f"y{i}": v for i, v in enumerate(vectors)}))
    spans = set()
    for classes in instances:
        for reverse in (False, True):
            want, rank = greedy_rank_loop(classes, p, reverse)
            data = SimpleNamespace(interval_classes=classes, fld=fld)
            if rank == classes.ambient_dim:
                assert select_basis(data, reverse=reverse) == want
                spans.add("basis")
            else:
                with pytest.raises(BasisNotFoundError) as exc:
                    select_basis(data, reverse=reverse)
                assert str(exc.value) == f"interval classes span only {rank} of {classes.ambient_dim} dimensions"
                spans.add("short")
    assert spans == {"basis", "short"}



# -- the FAIL branches, reached through patched instance values -------------------


def cycle4_data():
    """Instance data of cycle-4 at p = 101: d = 2, atom Möbius values 1,
    mu(0, 1) = -1, alpha = 2 for every maximal element, chi(Q) = 3 and
    chi(R) = -1; the greedy bases are v0|v1, v0|v3, v1|v2 forward and
    v2|v3, v1|v2, v0|v3 reversed."""
    return _InstanceData(cubical_complex_poset("cycle", 4), FieldSpec())


def sides(records):
    return {c.check_id: (c.lhs, c.rhs, c.verdict, c.witness) for c in records}


def test_patched_values_drive_every_comparison_to_fail(monkeypatch):
    """Each of the comparison checks reads FAIL, with the recorded sides and
    witness, once one of the values it compares is made wrong."""
    data = cycle4_data()
    data.alpha_min = 5
    assert sides(check_main_inequality(data))["main-inequality"] == (4, 5, FAIL, None)

    data = cycle4_data()
    data.atom_mu = {**data.atom_mu, "v2": -1}
    assert sides(check_main_inequality(data))["atom-sign"] == (-1, 0, FAIL, "v2")
    assert sides(check_penultimate_identities(data)) == {
        "simplicial-penultimate-identity": (2, 0, FAIL, None),
        "cubical-penultimate-identity": (2, 0, FAIL, None),
    }

    data = cycle4_data()
    data.chi_r = -5
    assert sides(check_mobius_decomposition(data)) == {"mobius-decomposition": (2, -2, FAIL, None)}
    assert sides(check_truncation_step(data)) == {
        "truncation-alternating-sum": (4, 8, FAIL, None),
        "interval-poset-route": ([3, -1], [3, -5], FAIL, None),
    }
    assert sides(check_basis_bound(data))["basis-deficiency-bound"] == (5, 3, FAIL, None)

    data = cycle4_data()
    data.chi_q = 4
    witness = "homology and Möbius pipelines disagree on the top Betti number"
    assert sides(check_basis_bound(data))["basis-size"] == ([3, 3], 4, FAIL, witness)

    data = cycle4_data()
    data.alpha = {**data.alpha, "v0|v1": 4}
    data.chi_r = -4
    assert sides(check_basis_bound(data)) == {
        "basis-size": ([3, 3], 3, PASS, None),
        "basis-deficiency-bound": (4, 5, PASS, None),
        "basis-order-independence": (True, False, FAIL, None),
    }

    data = cycle4_data()
    data.interval_classes = homology.MaximalIntervalClasses(3, {y: np.array([1, 0, 0]) for y in data.maximals})
    span = "interval classes span only 1 of 3 dimensions"
    assert sides(check_basis_bound(data)) == {
        cid: (None, None, FAIL, span) for cid in ("basis-size", "basis-deficiency-bound", "basis-order-independence")
    }

    data = cycle4_data()
    data.cubical_entries = (1, -1, -2)
    assert sides(check_penultimate_identities(data))["cubical-penultimate-identity"] == (-1, 2, FAIL, None)
    monkeypatch.setattr(audit, "toric_h", lambda P: SimpleNamespace(entries=(1, -3, -4)))
    assert sides(check_nonnegativity_corollaries(data)) == {
        "cubical-penultimate-nonneg": (-1, 0, FAIL, None),
        "cubical-top-nonneg": (-2, 0, FAIL, None),
        "toric-top-nonneg": (-4, 0, FAIL, None),
        "toric-penultimate-nonneg": (-3, 0, FAIL, None),
    }

    data = cycle4_data()
    qbar, top_rank = data.qbar, data.qbar.top_rank
    qbar.doubly_cm = lambda: (False, ("v0",))
    qbar.buchsbaum_star = lambda: (False, ("v1",))
    qbar.top_rank = lambda face: 0 if face == ("v1",) else top_rank(face)
    data.maximals = data.maximals[:-1]  # drops v2|v3, after Q-bar was scanned
    assert sides(check_truncation_structure(data)) == {
        "hypothesis-interval-doubly-cm": (True, True, PASS, None),
        "hypothesis-truncation-buchsbaum": (True, True, PASS, None),
        "truncation-doubly-cm": (False, True, FAIL, ("v0",)),
        "truncation-buchsbaum-star": (False, True, FAIL, ("v1",)),
        "atom-link-surjectivity": (False, True, FAIL, ("v1", 0, 1)),
        "facet-transversal-deletion": ([False, False], [True, True], FAIL, None),
    }
