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
from posetlab import homology
from posetlab.audit import (
    FAIL,
    INAPPLICABLE,
    PASS,
    _InstanceData,
    audit_poset,
    check_truncation_step,
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
        if data.qualifies and data.rank >= 2:
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
        if data.qualifies:
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
                selection = select_basis(data, reverse=reverse)
                assert (selection.chosen, selection.certificate_rank) == (want, rank)
                spans.add("basis")
            else:
                with pytest.raises(BasisNotFoundError) as exc:
                    select_basis(data, reverse=reverse)
                assert str(exc.value) == f"interval classes span only {rank} of {classes.ambient_dim} dimensions"
                spans.add("short")
    assert spans == {"basis", "short"}

