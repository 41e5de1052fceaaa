"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The audited suite is computed once per session and
shared across criteria.
"""

import time

from dense_oracle import open_interval_complex
from posetlab.cli import main as cli_main
from posetlab.complexes import order_complex, reduced_order_complex
from posetlab.generators import (
    boolean_lattice,
    cube_face_lattice,
    full_simplex_complex,
    path_complex,
    points_complex,
    random_pure_subcomplex,
    simplex_boundary_complex,
)
from posetlab.homology import classify, reduced_homology
from posetlab.hvectors import (
    cubical_h,
    cubical_h_penultimate_direct,
    hetyei_decomposition_check,
    short_cubical_h,
    simplicial_h,
    toric_face_polynomials,
    toric_h,
)
from posetlab.poset import (
    is_cubical_poset,
    is_graded,
    is_lower_eulerian,
    is_simplicial_poset,
    mobius,
    mobius_from,
    rank_alternating_sum,
    rank_profile,
    reduced_euler_char,
)


def conclude(number, slug, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {slug}: {status}")
    assert not failures, f"criterion {number} ({slug}): {failures[:5]}"


def records(report):
    return {c.check_id: c for c in report.checks}


def test_criterion_01_mobius_matches_open_interval_euler_char(suite_posets):
    failures = []
    start = time.perf_counter()
    assert len(suite_posets) >= 30
    for name, P in suite_posets:
        assert len(P) <= 2000
        table = mobius(P)
        for x in P.elements:
            for y in P.elements:
                if x == y or not P.leq(x, y):
                    continue
                chi = open_interval_complex(P, x, y).reduced_euler_char()
                if table.mu(x, y) != chi:
                    failures.append((name, x, y, table.mu(x, y), chi))
    elapsed = time.perf_counter() - start
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    conclude(1, "mobius-equals-interval-euler-char", failures)


def test_criterion_02_euler_char_equals_rank_alternating_sum(suite_posets):
    failures = []
    checked = 0
    for name, P in suite_posets:
        if not is_lower_eulerian(P):
            continue
        checked += 1
        if reduced_euler_char(P) != rank_alternating_sum(P):
            failures.append(name)
    assert checked >= 25
    conclude(2, "euler-char-equals-rank-sum", failures)


def test_criterion_03_atom_stripped_mobius_value():
    failures = []
    instances = [boolean_lattice(n) for n in (2, 3, 4, 5)]
    instances += [cube_face_lattice(n) for n in (1, 2, 3)]
    for P in instances:
        d = rank_profile(P).top_rank
        f0 = len(P.atoms())
        stripped = P.remove_atoms()
        top = P.maximal_elements()[0]
        value = mobius_from(stripped, P.minimum())[top]
        expected = (-1) ** ((d - 1) % 2) * (f0 - 1)
        if value != expected:
            failures.append((P.name, value, expected))
        if P.name == "cube-lattice-2" and value != 3:
            failures.append(("square lattice sanity", value))
    conclude(3, "atom-stripped-mobius", failures)


def test_criterion_04_interval_poset_has_same_betti_numbers(suite_posets, field):
    failures = []
    checked = 0
    for name, P in suite_posets:
        if len(P) > 60:
            continue
        checked += 1
        bar = P.remove_min()
        direct = reduced_homology(order_complex(bar), field).betti
        via_intervals = reduced_homology(
            order_complex(bar.interval_poset()), field
        ).betti
        dims = set(direct) | set(via_intervals)
        if any(direct.get(k, 0) != via_intervals.get(k, 0) for k in dims):
            failures.append((name, direct, via_intervals))
    assert checked >= 25
    conclude(4, "interval-poset-betti-agreement", failures)


def test_criterion_05_min_attached_interval_poset_is_lower_eulerian(suite_posets):
    failures = []
    for name, P in suite_posets:
        if not is_lower_eulerian(P):
            continue
        candidate = P.interval_poset().attach_min()
        if not is_lower_eulerian(candidate):
            failures.append(name)
    conclude(5, "interval-poset-lower-eulerian", failures)


def test_criterion_06_euler_poincare_on_suite_complexes(suite_posets, field):
    failures = []
    complexes = []
    for name, P in suite_posets:
        complexes.append((name, reduced_order_complex(P)))
        graded, d = is_graded(P)
        if graded and d >= 2:
            complexes.append(
                (f"truncated-{name}", reduced_order_complex(P.remove_maximal()))
            )
    for seed, (n, d) in ((1, (5, 2)), (2, (6, 2)), (3, (6, 3))):
        c = random_pure_subcomplex(n, d, seed)
        complexes.append((c.name, c))
    for name, c in complexes:
        chi = c.reduced_euler_char()
        homological = reduced_homology(c, field).alternating_sum()
        if chi != homological:
            failures.append((name, chi, homological))
    conclude(6, "euler-poincare", failures)


def test_criterion_07_main_inequality_on_qualifying_instances(suite_reports):
    reports, elapsed = suite_reports
    failures = []
    qualifying = []
    for report in reports:
        checks = records(report)
        if checks["main-inequality"].verdict == "inapplicable":
            continue
        qualifying.append(report.instance)
        if checks["main-inequality"].verdict != "pass":
            failures.append(report.instance)
        if checks["atom-sign"].verdict == "fail":
            failures.append((report.instance, "sign"))
        if report.instance == "cycle-4":
            if (checks["main-inequality"].lhs, checks["main-inequality"].rhs) != (4, 2):
                failures.append(("cycle-4 expected 4 >= 2", checks["main-inequality"]))
    ranked = [
        r.instance
        for r in reports
        if records(r)["mobius-decomposition"].verdict != "inapplicable"
    ]
    if len(ranked) < 15:
        failures.append(f"only {len(ranked)} qualifying rank>=2 instances")
    if "cube-boundary-3" not in qualifying:
        failures.append("cube-boundary-3 missing from qualifying set")
    if elapsed > 600:
        failures.append(f"audit runtime {elapsed:.0f}s exceeds 10 minutes")
    conclude(7, "main-inequality", failures)


def test_criterion_08_decomposition_step_and_basis_bound(suite_reports):
    reports, _ = suite_reports
    failures = []
    seen = 0
    for report in reports:
        checks = records(report)
        if checks["mobius-decomposition"].verdict == "inapplicable":
            continue
        seen += 1
        for cid in (
            "mobius-decomposition",
            "truncation-alternating-sum",
            "interval-poset-route",
            "basis-size",
            "basis-deficiency-bound",
            "basis-order-independence",
        ):
            if checks[cid].verdict != "pass":
                failures.append((report.instance, cid))
    if seen < 15:
        failures.append(f"only {seen} instances reached the rank>=2 checks")
    conclude(8, "decomposition-and-basis-bound", failures)


def test_criterion_09_penultimate_identities_and_nonnegativity(suite_reports):
    reports, _ = suite_reports
    failures = []
    simplicial_seen = cubical_seen = 0
    for report in reports:
        checks = records(report)
        for cid, counter in (
            ("simplicial-penultimate-identity", "s"),
            ("cubical-penultimate-identity", "c"),
            ("cubical-penultimate-nonneg", None),
            ("cubical-top-nonneg", None),
            ("toric-penultimate-nonneg", None),
            ("toric-top-nonneg", None),
        ):
            verdict = checks[cid].verdict
            if verdict == "fail":
                failures.append((report.instance, cid))
            if verdict == "pass" and counter == "s":
                simplicial_seen += 1
            if verdict == "pass" and counter == "c":
                cubical_seen += 1
    if simplicial_seen < 10:
        failures.append(f"only {simplicial_seen} simplicial identity instances")
    if cubical_seen < 8:
        failures.append(f"only {cubical_seen} cubical identity instances")
    conclude(9, "penultimate-identities-and-corollaries", failures)


def test_criterion_10_toric_machinery(suite_posets):
    failures = []
    for name, P in suite_posets:
        if not is_lower_eulerian(P):
            continue
        d = rank_profile(P).top_rank
        toric = toric_h(P)
        if is_simplicial_poset(P):
            if toric.entries != simplicial_h(P).entries:
                failures.append((name, "toric != simplicial"))
        ranks = rank_profile(P).ranks
        for y, (f, _) in toric_face_polynomials(P).items():
            if y == P.minimum():
                continue
            if not f.is_palindromic(ranks[y]):
                failures.append((name, y, "face polynomial not palindromic"))
        if toric.entries[0] != 1:
            failures.append((name, "h_0 != 1"))
        if d >= 1 and toric.entries[1] != len(P.atoms()) - d:
            failures.append((name, "h_1 != f_0 - d"))
        if toric.entries[d] != (-1) ** ((d - 1) % 2) * reduced_euler_char(P):
            failures.append((name, "h_d mismatch"))
    conclude(10, "toric-machinery", failures)


def test_criterion_11_cubical_machinery(suite_posets):
    failures = []
    checked = 0
    for name, P in suite_posets:
        if not (is_cubical_poset(P) and is_lower_eulerian(P)):
            continue
        checked += 1
        d = rank_profile(P).top_rank
        hc = cubical_h(P).entries  # raises InexactDivisionError on any slip
        hsc = short_cubical_h(P).entries
        chi = rank_alternating_sum(P)
        if hc[d] != (-2) ** (d - 1) * chi:
            failures.append((name, "top coefficient"))
        if hc[d - 1] != hsc[d - 1] - (-2) ** (d - 1) * chi:
            failures.append((name, "penultimate link"))
        if d >= 2 and cubical_h_penultimate_direct(P) != hc[d - 1]:
            failures.append((name, "direct formula"))
        ok, residual = hetyei_decomposition_check(P)
        if not ok or not residual.is_zero():
            failures.append((name, "atom-upset decomposition"))
        if name == "cycle-4" and hc != (2, 2, 2):
            failures.append((name, hc))
    assert checked >= 8
    conclude(11, "cubical-machinery", failures)


def test_criterion_12_classifiers(suite_posets, suite_reports, field):
    failures = []
    for n in (2, 3, 4):
        classes = classify(simplex_boundary_complex(n), field)
        if not (classes.gorenstein_star and classes.doubly_cm and classes.buchsbaum_star):
            failures.append((f"simplex-boundary-{n}", classes))

    sweep = [
        simplex_boundary_complex(2),
        simplex_boundary_complex(3),
        full_simplex_complex(2),
        full_simplex_complex(3),
        path_complex(2),
        path_complex(3),
        points_complex(4),
        random_pure_subcomplex(6, 2, 2),
    ]
    for name, P in suite_posets:
        if not is_lower_eulerian(P) or rank_profile(P).top_rank < 2:
            continue
        q_bar = P.remove_maximal().remove_min()
        sweep.append(order_complex(q_bar, name=f"truncated-{name}"))
    for c in sweep:
        if len(c.faces()) > 10**5:
            continue
        classes = classify(c, field)
        if classes.cohen_macaulay and classes.doubly_cm != classes.buchsbaum_star:
            failures.append((c.name, "doubly-CM vs Buchsbaum* disagree"))
        if classes.gorenstein_star and not classes.doubly_cm:
            failures.append((c.name, "Gorenstein* without doubly-CM"))

    reports, _ = suite_reports
    for report in reports:
        checks = records(report)
        if checks["atom-link-surjectivity"].verdict == "fail":
            failures.append((report.instance, "link surjectivity"))
    conclude(12, "homology-classifiers", failures)


def test_criterion_13_audit_is_deterministic(tmp_path):
    failures = []
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["audit", "all", "-o", str(first)]) == 0
    assert cli_main(["audit", "all", "-o", str(second)]) == 0
    if first.read_bytes() != second.read_bytes():
        failures.append("consecutive audit runs differ")
    conclude(13, "audit-determinism", failures)
