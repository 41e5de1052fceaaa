import json
import time

import pytest

from conftest import drawn_poset, rp2
from posetlab.cli import main
from posetlab.complexes import SimplicialComplex, complex_to_dict, reduced_order_complex
from posetlab.generators import face_poset_of_complex, make_family
from posetlab.homology import classify, is_buchsbaum_star, is_cohen_macaulay, reduced_homology
from posetlab.linalg import FieldSpec
from posetlab.poset import build_from_covers, jsonable, poset_from_dict, poset_to_dict


def run_cli(*argv):
    return main(list(argv))


def test_generate_then_compute_cubical_h(tmp_path, capsys):
    out = tmp_path / "c4.json"
    assert run_cli("generate", "cycle", "4", "-o", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["name"] == "cycle-4"
    assert data["covers"] == sorted(data["covers"])

    assert run_cli("compute", "cubical-h", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == [2, 2, 2]
    assert payload["kind"] == "cubical"
    assert payload["rank"] == 2


def test_generate_interval_and_random_poset_families(tmp_path, capsys):
    f = tmp_path / "int.json"
    assert run_cli("generate", "interval", "boolean", "3", "-o", str(f)) == 0
    data = json.loads(f.read_text())
    assert data["name"] == "interval-boolean-3"
    assert run_cli("check", "lower-eulerian", str(f)) == 0
    capsys.readouterr()

    g = tmp_path / "rp.json"
    assert run_cli("generate", "random-poset", "6", "2", "2", "-o", str(g)) == 0
    assert "covers" in json.loads(g.read_text())


def test_check_lower_eulerian_exit_codes(tmp_path, capsys):
    good = tmp_path / "c4.json"
    run_cli("generate", "cycle", "4", "-o", str(good))
    assert run_cli("check", "lower-eulerian", str(good)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "fan",
                "elements": ["0", "a", "b", "c", "d"],
                "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "d"], ["b", "d"], ["c", "d"]],
            }
        )
    )
    assert run_cli("check", "lower-eulerian", str(bad)) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is False
    assert payload["witness"] == ["0", "d"]


def test_check_cm_on_complex(tmp_path, capsys):
    f = tmp_path / "disc.json"
    f.write_text(
        json.dumps(
            {
                "name": "two-pieces",
                "vertices": ["a", "b", "x", "y"],
                "facets": [["a", "b"], ["x", "y"]],
            }
        )
    )
    assert run_cli("check", "cm", str(f)) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is False


def test_compute_homology_and_classify(tmp_path, capsys):
    f = tmp_path / "sphere.json"
    run_cli("generate", "simplex-boundary", "3", "-o", str(f))
    assert run_cli("compute", "homology", str(f)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"]["2"] == 1
    assert payload["field"] == 101

    assert run_cli("compute", "classify", str(f)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gorenstein_star"] is True
    assert payload["buchsbaum_star"] is True


def test_compute_tsv_format(tmp_path, capsys):
    f = tmp_path / "c4.json"
    run_cli("generate", "cycle", "4", "-o", str(f))
    assert run_cli("compute", "toric-h", str(f), "--format", "tsv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kind\trank\th0\th1\th2"
    assert out[1] == "toric\t2\t1\t2\t1"


def test_compute_psi_chi_and_short_cubical(tmp_path, capsys):
    f = tmp_path / "tri.json"
    run_cli("generate", "simplex-boundary", "2", "-o", str(f))
    assert run_cli("compute", "psi", str(f)) == 0
    assert json.loads(capsys.readouterr().out)["psi"] == -1
    assert run_cli("compute", "chi", str(f)) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == -1

    g = tmp_path / "c4.json"
    run_cli("generate", "cycle", "4", "-o", str(g))
    assert run_cli("compute", "short-cubical-h", str(g)) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [4, 4]

    # chi also applies to complex files.
    h = tmp_path / "r.json"
    run_cli("generate", "random", "5", "1", "3", "-o", str(h))
    assert run_cli("compute", "chi", str(h)) == 0
    capsys.readouterr()


def test_compute_mobius(tmp_path, capsys):
    f = tmp_path / "b2.json"
    run_cli("generate", "boolean", "2", "-o", str(f))
    assert run_cli("compute", "mobius", str(f)) == 0
    payload = json.loads(capsys.readouterr().out)
    values = {(a, b): v for a, b, v in payload["values"]}
    assert values[("e", "12")] == 1
    assert values[("e", "1")] == -1
    assert values[("1", "1")] == 1


def test_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("compute", "chi", str(missing)) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli("compute", "chi", str(garbled)) == 2
    err = capsys.readouterr().err
    assert "line" in err

    # Valid JSON without the expected keys is still a usage error.
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"name": "x"}))
    assert run_cli("compute", "chi", str(other)) == 2

    with pytest.raises(SystemExit) as exc:
        run_cli("compute", "no-such-invariant", str(garbled))
    assert exc.value.code == 2

    complexfile = tmp_path / "pts.json"
    run_cli("generate", "random", "5", "1", "3", "-o", str(complexfile))
    assert run_cli("compute", "toric-h", str(complexfile)) == 2


def test_field_env_override(tmp_path, capsys, monkeypatch):
    f = tmp_path / "c4.json"
    run_cli("generate", "cycle", "4", "-o", str(f))
    monkeypatch.setenv("POSETLAB_FIELD", "13")
    assert run_cli("compute", "homology", str(f)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == 13
    monkeypatch.setenv("POSETLAB_FIELD", "not-a-number")
    assert run_cli("compute", "homology", str(f)) == 2


def test_audit_family_subset(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli("audit", "all", "--family", "cycle", "-o", str(report_path))
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert [r["instance"] for r in reports] == ["cycle-3", "cycle-4", "cycle-5", "cycle-6"]
    for report in reports:
        for check in report["checks"]:
            assert check["verdict"] in ("pass", "inapplicable")
    err = capsys.readouterr().err
    assert "cycle-4: ok" in err


def test_audit_rejects_unknown_suite():
    assert run_cli("audit", "something-else") == 2


def test_generate_rejects_oversized_family(capsys):
    assert run_cli("generate", "boolean", "9") == 2
    assert "error" in capsys.readouterr().err


def test_generate_rejects_wrong_parameter_counts(capsys):
    assert run_cli("generate", "grid", "2") == 2
    assert run_cli("generate", "boolean") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, token",
    [
        ({"name": "m", "elements": ["lonely", "b"], "covers": [["lonely"]]}, "lonely"),
        ({"name": "m", "elements": ["a", 4711], "covers": [["a", 4711]]}, "4711"),
        ({"name": "m", "elements": [4711], "covers": []}, "4711"),
        ({"name": "m", "elements": ["a"], "covers": "a"}, "covers"),
        ({"name": "m", "facets": [["a", 4711]]}, "4711"),
        ({"name": "m", "facets": ["abc"]}, "abc"),
        (["covers"], "JSON object"),
    ],
)
def test_schema_errors_exit_2_and_name_the_entry(tmp_path, capsys, payload, token):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    assert run_cli("compute", "chi", str(f)) == 2
    err = capsys.readouterr().err
    assert token in err and "Traceback" not in err


def test_oversized_homology_inputs_are_refused_up_front(tmp_path, capsys):
    cb5 = tmp_path / "cb5.json"
    assert run_cli("generate", "cube-boundary", "5", "-o", str(cb5)) == 0
    capsys.readouterr()
    huge = tmp_path / "simplex.json"
    huge.write_text(json.dumps({"facets": [[f"v{i}" for i in range(30)]]}))
    start = time.perf_counter()
    # One sparse reduction of Δ(cube-boundary-5 minus its minimum) is cheap.
    assert run_cli("compute", "homology", str(cb5)) == 0
    betti = json.loads(capsys.readouterr().out)["betti"]
    assert betti == {"-1": 0, "0": 0, "1": 0, "2": 0, "3": 0, "4": 1}
    # So is the interval scan of `check cm` on a poset file.
    assert run_cli("check", "cm", str(cb5)) == 0
    assert json.loads(capsys.readouterr().out)["result"] is True
    # And so is Buchsbaum* from the same scan, which needs no doubly CM step.
    assert run_cli("check", "buchsbaum-star", str(cb5)) == 0
    assert json.loads(capsys.readouterr().out)["result"] is True
    # `classify` reads its vertex deletions off the long exact sequence.
    assert run_cli("compute", "classify", str(cb5)) == 0
    flags = json.loads(capsys.readouterr().out)
    assert [name for name, flag in flags.items() if flag is not True] == ["field", "name"]
    for invariant in ("homology", "chi"):
        assert run_cli("compute", invariant, str(huge)) == 2
        assert "boundary entries exceeds the size guard" in capsys.readouterr().err
    assert time.perf_counter() - start < 10


def test_size_guard_counts_stay_exact_past_float_range(tmp_path, capsys):
    """A 1,100-vertex facet has about 10^334 boundary entries, past the
    float range, and a chain of 1,100 elements as many chains; both are
    refused, with the bound named in the message."""
    facet = tmp_path / "facet.json"
    facet.write_text(json.dumps({"facets": [[f"v{i}" for i in range(1100)]]}))
    for invariant in ("homology", "chi"):
        assert run_cli("compute", invariant, str(facet)) == 2
        err = capsys.readouterr().err
        assert "the count of boundary entries exceeds the size guard (5000000 entries)" in err
    names = [f"e{i}" for i in range(1100)]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"name": "chain", "elements": names, "covers": list(zip(names, names[1:]))}))
    for command in (("compute", "homology"), ("compute", "classify"), ("check", "cm")):
        assert run_cli(*command, str(chain)) == 2
        err = capsys.readouterr().err
        assert "boundary entries exceeds the size guard" in err and "Traceback" not in err


def test_size_guard_stops_counting_past_the_bound(tmp_path, capsys):
    """One facet of 15,000 vertices: its face counts run to 4,500 digits,
    past Python's int-to-str limit, so counting stops at the bound."""
    facet = tmp_path / "facet.json"
    facet.write_text(json.dumps({"facets": [[f"v{i}" for i in range(15000)]]}))
    start = time.perf_counter()
    for command, bound in (("homology", "5000000 entries"), ("chi", "5000000 entries"), ("classify", "50000000 cells")):
        assert run_cli("compute", command, str(facet)) == 2
        err = capsys.readouterr().err
        assert f"exceeds the size guard ({bound})" in err and "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_audit_rejects_a_family_outside_the_suite(capsys):
    assert run_cli("audit", "all", "--family", "nosuch") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'nosuch'" in captured.err and "Traceback" not in captured.err


def test_compute_refuses_tsv_before_loading_the_file(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert run_cli("compute", "homology", str(missing), "--format", "tsv") == 2
    err = capsys.readouterr().err
    assert "tsv output is only available" in err and "no such file" not in err


# -- one link scan per input kind -------------------------------------------------

HOMOLOGY_COMMANDS = (("compute", "homology"), ("compute", "classify"), ("check", "cm"), ("check", "buchsbaum-star"))


def _dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def chain_level_outputs(P, fld):
    """(exit code, stdout) of each homology command on a poset file, from
    the chain-level calls on Δ(P − 0̂), serialised as the CLI does."""
    delta = reduced_order_complex(P)
    head = {"name": P.name, "field": fld.characteristic}
    betti = reduced_homology(delta, fld).betti
    classes = classify(delta, fld)
    names = ("cohen_macaulay", "buchsbaum", "doubly_cm", "gorenstein_star", "buchsbaum_star")
    flags = {name: getattr(classes, name) for name in names}
    out = {
        ("compute", "homology"): (0, _dump({**head, "betti": {str(k): v for k, v in sorted(betti.items())}})),
        ("compute", "classify"): (0, _dump({**head, **flags})),
    }
    for pred, check in (("cm", is_cohen_macaulay), ("buchsbaum-star", is_buchsbaum_star)):
        result, witness = check(delta, fld)
        payload = {"name": P.name, "predicate": pred, "result": result}
        if witness is not None:
            payload["witness"] = jsonable(witness)
        out["check", pred] = (0 if result else 1, _dump(payload))
    return out


def count_links(monkeypatch):
    """Count `SimplicialComplex.link` calls from now on, in a one-item list."""
    calls, link = [0], SimplicialComplex.link

    def counting(self, face):
        calls[0] += 1
        return link(self, face)

    monkeypatch.setattr(SimplicialComplex, "link", counting)
    return calls


@pytest.mark.parametrize("p", [2, 3, 101])
def test_poset_files_read_the_interval_scan(tmp_path, capsys, monkeypatch, p):
    """Same bytes and exit codes as the chain-level scan of Δ(P − 0̂), and no link built."""
    posets = [drawn_poset(seed) for seed in range(12)]
    posets += [face_poset_of_complex(rp2(), name="rp2"), build_from_covers(["0"], [], name="point")]
    posets += [make_family("cube-boundary", 3), make_family("boolean", 3)]
    fld = FieldSpec(p)
    expected = {}
    for n, P in enumerate(posets):
        path = tmp_path / f"poset-{n}.json"
        path.write_text(json.dumps(poset_to_dict(P)))
        expected[path] = chain_level_outputs(poset_from_dict(json.loads(path.read_text())), fld)
    links = count_links(monkeypatch)
    for path, outputs in expected.items():
        for argv, (code, text) in outputs.items():
            assert run_cli(*argv, str(path), "--field", str(p)) == code, (path, argv)
            assert capsys.readouterr().out == text, (path, argv)
    assert links == [0]


def test_rp2_face_poset_file_is_cohen_macaulay_over_f3_only(tmp_path, capsys):
    f = tmp_path / "rp2.json"
    f.write_text(json.dumps(poset_to_dict(face_poset_of_complex(rp2(), name="rp2"))))
    assert run_cli("check", "cm", str(f), "--field", "2") == 1
    assert json.loads(capsys.readouterr().out)["witness"] == [[], 1]
    assert run_cli("compute", "homology", str(f), "--field", "2") == 0
    betti = json.loads(capsys.readouterr().out)["betti"]
    assert betti == {"-1": 0, "0": 0, "1": 1, "2": 1}
    assert run_cli("check", "cm", str(f), "--field", "3") == 0


def test_poset_files_without_minimum_exit_2(tmp_path, capsys):
    f = tmp_path / "two-points.json"
    f.write_text(json.dumps({"name": "two-points", "elements": ["a", "b"], "covers": []}))
    for argv in HOMOLOGY_COMMANDS:
        assert run_cli(*argv, str(f)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "no minimum element" in captured.err


@pytest.mark.parametrize("p", [2, 3])
def test_facet_files_take_the_chain_level_scan(tmp_path, capsys, monkeypatch, p):
    """RP²: Buchsbaum* over F_2, whose top class reaches every link; over
    F_3 it is Cohen-Macaulay with no top homology, so not Buchsbaum*."""
    f = tmp_path / "rp2.json"
    f.write_text(json.dumps(complex_to_dict(rp2())))
    fld = FieldSpec(p)
    classes = classify(rp2(), fld)
    assert (classes.cohen_macaulay, classes.buchsbaum_star) == (p == 3, p == 2)
    links = count_links(monkeypatch)
    assert run_cli("compute", "classify", str(f), "--field", str(p)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cohen_macaulay"] is classes.cohen_macaulay
    assert payload["buchsbaum_star"] is classes.buchsbaum_star
    assert payload["buchsbaum"] is True and payload["doubly_cm"] is False
    assert run_cli("check", "buchsbaum-star", str(f), "--field", str(p)) == (0 if p == 2 else 1)
    assert json.loads(capsys.readouterr().out)["result"] is (p == 2)
    assert links[0] > 0
