"""cli-files: in-process `posetlab.cli.main(argv)` calls over JSON files.

Set-up writes every input file, the malformed ones included.  Each family then
gets a `generate` call followed by `compute` and `check` calls on its file;
homology runs only on small files.  One operation is one CLI call.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from posetlab import cli
from posetlab.generators import make_family
from posetlab.poset import poset_to_dict

import oracle
from common import Op, dump, order_of

# Predicate facts per family, as exit codes (0 holds, 1 does not):
# - every family here is lower Eulerian: face posets of regular CW complexes
#   and interval posets of Boolean lattices have Eulerian intervals;
# - cube face lattices, cube boundaries and interval posets of Boolean and
#   cube lattices are cubical (their lower intervals are cube face lattices);
# - face posets of simplicial complexes are simplicial and meet-semilattices
#   (the meet is the intersection), and so are cube face posets.
# Sphere boundaries have symmetric toric h-vectors (Dehn-Sommerville).  Cones
# and spheres are Cohen-Macaulay, so their toric h-vectors are nonnegative.
# On a simplicial poset the toric h-vector is the simplicial one.
FULL_PLAN = (
    (
        ("cube-lattice", 6),
        ["mobius", "toric-h", "cubical-h"],
        {"lower-eulerian": 0, "cubical": 0, "simplicial": 1},
        {"cm"},
    ),
    (
        ("cube-boundary", 6),
        ["mobius", "toric-h", "short-cubical-h"],
        {"cubical": 0, "meet-semilattice": 0},
        {"cm", "sphere"},
    ),
    (
        ("simplex-boundary", 5),
        ["mobius", "simplicial-h", "toric-h"],
        {"simplicial": 0, "cubical": 1, "meet-semilattice": 0},
        {"cm", "sphere", "simplicial"},
    ),
    (
        ("interval", "boolean", 4),
        ["mobius", "cubical-h"],
        {"lower-eulerian": 0, "cubical": 0, "simplicial": 1},
        set(),
    ),
    (
        ("interval", "cube-lattice", 3),
        ["mobius", "short-cubical-h"],
        {"cubical": 0},
        set(),
    ),
    (
        ("random-poset", 8, 3, "SEED"),
        ["mobius", "simplicial-h", "toric-h"],
        {"lower-eulerian": 0, "simplicial": 0, "cubical": 1},
        {"simplicial"},
    ),
    (
        ("random-poset", 7, 2, "SEED"),
        ["mobius", "simplicial-h", "toric-h"],
        {"simplicial": 0, "meet-semilattice": 0},
        {"simplicial"},
    ),
)

# Small files for homology and the Cohen-Macaulay check: spheres of dimension
# 2 (top reduced Betti number 1) and a cone (acyclic).
FULL_HOMOLOGY = (
    (("cube-boundary", 3), "sphere", (101, 2)),
    (("simplex-boundary", 3), "sphere", (101,)),
    (("boolean", 4), "contractible", (101,)),
)

REDUCED_PLAN = (
    (
        ("cube-lattice", 2),
        ["mobius", "toric-h", "cubical-h"],
        {"lower-eulerian": 0, "cubical": 0, "simplicial": 1},
        {"cm"},
    ),
    (
        ("simplex-boundary", 3),
        ["mobius", "simplicial-h", "toric-h"],
        {"simplicial": 0, "cubical": 1},
        {"cm", "sphere", "simplicial"},
    ),
    (
        ("random-poset", 5, 2, "SEED"),
        ["mobius", "simplicial-h", "toric-h"],
        {"simplicial": 0},
        {"simplicial"},
    ),
)
REDUCED_HOMOLOGY = ((("cube-boundary", 3), "sphere", (101,)),)

# Malformed files.  Each must exit 2, print no traceback, and name the bad
# entry; `token` is the text that names it.  The first two escape as
# ValueError and TypeError in the current CLI.
MALFORMED = (
    ("cover-arity", {"name": "m", "elements": ["lonely", "b"], "covers": [["lonely"]]}, "lonely"),
    ("element-type", {"name": "m", "elements": ["a", 4711], "covers": [["a", 4711]]}, "4711"),
    ("unknown-element", {"name": "m", "elements": ["a", "b"], "covers": [["a", "ghost"]]}, "ghost"),
    ("cycle", {"name": "m", "elements": ["loop", "b"], "covers": [["loop", "b"], ["b", "loop"]]}, "loop"),
    ("duplicate-element", {"name": "m", "elements": ["twin", "twin"], "covers": []}, "twin"),
    (
        "redundant-cover",
        {"name": "m", "elements": ["low", "b", "high"], "covers": [["low", "b"], ["b", "high"], ["low", "high"]]},
        "high",
    ),
    ("no-covers-key", {"name": "m", "elements": ["a"]}, "malformed-no-covers-key.json"),
    ("truncated-json", '{"name": "m", "elements": ["a",\n', "line 2"),
)



def run_cli(argv):
    """One in-process CLI call; an exception that escapes `main` propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def build(seed, workdir, reduced=False):
    plan = REDUCED_PLAN if reduced else FULL_PLAN
    homology = REDUCED_HOMOLOGY if reduced else FULL_HOMOLOGY
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    ops = []

    def add(label, argv, expect):
        out = os.path.join(out_dir, f"{len(ops):03d}.json")
        full = argv + ["-o", out]
        ops.append(Op(label, lambda: run_cli(full), dict(expect, out=out)))

    def write_family(spec):
        params = [seed if x == "SEED" else x for x in spec]
        poset = make_family(*params)
        payload = poset_to_dict(poset)
        path = os.path.join(workdir, "-".join(str(x) for x in params) + ".json")
        _write(path, dump(payload))
        return [str(x) for x in params], path, payload

    for spec, invariants, predicates, facts in plan:
        params, path, payload = write_family(spec)
        name = "-".join(params)
        base = {"poset": payload, "facts": facts}
        add(f"generate {name}", ["generate", *params], dict(base, kind="generate", source=path))
        for inv in invariants:
            add(f"compute {inv} {name}", ["compute", inv, path], dict(base, kind=inv))
        for pred, code in predicates.items():
            add(f"check {pred} {name}", ["check", pred, path], dict(base, kind="predicate", code=code))

    for spec, topology, primes in homology:
        params, path, payload = write_family(spec)
        name = "-".join(params)
        base = {"poset": payload, "topology": topology}
        for p in primes:
            add(f"compute homology {name} p={p}", ["compute", "homology", path, "--field", str(p)],
                dict(base, kind="homology"))
        add(f"check cm {name}", ["check", "cm", path], dict(base, kind="predicate", code=0))

    for tag, content, token in MALFORMED:
        path = os.path.join(workdir, f"malformed-{tag}.json")
        _write(path, content if isinstance(content, str) else json.dumps(content))
        add(f"malformed {tag}", ["compute", "mobius", path], {"kind": "malformed", "token": token})
    return ops


def _check_h(op, doc, want_kind, want):
    if doc.get("kind") != want_kind or list(doc.get("entries", [])) != list(want):
        return [f"{op.label}: {want_kind} h-vector {doc.get('entries')}, f-to-h gives {want}"]
    return []


def check_call(op, result):
    """Problems with one CLI call's exit code and output."""
    exp = op.expect
    kind = exp["kind"]
    code = result["code"]
    if kind == "malformed":
        problems = []
        if code != 2:
            problems.append(f"{op.label}: exit {code}, expected 2")
        if "Traceback" in result["stderr"]:
            problems.append(f"{op.label}: traceback on stderr")
        if exp["token"] not in result["stderr"]:
            problems.append(f"{op.label}: message {result['stderr'].strip()!r} does not name {exp['token']!r}")
        return problems
    if kind == "predicate":
        if code != exp["code"]:
            return [f"{op.label}: exit {code}, expected {exp['code']}"]
        return []
    if code != 0:
        return [f"{op.label}: exit {code}, stderr {result['stderr'].strip()!r}"]
    with open(exp["out"]) as fh:
        text = fh.read()
    if kind == "generate":
        with open(exp["source"]) as fh:
            if fh.read() != text:
                return [f"{op.label}: generated file differs from the library's poset"]
        return []
    doc = json.loads(text)
    order = order_of(exp["poset"])
    if kind == "homology":
        return _check_homology(op, order, doc)
    if kind == "mobius":
        return _check_mobius(op, order, doc)
    counts = oracle.rank_counts(order)
    if kind == "simplicial-h":
        return _check_h(op, doc, "simplicial", oracle.simplicial_h(counts))
    if kind == "cubical-h":
        return _check_h(op, doc, "cubical", oracle.cubical_h(counts))
    if kind == "short-cubical-h":
        return _check_h(op, doc, "short-cubical", oracle.short_cubical_h(counts))
    if kind == "toric-h":
        return _check_toric(op, counts, doc)
    return [f"{op.label}: no check for {kind}"]


def _check_mobius(op, order, doc):
    ranks = order.ranks()
    pos = order.pos
    problems = []
    values = doc.get("values", [])
    if len(values) != order.comparable_pairs():
        problems.append(f"{op.label}: {len(values)} Möbius values for {order.comparable_pairs()} comparable pairs")
    for x, y, v in values:
        i, j = pos[x], pos[y]
        if not order.leq(i, j) or v != (-1) ** ((ranks[j] - ranks[i]) % 2):
            problems.append(f"{op.label}: mu({x}, {y}) = {v}, rank parity gives {(-1) ** ((ranks[j] - ranks[i]) % 2)}")
            break
    return problems


def _check_toric(op, counts, doc):
    entries = list(doc.get("entries", []))
    d = len(counts) - 1
    facts = op.expect["facts"]
    problems = []
    if doc.get("kind") != "toric" or len(entries) != d + 1:
        problems.append(f"{op.label}: toric h-vector {entries} for rank {d}")
        return problems
    if "sphere" in facts and entries != entries[::-1]:
        problems.append(f"{op.label}: toric h-vector {entries} of a sphere is not symmetric")
    if "cm" in facts and min(entries) < 0:
        problems.append(f"{op.label}: toric h-vector {entries} of a Cohen-Macaulay poset is negative")
    if "simplicial" in facts and entries != oracle.simplicial_h(counts):
        problems.append(f"{op.label}: toric h-vector {entries} differs from the simplicial {oracle.simplicial_h(counts)}")
    return problems


def _check_homology(op, order, doc):
    bottom = order.minimum()
    counts = order.chain_counts([i for i in range(len(order)) if i != bottom])
    dim = len(counts) - 2
    betti = {int(k): v for k, v in doc.get("betti", {}).items()}
    if op.expect["topology"] == "sphere":
        want = {k: int(k == dim) for k in range(-1, dim + 1)}
    else:
        want = {k: 0 for k in range(-1, dim + 1)}
    if betti != want:
        return [f"{op.label}: Betti numbers {betti}, expected {want}"]
    return []


def check(ops, outcomes):
    problems = []
    for op, out in zip(ops, outcomes):
        if not out.failed:
            problems.extend(check_call(op, out.value))
    return problems

