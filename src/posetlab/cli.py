"""Command-line front door: generate instances, compute invariants, run checks
and audits.  Results go to stdout (or -o), diagnostics to stderr, so reports
pipe cleanly.  Exit codes: 0 pass, 1 any check/audit failure, 2 usage or
input error.

The invariants of `compute` and the predicates of `check` are one table each,
`INVARIANTS` and `PREDICATES`: a name maps to whether it takes poset files
only and to the function of the instance and the field that gives its
payload, or its (holds, witness) pair.  The tables also give the parser its
choices; the parser is built once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import comb

import numpy as np

from . import generators
from .audit import run_suite
from .complexes import complex_from_dict, complex_to_dict
from .errors import PosetLabError, SizeLimitError
from .homology import LinkScan, poset_scan
from .hvectors import cubical_h, short_cubical_h, simplicial_h, toric_h
from .linalg import DEFAULT_PRIME, FieldSpec
from .poset import (
    FinitePoset,
    is_cubical_poset,
    is_lower_eulerian,
    is_meet_semilattice,
    is_simplicial_poset,
    jsonable,
    mobius,
    poset_from_dict,
    poset_to_dict,
    rank_alternating_sum,
    reduced_euler_char,
)


# The C encoder, for leaves and flat containers: it puts a raw "\x00", which
# no ASCII-escaped string contains, where the indented layout breaks the line.
_FLAT = json.JSONEncoder(separators=("\x00", ": "), sort_keys=True)
_LEAVES = frozenset({str, int, float, bool, type(None)})


def _dump(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte."""
    out = []
    _layout(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _layout(obj, nl, out):
    """Append the indented JSON text of `obj` to `out`; `nl` is a newline and
    the indent of the line `obj` starts on.  Dicts and lists are walked here.
    A list or dict of leaves, or a list of non-empty lists of leaves, goes to
    the C encoder in one call, and its separators become newlines and indents."""
    is_list = isinstance(obj, (list, tuple))
    if not (is_list or isinstance(obj, dict)) or not obj:
        out.append(_FLAT.encode(obj))
        return
    inner = nl + "  "
    kinds = set(map(type, obj if is_list else obj.values()))
    if kinds <= _LEAVES:
        text = _FLAT.encode(obj)
        out.append(text[0] + inner + text[1:-1].replace("\x00", "," + inner) + nl + text[-1])
    elif is_list and kinds <= {list, tuple} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _LEAVES:
        row = inner + "  "
        text = _FLAT.encode(obj)[2:-2].replace("]\x00[", f"{inner}],{inner}[{row}")
        text = text.replace("\x00", "," + row)
        out.append(f"[{inner}[{row}{text}{inner}]{nl}]")
    elif is_list:
        out.append("[")
        for k, item in enumerate(obj):
            out.append("," + inner if k else inner)
            _layout(item, inner, out)
        out.append(nl + "]")
    else:
        out.append("{")
        for k, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                if not isinstance(key, (int, float)) and key is not None:
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = _FLAT.encode(key)
            out.append(("," + inner if k else inner) + encode_basestring_ascii(key) + ": ")
            _layout(value, inner, out)
        out.append(nl + "}")


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    """Read a poset or complex JSON file, deciding by its keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise UsageError(f"{path}: JSON nested too deeply to read")
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    if "covers" in data:
        return poset_from_dict(data)
    if "facets" in data:
        return complex_from_dict(data)
    raise UsageError(f"{path}: expected a 'covers' (poset) or 'facets' (complex) key")


class UsageError(Exception):
    pass


# Work bounds for the homology commands on a file, checked before anything
# is built, with single-run timings on a 2-core machine.  Boundary entries,
# one per vertex of each face, bound `compute homology`, `compute chi` on
# facet files (it lists every face) and, on poset files, `compute classify`,
# `check cm` and `check buchsbaum-star`, which reduce open intervals of the
# same order complex.  On cube-lattice-6, 4,068,545 entries, these took
# 6.9 s / 372 MB, 64 s / 581 MB, 54 s / 482 MB and 59 s / 561 MB (time /
# peak RSS).
MAX_BOUNDARY_ENTRIES = 5_000_000
# The chain-level scans of facet files, which build one complex per face,
# stay under a bound on the largest boundary matrix, counted as rows x
# columns.
MAX_BOUNDARY_CELLS = 50_000_000


def _face_counts(instance):
    """Face counts by number of vertices, from 0, as integers, one at a time:
    chain counts of a poset minus its minimum; for facets, a binomial bound.
    A poset's count of the chains ending at one element stops at 2**52 // n,
    so that its float sums stay exact; a count that reaches it is far over
    both bounds."""
    yield 1
    if isinstance(instance, FinitePoset):
        lt = instance.leq_matrix.astype(float)
        np.fill_diagonal(lt, 0)
        cap = 2**52 // len(lt)
        chains = np.ones(len(lt))
        chains[instance.index(instance.minimum())] = 0
        while chains.any():
            yield int(chains.sum())
            chains = np.minimum(lt.T @ chains, cap)
        return
    sizes = [len(f) for f in instance.facets]
    for k in range(1, max(sizes) + 1):
        yield sum(comb(n, k) for n in sizes)


def _bounded(instance, cells=False):
    """The instance, or SizeLimitError over MAX_BOUNDARY_ENTRIES boundary
    entries, or with `cells` when a boundary matrix has over
    MAX_BOUNDARY_CELLS cells.  Counting stops once the bound is passed."""
    entries = previous = 0
    for k, count in enumerate(_face_counts(instance)):
        entries += k * count
        if cells and previous * count > MAX_BOUNDARY_CELLS:
            raise SizeLimitError("a boundary matrix", f"{MAX_BOUNDARY_CELLS} cells")
        if not cells and entries > MAX_BOUNDARY_ENTRIES:
            raise SizeLimitError("the count of boundary entries", f"{MAX_BOUNDARY_ENTRIES} entries")
        previous = count
    return instance


def _scan(instance, fld, links=True):
    """The link scan of a file's complex, after `_bounded`: the interval scan
    of Δ(P − 0̂) for a poset; for a facet file the chain-level scan, under the
    cells bound too when its links are to be scanned."""
    if isinstance(instance, FinitePoset):
        return poset_scan(_bounded(instance), fld)
    return LinkScan(_bounded(instance, cells=links), fld)


def _field_from(args) -> FieldSpec:
    if args.field is not None:
        return FieldSpec(args.field)
    env = os.environ.get("POSETLAB_FIELD")
    if env:
        try:
            return FieldSpec(int(env))
        except ValueError:
            raise UsageError(f"POSETLAB_FIELD is not an integer: {env!r}")
    return FieldSpec(DEFAULT_PRIME)


def _int_params(values):
    out = []
    for v in values:
        try:
            out.append(int(v))
        except ValueError:
            out.append(v)
    return out


def cmd_generate(args) -> int:
    params = _int_params(args.params)
    try:
        instance = generators.make_family(args.family, *params)
    except (TypeError, ValueError):
        raise UsageError(
            f"wrong parameters for family {args.family!r}: {args.params}"
        )
    if isinstance(instance, FinitePoset):
        payload = poset_to_dict(instance)
    else:
        payload = complex_to_dict(instance)
    _emit(_dump(payload), args.output)
    return 0


class _HVector:
    """The payload of an h-vector invariant, and its tsv form, which no other
    invariant has."""

    def __init__(self, vector):
        self.vector = vector

    def __call__(self, P, fld):
        return self.vector(P).to_dict()

    def tsv(self, P):
        report = self.vector(P)
        head = "kind\trank\t" + "\t".join(f"h{i}" for i in range(len(report.entries)))
        row = f"{report.kind}\t{report.rank}\t" + "\t".join(map(str, report.entries))
        return head + "\n" + row + "\n"


def _mobius_text(P, fld):
    """`_dump` of {"name", "values": [[x, y, mu(x, y)], ...]} over the pairs
    x <= y by name, written directly from the index arrays of the table:
    each name is encoded once, each distinct value once, and one join
    writes the pairs."""
    rows, cols, values = mobius(P).arrays()
    names = [encode_basestring_ascii(e) for e in P.elements]
    heads = np.array([f"[\n      {e},\n      " for e in names], dtype=object)
    middles = np.array([f"{e},\n      " for e in names], dtype=object)
    values = values.tolist()
    tails = {v: f"{v}\n    ],\n    " for v in set(values)}
    parts = [None] * (3 * len(values))
    parts[0::3] = heads[rows].tolist()
    parts[1::3] = middles[cols].tolist()
    parts[2::3] = map(tails.__getitem__, values)
    pairs = "".join(parts).removesuffix(",\n    ")
    return f'{{\n  "name": {encode_basestring_ascii(P.name)},\n  "values": [\n    {pairs}\n  ]\n}}\n'


def _chi(instance, fld):
    if isinstance(instance, FinitePoset):
        value = reduced_euler_char(instance)
    else:
        value = _bounded(instance).reduced_euler_char()
    return {"name": instance.name, "chi": value}


def _homology(instance, fld):
    betti = _scan(instance, fld, links=False).betti()
    betti = {str(k): v for k, v in sorted(betti.items())}
    return {"name": instance.name, "field": fld.characteristic, "betti": betti}


def _classify(instance, fld):
    classes = _scan(instance, fld).classes()
    flags = {name: flag for name, flag in vars(classes).items() if name != "witnesses"}
    return {"name": instance.name, "field": fld.characteristic, **flags}


# The invariants of `compute`, in the order `--help` lists them: name ->
# (poset files only, payload of the instance and the field).  The Möbius
# payload is its JSON text already.
INVARIANTS = {
    "mobius": (True, _mobius_text),
    "psi": (True, lambda P, fld: {"name": P.name, "psi": rank_alternating_sum(P)}),
    "chi": (False, _chi),
    "simplicial-h": (True, _HVector(simplicial_h)),
    "toric-h": (True, _HVector(toric_h)),
    "cubical-h": (True, _HVector(cubical_h)),
    "short-cubical-h": (True, _HVector(short_cubical_h)),
    "homology": (False, _homology),
    "classify": (False, _classify),
}


def _lower_eulerian(P, fld):
    verdict = is_lower_eulerian(P)
    return verdict.ok, verdict.witness


# The predicates of `check`, likewise: name -> (poset files only, the
# (holds, witness) pair of the instance and the field).
PREDICATES = {
    "lower-eulerian": (True, _lower_eulerian),
    "cm": (False, lambda instance, fld: _scan(instance, fld).cohen_macaulay()),
    "buchsbaum-star": (False, lambda instance, fld: _scan(instance, fld).buchsbaum_star()),
    "simplicial": (True, lambda P, fld: (is_simplicial_poset(P), None)),
    "cubical": (True, lambda P, fld: (is_cubical_poset(P), None)),
    "meet-semilattice": (True, lambda P, fld: (is_meet_semilattice(P), None)),
}


def cmd_compute(args) -> int:
    poset_only, payload = INVARIANTS[args.invariant]
    if args.format == "tsv" and not isinstance(payload, _HVector):
        raise UsageError("tsv output is only available for h-vector invariants")
    instance = _load_instance(args.input)
    fld = _field_from(args)
    if poset_only and not isinstance(instance, FinitePoset):
        raise UsageError("this invariant needs a poset input (a JSON file with covers)")
    text = payload.tsv(instance) if args.format == "tsv" else payload(instance, fld)
    if not isinstance(text, str):
        text = _dump(text)
    _emit(text, args.output)
    return 0


def cmd_check(args) -> int:
    poset_only, predicate = PREDICATES[args.predicate]
    instance = _load_instance(args.input)
    fld = _field_from(args)
    if poset_only and not isinstance(instance, FinitePoset):
        raise UsageError(f"{args.predicate} applies to posets")
    result, witness = predicate(instance, fld)
    payload = {"name": instance.name, "predicate": args.predicate, "result": bool(result)}
    if witness is not None:
        payload["witness"] = jsonable(witness)
    _emit(_dump(payload), args.output)
    return 0 if result else 1


def cmd_audit(args) -> int:
    if args.suite != "all":
        raise UsageError("only the built-in suite 'all' is available")
    fld = _field_from(args)
    reports = run_suite(fld, family=args.family)
    if not reports:
        raise UsageError(f"no instance of the built-in suite belongs to family {args.family!r}")
    payload = [r.to_dict() for r in reports]
    _emit(_dump(payload), args.output)
    failures = 0
    for r in reports:
        bad = r.failures()
        failures += len(bad)
        status = "ok" if not bad else f"FAIL ({len(bad)} checks)"
        print(f"{r.instance}: {status}", file=sys.stderr)
    return 0 if failures == 0 else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="posetlab",
        description="Invariants and identity audits for finite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a built-in family instance as JSON")
    gen.add_argument("family")
    gen.add_argument("params", nargs="*")
    gen.add_argument("-o", "--output")
    gen.set_defaults(fn=cmd_generate)

    comp = sub.add_parser("compute", help="compute an invariant of a JSON instance")
    comp.add_argument("invariant", choices=list(INVARIANTS))
    comp.add_argument("input")
    comp.add_argument("--field", type=int)
    comp.add_argument("--format", choices=["json", "tsv"], default="json")
    comp.add_argument("-o", "--output")
    comp.set_defaults(fn=cmd_compute)

    chk = sub.add_parser("check", help="test a structural predicate")
    chk.add_argument("predicate", choices=list(PREDICATES))
    chk.add_argument("input")
    chk.add_argument("--field", type=int)
    chk.add_argument("-o", "--output")
    chk.set_defaults(fn=cmd_check)

    aud = sub.add_parser("audit", help="run the identity audit over the built-in suite")
    aud.add_argument("suite")
    aud.add_argument("--family")
    aud.add_argument("--field", type=int)
    aud.add_argument("-o", "--output")
    aud.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, PosetLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
