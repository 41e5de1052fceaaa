"""Command-line front door: generate instances, compute invariants, run checks
and audits.  Results go to stdout (or -o), diagnostics to stderr, so reports
pipe cleanly.  Exit codes: 0 pass, 1 any check/audit failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    """Read a poset or complex JSON file, deciding by its keys."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}")
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


def _scan(instance, fld, cells=False):
    """The link scan of a file's complex, after `_bounded`: the interval scan
    of Δ(P − 0̂) for a poset, the chain-level scan for a facet file."""
    if isinstance(_bounded(instance, cells), FinitePoset):
        return poset_scan(instance, fld)
    return LinkScan(instance, fld)


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


_POSET_ONLY = "this invariant needs a poset input (a JSON file with covers)"
_H_VECTORS = {
    "simplicial-h": simplicial_h,
    "toric-h": toric_h,
    "cubical-h": cubical_h,
    "short-cubical-h": short_cubical_h,
}


def cmd_compute(args) -> int:
    if args.format == "tsv" and args.invariant not in _H_VECTORS:
        raise UsageError("tsv output is only available for h-vector invariants")
    instance = _load_instance(args.input)
    fld = _field_from(args)
    inv = args.invariant
    is_poset = isinstance(instance, FinitePoset)

    if inv == "mobius":
        if not is_poset:
            raise UsageError(_POSET_ONLY)
        table = mobius(instance)
        values = sorted(
            [x, y, v] for (x, y), v in table.items()
        )
        payload = {"name": instance.name, "values": values}
    elif inv == "psi":
        if not is_poset:
            raise UsageError(_POSET_ONLY)
        payload = {"name": instance.name, "psi": rank_alternating_sum(instance)}
    elif inv == "chi":
        value = reduced_euler_char(instance) if is_poset else _bounded(instance).reduced_euler_char()
        payload = {"name": instance.name, "chi": value}
    elif inv in _H_VECTORS:
        if not is_poset:
            raise UsageError(_POSET_ONLY)
        report = _H_VECTORS[inv](instance)
        if args.format == "tsv":
            head = "kind\trank\t" + "\t".join(
                f"h{i}" for i in range(len(report.entries))
            )
            row = f"{report.kind}\t{report.rank}\t" + "\t".join(
                str(e) for e in report.entries
            )
            _emit(head + "\n" + row + "\n", args.output)
            return 0
        payload = report.to_dict()
    elif inv == "homology":
        betti = _scan(instance, fld).betti()
        payload = {
            "name": instance.name,
            "field": fld.characteristic,
            "betti": {str(k): v for k, v in sorted(betti.items())},
        }
    elif inv == "classify":
        classes = _scan(instance, fld, cells=not is_poset).classes()
        flags = {name: flag for name, flag in vars(classes).items() if name != "witnesses"}
        payload = {"name": instance.name, "field": fld.characteristic, **flags}
    else:
        raise UsageError(f"unknown invariant: {inv}")
    _emit(_dump(payload), args.output)
    return 0


def cmd_check(args) -> int:
    instance = _load_instance(args.input)
    fld = _field_from(args)
    pred = args.predicate
    is_poset = isinstance(instance, FinitePoset)
    witness = None

    if pred == "lower-eulerian":
        if not is_poset:
            raise UsageError("lower-eulerian applies to posets")
        verdict = is_lower_eulerian(instance)
        result = bool(verdict)
        witness = verdict.witness if not result else None
    elif pred in ("cm", "buchsbaum-star"):
        scan = _scan(instance, fld, cells=not is_poset)
        result, witness = scan.cohen_macaulay() if pred == "cm" else scan.buchsbaum_star()
    elif pred == "simplicial":
        if not is_poset:
            raise UsageError("simplicial applies to posets")
        result = is_simplicial_poset(instance)
    elif pred == "cubical":
        if not is_poset:
            raise UsageError("cubical applies to posets")
        result = is_cubical_poset(instance)
    elif pred == "meet-semilattice":
        if not is_poset:
            raise UsageError("meet-semilattice applies to posets")
        result = is_meet_semilattice(instance)
    else:
        raise UsageError(f"unknown predicate: {pred}")

    payload = {
        "name": instance.name,
        "predicate": pred,
        "result": bool(result),
    }
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


def build_parser() -> argparse.ArgumentParser:
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
    comp.add_argument(
        "invariant",
        choices=[
            "mobius",
            "psi",
            "chi",
            "simplicial-h",
            "toric-h",
            "cubical-h",
            "short-cubical-h",
            "homology",
            "classify",
        ],
    )
    comp.add_argument("input")
    comp.add_argument("--field", type=int)
    comp.add_argument("--format", choices=["json", "tsv"], default="json")
    comp.add_argument("-o", "--output")
    comp.set_defaults(fn=cmd_compute)

    chk = sub.add_parser("check", help="test a structural predicate")
    chk.add_argument(
        "predicate",
        choices=[
            "lower-eulerian",
            "cm",
            "buchsbaum-star",
            "simplicial",
            "cubical",
            "meet-semilattice",
        ],
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PosetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
