"""homology-large: reduced homology of order complexes with 10^3 to 1.4*10^4
faces, plus the classes maximal intervals carry into top homology.

No link scans run here, so dense elimination is nearly all of the time.  Each
operation is one complex (or one poset's interval classes).
"""

from __future__ import annotations

from posetlab.complexes import reduced_order_complex
from posetlab.generators import make_family
from posetlab.homology import maximal_interval_classes, reduced_homology
from posetlab.linalg import FieldSpec
from posetlab.poset import poset_to_dict

import oracle
from common import Op, order_of

# Face posets of spheres, minus the empty face: only the top reduced Betti
# number is nonzero, and it is 1 over every field.
SPHERES = (("simplex-boundary", 5), ("cube-boundary", 4), ("glued", 4))
# boolean-6 has a maximum, so its order complex is a cone.  The interval
# poset of boolean-5 minus its minimum is homotopy equivalent to that poset
# (send a chain to the interval it spans; each fibre has a minimum), which has
# a maximum: both are acyclic.
CONTRACTIBLE = (("boolean", 6), ("interval", "boolean", 5))
# Lower Eulerian Cohen-Macaulay posets for maximal_interval_classes.
CLASSES = (("cube-boundary", 4), ("simplex-boundary", 5), ("grid", 4, 4))
RANDOM = (8, 3)

REDUCED_SPHERES = (("simplex-boundary", 3), ("cube-boundary", 3), ("glued", 2))
REDUCED_CONTRACTIBLE = (("boolean", 3), ("interval", "boolean", 2))
REDUCED_CLASSES = (("cube-boundary", 3), ("grid", 2, 2))
REDUCED_RANDOM = (5, 2)

PRIMES = (101, 2)


def _homology(poset, p):
    delta = reduced_order_complex(poset)
    report = reduced_homology(delta, FieldSpec(p))
    return {int(k): int(v) for k, v in report.betti.items()}


def _classes(poset, p):
    mic = maximal_interval_classes(poset, FieldSpec(p))
    return {
        "ambient_dim": int(mic.ambient_dim),
        "classes": {str(y): [int(x) for x in v] for y, v in mic.classes.items()},
    }


def _label(spec):
    return "-".join(str(x) for x in spec)


def build(seed, workdir, reduced=False):
    spheres = REDUCED_SPHERES if reduced else SPHERES
    contractible = REDUCED_CONTRACTIBLE if reduced else CONTRACTIBLE
    classes = REDUCED_CLASSES if reduced else CLASSES
    random_spec = ("random-poset", *(REDUCED_RANDOM if reduced else RANDOM), seed)
    ops = []

    def homology_op(spec, kind, p):
        poset = make_family(*spec)
        ops.append(
            Op(
                f"homology {_label(spec)} p={p}",
                lambda: _homology(poset, p),
                {"kind": kind, "p": p, "poset": poset_to_dict(poset)},
            )
        )

    for spec in spheres:
        for p in PRIMES:
            homology_op(spec, "sphere", p)
    for spec in contractible:
        homology_op(spec, "contractible", PRIMES[0])
    homology_op(random_spec, "euler-only", PRIMES[0])
    for spec in classes:
        poset = make_family(*spec)
        ops.append(
            Op(
                f"interval-classes {_label(spec)} p={PRIMES[0]}",
                lambda poset=poset: _classes(poset, PRIMES[0]),
                {"kind": "classes", "p": PRIMES[0], "poset": poset_to_dict(poset)},
            )
        )
    return ops


def _reduced_order_counts(order):
    """Chain counts of the poset minus its minimum: the face counts of the
    complex the operation reduces, by size."""
    bottom = order.minimum()
    return order.chain_counts([i for i in range(len(order)) if i != bottom])


def check_homology(op, betti):
    kind = op.expect["kind"]
    order = order_of(op.expect["poset"])
    counts = _reduced_order_counts(order)
    dim = len(counts) - 2
    problems = []
    if sorted(betti) != list(range(-1, dim + 1)):
        problems.append(f"{op.label}: Betti degrees {sorted(betti)} for a complex of dimension {dim}")
        return problems
    euler = sum((-1) ** (k % 2) * b for k, b in betti.items())
    if euler != oracle.reduced_euler(counts):
        problems.append(
            f"{op.label}: Euler-Poincare fails: Betti numbers give {euler}, "
            f"face counts {counts} give {oracle.reduced_euler(counts)}"
        )
    if kind == "sphere":
        want = {k: int(k == dim) for k in betti}
    elif kind == "contractible":
        want = {k: 0 for k in betti}
    else:
        want = betti
    if betti != want:
        problems.append(f"{op.label}: Betti numbers {betti}, expected {want}")
    return problems


def check_classes(op, result):
    order = order_of(op.expect["poset"])
    tops = set(order.maximal())
    bottom = order.minimum()
    q_bar = [i for i in range(len(order)) if i not in tops and i != bottom]
    want = abs(oracle.reduced_euler(order.chain_counts(q_bar)))
    vectors = list(result["classes"].values())
    problems = []
    if len(vectors) != len(tops):
        problems.append(f"{op.label}: {len(vectors)} classes for {len(tops)} maximal elements")
    if any(len(v) != result["ambient_dim"] for v in vectors):
        problems.append(f"{op.label}: a class vector does not have length {result['ambient_dim']}")
        return problems
    got = oracle.rank_mod_p(vectors, op.expect["p"])
    if got != want:
        problems.append(f"{op.label}: classes span {got} dimensions, |chi(Q)| is {want}")
    return problems


def check(ops, outcomes):
    problems = []
    for op, out in zip(ops, outcomes):
        if out.failed:
            continue
        if op.expect["kind"] == "classes":
            problems.extend(check_classes(op, out.value))
        else:
            problems.extend(check_homology(op, out.value))
    return problems
