"""The audit at the scale of the paper's families, outside tier-1
(`pytest -m large`): no check fails on boolean-6, cube-lattice-4 and
cube-boundary-5, within the run-time targets; the five flags of
cube-lattice-5 come within their target; the order-complex scans the
audit reads agree record by record with the chain-level scan; and the
atom-link ranks it reads off the top cycles of Δ(Q̄) on cube-boundary-5
agree with the chain-level scan's on every atom, and with the dense vertex
link map of `dense_oracle.py` on one atom (about 10 s).
"""

import time

import pytest

import dense_oracle
from posetlab.audit import FAIL, audit_poset
from posetlab.complexes import order_complex, reduced_order_complex
from posetlab.generators import make_family
from posetlab.homology import IntervalBetti, LinkScan, poset_scan
from posetlab.linalg import FieldSpec

pytestmark = pytest.mark.large

FLD = FieldSpec(101)


@pytest.mark.parametrize(
    "family, n, seconds",
    [("boolean", 6, 3), ("cube-lattice", 4, None), ("cube-boundary", 5, 10)],
)
def test_audit_passes_within_the_target(family, n, seconds):
    P = make_family(family, n)
    start = time.perf_counter()
    report = audit_poset(P, FLD)
    elapsed = time.perf_counter() - start
    assert [c.check_id for c in report.checks if c.verdict == FAIL] == []
    if seconds is not None:
        assert elapsed <= seconds, f"{P.name} audited in {elapsed:.1f} s"


def test_cube_lattice_5_classes_within_the_target():
    """Δ(cube-lattice-5 minus its minimum) is a cone over the top element,
    so it is CM but not doubly CM; its other vertices need no face loop."""
    P = make_family("cube-lattice", 5)
    start = time.perf_counter()
    classes = poset_scan(P, FLD).classes()
    elapsed = time.perf_counter() - start
    assert (classes.cohen_macaulay, classes.buchsbaum, classes.doubly_cm) == (True, True, False)
    assert (classes.gorenstein_star, classes.buchsbaum_star) == (False, False)
    assert classes.witnesses["doubly_cm"] == ("xxxxx", "dimension drops")
    assert elapsed <= 30, f"{P.name} classified in {elapsed:.1f} s"


@pytest.mark.parametrize("family, n", [("boolean", 6), ("cube-lattice", 4)])
def test_order_complex_scans_match_chain_level_scans(family, n):
    P = make_family(family, n)
    intervals = IntervalBetti(P, FLD)
    bottom = P.minimum()
    pbar = intervals.scan(x for x in P.elements if x != bottom)
    slow = LinkScan(reduced_order_complex(P), FLD)
    assert pbar.records == slow.records
    for y in P.maximal_elements():
        assert pbar.vertex_link(y).records == slow.vertex_link(y).records, y
    Q = P.remove_maximal().remove_min()
    assert intervals.scan(Q.elements).records == LinkScan(order_complex(Q), FLD).records


def test_atom_top_ranks_match_vertex_link_maps():
    P = make_family("cube-boundary", 5)
    Q = P.remove_maximal().remove_min()
    scan = IntervalBetti(P, FLD).scan(Q.elements)
    slow = LinkScan(order_complex(Q), FLD)
    tops = {f: top for f, _, top in scan.records if len(f) == 1}
    atoms = sorted(P.atoms())
    for x in atoms:
        assert scan.top_rank((x,)) == slow.top_rank((x,)) == tops[(x,)], x
    report = dense_oracle.vertex_link_map(slow.delta, atoms[0], FLD)
    assert (scan.top_rank((atoms[0],)), tops[(atoms[0],)]) == (report.rank, report.codomain_dim)
