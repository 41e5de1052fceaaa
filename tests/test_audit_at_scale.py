"""The audit at the scale of the paper's families, outside tier-1
(`pytest -m large`): no check fails on boolean-6, cube-lattice-4 and
cube-boundary-5, within the run-time targets, and the order-complex scans the
audit reads agree record by record with the chain-level scan.
"""

import time

import pytest

from posetlab.audit import FAIL, audit_poset
from posetlab.complexes import order_complex, reduced_order_complex
from posetlab.generators import make_family
from posetlab.homology import IntervalBetti, LinkScan
from posetlab.linalg import FieldSpec

pytestmark = pytest.mark.large

FLD = FieldSpec(101)


@pytest.mark.parametrize(
    "family, n, seconds",
    [("boolean", 6, 10), ("cube-lattice", 4, None), ("cube-boundary", 5, 30)],
)
def test_audit_passes_within_the_target(family, n, seconds):
    P = make_family(family, n)
    start = time.perf_counter()
    report = audit_poset(P, FLD)
    elapsed = time.perf_counter() - start
    assert [c.check_id for c in report.checks if c.verdict == FAIL] == []
    if seconds is not None:
        assert elapsed <= seconds, f"{P.name} audited in {elapsed:.1f} s"


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
