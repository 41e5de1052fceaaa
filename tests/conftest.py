import random
import time
from itertools import combinations

import pytest

from posetlab import FieldSpec
from posetlab.audit import run_suite
from posetlab.complexes import SimplicialComplex
from posetlab.generators import boolean_lattice, suite


@pytest.fixture(scope="session")
def field():
    return FieldSpec()


@pytest.fixture(scope="session")
def suite_posets():
    return suite()


@pytest.fixture(scope="session")
def suite_reports(field):
    """One audited pass over the whole suite, shared by the acceptance tests."""
    t0 = time.perf_counter()
    reports = run_suite(field)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def brute_force_chains(elements, lt):
    """All chains of a poset by subset enumeration; exponential, tiny inputs only."""
    elements = list(elements)
    chains = []
    for k in range(len(elements) + 1):
        for sub in combinations(elements, k):
            if all(lt(a, b) or lt(b, a) for a, b in combinations(sub, 2)):
                chains.append(frozenset(sub))
    return chains


def brute_force_reduced_euler(elements, lt):
    """Alternating chain count, straight from the definition."""
    total = 0
    for chain in brute_force_chains(elements, lt):
        total += (-1) ** ((len(chain) - 1) % 2)
    return total


def rp2():
    """The 6-vertex real projective plane: F_3-acyclic, but H_1 = F_2 over F_2."""
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ]
    return SimplicialComplex([[f"v{i}" for i in f] for f in facets], name="rp2")


def torus7():
    """The 7-vertex torus (Möbius, Császár): Buchsbaum, not CM over any field."""
    facets = [[f"t{(i + k) % 7}" for k in ks] for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))]
    return SimplicialComplex(facets, name="torus")


def drawn_poset(seed):
    """An induced subposet of the Boolean lattice of rank 4 under a new
    minimum: often ungraded, not Cohen-Macaulay, or not doubly so."""
    rng = random.Random(seed)
    B = boolean_lattice(4)
    members = rng.sample([x for x in B.elements if x != "e"], rng.randint(4, 10))
    return B.induced(members, name=f"drawn-s{seed}").attach_min()
