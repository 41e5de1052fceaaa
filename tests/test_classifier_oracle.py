"""The link-scan classifiers against the face-by-face oracle in
`classifier_oracle.py`: same flags and the same first-failure witnesses, at
p = 2, 3 and 101, on a fixed seeded sample of complexes.
"""

import random

import pytest

import classifier_oracle as oracle
from posetlab.complexes import SimplicialComplex, reduced_order_complex
from posetlab.generators import (
    make_family,
    path_complex,
    random_pure_subcomplex,
    simplex_boundary_complex,
)
from posetlab.homology import (
    LinkScan,
    classify,
    is_buchsbaum,
    is_buchsbaum_star,
    is_cohen_macaulay,
    is_doubly_cm,
)
from posetlab.linalg import FieldSpec

PAIRS = (
    (is_cohen_macaulay, oracle.is_cohen_macaulay),
    (is_buchsbaum, oracle.is_buchsbaum),
    (is_doubly_cm, oracle.is_doubly_cm),
    (is_buchsbaum_star, oracle.is_buchsbaum_star),
)


def random_complex(seed):
    """Up to five random faces on six vertices, so often impure."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(6)]
    faces = [rng.sample(verts, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
    return SimplicialComplex.from_faces(faces, name=f"random-s{seed}")


def cone(delta, apex="c"):
    return SimplicialComplex([f + (apex,) for f in delta.facets], name=f"cone({delta.name})")


def disjoint_spheres(n):
    sphere = simplex_boundary_complex(n)
    twin = [tuple(f"t{v}" for v in f) for f in sphere.facets]
    return SimplicialComplex(list(sphere.facets) + twin, name=f"two-spheres-{n}")


def samples():
    out = [random_complex(seed) for seed in range(12)]
    out += [random_pure_subcomplex(6, d, seed) for d in (1, 2) for seed in range(4)]
    out += [reduced_order_complex(make_family("random-poset", 5, 2, seed)) for seed in range(3)]
    out += [cone(simplex_boundary_complex(2)), cone(path_complex(3)), cone(random_complex(3))]
    out += [disjoint_spheres(2), disjoint_spheres(3)]
    out += [simplex_boundary_complex(2), simplex_boundary_complex(3)]
    out += [reduced_order_complex(make_family("cube-boundary", n)) for n in (2, 3)]
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
def test_link_scan_matches_oracle(p):
    fld = FieldSpec(p)
    seen = set()
    for delta in samples():
        for fast, slow in PAIRS:
            assert fast(delta, fld) == slow(delta, fld), (delta, fast.__name__)
        got = classify(delta, fld)
        assert got == oracle.classify(delta, fld), delta
        wit = got.witnesses
        if not got.doubly_cm and got.cohen_macaulay and isinstance(wit["doubly_cm"][1], tuple):
            seen.add("doubly CM fails at a face")
        if got.buchsbaum and not got.buchsbaum_star:
            seen.add("Buchsbaum* fails with a rank")
        if got.cohen_macaulay and got.buchsbaum and got.doubly_cm and got.gorenstein_star and got.buchsbaum_star:
            seen.add("all five hold")
    assert seen == {"doubly CM fails at a face", "Buchsbaum* fails with a rank", "all five hold"}


@pytest.mark.parametrize("p", [2, 3, 101])
def test_vertex_link_scan_matches_fresh_scan(p):
    fld = FieldSpec(p)
    for delta in samples():
        scan = LinkScan(delta, fld)
        for v in delta.vertices:
            got = scan.vertex_link(v)
            fresh = LinkScan(delta.link((v,)), fld)
            assert got.delta == fresh.delta
            assert got.records == fresh.records, (delta, v)
            assert got.doubly_cm() == fresh.doubly_cm(), (delta, v)
