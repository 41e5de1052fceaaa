"""Deterministic constructors for the built-in test families.

Everything here is reproducible: identical parameters give identical
instances, element identifiers included, so emitted JSON is byte-stable.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex
from .errors import BelowRangeError, SizeLimitError, UnsupportedKindError
from .poset import FinitePoset

_MASK64 = (1 << 64) - 1


class XorShift64Star:
    """xorshift64* stream: x ^= x>>12; x ^= x<<25; x ^= x>>27; out = x * 2685821657736338717.

    Seeded by adding the splitmix64 increment 0x9E3779B97F4A7C15 so seed 0 is
    usable; the update constants are fixed so instances are portable.
    """

    MULTIPLIER = 2685821657736338717
    SEED_OFFSET = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = (int(seed) + self.SEED_OFFSET) & _MASK64 or self.SEED_OFFSET

    def next_word(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * self.MULTIPLIER) & _MASK64

    def next_bit(self) -> int:
        return self.next_word() >> 63


def _check_range(what, value, low, high):
    """Refuse `value` outside low..high: above it as over the size guard,
    below it naming the range."""
    if value > high:
        raise SizeLimitError(what, high)
    if value < low:
        raise BelowRangeError(what, value, low, high)


def _subset_id(subset):
    return "".join(str(i) for i in sorted(subset)) or "e"


def boolean_lattice(n: int) -> FinitePoset:
    """Subsets of {1..n}; identifiers are digit strings, 'e' for the empty set."""
    _check_range("Boolean lattice order", n, 0, 6)
    subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
    elements = [_subset_id(s) for s in subsets]
    covers = []
    for s in subsets:
        for extra in range(1, n + 1):
            if extra not in s:
                covers.append((_subset_id(s), _subset_id(s | {extra})))
    return FinitePoset.from_covers(elements, covers, name=f"boolean-{n}")


def _cube_face_id(word: str) -> str:
    return word if word else "c"


def _cube_faces(n: int):
    """The faces of the n-cube as words over {0,1,x} in word order, after the
    empty face 'e', and the covers of its face lattice among them."""
    words = [""]
    for _ in range(n):
        words = [w + c for w in words for c in "01x"]
    elements = ["e"] + [_cube_face_id(w) for w in sorted(words)]
    covers = []
    for w in words:
        if "x" not in w:
            covers.append(("e", _cube_face_id(w)))
        for i, ch in enumerate(w):
            if ch == "x":
                for fixed in "01":
                    covers.append(
                        (_cube_face_id(w[:i] + fixed + w[i + 1 :]), _cube_face_id(w))
                    )
    return elements, covers


def cube_face_lattice(n: int) -> FinitePoset:
    """Faces of the n-cube as words over {0,1,x}, plus the empty face 'e'.

    The empty face is the minimum; the all-x word (the cube itself) is the
    maximum, so the lattice has 3^n + 1 elements and rank n + 1.
    """
    _check_range("cube dimension", n, 0, 6)
    elements, covers = _cube_faces(n)
    return FinitePoset.from_covers(elements, covers, name=f"cube-lattice-{n}")


def _face_id(face) -> str:
    return ",".join(sorted(face)) or "e"


def face_poset_of_complex(delta: SimplicialComplex, name=None) -> FinitePoset:
    """Faces ordered by inclusion, with the empty face as minimum."""
    faces = delta.faces()
    elements = [_face_id(f) for f in faces]
    face_set = set(faces)
    covers = []
    for f in faces:
        if len(f) == 0:
            continue
        for pos in range(len(f)):
            sub = f[:pos] + f[pos + 1 :]
            if sub in face_set:
                covers.append((_face_id(sub), _face_id(f)))
    return FinitePoset.from_covers(
        elements, covers, name=name or f"faces({delta.name})"
    )


def simplex_boundary_complex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex on vertices s0..sn."""
    _check_range("simplex dimension", n, 1, 6)
    verts = [f"s{i}" for i in range(n + 1)]
    return SimplicialComplex(
        list(combinations(verts, n)), name=f"simplex-boundary-{n}"
    )


def full_simplex_complex(n: int) -> SimplicialComplex:
    _check_range("simplex dimension", n, 0, 6)
    verts = [f"s{i}" for i in range(n + 1)]
    return SimplicialComplex([tuple(verts)], name=f"simplex-{n}")


def cubical_complex_poset(kind: str, *params) -> FinitePoset:
    """Cubical face posets: 'cube-boundary n', 'grid a b', 'cycle n'."""
    if kind == "cube-boundary":
        (n,) = params
        _check_range("cube dimension", n, 1, 6)
        # The cube's face lattice without its top, the all-x word.
        elements, covers = _cube_faces(n)
        top = "x" * n
        return FinitePoset.from_covers(
            [e for e in elements if e != top],
            [c for c in covers if c[1] != top],
            name=f"cube-boundary-{n}",
        )
    if kind == "grid":
        a, b = params
        _check_range("grid side", a, 1, 4)
        _check_range("grid side", b, 1, 4)
        return _grid_poset(a, b)
    if kind == "cycle":
        (n,) = params
        _check_range("cycle length", n, 3, 64)
        return _cycle_poset(n)
    raise UnsupportedKindError(kind)


def _grid_poset(a: int, b: int) -> FinitePoset:
    def v(i, j):
        return f"v{i}.{j}"

    def edge(p, q):
        return "|".join(sorted([p, q]))

    def square(i, j):
        corners = sorted([v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)])
        return "|".join(corners)

    elements = ["e"]
    covers = []
    for i in range(a + 1):
        for j in range(b + 1):
            elements.append(v(i, j))
            covers.append(("e", v(i, j)))
    for i in range(a + 1):
        for j in range(b):
            e = edge(v(i, j), v(i, j + 1))
            elements.append(e)
            covers += [(v(i, j), e), (v(i, j + 1), e)]
    for i in range(a):
        for j in range(b + 1):
            e = edge(v(i, j), v(i + 1, j))
            elements.append(e)
            covers += [(v(i, j), e), (v(i + 1, j), e)]
    for i in range(a):
        for j in range(b):
            s = square(i, j)
            elements.append(s)
            covers += [
                (edge(v(i, j), v(i, j + 1)), s),
                (edge(v(i + 1, j), v(i + 1, j + 1)), s),
                (edge(v(i, j), v(i + 1, j)), s),
                (edge(v(i, j + 1), v(i + 1, j + 1)), s),
            ]
    return FinitePoset.from_covers(elements, covers, name=f"grid-{a}x{b}")


def _cycle_poset(n: int) -> FinitePoset:
    verts = [f"v{i}" for i in range(n)]
    elements = ["e"] + verts
    covers = [("e", v) for v in verts]
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = "|".join(sorted([a, b]))
        elements.append(e)
        covers += [(a, e), (b, e)]
    return FinitePoset.from_covers(elements, covers, name=f"cycle-{n}")


def simplicial_poset_glue(kind: str, n: int) -> FinitePoset:
    """Simplicial posets that are not face posets of complexes.

    'two-facets-shared-boundary n' glues two n-simplices along their entire
    boundary, leaving two maximal elements over one shared boundary sphere.
    """
    if kind != "two-facets-shared-boundary":
        raise UnsupportedKindError(kind)
    _check_range("glued simplex dimension", n, 1, 5)
    verts = [f"g{i}" for i in range(n + 1)]
    proper = [c for k in range(n + 1) for c in combinations(verts, k)]
    elements = [_face_id(f) for f in proper] + ["A", "B"]
    covers = []
    for f in proper:
        if f:
            for pos in range(len(f)):
                covers.append((_face_id(f[:pos] + f[pos + 1 :]), _face_id(f)))
    for facet in combinations(verts, n):
        covers.append((_face_id(facet), "A"))
        covers.append((_face_id(facet), "B"))
    return FinitePoset.from_covers(elements, covers, name=f"glued-{n}")


def random_pure_subcomplex(n: int, d: int, seed: int) -> SimplicialComplex:
    """A pure d-dimensional facet selection from the (n-1)-simplex.

    Candidate facets are scanned in lexicographic order and kept on a PRNG
    bit; an empty draw falls back to the first candidate.
    """
    _check_range("vertex count", n, 1, 8)
    _check_range("dimension", d, 0, n - 1)
    verts = [f"r{i}" for i in range(n)]
    rng = XorShift64Star(seed)
    chosen = [f for f in combinations(verts, d + 1) if rng.next_bit()]
    if not chosen:
        chosen = [tuple(verts[: d + 1])]
    return SimplicialComplex(chosen, name=f"random-{n}-{d}-s{seed}")


def path_complex(k: int) -> SimplicialComplex:
    """A path of k edges."""
    _check_range("path length", k, 1, 32)
    return SimplicialComplex(
        [(f"p{i}", f"p{i+1}") for i in range(k)], name=f"path-{k}"
    )


def points_complex(k: int) -> SimplicialComplex:
    _check_range("point count", k, 1, 64)
    return SimplicialComplex([(f"p{i}",) for i in range(k)], name=f"points-{k}")


def make_family(family: str, *params):
    """Dispatch a family name to its constructor; returns a poset or complex."""
    if family == "boolean":
        return boolean_lattice(*params)
    if family == "cube-lattice":
        return cube_face_lattice(*params)
    if family in ("cube-boundary", "grid", "cycle"):
        return cubical_complex_poset(family, *params)
    if family == "simplex-boundary":
        return face_poset_of_complex(
            simplex_boundary_complex(*params), name=f"simplex-boundary-{params[0]}"
        )
    if family == "glued":
        return simplicial_poset_glue("two-facets-shared-boundary", *params)
    if family == "random":
        return random_pure_subcomplex(*params)
    if family == "random-poset":
        c = random_pure_subcomplex(*params)
        return face_poset_of_complex(c, name=c.name)
    if family == "path":
        return face_poset_of_complex(path_complex(*params), name=f"path-{params[0]}")
    if family == "points":
        return face_poset_of_complex(
            points_complex(*params), name=f"points-{params[0]}"
        )
    if family == "interval":
        base = make_family(*params)
        if not isinstance(base, FinitePoset):
            raise UnsupportedKindError(f"interval over non-poset family {params[0]!r}")
        inner = base.remove_min().interval_poset()
        result = inner.attach_min()
        result.name = f"interval-{base.name}"
        return result
    raise UnsupportedKindError(family)


# The built-in suite as (family, *params) arguments of make_family.
_SUITE_SPECS = (
    ("boolean", 1),
    ("boolean", 2),
    ("boolean", 3),
    ("boolean", 4),
    ("boolean", 5),
    ("cube-lattice", 1),
    ("cube-lattice", 2),
    ("cube-lattice", 3),
    ("simplex-boundary", 2),
    ("simplex-boundary", 3),
    ("simplex-boundary", 4),
    ("path", 2),
    ("points", 3),
    ("cycle", 3),
    ("cycle", 4),
    ("cycle", 5),
    ("cycle", 6),
    ("grid", 1, 2),
    ("grid", 2, 2),
    ("grid", 2, 3),
    ("grid", 3, 3),
    ("cube-boundary", 3),
    ("cube-boundary", 4),
    ("glued", 2),
    ("glued", 3),
    ("random-poset", 5, 2, 1),
    ("random-poset", 6, 2, 2),
    ("random-poset", 6, 3, 3),
    ("interval", "boolean", 3),
    ("interval", "cycle", 4),
    ("interval", "simplex-boundary", 2),
)


def suite():
    """The built-in poset suite: deterministic (name, poset) pairs."""
    posets = (make_family(*spec) for spec in _SUITE_SPECS)
    return [(P.name, P) for P in posets]
