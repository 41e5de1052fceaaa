"""Abstract simplicial complexes and order complexes.

Complexes are stored by their facets; the full face list is materialized on
demand and cached (order complexes have few facets but many faces, and desk
scale keeps the face count manageable).  The void complex {()} and the empty
complex are distinguished: only the void complex is constructible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EmptyComplexError,
    FaceNotInComplexError,
    PosetLabError,
    UnknownVertexError,
)
from .poset import FinitePoset, json_list


def _norm_face(face):
    return tuple(sorted(face))


class SimplicialComplex:
    """Finite abstract simplicial complex on string vertex identifiers."""

    __slots__ = ("name", "_facets", "_vertices", "_faces", "_face_set")

    def __init__(self, facets, name="complex", _checked=False):
        facet_list = sorted({_norm_face(f) for f in facets}, key=lambda f: (len(f), f))
        if not facet_list:
            raise EmptyComplexError("a complex must contain at least the empty face")
        for f in facet_list:
            if len(set(f)) != len(f):
                raise PosetLabError(f"facet {f!r} repeats a vertex")
        if not _checked:
            for i, f in enumerate(facet_list):
                fs = set(f)
                for g in facet_list[i + 1 :]:
                    if fs < set(g):
                        raise PosetLabError(
                            f"facet {f!r} is contained in facet {g!r}; facets must be maximal"
                        )
        if len(facet_list) > 1 and () in facet_list:
            raise PosetLabError("the empty face is only a facet of the void complex")
        self.name = name
        self._facets = tuple(facet_list)
        self._vertices = tuple(sorted({v for f in facet_list for v in f}))
        self._faces = None
        self._face_set = None

    @classmethod
    def void(cls, name="void"):
        return cls([()], name=name, _checked=True)

    @classmethod
    def from_faces(cls, faces, name="complex"):
        """Build from an arbitrary face collection by keeping the maximal ones."""
        normed = sorted({_norm_face(f) for f in faces}, key=len, reverse=True)
        if not normed:
            raise EmptyComplexError("a complex must contain at least the empty face")
        maximal = []
        kept = []
        for f in normed:
            fs = set(f)
            if any(fs <= k for k in kept):
                continue
            kept.append(fs)
            maximal.append(f)
        return cls(maximal, name=name, _checked=True)

    # -- basic queries -----------------------------------------------------

    def __repr__(self):
        return f"SimplicialComplex({self.name!r}, dim {self.dim}, {len(self._facets)} facets)"

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    @property
    def facets(self):
        return self._facets

    @property
    def vertices(self):
        return self._vertices

    @property
    def dim(self):
        return max(len(f) for f in self._facets) - 1

    @property
    def is_void(self):
        return self._facets == ((),)

    def faces(self):
        """All faces including (), sorted by (dimension, vertex tuple)."""
        if self._faces is None:
            seen = set()
            for f in self._facets:
                for k in range(len(f) + 1):
                    seen.update(combinations(f, k))
            self._faces = tuple(sorted(seen, key=lambda s: (len(s), s)))
            self._face_set = frozenset(self._faces)
        return self._faces

    def face_set(self):
        if self._face_set is None:
            self.faces()
        return self._face_set

    def has_face(self, face):
        return _norm_face(face) in self.face_set()

    def is_pure(self):
        return len({len(f) for f in self._facets}) == 1

    # -- enumerative invariants ---------------------------------------------

    def f_vector(self):
        counts = [0] * (self.dim + 2)
        for f in self.faces():
            counts[len(f)] += 1
        return FVector(tuple(counts))

    def reduced_euler_char(self):
        """Alternating face count; the empty face contributes -1."""
        return sum((-1) ** ((len(f) - 1) % 2) for f in self.faces())

    # -- subcomplex constructions -------------------------------------------

    def link(self, face):
        """Faces tau - sigma over all tau containing sigma."""
        sigma = _norm_face(face)
        if not self.has_face(sigma):
            raise FaceNotInComplexError(sigma)
        ss = set(sigma)
        new_facets = [
            tuple(v for v in f if v not in ss) for f in self._facets if ss <= set(f)
        ]
        return SimplicialComplex(
            new_facets, name=f"link({self.name})", _checked=True
        )

    def contrastar(self, face):
        """All faces not containing the given nonempty face."""
        sigma = _norm_face(face)
        if not self.has_face(sigma):
            raise FaceNotInComplexError(sigma)
        if not sigma:
            raise EmptyComplexError("contrastar of the empty face removes every face")
        ss = set(sigma)
        candidates = []
        for f in self._facets:
            if not ss <= set(f):
                candidates.append(f)
            else:
                for v in sigma:
                    candidates.append(tuple(u for u in f if u != v))
        return SimplicialComplex.from_faces(candidates, name=f"cost({self.name})")

    def closed_star(self, vertex):
        """The complex generated by the facets containing the vertex."""
        if vertex not in self._vertices:
            raise UnknownVertexError(vertex)
        return SimplicialComplex(
            [f for f in self._facets if vertex in f],
            name=f"star({self.name})",
            _checked=True,
        )

    def delete_vertices(self, vertex_set):
        """Faces disjoint from the given vertex set."""
        drop = set(vertex_set)
        unknown = drop - set(self._vertices)
        if unknown:
            raise UnknownVertexError(sorted(unknown)[0])
        return SimplicialComplex.from_faces(
            [tuple(v for v in f if v not in drop) for f in self._facets],
            name=f"{self.name}-vertices",
        )


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_{dim}); f_{-1} is always 1."""

    counts: tuple

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1 or any(c < 0 for c in self.counts):
            raise PosetLabError(f"malformed f-vector {self.counts!r}")

    def __getitem__(self, i):
        # Indexed by dimension: self[-1] == f_{-1}.
        return self.counts[i + 1]

    def __len__(self):
        return len(self.counts)

    def alternating_sum(self):
        return sum((-1) ** (i % 2) * c for i, c in enumerate(self.counts, start=-1))


def is_subcomplex(sub: SimplicialComplex, ambient: SimplicialComplex) -> bool:
    amb = ambient.face_set()
    return all(f in amb for f in sub.facets)


# -- order complexes ----------------------------------------------------------


def order_complex(Q: FinitePoset, name=None) -> SimplicialComplex:
    """The complex of chains of Q; facets are the maximal chains."""
    parents = {x: Q.cover_parents(x) for x in Q.elements}
    chains = []
    stack = [[x] for x in Q.minimal_elements()]
    while stack:
        chain = stack.pop()
        ups = parents[chain[-1]]
        if not ups:
            chains.append(tuple(chain))
            continue
        for y in ups:
            stack.append(chain + [y])
    return SimplicialComplex(
        chains, name=name or f"chains({Q.name})", _checked=True
    )


def reduced_order_complex(P: FinitePoset, name=None) -> SimplicialComplex:
    """Order complex of P minus its minimum; void when P is a singleton."""
    P.minimum()
    if len(P) == 1:
        return SimplicialComplex.void(name=name or f"chains({P.name}-min)")
    return order_complex(P.remove_min(), name=name)


# -- serialization ------------------------------------------------------------


def complex_to_dict(c: SimplicialComplex) -> dict:
    return {
        "name": c.name,
        "vertices": list(c.vertices),
        "facets": [list(f) for f in c.facets],
    }


def complex_from_dict(data: dict) -> SimplicialComplex:
    facets = json_list(data.get("facets"), "facets", list)
    return SimplicialComplex(
        [json_list(f, "facet") for f in facets], name=data.get("name", "complex")
    )
