"""Abstract simplicial complexes and order complexes.

Complexes are stored by their facets; the full face list is materialized on
demand and cached (order complexes have few facets but many faces, and desk
scale keeps the face count manageable).  `faces()` lists the faces one size
at a time, each size in plain tuple order.  The void complex {()} and the
empty complex are distinguished: only the void complex is constructible.
"""

from __future__ import annotations

from itertools import chain, combinations

from .errors import (
    EmptyComplexError,
    FaceNotInComplexError,
    PosetLabError,
    UnknownVertexError,
)
from .poset import FinitePoset, json_list, json_name


def _norm_face(face):
    return tuple(sorted(face))


class SimplicialComplex:
    """Finite abstract simplicial complex on string vertex identifiers."""

    __slots__ = ("name", "_facets", "_vertices", "_faces")

    def __init__(self, facets, name="complex", _checked=False):
        facet_list = sorted({_norm_face(f) for f in facets}, key=lambda f: (len(f), f))
        if not facet_list:
            raise EmptyComplexError("a complex must contain at least the empty face")
        for f in facet_list:
            if len(set(f)) != len(f):
                raise PosetLabError(f"facet {f!r} repeats a vertex")
        if not _checked:
            # A facet's first container in list order is the lowest index,
            # other than its own, among the facets of its rarest vertex that
            # hold it; the empty facet lies in every facet.
            holders = {}
            for j, f in enumerate(facet_list):
                for v in f:
                    holders.setdefault(v, []).append(j)
            for i, f in enumerate(facet_list):
                fs = set(f)
                among = min((holders[v] for v in f), key=len, default=range(len(facet_list)))
                g = next((j for j in among if j != i and fs.issubset(facet_list[j])), None)
                if g is not None:
                    raise PosetLabError(
                        f"facet {f!r} is contained in facet {facet_list[g]!r}; facets must be maximal"
                    )
        if len(facet_list) > 1 and () in facet_list:
            raise PosetLabError("the empty face is only a facet of the void complex")
        self.name = name
        self._facets = tuple(facet_list)
        self._vertices = tuple(sorted({v for f in facet_list for v in f}))
        self._faces = None

    @classmethod
    def void(cls, name="void"):
        return cls([()], name=name, _checked=True)

    @classmethod
    def from_faces(cls, faces, name="complex"):
        """Build from an arbitrary face collection by keeping the maximal ones.
        A face that repeats a vertex is refused, maximal or not; the message
        names the first such face in (length, vertices) order."""
        normed = sorted({_norm_face(f) for f in faces}, key=len, reverse=True)
        if not normed:
            raise EmptyComplexError("a complex must contain at least the empty face")
        repeats = [f for f in normed if len(set(f)) != len(f)]
        if repeats:
            raise PosetLabError(f"facet {min(repeats, key=lambda f: (len(f), f))!r} repeats a vertex")
        # holders[v]: bit j set when the j-th kept face holds v.  A candidate
        # lies in a kept face when the AND of its vertices' bitsets is not 0.
        maximal = []
        holders = {}
        for f in normed:
            inside = -1 if maximal else 0
            for v in f:
                inside &= holders.get(v, 0)
            if inside:
                continue
            bit = 1 << len(maximal)
            for v in f:
                holders[v] = holders.get(v, 0) | bit
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
        """All faces including (), sorted by (dimension, vertex tuple): one
        size at a time, each size in plain tuple order."""
        if self._faces is None:
            by_size = [set() for _ in range(self.dim + 2)]
            for f in self._facets:
                for k in range(len(f) + 1):
                    by_size[k].update(combinations(f, k))
            self._faces = tuple(chain.from_iterable(map(sorted, by_size)))
        return self._faces

    def is_pure(self):
        return len({len(f) for f in self._facets}) == 1

    # -- enumerative invariants ---------------------------------------------

    def reduced_euler_char(self):
        """Alternating face count; the empty face contributes -1."""
        return sum((-1) ** ((len(f) - 1) % 2) for f in self.faces())

    # -- subcomplex constructions -------------------------------------------

    def _holding(self, face):
        """The sorted face sigma and whether each facet holds it; sigma is a
        face exactly when some facet does, and never when it repeats a
        vertex."""
        sigma = _norm_face(face)
        ss = set(sigma)
        holds = [ss <= set(f) for f in self._facets]
        if len(ss) != len(sigma) or not any(holds):
            raise FaceNotInComplexError(sigma)
        return sigma, holds

    def link(self, face):
        """Faces tau - sigma over all tau containing sigma."""
        sigma, holds = self._holding(face)
        new_facets = [
            tuple(v for v in f if v not in sigma) for f, h in zip(self._facets, holds) if h
        ]
        return SimplicialComplex(
            new_facets, name=f"link({self.name})", _checked=True
        )

    def contrastar(self, face):
        """All faces not containing the given nonempty face."""
        sigma, holds = self._holding(face)
        if not sigma:
            raise EmptyComplexError("contrastar of the empty face removes every face")
        candidates = []
        for f, h in zip(self._facets, holds):
            if not h:
                candidates.append(f)
            else:
                for v in sigma:
                    candidates.append(tuple(u for u in f if u != v))
        return SimplicialComplex.from_faces(candidates, name=f"cost({self.name})")

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


# -- order complexes ----------------------------------------------------------


def _maximal_chains(covers, starts):
    """The maximal chains that go up from the elements `starts` along
    `covers`, (lower, upper) pairs, each chain a tuple going up."""
    parents = {}
    for a, b in covers:
        parents.setdefault(a, []).append(b)
    chains = []
    stack = [[x] for x in starts]
    while stack:
        path = stack.pop()
        ups = parents.get(path[-1])
        if not ups:
            chains.append(tuple(path))
            continue
        for y in ups:
            stack.append(path + [y])
    return chains


def order_complex(Q: FinitePoset, name=None) -> SimplicialComplex:
    """The complex of chains of Q; facets are the maximal chains."""
    return SimplicialComplex(
        _maximal_chains(Q.covers, Q.minimal_elements()), name=name or f"chains({Q.name})", _checked=True
    )


def reduced_order_complex(P: FinitePoset, name=None) -> SimplicialComplex:
    """Order complex of P minus its minimum; void when P is a singleton.  The
    maximal chains of P − 0̂ start at the atoms and go up P's own covers, so
    P − 0̂ is never built."""
    P.minimum()
    name = name or f"chains({P.name}-min)"
    if len(P) == 1:
        return SimplicialComplex.void(name=name)
    return SimplicialComplex(_maximal_chains(P.covers, P.atoms()), name=name, _checked=True)


# -- serialization ------------------------------------------------------------


def complex_to_dict(c: SimplicialComplex) -> dict:
    return {
        "name": c.name,
        "vertices": list(c.vertices),
        "facets": [list(f) for f in c.facets],
    }


def complex_from_dict(data: dict) -> SimplicialComplex:
    name = json_name(data, "complex")
    facets = json_list(data.get("facets"), "facets", list)
    return SimplicialComplex([json_list(f, "facet") for f in facets], name=name)
