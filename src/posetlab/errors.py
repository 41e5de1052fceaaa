"""Exception types shared across the package."""


class PosetLabError(Exception):
    """Base class for all library errors."""


class EmptyPosetError(PosetLabError):
    """Raised when an operation would construct or receive an empty poset."""


class DuplicateElementError(PosetLabError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"duplicate element identifier: {element!r}")


class UnknownElementError(PosetLabError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"unknown element identifier: {element!r}")


class CycleDetectedError(PosetLabError):
    def __init__(self, cycle=None):
        self.cycle = cycle
        detail = f" through {cycle!r}" if cycle else ""
        super().__init__(f"cover relation contains a cycle{detail}")


class DuplicateCoverError(PosetLabError):
    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper
        super().__init__(f"cover ({lower!r}, {upper!r}) listed twice")


class RedundantCoverError(PosetLabError):
    """A cover pair (a, b) admits an intermediate element z with a < z < b."""

    def __init__(self, lower, upper, witness):
        self.lower = lower
        self.upper = upper
        self.witness = witness
        super().__init__(
            f"cover ({lower!r}, {upper!r}) is redundant: {lower!r} < {witness!r} < {upper!r}"
        )


class NotComparableError(PosetLabError):
    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper
        super().__init__(f"{lower!r} is not below {upper!r}")


class NotLocallyGradedError(PosetLabError):
    """An interval has maximal chains of two different lengths."""

    def __init__(self, lower, upper, lengths=None):
        self.lower = lower
        self.upper = upper
        self.lengths = lengths
        detail = f" (chain lengths {lengths})" if lengths else ""
        super().__init__(f"interval [{lower!r}, {upper!r}] is not graded{detail}")


class NotLowerGradedError(PosetLabError):
    """Poset lacks a minimum or is not locally graded."""


class NoMinimumError(PosetLabError):
    """Operation requires a minimum element but the poset has none."""


class RankCollapseError(PosetLabError):
    """Removing elements emptied the poset or destroyed its minimum."""


class NotSimplicialError(PosetLabError):
    """Poset has a lower interval that is not a Boolean lattice."""


class NotCubicalError(PosetLabError):
    """Poset has a lower interval that is not a cube face lattice."""


class FaceNotInComplexError(PosetLabError):
    def __init__(self, face):
        self.face = face
        super().__init__(f"face {sorted(face)!r} is not in the complex")


class UnknownVertexError(PosetLabError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"unknown vertex: {vertex!r}")


class EmptyComplexError(PosetLabError):
    """The complex with no faces at all is rejected; the void complex {()} is fine."""


class NotASubcomplexError(PosetLabError):
    def __init__(self, face=None):
        self.face = face
        detail = f": face {sorted(face)!r} missing from the ambient complex" if face else ""
        super().__init__(f"not a subcomplex{detail}")


class NotPrimeError(PosetLabError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"field characteristic must be a prime below 2**31, got {value!r}")


class InexactDivisionError(PosetLabError):
    """Polynomial division left a nonzero remainder where exactness was guaranteed."""


class OmegaNotOneDimensionalError(PosetLabError):
    """A maximal-element interval carried a top homology image of dimension != 1."""

    def __init__(self, element, dimension):
        self.element = element
        self.dimension = dimension
        super().__init__(
            f"interval below {element!r} carries a homology image of dimension {dimension}, expected 1"
        )


class UpsetNotSimplicialError(PosetLabError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"upset of {element!r} is not a simplicial poset")


class BasisNotFoundError(PosetLabError):
    """Greedy selection failed to produce a full homology basis from facet classes."""


class UnsupportedKindError(PosetLabError):
    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"unsupported generator kind: {kind!r}")


class SizeLimitError(PosetLabError):
    def __init__(self, what, limit):
        super().__init__(f"{what} exceeds the size guard ({limit})")

