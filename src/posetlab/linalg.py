"""Exact linear algebra over a prime field.

There is one elimination engine, the sparse left-to-right column reduction
in `_kernels`.  Its pivot choices depend only on the input columns, so
downstream homology bases and cycle representatives are reproducible across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import NotPrimeError

DEFAULT_PRIME = 101


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field; all arithmetic is exact mod `characteristic`."""

    characteristic: int = DEFAULT_PRIME

    def __post_init__(self):
        p = self.characteristic
        # Coordinates are reported in int64 arrays, so p stays below 2**31.
        if not isinstance(p, int) or p >= 2**31 or not _is_prime(p):
            raise NotPrimeError(p)


def active_backend() -> str:
    """The elimination engine's name; there is only the sparse one."""
    return "sparse"


def rank(columns, p: int) -> int:
    """Rank mod p of the matrix whose columns are the dicts {row: value}."""
    matrix = _kernels.SparseMatrix({i: v % p for i, v in col.items() if v % p} for col in columns)
    return len(_kernels.rref_inplace(matrix, p)[0])
