"""Exact linear algebra over a prime field.

Everything here is deterministic: pivot choices depend only on the input
matrix, so downstream homology bases and cycle representatives are
reproducible across runs and backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """A prime field; all matrix arithmetic is exact mod `characteristic`."""

    characteristic: int = DEFAULT_PRIME

    def __post_init__(self):
        p = self.characteristic
        # p*p must fit in int64 for the elimination kernels.
        if not isinstance(p, int) or p >= 2**31 or not _is_prime(p):
            raise NotPrimeError(p)


def active_backend() -> str:
    return _kernels.BACKEND


def _prepare(matrix, p: int) -> np.ndarray:
    a = np.array(matrix, dtype=np.int64, order="C", copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    np.mod(a, p, out=a)
    return a


def rref(matrix, p: int, npiv: int | None = None):
    """Reduced row echelon form mod p. Returns (reduced matrix, pivot columns).

    `npiv` restricts pivot search to the leading columns; trailing columns are
    still eliminated, which turns them into coordinates over the pivot basis.
    """
    a = _prepare(matrix, p)
    if npiv is None:
        npiv = a.shape[1]
    if a.size == 0 or npiv == 0:
        return a, np.empty(0, dtype=np.int64)
    _, piv = _kernels.rref_inplace(a, p, npiv)
    return a, piv


def rank(matrix, p: int) -> int:
    return len(rref(matrix, p)[1])


def nullspace(matrix, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the kernel (one per free column)."""
    a = _prepare(matrix, p)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    r, piv = _kernels.rref_inplace(a, p, n)
    piv_set = set(int(c) for c in piv)
    free = [c for c in range(n) if c not in piv_set]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for i in range(r):
            basis[piv[i], k] = (-a[i, c]) % p
    return basis


def solve_many(matrix, rhs, p: int):
    """Solve A x = b for every column b of `rhs`.

    Returns (solutions, ok) where ok[j] is False for inconsistent columns and
    solutions[:, j] is the particular solution with free variables zero.
    """
    a = _prepare(matrix, p)
    b = _prepare(rhs, p)
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("dimension mismatch between matrix and right-hand sides")
    k = b.shape[1]
    if k == 0:
        return np.zeros((n, 0), dtype=np.int64), np.ones(0, dtype=bool)
    aug = np.concatenate([a, b], axis=1)
    if aug.size == 0:
        ok = np.all(b == 0, axis=0)
        return np.zeros((n, k), dtype=np.int64), ok
    r, piv = _kernels.rref_inplace(aug, p, n)
    ok = np.all(aug[r:, n:] == 0, axis=0)
    sols = np.zeros((n, k), dtype=np.int64)
    for i in range(r):
        sols[piv[i], :] = aug[i, n:]
    sols[:, ~ok] = 0
    return sols, ok


def sparse_pivot_rows(columns, p: int, skip=frozenset()) -> set:
    """Pivot rows of a left-to-right column reduction mod p; the rank is their
    number.  Each column is a dict {row: nonzero value mod p} and its pivot is
    its largest row.  Columns whose index is in `skip` are passed over."""
    reduced = {}  # pivot row -> the rest of its column, scaled to pivot 1
    for j, col in enumerate(columns):
        if j in skip:
            continue
        while col:
            row = max(col)
            entry = col.pop(row)
            tail = reduced.get(row)
            if tail is None:
                inv = pow(entry, p - 2, p)
                reduced[row] = {i: v * inv % p for i, v in col.items()}
                break
            for i, v in tail.items():
                x = (col.get(i, 0) - entry * v) % p
                if x:
                    col[i] = x
                else:
                    col.pop(i, None)
    return set(reduced)


def column_span_pivots(matrix, p: int) -> np.ndarray:
    """Indices of a deterministic maximal independent subset of the columns."""
    return rref(matrix, p)[1]
