from itertools import product

import numpy as np
import pytest

from dense_oracle import nullspace, rank, rref, solve_many
from posetlab import linalg
from posetlab.errors import NotPrimeError
from posetlab.linalg import FieldSpec


def random_matrix(rng, m, n, p):
    return rng.integers(0, p, size=(m, n), dtype=np.int64)


def sparse_rank(matrix, p):
    """`linalg.rank` of a dense matrix, handed over as sparse columns."""
    return linalg.rank(({i: int(v) for i, v in enumerate(col) if v} for col in matrix.T), p)


RANKS = (rank, sparse_rank)


def test_rank_against_row_space_enumeration():
    # Over F_3, the row space of a tiny matrix has exactly 3^rank vectors.
    p = 3
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_matrix(rng, 3, 4, p)
        vectors = set()
        for coeffs in product(range(p), repeat=3):
            v = tuple((np.array(coeffs) @ a) % p)
            vectors.add(v)
        for matrix_rank in RANKS:
            assert len(vectors) == p ** matrix_rank(a, p), matrix_rank.__name__


def test_rref_reduced_shape():
    p = 101
    a = np.array([[2, 4, 6], [1, 2, 3], [0, 5, 1]])
    r, piv = rref(a, p)
    assert list(piv) == [0, 1]
    # Pivot columns are unit columns.
    for i, c in enumerate(piv):
        col = r[:, c]
        assert col[i] == 1 and (np.delete(col, i) == 0).all()


def test_nullspace_annihilates_and_spans():
    p = 101
    rng = np.random.default_rng(5)
    for m, n in [(3, 6), (6, 3), (5, 5)]:
        a = random_matrix(rng, m, n, p)
        ns = nullspace(a, p)
        assert ns.shape == (n, n - rank(a, p))
        assert not ((a @ ns) % p).any()
        if ns.shape[1]:
            assert rank(ns, p) == ns.shape[1]


def test_solve_many_roundtrip_and_inconsistency():
    p = 101
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 5, 3, p)
    x = random_matrix(rng, 3, 4, p)
    b = (a @ x) % p
    sols, ok = solve_many(a, b, p)
    assert ok.all()
    assert np.array_equal((a @ sols) % p, b)

    # A vector outside the column span must be flagged, not mangled.
    a2 = np.array([[1, 0], [0, 1], [1, 1]])
    bad = np.array([[1], [1], [0]])
    _, ok2 = solve_many(a2, bad, p)
    assert not ok2[0]


def test_zero_size_matrices():
    p = 101
    empty_rows = np.zeros((0, 3), dtype=np.int64)
    empty_cols = np.zeros((3, 0), dtype=np.int64)
    for matrix_rank in RANKS:
        assert matrix_rank(empty_rows, p) == 0, matrix_rank.__name__
        assert matrix_rank(empty_cols, p) == 0, matrix_rank.__name__
    assert nullspace(empty_rows, p).shape == (3, 3)
    assert nullspace(empty_cols, p).shape == (0, 0)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 2**31 + 11])
def test_field_spec_rejects_nonprimes(bad):
    with pytest.raises(NotPrimeError):
        FieldSpec(bad)


def test_field_spec_accepts_primes():
    for p in (2, 3, 101, 7919):
        assert FieldSpec(p).characteristic == p


def test_active_backend_reports_a_known_name():
    assert linalg.active_backend() == "sparse"
