"""Sparse column reduction over a prime field.

A column is a dict {row: nonzero value mod p}.  Columns are reduced left to
right, and a column's pivot is its largest row, so every result depends only
on the input order.
"""


class SparseMatrix(list):
    """A matrix as a list of columns {row: nonzero value mod p}.  `size` is
    the number of stored entries (as in scipy.sparse), counted when the
    matrix is built, since the reduction consumes the columns."""

    def __init__(self, columns=()):
        super().__init__(columns)
        self.size = sum(map(len, self))


def _subtract(col, entry, tail, p):
    """col -= entry * tail, in place, dropping the entries that cancel."""
    for i, v in tail.items():
        x = (col.get(i, 0) - entry * v) % p
        if x:
            col[i] = x
        else:
            col.pop(i, None)


def rref_inplace(matrix, p, skip=frozenset(), track=False):
    """Reduce the columns of a `SparseMatrix` left to right mod p, in place,
    to column echelon form with unit pivots.  (The name is the one the
    elimination kernel has always had; `perfbench/tracing.py` counts its
    calls and `matrix.size`.)

    Returns (pivots, cycles).  `pivots` maps each pivot row to the rest of its
    reduced column, scaled to 1 at the pivot; the rank is their number.
    Columns whose index is in `skip` are passed over.  With `track`, `cycles`
    maps each column j that reduces to zero to the combination V_j of the
    input columns that does so, without its leading term j (coefficient 1):
    {i < j: coefficient}.  Without `track`, `cycles` is None.
    """
    pivots = {}
    combos = {}  # pivot row -> its reduced column as a combination of columns
    cycles = {} if track else None
    for j, col in enumerate(matrix):
        if j in skip:
            continue
        combo = {}
        while col:
            row = max(col)
            entry = col.pop(row)
            tail = pivots.get(row)
            if tail is None:
                inv = pow(entry, p - 2, p)
                for i in col:
                    col[i] = col[i] * inv % p
                pivots[row] = col
                if track:
                    combos[row] = {i: v * inv % p for i, v in combo.items()}
                    combos[row][j] = inv
                break
            _subtract(col, entry, tail, p)
            if track:
                _subtract(combo, entry, combos[row], p)
        else:
            if track:
                cycles[j] = combo
    return pivots, cycles


def span_coefficients(chains, columns, p):
    """Write each chain {row: value} in `columns`, given as {leading row:
    rest of a column whose leading entry is 1, in rows below it}, by
    reducing it by its largest row.  Returns one {leading row: coefficient}
    per chain, or None for a chain outside the span of the columns."""
    out = []
    for chain in chains:
        col = {i: v % p for i, v in chain.items() if v % p}
        coeffs = {}
        while col:
            lead = max(col)
            rest = columns.get(lead)
            if rest is None:
                coeffs = None
                break
            coeffs[lead] = entry = col.pop(lead)
            _subtract(col, entry, rest, p)
        out.append(coeffs)
    return out
