"""Exact rank over the integers and the rationals: the differential reference
for the invariants that the package derives without elimination (the
twisted-involution walk's carried a and t, and the real rank from a trace).

Imported by the test modules; pytest does not collect it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from leafatlas.rootsys import IntMatrix


def rational_rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    """Rank of a small matrix by exact elimination: fraction-free (Bareiss)
    over Python ints when every entry is an int, else over the rationals."""
    m = [list(row) for row in rows]
    if all(isinstance(x, int) for row in m for x in row):
        return _integer_rank(m)
    return _fraction_rank(m)


def _integer_rank(m: list[list[int]]) -> int:
    # Bareiss: after each pivot every entry below it is a minor of the input,
    # so the division by the previous pivot is exact.  Consumes m.
    rank, prev = 0, 1
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def _fraction_rank(rows: list[list[Fraction | int]]) -> int:
    """Gauss-Jordan over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def eigenspace_dim(m: IntMatrix, eigenvalue: int) -> int:
    """dim ker(m - eigenvalue*I) by exact rank arithmetic."""
    n = len(m)
    shifted = [
        [m[i][j] - (eigenvalue if i == j else 0) for j in range(n)] for i in range(n)
    ]
    return n - rational_rank(shifted)
