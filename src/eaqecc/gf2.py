"""GF(2) linear algebra on int bitsets (bit j = column j).

Every elimination in the package is one incremental Gauss-Jordan step,
add_to_basis: a reduced basis grows one row at a time, each row pivoting
on its lowest column below width, and bits at width and above ride along
as tags (right-hand sides, or which input rows a basis row combines).
The reduced row echelon form that pivots on the lowest column is unique,
so below width the basis, sorted by pivot, is the same whatever order the
rows arrive in.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def parity(x: int) -> int:
    return x.bit_count() & 1


def reduce_vector(vec: int, reduced_rows: List[int], pivots: List[int]) -> int:
    """Reduce vec against an RREF basis; zero result means membership."""
    for row, col in zip(reduced_rows, pivots):
        if (vec >> col) & 1:
            vec ^= row
    return vec


def add_to_basis(reduced: List[int], pivots: List[int], vec: int, width: int) -> int:
    """Reduce vec against the basis and, if it is independent, pivot on it.

    The residue is independent when it has a bit below width: its lowest
    such bit becomes the pivot, that column is cleared from the other
    rows, and the residue is appended.  Bits at width and above ride
    along.  Returns the residue.
    """
    vec = reduce_vector(vec, reduced, pivots)
    low = vec & ((1 << width) - 1)
    if low:
        bit = low & -low
        for i, row in enumerate(reduced):
            if row & bit:
                reduced[i] = row ^ vec
        reduced.append(vec)
        pivots.append(bit.bit_length() - 1)
    return vec


def _eliminate(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form pivoting on the lowest available column.

    Returns (work, pivots): work[:len(pivots)] are the reduced pivot rows
    in pivot order, and every later row is a dependent row's nonzero
    residue, zero below width.
    """
    reduced: List[int] = []
    pivots: List[int] = []
    dependent: List[int] = []
    low = (1 << width) - 1
    for row in rows:
        residue = add_to_basis(reduced, pivots, row, width)
        if residue and not residue & low:
            dependent.append(residue)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [reduced[i] for i in order] + dependent, [pivots[i] for i in order]


def rank(rows: List[int], width: int) -> int:
    """Rank over GF(2) via Gaussian elimination."""
    return len(_eliminate(rows, width)[1])


def row_reduce(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work, pivots = _eliminate(rows, width)
    return work[: len(pivots)], pivots


def in_span(vec: int, rows: List[int], width: int) -> bool:
    """Whether vec lies in the GF(2) row span of rows."""
    reduced, pivots = row_reduce(rows, width)
    return reduce_vector(vec, reduced, pivots) == 0


def solve(constraint_rows: List[int], rhs_bits: List[int], width: int) -> Optional[int]:
    """One solution x of parity(constraint_rows[i] & x) = rhs_bits[i], or None.

    Each right-hand side rides along as bit width of its row.  Elimination
    pivots on the lowest available column; free variables are set to zero,
    so the returned solution is deterministic.
    """
    mask = (1 << width) - 1
    augmented = [
        (row & mask) | (bit << width)
        for row, bit in zip(constraint_rows, rhs_bits, strict=True)
    ]
    work, pivots = _eliminate(augmented, width)
    if any(work[len(pivots):]):
        return None
    x = 0
    for row, col in zip(work, pivots):
        if (row >> width) & 1:
            x |= 1 << col
    return x


def null_vector(reduced_rows: List[int], pivots: List[int], free: int) -> int:
    """The nullspace vector with free column free set and every other free column zero.

    reduced_rows and pivots are an RREF basis; its rows may carry tags
    above the columns, which are ignored.
    """
    bit = vec = 1 << free
    for row, col in zip(reduced_rows, pivots):
        if row & bit:
            vec |= 1 << col
    return vec


def nullspace(constraint_rows: List[int], width: int) -> List[int]:
    """Basis of {x : parity(row & x) = 0 for every row}, in column order."""
    reduced, pivots = row_reduce(constraint_rows, width)
    pivot_set = set(pivots)
    return [null_vector(reduced, pivots, f) for f in range(width) if f not in pivot_set]


__all__ = [
    "parity",
    "rank",
    "row_reduce",
    "reduce_vector",
    "add_to_basis",
    "in_span",
    "solve",
    "null_vector",
    "nullspace",
]
