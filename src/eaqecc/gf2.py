"""GF(2) linear algebra on int bitsets (bit j = column j)."""

from __future__ import annotations

from typing import List, Optional, Tuple


def parity(x: int) -> int:
    return x.bit_count() & 1


def _eliminate(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    """Gauss-Jordan elimination pivoting on the lowest available column.

    Only columns below width are pivoted on; higher bits ride along.
    Returns (work, pivots): work[:len(pivots)] are the reduced pivot rows
    and every later row is zero below width.
    """
    work = [r for r in rows if r]
    pivots: List[int] = []
    for col in range(width):
        rk = len(pivots)
        if rk == len(work):
            break
        pivot = None
        for i in range(rk, len(work)):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for i in range(len(work)):
            if i != rk and ((work[i] >> col) & 1):
                work[i] ^= work[rk]
        pivots.append(col)
    return work, pivots


def rank(rows: List[int], width: int) -> int:
    """Rank over GF(2) via Gaussian elimination."""
    return len(_eliminate(rows, width)[1])


def row_reduce(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work, pivots = _eliminate(rows, width)
    return work[: len(pivots)], pivots


def reduce_vector(vec: int, reduced_rows: List[int], pivots: List[int]) -> int:
    """Reduce vec against an RREF basis; zero result means membership."""
    for row, col in zip(reduced_rows, pivots):
        if (vec >> col) & 1:
            vec ^= row
    return vec


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


def nullspace(constraint_rows: List[int], width: int) -> List[int]:
    """Basis of {x : parity(row & x) = 0 for every row}, in column order."""
    reduced, pivots = row_reduce(constraint_rows, width)
    pivot_set = set(pivots)
    basis: List[int] = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = 1 << free
        for row, col in zip(reduced, pivots):
            if (row >> free) & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


__all__ = [
    "parity",
    "rank",
    "row_reduce",
    "reduce_vector",
    "in_span",
    "solve",
    "nullspace",
]
