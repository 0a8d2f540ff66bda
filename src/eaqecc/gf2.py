"""GF(2) linear algebra on int bitsets (bit j = column j).

Every elimination in the package grows a row set one row at a time, by one
of two dual steps that pivot alike, each row on the lowest column below
width that it adds to the span.

Basis.add keeps the span: a reduced basis, with bits at width and above
riding along as tags (right-hand sides, or which input rows a basis row
combines).  A Basis holds each row's pivot as a bit, 1 << column, so every
test against a pivot is one AND, and no caller sees the pivot format.  The
reduced row echelon form that pivots on the lowest column is unique, so
below width the basis, sorted by pivot, is the same whatever order the
rows arrive in.

Complement.add keeps the nullspace instead: one vector per free column,
the same as a Basis' null vector of that column.  An add returns the
vector that leaves.

An add costs O(rank) int operations on a Basis and O(width - rank) on a
Complement.  So rank, solve and nullspace of partial systems run on a
Basis, and row sets completed to full rank (the check frame and the
symplectic completion) on a Complement, whose adds get cheaper as it
fills.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


def parity(x: int) -> int:
    return x.bit_count() & 1


class Basis:
    """A reduced row echelon basis of width columns, grown one row at a time.

    rows[i] pivots on bits[i] (1 << column): no other row has that bit.
    mask is the OR of bits.  Rows are held in the order they were added.
    """

    __slots__ = ("width", "rows", "bits", "mask")

    def __init__(self, width: int, rows: Iterable[int] = ()) -> None:
        self.width = width
        self.rows: List[int] = []
        self.bits: List[int] = []
        self.mask = 0
        for row in rows:
            self.add(row)

    def reduce(self, vec: int) -> int:
        """vec reduced against the rows; zero exactly when vec lies in their span."""
        for row, bit in zip(self.rows, self.bits):
            if vec & bit:
                vec ^= row
        return vec

    def add(self, vec: int) -> int:
        """Reduce vec and, if it is independent, pivot on it.  Returns the residue.

        The residue is independent when it has a bit below width: its
        lowest such bit becomes the pivot, that bit is cleared from the
        other rows, and the residue is appended.  Bits at width and above
        ride along.
        """
        vec = self.reduce(vec)
        low = vec & ((1 << self.width) - 1)
        if low:
            bit = low & -low
            rows = self.rows
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row ^ vec
            rows.append(vec)
            self.bits.append(bit)
            self.mask |= bit
        return vec

    def solution(self, column: int) -> int:
        """The OR of the pivot bits of the rows that have bit column.

        For a free column f below width, 1 << f | solution(f) is the
        nullspace vector with f set and every other free column zero.  For
        a tag column at width or above, it is the solution, free variables
        zero, of the system whose right-hand side that tag carries.
        """
        bit = 1 << column
        out = 0
        for row, pivot in zip(self.rows, self.bits):
            if row & bit:
                out |= pivot
        return out

    def free(self) -> List[int]:
        """The columns below width that no row pivots on, in order."""
        mask = self.mask
        return [col for col in range(self.width) if not mask & (1 << col)]


class Complement:
    """The nullspace of the rows added so far, grown one row at a time.

    vectors maps each free column f, in column order, to the nullspace
    vector with bit f set and every other free column clear: the same
    columns and vectors as 1 << f | Basis.solution(f) for a Basis fed the
    same rows.
    """

    __slots__ = ("vectors",)

    def __init__(self, width: int) -> None:
        self.vectors: Dict[int, int] = {f: 1 << f for f in range(width)}

    def add(self, row: int) -> Optional[int]:
        """Pivot on row, or return None and change nothing when it is dependent.

        parity(vectors[f] & row) is bit f of row's residue against a Basis,
        so the first free column with an odd product is row's pivot p.  Its
        vector leaves and is returned: it has product 1 with row and 0 with
        every earlier row.  Every other vector with an odd product absorbs
        it.  Bits of row at width and above are ignored.
        """
        vectors = self.vectors
        pivot = out = None
        for f, vec in vectors.items():
            if (vec & row).bit_count() & 1:
                if out is None:
                    pivot, out = f, vec
                else:
                    vectors[f] = vec ^ out
        if out is not None:
            del vectors[pivot]
        return out


def rank(rows: List[int], width: int) -> int:
    """Rank over GF(2) via Gaussian elimination."""
    return len(Basis(width, rows).rows)


def row_reduce(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    basis = Basis(width, rows)
    ordered = sorted(zip(basis.bits, basis.rows))
    return [row for _, row in ordered], [bit.bit_length() - 1 for bit, _ in ordered]


def in_span(vec: int, rows: List[int], width: int) -> bool:
    """Whether vec lies in the GF(2) row span of rows."""
    return Basis(width, rows).reduce(vec) == 0


def solve(constraint_rows: List[int], rhs_bits: List[int], width: int) -> Optional[int]:
    """One solution x of parity(constraint_rows[i] & x) = rhs_bits[i], or None.

    Each right-hand side rides along as bit width of its row, so a row
    whose residue is that bit alone makes the system inconsistent.
    Elimination pivots on the lowest available column; free variables are
    set to zero, so the returned solution is deterministic.
    """
    mask = (1 << width) - 1
    augmented = [
        (row & mask) | (bit << width)
        for row, bit in zip(constraint_rows, rhs_bits, strict=True)
    ]
    basis = Basis(width)
    for row in augmented:
        if basis.add(row) == 1 << width:
            return None
    return basis.solution(width)


def nullspace(constraint_rows: List[int], width: int) -> List[int]:
    """Basis of {x : parity(row & x) = 0 for every row}, in column order.

    A partial system stays on a Basis: its adds cost O(rank), where a
    Complement's cost O(width - rank), which is larger until the rows are
    more than half the width.
    """
    basis = Basis(width, constraint_rows)
    return [1 << f | basis.solution(f) for f in basis.free()]


__all__ = [
    "parity",
    "Basis",
    "Complement",
    "rank",
    "row_reduce",
    "in_span",
    "solve",
    "nullspace",
]
