"""Arithmetic in the four-element field and small matrices over it.

Field elements are the ints 0, 1, OMEGA = 2, OMEGA_BAR = 3, where
OMEGA_BAR = OMEGA**2 = 1 + OMEGA and OMEGA**3 = 1.  Encoded as two bits
(bit 0 = coefficient of 1, bit 1 = coefficient of OMEGA), addition is XOR.
Text tokens are '0', '1', 'w' (OMEGA) and 'W' (OMEGA_BAR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from . import gf2

ZERO = 0
ONE = 1
OMEGA = 2
OMEGA_BAR = 3

ELEMENTS = (ZERO, ONE, OMEGA, OMEGA_BAR)
_ELEMENT_SET = frozenset(ELEMENTS)

_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

# Frobenius conjugate a -> a**2 (also the multiplicative inverse of nonzero a)
_CONJ = (0, 1, 3, 2)

# GF(4) -> GF(2) trace a + a**2
_TRACE = (0, 0, 1, 1)

# a field element's byte -> the ASCII digit of its coefficient of 1 / of OMEGA;
# any other byte -> "x", which int(..., 2) rejects
_ONES_DIGIT = bytes(b"0101"[v] if v < 4 else ord("x") for v in range(256))
_OMEGAS_DIGIT = bytes(b"0011"[v] if v < 4 else ord("x") for v in range(256))

_TOKENS = {"0": ZERO, "1": ONE, "w": OMEGA, "W": OMEGA_BAR}
_SYMBOLS = {v: k for k, v in _TOKENS.items()}


def add(a: int, b: int) -> int:
    return a ^ b


def mul(a: int, b: int) -> int:
    return _MUL[a][b]


def conj(a: int) -> int:
    return _CONJ[a]


def trace(a: int) -> int:
    return _TRACE[a]


def parse_symbol(token: str) -> int:
    try:
        return _TOKENS[token]
    except KeyError:
        raise ValueError(f"invalid GF(4) token {token!r}; expected one of 0, 1, w, W") from None


def format_symbol(a: int) -> str:
    return _SYMBOLS[a]


def scale(vec: Sequence[int], s: int) -> Tuple[int, ...]:
    """Multiply every entry of vec by the scalar s."""
    return tuple(_MUL[s][v] for v in vec)


def planes(vec: Sequence[int]) -> Tuple[int, int]:
    """(ones, omegas): bit j of each is the coefficient of 1 and of OMEGA in vec[j].

    The row is read as bytes, last entry first, and each byte is translated
    to a binary digit, so a row packs at C speed.  (tuple() first, so that
    a numpy row is read by its entries, not by its buffer.)  An entry that
    is not a field element raises ValueError.
    """
    data = bytes(tuple(vec))[::-1] or b"\0"  # an empty row is the zero row
    return int(data.translate(_ONES_DIGIT), 2), int(data.translate(_OMEGAS_DIGIT), 2)


def hermitian_trace_inner(u: Sequence[int], v: Sequence[int]) -> int:
    """GF(2) value trace(sum_i u_i * conj(v_i)) for equal-length vectors."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    acc = 0
    for a, b in zip(u, v):
        acc ^= _MUL[a][_CONJ[b]]
    return _TRACE[acc]


def rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Rank of a list of GF(4) row vectors.

    Loading a code does not call it: ClassicalCode reads independence off
    the symplectic sweep that build_code reuses.  It stays public, and it is
    the oracle the tests draw independent checks with.

    GF(4) has the GF(2) basis {1, OMEGA}, so the GF(2) span of r and
    OMEGA*r over all rows r is the GF(4) row space, with twice its
    dimension.  Each row is packed as its coefficients of 1 in bits
    0..ncols-1 and of OMEGA in bits ncols..2*ncols-1; multiplying
    a0 + a1*OMEGA by OMEGA gives a1 + (a0 + a1)*OMEGA.
    """
    images: List[int] = []
    for ones, omegas in map(planes, rows):
        images.append(ones | (omegas << ncols))
        images.append(omegas | ((ones ^ omegas) << ncols))
    return gf2.rank(images, 2 * ncols) // 2


def _elements_only(row: Sequence[int]) -> bool:
    """Whether every entry is a field element, by one C-level set test."""
    try:
        return _ELEMENT_SET.issuperset(row)
    except TypeError:  # an unhashable entry; the caller's test per entry decides
        return False


@dataclass(frozen=True)
class GfFourMatrix:
    """Immutable rectangular matrix over GF(4).

    ncols is explicit so that zero-row matrices still have a width.
    """

    ncols: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError(f"row of length {len(row)} in a {self.ncols}-column matrix")
            if not _elements_only(row):  # then name the first bad entry
                for v in row:
                    if v not in ELEMENTS:
                        raise ValueError(f"invalid GF(4) value {v!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ncols: Optional[int] = None) -> "GfFourMatrix":
        entries = tuple(tuple(row) for row in rows)
        if ncols is None:
            if not entries:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(entries[0])
        return cls(ncols, entries)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i]

    def rank(self) -> int:
        return rank(self.entries, self.ncols)


__all__ = [
    "ZERO",
    "ONE",
    "OMEGA",
    "OMEGA_BAR",
    "ELEMENTS",
    "add",
    "mul",
    "conj",
    "trace",
    "parse_symbol",
    "format_symbol",
    "scale",
    "planes",
    "hermitian_trace_inner",
    "rank",
    "GfFourMatrix",
]
