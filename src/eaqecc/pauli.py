"""n-qubit Pauli operators in binary symplectic form.

A PauliString stores two length-n bit-vectors packed into Python ints
(bit j = qubit j, qubit 0 = leftmost letter in text form) plus a phase
exponent, and represents the operator

    i**phase_exp * P_0 (x) P_1 (x) ... (x) P_{n-1}

where the letter on qubit j is picked by the bit pair (x_j, z_j):

    (0, 0) = I,   (1, 0) = X,   (0, 1) = Z,   (1, 1) = Y,

under the phase convention Y = i * X * Z.  Two operators commute or
anti-commute according to the symplectic inner product of their (x|z)
vectors; products are tracked phase-exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from . import gf4

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {bits: char for char, bits in _CHAR_TO_BITS.items()}
# letter of the digit x_j + 2*z_j
_DIGIT_TO_CHAR = str.maketrans("0123", "IXZY")
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

# single-qubit letter <-> GF(4): I->0, X->OMEGA_BAR, Y->1, Z->OMEGA
_BITS_TO_GF4 = {(0, 0): gf4.ZERO, (1, 0): gf4.OMEGA_BAR, (1, 1): gf4.ONE, (0, 1): gf4.OMEGA}
_GF4_TO_BITS = {v: bits for bits, v in _BITS_TO_GF4.items()}


@dataclass(frozen=True)
class PauliString:
    """Immutable n-qubit Pauli operator with exact global phase."""

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative qubit count {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError(f"bit-vector exceeds {self.n} qubits")
        if not 0 <= self.phase_exp <= 3:
            raise ValueError(f"phase_exp {self.phase_exp} not in 0..3")

    @property
    def weight(self) -> int:
        """Number of qubits carrying a non-identity letter."""
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        """True when every letter is I, regardless of phase."""
        return (self.x | self.z) == 0

    def row(self) -> int:
        """(x|z) vector as a 2n-bit int: x in bits 0..n-1, z in bits n..2n-1."""
        return self.x | (self.z << self.n)

    @classmethod
    def from_row(cls, n: int, row: int, phase_exp: int = 0) -> "PauliString":
        mask = (1 << n) - 1
        return cls(n, row & mask, row >> n, phase_exp)

    def letter(self, j: int) -> str:
        return _BITS_TO_CHAR[((self.x >> j) & 1, (self.z >> j) & 1)]

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def single(n: int, j: int, letter: str) -> PauliString:
    """The Pauli acting as `letter` on qubit j and I elsewhere."""
    if not 0 <= j < n:
        raise ValueError(f"qubit index {j} out of range for n={n}")
    xb, zb = _CHAR_TO_BITS[letter]
    return PauliString(n, xb << j, zb << j, 0)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact group product a*b including the global phase."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    x = a.x ^ b.x
    z = a.z ^ b.z
    # convert both factors to i^e * X^x Z^z form (each Y contributes one i),
    # commute a's Z block past b's X block, then convert back to letters
    exp = a.phase_exp + b.phase_exp
    exp += (a.x & a.z).bit_count() + (b.x & b.z).bit_count()
    exp += 2 * (a.z & b.x).bit_count()
    exp -= (x & z).bit_count()
    return PauliString(a.n, x, z, exp % 4)


def symplectic_product(a: PauliString, b: PauliString) -> int:
    """0 when a and b commute, 1 when they anti-commute."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1


def equal_up_to_phase(a: PauliString, b: PauliString) -> bool:
    return a.n == b.n and a.x == b.x and a.z == b.z


def parse_pauli(text: str) -> PauliString:
    """Parse a Pauli from text like "ZXZI", "-YY" or "iXZ".

    An optional leading phase token ("+", "-", "i", "+i", "-i") is followed
    by letters from {I, X, Y, Z}; qubit 0 is the leftmost letter.
    """
    body = text
    phase_exp = 0
    for token, exp in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
        if text.startswith(token):
            body = text[len(token):]
            phase_exp = exp
            break
    offset = len(text) - len(body)
    x = 0
    z = 0
    for j, char in enumerate(body):
        bits = _CHAR_TO_BITS.get(char)
        if bits is None:
            raise ValueError(f"invalid Pauli character {char!r} at position {offset + j}")
        x |= bits[0] << j
        z |= bits[1] << j
    return PauliString(len(body), x, z, phase_exp)


def format_pauli(p: PauliString) -> str:
    """Canonical text form; inverse of parse_pauli on its own output."""
    # Read back as hexadecimal, each binary digit of x and z becomes one
    # hex digit, so x + 2z has the digit x_j + 2*z_j for qubit j.  The
    # sentinel bit n keeps leading identities and is sliced off.
    top = 1 << p.n
    digits = int(format(p.x | top, "b"), 16) + 2 * int(format(p.z | top, "b"), 16)
    letters = format(digits, "x")[:0:-1].translate(_DIGIT_TO_CHAR)
    return _PHASE_PREFIX[p.phase_exp] + letters


def pauli_to_gf4(p: PauliString) -> Tuple[int, ...]:
    """Per-qubit map I->0, X->omega-bar, Y->1, Z->omega (phase ignored)."""
    return tuple(
        _BITS_TO_GF4[((p.x >> j) & 1, (p.z >> j) & 1)] for j in range(p.n)
    )


def gf4_to_pauli(vec: Sequence[int]) -> PauliString:
    """Inverse of pauli_to_gf4; the result carries phase_exp = 0."""
    x = 0
    z = 0
    for j, v in enumerate(vec):
        try:
            xb, zb = _GF4_TO_BITS[v]
        except KeyError:
            raise ValueError(f"invalid GF(4) value {v!r} at position {j}") from None
        x |= xb << j
        z |= zb << j
    return PauliString(len(vec), x, z, 0)


def iter_paulis_of_weight(n: int, weight: int) -> Iterator[PauliString]:
    """All phase-0 Paulis of the exact given weight, in a fixed order.

    Supports are enumerated in combinations order and letters on the
    support in (X, Y, Z) product order.
    """
    if weight == 0:
        yield identity(n)
        return
    for support in itertools.combinations(range(n), weight):
        for letters in itertools.product("XYZ", repeat=weight):
            x = 0
            z = 0
            for j, letter in zip(support, letters):
                xb, zb = _CHAR_TO_BITS[letter]
                x |= xb << j
                z |= zb << j
            yield PauliString(n, x, z, 0)


def iter_paulis_up_to_weight(n: int, max_weight: int) -> Iterator[PauliString]:
    """All phase-0 Paulis of weight 0..max_weight in increasing weight."""
    for w in range(min(max_weight, n) + 1):
        yield from iter_paulis_of_weight(n, w)


__all__ = [
    "PauliString",
    "identity",
    "single",
    "multiply",
    "symplectic_product",
    "equal_up_to_phase",
    "parse_pauli",
    "format_pauli",
    "pauli_to_gf4",
    "gf4_to_pauli",
    "iter_paulis_of_weight",
    "iter_paulis_up_to_weight",
]
