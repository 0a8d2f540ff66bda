"""Entanglement-assisted stabilizer codes from classical quaternary codes.

A classical [n, k] code over GF(4) with parity-check matrix H yields
2(n-k) Pauli generators: the rows of omega*H followed by the rows of
omega-bar*H, each mapped letter-wise through the GF(4)-Pauli
correspondence.  The generators need not commute; decomposing them into c
symplectic pairs plus s isotropic generators and handing one half of c
maximally entangled pairs to the receiver makes the extended set abelian,
giving an [[n, n-c-s; c]] code (k_enc = 2k - n + c when all rows are
independent).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional

from . import gf4
from .pauli import PauliString, gf4_to_pauli
from .symplectic import (
    Decomposition,
    GeneratorSet,
    gram_schmidt_decompose,
    reduce_independent,
)


@dataclass(frozen=True)
class ClassicalCode:
    """A classical [n, k] linear code over GF(4), given by parity checks."""

    n: int
    k: int
    h: gf4.GfFourMatrix
    d_claimed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"code length must be >= 1, got n={self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"invalid dimensions [n={self.n}, k={self.k}]")
        if self.h.ncols != self.n:
            raise ValueError(f"parity-check matrix has {self.h.ncols} columns, expected {self.n}")
        if self.h.nrows != self.n - self.k:
            raise ValueError(
                f"parity-check matrix has {self.h.nrows} rows, expected n-k={self.n - self.k}"
            )
        if self.h.rank() != self.h.nrows:
            raise ValueError("parity-check rows are GF(4)-dependent")

    @classmethod
    def from_rows(cls, n: int, k: int, rows, d_claimed: Optional[int] = None) -> "ClassicalCode":
        return cls(n, k, gf4.GfFourMatrix.from_rows(rows, ncols=n), d_claimed)


@dataclass(frozen=True)
class EaqeccCode:
    """A built entanglement-assisted code.

    generators holds the sender-side (possibly non-commuting) independent
    set in construction order; extended holds the abelian set on n + c
    qubits, receiver qubits appended after the sender's n.
    """

    n: int
    c: int
    s: int
    k_enc: int
    generators: GeneratorSet
    extended: GeneratorSet
    decomposition: Decomposition
    d: Optional[int] = None
    classical: Optional[ClassicalCode] = None

    def with_distance(self, d: int) -> "EaqeccCode":
        return replace(self, d=d)


def quaternary_to_stabilizer(code: ClassicalCode) -> GeneratorSet:
    """Pauli generators from the stacked (omega*H over omega-bar*H) matrix."""
    gens: List[PauliString] = []
    for scalar in (gf4.OMEGA, gf4.OMEGA_BAR):
        for i in range(code.h.nrows):
            gens.append(gf4_to_pauli(gf4.scale(code.h.row(i), scalar)))
    return GeneratorSet(code.n, tuple(gens))


def extend_generators(d: Decomposition, n: int) -> GeneratorSet:
    """Abelian extension on n + c qubits following the pairing pattern.

    Pair i's zbar gains a Z and its xbar an X on receiver qubit n + i;
    isotropic generators gain identity.  Extended generators are the
    phase-0 (Hermitian) representatives.
    """
    c = d.c
    out: List[PauliString] = []
    for i, (zbar, xbar) in enumerate(d.pairs):
        out.append(PauliString(n + c, zbar.x, zbar.z | (1 << (n + i)), 0))
        out.append(PauliString(n + c, xbar.x | (1 << (n + i)), xbar.z, 0))
    for iso in d.isotropic:
        out.append(PauliString(n + c, iso.x, iso.z, 0))
    return GeneratorSet(n + c, tuple(out))


def build_code(code: ClassicalCode) -> EaqeccCode:
    """Full pipeline: map to Paulis, drop dependent rows, decompose, extend."""
    raw = quaternary_to_stabilizer(code)
    independent = reduce_independent(raw)
    decomp = gram_schmidt_decompose(independent)
    extended = extend_generators(decomp, code.n)
    c, s = decomp.c, decomp.s
    return EaqeccCode(
        n=code.n,
        c=c,
        s=s,
        k_enc=code.n - c - s,
        generators=independent,
        extended=extended,
        decomposition=decomp,
        d=None,
        classical=code,
    )


@dataclass(frozen=True)
class CodeParameters:
    """Structured parameter report for a built code."""

    n: int
    k_enc: int
    c: int
    s: int
    rate: Fraction
    d: Optional[int] = None
    correctable_weight: Optional[int] = None
    degenerate: Optional[bool] = None

    @property
    def label(self) -> str:
        if self.d is None:
            return f"[[{self.n},{self.k_enc};{self.c}]]"
        return f"[[{self.n},{self.k_enc},{self.d};{self.c}]]"

    @classmethod
    def from_counts(
        cls, n: int, k_enc: int, c: int, s: int, d: Optional[int] = None
    ) -> "CodeParameters":
        return cls(
            n=n,
            k_enc=k_enc,
            c=c,
            s=s,
            rate=Fraction(k_enc - c, n),
            d=d,
            correctable_weight=None if d is None else (d - 1) // 2,
        )


def parameters(codeq: EaqeccCode, d: Optional[int] = None) -> CodeParameters:
    """Parameter record for a built code; d overrides any stored distance."""
    dist = d if d is not None else codeq.d
    report = CodeParameters.from_counts(codeq.n, codeq.k_enc, codeq.c, codeq.s, dist)
    degenerate = None
    if dist is not None:
        min_iso = min_isotropic_weight(codeq)
        if min_iso is not None:
            degenerate = min_iso < dist
    return replace(report, degenerate=degenerate)


def min_isotropic_weight(codeq: EaqeccCode, limit: int = 20) -> Optional[int]:
    """Smallest weight of a nonidentity element in the isotropic span.

    None when the span is trivial or has more than 2**limit elements.
    """
    iso_rows = [g.row() for g in codeq.decomposition.isotropic]
    if not iso_rows:
        return None
    if len(iso_rows) > limit:
        return None
    best: Optional[int] = None
    for combo in range(1, 1 << len(iso_rows)):
        vec = 0
        bits = combo
        while bits:
            j = (bits & -bits).bit_length() - 1
            vec ^= iso_rows[j]
            bits &= bits - 1
        w = PauliString.from_row(codeq.n, vec).weight
        if best is None or w < best:
            best = w
    return best


__all__ = [
    "ClassicalCode",
    "EaqeccCode",
    "CodeParameters",
    "quaternary_to_stabilizer",
    "extend_generators",
    "build_code",
    "parameters",
    "min_isotropic_weight",
]
