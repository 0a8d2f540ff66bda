"""Entanglement-assisted stabilizer codes from classical quaternary codes.

A classical [n, k] code over GF(4) with parity-check matrix H yields
2(n-k) Pauli generators: the rows of omega*H followed by the rows of
omega-bar*H, each mapped letter-wise through the GF(4)-Pauli
correspondence.  The generators need not commute; decomposing them into c
symplectic pairs plus s isotropic generators and handing one half of c
maximally entangled pairs to the receiver makes the extended set abelian,
giving an [[n, n-c-s; c]] code.  {omega, omega-bar} is a GF(2) basis of
GF(4) and the letter map is GF(2)-linear and injective, so the GF(2) rank
of the 2(n-k) generators is twice the GF(4) rank of the checks.  The sweep
keeps that rank: it is 2c plus the rank of the isotropic part.  So
ClassicalCode checks independence on the sweep itself, as
2c + rank(isotropic) = 2(n-k), and keeps the generators and their
decomposition for build_code, which maps and sweeps nothing again.  Then
s = 2(n-k) - 2c and k_enc = 2k - n + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from . import gf2, gf4
from .pauli import PauliString
from .symplectic import Decomposition, GeneratorSet, gram_schmidt_decompose


_DEPENDENT_CHECKS = "parity-check rows are GF(4)-dependent"


@dataclass(frozen=True)
class ClassicalCode:
    """A classical [n, k] linear code over GF(4), given by parity checks.

    The checks must be GF(4)-independent.  That is checked on the symplectic
    sweep of their 2(n-k) Pauli generators, not by a separate GF(4) rank:
    the generators are independent exactly when 2c + rank(isotropic) =
    2(n-k).  The generators and their decomposition are kept outside the
    dataclass fields, so equality, hashing and repr read n, k and h only,
    and build_code reuses them.  dataclasses.replace runs the check again;
    pickle and copy carry them along.
    """

    n: int
    k: int
    h: gf4.GfFourMatrix

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
        # a zero row maps to the identity, which no generator set admits
        if not all(map(any, self.h.entries)):
            raise ValueError(_DEPENDENT_CHECKS)
        generators = quaternary_to_stabilizer(self)
        decomposition = gram_schmidt_decompose(generators)
        iso_rank = gf2.rank([g.row() for g in decomposition.isotropic], 2 * self.n)
        if 2 * decomposition.c + iso_rank != len(generators):
            raise ValueError(_DEPENDENT_CHECKS)
        object.__setattr__(self, "_sweep", (generators, decomposition))

    @classmethod
    def from_rows(cls, n: int, k: int, rows) -> "ClassicalCode":
        return cls(n, k, gf4.GfFourMatrix.from_rows(rows, ncols=n))


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
    classical: Optional[ClassicalCode] = None


def quaternary_to_stabilizer(code: ClassicalCode) -> GeneratorSet:
    """Pauli generators from the stacked (omega*H over omega-bar*H) matrix.

    Each row h of H is taken as its bit planes a + b*OMEGA (gf4.planes).
    OMEGA*(a + b*OMEGA) = b + (a + b)*OMEGA, and c + d*OMEGA is the Pauli
    with x = c and z = c + d, so the OMEGA*h row is the Pauli (x, z) =
    (b, a).  Applying OMEGA twice, the OMEGA_BAR*h row is (a + b) + a*OMEGA,
    the Pauli (a + b, b).  So no entry is scaled or mapped on its own.
    """
    rows = [gf4.planes(row) for row in code.h.entries]
    gens = [PauliString(code.n, omegas, ones) for ones, omegas in rows]
    gens += [PauliString(code.n, ones ^ omegas, omegas) for ones, omegas in rows]
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
    """Full pipeline: map to Paulis, decompose, extend.

    The map and the decomposition are the ones ClassicalCode made when it
    checked independence, so only the extension runs here.
    """
    generators, decomp = code._sweep
    extended = extend_generators(decomp, code.n)
    c, s = decomp.c, decomp.s
    return EaqeccCode(
        n=code.n,
        c=c,
        s=s,
        k_enc=code.n - c - s,
        generators=generators,
        extended=extended,
        decomposition=decomp,
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
    """Parameter record for a built code: its counts, rate and the given distance.

    degenerate is left None; analysis.min_distance_bruteforce decides it
    together with the distance.
    """
    return CodeParameters.from_counts(codeq.n, codeq.k_enc, codeq.c, codeq.s, d)


__all__ = [
    "ClassicalCode",
    "EaqeccCode",
    "CodeParameters",
    "quaternary_to_stabilizer",
    "extend_generators",
    "build_code",
    "parameters",
]
