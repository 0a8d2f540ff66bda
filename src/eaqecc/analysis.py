"""Syndromes, distance search, correctability, and bound calculators.

The syndrome of an error is the vector of symplectic products against the
code's sender-side generators in construction order; receiver qubits are
assumed error-free.  An error set is correctable exactly when every pair
product is either detected (nonzero syndrome) or harmless (inside the
isotropic span).

The three searches (distance, distinct syndromes, correctable sets) carry
errors as signature words against the check rows of frames._check_rows:
an error with zero syndrome bits is an undetected logical when a
normalizer bit is set and an isotropic-span element when none is, and a
product's signature is the XOR of its factors'.  Each weight is
enumerated in frames._candidates chunks, so the distance search meets
every isotropic-span element lighter than d on its way and decides
degeneracy as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .builder import EaqeccCode
from .frames import (
    _candidates,
    _check_masks,
    _check_rows,
    _combine,
    _find,
    _key_index,
    _letter_table,
    _signatures,
    _units,
    _words,
)
from .pauli import PauliString, symplectic_product
from .symplectic import _swap_halves

Syndrome = Tuple[int, ...]


def syndrome_of(codeq: EaqeccCode, e: PauliString) -> Syndrome:
    """Commutation bits of e against each generator, in generator order."""
    if e.n != codeq.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {codeq.n}")
    return tuple(symplectic_product(g, e) for g in codeq.generators)


def in_isotropic(codeq: EaqeccCode, p: PauliString) -> bool:
    """Whether p's (x|z) row lies in the isotropic span (phase ignored)."""
    if p.n != codeq.n:
        raise ValueError(f"operator acts on {p.n} qubits, code has {codeq.n}")
    return gf2.in_span(p.row(), [g.row() for g in codeq.decomposition.isotropic], 2 * codeq.n)


@dataclass(frozen=True)
class CorrectabilityReport:
    """Outcome of a correctable-set check, with a witness on failure."""

    correctable: bool
    witness: Optional[Tuple[PauliString, PauliString]] = None

    def __bool__(self) -> bool:
        return self.correctable


def _logical_checks(codeq: EaqeccCode) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, syndrome mask, normalizer mask) of the check rows up to the normalizer's.

    units[c] is the signature of the (x|z) row with only bit c set.
    """
    rows, isotropy = _check_rows(codeq)
    return (_units(rows[:isotropy], codeq.n),) + _check_masks(
        len(codeq.generators), isotropy, isotropy
    )


def _undetected_logical(
    sig: np.ndarray, syndrome: np.ndarray, normalizer: np.ndarray
) -> np.ndarray:
    """Which (N, W) signatures have zero syndrome bits and a nonzero normalizer bit."""
    return ~(sig & syndrome).any(axis=1) & (sig & normalizer).any(axis=1)


def check_correctable_set(
    codeq: EaqeccCode, errors: Sequence[PauliString]
) -> CorrectabilityReport:
    """Check that every pair product is detected or isotropic.

    Returns the first offending pair (a, b) whose product commutes with
    all generators yet falls outside the isotropic span, scanning a by
    index and then b from a on.
    """
    for e in errors:
        if e.n != codeq.n:
            raise ValueError(f"error acts on {e.n} qubits, code has {codeq.n}")
    units, syndrome, normalizer = _logical_checks(codeq)
    sig = _signatures(_words([e.row() for e in errors], 2 * codeq.n), units)
    for i in range(len(errors)):
        bad = np.flatnonzero(_undetected_logical(sig[i:] ^ sig[i], syndrome, normalizer))
        if len(bad):
            return CorrectabilityReport(False, (errors[i], errors[i + int(bad[0])]))
    return CorrectabilityReport(True)


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance when found within the cap, else a lower bound.

    degenerate tells whether a nonidentity isotropic-span element is
    lighter than the exact distance; it is None when the distance is not
    exact or the isotropic span is trivial (s = 0).
    """

    distance: Optional[int]
    weight_cap: int
    degenerate: Optional[bool] = None

    @property
    def exact(self) -> bool:
        return self.distance is not None

    @property
    def lower_bound(self) -> int:
        return self.distance if self.distance is not None else self.weight_cap + 1

    def __str__(self) -> str:
        if self.distance is not None:
            return str(self.distance)
        return f">= {self.weight_cap + 1}"


def min_distance_bruteforce(codeq: EaqeccCode, weight_cap: int) -> DistanceResult:
    """Smallest weight of an undetected, non-isotropic Pauli, and whether the code is degenerate.

    Enumerates each weight in chunks, by increasing weight with early
    exit; exponential, intended for small codes.  When nothing is found up
    to the cap the result only certifies distance >= cap + 1.  The lightest
    undetected isotropic-span element is recorded by weight, not by chunk:
    one of weight d that comes up in a chunk before the logical's does not
    make the code degenerate.
    """
    if weight_cap < 1:
        raise ValueError(f"weight_cap must be >= 1, got {weight_cap}")
    units, syndrome, normalizer = _logical_checks(codeq)
    letters = _letter_table(units)
    lightest = codeq.n + 1  # weight of the lightest isotropic-span element met so far
    for w in range(1, min(weight_cap, codeq.n) + 1):
        for support, kinds in _candidates(codeq.n, w):
            sig = _combine(letters, support, kinds)
            undetected = ~(sig & syndrome).any(axis=1)
            logical = (sig & normalizer).any(axis=1)
            if lightest > w and (undetected & ~logical).any():  # an isotropic-span element
                lightest = w
            if (undetected & logical).any():
                return DistanceResult(w, weight_cap, lightest < w if codeq.s else None)
    return DistanceResult(None, weight_cap)


def nondegenerate_distinct_syndromes(codeq: EaqeccCode, t: int) -> bool:
    """Whether all nonidentity errors of weight <= t have distinct nonzero syndromes.

    The keys start from the identity's zero syndrome, so a zero syndrome
    counts as a repeat.  Each weight's chunks are searched in one key
    index over all lighter syndromes, whose rank also reveals repeats
    among those; one last rank count checks the heaviest weight.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = codeq.n
    letters = _letter_table(_units([_swap_halves(g.row(), n) for g in codeq.generators], n))
    keys = np.zeros((1, letters.shape[2]), dtype=np.uint64)
    for w in range(1, min(t, n) + 1):
        values, codes, rank = _key_index(keys)
        if rank.max() + 1 < len(keys):
            return False
        chunks = [keys]
        for support, kinds in _candidates(n, w):
            chunks.append(_combine(letters, support, kinds))
            if _find(values, codes, chunks[-1].T)[1].any():
                return False
        keys = np.concatenate(chunks)
    return _key_index(keys)[2].max() + 1 == len(keys)


@dataclass(frozen=True)
class BoundsReport:
    """Singleton slacks for a classical [n, k, d] code and its quantum image."""

    singleton_classical_slack: int
    singleton_quantum_slack: int
    hashing_rate_at: Tuple[Tuple[float, float, float], ...] = ()

    @property
    def classical_saturated(self) -> bool:
        return self.singleton_classical_slack == 0

    @property
    def quantum_saturated(self) -> bool:
        return self.singleton_quantum_slack == 0


def singleton_report(
    n: int, k: int, d: int, c: int = 0, f_list: Sequence[float] = ()
) -> BoundsReport:
    """Slack of n - k >= d - 1 and of its doubled quantum counterpart.

    (n, k, d) are the classical code's parameters; c only labels the
    derived [[n, 2k-n+c, d; c]] code and does not enter the slacks.
    """
    if not 0 <= k <= n or d < 1:
        raise ValueError(f"invalid parameters [n={n}, k={k}, d={d}]")
    classical = (n - k) - (d - 1)
    quantum = 2 * (n - k) - 2 * (d - 1)
    rates = tuple((f,) + hashing_rates(f) for f in f_list)
    return BoundsReport(classical, quantum, rates)


def _entropy(f: float, base: float) -> float:
    """Shannon entropy -f log_b f - (1-f) log_b (1-f), zero at the endpoints."""
    if f in (0.0, 1.0):
        return 0.0
    return -(f * math.log(f, base) + (1.0 - f) * math.log(1.0 - f, base))


def hashing_rates(f: float) -> Tuple[float, float]:
    """(R_C, R_Q) at depolarizing probability f.

    R_C = 1 - (H_4(f) + f log_4 3) is the quaternary symmetric channel
    capacity; R_Q = 2 R_C - 1 equals the depolarizing hashing rate
    1 - (H_2(f) + f log_2 3).
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"probability {f} outside [0, 1]")
    r_c = 1.0 - (_entropy(f, 4.0) + f * math.log(3.0, 4.0))
    r_q = 2.0 * r_c - 1.0
    return r_c, r_q


__all__ = [
    "Syndrome",
    "syndrome_of",
    "in_isotropic",
    "CorrectabilityReport",
    "check_correctable_set",
    "DistanceResult",
    "min_distance_bruteforce",
    "nondegenerate_distinct_syndromes",
    "BoundsReport",
    "singleton_report",
    "hashing_rates",
]
