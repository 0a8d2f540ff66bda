"""Syndromes, distance search, correctability, and bound calculators.

The syndrome of an error is the vector of symplectic products against the
code's sender-side generators in construction order; receiver qubits are
assumed error-free.  An error set is correctable exactly when every pair
product is either detected (nonzero syndrome) or harmless (inside the
isotropic span).

The distance search and the correctable-set check carry errors as
signature words in frames._checks' frame of the check rows up to the
normalizer's: an error with zero syndrome bits (the syndrome mask's key
words) is an undetected logical when a normalizer bit is set and an
isotropic-span element when none is, and a product's signature is the
XOR of its factors'.  One walk over the weights, _lightest, answers
the distance, degeneracy and distinct-syndrome questions: a weight-D Pauli
is the product of a weight ceil(D/2) and a disjoint weight floor(D/2)
half, so it has a zero syndrome exactly when the halves' syndromes are
equal.  It is an undetected logical when their normalizer bits also
differ, and an isotropic-span element when their signatures are equal.
So the walk enumerates only weights up to ceil(d/2), holds their
signatures in memory, and returns two numbers: the weight of the lightest
undetected logical, which is the distance, and that of the lightest
nonidentity isotropic-span element below it, which makes the code
degenerate.  Errors of weight <= t have distinct nonzero syndromes exactly
when neither weight is at most 2t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .builder import EaqeccCode
from .frames import _checks, _key_index, _letter_table, _signatures, _weight_words, _words
from .pauli import PauliString, symplectic_product

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


def _undetected_logical(
    sig: np.ndarray, syndrome: np.ndarray, normalizer: np.ndarray
) -> np.ndarray:
    """Which (N, W) signatures have zero syndrome bits and a nonzero normalizer bit."""
    return ~(sig[:, : len(syndrome)] & syndrome).any(axis=1) & (sig & normalizer).any(axis=1)


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
    units, syndrome, normalizer = _checks(codeq, basis=False)
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

    Both are read from _lightest: the distance is the weight of the
    lightest undetected logical, and the code is degenerate when a
    nonidentity isotropic-span element is lighter.  Exponential, intended
    for small codes.  When nothing is found up to the cap the result only
    certifies distance >= cap + 1.
    """
    if weight_cap < 1:
        raise ValueError(f"weight_cap must be >= 1, got {weight_cap}")
    logical, isotropic = _lightest(codeq, weight_cap)
    degenerate = isotropic is not None if logical and codeq.s else None
    return DistanceResult(logical, weight_cap, degenerate)


def _lightest(codeq: EaqeccCode, weight_cap: int) -> Tuple[Optional[int], Optional[int]]:
    """(logical, isotropic): the lightest undetected logical's weight, and a lighter isotropic one.

    Meet in the middle: split a weight-D Pauli by support into halves of
    weights a = ceil(D/2) and b = floor(D/2).  It is an undetected logical
    exactly when the halves have equal syndrome bits and different
    normalizer bits, and a nonidentity isotropic-span element exactly when
    they are two different Paulis with equal signatures.  Conversely, such
    a pair of a weight-a and a weight-b Pauli multiplies to a logical (an
    isotropic-span element) of weight at most D.  So for D = 1 ...
    min(weight_cap, n) the first D at which the weight-a and weight-b
    signatures hold such a pair is the lightest logical's weight, and the
    first D with an equal pair the lightest isotropic-span element's.  The
    walk returns at the first logical, with the isotropic weight if it was
    lighter; either is None when none was found.

    Each weight's signatures are enumerated once, so memory holds the
    weights ceil(D/2) and ceil(D/2) - 1 for the last D walked.
    """
    units, syndrome, _ = _checks(codeq, basis=False)
    isotropic = None
    for weight, sig, split in _halves(_letter_table(units), weight_cap):
        syn = _key_index(sig[:, : len(syndrome)] & syndrome)[2]
        # only rows whose syndrome both halves hold can pair to a zero
        # syndrome; searchsorted(rows, split) counts the kept weight-a rows,
        # and keeps split = 0 (one weight paired with itself) at 0
        rows = np.flatnonzero(_paired(syn, split)[syn])
        if not len(rows):
            continue
        full = _key_index(np.take(sig, rows, axis=0))[2]
        # full refines syn: a kept syndrome with two normalizer values has a
        # weight-a and a weight-b row whose normalizer bits differ
        if full.max() + 1 > np.count_nonzero(np.bincount(syn[rows])):
            return weight, isotropic
        if isotropic is None and _paired(full, int(np.searchsorted(rows, split))).any():
            isotropic = weight
    return None, isotropic


def _halves(letters: np.ndarray, weight_cap: int) -> Iterator[Tuple[int, np.ndarray, int]]:
    """(D, words, split) for D = 1 ... min(weight_cap, n): the halves of weight D.

    words holds the words of every Pauli of weight ceil(D/2) and, from row
    split on, of every Pauli of weight floor(D/2); split = 0 stands for one
    weight paired with itself.  Each weight is enumerated once, when first
    needed, into one array that also holds the weight below it, so an odd
    D yields the array and the next D its first rows; weight 0 is the
    identity's zero words.
    """
    n, _, width = letters.shape
    held, split = np.zeros((1, width), dtype=np.uint64), 1  # weight a's rows, then a - 1's
    for weight in range(1, min(weight_cap, n) + 1):
        a = -(-weight // 2)
        if weight % 2:  # a new weight a, and a - 1 after it
            held, split = _level(letters, a, held[:split]), math.comb(n, a) * 3**a
            yield weight, held, split
        else:
            yield weight, held[:split], 0


def _level(letters: np.ndarray, w: int, below: np.ndarray) -> np.ndarray:
    """The words of every Pauli of weight w, in _weight_words order, and then below's rows."""
    size = math.comb(len(letters), w) * 3**w
    words = np.empty((size + len(below), letters.shape[2]), dtype=np.uint64)
    at = 0
    for chunk in _weight_words(letters, w):
        words[at : at + len(chunk)] = chunk
        at += len(chunk)
    words[size:] = below
    return words


def _paired(rank: np.ndarray, split: int) -> np.ndarray:
    """Per rank: whether rows rank[:split] and rank[split:] both hold it.

    split = 0 stands for one half paired with itself: the rank must then
    come up twice.
    """
    if not split:
        return np.bincount(rank) >= 2
    groups = rank.max() + 1
    return (np.bincount(rank[:split], minlength=groups) > 0) & (
        np.bincount(rank[split:], minlength=groups) > 0
    )


def nondegenerate_distinct_syndromes(codeq: EaqeccCode, t: int) -> bool:
    """Whether all nonidentity errors of weight <= t have distinct nonzero syndromes.

    They do exactly when no nonidentity error of weight <= 2t has a zero
    syndrome: two errors of weight <= t with equal syndromes (the identity
    included) multiply to one, and such an error splits by support into two
    such halves.  A nonidentity Pauli with a zero syndrome is either an
    undetected logical or an isotropic-span element, so the check is that
    _lightest finds neither up to weight 2t; no weight above min(t, n) is
    enumerated.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return _lightest(codeq, 2 * t) == (None, None)


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
