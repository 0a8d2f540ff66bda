"""Pauli-frame Monte Carlo of syndrome decoding over a depolarizing channel.

Errors hit only the sender's n qubits; the receiver's entangled halves are
noiseless.  Each trial samples an error, measures the syndrome against the
code's generators, applies the minimum-weight table correction, and counts
a logical failure unless the residual lies in the isotropic span (an
unknown syndrome is always a failure).

Randomness is counter-based: every uniform is a splitmix64 hash of
(seed, trial index, draw index), so results are reproducible for any
partitioning of trials across workers.

Trials run in blocks.  The sampler hashes one qubit column at a time and
keeps only the trials in which some qubit erred (at p = 0.01 most trials
draw the identity); one block decoder looks their packed syndromes up in
the table, whatever the number of generators.  Every other trial drew the
identity, whose outcome is decoded once per run and counted for each of
them.  sample_error and decode_error are the per-trial references the
block path must agree with.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import gf2
from .builder import EaqeccCode
from .pauli import PauliString, iter_paulis_of_weight
from .analysis import Syndrome, syndrome_of, in_isotropic
from .symplectic import _swap_halves

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 1 << 16


class InfeasibleError(ValueError):
    """Raised when a schedule cannot run with the provided resources."""


@dataclass(frozen=True)
class DepolarizingChannel:
    """Independent per-qubit noise: X, Y, Z each with probability p/3."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"error probability {self.p} outside [0, 1]")


def _mix64(v: int) -> int:
    v &= _MASK64
    v ^= v >> 30
    v = (v * _MIX1) & _MASK64
    v ^= v >> 27
    v = (v * _MIX2) & _MASK64
    v ^= v >> 31
    return v


def _mix64_array(v: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """_mix64 of every word of the uint64 array v, computed in place.

    scratch, when given, is a uint64 buffer of v's shape that is overwritten.
    """
    tmp = np.empty_like(v) if scratch is None else scratch
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(v, np.uint64(shift), out=tmp)
        np.bitwise_xor(v, tmp, out=v)
        np.multiply(v, np.uint64(mult), out=v)
    np.right_shift(v, np.uint64(31), out=tmp)
    np.bitwise_xor(v, tmp, out=v)
    return v


def _stream_key(seed: int, stream: int) -> int:
    return _mix64(_mix64(seed) + ((stream + 1) * _GOLDEN & _MASK64))


class CounterRng:
    """Tiny splitmix64 counter generator with a numpy-like random() method.

    The j-th uniform of stream (seed, stream) is a pure function of
    (seed, stream, j); streams never overlap and advancing is free.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        self._key = _stream_key(seed, stream)
        self._pos = 0

    def random(self, size: Optional[int] = None):
        if size is None:
            out = self.random(1)
            return float(out[0])
        idx = np.arange(self._pos, self._pos + size, dtype=np.uint64)
        self._pos += size
        words = _mix64_array(np.uint64(self._key) + (idx + np.uint64(1)) * np.uint64(_GOLDEN))
        return (words >> np.uint64(11)) * (2.0 ** -53)


def sample_error(ch: DepolarizingChannel, n: int, rng) -> PauliString:
    """One depolarizing error on n qubits from rng.random(n) uniforms.

    rng may be a numpy Generator or a CounterRng.  A qubit with uniform
    u < p takes letter X, Y, or Z by which third of [0, p) u falls in.
    """
    us = rng.random(n)
    x = 0
    z = 0
    for j in range(n):
        u = float(us[j])
        if u >= ch.p:
            continue
        kind = min(int(u * 3.0 / ch.p), 2)
        if kind != 2:
            x |= 1 << j
        if kind != 0:
            z |= 1 << j
    return PauliString(n, x, z, 0)


@dataclass(frozen=True)
class SyndromeTable:
    """Minimum-weight correction for every syndrome seen up to max_weight.

    Ties within a weight are broken lexicographically on the error's
    (x|z) bit pattern.  Immutable after build.
    """

    entries: Dict[Syndrome, PauliString]
    max_weight_built: int

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, syndrome: Syndrome) -> Optional[PauliString]:
        return self.entries.get(syndrome)


def build_syndrome_table(codeq: EaqeccCode, max_weight: int) -> SyndromeTable:
    """Enumerate errors by increasing weight, keeping first-seen syndromes.

    Enumeration stops as soon as every syndrome has an entry.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    n = codeq.n
    # bit i of a syndrome is the parity of row & checks[i] (syndrome_of's order)
    checks = [_swap_halves(g.row(), n) for g in codeq.generators]
    # the (x|z) bits as a string, qubit 0's x bit first: the lexicographic tie-break
    width = f"0{2 * n}b"
    entries: Dict[Syndrome, PauliString] = {}
    full = 1 << len(checks)
    for w in range(min(max_weight, n) + 1):
        candidates = iter_paulis_of_weight(n, w)
        for p in sorted(candidates, key=lambda p: format(p.row(), width)[::-1]):
            row = p.row()
            s = tuple([(row & g).bit_count() & 1 for g in checks])
            if s not in entries:
                entries[s] = p
                if len(entries) == full:
                    return SyndromeTable(entries, max_weight)
    return SyndromeTable(entries, max_weight)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding a single injected error."""

    success: bool
    known_syndrome: bool
    residual: Optional[PauliString]


def decode_error(codeq: EaqeccCode, table: SyndromeTable, e: PauliString) -> DecodeOutcome:
    """Decode one error: correct by table lookup, test the residual."""
    correction = table.lookup(syndrome_of(codeq, e))
    if correction is None:
        return DecodeOutcome(False, False, None)
    residual = PauliString(codeq.n, correction.x ^ e.x, correction.z ^ e.z, 0)
    return DecodeOutcome(in_isotropic(codeq, residual), True, residual)


@dataclass(frozen=True)
class TrialResult:
    """Aggregated Monte Carlo outcome.

    residual_in_isotropic counts degenerate successes: trials whose
    residual was a nonidentity element of the isotropic span.
    residual_syndrome_nonzero must be zero (every applied correction
    reproduces the measured syndrome); it is reported as a self-check.
    """

    trials: int
    logical_failures: int
    residual_in_isotropic: int
    seed: int
    residual_syndrome_nonzero: int = 0

    @property
    def successes(self) -> int:
        return self.trials - self.logical_failures

    @property
    def failure_rate(self) -> float:
        return self.logical_failures / self.trials if self.trials else 0.0


def _sample_block(p: float, n: int, seed: int, t_lo: int, t_hi: int):
    """Errors of trials [t_lo, t_hi), kept only for trials that drew one.

    Returns (hit, ex, ez): the trial numbers with at least one nonidentity
    qubit, increasing, and their (len(hit), n) x and z bit rows; every
    other trial drew the identity.  Row i matches sample_error with
    CounterRng(seed, hit[i]) exactly.
    """
    b = t_hi - t_lo
    # u = (w >> 11) * 2**-53 is below p exactly when w >> 11 < ceil(p * 2**53),
    # that is when w <= top; p * 2**53 is exact, and top fits 64 bits for p = 1
    limit = math.ceil(p * 2.0 ** 53)
    if limit == 0:
        empty = np.zeros((0, n), dtype=np.uint8)
        return np.zeros(0, dtype=np.int64), empty, empty.copy()
    top = np.uint64((limit << 11) - 1)
    t = np.arange(t_lo, t_hi, dtype=np.uint64)
    keys = _mix64_array(np.uint64(_mix64(seed)) + (t + np.uint64(1)) * np.uint64(_GOLDEN))
    words = np.empty(b, dtype=np.uint64)
    scratch = np.empty(b, dtype=np.uint64)
    below = np.empty(b, dtype=bool)
    mark = np.zeros(b, dtype=bool)  # trials with a hit so far
    letters = np.zeros((b, n), dtype=np.uint8)  # 0 = I, 1 = X, 2 = Y, 3 = Z
    for j in range(n):
        np.add(keys, np.uint64((j + 1) * _GOLDEN & _MASK64), out=words)
        _mix64_array(words, scratch)
        np.less_equal(words, top, out=below)
        r = np.flatnonzero(below)
        mark[r] = True
        u = (words[r] >> np.uint64(11)) * (2.0 ** -53)
        letters[r, j] = np.minimum((u * 3.0 / p).astype(np.int64), 2) + 1
    hit = np.flatnonzero(mark)
    drawn = letters[hit]
    ex = ((drawn == 1) | (drawn == 2)).view(np.uint8)
    ez = (drawn >= 2).view(np.uint8)
    return hit + t_lo, ex, ez


def _bit_matrix(rows: List[int], width: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..width-1 of rows[i]."""
    size = (width + 7) // 8
    data = b"".join(r.to_bytes(size, "little") for r in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), size)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _pack_keys(bits: np.ndarray) -> np.ndarray:
    """One fixed-width np.void key per row of a 0/1 matrix."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(f"V{packed.shape[1]}").ravel()


@dataclass(frozen=True)
class _BlockDecoder:
    """A code and its syndrome table as bit arrays, for decoding blocks.

    Errors are (b, 2n) (x|z) bit rows.  Syndromes are packed into byte
    keys of fixed width, so one sorted-key lookup serves any number of
    generators.  A code without generators gets one always-zero syndrome
    bit, so that no key is empty.
    """

    checks: np.ndarray  # (2n, max(m, 1)) float32: column i is generator i, halves swapped
    keys: np.ndarray  # sorted packed syndromes of the table entries
    corrections: np.ndarray  # (len(keys), 2n) correction rows in key order
    iso_rows: np.ndarray  # RREF rows of the isotropic span, (s, 2n)
    iso_pivots: Tuple[int, ...]

    @classmethod
    def build(cls, codeq: EaqeccCode, table: SyndromeTable) -> "_BlockDecoder":
        n = codeq.n
        m = len(codeq.generators)
        checks = np.zeros((2 * n, max(m, 1)), dtype=np.float32)
        checks[:, :m] = _bit_matrix(
            [_swap_halves(g.row(), n) for g in codeq.generators], 2 * n
        ).T
        syndromes = np.zeros((len(table), max(m, 1)), dtype=np.uint8)
        syndromes[:, :m] = np.array(list(table.entries), dtype=np.uint8).reshape(len(table), m)
        keys = _pack_keys(syndromes)
        order = np.argsort(keys, kind="stable")
        corrections = _bit_matrix([c.row() for c in table.entries.values()], 2 * n)
        iso_reduced, iso_pivots = gf2.row_reduce(
            [g.row() for g in codeq.decomposition.isotropic], 2 * n
        )
        return cls(
            checks,
            keys[order],
            corrections[order],
            _bit_matrix(iso_reduced, 2 * n),
            tuple(iso_pivots),
        )

    def syndromes(self, errors: np.ndarray) -> np.ndarray:
        # float32 products run in BLAS; sums of at most 2n ones are exact below 2**24
        return (errors.astype(np.float32) @ self.checks).astype(np.int32) & 1

    def decode(self, ex: np.ndarray, ez: np.ndarray) -> Tuple[int, int, int]:
        """(failures, degenerate successes, residual-syndrome violations)."""
        errors = np.concatenate([ex, ez], axis=1)
        b = errors.shape[0]
        if not len(self.keys):  # a hand-built empty table knows no syndrome
            return b, 0, 0
        keys = _pack_keys(self.syndromes(errors))
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        known = self.keys[pos] == keys
        residual = errors ^ self.corrections[pos]
        violations = int(np.count_nonzero(self.syndromes(residual).any(axis=1) & known))
        reduced = residual.copy()
        for row, pivot in zip(self.iso_rows, self.iso_pivots):
            reduced[reduced[:, pivot] == 1] ^= row
        success = known & ~reduced.any(axis=1)
        failures = b - int(np.count_nonzero(success))
        degenerate = int(np.count_nonzero(success & residual.any(axis=1)))
        return failures, degenerate, violations


def run_trials(
    codeq: EaqeccCode,
    ch: DepolarizingChannel,
    table: SyndromeTable,
    trials: int,
    seed: int,
    workers: int = 1,
) -> TrialResult:
    """Monte Carlo decoding; deterministic in (seed, trials) for any workers."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    decoder = _BlockDecoder.build(codeq, table)
    # every trial without a hit drew the identity: decode it once, count it often
    zero = np.zeros((1, codeq.n), dtype=np.uint8)
    quiet = decoder.decode(zero, zero)

    def run_range(lo: int, hi: int) -> Tuple[int, int, int]:
        failures = degenerate = violations = 0
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            hit, ex, ez = _sample_block(ch.p, codeq.n, seed, start, stop)
            f, g, v = decoder.decode(ex, ez)
            misses = stop - start - len(hit)
            failures += f + misses * quiet[0]
            degenerate += g + misses * quiet[1]
            violations += v + misses * quiet[2]
        return failures, degenerate, violations

    bounds = [i * trials // workers for i in range(workers + 1)]
    chunks = [(bounds[i], bounds[i + 1]) for i in range(workers)]
    if workers == 1:
        results = [run_range(*chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: run_range(*c), chunks))
    failures = sum(r[0] for r in results)
    degenerate = sum(r[1] for r in results)
    violations = sum(r[2] for r in results)
    return TrialResult(trials, failures, degenerate, seed, violations)


def trial_report(result: TrialResult, codeq: EaqeccCode) -> str:
    """Flat key=value report for a finished run."""
    lines = [
        f"n={codeq.n}",
        f"k={codeq.k_enc}",
        f"c={codeq.c}",
        f"s={codeq.s}",
        f"trials={result.trials}",
        f"failures={result.logical_failures}",
        f"rate={result.failure_rate:.12g}",
        f"degenerate_successes={result.residual_in_isotropic}",
        f"residual_syndrome_nonzero={result.residual_syndrome_nonzero}",
        f"seed={result.seed}",
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class CatalyticLedger:
    """Round-by-round entanglement accounting for catalytic operation."""

    rounds: int
    initial_ebits: int
    ebits_held: Tuple[int, ...]
    net_qubits_delivered: Tuple[int, ...]

    @property
    def total_delivered(self) -> int:
        return sum(self.net_qubits_delivered)


def catalytic_schedule(
    n: int, k_enc: int, c: int, rounds: int, initial_ebits: int
) -> CatalyticLedger:
    """Consume c ebits per round, deliver k_enc - c qubits, regenerate c.

    The ebit count therefore returns to its starting value after every
    round; with fewer than c initial ebits no round can start.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if c < 0 or k_enc + c > n:
        raise ValueError(f"inconsistent parameters n={n}, k_enc={k_enc}, c={c}")
    if initial_ebits < c:
        raise InfeasibleError(
            f"catalytic operation needs {c} ebits per round, only {initial_ebits} held"
        )
    held: List[int] = []
    delivered: List[int] = []
    ebits = initial_ebits
    for _ in range(rounds):
        ebits -= c
        delivered.append(k_enc - c)
        ebits += c
        held.append(ebits)
    return CatalyticLedger(rounds, initial_ebits, tuple(held), tuple(delivered))


__all__ = [
    "InfeasibleError",
    "DepolarizingChannel",
    "CounterRng",
    "sample_error",
    "SyndromeTable",
    "build_syndrome_table",
    "DecodeOutcome",
    "decode_error",
    "TrialResult",
    "run_trials",
    "trial_report",
    "CatalyticLedger",
    "catalytic_schedule",
]
