"""Pauli-frame Monte Carlo of syndrome decoding over a depolarizing channel.

Errors hit only the sender's n qubits; the receiver's entangled halves are
noiseless.  Each trial samples an error, measures the syndrome against the
code's generators, applies the minimum-weight table correction, and counts
a logical failure unless the residual lies in the isotropic span (an
unknown syndrome is always a failure).

Randomness is counter-based: every uniform is a splitmix64 hash of
(seed, trial index, draw index), so results are reproducible for any
partitioning of trials across workers.  One counter hash, _counter, keys
the streams and draws the uniforms, for the sampler and CounterRng alike.
A run is cut into one range of trials per thread, with at most one thread
per CPU and per 65536 trials (_BLOCK); a run of one range, as every run
of at most 65536 trials is, starts no thread pool.

Trials run in blocks of _BLOCK, and every error is carried as its signature
in the frame of frames._checks over all 2n check rows, packed into uint64
words.  The generators come first, so the low bits are the syndrome; the
next rows check the normalizer, so a residual lies in the isotropic span
exactly when those bits are zero too.  The sampler hashes one qubit column
at a time and XORs the signature of each drawn letter into the trials that
erred.  A draw is a hit when its finalized hash is at most a threshold;
the finalizer's last step leaves the top 31 bits as they are, so one
compare before that step picks an exact superset of the hits, and the
step and the exact compare run on those candidates only.  The check rows
are a basis, so a trial's words are nonzero exactly when it drew a
nonidentity error, and only those hit trials are kept (at p = 0.01 most
draw the identity).  The decoder finds each syndrome's entry in the
table's own key index and compares the residual signature under two
masks.  Every other trial drew the identity, whose outcome is decoded
once per run and counted for each of them.  sample_error and decode_error
are the per-trial references the block path must agree with.

Each range allocates its block buffers once (_Buffers: the hash rows, the
hit mask and the signature words, sized to min(_BLOCK, range)) and every
block reuses them: the sampler overwrites them, and the decoder writes
its keys and residuals into the words the sampler is done with.  So a run
allocates no block-sized array per block, and a thread touches only its
own range's buffers.  The kernels take these buffers as required
arguments and allocate none of their own.

The syndrome table is built with the same kind of letter table: each
weight's candidate errors come from frames._weight_words, each carried as
the XOR of its letters' syndrome and tie-break words.  The table stays in
array form, its keys sorted in the decoder's lookup order, so a run
converts nothing but the corrections' signatures.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .builder import EaqeccCode
from .frames import (
    _BLOCK,
    _checks,
    _find,
    _key_index,
    _letter_table,
    _pack,
    _signatures,
    _units,
    _weight_words,
    _words,
)
from .pauli import PauliString
from .analysis import Syndrome, syndrome_of, in_isotropic
from .symplectic import _swap_halves

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_LAST = np.uint64(31)  # the finalizer's last step, w = v ^ (v >> 31)
_LOW33 = (1 << 33) - 1  # the bits of v that the last step changes


class InfeasibleError(ValueError):
    """Raised when a schedule cannot run with the provided resources."""


@dataclass(frozen=True)
class DepolarizingChannel:
    """Independent per-qubit noise: X, Y, Z each with probability p/3."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"error probability {self.p} outside [0, 1]")


def _mix64_rounds(v: np.ndarray, tmp: np.ndarray) -> None:
    """The splitmix64 finalizer's two multiply rounds on the uint64 array v, in place.

    tmp is a uint64 buffer of v's shape that is overwritten.
    """
    for shift, mult in _ROUNDS:
        np.right_shift(v, shift, out=tmp)
        np.bitwise_xor(v, tmp, out=v)
        np.multiply(v, mult, out=v)


def _mix64_array(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of every word of the uint64 array v, in place.

    scratch is a uint64 buffer of v's shape that is overwritten.
    """
    _mix64_rounds(v, scratch)
    np.right_shift(v, _LAST, out=scratch)
    np.bitwise_xor(v, scratch, out=v)
    return v


def _seed_key(seed: int) -> int:
    """The key of seed: the finalizer of seed mod 2**64."""
    word = np.array([seed & _MASK64], dtype=np.uint64)
    return int(_mix64_array(word, np.empty_like(word))[0])


def _counter(key: int, first: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sets word i of out to the finalizer of key + (first + i + 1) * _GOLDEN (mod 2**64).

    out is a uint64 array that is overwritten and returned; scratch is as
    for _mix64_array.  The sums are filled in by doubling, as words
    [k, 2k) are words [0, k) plus k * _GOLDEN, with no arange held or
    allocated.  This one hash keys the sampler's streams (under
    _seed_key(seed), one word per trial), keys a CounterRng's stream and
    draws that stream's uniforms.
    """
    out[:1] = (key + (first + 1) * _GOLDEN) & _MASK64
    k = 1
    while k < len(out):
        dest = out[k : 2 * k]
        np.add(out[: len(dest)], np.uint64(k * _GOLDEN & _MASK64), out=dest)
        k *= 2
    return _mix64_array(out, scratch)


class CounterRng:
    """Tiny splitmix64 counter generator with a numpy-like random() method.

    The j-th uniform of stream (seed, stream) is a pure function of
    (seed, stream, j); streams never overlap and advancing is free.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        key = np.empty(1, dtype=np.uint64)
        self._key = int(_counter(_seed_key(seed), stream, key, np.empty_like(key))[0])
        self._pos = 0

    def random(self, size: Optional[int] = None):
        if size is None:
            return float(self.random(1)[0])
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        words = np.empty(size, dtype=np.uint64)
        _counter(self._key, self._pos, words, np.empty_like(words))
        self._pos += size
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


class SyndromeTable:
    """Minimum-weight correction for every syndrome seen up to max_weight.

    Ties within a weight are broken lexicographically on the error's
    (x|z) bit pattern.  The table is held as read-only arrays:

    - keys, (len, K) uint64: the syndromes, bit i in bit i % 64 of word
      i // 64, sorted by word 0, then word 1, ... (the decoder's lookup
      order);
    - rows, (len, W) uint64: the corrections' (x|z) rows, in key order;
    - inserted: the key-order index of each entry in insertion order
      (by weight, then by tie-break).

    lookup searches the keys, and entries, the same table as a dict in
    insertion order, is derived from the arrays on first use.  A table
    built by hand from such a dict is converted to the arrays and keeps no
    dict, so its corrections come back with phase 0.  Its keys must be
    0/1 tuples of one length and its corrections act on one qubit count.
    """

    def __init__(self, entries: Dict[Syndrome, PauliString], max_weight_built: int) -> None:
        n = next(iter(entries.values())).n if entries else 0
        m = len(next(iter(entries))) if entries else 0
        for syndrome, correction in entries.items():
            if len(syndrome) != m or any(b not in (0, 1) for b in syndrome):
                raise ValueError(f"syndrome {syndrome} is not {m} bits of 0 or 1")
            if correction.n != n:
                raise ValueError(
                    f"correction {correction} of syndrome {syndrome} acts on "
                    f"{correction.n} qubits, not {n}"
                )
        bits = np.array(list(entries), dtype=np.uint8).reshape(len(entries), m)
        rows = _words([c.row() for c in entries.values()], 2 * n)
        self._init(n, m, _pack(bits), rows, max_weight_built)

    @classmethod
    def _from_arrays(
        cls, n: int, m: int, keys: np.ndarray, rows: np.ndarray, max_weight_built: int
    ) -> "SyndromeTable":
        """The table of the entries whose keys and rows are given in insertion order."""
        table = object.__new__(cls)
        table._init(n, m, keys, rows, max_weight_built)
        return table

    def _init(
        self, n: int, m: int, keys: np.ndarray, rows: np.ndarray, max_weight_built: int
    ) -> None:
        values, codes, rank = _key_index(keys)
        order = np.argsort(rank)
        self._n, self._m, self._index = n, m, (values, codes)
        self.keys, self.rows = np.take(keys, order, axis=0), np.take(rows, order, axis=0)
        self.inserted = rank
        for array in (self.keys, self.rows, self.inserted):
            array.flags.writeable = False
        self.max_weight_built = max_weight_built
        self._entries: Optional[Dict[Syndrome, PauliString]] = None

    @property
    def entries(self) -> Dict[Syndrome, PauliString]:
        if self._entries is None:
            bits = np.unpackbits(self.keys.view(np.uint8), axis=1, bitorder="little")
            syndromes = bits[:, : self._m].tolist()
            size = self.rows.itemsize * self.rows.shape[1]
            data = self.rows.tobytes()
            self._entries = {
                tuple(syndromes[j]): PauliString.from_row(
                    self._n, int.from_bytes(data[size * j : size * (j + 1)], "little")
                )
                for j in self.inserted.tolist()
            }
        return self._entries

    def __len__(self) -> int:
        return len(self.keys)

    def lookup(self, syndrome: Syndrome) -> Optional[PauliString]:
        # an empty table has no keys for _find to search
        if not len(self) or len(syndrome) != self._m or any(b not in (0, 1) for b in syndrome):
            return None
        key = _words([sum(int(b) << i for i, b in enumerate(syndrome))], self._m)
        rank, found = _find(*self._index, key.T)
        if not found[0]:
            return None
        row = int.from_bytes(self.rows[rank[0]].tobytes(), "little")
        return PauliString.from_row(self._n, row)


def _fewest(words: np.ndarray, nkeys: int) -> np.ndarray:
    """The rows of words with the smallest tie-break key of each syndrome, by syndrome.

    A row of words is a candidate's syndrome (nkeys words) and its
    tie-break key (the rest).  Tie-break keys are distinct, so one sort on
    the syndrome's rank and then the key's orders the rows.
    """
    syndrome = _key_index(words[:, :nkeys])[2]
    tie = _key_index(words[:, nkeys:])[2]
    words = np.take(words, np.argsort(syndrome * len(words) + tie), axis=0)
    first = np.ones(len(words), dtype=bool)
    first[1:] = (words[1:, :nkeys] != words[:-1, :nkeys]).any(axis=1)
    return words[first]


# (shift, mask) rounds that reverse the bits of each byte: nibbles, pairs, bits
_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333), (1, 0x5555555555555555))
)


def _reverse(words: np.ndarray) -> np.ndarray:
    """Each uint64 word reversed bit for bit: bit b lands at bit 63 - b.

    The bytes are swapped, then the bits within each byte.  The map is
    its own inverse.
    """
    words = words.byteswap()
    for shift, mask in _SWAPS:
        words = ((words >> shift) & mask) | ((words & mask) << shift)
    return words


def build_syndrome_table(codeq: EaqeccCode, max_weight: int) -> SyndromeTable:
    """Enumerate errors by increasing weight, keeping first-seen syndromes.

    Each weight is enumerated in chunks of at most _BLOCK candidates.  A
    candidate is carried as its syndrome words and its tie-break key (its
    (x|z) row words, each bit-reversed), both the XOR of its letters'
    words.  Of the candidates with a syndrome no lighter error has, each
    syndrome keeps the one with the smallest tie-break key, and the new
    entries follow in key order.  Enumeration stops after the weight in
    which every syndrome has an entry; the rows are recovered from the
    kept keys.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    n, m = codeq.n, len(codeq.generators)
    syndromes = _units([_swap_halves(g.row(), n) for g in codeq.generators], n)
    # the tie-break key is the (x|z) row with each word bit-reversed, so bit c
    # of the row is bit 63 - c % 64 of key word c // 64 (the padding bits are
    # low zeros): ordering the keys by word 0, then word 1, ... orders the
    # rows lexicographically from qubit 0's x bit on
    ties = _reverse(_pack(np.eye(2 * n, dtype=np.uint8)))
    letters = _letter_table(np.concatenate([syndromes, ties], axis=1))
    nkeys = syndromes.shape[1]
    kept = np.zeros((0, letters.shape[2]), dtype=np.uint64)  # entries in insertion order
    for w in range(min(max_weight, n) + 1):
        known = _key_index(kept[:, :nkeys])[:2] if len(kept) else None
        # chunks wait in pending until they outnumber best, so every merge
        # at least doubles the rows it sorts
        best, pending = kept[:0], []
        for words in _weight_words(letters, w):
            if known is not None:
                words = words[~_find(*known, words[:, :nkeys].T)[1]]
            pending.append(words)
            if sum(map(len, pending)) > len(best):
                best, pending = _fewest(np.concatenate([best, *pending]), nkeys), []
        if pending:
            best = _fewest(np.concatenate([best, *pending]), nkeys)
        order = np.argsort(_key_index(best[:, nkeys:])[2])
        kept = np.concatenate([kept, np.take(best, order, axis=0)])
        if len(kept) == 1 << m:
            break
    return SyndromeTable._from_arrays(n, m, kept[:, :nkeys], _reverse(kept[:, nkeys:]), max_weight)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding a single injected error."""

    success: bool
    known_syndrome: bool
    residual: Optional[PauliString]


def _require_fit(codeq: EaqeccCode, table: SyndromeTable) -> None:
    """Raise ValueError unless table was built for codeq's qubits and generators.

    An empty hand-built table knows no syndrome and fits every code.
    """
    m = len(codeq.generators)
    if len(table) and (table._n, table._m) != (codeq.n, m):
        raise ValueError(
            f"syndrome table for {table._n} qubits and {table._m} syndrome bits "
            f"does not fit a code with {codeq.n} qubits and {m} generators"
        )


def decode_error(codeq: EaqeccCode, table: SyndromeTable, e: PauliString) -> DecodeOutcome:
    """Decode one error: correct by table lookup, test the residual."""
    _require_fit(codeq, table)
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


class _Buffers(NamedTuple):
    """One range's block buffers, for blocks of up to b trials, reused by every block.

    hashes and words are flat, so a block of b' <= b trials works in the
    C-contiguous views _rows(buffer, rows, b') of their starts.  The
    sampler hashes in three rows of hashes (the keys, one qubit's draws,
    the finalizer's scratch), XORs the letters into words and gathers the
    hit trials' words into hashes; words is then the decoder's scratch.
    """

    hashes: np.ndarray  # (max(3, W) * b,) uint64: the hash rows, then the hits' words
    below: np.ndarray  # (b,) bool: the trials that drew below the threshold
    words: np.ndarray  # (W * b,) uint64: the trials' signature words

    @classmethod
    def of(cls, b: int, width: int) -> "_Buffers":
        hashes = np.empty(max(3, width) * b, dtype=np.uint64)
        return cls(hashes, np.empty(b, dtype=bool), np.empty(width * b, dtype=np.uint64))


def _rows(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) C-contiguous view of the start of the flat buffer."""
    return flat[: rows * cols].reshape(rows, cols)


def _threshold(p: float) -> int:
    """top: a draw w gives u = (w >> 11) * 2**-53 below p exactly when w <= top.

    That is when w >> 11 < ceil(p * 2**53); p * 2**53 is exact, top fits
    64 bits for p = 1, and it is -1 for p = 0, when no draw is below.
    """
    return (math.ceil(p * 2.0**53) << 11) - 1


def _below(v: np.ndarray, top: int, below: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(r, w): the positions of the pre-final words v whose draws are <= top, and those draws.

    v is hashed up to the finalizer's last step w = v ^ (v >> 31), which
    leaves bits 33-63 as they are, so w <= top only where v <= top | (2**33 - 1).
    That prefilter runs on every word (below is a bool buffer of v's shape);
    the last step and the exact compare run on its candidates only.  top >= 0.
    """
    np.less_equal(v, np.uint64(top | _LOW33), out=below)
    r = np.flatnonzero(below)
    w = np.take(v, r)
    w ^= w >> _LAST
    keep = w <= np.uint64(top)
    return r[keep], w[keep]


def _sample_block(
    p: float,
    letters: np.ndarray,
    seed: int,
    t_lo: int,
    t_hi: int,
    buffers: _Buffers,
):
    """Errors of trials [t_lo, t_hi) as signature words, for trials that drew one.

    letters is an (n, 3, W) uint64 table of _letter_table: the words of X,
    Y and Z on each qubit, from units that form a basis (the signature
    units of frames._checks, or the (x|z) units), so the words of an error
    are zero exactly when it is the identity.  Returns (hit, words): the
    trials whose words are nonzero, increasing, and the (W, len(hit)) XOR
    of the letters each of them drew, word by word; every other trial drew
    the identity.  With the (x|z) unit words as the table, column i is the
    (x|z) row of sample_error with CounterRng(seed, hit[i]) exactly.

    The block works in buffers, a range's _Buffers for at least t_hi - t_lo
    trials, which it overwrites.  The returned words are a view into
    buffers.hashes, valid until the next block.  Each qubit's draws are
    hashed in place, nine passes over the block: the key add, the
    finalizer's two multiply rounds and _below's prefilter and flatnonzero.
    """
    n, _, width = letters.shape
    b = t_hi - t_lo
    top = _threshold(p)
    if top < 0:
        return np.zeros(0, dtype=np.int64), np.zeros((width, 0), dtype=np.uint64)
    keys, draws, scratch = _rows(buffers.hashes, 3, b)
    below, words = buffers.below[:b], _rows(buffers.words, width, b)
    words.fill(0)
    _counter(_seed_key(seed), t_lo, keys, scratch)
    for j in range(n):
        np.add(keys, np.uint64((j + 1) * _GOLDEN & _MASK64), out=draws)
        _mix64_rounds(draws, scratch)
        r, w = _below(draws, top, below)
        u = (w >> np.uint64(11)) * (2.0 ** -53)
        kind = np.minimum((u * 3.0 / p).astype(np.int64), 2)
        for i, word in enumerate(words):
            word[r] ^= letters[j, kind, i]
    np.any(words, axis=0, out=below)
    hit = np.flatnonzero(below)
    # take keeps the columns C-contiguous (words[:, hit] would not), which
    # the decoder's word-by-word operations need to run at full speed; clip
    # never clips these indices, and unlike the default mode writes to out
    sig = np.take(words, hit, axis=1, out=_rows(buffers.hashes, width, len(hit)), mode="clip")
    return hit + t_lo, sig


@dataclass(frozen=True)
class _BlockDecoder:
    """A code and its syndrome table as signature words, for decoding blocks.

    Errors are (W, b) signature words in the frame of frames._checks over
    the full basis of check rows.  A trial's syndrome is its low m bits;
    the table entry for it is found in the table's own key index, one key
    word at a time, so one lookup serves any m.
    The residual (error times correction) has signature error ^ correction:
    it lies in the isotropic span when its generator and normalizer bits
    are zero, and it is the identity when all of its bits are.
    """

    letters: np.ndarray  # (n, 3, W): signature of X, Y, Z on each qubit
    syndrome_mask: np.ndarray  # (K,): the generator bits of the first K words
    normalizer_mask: np.ndarray  # (W,): the normalizer bits
    index: Tuple[tuple, tuple]  # the table's (values, codes) of _key_index
    corrections: np.ndarray  # (W, len(table)) correction signatures in key order
    mismatched: np.ndarray  # whether a correction's syndrome differs from its key

    @classmethod
    def build(cls, codeq: EaqeccCode, table: SyndromeTable) -> "_BlockDecoder":
        _require_fit(codeq, table)
        units, syndrome_mask, normalizer_mask = _checks(codeq, basis=True)
        corrections = _signatures(table.rows, units)
        keys = corrections[:, : len(syndrome_mask)] & syndrome_mask
        mismatched = (keys != table.keys).any(axis=1)
        # the table's keys are in lookup order, so entry i has rank i
        return cls(
            _letter_table(units),
            syndrome_mask,
            normalizer_mask,
            table._index,
            np.ascontiguousarray(corrections.T),
            mismatched,
        )

    def lookup(self, sig: np.ndarray, out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(entry, known): each trial's table entry, valid where known.

        out is a flat uint64 buffer of at least sig.size words that is
        overwritten with the masked keys.
        """
        k, b = len(self.syndrome_mask), sig.shape[1]
        keys = np.bitwise_and(sig[:k], self.syndrome_mask[:, None], out=_rows(out, k, b))
        return _find(*self.index, keys)

    def decode(self, sig: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The int64 counts [failures, degenerate successes, residual-syndrome violations].

        out is as for lookup, and holds the keys and then the residual.
        """
        b = sig.shape[1]
        if not len(self.mismatched):  # a hand-built empty table knows no syndrome
            return np.array([b, 0, 0], dtype=np.int64)
        entry, known = self.lookup(sig, out)
        # entries are ranks below len(table), so clip never clips (see _sample_block)
        residual = _rows(out, *sig.shape)
        residual = np.take(self.corrections, entry, axis=1, out=residual, mode="clip")
        residual ^= sig
        nonidentity = residual.any(axis=0)
        residual &= self.normalizer_mask[:, None]
        mismatched = self.mismatched[entry]
        success = known & ~mismatched & ~residual.any(axis=0)
        counts = [success, success & nonidentity, known & mismatched]
        successes, degenerate, violations = map(np.count_nonzero, counts)
        return np.array([b - successes, degenerate, violations], dtype=np.int64)


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
    width = decoder.letters.shape[2]
    # every trial without a hit drew the identity: decode it once, count it often
    quiet = decoder.decode(np.zeros((width, 1), dtype=np.uint64), np.empty(width, dtype=np.uint64))

    def run_range(lo: int, hi: int) -> np.ndarray:
        counts = np.zeros(3, dtype=np.int64)
        # each range's thread allocates its buffers once, for all its blocks
        buffers = _Buffers.of(min(_BLOCK, hi - lo), width)
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            hit, sig = _sample_block(ch.p, decoder.letters, seed, start, stop, buffers)
            counts += decoder.decode(sig, buffers.words) + (stop - start - len(hit)) * quiet
        return counts

    # one range per thread, and no more threads than CPUs or blocks: a
    # trial's outcome depends only on (seed, its index), so the partition
    # does not change the result
    parts = max(1, min(workers, os.cpu_count() or 1, -(-trials // _BLOCK)))
    bounds = [i * trials // parts for i in range(parts + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    if parts == 1:
        results = [run_range(*chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=parts) as pool:
            results = list(pool.map(lambda c: run_range(*c), chunks))
    failures, degenerate, violations = sum(results).tolist()
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
    return CatalyticLedger(rounds, initial_ebits, (initial_ebits,) * rounds, (k_enc - c,) * rounds)


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
