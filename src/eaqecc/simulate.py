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
A run is cut into ranges of trials, at most one per worker, per CPU the
process may run on (its affinity, _cpus) and per 65536 trials (_BLOCK).
The caller runs the first range and one kept pool the others (_pool):
forked processes on Linux, threads elsewhere (_FORK).  The sampler's
numpy calls each give the GIL back, so threads spend about a fifth of
their time waiting on its handoff, and processes do not.  The first run
of two or more ranges makes the pool, under a lock, and it is kept until
the process exits, when concurrent.futures joins its workers; a run that
needs more workers makes a larger one.  So the fork, about 11 ms, is paid
once per process, and a run of one range, as every run of at most 65536
trials is, starts no pool.  A pooled range is a call of _run_range with
all it reads as arguments: the decoder's arrays, not the code; the
sampler's constants; its range; and the block size, so a worker forked
before _BLOCK changed still cuts its range as the caller does.  Workers
keep nothing between tasks, and end when the process that forked them
ends, even by a signal (_watch_parent).  A worker that dies (say, by the
OOM killer) or a fork that fails ends the run with InfeasibleError and
drops the pool, so the next run makes a new one.  A run that is
interrupted, or whose own range raises, drops the pool as well and ends
its forked workers before it re-raises, so the exit does not wait for
their ranges (_drop); threads cannot be ended, so off Linux it still
waits for them.  On Python 3.12 and later os.fork issues a
DeprecationWarning in a process with threads, as numpy's OpenBLAS has
from its import; the workers call no BLAS.

Trials run in blocks of _BLOCK, and every error is carried as its signature
in the frame of frames._checks over all 2n check rows, packed into uint64
words.  The generators come first, so the low bits are the syndrome; the
next rows check the normalizer, so a residual lies in the isotropic span
exactly when those bits are zero too.  The sampler hashes one qubit column
per pass over a full block, and a group of qubit columns per pass over a
shorter one (about _BLOCK // 2 draws, _group), and XORs the signature of
each drawn letter into the trials that erred.  A draw is a hit when its
finalized hash is at most a threshold; the finalizer's last step leaves
the top 31 bits as they are, so one compare before that step picks an
exact superset of the hits, and the step and the exact compare run on
those candidates only.  A hit's letter is two integer compares against
edges found by bisection on sample_error's float formula (once per p, and
cached), so it is the same letter.  The seed's key and the threshold are
computed once per run.  The check rows are a basis, so a trial's words
are nonzero exactly when it drew a nonidentity error, and only those hit
trials are kept (at p = 0.01 most draw the identity).  The decoder finds
each entry in the table's own index (_locate, as lookup does) and
compares the residual signature under two masks.  Every other trial drew
the identity, whose outcome the decoder holds, decoded once, and counts
for each of them.  The table keeps the decoder of the last code it ran
on, so a run on the same table and code object builds no decoder.  The
block path must agree with the per-trial sample_error and decode_error.

Each range allocates its block buffers once (_Buffers: the hash rows, the
hit mask and the signature words, sized to min(_BLOCK, range) trials and
their groups) and every block reuses them: the sampler overwrites them,
and the decoder writes its keys and residuals into the words the sampler
is done with.  So a run allocates no block-sized array per block, and a
worker touches only its own range's buffers.  The kernels take these
buffers as required arguments and allocate none of their own.

The table and its build are eaqecc.table's, the catalytic ledger is
eaqecc.catalytic's, and this module re-exports both.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import sys
import threading
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .builder import EaqeccCode
from .catalytic import CatalyticLedger, InfeasibleError, catalytic_schedule
from .frames import _checks, _letter_table, _signatures
from .pauli import PauliString
from .analysis import syndrome_of, in_isotropic
from .table import SyndromeTable, _locate, build_syndrome_table

_BLOCK = 1 << 16  # trials per block
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_LAST = np.uint64(31)  # the finalizer's last step, w = v ^ (v >> 31)
_LOW33 = (1 << 33) - 1  # the bits of v that the last step changes


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

    The buffers are flat, so a block of b' <= b trials works in the
    C-contiguous views _rows(buffer, rows, b') of their starts.  The
    sampler hashes a group of g qubits per pass (_group) in hashes: the
    keys' row, then g rows of draws and g of the finalizer's scratch.  It
    XORs the letters into words and gathers the hit trials' words into
    hashes; words is then the decoder's scratch.  span, the most draws
    that one pass over up to b trials of n qubits hashes, is b when
    b >= _BLOCK // 2 (3b hash words, as for a full block) and at most
    _BLOCK // 2 otherwise.
    """

    hashes: np.ndarray  # (max(b + 2 * span, W * b),) uint64: the hash rows, then the hits' words
    below: np.ndarray  # (span,) bool: the draws below the threshold, then the hit trials
    words: np.ndarray  # (W * b,) uint64: the trials' signature words

    @classmethod
    def of(cls, b: int, width: int, n: int) -> "_Buffers":
        span = max(b, min(n * b, _BLOCK // 2))  # g * b' <= span for every b' <= b
        hashes = np.empty(max(b + 2 * span, width * b), dtype=np.uint64)
        return cls(hashes, np.empty(span, dtype=bool), np.empty(width * b, dtype=np.uint64))


def _group(n: int, b: int) -> int:
    """g: how many of n qubits a block of b trials hashes per pass, as a (g, b) array.

    A short block groups its qubits into passes of about _BLOCK // 2 draws,
    so each numpy call runs over more than b words; a full block has g = 1.
    """
    return max(1, min(n, (_BLOCK // 2) // max(b, 1)))


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
    A candidate misses only when its v shares top's bits 33-63, about 2**-31
    of the draws at p >= 0.01, so the candidates are compacted only then.
    """
    np.less_equal(v, np.uint64(top | _LOW33), out=below)
    r = np.flatnonzero(below)
    w = np.take(v, r)
    w ^= w >> _LAST
    keep = w <= np.uint64(top)
    if keep.all():
        return r, w
    return r[keep], w[keep]


@functools.lru_cache(maxsize=64)
def _letter_edges(p: float) -> Tuple[np.uint64, np.uint64]:
    """(a1, a2): a hit draw w takes letter X, Y or Z (0, 1, 2) as (w >= a1) + (w >= a2).

    sample_error's letter is min(int(u * 3 / p), 2) for u = (w >> 11) * 2**-53,
    a float formula that is monotone in w >> 11.  Edge k is the least w >> 11
    of a hit (those below ceil(p * 2**53)) whose letter is at least k, found
    by bisection on that same formula and shifted back up 11 bits; an edge
    that no hit reaches is top + 1.  So every hit takes the formula's letter,
    for any p.  At p = 0 there is no hit, and both edges are 0.  The edges
    are a pure function of p, so the last few p's are cached.
    """
    def letter(a: int) -> int:
        return min(int(a * 2.0**-53 * 3.0 / p), 2)

    hits = range(math.ceil(p * 2.0**53))
    a1, a2 = (bisect.bisect_left(hits, k, key=letter) << 11 for k in (1, 2))
    return np.uint64(a1), np.uint64(a2)


def _sample_block(
    top: int,
    edges: Tuple[np.uint64, np.uint64],
    letters: np.ndarray,
    key: int,
    t_lo: int,
    t_hi: int,
    buffers: _Buffers,
):
    """Errors of trials [t_lo, t_hi) as signature words, for trials that drew one.

    top, edges and key are the run's constants: _threshold(p),
    _letter_edges(p) and _seed_key(seed).  letters is an (n, 3, W) uint64
    table of _letter_table: the words of X, Y and Z on each qubit, from
    units that form a basis (the signature units of frames._checks, or the
    (x|z) units), so the words of an error are zero exactly when it is the
    identity.  Returns (hit, words): the trials whose words are nonzero,
    increasing, and the (W, len(hit)) XOR of the letters each of them drew,
    word by word; every other trial drew the identity.  With the (x|z) unit
    words as the table, column i is the (x|z) row of sample_error with
    CounterRng(seed, hit[i]) exactly.

    The block works in buffers, a range's _Buffers for at least t_hi - t_lo
    trials of n qubits, which it overwrites.  The returned words are a view
    into buffers.hashes, valid until the next block.  The draws of trial t
    on qubit j are key_t + (j + 1) * _GOLDEN finalized, hashed in place for
    g = _group(n, b) qubits per pass as a (g, b) array (the last group may
    be shorter): nine passes over it, the key add, the finalizer's two
    multiply rounds and _below's prefilter and flatnonzero.  The hits'
    letters are two integer compares against edges, gathered from each
    word's contiguous (n, 3) table.  A full block has g = 1 and XORs them
    in by fancy index.  In a group, hit r is qubit j + r // b of trial
    r % b, and a trial may hit several of the group's qubits, so
    np.bitwise_xor.at XORs in every one of them.
    """
    n, _, width = letters.shape
    b = t_hi - t_lo
    if top < 0:
        return np.zeros(0, dtype=np.int64), np.zeros((width, 0), dtype=np.uint64)
    g = _group(n, b)
    keys = buffers.hashes[:b]
    draws, scratch = _rows(buffers.hashes[b:], 2 * g, b).reshape(2, g, b)
    words = _rows(buffers.words, width, b)
    words.fill(0)
    _counter(key, t_lo, keys, scratch[0])
    a1, a2 = edges
    steps = np.array([(j + 1) * _GOLDEN & _MASK64 for j in range(n)], dtype=np.uint64)[:, None]
    tables = np.ascontiguousarray(letters.transpose(2, 0, 1))  # (W, n, 3)
    for j in range(0, n, g):
        v, tmp = draws[: n - j], scratch[: n - j]  # qubits j, j + 1, ... of the group
        np.add(keys, steps[j : j + g], out=v)
        _mix64_rounds(v, tmp)
        r, w = _below(v, top, _rows(buffers.below, len(v), b))
        kind = np.add(w >= a1, w >= a2, dtype=np.intp)
        if g == 1:
            for word, table in zip(words, tables):
                word[r] ^= np.take(table[j], kind)
        else:
            q, r = np.divmod(r, b)
            kind += 3 * (q + j)  # the letter's index in the flat (n * 3) table
            for word, table in zip(words, tables):
                np.bitwise_xor.at(word, r, np.take(table, kind))
    below = buffers.below[:b]
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
    the full basis of check rows.  A trial's syndrome is its low m bits,
    and the table's own index (_locate) finds its entry.  The residual
    (error times correction) has signature error ^ correction: it lies in
    the isotropic span when its generator and normalizer bits are zero,
    and it is the identity when all of its bits are.

    A decoder is a pure function of (codeq, table) and holds arrays only, so
    a pooled range gets it whole.  The table keeps the decoder of the last
    code it ran on, with that code (of), and the decoder holds the table's
    index but not the table, so the two form no cycle.
    """

    letters: np.ndarray  # (n, 3, W): signature of X, Y, Z on each qubit
    syndrome_mask: np.ndarray  # (K,): the generator bits of the first K words
    normalizer_mask: np.ndarray  # (W,): the normalizer bits
    index: np.ndarray  # the table's syndrome index, which finds a syndrome's entry
    corrections: np.ndarray  # (W, len(table)) correction signatures in key order
    mismatched: np.ndarray  # whether a correction's syndrome differs from its key
    quiet: np.ndarray = field(init=False)  # the counts of one trial that drew the identity

    def __post_init__(self) -> None:
        width = self.letters.shape[2]
        zero = np.zeros((width, 1), dtype=np.uint64)
        # every trial without a hit drew the identity: decode it once, count it often
        object.__setattr__(self, "quiet", self.decode(zero, np.empty(width, dtype=np.uint64)))

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

    @classmethod
    def of(cls, codeq: EaqeccCode, table: SyndromeTable) -> "_BlockDecoder":
        """The decoder that table keeps for the code object codeq, built and kept if it has none.

        It is built in the calling process; pooled ranges get a copy of its
        arrays.  Calls on several threads may race to replace it; that
        decides only which decoder the table keeps, as each call uses one
        of its own code.
        """
        kept = table._decoder
        if kept is None or kept[0] is not codeq:
            kept = table._decoder = codeq, cls.build(codeq, table)
        return kept[1]

    def lookup(self, sig: np.ndarray, out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(entry, known): each trial's table entry, valid where known.

        out is a flat uint64 buffer of at least sig.size words that is
        overwritten with the masked keys.  The table must not be empty.
        """
        k, b = len(self.syndrome_mask), sig.shape[1]
        keys = np.bitwise_and(sig[:k], self.syndrome_mask[:, None], out=_rows(out, k, b))
        return _locate(self.index, keys)

    def decode(self, sig: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The int64 counts [failures, degenerate successes, residual-syndrome violations].

        out is as for lookup, and holds the keys and then the residual.
        """
        b = sig.shape[1]
        if not len(self.mismatched):  # a hand-built empty table knows no syndrome
            return np.array([b, 0, 0], dtype=np.int64)
        entry, known = self.lookup(sig, out)
        # clip only maps an unknown syndrome's -1 to 0, which known masks out;
        # unlike the default mode it writes to out (see _sample_block)
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


def _run_range(
    decoder: _BlockDecoder,
    top: int,
    edges: Tuple[np.uint64, np.uint64],
    key: int,
    lo: int,
    hi: int,
    block: int,
) -> np.ndarray:
    """The int64 counts of _BlockDecoder.decode over trials [lo, hi), in blocks of block trials.

    The range allocates its buffers once, for all its blocks.  It is
    module-level and gets all it reads as arguments, so a pool runs it as
    the caller does; a worker forked before _BLOCK changed still cuts the
    caller's blocks (its own _BLOCK only sizes its hash passes, _group,
    which change no draw).
    """
    n, _, width = decoder.letters.shape
    counts = np.zeros(3, dtype=np.int64)
    buffers = _Buffers.of(min(block, hi - lo), width, n)
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        hit, sig = _sample_block(top, edges, decoder.letters, key, start, stop, buffers)
        counts += decoder.decode(sig, buffers.words) + (stop - start - len(hit)) * decoder.quiet
    return counts


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_FORK = sys.platform.startswith("linux")  # pooled ranges run in forked processes, else in threads
_lock = threading.RLock()  # guards _kept, and the submits to it
_kept: Optional[Tuple[int, Executor]] = None  # the pool's size and the pool


def _watch_parent() -> None:
    """Run first in each forked worker: end the worker as soon as the process that forked it ends.

    A worker waits for tasks on a pipe whose write end it holds too, so a
    parent killed by a signal would leave it waiting forever.
    """
    import multiprocessing.connection

    parent = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([parent])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _new_pool(size: int) -> Executor:
    """A pool of size workers: forked processes on Linux, threads elsewhere."""
    if not _FORK:
        return ThreadPoolExecutor(size)
    # imported here, not with the module: multiprocessing adds 7-9 ms to the
    # start of every command, and only a run of two or more ranges uses it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(size, mp_context=context, initializer=_watch_parent)


def _pool(size: int) -> Executor:
    """The kept pool, with at least size workers; made, or made anew if smaller.

    Called under _lock.  A replaced pool runs the ranges it holds and then
    ends its workers.
    """
    global _kept
    if _kept is None or _kept[0] < size:
        if _kept is not None:
            _kept[1].shutdown(wait=False)
        _kept = size, _new_pool(size)
    return _kept[1]


def _pooled(tasks: list) -> list:
    """The counts of _run_range on each task: the first in the caller, the rest in the kept pool."""
    with _lock:
        pool = _pool(len(tasks) - 1)
        try:
            futures = [pool.submit(_run_range, *task) for task in tasks[1:]]
        # a worker died since the last run, or a fork failed
        except (BrokenExecutor, OSError) as exc:
            raise _lost(pool, exc) from exc
    try:
        return [_run_range(*tasks[0]), *(future.result() for future in futures)]
    except BrokenExecutor as exc:
        raise _lost(pool, exc) from exc
    except BaseException:  # an interrupt, or the caller's range failed
        _drop(pool)
        raise


def _lost(pool: Executor, exc: BaseException) -> InfeasibleError:
    """The error that ends a run whose pool broke, which is dropped so the next run makes one."""
    _drop(pool)
    if isinstance(exc, OSError):
        return InfeasibleError(f"could not start a worker process: {exc}")
    return InfeasibleError(f"a worker process ended before its range did: {exc}")


def _drop(pool: Executor) -> None:
    """Stop keeping pool and end its workers now, without waiting for the ranges they run.

    Forked workers are terminated and joined: one still in its range, or
    one left waiting on a pool whose next fork failed, would otherwise
    hold the exit until it is done.  Other threads' runs on the pool fail
    too.  A thread cannot be ended, so a thread pool's ranges run on.
    """
    global _kept
    with _lock:
        if _kept is not None and _kept[1] is pool:
            _kept = None
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            process.terminate()
            process.join()
        pool.shutdown(wait=False, cancel_futures=True)


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
    decoder = _BlockDecoder.of(codeq, table)
    # the sampler's constants are the same for every block of the run
    top, edges, key = _threshold(ch.p), _letter_edges(ch.p), _seed_key(seed)
    # one range per worker, and no more ranges than CPUs or blocks: a
    # trial's outcome depends only on (seed, its index), so the partition
    # does not change the result
    parts = max(1, min(workers, _cpus(), -(-trials // _BLOCK)))
    bounds = [i * trials // parts for i in range(parts + 1)]
    tasks = [(decoder, top, edges, key, lo, hi, _BLOCK) for lo, hi in zip(bounds, bounds[1:])]
    results = [_run_range(*tasks[0])] if parts == 1 else _pooled(tasks)
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
