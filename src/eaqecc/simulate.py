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
drops the pool, so the next run makes a new one.  On Python 3.12 and
later os.fork issues a DeprecationWarning in a process with threads, as
numpy's OpenBLAS has from its import; the workers call no BLAS.

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

The syndrome table is built with the same kind of letter table:
frames._level enumerates each weight whole from the weight below, a
candidate's syndrome and tie-break words the XOR of its letters', and the
merge takes the weight in pieces of about _BLOCK rows.  So the build holds
the weight it merges (r40 at weight 4: about 180 MB).  It starts from the
identity, the entry of weight 0, and each syndrome keeps its candidate
with the least tie-break key.  The merge is the table's, chosen once:
when 2**m syndromes fit one block (m <= 16, _fits_direct) and the key is
one word (n <= 32), each weight's least keys are held in a slot per
syndrome, merged by np.minimum.at, and only its new entries are sorted.
Any other table splits each weight into syndrome ranges of about _BLOCK
rows (_syndrome_groups), sorts each range by syndrome once, and sorts
only the weight's winners by tie-break key (_sorted_entries); the
table's sorted keys, extended each weight, drop the syndromes it holds
and hand the table its key order.  The table stays in array form, its
keys sorted, and has its syndrome index made once: a slot per syndrome
for m <= 16, otherwise its sorted keys as one array (frames._sortable),
which the sorted merge hands over as it is and one searchsorted searches
for any number of key words (frames._search).
So a run converts nothing of the table but the corrections' signatures,
and only when it builds a decoder.  The arrays are the table's one
representation: its entries are a read-only view that derives its pairs
from them on each use, a chunk at a time, and the only thing a table
caches is its decoder.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import sys
import threading
from collections.abc import ItemsView, Mapping, ValuesView
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .builder import EaqeccCode
from .frames import (
    _checks,
    _generator_rows,
    _letter_table,
    _level,
    _order,
    _pack,
    _search,
    _signatures,
    _sortable,
    _units,
)
from .pauli import PauliString
from .symplectic import _words
from .analysis import Syndrome, syndrome_of, in_isotropic

_BLOCK = 1 << 16  # trials per block, and rows per piece of a weight in the table build
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_LAST = np.uint64(31)  # the finalizer's last step, w = v ^ (v >> 31)
_LOW33 = (1 << 33) - 1  # the bits of v that the last step changes
_VIEW_CHUNK = 4096  # the entries a table's entries view derives at a time


class InfeasibleError(ValueError):
    """Raised when a schedule or a run cannot run with the provided resources.

    A run raises it when a worker process could not be forked or died
    before its range was done.
    """


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

    The syndrome index is built with the arrays, once: a (2**m,) array of
    each syndrome's entry (-1 for none) when 2**m slots fit one block
    (m <= 16, _fits_direct), and the sorted keys' _sortable form otherwise
    (a uint64 view of the keys for K = 1, their big-endian bytes for
    K > 1), which the sorted merge hands over with its key order (a table
    built by hand sorts its keys once, _order).  _locate searches the index
    for lookup and for the block decoder alike.  entries is a read-only mapping
    over the arrays, the same table in insertion order, derived on each use
    and never held (_Entries).  The only thing a table
    caches is the block decoder of the last code object that run_trials
    ran it on, with that code (_BlockDecoder.of), and a run on another
    code replaces it.
    A table built by hand from a dict is converted to the arrays and keeps
    no dict, so its corrections come back with phase 0.  Its keys must be
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
        cls,
        n: int,
        m: int,
        keys: np.ndarray,
        rows: np.ndarray,
        max_weight_built: int,
        merged: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "SyndromeTable":
        """The table of the entries whose keys and rows are given in insertion order.

        merged, when given, is the sorted merge's held pair: the keys'
        _sortable form, sorted, and each one's insertion index.  A sorted
        index then takes it as it is instead of sorting the keys.
        """
        table = object.__new__(cls)
        table._init(n, m, keys, rows, max_weight_built, merged)
        return table

    def _init(
        self,
        n: int,
        m: int,
        keys: np.ndarray,
        rows: np.ndarray,
        max_weight_built: int,
        merged: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        if _fits_direct(m):  # distinct one-word keys below 2**m, ranked by slot
            slot = keys[:, 0].view(np.intp)
            filled = np.zeros(1 << m, dtype=bool)
            filled[slot] = True
            held = np.flatnonzero(filled)
            index = np.full(1 << m, -1, dtype=np.intp)
            index[held] = position = np.arange(len(keys))
            rank = np.take(index, slot)
            order = np.empty(len(rank), dtype=np.intp)
            order[rank] = position
            keys = held.view(np.uint64).reshape(-1, 1)  # a key is its slot
        else:  # distinct keys, sorted by word 0, then word 1, ...
            if merged is None:  # a table built by hand sorts its keys once
                order = _order(keys)
                keys = np.take(keys, order, axis=0)
                index = _sortable(keys)
            else:  # the sorted merge's keys come sorted and in _sortable form
                index, order = merged
                # one word is its own _sortable form, so the keys are a view of it
                keys = index.reshape(-1, 1) if keys.shape[1] == 1 else np.take(keys, order, axis=0)
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order))
        self._n, self._m, self._index = n, m, index
        # gathered, not scattered: a row scatter runs numpy's inner loop over a row's words
        self.keys, self.rows = keys, np.take(rows, order, axis=0)
        self.inserted = rank
        for array in (self.keys, self.rows, self.inserted):
            array.flags.writeable = False
        self.max_weight_built = max_weight_built
        self._decoder: Optional[Tuple[EaqeccCode, _BlockDecoder]] = None

    @property
    def entries(self) -> Mapping[Syndrome, PauliString]:
        """The table as a read-only mapping from syndrome to correction, in insertion order."""
        return _Entries(self)

    def __len__(self) -> int:
        return len(self.keys)

    def lookup(self, syndrome: Syndrome) -> Optional[PauliString]:
        # an empty table knows no syndrome, and has no keys to search
        if not len(self) or len(syndrome) != self._m or any(b not in (0, 1) for b in syndrome):
            return None
        key = _words([sum(int(b) << i for i, b in enumerate(syndrome))], self._m)
        entry, known = _locate(self._index, key.T)
        if not known[0]:
            return None
        row = int.from_bytes(self.rows[entry[0]].tobytes(), "little")
        return PauliString.from_row(self._n, row)


class _Entries(Mapping):
    """A table's entries: a read-only mapping over its arrays, derived on each use.

    It yields the pairs of a dict in insertion order, a syndrome tuple of
    0/1 ints and a phase-0 PauliString, _VIEW_CHUNK entries at a time, so
    iterating it holds no more than one chunk's objects.  A syndrome is
    found by the table's lookup, so dict(entries), which looks up every
    key, is slower than dict(entries.items()).  Writing to it raises
    TypeError.
    """

    __slots__ = ("_table",)

    def __init__(self, table: SyndromeTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, syndrome: Syndrome) -> PauliString:
        correction = self._table.lookup(syndrome) if isinstance(syndrome, tuple) else None
        if correction is None:
            raise KeyError(syndrome)
        return correction

    def __iter__(self) -> Iterator[Syndrome]:
        return self._derive(corrections=False)

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def _derive(self, syndromes: bool = True, corrections: bool = True) -> Iterator:
        """The syndromes, the corrections or the (syndrome, correction) pairs, in order."""
        table = self._table
        size = table.rows.itemsize * table.rows.shape[1]
        for lo in range(0, len(table), _VIEW_CHUNK):
            entry = table.inserted[lo : lo + _VIEW_CHUNK]
            if syndromes:
                bits = np.unpackbits(
                    np.take(table.keys, entry, axis=0).view(np.uint8), axis=1, bitorder="little"
                )
                tuples = list(map(tuple, bits[:, : table._m].tolist()))
            if corrections:
                data = np.take(table.rows, entry, axis=0).tobytes()
                paulis = [
                    PauliString.from_row(table._n, int.from_bytes(data[i : i + size], "little"))
                    for i in range(0, len(data), size)
                ]
            if syndromes and corrections:
                yield from zip(tuples, paulis)
            else:
                yield from tuples if syndromes else paulis
            tuples = paulis = None  # drop this chunk's objects before deriving the next


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._derive()


class _Values(ValuesView):
    def __iter__(self):
        return self._mapping._derive(syndromes=False)


def _locate(index: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(entry, known): the entry of each column of the (K, b) syndrome keys, valid where known.

    index is a table's syndrome index: its (2**m,) intp slot array, or its
    sorted keys' _sortable form, searched as rows (_search).  An unknown
    syndrome's entry is -1 on the slot index.  The table is not empty.
    """
    if index.dtype == np.intp:
        entry = np.take(index, keys[0].view(np.intp))  # keys below 2**m
        return entry, entry >= 0
    return _search(index, keys.T)


def _fits_direct(m: int) -> bool:
    """Whether an array over all 2**m syndromes fits one block's words (m <= 16).

    There a table indexes its entries by syndrome slot instead of by
    sorted search, and its build merges candidates in slots when the
    tie-break key is one word (see build_syndrome_table).
    """
    return 1 << m <= _BLOCK


def _least(words: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The index of the least of each run of the distinct rows of words, by word 0, then word 1, ...

    The runs start at starts, which is increasing from 0.  np.minimum.reduceat
    takes each run's least word 0, then its least word 1 among the rows
    least on word 0, and so on.  Runs of one row need no compare.
    """
    if len(starts) == len(words):
        return starts
    least = np.ones(len(words), dtype=bool)
    sizes = np.diff(starts, append=len(words))
    for word in words.T:
        word = np.where(least, word, _MASK64)
        least &= word == np.repeat(np.minimum.reduceat(word, starts), sizes)
    return np.flatnonzero(least)


def _syndrome_groups(level: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """The rows of level in groups of about _BLOCK, split on the top bits of syndrome word 0.

    level's rows start with the syndrome words of _units, whose word 0
    holds min(m, 64) bits, so every syndrome's rows fall in one group and
    the groups' syndromes increase from one group to the next.  A level of
    at most _BLOCK rows is one group.  A larger one is split on the fewest
    top bits b that give 2**b >= len(level) / _BLOCK groups (b <= m, 16):
    one stable (radix) argsort of the rows' b-bit group numbers orders
    them by group, and each nonempty group's rows are gathered in turn.
    """
    b = min((-(-len(level) // _BLOCK) - 1).bit_length(), m, 16)
    if not b:
        yield level
        return
    group = (level[:, 0] >> np.uint64(min(m, 64) - b)).astype(np.uint16)
    ends = np.cumsum(np.bincount(group, minlength=1 << b)).tolist()
    order = np.argsort(group, kind="stable")
    del group
    for lo, hi in zip([0] + ends, ends):
        if hi > lo:
            yield np.take(level, order[lo:hi], axis=0)


def _sorted_entries(
    groups: Iterator[np.ndarray], held: Tuple[np.ndarray, np.ndarray], m: int
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """One weight's new entries in tie-break order, and held extended by them; serves any m.

    groups hold the weight's candidate rows (the max(1, ceil(m / 64))
    syndrome words of _units, then the tie-break key's words) as
    _syndrome_groups splits them: each syndrome in one group, and the
    groups in increasing syndrome order.  held is (keys, entry): the
    _sortable keys of the table's syndromes so far, sorted, and each one's
    insertion index.  Each group is ordered by syndrome (_order), the one
    sort of its candidates; each syndrome's run keeps its least tie-break
    key (_least), and a syndrome that held has is dropped, found by
    searchsorted.  The winners of all groups, in syndrome order, are then
    ordered by tie-break key (_order): they are the new entries.  Their
    keys and insertion indices go into held at the searched positions
    (np.insert), so held stays sorted and gives the table its key order.
    """
    nkeys = max(1, -(-m // 64))
    keys, entry = held
    winners, found, at = [], [], []
    for rows in groups:
        order = _order(rows[:, :nkeys])
        syndromes = np.take(_sortable(rows[:, :nkeys]), order)
        first = np.ones(len(rows), dtype=bool)
        first[1:] = syndromes[1:] != syndromes[:-1]
        starts = np.flatnonzero(first)
        least = np.take(order, _least(np.take(rows[:, nkeys:], order, axis=0), starts))
        query = np.take(syndromes, starts)
        pos = np.searchsorted(keys, query)
        new = np.take(keys, pos, mode="clip") != query  # keys holds at least the identity's
        winners.append(np.take(rows, least[new], axis=0))
        found.append(query[new])
        at.append(pos[new])
    best = np.concatenate(winners)
    del winners  # freed before the tie-break sort, which lowers the peak
    order = _order(best[:, nkeys:])
    added = np.empty(len(order), dtype=np.intp)
    added[order] = np.arange(len(keys), len(keys) + len(order))
    at = np.concatenate(at)
    held = np.insert(keys, at, np.concatenate(found)), np.insert(entry, at, added)
    return np.take(best, order, axis=0), held


def _direct_entries(slices: Iterator[np.ndarray], kept: np.ndarray, m: int) -> np.ndarray:
    """One weight's new entries in tie-break order, merged in syndrome slots.

    slices hold the weight's candidate rows, one syndrome word and one
    tie-break word (m <= 16, n <= 32), and kept the table's rows so far.
    best holds each syndrome's least tie-break key of the weight so far,
    merged by np.minimum.at, and filled whether it has one.  Candidates of
    syndromes that kept holds are merged too and their slots are left out
    at the end, which costs less than dropping them from every slice.
    """
    best = np.full(1 << m, _MASK64, dtype=np.uint64)
    filled = np.zeros(1 << m, dtype=bool)
    for words in slices:
        syndrome = words[:, 0].view(np.intp)  # syndromes below 2**m
        np.minimum.at(best, syndrome, words[:, 1])
        filled[syndrome] = True
    filled[kept[:, 0].view(np.intp)] = False
    new = np.flatnonzero(filled)
    ties = np.take(best, new)
    order = np.argsort(ties)  # the tie-break keys are distinct
    entries = np.empty((len(new), 2), dtype=np.uint64)
    entries[:, 0] = np.take(new, order)
    entries[:, 1] = np.take(ties, order)
    return entries


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

    The table starts from the identity, the one error of weight 0.  Each
    weight from 1 on is enumerated whole from the weight below (_level)
    and merged in pieces of about _BLOCK candidates.  A candidate is carried as
    its syndrome words and its tie-break key (its (x|z) row words, each
    bit-reversed), both the XOR of its letters' words.  Of the candidates
    with a syndrome no lighter error has, each syndrome keeps the one with
    the smallest tie-break key, and the new entries follow in key order.
    Enumeration stops once every syndrome has an entry; the rows are
    recovered from the kept keys.

    The merge is chosen once per table, as its index is: when 2**m slots
    fit one block (m <= 16, _fits_direct) and the tie-break key is one
    word (n <= 32), every weight merges its slices of _BLOCK candidates in
    arrays indexed by syndrome (_direct_entries) and sorts only its new
    entries.  Otherwise every weight is split into syndrome ranges
    (_syndrome_groups) and merged by sorting each range once by syndrome
    and the winners once by tie-break key (_sorted_entries); the table's
    syndrome keys, kept sorted with each one's insertion index, drop the
    syndromes it holds and give the table its key order and its index, so
    it sorts and converts no key again.  Both give the same entries.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    n, m = codeq.n, len(codeq.generators)
    syndromes = _units(_generator_rows(codeq), n)
    # the tie-break key is the (x|z) row with each word bit-reversed, so bit c
    # of the row is bit 63 - c % 64 of key word c // 64 (the padding bits are
    # low zeros): ordering the keys by word 0, then word 1, ... orders the
    # rows lexicographically from qubit 0's x bit on
    ties = _reverse(_pack(np.eye(2 * n, dtype=np.uint8)))
    letters = _letter_table(np.concatenate([syndromes, ties], axis=1))
    direct = _fits_direct(m) and ties.shape[1] == 1
    nkeys = syndromes.shape[1]
    # entries in insertion order, from the identity's: syndrome 0, tie-break key 0
    kept = level = np.zeros((1, letters.shape[2]), dtype=np.uint64)
    held = _sortable(kept[:, :nkeys]), np.zeros(1, dtype=np.intp)  # the sorted merge's keys
    for w in range(1, min(max_weight, n) + 1):
        if len(kept) == 1 << m:
            break
        level = _level(letters, w, level)[: math.comb(n, w) * 3**w]
        if direct:
            slices = (level[lo : lo + _BLOCK] for lo in range(0, len(level), _BLOCK))
            new = _direct_entries(slices, kept, m)
        else:
            new, held = _sorted_entries(_syndrome_groups(level, m), held, m)
        kept = np.concatenate([kept, new])
    del level  # freed before the table's arrays, which can then reuse its memory
    return SyndromeTable._from_arrays(
        n, m, kept[:, :nkeys], _reverse(kept[:, nkeys:]), max_weight, None if direct else held
    )


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
    first = _run_range(*tasks[0])
    try:
        return [first, *(future.result() for future in futures)]
    except BrokenExecutor as exc:
        raise _lost(pool, exc) from exc


def _lost(pool: Executor, exc: BaseException) -> InfeasibleError:
    """The error that ends a run whose pool broke, which is dropped so the next run makes one."""
    global _kept
    with _lock:
        if _kept is not None and _kept[1] is pool:
            _kept = None
        if isinstance(exc, OSError):
            # a failed fork leaves the workers forked before it waiting on a
            # pool that sends them nothing: end them, or the exit waits for them
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                process.terminate()
                process.join()
        pool.shutdown(wait=False, cancel_futures=True)
    if isinstance(exc, OSError):
        return InfeasibleError(f"could not start a worker process: {exc}")
    return InfeasibleError(f"a worker process ended before its range did: {exc}")


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
