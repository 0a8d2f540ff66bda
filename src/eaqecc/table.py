"""The syndrome table: one minimum-weight correction per syndrome, and its build.

A table maps each syndrome of an error of weight at most max_weight to
the lightest error with it, and among those to the least (x|z) bit
pattern, read from qubit 0's x bit on.  Its one representation is
read-only arrays (SyndromeTable); its entries mapping derives its pairs
from them, _VIEW_CHUNK at a time, and holds none (_Entries).

The syndrome index is made once, with the arrays, and lookup and the
block decoder both search it (_locate).  When all 2**m syndromes fit one
piece of _PIECE slots (m <= 16, _fits_direct), it holds each syndrome's
entry, -1 for none, and a search is one gather.  Otherwise it is the
sorted keys as one array (frames._sortable), which one searchsorted
searches for keys of any width (frames._search).

build_syndrome_table starts from the identity, the entry of weight 0,
and enumerates each weight whole from the one below (frames._level), so
weight w costs its C(n, w) 3**w candidates and holds them while it is
merged (r40 at weight 4: about 180 MB).  A candidate is its syndrome
words and its tie-break key, its (x|z) words bit-reversed (_reverse) so
that keys sort as the bit patterns do.  Of the candidates whose syndrome
no lighter error has, each syndrome keeps the least key, and the new
entries follow in key order.  The build stops once every syndrome has an
entry.  The merge is chosen once per table, and both give the same
entries.  When 2**m slots fit one piece and the tie-break key is one
word (n <= 32), a weight is merged _PIECE candidates at a time into a
slot per syndrome by np.minimum.at, and only its new entries are sorted
(_direct_entries, O(N) in its N candidates).  Otherwise it is split into
syndrome ranges of about _PIECE rows (_syndrome_groups), each sorted by
syndrome once; each syndrome keeps its least key (_least), and only the
winners are sorted by key (_sorted_entries, O(N log N)).  The sorted
_sortable keys of the table so far, each with its insertion index, take
in each weight's new syndromes and become the table's index and key
order, so no key is sorted again.  A table built by hand from a dict
sorts its keys once (frames._order) into the same pair.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Mapping, ValuesView
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

import numpy as np

from .builder import EaqeccCode
from .frames import (
    _generator_rows,
    _letter_table,
    _level,
    _order,
    _pack,
    _search,
    _sortable,
    _units,
)
from .pauli import PauliString
from .symplectic import _words
from .analysis import Syndrome

if TYPE_CHECKING:
    from .simulate import _BlockDecoder

_PIECE = 1 << 16  # rows per piece of a weight in the build; 2**m slots fit one for m <= 16
_MASK64 = (1 << 64) - 1
_VIEW_CHUNK = 4096  # the entries a table's entries view derives at a time


class SyndromeTable:
    """Minimum-weight correction for every syndrome seen up to max_weight.

    Ties within a weight go to the least (x|z) bit pattern, read from
    qubit 0's x bit on.  The table is held as read-only arrays:

    - keys, (len, K) uint64: the syndromes, bit i in bit i % 64 of word
      i // 64, sorted by word 0, then word 1, ... (the decoder's lookup
      order);
    - rows, (len, W) uint64: the corrections' (x|z) rows, in key order;
    - inserted: the key-order index of each entry in insertion order
      (by weight, then by tie-break).

    _index is the module docstring's syndrome index.  The only thing a
    table caches is the block decoder of the last code object that
    run_trials ran it on, with that code (_BlockDecoder.of).
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
        keys, rows = _pack(bits), _words([c.row() for c in entries.values()], 2 * n)
        merged = None
        if not _fits_direct(m):  # the pair the sorted merge hands over: the keys sorted once
            order = _order(keys)
            merged = _sortable(np.take(keys, order, axis=0)), order
        self._init(n, m, keys, rows, max_weight_built, merged)

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

        merged is the sorted merge's held pair: the keys' _sortable form,
        sorted, and each one's insertion index.  It is given whenever the
        index is the sorted keys (m > 16), which take it as it is, and it is
        not read when the index has a slot per syndrome.
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
        else:  # distinct keys, which merged holds sorted and in _sortable form
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
    """Whether an array over all 2**m syndromes fits one piece of _PIECE words (m <= 16).

    There a table indexes its entries by syndrome slot instead of by
    sorted search, and its build merges candidates in slots when the
    tie-break key is one word (see the module docstring).
    """
    return 1 << m <= _PIECE


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
    """The rows of level in groups of about _PIECE, split on the top bits of syndrome word 0.

    level's rows start with the syndrome words of _units, whose word 0
    holds min(m, 64) bits, so every syndrome's rows fall in one group and
    the groups' syndromes increase from one group to the next.  A level of
    at most _PIECE rows is one group.  A larger one is split on the fewest
    top bits b that give 2**b >= len(level) / _PIECE groups (b <= m, 16):
    one stable (radix) argsort of the rows' b-bit group numbers orders
    them by group, and each nonempty group's rows are gathered in turn.
    """
    b = min((-(-len(level) // _PIECE) - 1).bit_length(), m, 16)
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
    """The table of the lightest errors of weight at most max_weight, one per syndrome.

    Each syndrome that an error of weight at most max_weight has gets the
    lightest such error, the least (x|z) bit pattern among those, and the
    entries are inserted by weight, then by that pattern.  The enumeration
    stops at the weight that gives every syndrome an entry, and
    max_weight_built is max_weight all the same.  How weights are
    enumerated and merged is told in the module docstring.
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
            slices = (level[lo : lo + _PIECE] for lo in range(0, len(level), _PIECE))
            new = _direct_entries(slices, kept, m)
        else:
            new, held = _sorted_entries(_syndrome_groups(level, m), held, m)
        kept = np.concatenate([kept, new])
    del level  # freed before the table's arrays, which can then reuse its memory
    return SyndromeTable._from_arrays(
        n, m, kept[:, :nkeys], _reverse(kept[:, nkeys:]), max_weight, None if direct else held
    )


__all__ = ["SyndromeTable", "build_syndrome_table"]
