"""Pauli frames as signature words: the array kernel of decoding and analysis.

An error on n qubits is carried as its signature, the symplectic products
of its (x|z) row with a list of check rows, packed into uint64 words (bit
i in bit i % 64 of word i // 64).  Signatures are linear: the signature of
a product is the XOR of the signatures, so an error's signature is the XOR
of the signatures of its single-qubit letters, looked up in an (n, 3, W)
letter table.

_check_rows gives the check rows: the generators first, so a signature's
low m bits are the syndrome, then the normalizer checks, so an error with
zero syndrome lies in the isotropic span exactly when those bits are zero
too.  The rest complete a basis.  All three steps grow one gf2.Complement,
whose adds get cheaper as the rows fill the 2n columns.  _checks is the
one frame that decoding and analysis read from them: the units, the
syndrome mask on the key words of a syndrome, and the normalizer mask,
over the full basis for the decoder or over the rows up to the
normalizer's for the analysis.  The syndrome table's units come from the
generator rows alone (_generator_rows), the frame's first rows, with no
normalizer work.

_level enumerates the errors of one weight as their words, each weight
whole and built from the weight below it: one array of C(n, w) 3**w rows,
held together with the weight below while it is built.  It XORs a weight
in chunks of rows (_chunks), word by word in a transposed scratch array,
so each numpy call runs over a chunk's rows: a broadcast over a row's W
words runs numpy's inner loop over those 1-6 words alone.  The syndrome
table keeps the lightest error per syndrome; the analysis walk pairs the
words of two weights and stops at the first undetected logical.  Sets of
key words are searched one word at a time through _key_index and _find,
so one search serves any number of words; _order sorts rows of words, and
_sorted_index indexes keys that are sorted already.

Rows of 2-D word arrays are gathered with np.take(a, idx, axis=0), which
is about 4x faster than a[idx] on these shapes.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from . import gf2
from .builder import EaqeccCode
from .symplectic import _swap_halves


def _words(values: List[int], width: int) -> np.ndarray:
    """Ints below 2**width as (len(values), max(1, ceil(width / 64))) uint64 words.

    Bit i of a value is bit i % 64 of word i // 64.
    """
    size = 8 * max(1, -(-width // 64))
    data = b"".join(v.to_bytes(size, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), size // 8).astype(np.uint64)


def _pack(bits: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix as little-endian uint64 words, at least one per row."""
    packed = np.zeros((len(bits), 8 * max(1, -(-bits.shape[1] // 64))), dtype=np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _units(rows: List[int], n: int) -> np.ndarray:
    """(2n, max(1, ceil(len(rows) / 64))) words: bit i of word row c is bit c of rows[i].

    Row c is the check bits of the (x|z) row with only bit c set.
    """
    checks = np.unpackbits(_words(rows, 2 * n).view(np.uint8), axis=1, bitorder="little")
    return _pack(checks[:, : 2 * n].T)


def _letter_table(units: np.ndarray) -> np.ndarray:
    """The (n, 3, W) words of X, Y and Z on each qubit, from the (2n, W) units of _units."""
    n = len(units) // 2
    return np.stack([units[:n], units[:n] ^ units[n:], units[n:]], axis=1)


def _generator_rows(codeq: EaqeccCode) -> List[int]:
    """The generators' check rows, halves swapped: signature bit i is generator i's syndrome bit.

    They are the first rows of _check_rows, and the syndrome table's units.
    """
    return [_swap_halves(g.row(), codeq.n) for g in codeq.generators]


def _check_rows(codeq: EaqeccCode) -> Tuple[List[int], int]:
    """A basis of 2n check rows, and how many of them test isotropy.

    An error's signature bit i is the parity of its (x|z) row & rows[i].
    The first m rows are the generators, halves swapped, so a signature's
    low m bits are the syndrome.  The next rows check the normalizer N(S):
    of a basis of N(S), halves swapped, the vectors independent of the rows
    before them.  With the generator rows they check all of N(S), so an
    error commutes with all of these exactly when it lies in span(S) & N(S),
    the isotropic span; as that is N(S)'s overlap with span(S), 2 k_enc are
    kept.  Unit rows on the columns those leave free complete the basis, so
    the signature of an error is zero exactly when the error is the
    identity.  One gf2.Complement grows through all three steps: after the
    generator rows its vectors are the basis of N(S), and a row is
    independent of the rows before it exactly when its add returns a vector.
    """
    n = codeq.n
    rows = _generator_rows(codeq)
    complement = gf2.Complement(2 * n)
    for row in rows:
        complement.add(row)
    for v in list(complement.vectors.values()):
        row = _swap_halves(v, n)
        if complement.add(row) is not None:
            rows.append(row)
    return rows + [1 << col for col in complement.vectors], len(rows)


def _checks(codeq: EaqeccCode, basis: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, syndrome, normalizer): the signature frame of the check rows of _check_rows.

    The signature is taken against all 2n rows when basis is set (the
    decoder's, zero only for the identity), and against the rows up to the
    normalizer's otherwise (the analysis').  units[c] is the signature of
    the (x|z) row with only bit c set.  syndrome holds signature bits
    [0, m) on the max(1, ceil(m / 64)) words that key a syndrome, and
    normalizer bits [m, isotropy) on every signature word.  An error is
    undetected when its syndrome bits are zero, and then it lies outside
    the isotropic span exactly when a normalizer bit is set.
    """
    rows, isotropy = _check_rows(codeq)
    rows = rows if basis else rows[:isotropy]
    m = len(codeq.generators)
    syndrome = _words([(1 << m) - 1], m)[0]
    normalizer = _words([(1 << isotropy) - (1 << m)], len(rows))[0]
    return _units(rows, codeq.n), syndrome, normalizer


def _signatures(rows: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Signature words of (x|z) rows given as words: the XOR of units[c] over their bits c.

    Each byte of the rows is looked up in a 256-entry table of XORs.
    """
    data = rows.view(np.uint8)  # little-endian: byte i holds bits 8i..8i+7
    sig = np.zeros((len(rows), units.shape[1]), dtype=np.uint64)
    for i in range(min(-(-len(units) // 8), data.shape[1])):  # missing bytes are zero
        table = np.zeros((256, units.shape[1]), dtype=np.uint64)
        for bit, unit in enumerate(units[8 * i : 8 * i + 8]):
            table[1 << bit : 2 << bit] = table[: 1 << bit] ^ unit
        sig ^= np.take(table, data[:, i], axis=0)
    return sig


# Words that one _level chunk writes (256 KB), 3W per row of below it reads:
# its two temporaries, 4/3 of that, stay in cache, and each numpy call still
# runs over thousands of words.
_CHUNK = 1 << 15
# Rows of a level short enough for one broadcast XOR: there numpy's cost per
# call, not its inner loop over a row's words, sets the time.
_SHORT = 1 << 10


def _chunks(runs: List[int], rows: int) -> Iterator[Tuple[int, int, int, int]]:
    """(first, last, lo, hi): the runs first..last-1 whole, or rows lo:hi of run first alone.

    Consecutive runs are grouped while their rows add up to at most rows;
    a run of more rows is cut into pieces of rows.
    """
    first = 0
    while first < len(runs):
        if runs[first] > rows:
            for lo in range(0, runs[first], rows):
                yield first, first + 1, lo, min(lo + rows, runs[first])
            first += 1
            continue
        last, total = first + 1, runs[first]
        while last < len(runs) and total + runs[last] <= rows:
            total += runs[last]
            last += 1
        yield first, last, 0, total
        first = last


def _level(letters: np.ndarray, w: int, below: np.ndarray) -> np.ndarray:
    """The (N, W) words of every Pauli of weight w, and then below's rows.

    letters is an (n, 3, W) table of _letter_table; a Pauli's words are the
    XOR of its letters'.  below holds the words of every Pauli of weight
    w - 1 in this order (the identity's zero words for w = 1).  Supports
    come in itertools.combinations order and, on each, the letter choices
    in base-3 order (X, Y, Z = 0, 1, 2, first qubit lowest).  So the Paulis
    whose lowest qubit is i come in one run: each of below's last
    C(n - i - 1, w - 1) 3**(w - 1) rows, the Paulis of weight w - 1 on the
    qubits above i, times qubit i's three letters.

    A longer level is XORed in chunks of about _CHUNK words (_chunks),
    word by word: a chunk's rows of below are copied to a (W, rows) array,
    one XOR with its letters' (3, W, rows) words (a run's three letters, or
    each row's gathered by run) fills a (3, W, rows) array, and one
    transposing copy writes that as the chunk's (rows, 3, W) words.  So
    every numpy call runs over a chunk's rows.  Broadcasting below's rows
    against a run's (3, W) letters, one XOR per run, ran numpy's inner loop
    over a row's W words: a weight cost several times an XOR pass of its
    size.  Both temporaries are views of one scratch array, reused by every
    chunk.  A level of at most _SHORT rows takes one broadcast XOR, as
    numpy's per-call cost, not its inner loop, sets its time.
    """
    n, _, width = letters.shape
    size = math.comb(n, w) * 3**w
    words = np.empty((size + len(below), width), dtype=np.uint64)
    words[size:] = below
    runs = [math.comb(n - i - 1, w - 1) * 3 ** (w - 1) for i in range(n - w + 1)]
    if 0 < size <= _SHORT:
        src = np.concatenate([below[len(below) - r :] for r in runs])
        letter = np.repeat(letters[: len(runs)], runs, axis=0)
        np.bitwise_xor(src[:, None], letter, out=words[:size].reshape(-1, 3, width))
        return words
    rows = max(1, _CHUNK // (3 * width))
    scratch = np.empty(4 * width * min(rows, size // 3), dtype=np.uint64)
    table = letters.transpose(1, 2, 0)  # (3, W, n): word d of letter k on each qubit
    at = 0
    for first, last, lo, hi in _chunks(runs, rows):
        count = hi - lo
        src = scratch[: width * count].reshape(width, count)
        out = scratch[width * count : 4 * width * count].reshape(3, width, count)
        if last == first + 1:  # rows lo:hi of one run
            start = len(below) - runs[first]
            np.copyto(src, below[start + lo : start + hi].T)
            letter = table[:, :, first, None]
        else:
            suffixes = [below[len(below) - r :].T for r in runs[first:last]]
            np.concatenate(suffixes, axis=1, out=src)
            run = np.repeat(np.arange(first, last), runs[first:last])
            letter = np.take(table, run, axis=2, out=out, mode="clip")  # "raise" copies out
        np.bitwise_xor(letter, src, out=out)
        chunk = words[at : at + 3 * count].reshape(count, 3 * width)
        np.copyto(chunk, out.reshape(3 * width, count).T)
        at += 3 * count
    return words


def _search(values: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(pos, found): each query's position in the sorted values, and whether it is there.

    The queries are searched in sorted order, which keeps the binary
    searches' branches predictable: about 3x faster on 65536 random keys.
    """
    order = np.argsort(queries)
    ranked = np.searchsorted(values, queries[order])
    np.minimum(ranked, len(values) - 1, out=ranked)
    pos = np.empty(len(queries), dtype=np.int64)
    pos[order] = ranked
    del order, ranked  # freed before the compare's temporaries, which lowers the peak
    return pos, values[pos] == queries


def _key_index(keys: np.ndarray) -> Tuple[tuple, tuple, np.ndarray]:
    """(values, codes, rank) that find distinct (N, K) key words one word at a time.

    values[k] holds the sorted distinct values of key word k, and
    codes[k - 1] the sorted distinct ranks of words 0..k among the keys,
    for k >= 1.  rank[i] is the rank of key i among the distinct keys
    sorted by word 0, then word 1, ...
    """
    values, codes = [], []
    rank = np.zeros(len(keys), dtype=np.int64)
    for k in range(keys.shape[1]):
        word_values, word_rank = np.unique(keys[:, k], return_inverse=True)
        values.append(word_values)
        rank = rank * len(word_values) + word_rank
        if k:
            rank_values, rank = np.unique(rank, return_inverse=True)
            codes.append(rank_values)
    return tuple(values), tuple(codes), rank


def _order(words: np.ndarray) -> np.ndarray:
    """The order that sorts the (N, k) rows of words by word 0, then word 1, ...

    One argsort of word 0; only the rows in runs equal on word 0 are
    re-sorted by their later words (np.lexsort), so rows that differ in
    word 0, as most do, are sorted once.  Equal rows come in any order.
    """
    order = np.argsort(words[:, 0])
    if words.shape[1] > 1:
        first = np.take(words[:, 0], order)
        tied = first[1:] == first[:-1]
        if tied.any():
            run = np.zeros(len(order), dtype=bool)
            run[1:] = tied
            run[:-1] |= tied
            at = order[run]
            # np.lexsort's last key, word 0, is its primary one: each run stays in place
            order[run] = at[np.lexsort(np.take(words, at, axis=0).T[::-1])]
    return order


def _sorted_index(keys: np.ndarray) -> Tuple[tuple, tuple]:
    """The (values, codes) of _key_index(keys), for distinct (N, K) keys already sorted.

    The keys are sorted by word 0, then word 1, ..., so word 0's values
    and each prefix's ranks come in order: only the later words' values are
    sorted (np.unique), and nothing is ranked by sorting.
    """
    first = keys[:, 0]
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = first[1:] != first[:-1]
    values, codes = [first[distinct]], []
    rank = np.cumsum(distinct) - 1
    for k in range(1, keys.shape[1]):
        word_values = np.unique(keys[:, k])
        values.append(word_values)
        rank = rank * len(word_values) + np.searchsorted(word_values, keys[:, k])
        distinct[1:] = rank[1:] != rank[:-1]
        codes.append(rank[distinct])
        rank = np.cumsum(distinct) - 1
    return tuple(values), tuple(codes)


def _find(values, codes, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(rank, found) of each column of the (K, b) query words among the keys of _key_index."""
    rank, found = _search(values[0], queries[0])
    for k in range(1, len(values)):
        pos, hit = _search(values[k], queries[k])
        found &= hit
        rank *= len(values[k])
        rank += pos
        # keep ranks below len(keys): rank the words so far among the keys'
        rank, hit = _search(codes[k - 1], rank)
        found &= hit
    return rank, found
