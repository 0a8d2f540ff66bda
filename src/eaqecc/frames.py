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
too.  The rest complete a basis.  _checks is the one frame that decoding
and analysis read from them: the units, the syndrome mask on the key words
of a syndrome, and the normalizer mask, over the full basis for the
decoder or over the rows up to the normalizer's for the analysis.

_weight_words enumerates the errors of one weight as their words, in
chunks of at most _BLOCK errors.  The syndrome table keeps the lightest
error per syndrome; the analysis walk pairs the words of two weights and
stops at the first undetected logical.  Sets of key words are searched
one word at a time through _key_index and _find, so one search serves any
number of words.

Rows of 2-D word arrays are gathered with np.take(a, idx, axis=0), which
is about 4x faster than a[idx] on these shapes.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Tuple

import numpy as np

from . import gf2
from .builder import EaqeccCode
from .symplectic import _swap_halves

_BLOCK = 1 << 16


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
    identity.  One reduced basis grows through all three steps.
    """
    n, width = codeq.n, 2 * codeq.n
    rows = [_swap_halves(g.row(), n) for g in codeq.generators]
    basis: List[int] = []
    pivots: List[int] = []
    for row in rows:
        gf2.add_to_basis(basis, pivots, row, width)
    taken = set(pivots)
    normalizer = [gf2.null_vector(basis, pivots, c) for c in range(width) if c not in taken]
    for v in normalizer:
        row = _swap_halves(v, n)
        if gf2.add_to_basis(basis, pivots, row, width):
            rows.append(row)
    taken = set(pivots)
    return rows + [1 << col for col in range(width) if col not in taken], len(rows)


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


def _weight_words(letters: np.ndarray, w: int) -> Iterator[np.ndarray]:
    """The (N, W) words of the Paulis of weight w, in chunks of at most _BLOCK.

    letters is an (n, 3, W) table of _letter_table; a Pauli's words are the
    XOR of its letters'.  Supports come in itertools.combinations order and,
    on each, the letter choices in base-3 order (X, Y, Z = 0, 1, 2, first
    qubit lowest); a support whose 3**w choices exceed _BLOCK is split over
    several chunks.  Each chunk's letter indices into the flat (3n, W)
    table are held in the smallest integer type that fits (they would
    otherwise outweigh its words several times over).
    """
    n, _, width = letters.shape
    flat = letters.reshape(3 * n, width)
    per = 3**w  # letter choices per support
    combos = itertools.combinations(range(n), w)
    while chunk := list(itertools.islice(combos, max(1, _BLOCK // per))):
        # 3 * qubit: the row of the qubit's X in flat, Y and Z follow it
        support = np.array(chunk, dtype=np.min_scalar_type(3 * n)).reshape(len(chunk), w)
        support *= 3
        for lo in range(0, per, _BLOCK):
            choice = np.arange(lo, min(per, lo + _BLOCK))
            kinds = (choice[:, None] // 3 ** np.arange(w) % 3).astype(np.uint8)
            qubits = np.repeat(support, len(choice), axis=0)
            kinds = np.tile(kinds, (len(support), 1))
            words = np.zeros((len(qubits), width), dtype=np.uint64)
            for t in range(w):
                words ^= np.take(flat, qubits[:, t] + kinds[:, t], axis=0)
            yield words


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
