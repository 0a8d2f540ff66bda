"""Oracle tests for the check rows and signature words of eaqecc.frames."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqecc import frames, gf2
from eaqecc.analysis import in_isotropic
from eaqecc.builder import ClassicalCode, build_code
from eaqecc.cli import load_code_file
from eaqecc.frames import (
    _check_rows,
    _checks,
    _chunks,
    _find,
    _key_index,
    _letter_table,
    _level,
    _order,
    _pack,
    _signatures,
    _sorted_index,
    _units,
    _words,
)
from eaqecc.pauli import PauliString, iter_paulis_of_weight
from eaqecc.symplectic import _swap_halves

from helpers import BENCH_CORPUS, random_classical_code, random_pauli


def _check_check_rows(codeq, rng: random.Random, draws: int) -> None:
    """_check_rows against gf2 and in_isotropic, on draws Paulis of each kind."""
    n, m, width = codeq.n, len(codeq.generators), 2 * codeq.n
    rows, isotropy = _check_rows(codeq)
    assert len(rows) == width and gf2.rank(rows, width) == width
    assert rows[:m] == [_swap_halves(g.row(), n) for g in codeq.generators]
    assert isotropy == m + 2 * codeq.k_enc
    isotropic = [g.row() for g in codeq.decomposition.isotropic]
    normalizer = gf2.nullspace(rows[:m], width)  # Paulis that commute with S
    for span in (None, isotropic, normalizer):
        for _ in range(draws):
            if span is None:
                row = random_pauli(rng, n).row()
            else:
                row = 0
                for v in span:
                    row ^= v * rng.getrandbits(1)
            bits = [gf2.parity(row & check) for check in rows[:isotropy]]
            assert (not any(bits)) == in_isotropic(codeq, PauliString.from_row(n, row))


class TestCheckRows:
    @settings(max_examples=80, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), draw=st.integers(0, 1 << 32))
    def test_random_codes(self, code_seed, draw):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        _check_check_rows(codeq, random.Random(draw), 20)

    @pytest.mark.parametrize("name", ["w64", "r40"])
    def test_corpus_codes(self, name):
        codeq = build_code(load_code_file(str(BENCH_CORPUS / f"{name}.code")).code)
        _check_check_rows(codeq, random.Random(name), 30)


def test_check_rows_build_no_basis(monkeypatch):
    # the frame grows one gf2.Complement alone
    codeq = build_code(load_code_file(str(BENCH_CORPUS / "r20.code")).code)
    expected = _check_rows(codeq)

    def no_basis(*args):
        raise AssertionError("_check_rows built a gf2.Basis")

    monkeypatch.setattr(gf2, "Basis", no_basis)
    assert _check_rows(codeq) == expected


# sha256 of ",".join(map(hex, rows)) + f";{isotropy}" of each corpus code's
# _check_rows, taken before the frame's elimination moved onto gf2.Basis
CORPUS_CHECK_ROWS = {
    "d5": "407bcf0feb89ec629c425d67fde827767d98d763ea26cdac4e6f8b7c264df200",
    "h22": "15c5057c67c0ff6e28793046bf51f00912373f59c860eb28f3876a072ec74e72",
    "h4": "66893a9d81ced951bf69eca928451f6d262b2f7e7900a35ace93dd4b0b348aff",
    "n128": "c7473b781cb3e6e9e65449717d5d0608e5fb38842bf356f47fc69d577f38597c",
    "n64": "03c7cfa6685eb23bef525b19a2dd3a35b146d575c76f2b041b683847860aea5a",
    "r16": "e9141e6dee86dacfc3bef106480bf3ac641e92ff193725f94b0a566918a224f1",
    "r20": "64f8a069fc77eff8047b0cb080ceea4f3d8b4518f9b5f31486771764a46ff473",
    "r24": "c631d4f5b0ed4c048647124deaf7642b0ccd0ba7b1877df09473f7af5124ec7b",
    "r40": "7b9a6fc824a666c33380d11b468ed65ae13b77ba256d385273458e18eeefeee1",
    "w64": "333df1ff0046b072908e89954e0ba78b1e1e4b037fe66feceb3ad8cd85a872d1",
}


def test_corpus_check_rows_are_pinned():
    got = {}
    for path in sorted(BENCH_CORPUS.glob("*.code")):
        rows, isotropy = _check_rows(build_code(load_code_file(str(path)).code))
        text = ",".join(map(hex, rows)) + f";{isotropy}"
        got[path.stem] = hashlib.sha256(text.encode()).hexdigest()
    assert got == CORPUS_CHECK_ROWS


def _value(words) -> int:
    """The int whose little-endian uint64 words are words."""
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


class TestChecks:
    # m = 0 keys on one always-zero word; 64 fills one key word, 66 needs two
    @pytest.mark.parametrize("m", [0, 2, 62, 64, 66])
    @pytest.mark.parametrize("basis", [True, False])
    def test_key_width_and_masks(self, m, basis):
        if m:
            codeq = build_code(random_classical_code(random.Random(m), m // 2 + 2, 2))
        else:
            codeq = build_code(ClassicalCode.from_rows(3, 3, []))
        assert len(codeq.generators) == m
        rows, isotropy = _check_rows(codeq)
        rows = rows if basis else rows[:isotropy]
        units, syndrome, normalizer = _checks(codeq, basis)
        words = max(1, -(-len(rows) // 64))
        assert units.shape == (2 * codeq.n, words) and normalizer.shape == (words,)
        assert syndrome.shape == (max(1, -(-m // 64)),)
        assert _value(syndrome) == (1 << m) - 1
        assert _value(normalizer) == (1 << isotropy) - (1 << m)
        for c, unit in enumerate(units):
            assert _value(unit) == sum((row >> c & 1) << i for i, row in enumerate(rows))


class TestSignatures:
    # 2n = 2, 62, 66 and 130 leave the last byte of units part-filled
    @pytest.mark.parametrize("width", [2, 62, 64, 66, 80, 130])
    @pytest.mark.parametrize("nchecks", [1, 13, 64, 70])
    def test_matches_bitwise_parity(self, width, nchecks):
        rng = random.Random(width * 1000 + nchecks)
        checks = [rng.getrandbits(width) for _ in range(nchecks)]
        rows = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(50)]
        sig = _signatures(_words(rows, width), _units(checks, width // 2))
        assert sig.shape == (len(rows), -(-nchecks // 64))
        for words, row in zip(sig, rows):
            value = sum(int(w) << (64 * i) for i, w in enumerate(words))
            assert value == sum(gf2.parity(row & c) << i for i, c in enumerate(checks))


def _level_order(n: int, w: int) -> list:
    """The (x|z) rows of the weight-w Paulis on n qubits in _level's order.

    iter_paulis_of_weight gives the supports in combinations order and, on
    each, the letters in product order (last qubit fastest); _level's
    letters run in base-3 order with the first qubit lowest.  So each
    support's 3**w rows are permuted by reversing the digits of their index.
    """
    rows = [p.row() for p in iter_paulis_of_weight(n, w)]
    if not w:
        return rows
    reverse = [sum((q // 3**t % 3) * 3 ** (w - 1 - t) for t in range(w)) for q in range(3**w)]
    return [rows[at + r] for at in range(0, len(rows), 3**w) for r in reverse]


class TestLevel:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), w=st.integers(1, 7))
    def test_matches_the_pauli_enumeration(self, n, w):
        # on the (x|z) unit letters the words are the Paulis' rows: each
        # weight built from the one below, then below's rows
        w = min(w, n)
        letters = _letter_table(_pack(np.eye(2 * n, dtype=np.uint8)))
        below = _words(_level_order(n, w - 1), 2 * n)
        words = _level(letters, w, below)
        assert len(words) == math.comb(n, w) * 3**w + len(below)
        assert [_value(row) for row in words] == _level_order(n, w) + _level_order(n, w - 1)

    # 2n = 66: every letter and row takes two words
    def test_two_word_rows(self):
        n, below = 33, _words(_level_order(33, 1), 66)
        words = _level(_letter_table(_pack(np.eye(2 * n, dtype=np.uint8))), 2, below)
        assert [_value(row) for row in words] == _level_order(n, 2) + _level_order(n, 1)

    # chunks of 1, 10 and 100 rows of below: 10 and 100 group the short runs
    # (3 + 6 at w = 2, 9 + 27 + 54 at w = 3) and cut the longer ones; the
    # letters and rows take 1 word (2n = 24), 2 (66) and 4 (194)
    @pytest.mark.parametrize("rows", [1, 10, 100])
    @pytest.mark.parametrize("n, w", [(12, 3), (33, 2), (97, 2)])
    def test_chunk_boundaries_on_unit_letters(self, monkeypatch, n, w, rows):
        letters = _letter_table(_pack(np.eye(2 * n, dtype=np.uint8)))
        monkeypatch.setattr(frames, "_CHUNK", 3 * letters.shape[2] * rows)
        monkeypatch.setattr(frames, "_SHORT", 0)
        below = _words(_level_order(n, w - 1), 2 * n)
        words = _level(letters, w, below)
        assert [_value(row) for row in words] == _level_order(n, w) + _level_order(n, w - 1)

    # any letters, 1 to 6 words wide, in chunks of a few rows and at the
    # module's own sizes (weight 1 and a short weight 2 take one broadcast)
    @pytest.mark.parametrize("rows", [1, 10, 100, None])
    @pytest.mark.parametrize("width", range(1, 7))
    def test_chunks_xor_any_letters(self, monkeypatch, width, rows):
        if rows is not None:
            monkeypatch.setattr(frames, "_CHUNK", 3 * width * rows)
            monkeypatch.setattr(frames, "_SHORT", 0)
        rng = np.random.default_rng(width)
        letters = rng.integers(0, 1 << 64, size=(8, 3, width), dtype=np.uint64)
        below = np.zeros((1, width), dtype=np.uint64)
        for w in range(1, 5):
            words = _level(letters, w, below)
            want = _xor_level(letters, w)
            assert words.tolist() == want + below.tolist()
            below = words[: len(want)]


def _xor_level(letters: np.ndarray, w: int) -> list:
    """Each weight-w Pauli's words in _level's order, XORed one letter at a time in Python."""
    n, _, width = letters.shape
    table = letters.tolist()
    rows = []
    for support in itertools.combinations(range(n), w):
        for choice in range(3**w):  # base 3, the first qubit lowest
            row = [0] * width
            for t, qubit in enumerate(support):
                row = [a ^ b for a, b in zip(row, table[qubit][choice // 3**t % 3])]
            rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.integers(1, 40), max_size=12), rows=st.integers(1, 50))
def test_chunks_tile_the_runs(runs, rows):
    # every row of every run once, in order, in chunks of at most rows rows:
    # runs grouped whole, or one run, cut into pieces when it is longer
    runs = sorted(runs, reverse=True)
    covered = []
    for first, last, lo, hi in _chunks(runs, rows):
        if last > first + 1:
            assert (lo, hi) == (0, sum(runs[first:last])) and hi <= rows
            covered += [(i, r) for i in range(first, last) for r in range(runs[i])]
        else:
            assert last == first + 1 and 0 <= lo < hi <= runs[first] and hi - lo <= rows
            covered += [(first, r) for r in range(lo, hi)]
    assert covered == [(i, r) for i, run in enumerate(runs) for r in range(run)]


# words from a small pool make rows that share their first words, and runs of
# equal rows; any word may also be drawn
_WORD = st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1]) | st.integers(0, (1 << 64) - 1)


def _rows(data, width: int, max_size: int = 40) -> np.ndarray:
    rows = data.draw(st.lists(st.lists(_WORD, min_size=width, max_size=width), max_size=max_size))
    return np.array(rows, dtype=np.uint64).reshape(len(rows), width)


class TestKeyOrder:
    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_order_sorts_rows_by_word_0_then_word_1(self, width, data):
        words = _rows(data, width)
        order = _order(words)
        assert sorted(order.tolist()) == list(range(len(words)))
        assert np.take(words, order, axis=0).tolist() == sorted(words.tolist())

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_sorted_index_is_the_key_index_of_sorted_keys(self, width, data):
        keys = np.unique(_rows(data, width), axis=0)  # distinct, sorted by word 0, then ...
        values, codes, rank = _key_index(keys)
        assert (rank == np.arange(len(keys))).all()
        got_values, got_codes = _sorted_index(keys)
        assert len(got_values) == len(values) and len(got_codes) == len(codes)
        for got, want in zip(got_values + got_codes, values + codes):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        if len(keys):  # and _find finds every key at its own position
            found_rank, found = _find(got_values, got_codes, keys.T)
            assert found.all() and (found_rank == np.arange(len(keys))).all()
