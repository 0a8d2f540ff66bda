"""Oracle tests for the check rows and signature words of eaqecc.frames."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqecc import gf2
from eaqecc.analysis import in_isotropic
from eaqecc.builder import ClassicalCode, build_code
from eaqecc.cli import load_code_file
from eaqecc.frames import _check_rows, _checks, _signatures, _units, _words
from eaqecc.pauli import PauliString
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
