"""Tests for Pauli arithmetic in the binary symplectic representation."""

import itertools
import random

import pytest

from eaqecc import gf4
from eaqecc.pauli import (
    PauliString,
    equal_up_to_phase,
    format_pauli,
    gf4_to_pauli,
    identity,
    iter_paulis_of_weight,
    iter_paulis_up_to_weight,
    multiply,
    parse_pauli,
    pauli_to_gf4,
    single,
    symplectic_product,
)

from helpers import oracle_multiply, random_pauli


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        result = multiply(parse_pauli("X"), parse_pauli("Z"))
        assert (result.x, result.z, result.phase_exp) == (1, 1, 3)
        assert format_pauli(result) == "-iY"

    def test_identity_is_neutral(self):
        for text in ["X", "ZXZI", "YYYY", "IZ"]:
            p = parse_pauli(text)
            assert multiply(p, identity(p.n)) == p
            assert multiply(identity(p.n), p) == p

    def test_hermitian_pauli_squares_to_plus_identity(self):
        # oracle: compose the literal single-qubit table across positions
        p = parse_pauli("ZXZI")
        sq = multiply(p, p)
        assert sq == identity(4)
        assert sq == oracle_multiply(p, p)
        rng = random.Random(1)
        for _ in range(50):
            q = random_pauli(rng, rng.randint(1, 6))
            sq = multiply(q, q)
            assert sq == oracle_multiply(q, q)
            assert sq == identity(q.n)

    def test_matches_single_qubit_table_composed(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(1, 6)
            a = PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            b = PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            assert multiply(a, b) == oracle_multiply(a, b)

    def test_associative_and_phase_exact(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 5)
            a, b, c = (random_pauli(rng, n) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_single_qubit_table_exhaustive(self):
        for la, lb in itertools.product("IXYZ", repeat=2):
            got = multiply(parse_pauli(la), parse_pauli(lb))
            assert got == oracle_multiply(parse_pauli(la), parse_pauli(lb))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            multiply(parse_pauli("XX"), parse_pauli("X"))

    def test_oracle_refuses_a_dimension_mismatch(self):
        # a raised precondition, which python -O keeps
        with pytest.raises(ValueError, match="2 and 1 qubits"):
            oracle_multiply(parse_pauli("XX"), parse_pauli("X"))

    def test_weight_subadditive(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 8)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            assert multiply(a, b).weight <= a.weight + b.weight


class TestSymplecticProduct:
    def test_paper_relations(self):
        assert symplectic_product(parse_pauli("ZXZI"), parse_pauli("ZZIZ")) == 1
        assert symplectic_product(parse_pauli("ZZIZ"), parse_pauli("XYXI")) == 0

    def test_self_product_is_zero(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_pauli(rng, rng.randint(1, 8))
            assert symplectic_product(p, p) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            symplectic_product(parse_pauli("X"), parse_pauli("XX"))

    def test_homomorphism_exhaustive_small(self):
        # sp(a*b, c) = sp(a, c) xor sp(b, c) over all (x|z) patterns, n <= 2
        for n in (1, 2):
            patterns = [
                PauliString(n, x, z)
                for x in range(1 << n)
                for z in range(1 << n)
            ]
            for a, b, c in itertools.product(patterns, repeat=3):
                lhs = symplectic_product(multiply(a, b), c)
                rhs = symplectic_product(a, c) ^ symplectic_product(b, c)
                assert lhs == rhs

    def test_phase_does_not_matter(self):
        a = PauliString(2, 0b01, 0b10, 0)
        b = PauliString(2, 0b11, 0b01, 0)
        for pa in range(4):
            for pb in range(4):
                assert symplectic_product(
                    PauliString(2, a.x, a.z, pa), PauliString(2, b.x, b.z, pb)
                ) == symplectic_product(a, b)


class TestParseFormat:
    def test_letter_bit_mapping(self):
        p = parse_pauli("ZXZI")
        # Z: (x=0,z=1), X: (x=1,z=0); qubit 0 is the leftmost letter
        assert p.x == 0b0010
        assert p.z == 0b0101
        assert p.phase_exp == 0

    def test_identity(self):
        p = parse_pauli("IIII")
        assert p.is_identity() and p.n == 4

    def test_eq2_fourth_generator(self):
        p = parse_pauli("ZYYX")
        assert [p.letter(j) for j in range(4)] == ["Z", "Y", "Y", "X"]
        assert format_pauli(p) == "ZYYX"

    def test_round_trip_canonical(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 7)
            p = PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            assert parse_pauli(format_pauli(p)) == p

    def test_phase_prefixes(self):
        assert parse_pauli("-X").phase_exp == 2
        assert parse_pauli("iZ").phase_exp == 1
        assert parse_pauli("+iZ").phase_exp == 1
        assert parse_pauli("-iY").phase_exp == 3
        assert parse_pauli("+XY").phase_exp == 0

    def test_invalid_character_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_pauli("XYQZ")
        # positions count from the start of the original text, prefix included
        with pytest.raises(ValueError, match="position 2"):
            parse_pauli("-Xq")


class TestGf4Map:
    def test_paper_rows(self):
        assert pauli_to_gf4(parse_pauli("ZXZI")) == (gf4.OMEGA, gf4.OMEGA_BAR, gf4.OMEGA, gf4.ZERO)
        assert pauli_to_gf4(parse_pauli("XYXI")) == (gf4.OMEGA_BAR, gf4.ONE, gf4.OMEGA_BAR, gf4.ZERO)
        assert pauli_to_gf4(parse_pauli("IIII")) == (0, 0, 0, 0)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 6)
            p = random_pauli(rng, n)
            assert gf4_to_pauli(pauli_to_gf4(p)) == p
        vec = tuple(rng.randrange(4) for _ in range(5))
        assert pauli_to_gf4(gf4_to_pauli(vec)) == vec

    def test_phase_is_ignored(self):
        p = parse_pauli("-iXZ")
        assert pauli_to_gf4(p) == pauli_to_gf4(PauliString(2, p.x, p.z, 0))

    def test_gf4_addition_is_pauli_multiplication_up_to_phase(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 6)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            image_sum = tuple(
                gf4.add(u, v) for u, v in zip(pauli_to_gf4(a), pauli_to_gf4(b))
            )
            assert image_sum == pauli_to_gf4(multiply(a, b))

    def test_trace_inner_product_matches_symplectic(self):
        # exhaustive on one qubit, randomized beyond
        singles = [PauliString(1, x, z) for x in (0, 1) for z in (0, 1)]
        for a, b in itertools.product(singles, repeat=2):
            assert gf4.hermitian_trace_inner(
                pauli_to_gf4(a), pauli_to_gf4(b)
            ) == symplectic_product(a, b)
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 6)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            assert gf4.hermitian_trace_inner(
                pauli_to_gf4(a), pauli_to_gf4(b)
            ) == symplectic_product(a, b)

    def test_invalid_gf4_value(self):
        with pytest.raises(ValueError, match="position 1"):
            gf4_to_pauli((0, 9))


class TestPauliString:
    def test_weight(self):
        assert parse_pauli("IIII").weight == 0
        assert parse_pauli("ZXZI").weight == 3
        assert parse_pauli("YYYY").weight == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="phase_exp"):
            PauliString(1, 0, 0, 4)
        with pytest.raises(ValueError, match="exceeds"):
            PauliString(1, 0b10, 0, 0)
        with pytest.raises(ValueError, match="negative"):
            PauliString(-1, 0, 0, 0)

    def test_row_round_trip(self):
        rng = random.Random(10)
        for _ in range(50):
            n = rng.randint(1, 8)
            p = random_pauli(rng, n)
            assert PauliString.from_row(n, p.row()) == p

    def test_equal_up_to_phase(self):
        a = parse_pauli("XZ")
        assert equal_up_to_phase(a, PauliString(2, a.x, a.z, 2))
        assert not equal_up_to_phase(a, parse_pauli("ZX"))

    def test_single(self):
        assert single(4, 0, "X") == parse_pauli("XIII")
        assert single(4, 3, "Y") == parse_pauli("IIIY")
        with pytest.raises(ValueError, match="out of range"):
            single(2, 2, "X")


def test_iter_paulis_counts():
    # 3 * C(n, w) per weight
    assert sum(1 for _ in iter_paulis_of_weight(4, 1)) == 12
    assert sum(1 for _ in iter_paulis_of_weight(4, 2)) == 54
    assert sum(1 for _ in iter_paulis_up_to_weight(4, 2)) == 1 + 12 + 54
    all_of_them = list(iter_paulis_up_to_weight(3, 3))
    assert len(all_of_them) == 4 ** 3
    assert len({(p.x, p.z) for p in all_of_them}) == 4 ** 3
