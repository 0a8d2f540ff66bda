"""Tests for code construction from classical quaternary codes."""

import random
from fractions import Fraction

import pytest

from eaqecc import gf4
from eaqecc.builder import (
    ClassicalCode,
    CodeParameters,
    build_code,
    extend_generators,
    min_isotropic_weight,
    parameters,
    quaternary_to_stabilizer,
)
from eaqecc.pauli import format_pauli, parse_pauli, pauli_to_gf4, symplectic_product
from eaqecc.symplectic import (
    Decomposition,
    GeneratorSet,
    gram_schmidt_decompose,
    group_equal_up_to_phase,
)

from helpers import random_classical_code

EQ6 = ["ZXZIZ", "ZZIZX", "YXXZI", "ZYYXI"]


class TestClassicalCode:
    def test_valid(self, h4_code):
        assert (h4_code.n, h4_code.k) == (4, 2)
        assert h4_code.h.nrows == 2

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="rows"):
            ClassicalCode.from_rows(4, 2, [(1, 2, 1, 0)])
        with pytest.raises(ValueError, match="columns"):
            ClassicalCode(4, 2, gf4.GfFourMatrix(3, ((1, 2, 1), (1, 1, 0))))

    def test_rejects_dependent_rows(self):
        # second row is omega times the first
        with pytest.raises(ValueError, match="dependent"):
            ClassicalCode.from_rows(3, 1, [(1, 2, 0), (2, 3, 0)])

    def test_zero_row_code(self):
        code = ClassicalCode.from_rows(3, 3, [], )
        assert code.h.nrows == 0

    def test_rejects_empty_code(self):
        with pytest.raises(ValueError, match="code length"):
            ClassicalCode.from_rows(0, 0, [])


class TestQuaternaryToStabilizer:
    def test_golden_rows_in_order(self, h4_code):
        gens = quaternary_to_stabilizer(h4_code)
        assert [format_pauli(g) for g in gens] == ["ZXZI", "ZZIZ", "XYXI", "XXIX"]
        assert all(g.phase_exp == 0 for g in gens)

    def test_round_trip_reproduces_scaled_rows(self, h4_code):
        gens = list(quaternary_to_stabilizer(h4_code))
        for i in range(h4_code.h.nrows):
            assert pauli_to_gf4(gens[i]) == gf4.scale(h4_code.h.row(i), gf4.OMEGA)
            assert pauli_to_gf4(gens[i + 2]) == gf4.scale(h4_code.h.row(i), gf4.OMEGA_BAR)

    def test_zero_row_matrix_gives_empty_set(self):
        code = ClassicalCode.from_rows(3, 3, [])
        assert len(quaternary_to_stabilizer(code)) == 0

    def test_single_symbol_code(self):
        # omega * 1 -> Z, omega-bar * 1 -> X
        code = ClassicalCode.from_rows(1, 0, [(gf4.ONE,)])
        gens = quaternary_to_stabilizer(code)
        assert [format_pauli(g) for g in gens] == ["Z", "X"]


class TestBuildCode:
    def test_golden_parameters(self, golden):
        assert (golden.n, golden.k_enc, golden.c, golden.s) == (4, 1, 1, 2)

    def test_dual_containing_gives_standard_stabilizer(self):
        # rows of omega*H and omega-bar*H all commute for H = (1 1)
        code = ClassicalCode.from_rows(2, 1, [(1, 1)])
        built = build_code(code)
        assert built.c == 0
        assert built.s == 2
        assert built.extended.n == built.n

    def test_random_53_code_formula(self):
        rng = random.Random(41)
        for _ in range(20):
            code = random_classical_code(rng, n=5, k=3)
            built = build_code(code)
            if len(built.generators) == 4:  # all 2(n-k) rows independent
                assert built.k_enc == 2 * 3 - 5 + built.c
            assert built.k_enc == built.n - built.c - built.s

    def test_kenc_identity_randomized(self):
        rng = random.Random(42)
        for _ in range(50):
            built = build_code(random_classical_code(rng))
            assert built.k_enc == built.n - built.c - built.s
            assert len(built.generators) == 2 * built.c + built.s

    def test_independent_checks_never_lose_generators(self):
        # GF(4)-independent rows h_i always map to GF(2)-independent
        # generator pairs: a GF(2) combination of omega*h_i and
        # omega-bar*h_i is the GF(4) combination (a*omega + b*omega-bar)*h_i,
        # and {omega, omega-bar} is a GF(2) basis of GF(4)
        rng = random.Random(44)
        for _ in range(50):
            code = random_classical_code(rng)
            built = build_code(code)
            assert len(built.generators) == 2 * (code.n - code.k)
            assert built.k_enc == 2 * code.k - code.n + built.c

    def test_trivial_empty_stabilizer(self):
        built = build_code(ClassicalCode.from_rows(3, 3, []))
        assert (built.n, built.k_enc, built.c, built.s) == (3, 3, 0, 0)
        assert parameters(built).rate == Fraction(1)


class TestExtendGenerators:
    def test_golden_matches_extended_group(self, golden):
        ext = golden.extended
        assert ext.n == 5
        assert group_equal_up_to_phase(ext, GeneratorSet.from_strings(EQ6))

    def test_extended_abelian_and_restricts(self, golden):
        ext = list(golden.extended)
        for i, a in enumerate(ext):
            for b in ext[i + 1:]:
                assert symplectic_product(a, b) == 0
        mask = (1 << golden.n) - 1
        decomp_gens = golden.decomposition.generators()
        for extended, alice in zip(ext, decomp_gens):
            assert extended.x & mask == alice.x
            assert extended.z & mask == alice.z

    def test_bob_pattern(self, golden):
        # pair qubit gets Z on zbar, X on xbar; isotropic rows get identity
        ext = list(golden.extended)
        n = golden.n
        assert ext[0].letter(n) == "Z"
        assert ext[1].letter(n) == "X"
        assert ext[2].letter(n) == "I"
        assert ext[3].letter(n) == "I"

    def test_c_zero_unchanged(self):
        built = build_code(ClassicalCode.from_rows(2, 1, [(1, 1)]))
        assert built.extended.n == built.n
        for extended, alice in zip(built.extended, built.decomposition.generators()):
            assert (extended.x, extended.z) == (alice.x, alice.z)

    def test_bell_pair_pattern(self):
        d = Decomposition(1, ((parse_pauli("Z"), parse_pauli("X")),), ())
        ext = extend_generators(d, 1)
        assert [format_pauli(g) for g in ext] == ["ZZ", "XX"]
        assert symplectic_product(ext.gens[0], ext.gens[1]) == 0

    def test_randomized_extension_abelian(self):
        rng = random.Random(43)
        for _ in range(30):
            built = build_code(random_classical_code(rng))
            ext = list(built.extended)
            for i, a in enumerate(ext):
                for b in ext[i + 1:]:
                    assert symplectic_product(a, b) == 0


class TestParameters:
    def test_golden_report(self, golden):
        report = parameters(golden, d=3)
        assert report.label == "[[4,1,3;1]]"
        assert report.rate == Fraction(0)
        assert report.correctable_weight == 1
        assert report.degenerate is False
        assert golden.k_enc == 2 * golden.classical.k - golden.n + golden.c

    def test_bowen_parameters_from_counts(self):
        report = CodeParameters.from_counts(n=3, k_enc=1, c=2, s=0, d=3)
        assert report.rate == Fraction(-1, 3)
        assert report.correctable_weight == 1
        assert report.label == "[[3,1,3;2]]"

    def test_rate_one_trivial_code(self):
        report = CodeParameters.from_counts(n=4, k_enc=4, c=0, s=0)
        assert report.rate == Fraction(1)
        assert report.label == "[[4,4;0]]"

    def test_min_isotropic_weight_golden(self, golden):
        # the three nonidentity isotropic-span elements all have weight 4
        assert min_isotropic_weight(golden) == 4
