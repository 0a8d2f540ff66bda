"""Tests for code construction from classical quaternary codes."""

import dataclasses
import pickle
import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import gf4
from eaqecc.analysis import min_distance_bruteforce
from eaqecc.cli import CodeFileError, load_code_file, parse_code_text
from eaqecc.builder import (
    ClassicalCode,
    CodeParameters,
    EaqeccCode,
    build_code,
    extend_generators,
    parameters,
    quaternary_to_stabilizer,
)
from eaqecc.pauli import (
    format_pauli,
    gf4_to_pauli,
    parse_pauli,
    pauli_to_gf4,
    symplectic_product,
)
from eaqecc.symplectic import (
    Decomposition,
    GeneratorSet,
    gram_schmidt_decompose,
    group_equal_up_to_phase,
    reduce_independent,
)

from helpers import (
    BENCH_CORPUS,
    random_classical_code,
    reference_chunked_distance,
    reference_gf4_rank,
    reference_min_isotropic_weight,
)

EQ6 = ["ZXZIZ", "ZZIZX", "YXXZI", "ZYYXI"]

# (n, rows): up to 6 rows of n GF(4) entries, dependent and zero rows allowed
_GF4_MATRICES = st.integers(1, 70).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[st.sampled_from(gf4.ELEMENTS)] * n), max_size=6)
    )
)


def _scaled_rows(rows):
    """The omega*H rows, then the omega-bar*H rows, each scaled and mapped entry by entry."""
    return [gf4_to_pauli(gf4.scale(row, s)) for s in (gf4.OMEGA, gf4.OMEGA_BAR) for row in rows]


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


_DEPENDENT = "parity-check rows are GF(4)-dependent"


def _check_rows_with_dependencies(rng: random.Random, n: int, m: int):
    """m rows of n entries: random rows mixed with zero rows, scalar multiples,
    repeats and sums of earlier rows, so that about half the sets are dependent."""
    rows = []
    for _ in range(m):
        kind = rng.randrange(6) if rows else 0
        if kind <= 1:
            row = tuple(rng.randrange(4) for _ in range(n))
        elif kind == 2:
            row = (0,) * n
        elif kind == 3:  # omega or omega-bar times an earlier row
            row = gf4.scale(rng.choice(rows), rng.choice((gf4.OMEGA, gf4.OMEGA_BAR)))
        elif kind == 4:
            row = rng.choice(rows)
        else:  # a GF(4) combination of two earlier rows
            a, b = rng.choice(rows), rng.choice(rows)
            s = rng.randrange(1, 4)
            row = tuple(x ^ gf4.mul(s, y) for x, y in zip(a, b))
        rows.append(row)
    rng.shuffle(rows)
    return rows


def _public_build(code: ClassicalCode) -> EaqeccCode:
    """build_code through the public steps, each run afresh."""
    generators = quaternary_to_stabilizer(code)
    decomp = gram_schmidt_decompose(generators)
    return EaqeccCode(
        n=code.n,
        c=decomp.c,
        s=decomp.s,
        k_enc=code.n - decomp.c - decomp.s,
        generators=generators,
        extended=extend_generators(decomp, code.n),
        decomposition=decomp,
        classical=code,
    )


class TestIndependenceCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_accepts_exactly_the_full_rank_checks(self, seed):
        rng = random.Random(seed)
        verdicts = set()
        for _ in range(100):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)  # k = n: no rows, always independent
            rows = _check_rows_with_dependencies(rng, n, n - k)
            independent = reference_gf4_rank(rows, n) == n - k
            verdicts.add(independent)
            text = f"{n} {k}\n" + "".join(" ".join(map(gf4.format_symbol, r)) + "\n" for r in rows)
            if independent:
                code = ClassicalCode.from_rows(n, k, rows)
                assert parse_code_text(text) == code
                continue
            with pytest.raises(ValueError) as exc:
                ClassicalCode.from_rows(n, k, rows)
            assert str(exc.value) == _DEPENDENT
            with pytest.raises(CodeFileError) as exc:
                parse_code_text(text)
            assert (str(exc.value), exc.value.line, exc.value.column) == (f"line 1: {_DEPENDENT}", 1, 0)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 0, 0)],
            [(1, 2, 3), (0, 0, 0)],
            [(1, 2, 0), (2, 3, 0)],  # omega times the first row
            [(1, 2, 0), (3, 1, 0)],  # omega-bar times the first row
            [(1, 2, 3), (1, 2, 3)],
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
        ],
        ids=["zero", "zero-second", "omega", "omega-bar", "repeat", "sum"],
    )
    def test_hand_cases(self, rows):
        with pytest.raises(ValueError) as exc:
            ClassicalCode.from_rows(3, 3 - len(rows), rows)
        assert str(exc.value) == _DEPENDENT

    def test_load_and_build_call_no_gf4_rank(self, monkeypatch):
        def no_rank(*args):
            pytest.fail("gf4.rank ran")

        monkeypatch.setattr(gf4, "rank", no_rank)
        for path in sorted(BENCH_CORPUS.glob("*.code")):
            codeq = build_code(load_code_file(str(path)).code)
            assert len(codeq.generators) == 2 * (codeq.classical.n - codeq.classical.k)


class TestReusedSweep:
    @pytest.mark.parametrize("name", sorted(p.stem for p in BENCH_CORPUS.glob("*.code")))
    def test_corpus_build_equals_public_steps(self, name):
        code = load_code_file(str(BENCH_CORPUS / f"{name}.code")).code
        assert build_code(code) == _public_build(code)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 1 << 32), n=st.integers(1, 12), data=st.data())
    def test_random_build_equals_public_steps(self, seed, n, data):
        code = random_classical_code(random.Random(seed), n, data.draw(st.integers(0, n)))
        assert build_code(code) == _public_build(code)

    def test_equal_codes_are_equal_and_hash_alike(self):
        rng = random.Random(31)
        for _ in range(20):
            code = random_classical_code(rng)
            twin = ClassicalCode.from_rows(code.n, code.k, [list(r) for r in code.h.entries])
            assert twin == code and hash(twin) == hash(code)
            assert repr(twin) == repr(code)
            assert "_sweep" not in repr(code)
            assert build_code(twin) == build_code(code)

    def test_pickle_and_replace_round_trip(self, h4_code):
        for code in (h4_code, random_classical_code(random.Random(5), 8, 3)):
            restored = pickle.loads(pickle.dumps(code))
            assert restored == code and hash(restored) == hash(code)
            assert build_code(restored) == build_code(code)
            replaced = dataclasses.replace(code)
            assert replaced == code
            assert build_code(replaced) == build_code(code)

    def test_replace_checks_again(self, h4_code):
        with pytest.raises(ValueError, match="dependent"):
            dataclasses.replace(h4_code, h=gf4.GfFourMatrix.from_rows([(1, 2, 1, 0)] * 2))
        other = dataclasses.replace(h4_code, h=gf4.GfFourMatrix.from_rows([(1, 1, 1, 1), (0, 1, 2, 3)]))
        assert build_code(other) == _public_build(other)


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

    @settings(max_examples=200, deadline=None)
    @given(matrix=_GF4_MATRICES)
    @example(matrix=(1, []))  # n = 1, k = n: no rows
    @example(matrix=(1, [(gf4.ZERO,)]))
    @example(matrix=(3, [(gf4.ZERO,) * 3, (gf4.ONE, gf4.OMEGA, gf4.OMEGA_BAR), (gf4.ZERO,) * 3]))
    def test_planes_match_scaling_each_entry(self, matrix):
        # the map is row by row, so any matrix will do, dependent rows
        # included: a stand-in with the two fields it reads skips the checks.
        # A zero row maps to the identity, which no generator set takes.
        n, rows = matrix
        code = SimpleNamespace(n=n, h=gf4.GfFourMatrix(n, tuple(rows)))
        if not all(any(row) for row in rows):
            with pytest.raises(ValueError, match="identity"):
                quaternary_to_stabilizer(code)
            return
        assert list(quaternary_to_stabilizer(code)) == _scaled_rows(rows)

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (3, 3), (5, 2), (6, 0)])
    def test_planes_match_scaling_on_codes(self, n, k):
        code = random_classical_code(random.Random(n * 7 + k), n, k)
        assert list(quaternary_to_stabilizer(code)) == _scaled_rows(code.h.entries)


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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 1 << 32), n=st.integers(1, 10), data=st.data())
    def test_generators_are_independent_as_built(self, seed, n, data):
        # the reason build_code keeps every row of quaternary_to_stabilizer
        k = data.draw(st.integers(0, n))
        code = random_classical_code(random.Random(seed), n, k)
        raw = quaternary_to_stabilizer(code)
        assert reduce_independent(raw) == raw
        assert len(build_code(code).generators) == 2 * (n - k)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 1 << 32))
    def test_entanglement_is_rank_of_h_h_dagger(self, seed):
        # Wilde-Brun (PRA 77, 064302): c = rank over GF(4) of H H^dagger,
        # where (H H^dagger)_ij = sum_l H_il * conj(H_jl)
        code = random_classical_code(random.Random(seed))
        h = [code.h.row(i) for i in range(code.h.nrows)]
        gram = [
            [reduce(gf4.add, (gf4.mul(a, gf4.conj(b)) for a, b in zip(u, v)), 0) for v in h]
            for u in h
        ]
        built = build_code(code)
        assert built.c == reference_gf4_rank(gram, len(h))
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
        assert report.degenerate is None  # decided by the distance search
        # the three nonidentity isotropic-span elements all have weight 4 > d
        assert min_distance_bruteforce(golden, 4).degenerate is False
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

    @settings(max_examples=80, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32))
    # the lightest isotropic-span element weighs d, as the first logical does
    @example(code_seed=1005)
    @example(code_seed=1133)
    def test_degenerate_matches_isotropic_span_scan(self, code_seed):
        codeq = _random_code(code_seed)
        dist = min_distance_bruteforce(codeq, codeq.n)
        if codeq.s == 0 or not dist.exact:
            assert dist.degenerate is None
        else:
            assert dist.degenerate == (reference_min_isotropic_weight(codeq) < dist.distance)

    @pytest.mark.parametrize("code_seed", [1005, 1133])
    def test_isotropic_element_of_weight_d_is_not_degenerate(self, code_seed):
        # the lightest isotropic-span element and the lightest logical
        # share a weight, so the code is not degenerate
        codeq = _random_code(code_seed)
        dist = min_distance_bruteforce(codeq, codeq.n)
        assert reference_min_isotropic_weight(codeq) == dist.distance
        assert dist.degenerate is False
        assert dist == reference_chunked_distance(codeq, codeq.n)

    def test_degenerate_yes_and_no(self):
        outcomes = set()
        for seed in range(60):
            codeq = _random_code(seed)
            outcomes.add(min_distance_bruteforce(codeq, codeq.n).degenerate)
            if len(outcomes) == 3:
                break
        assert outcomes == {True, False, None}


def _random_code(seed: int):
    """A built random code on 2 to 8 qubits with 0 to n - 1 classical dimensions."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    return build_code(random_classical_code(rng, n, rng.randint(0, n - 1)))


def test_random_code_draws_are_bounded(monkeypatch):
    # a gf4.rank that under-reports fails the draw instead of hanging the suite
    monkeypatch.setattr(gf4, "rank", lambda rows, ncols: 0)
    with pytest.raises(RuntimeError, match="in 1000 draws"):
        random_classical_code(random.Random(0), 4, 2)
