"""Tests for syndromes, distance search, correctability, and bounds."""

import itertools
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import analysis, frames, gf2
from eaqecc.analysis import (
    check_correctable_set,
    hashing_rates,
    in_isotropic,
    min_distance_bruteforce,
    nondegenerate_distinct_syndromes,
    singleton_report,
    syndrome_of,
)
from eaqecc.builder import ClassicalCode, build_code
from eaqecc.cli import load_code_file
from eaqecc.pauli import (
    PauliString,
    identity,
    iter_paulis_of_weight,
    iter_paulis_up_to_weight,
    multiply,
    parse_pauli,
)

from eaqecc.symplectic import _swap_halves

from helpers import (
    BENCH_CORPUS,
    isotropic_span_rows,
    random_classical_code,
    random_pauli,
    reference_chunked_distance,
    reference_correctable_set,
    reference_distinct_syndromes,
    reference_min_distance,
    reference_min_isotropic_weight,
)


class TestSyndrome:
    def test_x_on_first_qubit(self, golden):
        assert syndrome_of(golden, parse_pauli("XIII")) == (1, 1, 0, 0)

    def test_identity_syndrome_is_zero(self, golden):
        assert syndrome_of(golden, identity(4)) == (0, 0, 0, 0)

    def test_isotropic_elements_have_zero_syndrome(self, golden):
        iso = golden.decomposition.isotropic
        assert syndrome_of(golden, iso[0]) == (0, 0, 0, 0)
        assert syndrome_of(golden, multiply(iso[0], iso[1])) == (0, 0, 0, 0)

    def test_linearity(self, golden):
        rng = random.Random(51)
        for _ in range(100):
            a = PauliString(4, rng.getrandbits(4), rng.getrandbits(4))
            b = PauliString(4, rng.getrandbits(4), rng.getrandbits(4))
            sa = syndrome_of(golden, a)
            sb = syndrome_of(golden, b)
            sab = syndrome_of(golden, multiply(a, b))
            assert sab == tuple(x ^ y for x, y in zip(sa, sb))

    def test_dimension_mismatch(self, golden):
        with pytest.raises(ValueError, match="qubits"):
            syndrome_of(golden, parse_pauli("XX"))


class TestInIsotropic:
    def test_product_of_isotropic_generators(self, golden):
        iso = golden.decomposition.isotropic
        assert in_isotropic(golden, multiply(iso[0], iso[1]))

    def test_identity(self, golden):
        assert in_isotropic(golden, identity(4))

    def test_pair_generator_is_not(self, golden):
        assert not in_isotropic(golden, parse_pauli("ZXZI"))

    def test_matches_exhaustive_span(self, golden):
        span = isotropic_span_rows(golden)
        for p in iter_paulis_up_to_weight(4, 4):
            assert in_isotropic(golden, p) == (p.row() in span)

    def test_ignores_phase(self, golden):
        iso = golden.decomposition.isotropic[0]
        flipped = PauliString(4, iso.x, iso.z, (iso.phase_exp + 2) % 4)
        assert in_isotropic(golden, flipped)


def weight_le_one_errors(n):
    return [identity(n)] + list(iter_paulis_of_weight(n, 1))


class TestCheckCorrectableSet:
    def test_golden_corrects_any_single_error(self, golden):
        report = check_correctable_set(golden, weight_le_one_errors(4))
        assert report.correctable and report
        assert report.witness is None

    def test_identity_alone(self, golden):
        assert check_correctable_set(golden, [identity(4)]).correctable

    def test_logical_operator_witness(self, golden):
        # brute-force a weight-3 element of the centralizer outside the span
        span = isotropic_span_rows(golden)
        zero = (0, 0, 0, 0)
        logical = next(
            p
            for p in iter_paulis_of_weight(4, 3)
            if syndrome_of(golden, p) == zero and p.row() not in span
        )
        report = check_correctable_set(golden, [identity(4), logical])
        assert not report.correctable
        a, b = report.witness
        assert {a, b} == {identity(4), logical}


class TestMinDistance:
    def test_golden_distance_three(self, golden):
        result = min_distance_bruteforce(golden, 4)
        assert result.exact and result.distance == 3

    def test_classical_distance_carries_over(self, golden):
        # the [4,2,3] classical source and its quantum image share d = 3
        assert min_distance_bruteforce(golden, 4).distance == 3

    def test_empty_stabilizer_distance_one(self):
        built = build_code(ClassicalCode.from_rows(1, 1, []))
        result = min_distance_bruteforce(built, 1)
        assert result.distance == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_generators_matches_oracles(self, n):
        # m = 0: the syndrome mask is one all-zero key word, so every
        # nonidentity Pauli is an undetected logical
        built = build_code(ClassicalCode.from_rows(n, n, []))
        assert not built.generators
        for cap in range(1, n + 1):
            result = min_distance_bruteforce(built, cap)
            assert result == reference_min_distance(built, cap)
            assert result == reference_chunked_distance(built, cap)

    def test_cap_gives_lower_bound(self, golden):
        result = min_distance_bruteforce(golden, 1)
        assert not result.exact
        assert result.lower_bound == 2
        assert str(result) == ">= 2"

    def test_cap_validation(self, golden):
        with pytest.raises(ValueError, match="weight_cap"):
            min_distance_bruteforce(golden, 0)

    def test_matches_letter_string_oracle(self):
        # independent oracle built on Pauli letter strings: commutation by
        # counting differing non-identity letters, span by exhaustive XOR
        def letters(p):
            return "".join(p.letter(j) for j in range(p.n))

        def anticommutes(s1, s2):
            count = sum(
                1 for a, b in zip(s1, s2) if a != "I" and b != "I" and a != b
            )
            return count % 2 == 1

        rng = random.Random(54)
        for _ in range(25):
            codeq = build_code(random_classical_code(rng, n=rng.randint(2, 4)))
            n = codeq.n
            gen_strings = [letters(g) for g in codeq.generators]
            span_rows = isotropic_span_rows(codeq)
            oracle = None
            for weight in range(1, n + 1):
                hits = [
                    p
                    for p in iter_paulis_of_weight(n, weight)
                    if not any(anticommutes(letters(p), g) for g in gen_strings)
                    and p.row() not in span_rows
                ]
                if hits:
                    oracle = weight
                    break
            result = min_distance_bruteforce(codeq, n)
            assert result.distance == oracle

    def test_distance_implies_correctable(self):
        rng = random.Random(52)
        checked = 0
        for _ in range(40):
            built = build_code(random_classical_code(rng, n=rng.randint(2, 5)))
            result = min_distance_bruteforce(built, min(built.n, 4))
            if result.lower_bound >= 3:
                checked += 1
                assert check_correctable_set(built, weight_le_one_errors(built.n))
        assert checked > 0


class TestDistinctSyndromes:
    def test_golden_twelve_distinct(self, golden):
        assert nondegenerate_distinct_syndromes(golden, 1)
        syndromes = {syndrome_of(golden, e) for e in iter_paulis_of_weight(4, 1)}
        assert len(syndromes) == 12
        assert (0, 0, 0, 0) not in syndromes

    def test_t_zero_vacuous(self, golden):
        assert nondegenerate_distinct_syndromes(golden, 0)

    def test_weight_two_collides(self, golden):
        # 66 errors of weight <= 2 cannot fit in 15 nonzero syndromes
        assert not nondegenerate_distinct_syndromes(golden, 2)

    def test_negative_t_rejected(self, golden):
        with pytest.raises(ValueError, match="t must"):
            nondegenerate_distinct_syndromes(golden, -1)


class TestConditionEquivalence:
    def test_correctable_iff_distinct_or_degenerate_pairs(self):
        # weight-1 correctability equals: every same-syndrome pair of
        # weight <= 1 errors (and every zero-syndrome error) is degenerate
        rng = random.Random(53)
        for _ in range(60):
            built = build_code(random_classical_code(rng, n=rng.randint(2, 5)))
            errors = weight_le_one_errors(built.n)
            correctable = bool(check_correctable_set(built, errors))
            if nondegenerate_distinct_syndromes(built, 1):
                assert correctable
            else:
                span = isotropic_span_rows(built)
                pairs_ok = True
                for a, b in itertools.combinations(errors, 2):
                    if syndrome_of(built, a) == syndrome_of(built, b):
                        if (a.row() ^ b.row()) not in span:
                            pairs_ok = False
                            break
                assert correctable == pairs_ok


class TestSearchesMatchOracles:
    """The signature-word searches against their one-PauliString-at-a-time oracles."""

    @settings(max_examples=80, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), cap=st.integers(1, 6))
    def test_distance(self, code_seed, cap):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        assert min_distance_bruteforce(codeq, cap) == reference_min_distance(codeq, cap)

    def test_distance_found_and_not_found(self):
        outcomes = set()
        rng = random.Random(55)
        for _ in range(30):
            codeq = build_code(random_classical_code(rng))
            cap = rng.randint(1, 3)
            result = min_distance_bruteforce(codeq, cap)
            assert result == reference_min_distance(codeq, cap)
            outcomes.add(result.exact)
        assert outcomes == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32),
        n=st.integers(2, 7),
        gap=st.integers(1, 3),
        cap=st.integers(1, 7),
    )
    def test_distance_few_syndrome_bits(self, code_seed, n, gap, cap):
        # k near n leaves few syndrome bits, so many Paulis share each
        # syndrome and signature; caps up to n include searches that find nothing
        codeq = build_code(random_classical_code(random.Random(code_seed), n, max(0, n - gap)))
        cap = min(cap, n)
        result = min_distance_bruteforce(codeq, cap)
        assert result == reference_chunked_distance(codeq, cap)
        assert result == reference_min_distance(codeq, cap)

    @settings(max_examples=80, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32),
        n=st.integers(1, 7),
        cap=st.integers(1, 7),
    )
    def test_lightest(self, code_seed, n, cap):
        # the two numbers every analyze answer reads: the lightest logical's
        # weight, and the lightest isotropic-span weight when it is lighter
        rng = random.Random(code_seed)
        codeq = build_code(random_classical_code(rng, n, rng.randint(0, n)))
        cap = min(cap, n)
        logical = reference_min_distance(codeq, cap).distance
        isotropic = reference_min_isotropic_weight(codeq)
        if isotropic is not None and isotropic >= (logical or cap + 1):
            isotropic = None
        assert analysis._lightest(codeq, cap) == (logical, isotropic)

    @pytest.mark.parametrize(
        "name, top",
        [("h4", 4), ("d5", 8), ("h22", 5), ("r16", 4), ("r20", 4), ("r24", 4)],
    )
    def test_distance_bench_corpus(self, name, top):
        codeq = build_code(load_code_file(str(BENCH_CORPUS / f"{name}.code")).code)
        for cap in range(1, top + 1):
            assert min_distance_bruteforce(codeq, cap) == reference_chunked_distance(codeq, cap)

    # the walk's levels XORed 2 rows of below at a time (W = 1), up to
    # weight 3: d5's distance 5 is found there, while h22's weight-2
    # logical stops its walk at weight 1, so its halves are compared whole
    @pytest.mark.parametrize("name", ["d5", "h22"])
    def test_walk_in_chunks_of_a_few_rows(self, monkeypatch, name):
        codeq = build_code(load_code_file(str(BENCH_CORPUS / f"{name}.code")).code)
        letters = frames._letter_table(frames._checks(codeq, basis=False)[0])

        def walk():
            halves = [(d, words.tolist(), split) for d, words, split in analysis._halves(letters, 6)]
            return halves, analysis._lightest(codeq, 8)

        want = walk()
        monkeypatch.setattr(frames, "_CHUNK", 3 * 2)
        monkeypatch.setattr(frames, "_SHORT", 0)
        assert walk() == want

    def test_walk_memory_is_bounded(self):
        # the walk of `analyze n64 --weight-cap 1 --t 3` to D = 6: n64's
        # weight-3 level is 1.12M rows of 2 words, about 36 MB.  Ranking its
        # keys word by word through np.unique peaked at 100.6 MB traced here
        # (numpy 2.4, CPython 3.11), and ranking them on one sorted order at
        # 73.6 MB.  The bound is the latter plus 5%, so a faster rank cannot
        # buy its time with scratch the size of a level.
        codeq = build_code(load_code_file(str(BENCH_CORPUS / "n64.code")).code)
        analysis._lightest(codeq, 2)  # first-call allocations, outside the trace
        tracemalloc.start()
        try:
            found = analysis._lightest(codeq, 6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == (None, None)
        assert peak < 1.05 * 73.6e6, peak
        assert held < 1e6, held

    @settings(max_examples=80, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), t=st.integers(0, 3))
    @example(code_seed=0, t=3)
    def test_distinct_syndromes(self, code_seed, t):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        assert nondegenerate_distinct_syndromes(codeq, t) == reference_distinct_syndromes(codeq, t)

    def test_distinct_syndromes_yes_and_no(self):
        outcomes = set()
        rng = random.Random(56)
        for _ in range(30):
            code = random_classical_code(rng, n=rng.randint(3, 7), k=rng.randint(0, 2))
            codeq = build_code(code)
            t = rng.randint(1, 2)
            distinct = nondegenerate_distinct_syndromes(codeq, t)
            assert distinct == reference_distinct_syndromes(codeq, t)
            outcomes.add(distinct)
        assert outcomes == {True, False}

    def test_distinct_syndromes_stop_early(self, golden):
        # the twin code's two weight-1 Paulis with one syndrome collide at
        # D = 2, so only weight 1 is enumerated; golden's first collision
        # pairs a weight-2 and a weight-1 Pauli (D = 3): each weight once,
        # and weight 3 never
        twin = build_code(ClassicalCode.from_rows(2, 1, [(1, 1)]))
        level = analysis._level
        for codeq, expected in ((twin, [1]), (golden, [1, 2])):
            weights = []

            def recording(letters, w, below):
                weights.append(w)
                return level(letters, w, below)

            with mock.patch.object(analysis, "_level", recording):
                assert not nondegenerate_distinct_syndromes(codeq, 3)
            assert weights == expected

    @settings(max_examples=60, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), n=st.integers(1, 6), t=st.integers(0, 3))
    def test_distinct_syndromes_iff_no_zero_syndrome_up_to_2t(self, code_seed, n, t):
        # errors of weight <= t have distinct nonzero syndromes exactly when
        # no nonidentity Pauli of weight <= 2t has a zero syndrome
        rng = random.Random(code_seed)
        codeq = build_code(random_classical_code(rng, n, rng.randint(0, n)))
        zero = (0,) * len(codeq.generators)
        undetected = any(
            syndrome_of(codeq, p) == zero
            for p in iter_paulis_up_to_weight(n, 2 * t)
            if p.weight
        )
        assert nondegenerate_distinct_syndromes(codeq, t) == (not undetected)

    @settings(max_examples=80, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), size=st.integers(0, 12))
    def test_correctable_set_witness(self, code_seed, size):
        rng = random.Random(code_seed)
        codeq = build_code(random_classical_code(rng))
        errors = [random_pauli(rng, codeq.n) for _ in range(size)]
        errors += rng.sample(errors, min(2, size))  # repeats pair to the identity
        report = check_correctable_set(codeq, errors)
        assert report == reference_correctable_set(codeq, errors)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_wide_code(self, seed):
        # 66 generators and n = 36: two words of syndrome and of signature;
        # seed 6 gives k_enc = 0, so nothing that commutes with S is logical
        codeq = build_code(random_classical_code(random.Random(seed), 36, 3))
        assert len(codeq.generators) == 66
        assert min_distance_bruteforce(codeq, 2) == reference_min_distance(codeq, 2)
        assert nondegenerate_distinct_syndromes(codeq, 2) == reference_distinct_syndromes(codeq, 2)
        # random errors are detected: add operators that commute with S
        swapped = [_swap_halves(g.row(), 36) for g in codeq.generators]
        commuting = [PauliString.from_row(36, v) for v in gf2.nullspace(swapped, 72)]
        rng = random.Random(seed)
        errors = [random_pauli(rng, 36) for _ in range(20)]
        errors[10:10] = list(codeq.decomposition.isotropic[:1]) + commuting[:3]
        report = check_correctable_set(codeq, errors)
        assert report.correctable == (codeq.k_enc == 0)
        assert report == reference_correctable_set(codeq, errors)

    def test_correctable_set_rejects_wrong_size(self, golden):
        with pytest.raises(ValueError, match="qubits"):
            check_correctable_set(golden, [parse_pauli("XX")])


class TestSingleton:
    def test_saturating_code(self):
        report = singleton_report(4, 2, 3, 1)
        assert report.singleton_classical_slack == 0
        assert report.singleton_quantum_slack == 0
        assert report.classical_saturated and report.quantum_saturated

    def test_hamming_like(self):
        report = singleton_report(7, 4, 3)
        assert report.singleton_classical_slack == 1
        assert report.singleton_quantum_slack == 2
        assert not report.classical_saturated

    def test_distance_one(self):
        report = singleton_report(6, 2, 1)
        assert report.singleton_classical_slack == 4
        assert report.singleton_quantum_slack == 8

    def test_includes_hashing_table(self):
        report = singleton_report(4, 2, 3, 1, f_list=(0.0, 0.1))
        assert len(report.hashing_rate_at) == 2
        assert report.hashing_rate_at[0] == (0.0, 1.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="invalid"):
            singleton_report(3, 5, 2)


class TestHashingRates:
    def test_noiseless(self):
        assert hashing_rates(0.0) == (1.0, 1.0)

    def test_f_point_one(self):
        # independent evaluation of 1 - (H_2(f) + f log2 3)
        f = 0.1
        h2 = -f * math.log2(f) - (1 - f) * math.log2(1 - f)
        expected = 1.0 - (h2 + f * math.log2(3.0))
        _, r_q = hashing_rates(f)
        assert abs(r_q - expected) < 1e-12
        assert abs(r_q - 0.3725081563386032) < 1e-12
        assert round(r_q, 4) == 0.3725

    def test_capacity_zero_point(self):
        r_c, r_q = hashing_rates(0.75)
        assert abs(r_c) < 1e-12
        assert abs(r_q + 1.0) < 1e-12

    def test_identity_between_rates_over_sweep(self):
        for i in range(0, 76):
            f = i / 100.0
            r_c, r_q = hashing_rates(f)
            assert abs(r_q - (2 * r_c - 1)) < 1e-12
            if 0.0 < f < 1.0:
                h2 = -f * math.log2(f) - (1 - f) * math.log2(1 - f)
                assert abs(r_q - (1 - h2 - f * math.log2(3))) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            hashing_rates(1.5)
        with pytest.raises(ValueError, match="outside"):
            hashing_rates(-0.1)
