"""Tests for the depolarizing-channel Monte Carlo and syndrome-table decoder."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import gf4, simulate
from eaqecc.analysis import in_isotropic, syndrome_of
from eaqecc.builder import ClassicalCode, build_code
from eaqecc.pauli import (
    PauliString,
    format_pauli,
    identity,
    iter_paulis_of_weight,
    iter_paulis_up_to_weight,
    parse_pauli,
)
from eaqecc.simulate import (
    CatalyticLedger,
    CounterRng,
    DepolarizingChannel,
    InfeasibleError,
    SyndromeTable,
    build_syndrome_table,
    catalytic_schedule,
    decode_error,
    run_trials,
    sample_error,
    trial_report,
)
from eaqecc.simulate import _sample_block

from helpers import random_classical_code


def _lex_key(p):
    """Tie-break order of the syndrome table: (x|z) bits, qubit 0 first."""
    return tuple((p.x >> j) & 1 for j in range(p.n)) + tuple(
        (p.z >> j) & 1 for j in range(p.n)
    )


def _decode_one_by_one(codeq, table, ch, trials, seed):
    """run_trials' counts from sample_error and decode_error, trial by trial."""
    failures = degenerate = violations = 0
    zero = (0,) * len(codeq.generators)
    for t in range(trials):
        outcome = decode_error(codeq, table, sample_error(ch, codeq.n, CounterRng(seed, t)))
        if not outcome.success:
            failures += 1
        elif not outcome.residual.is_identity():
            degenerate += 1
        if outcome.known_syndrome and syndrome_of(codeq, outcome.residual) != zero:
            violations += 1
    return simulate.TrialResult(trials, failures, degenerate, seed, violations)


class TestDepolarizingChannel:
    def test_validation(self):
        DepolarizingChannel(0.0)
        DepolarizingChannel(1.0)
        with pytest.raises(ValueError, match="outside"):
            DepolarizingChannel(1.5)
        with pytest.raises(ValueError, match="outside"):
            DepolarizingChannel(-0.01)


class TestSampleError:
    def test_p_zero_always_identity(self):
        ch = DepolarizingChannel(0.0)
        for t in range(20):
            assert sample_error(ch, 5, CounterRng(3, t)).is_identity()

    def test_p_one_never_identity_per_qubit(self):
        ch = DepolarizingChannel(1.0)
        for t in range(20):
            e = sample_error(ch, 5, CounterRng(3, t))
            assert e.weight == 5

    def test_marginals_close_to_p_over_three(self):
        # p = 0.3, 1e5 single-qubit samples: each letter frequency 0.1 +- 0.005;
        # the block sampler draws exactly what sample_error would (tested below)
        trials = 100000
        _, ex, ez = _sample_block(0.3, 1, 123, 0, trials)
        x, z = ex[:, 0] == 1, ez[:, 0] == 1
        counts = {"X": x & ~z, "Y": x & z, "Z": ~x & z}
        for letter in "XYZ":
            assert abs(np.count_nonzero(counts[letter]) / trials - 0.1) < 0.005

    def test_works_with_numpy_generator(self):
        rng = np.random.default_rng(0)
        e = sample_error(DepolarizingChannel(0.5), 8, rng)
        assert e.n == 8

    def test_counter_rng_is_reproducible_and_streamed(self):
        a = CounterRng(9, 4).random(6)
        b = CounterRng(9, 4).random(6)
        assert np.array_equal(a, b)
        c = CounterRng(9, 5).random(6)
        assert not np.array_equal(a, c)
        # consuming in pieces matches consuming at once
        rng = CounterRng(9, 4)
        parts = np.concatenate([rng.random(2), rng.random(4)])
        assert np.array_equal(a, parts)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        n=st.integers(1, 6),
        seed=st.integers(0, (1 << 64) - 1),
        t_lo=st.integers(0, 1 << 40),
        b=st.integers(0, 40),
    )
    # 0.25 * 2**53 is an integer, which ceil must leave as the hit threshold
    @example(p=0.0, n=3, seed=1, t_lo=0, b=40)
    @example(p=1.0, n=3, seed=1, t_lo=5, b=40)
    @example(p=1e-9, n=6, seed=2, t_lo=1 << 33, b=40)
    @example(p=0.25, n=6, seed=3, t_lo=100, b=40)
    def test_block_sampler_matches_per_trial_sampler(self, p, n, seed, t_lo, b):
        ch = DepolarizingChannel(p)
        hit, ex, ez = _sample_block(p, n, seed, t_lo, t_lo + b)
        assert ex.shape == ez.shape == (len(hit), n)
        drawn = {int(t): (ex[i], ez[i]) for i, t in enumerate(hit)}
        assert list(drawn) == sorted(drawn)
        for t in range(t_lo, t_lo + b):
            scalar = sample_error(ch, n, CounterRng(seed, t))
            if t not in drawn:
                assert scalar.is_identity()
                continue
            x = sum(int(bit) << j for j, bit in enumerate(drawn[t][0]))
            z = sum(int(bit) << j for j, bit in enumerate(drawn[t][1]))
            assert (scalar.x, scalar.z) == (x, z) and not scalar.is_identity()


class TestSyndromeTable:
    def test_golden_weight_one(self, golden):
        table = build_syndrome_table(golden, 1)
        assert len(table) == 13
        assert table.lookup((0, 0, 0, 0)) == identity(4)

    def test_weight_zero(self, golden):
        table = build_syndrome_table(golden, 0)
        assert len(table) == 1

    def test_golden_weight_two_saturates(self, golden):
        table = build_syndrome_table(golden, 2)
        assert len(table) == 16
        assert len(table) <= 2 ** 4

    def test_entries_consistent(self, golden):
        table = build_syndrome_table(golden, 2)
        for syndrome, correction in table.entries.items():
            assert syndrome_of(golden, correction) == syndrome

    def test_entries_minimum_weight(self, golden):
        table = build_syndrome_table(golden, 3)
        best = {}
        for p in iter_paulis_up_to_weight(4, 3):
            s = syndrome_of(golden, p)
            if s not in best or p.weight < best[s]:
                best[s] = p.weight
        for syndrome, correction in table.entries.items():
            assert correction.weight == best[syndrome]

    def test_lexicographic_tie_break(self, golden):
        table = build_syndrome_table(golden, 2)
        for syndrome, correction in table.entries.items():
            ties = [
                p
                for p in iter_paulis_of_weight(4, correction.weight)
                if syndrome_of(golden, p) == syndrome
            ]
            assert min(ties, key=_lex_key) == correction

    def test_negative_weight_rejected(self, golden):
        with pytest.raises(ValueError, match="max_weight"):
            build_syndrome_table(golden, -1)

    def test_full_table_stops_early_unchanged(self, golden, monkeypatch):
        # every syndrome of the golden code appears by weight 2
        reference = {}
        for w in range(4):
            for p in sorted(iter_paulis_of_weight(4, w), key=_lex_key):
                reference.setdefault(syndrome_of(golden, p), p)
        assert len(reference) == 2 ** len(golden.generators)
        weights = []

        def recording(n, w):
            weights.append(w)
            return iter_paulis_of_weight(n, w)

        monkeypatch.setattr(simulate, "iter_paulis_of_weight", recording)
        table = build_syndrome_table(golden, 3)
        assert weights == [0, 1, 2]
        assert table.entries == reference
        assert list(table.entries) == list(reference)
        assert table.max_weight_built == 3


class TestDecodeError:
    def test_weight_one_errors_corrected_exactly(self, golden):
        table = build_syndrome_table(golden, 1)
        for e in iter_paulis_up_to_weight(4, 1):
            outcome = decode_error(golden, table, e)
            assert outcome.success
            assert outcome.residual.is_identity()

    def test_unknown_syndrome_fails(self, golden):
        table = build_syndrome_table(golden, 1)
        # find a weight-2 error whose syndrome is not in the weight-1 table
        unknown = next(
            e
            for e in iter_paulis_of_weight(4, 2)
            if table.lookup(syndrome_of(golden, e)) is None
        )
        outcome = decode_error(golden, table, unknown)
        assert not outcome.success
        assert not outcome.known_syndrome

    def test_degenerate_success(self, golden):
        # any error equal to correction * isotropic element succeeds
        table = build_syndrome_table(golden, 2)
        iso = golden.decomposition.isotropic[0]
        corr = next(c for c in table.entries.values() if c.weight == 1)
        shifted = PauliString(4, corr.x ^ iso.x, corr.z ^ iso.z)
        outcome = decode_error(golden, table, shifted)
        assert outcome.success
        assert not outcome.residual.is_identity()
        assert in_isotropic(golden, outcome.residual)


class TestRunTrials:
    def test_p_zero_no_failures(self, golden):
        table = build_syndrome_table(golden, 1)
        result = run_trials(golden, DepolarizingChannel(0.0), table, 5000, seed=1)
        assert result.logical_failures == 0
        assert result.successes == 5000

    def test_deterministic_across_runs_and_workers(self, golden):
        table = build_syndrome_table(golden, 2)
        ch = DepolarizingChannel(0.05)
        base = run_trials(golden, ch, table, 30000, seed=9)
        again = run_trials(golden, ch, table, 30000, seed=9)
        assert base == again
        for workers in (2, 3, 7):
            split = run_trials(golden, ch, table, 30000, seed=9, workers=workers)
            assert split == base

    @pytest.mark.parametrize("max_weight", [1, 2])
    def test_matches_scalar_decode(self, golden, max_weight):
        # max_weight=1 leaves three syndromes unknown, exercising that path
        table = build_syndrome_table(golden, max_weight)
        ch = DepolarizingChannel(0.2)
        result = run_trials(golden, ch, table, 2000, seed=5)
        assert result == _decode_one_by_one(golden, table, ch, 2000, 5)

    @settings(max_examples=25, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32),
        depth=st.integers(0, 2),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 1 << 32),
    )
    def test_random_codes_match_scalar_decode(self, code_seed, depth, p, seed):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        table = build_syndrome_table(codeq, depth)
        ch = DepolarizingChannel(p)
        expected = _decode_one_by_one(codeq, table, ch, 150, seed)
        for workers in (1, 3):
            assert run_trials(codeq, ch, table, 150, seed, workers) == expected

    @pytest.mark.parametrize("edit", ["no_zero", "zero_isotropic", "corrupt", "corrupt_zero"])
    def test_hand_built_tables_match_scalar_decode(self, golden, edit):
        entries = dict(build_syndrome_table(golden, 1).entries)
        zero = (0,) * len(golden.generators)
        if edit == "no_zero":  # a trial without an error has an unknown syndrome
            del entries[zero]
            quiet = (1, 0, 0)
        elif edit == "zero_isotropic":  # ... or a degenerate success
            entries[zero] = golden.decomposition.isotropic[0]
            quiet = (0, 1, 0)
        else:  # one entry whose correction does not have its syndrome
            s1, s2 = [s for s in entries if s != zero][:2]
            if edit == "corrupt_zero":
                s1 = zero
            entries[s1] = entries[s2]
            quiet = (1, 0, 1) if s1 == zero else (0, 0, 0)
        table = SyndromeTable(entries, 1)
        idle = run_trials(golden, DepolarizingChannel(0.0), table, 500, seed=2)
        counts = (idle.logical_failures, idle.residual_in_isotropic, idle.residual_syndrome_nonzero)
        assert counts == tuple(500 * q for q in quiet)
        ch = DepolarizingChannel(0.1)
        expected = _decode_one_by_one(golden, table, ch, 3000, 7)
        if edit == "corrupt":
            assert expected.residual_syndrome_nonzero > 0
        for workers in (1, 3):
            assert run_trials(golden, ch, table, 3000, 7, workers) == expected

    def test_residual_syndromes_always_zero(self, golden):
        table = build_syndrome_table(golden, 2)
        result = run_trials(golden, DepolarizingChannel(0.3), table, 50000, seed=2)
        assert result.residual_syndrome_nonzero == 0

    def test_failure_rate_monotone_in_p(self, golden):
        table = build_syndrome_table(golden, 2)
        rates = []
        for p in (0.02, 0.1, 0.3, 0.6):
            result = run_trials(golden, DepolarizingChannel(p), table, 40000, seed=3)
            rates.append(result.failure_rate)
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]

    def test_weight_capped_table_never_misses_correctable(self, golden):
        # distance 3, t = 1: injected weight-1 errors never fail
        table = build_syndrome_table(golden, 1)
        for e in iter_paulis_up_to_weight(4, 1):
            assert decode_error(golden, table, e).success

    def test_empty_generator_code(self):
        built = build_code(ClassicalCode.from_rows(2, 2, []))
        table = build_syndrome_table(built, 1)
        result = run_trials(built, DepolarizingChannel(0.5), table, 1000, seed=8)
        # no stabilizer: every nonidentity error is an uncorrectable failure
        failures = sum(
            0 if sample_error(DepolarizingChannel(0.5), 2, CounterRng(8, t)).is_identity() else 1
            for t in range(1000)
        )
        assert result.logical_failures == failures

    def test_empty_table_fails_every_trial(self, golden):
        result = run_trials(golden, DepolarizingChannel(0.0), SyndromeTable({}, 0), 100, seed=1)
        assert (result.logical_failures, result.residual_in_isotropic) == (100, 0)

    def test_validation(self, golden):
        table = build_syndrome_table(golden, 1)
        with pytest.raises(ValueError, match="trials"):
            run_trials(golden, DepolarizingChannel(0.1), table, -1, seed=0)
        with pytest.raises(ValueError, match="workers"):
            run_trials(golden, DepolarizingChannel(0.1), table, 10, seed=0, workers=0)

    @pytest.mark.parametrize("m", [62, 64, 66])
    def test_wide_code_matches_scalar_decode(self, m):
        # 64 generators fill an 8-byte syndrome key exactly; 66 need a ninth
        # byte.  The last parity row acts alone on the last three qubits, so
        # single-qubit errors there differ only in generators m/2 - 1 and
        # m - 1: the top syndrome bit alone tells some table entries apart.
        head = random_classical_code(random.Random(m), m // 2 + 1, 2)
        rows = [head.h.row(i) + (0, 0, 0) for i in range(head.h.nrows)]
        rows.append((0,) * head.n + (gf4.ONE, gf4.OMEGA, gf4.OMEGA_BAR))
        n = head.n + 3
        built = build_code(ClassicalCode.from_rows(n, n - m // 2, rows))
        assert len(built.generators) == m
        table = build_syndrome_table(built, 1)
        ch = DepolarizingChannel(0.02)
        result = run_trials(built, ch, table, 300, seed=6)
        assert 0 < result.logical_failures < 300
        assert result.residual_syndrome_nonzero == 0
        assert result == _decode_one_by_one(built, table, ch, 300, 6)
        assert result == run_trials(built, ch, table, 300, seed=6, workers=3)

    def test_report_lines(self, golden):
        table = build_syndrome_table(golden, 1)
        result = run_trials(golden, DepolarizingChannel(0.0), table, 10, seed=4)
        report = trial_report(result, golden)
        assert "trials=10" in report
        assert "failures=0" in report
        assert "seed=4" in report
        assert all("=" in line or ":" in line for line in report.splitlines())


class TestCatalytic:
    def test_golden_zero_net(self, golden):
        ledger = catalytic_schedule(golden.n, golden.k_enc, golden.c, rounds=3, initial_ebits=1)
        assert ledger.net_qubits_delivered == (0, 0, 0)
        assert ledger.ebits_held == (1, 1, 1)
        assert ledger.total_delivered == 0

    def test_c_zero_needs_no_entanglement(self):
        ledger = catalytic_schedule(5, 3, 0, rounds=4, initial_ebits=0)
        assert ledger.net_qubits_delivered == (3, 3, 3, 3)
        assert ledger.total_delivered == 12

    def test_hypothetical_831(self):
        ledger = catalytic_schedule(8, 3, 1, rounds=5, initial_ebits=2)
        assert ledger.total_delivered == 10
        assert ledger.ebits_held == (2,) * 5

    def test_infeasible_without_seed_entanglement(self):
        with pytest.raises(InfeasibleError, match="ebits"):
            catalytic_schedule(4, 1, 1, rounds=1, initial_ebits=0)

    def test_negative_net_allowed(self):
        ledger = catalytic_schedule(3, 1, 2, rounds=2, initial_ebits=2)
        assert ledger.net_qubits_delivered == (-1, -1)

    def test_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            catalytic_schedule(4, 1, 1, rounds=-1, initial_ebits=1)
        with pytest.raises(ValueError, match="inconsistent"):
            catalytic_schedule(2, 2, 1, rounds=1, initial_ebits=1)
