"""Tests for the depolarizing-channel Monte Carlo and syndrome-table decoder."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import frames, gf2, gf4, simulate
from eaqecc.analysis import in_isotropic, syndrome_of
from eaqecc.builder import ClassicalCode, build_code
from eaqecc.cli import load_code_file
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
from eaqecc.simulate import _BlockDecoder, _Buffers, _sample_block
from eaqecc.symplectic import _swap_halves

from helpers import (
    BENCH_CORPUS,
    _splitmix64,
    random_classical_code,
    random_pauli,
    reference_syndrome_table,
    reference_uniforms,
)


def _lex_key(p):
    """Tie-break order of the syndrome table: (x|z) bits, qubit 0 first."""
    return tuple((p.x >> j) & 1 for j in range(p.n)) + tuple(
        (p.z >> j) & 1 for j in range(p.n)
    )


def _xz_letters(n):
    """Sampler table of the (x|z) unit words: X_j sets bit j, Z_j bit n + j."""
    table = np.zeros((n, 3, -(-2 * n // 64)), dtype=np.uint64)
    for j in range(n):
        for kind, (x, z) in enumerate([(1, 0), (1, 1), (0, 1)]):
            row = (x << j) | (z << (n + j))
            for w in range(table.shape[2]):
                table[j, kind, w] = (row >> (64 * w)) & ((1 << 64) - 1)
    return table


def _row(words):
    """The int whose little-endian uint64 words are words."""
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


def _signature(letters, p):
    """XOR of the sampler table's words over p's letters (X, Y, Z = 0, 1, 2)."""
    sig = np.zeros(letters.shape[2], dtype=np.uint64)
    for j in range(p.n):
        letter = p.letter(j)
        if letter != "I":
            sig ^= letters[j, "XYZ".index(letter)]
    return sig


def _before_rounds(v):
    """The 64-bit word whose splitmix64 finalizer gives v after its two multiply rounds."""
    for shift, mult in ((27, 0x94D049BB133111EB), (30, 0xBF58476D1CE4E5B9)):
        y = v * pow(mult, -1, 1 << 64) % (1 << 64)
        v = y
        for _ in range(64 // shift + 1):  # undo v ^ (v >> shift) a shift at a time
            v = y ^ (v >> shift)
    return v


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
        _, words = _sample_block(0.3, _xz_letters(1), 123, 0, trials, _Buffers.of(trials, 1))
        x, z = (words[0] & 1) == 1, (words[0] >> 1) == 1
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

    @pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1, 1 << 70, -1])
    @pytest.mark.parametrize("stream", [0, 1, 1 << 63, (1 << 64) - 1])
    def test_counter_rng_matches_reference_uniforms(self, seed, stream):
        # a scalar splitmix64 in Python ints pins every uniform, not only reproducibility
        rng = CounterRng(seed, stream)
        drawn = [*rng.random(3).tolist(), rng.random(), *rng.random(4).tolist()]
        assert drawn == reference_uniforms(seed, stream, 8)

    def test_counter_rng_refuses_negative_size(self):
        # as numpy's Generator.random does, and the stream does not move
        rng = CounterRng(1)
        first = rng.random(3)
        with pytest.raises(ValueError, match="size"):
            rng.random(-2)
        assert [*first.tolist(), *rng.random(2).tolist()] == reference_uniforms(1, 0, 5)

    def test_counter_wraps_mod_two_to_the_64(self):
        # 13 words from first = 2**64 - 5: the counter first + i + 1 reaches
        # 2**64 at word 4, the first word the doubling fills from k = 4
        golden, key, first = 0x9E3779B97F4A7C15, 0x0123456789ABCDEF, (1 << 64) - 5
        out = np.empty(13, dtype=np.uint64)
        simulate._counter(key, first, out, np.empty_like(out))
        expected = [_splitmix64((key + (first + i + 1) * golden) % (1 << 64)) for i in range(13)]
        assert out.tolist() == expected

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
    @example(p=0.1, n=40, seed=4, t_lo=7, b=40)  # two signature words
    def test_block_sampler_matches_per_trial_sampler(self, p, n, seed, t_lo, b):
        ch = DepolarizingChannel(p)
        letters = _xz_letters(n)
        buffers = _Buffers.of(b, letters.shape[2])
        hit, words = _sample_block(p, letters, seed, t_lo, t_lo + b, buffers)
        assert words.shape == (-(-2 * n // 64), len(hit))
        drawn = {int(t): _row(words[:, i]) for i, t in enumerate(hit)}
        assert list(drawn) == sorted(drawn)
        for t in range(t_lo, t_lo + b):
            scalar = sample_error(ch, n, CounterRng(seed, t))
            if t not in drawn:
                assert scalar.is_identity()
                continue
            assert scalar.row() == drawn[t] and not scalar.is_identity()


    # just above 1/2, top has bit 63 set and bit 32 clear: only there does a
    # prefilter on 32 low bits instead of 33 miss a hit
    @pytest.mark.parametrize("p", [1e-12, 0.01, 0.1, 1 / 3, 0.5 + 1e-12, 1.0])
    def test_prefilter_boundary_band(self, p):
        # the prefilter passes every pre-final word v <= top | (2**33 - 1); a
        # random v shares top's bits 33-63 (the band) with probability 2**-31,
        # so build words in the band and at +-1 around each of its edges
        top = simulate._threshold(p)
        band = top >> 33 << 33
        low = (1 << 33) - 1
        rng = random.Random(p)
        edges = [band, top, band | low, band + (1 << 33)]
        words = {e + d for e in edges for d in (-1, 0, 1)}
        words |= {band | rng.getrandbits(33) for _ in range(200)}
        words = sorted(v for v in words if 0 <= v < 1 << 64)
        v = np.array(words, dtype=np.uint64)
        inputs = np.array([_before_rounds(x) for x in words], dtype=np.uint64)
        rounds = inputs.copy()
        simulate._mix64_rounds(rounds, np.empty_like(rounds))
        assert rounds.tolist() == words
        # the full finalizer of each word's input, then the exact compare
        final = [_splitmix64(int(x)) for x in inputs]
        assert simulate._mix64_array(inputs, np.empty_like(inputs)).tolist() == final
        expected = [i for i, w in enumerate(final) if w <= top]
        r, w = simulate._below(v, top, np.empty(len(v), dtype=bool))
        assert r.tolist() == expected
        assert w.tolist() == [final[i] for i in expected]
        in_band = [i for i, x in enumerate(words) if x >> 33 == top >> 33]
        if p < 1:  # the band holds words on both sides of top
            assert 0 < len(set(in_band) & set(expected)) < len(in_band)

    def test_p_zero_threshold_is_negative(self):
        # top is negative, so no draw is below it and no word is hashed
        assert simulate._threshold(0.0) == -1
        hit, words = _sample_block(0.0, _xz_letters(3), 5, 0, 100, _Buffers.of(100, 1))
        assert len(hit) == 0 and words.shape == (1, 0)


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
        reference = reference_syndrome_table(golden, 3)
        assert len(reference) == 2 ** len(golden.generators)
        weights = []
        weight_words = simulate._weight_words

        def recording(letters, w):
            weights.append(w)
            return weight_words(letters, w)

        monkeypatch.setattr(simulate, "_weight_words", recording)
        table = build_syndrome_table(golden, 3)
        assert weights == [0, 1, 2]
        assert table.entries == reference
        assert list(table.entries) == list(reference)
        assert table.max_weight_built == 3

    @settings(max_examples=60, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), depth=st.integers(0, 3))
    def test_matches_reference_enumeration(self, code_seed, depth):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        table = build_syndrome_table(codeq, depth)
        assert list(table.entries.items()) == list(reference_syndrome_table(codeq, depth).items())
        assert table.max_weight_built == depth

    @pytest.mark.parametrize("depth", [1, 2])
    def test_wide_code_matches_reference_enumeration(self, depth):
        # 66 generators make two key words, and n = 36 two (x|z) row words
        codeq = build_code(random_classical_code(random.Random(5), 36, 3))
        assert len(codeq.generators) == 66
        table = build_syndrome_table(codeq, depth)
        assert list(table.entries.items()) == list(reference_syndrome_table(codeq, depth).items())
        assert table.max_weight_built == depth

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("n", [32, 33])
    def test_row_word_edge_matches_reference_enumeration(self, n, depth):
        # 2n = 64 fills one (x|z) word exactly; 2n = 66 leaves 62 padding bits
        codeq = build_code(random_classical_code(random.Random(n), n, n - 6))
        table = build_syndrome_table(codeq, depth)
        assert list(table.entries.items()) == list(reference_syndrome_table(codeq, depth).items())

    @settings(max_examples=40, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32), depth=st.integers(0, 3), block=st.integers(1, 100)
    )
    def test_small_chunks_build_the_same_table(self, code_seed, depth, block):
        # many chunks per weight, and for block < 3**w one support split over
        # several chunks: winners of later chunks must merge with earlier ones
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        expected = list(reference_syndrome_table(codeq, depth).items())
        with mock.patch.object(frames, "_BLOCK", block):
            table = build_syndrome_table(codeq, depth)
            for w in range(min(depth, codeq.n) + 1):
                chunks = list(frames._weight_words(_xz_letters(codeq.n), w))
                assert all(len(words) <= block for words in chunks)
                rows = [_row(words) for chunk in chunks for words in chunk.tolist()]
                assert sorted(rows) == sorted(p.row() for p in iter_paulis_of_weight(codeq.n, w))
        assert list(table.entries.items()) == expected

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_tie_break_key_orders_rows_lexicographically(self, width, data):
        # words from a small pool make rows that share their first words
        word = st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1]) | st.integers(0, (1 << 64) - 1)
        row = st.lists(word, min_size=width, max_size=width).map(_row)
        rows = data.draw(st.lists(row, max_size=20))
        words = frames._words(rows, 64 * width)
        keys = simulate._reverse(words)
        assert (simulate._reverse(keys) == words).all()
        by_key = sorted(range(len(rows)), key=lambda i: tuple(keys[i].tolist()))
        by_bits = sorted(range(len(rows)), key=lambda i: format(rows[i], f"0{64 * width}b")[::-1])
        assert [rows[i] for i in by_key] == [rows[i] for i in by_bits]

    @settings(max_examples=40, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), depth=st.integers(0, 3))
    def test_lookup_searches_the_keys(self, code_seed, depth):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        table = build_syndrome_table(codeq, depth)
        entries = build_syndrome_table(codeq, depth).entries
        m = len(codeq.generators)
        rng = random.Random(code_seed)
        absent = [tuple(rng.getrandbits(1) for _ in range(m)) for _ in range(20)]
        for syndrome in list(entries) + absent:
            assert table.lookup(syndrome) == entries.get(syndrome)
        assert table.lookup((0,) * (m + 1)) is None
        assert table.lookup((2,) + (0,) * (m - 1)) is None
        assert table._entries is None  # lookup derived no dict

    def test_lookup_on_a_deep_table(self):
        # [24, 16] at depth 3, like the benchmark's r24@3: tens of thousands
        # of entries over 65536 syndromes
        codeq = build_code(random_classical_code(random.Random(7), 24, 16))
        table = build_syndrome_table(codeq, 3)
        entries = build_syndrome_table(codeq, 3).entries
        assert len(entries) > 30000
        rng = random.Random(7)
        queries = rng.sample(list(entries), 2000)
        queries += [tuple(rng.getrandbits(1) for _ in range(16)) for _ in range(2000)]
        assert [table.lookup(s) for s in queries] == [entries.get(s) for s in queries]

    def test_lookup_on_two_key_words(self):
        codeq = build_code(random_classical_code(random.Random(5), 36, 3))
        table = build_syndrome_table(codeq, 1)
        entries = build_syndrome_table(codeq, 1).entries
        rng = random.Random(5)
        queries = list(entries) + [tuple(rng.getrandbits(1) for _ in range(66)) for _ in range(50)]
        # keys that share one word with an entry and differ in the other
        queries += [s[:64] + (1 - s[64],) + s[65:] for s in entries]
        queries += [(1 - s[0],) + s[1:] for s in entries]
        assert [table.lookup(s) for s in queries] == [entries.get(s) for s in queries]

    def test_hand_built_table_keeps_its_entries(self, golden):
        # the array form does not depend on insertion order; entries keep it
        built = build_syndrome_table(golden, 2)
        items = list(built.entries.items())[::-1]
        table = SyndromeTable(dict(items), 2)
        assert list(table.entries.items()) == items
        assert (table.keys == built.keys).all() and (table.rows == built.rows).all()
        assert len(table) == len(built) and table.max_weight_built == 2

    def test_hand_built_table_answers_from_its_arrays(self, golden):
        # a hand-built table keeps no dict: corrections come back with phase 0
        built = build_syndrome_table(golden, 2)
        phased = {s: PauliString(4, c.x, c.z, 3) for s, c in built.entries.items()}
        table = SyndromeTable(phased, 2)
        assert [table.lookup(s) for s in phased] == list(built.entries.values())
        assert table._entries is None
        assert list(table.entries.items()) == list(built.entries.items())

    def test_empty_hand_built_table(self):
        table = SyndromeTable({}, 0)
        assert len(table) == 0 and table.entries == {}
        assert table.lookup(()) is None and table.lookup((0, 1)) is None

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 2): "XI", (0, 1): "ZI"}, r"^syndrome \(0, 2\) is not 2 bits of 0 or 1$"),
            ({(0, 1): "XI", (0, 1, 1): "ZI"}, r"^syndrome \(0, 1, 1\) is not 2 bits of 0 or 1$"),
            (
                {(0, 1): "XI", (1, 0): "ZII"},
                r"^correction ZII of syndrome \(1, 0\) acts on 3 qubits, not 2$",
            ),
        ],
        ids=["bit_outside_0_1", "mixed_key_lengths", "mixed_qubit_counts"],
    )
    def test_hand_built_entries_are_checked(self, entries, message):
        with pytest.raises(ValueError, match=message):
            SyndromeTable({s: parse_pauli(p) for s, p in entries.items()}, 1)


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


class TestSignatures:
    @settings(max_examples=120, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32),
        draw=st.integers(0, 1 << 32),
        kind=st.sampled_from(["identity", "isotropic", "normalizer", "random"]),
    )
    def test_classification_matches_oracles(self, code_seed, draw, kind):
        # decode e = r * correction against a one-entry table holding e's
        # syndrome: the decoder sees the residual r only through signatures
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        rng = random.Random(draw)
        n = codeq.n
        r = identity(n)
        if kind in ("isotropic", "normalizer"):
            if kind == "isotropic":
                rows = [g.row() for g in codeq.decomposition.isotropic]
            else:  # Paulis that commute with every generator, logicals included
                rows = gf2.nullspace([_swap_halves(g.row(), n) for g in codeq.generators], 2 * n)
            for row in rows:
                if rng.getrandbits(1):
                    r = PauliString.from_row(n, r.row() ^ row)
            assert not any(syndrome_of(codeq, r))
        elif kind == "random":
            r = random_pauli(rng, n)
        correction = random_pauli(rng, n)
        e = PauliString.from_row(n, r.row() ^ correction.row())
        decoder = _BlockDecoder.build(codeq, SyndromeTable({syndrome_of(codeq, e): correction}, 0))
        assert (not _signature(decoder.letters, r).any()) == r.is_identity()
        sig = _signature(decoder.letters, e)[:, None]
        failures, degenerate, violations = decoder.decode(sig, np.empty(sig.size, dtype=np.uint64))
        isotropic = in_isotropic(codeq, r)
        assert failures == (0 if isotropic else 1)
        assert degenerate == (1 if isotropic and not r.is_identity() else 0)
        assert violations == (1 if any(syndrome_of(codeq, r)) else 0)


def inline_pool(sizes: list, ranges: list):
    """A ThreadPoolExecutor stand-in that starts no thread.

    It records the pool size asked for in sizes and the number of ranges
    mapped in ranges, and runs them inline.
    """

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            ranges.append(len(items))
            return map(fn, items)

    return InlinePool


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

    @pytest.mark.parametrize("trials", [0, 1, 10 * 64 + 17])
    def test_reused_buffers_match_scalar_decode(self, golden, trials, monkeypatch):
        # 64-trial blocks: every range runs its blocks in one set of buffers
        # and ends with a shorter block
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        cases = []
        for code_seed in range(3):
            codeq = build_code(random_classical_code(random.Random(code_seed)))
            cases.append((codeq, build_syndrome_table(codeq, code_seed % 3)))
        entries = dict(build_syndrome_table(golden, 1).entries)
        s1, s2 = list(entries)[1:3]
        entries[s1] = entries[s2]  # a correction that does not have its syndrome
        del entries[(0,) * len(golden.generators)]  # the identity's syndrome unknown
        cases.append((golden, SyndromeTable(entries, 1)))
        for codeq, table in cases:
            for p in (0.05, 0.3):
                ch = DepolarizingChannel(p)
                expected = _decode_one_by_one(codeq, table, ch, trials, 11)
                for workers in (1, 2, 3):
                    assert run_trials(codeq, ch, table, trials, 11, workers) == expected

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

    def test_no_generators_matches_scalar_decode(self, monkeypatch):
        # m = 0: one all-zero key word, over several 64-trial blocks and ranges
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        built = build_code(ClassicalCode.from_rows(3, 3, []))
        table = build_syndrome_table(built, 2)
        ch = DepolarizingChannel(0.3)
        expected = _decode_one_by_one(built, table, ch, 5 * 64 + 9, 4)
        for workers in (1, 3):
            assert run_trials(built, ch, table, 5 * 64 + 9, 4, workers) == expected

    def test_empty_table_fails_every_trial(self, golden):
        result = run_trials(golden, DepolarizingChannel(0.0), SyndromeTable({}, 0), 100, seed=1)
        assert (result.logical_failures, result.residual_in_isotropic) == (100, 0)

    def test_table_of_another_code_is_refused(self, golden):
        r16, r20 = (
            build_code(load_code_file(str(BENCH_CORPUS / f"{name}.code")).code)
            for name in ("r16", "r20")
        )
        # 4 qubits like golden, but 2 generators instead of 4
        short = build_code(random_classical_code(random.Random(0), 4, 3))
        assert (r16.n, len(r16.generators)) == (16, 12) and (r20.n, len(r20.generators)) == (20, 12)
        assert (short.n, len(short.generators)) == (4, 2)
        for codeq, table in ((r16, build_syndrome_table(r20, 1)), (golden, build_syndrome_table(short, 1))):
            with pytest.raises(ValueError, match="does not fit"):
                run_trials(codeq, DepolarizingChannel(0.01), table, 1000, seed=1)
            with pytest.raises(ValueError, match="does not fit"):
                decode_error(codeq, table, identity(codeq.n))
        # an empty hand-built table knows no syndrome, so it fits any code
        outcome = decode_error(r16, SyndromeTable({}, 0), identity(16))
        assert (outcome.success, outcome.known_syndrome) == (False, False)

    def test_pool_is_bounded_by_the_cpu_count(self, golden, monkeypatch):
        # no pool is started: an inline fake records the size asked for; small
        # blocks make each run span more blocks than threads
        sizes, ranges = [], []
        table = build_syndrome_table(golden, 2)
        ch = DepolarizingChannel(0.05)
        base = run_trials(golden, ch, table, 300, seed=9)
        monkeypatch.setattr(simulate, "_BLOCK", 16)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", inline_pool(sizes, ranges))
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        assert run_trials(golden, ch, table, 300, seed=9, workers=100000) == base
        assert run_trials(golden, ch, table, 300, seed=9, workers=3) == base
        assert sizes == ranges == [2, 2]
        # one CPU is one range, run inline
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert run_trials(golden, ch, table, 300, seed=9, workers=3) == base
        assert sizes == ranges == [2, 2]

    def test_one_range_per_thread(self, golden, monkeypatch):
        # trials are cut into min(workers, cpu_count) ranges, never one per worker
        sizes, ranges = [], []
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.1)
        base = run_trials(golden, ch, table, 1000, seed=3)
        monkeypatch.setattr(simulate, "_BLOCK", 16)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", inline_pool(sizes, ranges))
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 7)
        for workers in (3, 7, 10**6):
            assert run_trials(golden, ch, table, 1000, seed=3, workers=workers) == base
        assert sizes == ranges == [3, 7, 7]

    def test_one_block_starts_no_pool(self, golden, monkeypatch):
        # a run of at most one block is one range, whatever the workers
        sizes, ranges = [], []
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.1)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", inline_pool(sizes, ranges))
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 7)
        for trials in (0, 1, 1000, simulate._BLOCK):
            base = run_trials(golden, ch, table, trials, seed=3)
            for workers in (2, 10**6):
                assert run_trials(golden, ch, table, trials, seed=3, workers=workers) == base
        assert sizes == ranges == []

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(1, 100),
        trials=st.integers(0, 500),
        seed=st.integers(0, 1 << 32),
        cpus=st.integers(1, 4),
    )
    @example(block=1, trials=0, seed=0, cpus=4)
    @example(block=100, trials=101, seed=1, cpus=4)  # two blocks, the last ragged
    @example(block=7, trials=500, seed=2, cpus=4)
    def test_partitions_agree(self, block, trials, seed, cpus):
        # small blocks, ragged last blocks, and fewer blocks than workers
        # change nothing
        golden = build_code(load_code_file(str(BENCH_CORPUS / "h4.code")).code)
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.2)
        base = run_trials(golden, ch, table, trials, seed)
        with mock.patch.object(simulate, "_BLOCK", block), mock.patch.object(
            simulate.os, "cpu_count", lambda: cpus
        ):
            for workers in (1, 2, 3):
                assert run_trials(golden, ch, table, trials, seed, workers) == base

    def test_million_workers_match_one(self, golden):
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.1)
        base = run_trials(golden, ch, table, 1000, seed=3, workers=1)
        assert run_trials(golden, ch, table, 1000, seed=3, workers=10**6) == base

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

    def test_lookup_needs_every_key_word(self):
        # 66 generators make a key of two words; a query that matches one
        # table key in word 0 and another in word 1 is still unknown, and
        # word 1's bits above the syndrome (bit 66 on) are not part of the key
        built = build_code(random_classical_code(random.Random(5), 36, 3))
        assert len(built.generators) == 66
        table = build_syndrome_table(built, 1)
        decoder = _BlockDecoder.build(built, table)
        keys = {}
        for syndrome, correction in table.entries.items():
            row = sum(bit << i for i, bit in enumerate(syndrome))
            keys[row & ((1 << 64) - 1), row >> 64] = correction
        low = sorted({k[0] for k in keys})[:40]
        high = sorted({k[1] for k in keys})
        queries = [(a, b | extra) for a in low for b in high for extra in (0, 1 << 40)]
        queries += [(3, 0), (1 << 63, 3)]
        expected = [(a, b & 3) for a, b in queries]
        assert 0 < sum(q in keys for q in expected) < len(expected)
        sig = np.array(queries, dtype=np.uint64).T
        entry, known = decoder.lookup(sig, np.empty(sig.size, dtype=np.uint64))
        for q, i, found in zip(expected, entry, known):
            assert found == (q in keys)
            if found:
                assert (decoder.corrections[:, i] == _signature(decoder.letters, keys[q])).all()

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
