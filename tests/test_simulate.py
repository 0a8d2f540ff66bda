"""Tests for the depolarizing-channel Monte Carlo and syndrome-table decoder."""

import contextlib
import gc
import hashlib
import itertools
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import frames, gf2, gf4, simulate
from eaqecc.analysis import in_isotropic, syndrome_of
from eaqecc.builder import ClassicalCode, EaqeccCode, build_code, extend_generators
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
from eaqecc.simulate import _BLOCK, _BlockDecoder, _Buffers, _sample_block
from eaqecc.symplectic import GeneratorSet, _swap_halves, gram_schmidt_decompose

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


def _sample(p, letters, seed, t_lo, t_hi, buffers):
    """_sample_block with the run constants that run_trials derives from p and seed."""
    top, edges, key = simulate._threshold(p), simulate._letter_edges(p), simulate._seed_key(seed)
    return _sample_block(top, edges, letters, key, t_lo, t_hi, buffers)


@contextlib.contextmanager
def _merges(*names):
    """Mocks that record the calls of simulate's two merges, its weight enumerator, then names."""
    with contextlib.ExitStack() as stack:
        yield [
            stack.enter_context(mock.patch.object(simulate, name, wraps=getattr(simulate, name)))
            for name in ("_direct_entries", "_sorted_entries", "_level", *names)
        ]


def _assert_one_merge(on_direct, on_sorted, weights, direct):
    """Every weight the build enumerated merged on one path: the slots if direct, else the sort."""
    chosen, other = (on_direct, on_sorted) if direct else (on_sorted, on_direct)
    assert chosen.call_count == weights.call_count and not other.called


def _build_on_path(codeq, depth, direct):
    """build_syndrome_table on one path, forced at _fits_direct: the syndrome slots, or the sort.

    The patch holds for the whole build, so the table's index follows it
    too.  The slots need a one-word tie-break key (n <= 32).
    """
    fits = mock.patch.object(simulate, "_fits_direct", lambda m: direct)
    with fits, _merges() as (on_direct, on_sorted, weights):
        table = build_syndrome_table(codeq, depth)
    _assert_one_merge(on_direct, on_sorted, weights, direct)
    return table


def _slot_indexed(table):
    """Whether the table's syndrome index has a slot per syndrome (else sorted key words)."""
    return not isinstance(table._index, tuple)


def _assert_holds_no_entries(table):
    """No attribute of table holds a dict or a list: its entries are derived from its arrays."""
    held = {name: type(value) for name, value in vars(table).items()}
    assert not {name for name, kind in held.items() if issubclass(kind, (dict, list))}, held


def _arrays(table):
    """A table's keys, rows and inserted as (shape, dtype, bytes), and its depth."""
    arrays = (table.keys, table.rows, table.inserted)
    return [(a.shape, a.dtype.str, a.tobytes()) for a in arrays], table.max_weight_built


def _random_code(rng, n, m):
    """A code on n qubits from m random independent generators, m odd or even.

    build_code makes 2(n - k) generators; this is the same pipeline from a
    generator set drawn directly.
    """
    rows = []
    while len(rows) < m:
        row = rng.getrandbits(2 * n)
        if gf2.rank(rows + [row], 2 * n) > len(rows):
            rows.append(row)
    generators = GeneratorSet(n, tuple(PauliString.from_row(n, row) for row in rows))
    decomp = gram_schmidt_decompose(generators)
    extended = extend_generators(decomp, n)
    return EaqeccCode(n, decomp.c, decomp.s, n - decomp.c - decomp.s, generators, extended, decomp)


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


def _unmix(w):
    """The 64-bit word whose splitmix64 finalizer is w."""
    v = w
    for _ in range(3):  # undo w = v ^ (v >> 31) a shift at a time
        v = w ^ (v >> 31)
    return _before_rounds(v)


def _seed_drawing(w):
    """A seed whose trial 0 draws the word w on qubit 0.

    That draw is the finalizer of k + golden, for k the finalizer of
    _seed_key(seed) + golden, and _seed_key is the finalizer of the seed.
    """
    golden = 0x9E3779B97F4A7C15
    k = (_unmix(w) - golden) % (1 << 64)
    return _unmix((_unmix(k) - golden) % (1 << 64))


def _check_letter_edges(p):
    """_letter_edges(p) against sample_error's float letter on each side of each edge.

    Each edge is checked at draws w >> 11 = a - 1 and a, with the low 11
    bits all clear and all set, wherever those draws are hits: on the
    edges alone, and through the block sampler on a trial that draws w.
    """
    top = simulate._threshold(p)
    a1, a2 = simulate._letter_edges(p)
    assert 0 <= a1 <= a2 <= top + 1
    words = set()
    for edge in (int(a1), int(a2)):
        for a in ((edge >> 11) - 1, edge >> 11):
            words |= {a << 11, a << 11 | 0x7FF}
    w = np.array(sorted(x for x in words if 0 <= x <= top), dtype=np.uint64)
    assert len(w)  # the draw below each edge is a hit
    u = (w >> np.uint64(11)) * (2.0**-53)
    letter = np.minimum((u * 3.0 / p).astype(np.int64), 2)
    assert np.add(w >= a1, w >= a2, dtype=np.intp).tolist() == letter.tolist()
    ch, letters, buffers = DepolarizingChannel(p), _xz_letters(1), _Buffers.of(1, 1, 1)
    for x in w.tolist():
        seed = _seed_drawing(x)
        assert CounterRng(seed).random() == (x >> 11) * 2.0**-53
        hit, words = _sample(p, letters, seed, 0, 1, buffers)
        assert hit.tolist() == [0]
        assert _row(words[:, 0]) == sample_error(ch, 1, CounterRng(seed)).row()


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
        _, words = _sample(0.3, _xz_letters(1), 123, 0, trials, _Buffers.of(trials, 1, 1))
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

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        n=st.integers(1, 40),
        seed=st.integers(0, (1 << 64) - 1),
        t_lo=st.integers(0, 1 << 40),
        b=st.integers(0, 40),
        block=st.sampled_from([64, _BLOCK]),
    )
    # 0.25 * 2**53 is an integer, which ceil must leave as the hit threshold
    @example(p=0.0, n=3, seed=1, t_lo=0, b=40, block=_BLOCK)
    @example(p=1.0, n=3, seed=1, t_lo=5, b=40, block=_BLOCK)
    @example(p=1e-9, n=6, seed=2, t_lo=1 << 33, b=40, block=_BLOCK)
    @example(p=0.25, n=6, seed=3, t_lo=100, b=40, block=_BLOCK)
    @example(p=0.1, n=40, seed=4, t_lo=7, b=40, block=_BLOCK)  # two signature words
    # every qubit hits, so each trial takes several hits in each group
    @example(p=1.0, n=40, seed=5, t_lo=3, b=40, block=_BLOCK)  # one group of 40
    @example(p=1.0, n=40, seed=5, t_lo=3, b=5, block=64)  # groups of 6, the last of 4
    @example(p=0.1, n=40, seed=6, t_lo=11, b=1000, block=_BLOCK)  # groups of 32, the last of 8
    @example(p=0.3, n=7, seed=7, t_lo=0, b=0, block=64)
    @example(p=0.3, n=40, seed=8, t_lo=9, b=1, block=64)  # groups of 32, the last of 8
    @example(p=0.3, n=5, seed=9, t_lo=9, b=40, block=64)  # a full block: one qubit per pass
    def test_block_sampler_matches_per_trial_sampler(self, p, n, seed, t_lo, b, block):
        # block sets _BLOCK, so a short block hashes groups of
        # max(1, min(n, (block // 2) // b)) qubits per pass
        ch = DepolarizingChannel(p)
        letters = _xz_letters(n)
        with mock.patch.object(simulate, "_BLOCK", block):
            buffers = _Buffers.of(b, letters.shape[2], n)
            hit, words = _sample(p, letters, seed, t_lo, t_lo + b, buffers)
        assert words.shape == (-(-2 * n // 64), len(hit))
        drawn = {int(t): _row(words[:, i]) for i, t in enumerate(hit)}
        assert list(drawn) == sorted(drawn)
        for t in range(t_lo, t_lo + b):
            scalar = sample_error(ch, n, CounterRng(seed, t))
            if t not in drawn:
                assert scalar.is_identity()
                continue
            assert scalar.row() == drawn[t] and not scalar.is_identity()

    def test_full_block_hashes_one_qubit_per_pass(self, monkeypatch):
        # a full block keeps the three hash rows of one qubit per pass and
        # never groups; a shorter block groups its qubits, and a range's
        # buffers hold the groups of every block up to their size
        assert simulate._group(128, _BLOCK) == 1
        assert len(_Buffers.of(_BLOCK, 2, 64).hashes) == 3 * _BLOCK
        assert len(_Buffers.of(4096, 2, 64).hashes) < 2 * _BLOCK
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        for n in (1, 3, 40):
            assert simulate._group(n, 64) == 1
            for b in range(70):
                buffers = _Buffers.of(b, 1, n)
                for short in range(b + 1):
                    g = simulate._group(n, short)
                    assert short + 2 * g * short <= len(buffers.hashes)
                    assert g * short <= len(buffers.below)
        letters, buffers = _xz_letters(5), _Buffers.of(64, 1, 5)
        with mock.patch.object(np, "divmod", wraps=np.divmod) as grouped:
            _sample(0.5, letters, 1, 0, 64, buffers)
            assert not grouped.called
            _sample(0.5, letters, 1, 64, 74, buffers)  # groups of 3 qubits, the last of 2
            assert grouped.call_count == 2

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

    @pytest.mark.parametrize("p", [1e-12, 0.01, 0.1, 1.0])
    def test_every_candidate_a_hit(self, p):
        # the usual case: the prefilter's candidates are all hits, and words
        # above top | (2**33 - 1) are no candidates
        top = simulate._threshold(p)
        rng = random.Random(p)
        finals = [0, top] + [rng.randint(0, top) for _ in range(100)]
        # the last step w = v ^ (v >> 31) undone: v = w ^ (w >> 31) ^ (w >> 62)
        words = [w ^ (w >> 31) ^ (w >> 62) for w in finals]
        if p < 1:
            words += [rng.randint(top | ((1 << 33) - 1), (1 << 64) - 1) + 1 for _ in range(100)]
            words = [v for v in words if v < 1 << 64]
        rng.shuffle(words)
        v = np.array(words, dtype=np.uint64)
        final = [x ^ (x >> 31) for x in words]
        expected = [i for i, w in enumerate(final) if w <= top]
        assert len(expected) == len(finals)
        r, w = simulate._below(v, top, np.empty(len(v), dtype=bool))
        assert r.tolist() == expected
        assert w.tolist() == [final[i] for i in expected]

    def test_p_zero_threshold_is_negative(self):
        # top is negative, so no draw is below it and no word is hashed: the
        # buffers keep what they held
        assert simulate._threshold(0.0) == -1
        buffers = _Buffers.of(100, 1, 3)
        buffers.hashes.fill(7)
        buffers.words.fill(7)
        hit, words = _sample(0.0, _xz_letters(3), 5, 0, 100, buffers)
        assert len(hit) == 0 and words.shape == (1, 0)
        assert (buffers.hashes == 7).all() and (buffers.words == 7).all()

    # at p = 2**-53 the only hit is w >> 11 = 0, so both edges are top + 1
    @pytest.mark.parametrize(
        "p", [2.0**-53, 1e-12, 1e-3, 0.01, 0.1, 0.25, 1 / 3, 0.5 + 1e-12, 2 / 3, 1.0]
    )
    def test_letter_edges(self, p):
        _check_letter_edges(p)

    def test_letter_edges_random_p(self):
        rng = random.Random(19)
        for i in range(500):
            _check_letter_edges(rng.random() if i % 2 else 10 ** rng.uniform(-16, 0))

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-3, 0.1, 1 / 3, 1.0])
    def test_letter_edges_are_cached_per_p(self, p, golden):
        simulate._letter_edges.cache_clear()
        edges = simulate._letter_edges(p)
        assert edges == simulate._letter_edges.__wrapped__(p)  # a fresh bisection
        table = build_syndrome_table(golden, 1)
        for seed in (1, 2):
            run_trials(golden, DepolarizingChannel(p), table, 100, seed)
        info = simulate._letter_edges.cache_info()
        assert (info.misses, info.hits) == (1, 2)  # the runs bisect no more
        if p == 0:
            assert edges == (0, 0)
        else:
            _check_letter_edges(p)


# sha256 of keys, rows and inserted, from the tables built before the
# direct path existed: r20@4 and r24@3 take the direct path, w64@2 (m = 64)
# the sorted one.  w64@2's 7,141 Paulis all have distinct syndromes; r40@3
# (m = 20), pinned before the merge sorted each weight once, has syndrome
# collisions and already-kept syndromes at every weight: 266,760 weight-3
# candidates give 240,883 entries
_PINNED_TABLES = [
    (
        "r20",
        4,
        (
            "b83e23eb1db808bf694ae4894d62b50c9840bcd869ba7ac2456f40ddf0530bf3",
            "4f1b786cda18eee58947fbb1ad6949a0ac40dd9eeadd71a2646275707bd41eca",
            "e3830a5381ba3df524ca6148f9b48b6c55efd94f2f0b2e215d864a3d8817474f",
        ),
    ),
    (
        "r24",
        3,
        (
            "474e2909015b8e523d75baa463a58d74be201e3df0b17d4ccbac9045bdf3e48c",
            "ef5289406d089aed55e614e2e2232e4b168005299ab79050c02f81cc152d1d49",
            "c72c2651888676ec0b829c7769b1991d870098fc67a198fa1716376a910e880b",
        ),
    ),
    (
        "w64",
        2,
        (
            "2f24f5d6daec216262e9d9d035318d1181242ec1e3d9dbb2f0639864adba45b7",
            "447801bc080d8fdf22c82b72fb9a1e6f13835ccda12a34a557629a4058ddd3a9",
            "d171a57ad6c09d3756fea71de1d9d19682d09e1ca901b0ced9e514fcf67959cf",
        ),
    ),
    (
        "r40",
        3,
        (
            "238dfba445a8fd9e544ed5a26f7b20eb2bde4a7c5505ae0e9d3229d3a46da979",
            "636afad427a2dc8657cc94e50e2aaecf345a5d0e3e3e07756e5bbd6b81349e5d",
            "99c24be00b19d4c3e03d607ca8eb77c9cc8bc7180bb0266014cd5df4a75e3db9",
        ),
    ),
]


def _check_pinned(name, depth, digests):
    codeq = build_code(load_code_file(str(BENCH_CORPUS / f"{name}.code")).code)
    table = build_syndrome_table(codeq, depth)
    arrays = (table.keys, table.rows, table.inserted)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests
    assert table.max_weight_built == depth


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
        level = simulate._level

        def recording(letters, w, below):
            weights.append(w)
            return level(letters, w, below)

        monkeypatch.setattr(simulate, "_level", recording)
        table = build_syndrome_table(golden, 3)
        assert weights == [1, 2]  # weight 0 is the identity, never enumerated
        assert table.entries == reference
        assert list(table.entries) == list(reference)
        assert table.max_weight_built == 3

    @settings(max_examples=60, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), depth=st.integers(0, 3))
    def test_matches_reference_enumeration(self, code_seed, depth):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        expected = list(reference_syndrome_table(codeq, depth).items())
        for direct in (True, False):
            table = _build_on_path(codeq, depth, direct)
            assert list(table.entries.items()) == expected
            assert table.max_weight_built == depth

    @pytest.mark.parametrize("depth", [1, 2])
    def test_wide_code_matches_reference_enumeration(self, depth):
        # 66 generators make two key words, and n = 36 two (x|z) row words
        codeq = build_code(random_classical_code(random.Random(5), 36, 3))
        assert len(codeq.generators) == 66
        table = build_syndrome_table(codeq, depth)
        assert list(table.entries.items()) == list(reference_syndrome_table(codeq, depth).items())
        assert table.max_weight_built == depth

    @pytest.mark.parametrize("block", [50, 1000])
    def test_two_key_words_merge_across_groups(self, block):
        # 66 generators make two key words: weight 2's 5670 candidates split
        # into syndrome groups on word 0's top bits, whose keys the held keys
        # search as big-endian bytes
        codeq = build_code(random_classical_code(random.Random(5), 36, 3))
        expected = _arrays(build_syndrome_table(codeq, 2))
        groups, split = [], simulate._syndrome_groups

        def recorded(level, m):
            groups.append(list(split(level, m)))
            return iter(groups[-1])

        with mock.patch.object(simulate, "_BLOCK", block), mock.patch.object(
            simulate, "_syndrome_groups", recorded
        ):
            table = build_syndrome_table(codeq, 2)
        assert len(groups[1]) > 1
        assert _arrays(table) == expected
        assert list(table.entries.items()) == list(reference_syndrome_table(codeq, 2).items())

    @settings(max_examples=100, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_sortable_keys_sort_and_search_as_rows(self, width, data):
        # one word stays a uint64; two or more become big-endian bytes
        word = st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1]) | st.integers(0, (1 << 64) - 1)
        rows = data.draw(st.lists(st.lists(word, min_size=width, max_size=width), max_size=30))
        keys = np.array(rows, dtype=np.uint64).reshape(len(rows), width)
        flat = simulate._sortable(keys)
        assert flat.shape == (len(rows),)
        key = (lambda i: flat[i].tobytes()) if width > 1 else (lambda i: flat[i])
        by_flat = sorted(range(len(rows)), key=key)
        assert [rows[i] for i in by_flat] == sorted(rows)
        held = np.sort(simulate._sortable(np.unique(keys, axis=0)))
        pos = np.searchsorted(held, flat)
        distinct = sorted(set(map(tuple, rows)))
        assert pos.tolist() == [distinct.index(tuple(r)) for r in rows]

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("n", [32, 33])
    def test_row_word_edge_matches_reference_enumeration(self, n, depth):
        # 2n = 64 fills one (x|z) word exactly; 2n = 66 leaves 62 padding bits.
        # Two tie-break words (n = 33) take the sorted path only
        codeq = build_code(random_classical_code(random.Random(n), n, n - 6))
        expected = list(reference_syndrome_table(codeq, depth).items())
        with _merges() as (on_direct, on_sorted, weights):
            build_syndrome_table(codeq, depth)
        _assert_one_merge(on_direct, on_sorted, weights, n <= 32)
        for direct in (True, False) if n <= 32 else (False,):
            table = _build_on_path(codeq, depth, direct)
            assert list(table.entries.items()) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32), depth=st.integers(0, 3), block=st.integers(1, 100)
    )
    def test_small_chunks_build_the_same_table(self, code_seed, depth, block):
        # many slices per weight on the slot path, and for block < 3**w one
        # support split over several slices: winners of later slices must
        # merge with earlier ones.  The sorted path splits a weight of more
        # than block rows into groups by syndrome range instead
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        expected = list(reference_syndrome_table(codeq, depth).items())
        nkeys = max(1, -(-len(codeq.generators) // 64))
        handed = []  # the slices or groups of each merge call, both paths' weights in turn

        def recorded(merge):
            def run(slices, known, m):
                handed.append(list(slices))
                return merge(iter(handed[-1]), known, m)

            return run

        with mock.patch.object(simulate, "_BLOCK", block), mock.patch.object(
            simulate, "_direct_entries", recorded(simulate._direct_entries)
        ), mock.patch.object(simulate, "_sorted_entries", recorded(simulate._sorted_entries)):
            tables = [_build_on_path(codeq, depth, direct) for direct in (True, False)]
        weights = len(handed) // 2  # both paths merge the same weights, the slots' first
        for i, slices in enumerate(handed):
            w = i % weights + 1
            if i < weights:
                assert all(len(words) <= block for words in slices)
            else:  # each group a syndrome range above the one before it
                ranges = [sorted(map(tuple, s[:, :nkeys].tolist())) for s in slices]
                assert all(r for r in ranges)
                assert all(a[-1] < b[0] for a, b in zip(ranges, ranges[1:]))
                assert len(slices) == 1 or sum(map(len, slices)) > block
            rows = [_row(words) for s in slices for words in simulate._reverse(s[:, nkeys:])]
            assert sorted(rows) == sorted(p.row() for p in iter_paulis_of_weight(codeq.n, w))
        for table in tables:
            assert list(table.entries.items()) == expected

    @pytest.mark.parametrize("block", [7, 100])
    def test_two_tie_words_merge_across_chunks(self, block):
        # n = 64: tie-break word 0 holds the x bits and word 1 the z bits, so
        # pure-Z candidates tie on word 0, and a later chunk's often wins on
        # word 1 against the running best (sorted path: two tie-break words)
        codeq = build_code(random_classical_code(random.Random(64), 64, 58))
        expected = _arrays(build_syndrome_table(codeq, 2))
        with mock.patch.object(simulate, "_BLOCK", block):
            assert _arrays(_build_on_path(codeq, 2, False)) == expected

    # slots is 1 where the table merges in syndrome slots: m = 0 fills its one
    # slot with the identity and enumerates no weight, m = 16 (n = 11) merges
    # weights 1-3 in slots, and m = 17 has no slots
    @pytest.mark.parametrize("m, slots", [(0, 1), (16, 1), (17, 0)])
    def test_path_by_generator_count(self, m, slots):
        codeq = _random_code(random.Random(m), m // 2 + 3, m)
        assert simulate._fits_direct(m) is (m <= 16) is bool(slots)
        with _merges() as (on_direct, on_sorted, weights):
            table = build_syndrome_table(codeq, 3)
        assert weights.call_count == (3 if m else 0)
        _assert_one_merge(on_direct, on_sorted, weights, slots)
        assert list(table.entries.items()) == list(reference_syndrome_table(codeq, 3).items())
        # either path alone builds the same arrays
        for direct in (True, False):
            assert _arrays(_build_on_path(codeq, 3, direct)) == _arrays(table)

    # the merge is the table's: the slots wherever 2**m fit one block and the
    # tie-break key is one word (n <= 32), the sort for m = 17 or n = 33
    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize(
        "m, n, slots",
        [(0, 3, True), (12, 16, True), (16, 11, True), (16, 32, True)]
        + [(17, 11, False), (12, 33, False), (16, 33, False)],
    )
    def test_one_merge_per_table(self, m, n, slots, depth):
        codeq = _random_code(random.Random(100 * m + n), n, m)
        # no build ranks keys with _key_index: the sorted merge hands the
        # table its key order
        unranked = mock.patch.object(frames, "_key_index", side_effect=AssertionError)
        with unranked, _merges("_order") as (on_direct, on_sorted, weights, ordered):
            table = build_syndrome_table(codeq, depth)
        # weight 0 is the identity, never enumerated, and fills m = 0's one syndrome
        assert weights.call_count == (depth if m else 0)
        _assert_one_merge(on_direct, on_sorted, weights, slots)
        if slots:  # no merge and no index sorts keys
            assert not ordered.called
        entries = list(table.entries.items())
        assert entries == list(reference_syndrome_table(codeq, depth).items())
        assert entries[0] == ((0,) * m, identity(n))
        if not depth:  # the identity alone, with no merge called
            assert len(entries) == 1
        assert table.max_weight_built == depth

    @pytest.mark.parametrize(
        "name, depth, digests", _PINNED_TABLES, ids=["r20@4", "r24@3", "w64@2", "r40@3"]
    )
    def test_corpus_tables_are_pinned(self, name, depth, digests):
        _check_pinned(name, depth, digests)

    def test_pinned_table_in_chunks_of_a_few_rows(self, monkeypatch):
        # r40@3 with frames._level's weights 2 and 3 XORed 40 rows of below at
        # a time (W = 3): the long runs cut into pieces, the short ones grouped
        # (3 + 6 + 9 + 12 at weight 2, 9 + 27 at weight 3)
        monkeypatch.setattr(frames, "_CHUNK", 3 * 3 * 40)
        monkeypatch.setattr(frames, "_SHORT", 0)
        _check_pinned(*_PINNED_TABLES[-1])

    def test_sorted_build_memory_is_bounded(self):
        # r40@3 on the sorted merge: 266,760 weight-3 candidates in eight
        # syndrome groups.  The merge that re-sorted its running best peaked
        # at 38.2 MB traced here (numpy 2.4, CPython 3.11), and the grouped
        # merge at 31.7 MB.  The bound is the former plus 5%, so a faster
        # merge cannot buy its time with scratch the size of a weight.  What
        # stays traced is the table itself, about 9.6 MB.
        codeq = build_code(load_code_file(str(BENCH_CORPUS / "r40.code")).code)
        build_syndrome_table(codeq, 1)  # first-call allocations, outside the trace
        tracemalloc.start()
        try:
            table = build_syndrome_table(codeq, 3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 240883
        assert peak < 1.05 * 38.2e6, peak
        assert held < 10.5e6, held

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
        _assert_holds_no_entries(table)
        assert list(table.entries.items()) == list(entries.items())
        _assert_holds_no_entries(table)

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
        _assert_holds_no_entries(table)
        assert list(table.entries.items()) == list(built.entries.items())
        _assert_holds_no_entries(table)

    def test_empty_hand_built_table(self):
        table = SyndromeTable({}, 0)
        assert len(table) == 0 and table.entries == {}
        assert table.lookup(()) is None and table.lookup((0, 1)) is None

    @pytest.mark.parametrize("m", [0, 16, 17])
    def test_slot_index_ranks_without_key_index(self, m):
        # a table of m <= 16 ranks its keys by slot; only m > 16 sorts them
        # (_order), and neither ranks them with _key_index
        codeq = _random_code(random.Random(m), m // 2 + 3, m)
        entries = build_syndrome_table(codeq, 1).entries
        unranked = mock.patch.object(frames, "_key_index", side_effect=AssertionError)
        with unranked, mock.patch.object(simulate, "_order", wraps=simulate._order) as ranked:
            table = SyndromeTable(dict(entries), 1)
        assert ranked.called is (m > 16) and _slot_indexed(table) is (m <= 16)
        assert list(table.entries.items()) == list(entries.items())

    # m = 0, 5 and 12 on either index kind (the sorted one forced by the
    # decision point, _fits_direct), m = 17 on its own sorted kind
    @pytest.mark.parametrize(
        "m, slots", [(m, slots) for m in (0, 5, 12) for slots in (True, False)] + [(17, False)]
    )
    def test_lookup_matches_the_reference_dict(self, m, slots, monkeypatch):
        # lookup and the block decoder read one index, so check lookup, and
        # decode_error through it, against the pure-Python enumeration
        if not slots:
            monkeypatch.setattr(simulate, "_fits_direct", lambda m: False)
        codeq = _random_code(random.Random(m), max(m, 2), m)
        reference = reference_syndrome_table(codeq, 1)
        table = build_syndrome_table(codeq, 1)
        assert _slot_indexed(table) is slots
        rng = random.Random(m)
        absent = [tuple(rng.getrandbits(1) for _ in range(m)) for _ in range(200)]
        queries = list(reference) + absent if m > 12 else list(itertools.product((0, 1), repeat=m))
        assert any(s not in reference for s in queries) or m == 0
        assert [table.lookup(s) for s in queries] == [reference.get(s) for s in queries]
        assert table.lookup((0,) * (m + 1)) is None
        e = random_pauli(rng, codeq.n)
        known = decode_error(codeq, table, e).known_syndrome
        assert known == (syndrome_of(codeq, e) in reference)
        # an empty hand-built table (m = 0) knows no syndrome on either kind
        empty = SyndromeTable({}, 0)
        assert _slot_indexed(empty) is slots
        assert empty.lookup(()) is None and empty.lookup((0,) * m) is None
        assert not decode_error(codeq, empty, e).known_syndrome

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


def _check_entries(table, reference):
    """table.entries against the dict reference: its pairs in its order, through every read."""
    entries = table.entries
    assert dict(entries) == reference
    assert list(entries.items()) == list(reference.items())
    assert list(entries.values()) == list(reference.values())
    assert list(entries) == list(reference) == list(entries.keys())
    assert entries == reference and reference == entries
    assert len(entries) == len(reference) == len(table)
    assert all(c.phase_exp == 0 for c in entries.values())
    for syndrome, correction in reference.items():
        assert syndrome in entries and (syndrome, correction) in entries.items()
        assert entries[syndrome] == entries.get(syndrome) == correction
    m = len(next(iter(reference), ()))
    rng = random.Random(len(reference))
    absent = [tuple(rng.getrandbits(1) for _ in range(m)) for _ in range(20)]
    absent += [(0,) * (m + 1), (2,) * m, [0] * m, 0, "0" * m]
    for syndrome in absent:
        if isinstance(syndrome, tuple) and syndrome in reference:
            continue
        assert syndrome not in entries and entries.get(syndrome) is None
        with pytest.raises(KeyError):
            entries[syndrome]
    if reference:
        changed = dict(reference)
        changed[next(iter(reference))] = identity(table._n + 1)
        assert entries != changed and changed != entries
    assert entries != {(2,) * m: identity(1)}


class TestEntriesView:
    @settings(max_examples=40, deadline=None)
    @given(code_seed=st.integers(0, 1 << 32), depth=st.integers(0, 3))
    def test_matches_reference_enumeration(self, code_seed, depth):
        codeq = build_code(random_classical_code(random.Random(code_seed)))
        _check_entries(build_syndrome_table(codeq, depth), reference_syndrome_table(codeq, depth))

    def test_several_chunks_keep_insertion_order(self, monkeypatch):
        # chunks of 7 entries: every read crosses chunk edges, and a short last chunk
        monkeypatch.setattr(simulate, "_VIEW_CHUNK", 7)
        codeq = build_code(random_classical_code(random.Random(3), 6, 2))
        reference = reference_syndrome_table(codeq, 2)
        assert len(reference) % 7
        _check_entries(build_syndrome_table(codeq, 2), reference)

    def test_empty_hand_built_table(self):
        _check_entries(SyndromeTable({}, 0), {})

    def test_m0_table(self):
        codeq = _random_code(random.Random(0), 2, 0)
        assert len(codeq.generators) == 0
        _check_entries(build_syndrome_table(codeq, 2), {(): identity(2)})

    def test_hand_built_table_in_reversed_order(self, golden):
        reference = dict(list(reference_syndrome_table(golden, 2).items())[::-1])
        _check_entries(SyndromeTable(reference, 2), reference)

    def test_writes_raise_type_error(self, golden):
        table = build_syndrome_table(golden, 1)
        zero = (0,) * len(golden.generators)
        with pytest.raises(TypeError):
            table.entries[zero] = identity(4)
        with pytest.raises(TypeError):
            del table.entries[zero]
        assert table.entries[zero] == identity(4) and len(table.entries) == len(table)

    def test_iterating_holds_one_chunk(self):
        # r24@3's shape: 38,602 entries over 65536 syndromes.  A dict of them
        # held 13.1 MB and peaked at 24.3 MB (CPython 3.11); the view derives 4096
        # entries at a time, about 1.8 MB of tuples and PauliStrings at its
        # peak, and drops them as it goes.  6 MB leaves room for allocator
        # and Python-version noise and is still a quarter of the dict's peak.
        # What stays traced afterwards is the interpreter's free list of
        # tuples, not the view's (about 0.3 MB).
        codeq = build_code(random_classical_code(random.Random(7), 24, 16))
        table = build_syndrome_table(codeq, 3)
        assert len(table) == 38602
        tracemalloc.start()
        try:
            count = sum(1 for _ in table.entries.items())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == len(table)
        assert peak < 6e6, peak
        assert held < 1e6, held
        _assert_holds_no_entries(table)


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


def _check_hand_built_table(golden, edit, direct):
    """run_trials on golden's weight-1 table with one edit, against the scalar decode.

    direct says which lookup path the decoder must take.
    """
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
    assert _slot_indexed(table) is direct
    idle = run_trials(golden, DepolarizingChannel(0.0), table, 500, seed=2)
    counts = (idle.logical_failures, idle.residual_in_isotropic, idle.residual_syndrome_nonzero)
    assert counts == tuple(500 * q for q in quiet)
    ch = DepolarizingChannel(0.1)
    expected = _decode_one_by_one(golden, table, ch, 3000, 7)
    if edit == "corrupt":
        assert expected.residual_syndrome_nonzero > 0
    # both runs decode with the decoder that the table kept from the idle run
    with mock.patch.object(_BlockDecoder, "build", wraps=_BlockDecoder.build) as built:
        for workers in (1, 3):
            assert run_trials(golden, ch, table, 3000, 7, workers) == expected
    assert not built.called


def inline_pool(sizes: list, ranges: list):
    """A ThreadPoolExecutor stand-in that starts no thread.

    It records the pool size asked for in sizes and the number of ranges
    mapped in ranges, and runs them inline.  run_trials runs its first
    range itself, so both are one less than the run's ranges.
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
        _check_hand_built_table(golden, edit, direct=True)

    @pytest.mark.parametrize("edit", ["no_zero", "zero_isotropic", "corrupt", "corrupt_zero"])
    def test_hand_built_tables_on_the_sorted_path(self, golden, edit, monkeypatch):
        monkeypatch.setattr(simulate, "_fits_direct", lambda m: False)
        _check_hand_built_table(golden, edit, direct=False)

    @pytest.mark.parametrize("m", [0, 1, 12, 16])
    def test_direct_index_matches_sorted_search(self, m, monkeypatch):
        # three ranges of whole and ragged blocks, on a table with the slot
        # index (2**m slots fit a block) and on one built with it forced off
        monkeypatch.setattr(simulate, "_cpus", lambda: 3)
        codeq = _random_code(random.Random(m), max(m, 2), m)
        assert len(codeq.generators) == m
        table = build_syndrome_table(codeq, 2)
        assert _slot_indexed(table)
        ch, trials = DepolarizingChannel(0.1), 2 * simulate._BLOCK + 3
        direct = [run_trials(codeq, ch, table, trials, 8, workers) for workers in (1, 3)]
        monkeypatch.setattr(simulate, "_fits_direct", lambda m: False)
        table = build_syndrome_table(codeq, 2)
        assert not _slot_indexed(table)
        for workers, result in zip((1, 3), direct):
            assert run_trials(codeq, ch, table, trials, 8, workers) == result
        assert 0 < direct[0].logical_failures < trials

    def test_seventeen_generators_take_the_sorted_path(self):
        # 2**17 slots would outgrow one block's words
        codeq = _random_code(random.Random(17), 17, 17)
        table = build_syndrome_table(codeq, 1)
        assert not _slot_indexed(table)
        ch = DepolarizingChannel(0.05)
        assert run_trials(codeq, ch, table, 300, 4) == _decode_one_by_one(codeq, table, ch, 300, 4)

    @pytest.mark.parametrize("m", [0, 2, 62, 64, 66])
    def test_table_keys_match_the_decoder_frame(self, m):
        # build_syndrome_table takes its syndrome words from the generator
        # rows alone (frames._generator_rows), with no normalizer rows; every
        # key must equal the decoder's syndrome of its correction
        if m:
            codeq = build_code(random_classical_code(random.Random(m), m // 2 + 2, 2))
        else:
            codeq = build_code(ClassicalCode.from_rows(3, 3, []))
        assert len(codeq.generators) == m
        table = build_syndrome_table(codeq, 1)
        mismatched = _BlockDecoder.build(codeq, table).mismatched
        assert len(mismatched) == len(table) > 0 and not mismatched.any()

    @pytest.mark.parametrize("trials", [0, 1, 10 * 64 + 17])
    def test_reused_buffers_match_scalar_decode(self, golden, trials, monkeypatch):
        # 64-trial blocks: every range runs its blocks in one set of buffers
        # and ends with a shorter block
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        monkeypatch.setattr(simulate, "_cpus", lambda: 3)
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
        monkeypatch.setattr(simulate, "_cpus", lambda: 3)
        built = build_code(ClassicalCode.from_rows(3, 3, []))
        table = build_syndrome_table(built, 2)
        ch = DepolarizingChannel(0.3)
        expected = _decode_one_by_one(built, table, ch, 5 * 64 + 9, 4)
        for workers in (1, 3):
            assert run_trials(built, ch, table, 5 * 64 + 9, 4, workers) == expected

    def test_table_keeps_its_decoder(self, golden):
        # three runs on one table and code build one decoder
        table = build_syndrome_table(golden, 2)
        ch = DepolarizingChannel(0.1)
        with mock.patch.object(_BlockDecoder, "build", wraps=_BlockDecoder.build) as built:
            results = [run_trials(golden, ch, table, 700, seed, 3) for seed in (1, 2, 3)]
        assert built.call_count == 1
        assert results == [_decode_one_by_one(golden, table, ch, 700, seed) for seed in (1, 2, 3)]

    def test_another_code_rebuilds_the_kept_decoder(self):
        # two codes of the same (n, m) share one table: the table keeps the
        # decoder of the last code it ran on, and each run reads as on a
        # fresh table; an empty table fits both codes
        first, second = (_random_code(random.Random(seed), 6, 4) for seed in (1, 2))
        assert first.generators != second.generators
        ch = DepolarizingChannel(0.2)
        for fresh in (lambda: build_syndrome_table(first, 1), lambda: SyndromeTable({}, 0)):
            codes, table = (first, second, second, first), fresh()
            expected = [run_trials(codeq, ch, fresh(), 400, 3) for codeq in codes]
            with mock.patch.object(_BlockDecoder, "build", wraps=_BlockDecoder.build) as built:
                results = [run_trials(codeq, ch, table, 400, 3) for codeq in codes]
            assert built.call_count == 3 and table._decoder.codeq is first
            assert results == expected
            assert results == [_decode_one_by_one(c, table, ch, 400, 3) for c in codes]
            if len(table):  # the table's corrections miss the second code's syndromes
                assert results[0].residual_syndrome_nonzero == 0
                assert results[1].residual_syndrome_nonzero > 0

    def test_threads_sharing_a_table_decode_with_their_own_code(self):
        # calls on many threads swap the decoder that one table keeps; which
        # one it keeps is a race, but each call decodes with its own code's
        first, second = (_random_code(random.Random(seed), 6, 4) for seed in (1, 2))
        table, ch = build_syndrome_table(first, 1), DepolarizingChannel(0.2)
        expected = [run_trials(c, ch, build_syndrome_table(first, 1), 200, 3) for c in (first, second)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                codes = [first, second] * 40
                results = list(pool.map(lambda c: run_trials(c, ch, table, 200, 3), codes, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 40

    def test_kept_decoder_does_not_keep_its_table(self, golden):
        # the decoder holds the table's index, not the table: with the cyclic
        # collector off, the table is freed as soon as its last name goes
        enabled = gc.isenabled()
        gc.disable()
        try:
            table = build_syndrome_table(golden, 1)
            run_trials(golden, DepolarizingChannel(0.1), table, 100, 1)
            assert table._decoder is not None
            ref = weakref.ref(table)
            del table
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

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
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        assert run_trials(golden, ch, table, 300, seed=9, workers=100000) == base
        assert run_trials(golden, ch, table, 300, seed=9, workers=3) == base
        assert sizes == ranges == [1, 1]  # two ranges: one on this thread, one pooled
        # one CPU is one range, run inline
        monkeypatch.setattr(simulate, "_cpus", lambda: 1)
        assert run_trials(golden, ch, table, 300, seed=9, workers=3) == base
        assert sizes == ranges == [1, 1]

    def test_affinity_of_one_cpu_starts_no_pool(self, golden, monkeypatch):
        # the cap counts the CPUs the process may run on, not the machine's:
        # three blocks at workers=3 are one range on one CPU, three on three
        sizes, ranges = [], []
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.1)
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        base = run_trials(golden, ch, table, 3 * 64, seed=3)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", inline_pool(sizes, ranges))
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        for cpus, pools in (({5}, []), ({0, 1, 2}, [2])):
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert simulate._cpus() == len(cpus)
            assert run_trials(golden, ch, table, 3 * 64, seed=3, workers=3) == base
            assert sizes == ranges == pools

    def test_cpus_without_affinity(self, monkeypatch):
        # where the OS reports no affinity, the CPU count, and one if unknown
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 5)
        assert simulate._cpus() == 5
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert simulate._cpus() == 1

    def test_one_range_per_thread(self, golden, monkeypatch):
        # trials are cut into min(workers, CPUs) ranges, never one per worker
        sizes, ranges = [], []
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.1)
        base = run_trials(golden, ch, table, 1000, seed=3)
        monkeypatch.setattr(simulate, "_BLOCK", 16)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", inline_pool(sizes, ranges))
        monkeypatch.setattr(simulate, "_cpus", lambda: 7)
        for workers in (3, 7, 10**6):
            assert run_trials(golden, ch, table, 1000, seed=3, workers=workers) == base
        assert sizes == ranges == [2, 6, 6]  # 3, 7 and 7 ranges, the first on this thread

    def test_one_block_starts_no_pool(self, golden, monkeypatch):
        # a run of at most one block is one range, whatever the workers
        sizes, ranges = [], []
        table = build_syndrome_table(golden, 1)
        ch = DepolarizingChannel(0.1)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", inline_pool(sizes, ranges))
        monkeypatch.setattr(simulate, "_cpus", lambda: 7)
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
            simulate, "_cpus", lambda: cpus
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

    def test_direct_lookup_reads_only_the_syndrome(self, monkeypatch):
        # m = 12 on 40 qubits: the normalizer and basis bits fill word 0
        # above the syndrome and word 1, and are set at random here; every
        # syndrome is queried once, most of them unknown at depth 1
        codeq = _random_code(random.Random(5), 40, 12)
        table = build_syndrome_table(codeq, 1)
        decoder = _BlockDecoder.build(codeq, table)
        assert _slot_indexed(table) and decoder.letters.shape[2] == 2
        keys = {sum(b << i for i, b in enumerate(s)): c for s, c in table.entries.items()}
        assert 0 < len(keys) < 1 << 12
        rng = np.random.default_rng(5)
        sig = rng.integers(0, 1 << 64, (2, 1 << 12), dtype=np.uint64)
        sig[0] = sig[0] >> np.uint64(12) << np.uint64(12) | np.arange(1 << 12, dtype=np.uint64)
        entry, known = decoder.lookup(sig, np.empty(sig.size, dtype=np.uint64))
        assert known.tolist() == [s in keys for s in range(1 << 12)]
        for s in np.flatnonzero(known).tolist():
            assert (decoder.corrections[:, entry[s]] == _signature(decoder.letters, keys[s])).all()
        # the sorted search of a table built without slots finds the same entries
        monkeypatch.setattr(simulate, "_fits_direct", lambda m: False)
        table = build_syndrome_table(codeq, 1)
        assert not _slot_indexed(table)
        sorted_entry, sorted_known = _BlockDecoder.build(codeq, table).lookup(
            sig, np.empty(sig.size, dtype=np.uint64)
        )
        assert (sorted_known == known).all() and (sorted_entry[known] == entry[known]).all()

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
