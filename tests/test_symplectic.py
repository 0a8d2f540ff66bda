"""Tests for the symplectic Gram-Schmidt decomposition and basis completion."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import gf2, symplectic
from eaqecc.builder import build_code
from eaqecc.cli import load_code_file
from eaqecc.pauli import PauliString, parse_pauli, symplectic_product
from eaqecc.symplectic import (
    Decomposition,
    GeneratorSet,
    SymplecticMatrix,
    canonical_generator_rows,
    commutation_matrix,
    find_encoding_symplectic,
    gram_schmidt_decompose,
    group_equal_up_to_phase,
    reduce_independent,
    _first_bad_product,
    _swap_halves,
)

from helpers import (
    BENCH_CORPUS,
    numpy_is_symplectic,
    random_classical_code,
    random_generator_set,
    reference_encoding_symplectic,
    reference_first_bad_product,
    reference_gram_schmidt,
)

EQ1 = ["ZXZI", "ZZIZ", "XYXI", "XXIX"]
EQ2 = ["ZXZI", "ZZIZ", "YXXZ", "ZYYX"]


def gens(texts):
    return GeneratorSet.from_strings(texts)


def random_symplectic_decomposition(rng, n, c, s):
    """c pairs and s isotropic generators read off a random symplectic basis.

    The canonical basis (X_t in row t, Z_t in row n + t) goes through
    random transvections v -> v + <v, h> h, which keep the symplectic form.
    """
    width = 2 * n
    rows = [1 << t for t in range(width)]
    for _ in range(2 * width):
        h = rng.getrandbits(width)
        h_swapped = _swap_halves(h, n)
        rows = [r ^ h if gf2.parity(r & h_swapped) else r for r in rows]
    paulis = [PauliString.from_row(n, r) for r in rows]
    pairs = tuple((paulis[n + i], paulis[i]) for i in range(c))
    return Decomposition(n, pairs, tuple(paulis[n + c + j] for j in range(s)))


@st.composite
def slot_counts(draw):
    n = draw(st.integers(1, 10))
    c = draw(st.integers(0, n))
    return n, c, draw(st.integers(0, n - c))


class TestGeneratorSet:
    def test_rejects_identity_member(self):
        with pytest.raises(ValueError, match="identity"):
            gens(["XX", "II"])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="qubit"):
            GeneratorSet(2, (parse_pauli("XX"), parse_pauli("X")))


class TestReduceIndependent:
    def test_non_dual_containing_set_already_independent(self):
        g = gens(EQ1)
        reduced = reduce_independent(g)
        assert list(reduced.gens) == list(g.gens)
        # oracle: no nonempty subset XORs to zero
        rows = g.rows()
        for combo in range(1, 1 << 4):
            vec = 0
            for j in range(4):
                if (combo >> j) & 1:
                    vec ^= rows[j]
            assert vec != 0

    def test_duplicate_collapses(self):
        p = parse_pauli("XZ")
        reduced = reduce_independent(GeneratorSet(2, (p, p)))
        assert reduced.gens == (p,)

    def test_empty(self):
        assert reduce_independent(GeneratorSet(3, ())).gens == ()

    def test_row_space_preserved_randomized(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 6)
            g = random_generator_set(rng, n, rng.randint(1, 2 * n))
            reduced = reduce_independent(g)
            assert len(reduced) == gf2.rank(g.rows(), 2 * n)
            assert group_equal_up_to_phase(g, reduced) or len(reduced) == 0
            kept = set((p.x, p.z) for p in reduced.gens)
            assert kept <= set((p.x, p.z) for p in g.gens)


class TestCommutationMatrix:
    def test_paper_pattern(self):
        expected = [
            [0, 1, 1, 1],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [1, 1, 1, 0],
        ]
        assert commutation_matrix(gens(EQ1)) == expected

    def test_commuting_set_gives_zero_matrix(self):
        g = gens(["ZZI", "IZZ"])
        assert commutation_matrix(g) == [[0, 0], [0, 0]]

    def test_single_generator(self):
        assert commutation_matrix(gens(["XYZ"])) == [[0]]


class TestGramSchmidt:
    def test_golden_counts(self):
        d = gram_schmidt_decompose(gens(EQ1))
        assert (d.c, d.s) == (1, 2)
        assert group_equal_up_to_phase(GeneratorSet(4, d.generators()), gens(EQ2))

    def test_commuting_set_is_all_isotropic(self):
        d = gram_schmidt_decompose(gens(["ZZI", "IZZ", "XXX"]))
        assert (d.c, d.s) == (0, 3)

    def test_single_anticommuting_pair(self):
        d = gram_schmidt_decompose(gens(["Z", "X"]))
        assert (d.c, d.s) == (1, 0)

    def test_decomposition_invariants_randomized(self):
        rng = random.Random(32)
        for _ in range(150):
            n = rng.randint(1, 6)
            g = reduce_independent(random_generator_set(rng, n, rng.randint(1, 2 * n)))
            if len(g) == 0:
                continue
            d = gram_schmidt_decompose(g)
            d.validate()
            assert 2 * d.c + d.s == len(g)
            # span preservation
            assert group_equal_up_to_phase(GeneratorSet(n, d.generators()), g)
            # 2c equals the rank of the commutation matrix
            mat = commutation_matrix(g)
            rows = [sum(bit << j for j, bit in enumerate(row)) for row in mat]
            assert 2 * d.c == gf2.rank(rows, len(g))

    def test_pairwise_pattern_matches_lemma(self):
        rng = random.Random(33)
        for _ in range(50):
            n = rng.randint(2, 5)
            g = reduce_independent(random_generator_set(rng, n, rng.randint(2, 2 * n)))
            if len(g) == 0:
                continue
            d = gram_schmidt_decompose(g)
            for i, (zbar, xbar) in enumerate(d.pairs):
                assert symplectic_product(zbar, xbar) == 1
                for j, (zb2, xb2) in enumerate(d.pairs):
                    if i == j:
                        continue
                    for a in (zbar, xbar):
                        for b in (zb2, xb2):
                            assert symplectic_product(a, b) == 0
                for iso in d.isotropic:
                    assert symplectic_product(zbar, iso) == 0
                    assert symplectic_product(xbar, iso) == 0
            for i, a in enumerate(d.isotropic):
                for b in d.isotropic[i + 1:]:
                    assert symplectic_product(a, b) == 0


def random_phased_independent_set(rng, n):
    """reduce_independent of random generators, each given a random phase."""
    g = reduce_independent(random_generator_set(rng, n, rng.randint(1, 2 * n)))
    return GeneratorSet(n, tuple(PauliString(n, p.x, p.z, rng.randrange(4)) for p in g.gens))


def assert_matches_reference(g):
    """The row sweep gives the reference's rows in order, every member with phase 0."""
    d, ref = gram_schmidt_decompose(g), reference_gram_schmidt(g)
    assert (d.c, d.s) == (ref.c, ref.s)
    assert [p.row() for p in d.generators()] == [p.row() for p in ref.generators()]
    assert all(p.phase_exp == 0 for p in d.generators())


class TestRowFormsMatchReference:
    """Gram-Schmidt and the commutation matrix on (x|z) rows equal the PauliString forms."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 1 << 32))
    @example(n=4, seed=0)
    @example(n=10, seed=1)
    def test_gram_schmidt_random_sets(self, n, seed):
        assert_matches_reference(random_phased_independent_set(random.Random(seed), n))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 1 << 32))
    def test_commutation_matrix(self, n, seed):
        g = random_phased_independent_set(random.Random(seed), n)
        mat = commutation_matrix(g)
        m = len(g)
        assert [len(row) for row in mat] == [m] * m
        for i in range(m):
            for j in range(m):
                assert mat[i][j] == symplectic_product(g.gens[i], g.gens[j])

    def test_commutation_matrix_of_empty_set(self):
        assert commutation_matrix(GeneratorSet(3, ())) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_commutation_matrix_in_blocks_of_three_rows(self, seed, monkeypatch):
        g = random_phased_independent_set(random.Random(seed), 9)
        whole = commutation_matrix(g)
        monkeypatch.setattr(symplectic, "_BLOCK_WORDS", 3 * len(g))
        assert commutation_matrix(g) == whole
        assert whole == [[symplectic_product(a, b) for b in g.gens] for a in g.gens]
        assert all(type(v) is int for row in whole for v in row)

    @pytest.mark.parametrize("path", sorted(BENCH_CORPUS.glob("*.code")), ids=lambda p: p.stem)
    def test_gram_schmidt_bench_corpus(self, path):
        assert_matches_reference(build_code(load_code_file(str(path)).code).generators)


class TestGroupEqual:
    def test_eq1_vs_eq2(self):
        assert group_equal_up_to_phase(gens(EQ1), gens(EQ2))

    def test_z_vs_x(self):
        assert not group_equal_up_to_phase(gens(["Z"]), gens(["X"]))

    def test_reduction_preserves_group(self):
        rng = random.Random(34)
        for _ in range(50):
            n = rng.randint(1, 5)
            g = random_generator_set(rng, n, rng.randint(1, n + 2))
            assert group_equal_up_to_phase(g, reduce_independent(g))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            group_equal_up_to_phase(gens(["X"]), gens(["XX"]))


class TestFindEncodingSymplectic:
    def test_canonical_decomposition_gives_identity(self):
        n = 3
        zbar = parse_pauli("ZII")
        xbar = parse_pauli("XII")
        iso = parse_pauli("IZI")
        d = Decomposition(n, ((zbar, xbar),), (iso,))
        m = find_encoding_symplectic(d)
        assert m.rows == tuple(1 << t for t in range(2 * n))

    def test_golden_maps_canonical_rows(self):
        d = gram_schmidt_decompose(gens(EQ1))
        m = find_encoding_symplectic(d)
        assert m.is_symplectic()
        assert numpy_is_symplectic(m)
        for canonical_row, target_row in canonical_generator_rows(d):
            assert m.image_of(canonical_row) == target_row

    def test_random_completion_n3_c1_s1(self):
        rng = random.Random(35)
        found = 0
        while found < 20:
            g = reduce_independent(random_generator_set(rng, 3, 3))
            if len(g) == 0:
                continue
            d = gram_schmidt_decompose(g)
            if (d.c, d.s) != (1, 1):
                continue
            found += 1
            m = find_encoding_symplectic(d)
            assert numpy_is_symplectic(m)
            for canonical_row, target_row in canonical_generator_rows(d):
                assert m.image_of(canonical_row) == target_row

    def test_randomized_always_symplectic(self):
        rng = random.Random(36)
        for _ in range(100):
            n = rng.randint(1, 6)
            g = reduce_independent(random_generator_set(rng, n, rng.randint(1, 2 * n)))
            if len(g) == 0:
                continue
            d = gram_schmidt_decompose(g)
            if d.c + d.s > n:
                continue
            m = find_encoding_symplectic(d)
            assert numpy_is_symplectic(m)
            for canonical_row, target_row in canonical_generator_rows(d):
                assert m.image_of(canonical_row) == target_row

    def test_inconsistent_decomposition_rejected(self):
        # a "pair" that commutes violates the invariants
        d = Decomposition(2, ((parse_pauli("ZI"), parse_pauli("IZ")),), ())
        with pytest.raises(ValueError, match="symplectic product"):
            find_encoding_symplectic(d)
        # dependent generators
        d = Decomposition(2, (), (parse_pauli("ZZ"), parse_pauli("ZZ")))
        with pytest.raises(ValueError, match="dependent"):
            find_encoding_symplectic(d)

    @pytest.mark.parametrize(
        "pairs, isotropic",
        [
            ((), ("Z", "Z")),
            ((("ZI", "XI"),), ("IZ", "IZ")),
            ((("ZII", "XII"),), ("IZI", "IIZ", "IZZ")),
            ((), ("ZI", "IZ", "ZZ", "IZ")),
        ],
    )
    def test_more_slots_than_qubits_is_dependent(self, pairs, isotropic):
        # with correct products, c + s > n forces a dependent isotropic row,
        # refused before any slot at or past 2n is written
        d = Decomposition(
            len(isotropic[0]),
            tuple((parse_pauli(z), parse_pauli(x)) for z, x in pairs),
            tuple(parse_pauli(g) for g in isotropic),
        )
        assert d.c + d.s > d.n
        message = "^decomposition generators are GF\\(2\\)-dependent$"
        with pytest.raises(ValueError, match=message):
            d.validate()
        with pytest.raises(ValueError, match=message):
            find_encoding_symplectic(d)

    def test_form_check_survives_optimized_mode(self, monkeypatch):
        # a real check, not an assert that python -O would strip
        monkeypatch.setattr(SymplecticMatrix, "is_symplectic", lambda self: False)
        with pytest.raises(ValueError, match="symplectic form check"):
            find_encoding_symplectic(gram_schmidt_decompose(gens(EQ1)))


def test_completion_refuses_a_dependent_row_past_validate(monkeypatch):
    # the completion's own growing complement refuses a dependent row with
    # validate's message; no separate rank runs
    def no_rank(*args):
        raise AssertionError("find_encoding_symplectic ran a separate rank")

    monkeypatch.setattr(gf2, "rank", no_rank)
    monkeypatch.setattr(Decomposition, "validate", no_rank)
    d = Decomposition(2, (), (parse_pauli("ZZ"), parse_pauli("ZZ")))
    with pytest.raises(ValueError, match="^decomposition generators are GF\\(2\\)-dependent$"):
        find_encoding_symplectic(d)


def test_completion_builds_no_basis(monkeypatch):
    # the completion grows one gf2.Complement alone; the oracle, built
    # first, solves on gf2.Basis
    d = build_code(load_code_file(str(BENCH_CORPUS / "r20.code")).code).decomposition
    expected = reference_encoding_symplectic(d)

    def no_basis(*args):
        raise AssertionError("find_encoding_symplectic built a gf2.Basis")

    monkeypatch.setattr(gf2, "Basis", no_basis)
    assert find_encoding_symplectic(d) == expected
    bad = Decomposition(2, (), (parse_pauli("ZZ"), parse_pauli("ZZ")))
    with pytest.raises(ValueError, match="^decomposition generators are GF\\(2\\)-dependent$"):
        find_encoding_symplectic(bad)


# sha256 of ",".join(map(hex, rows)) of each corpus code's encoding matrix,
# taken before the completion shared its elimination with the dependence check
CORPUS_ENCODINGS = {
    "d5": "d5961b4d9e5e86052184104dedec12374fe9c6184393b28ea8494194d7a0594a",
    "h22": "0882c8be60dccaab14e7ddf33bb8b5deda44af67a346063700369fa616a46708",
    "h4": "8ef5b40d1331db805d01d903fac1bffa3b8e203cfe6fcf02f046988a4826db54",
    "n128": "b1f876dc857b8a0daef4f9bf550fe82a2045f158770650d210b2734da78c3bbe",
    "n64": "eeea35550c32ae112d028f8f306039e6ad51c366a3500e4ddc119f4915e80659",
    "r16": "17f2fa12f87427fcbefd9dc471d6967d1ce9b19f4af22164e542e603a9e253aa",
    "r20": "3218951d6d4f4e025e4fcf248d445b160b5b68a74676797601d9bcd86f511056",
    "r24": "a7fa10ea080b184ad2d77c6dfcc67648fb1788ba66bca8c191b36f51ac528eec",
    "r40": "a0e0af1cc37e032198c22a06bba65ab1a674f1e4d4e2bc57b5c457b767cce514",
    "w64": "61bcd212727e6b0d3c9d6a3dedbe9f36802ea6b8a02410f0af638529b3623faf",
}


def test_corpus_encodings_are_pinned():
    got = {}
    for path in sorted(BENCH_CORPUS.glob("*.code")):
        rows = find_encoding_symplectic(build_code(load_code_file(str(path)).code).decomposition).rows
        got[path.stem] = hashlib.sha256(",".join(map(hex, rows)).encode()).hexdigest()
    assert got == CORPUS_ENCODINGS


class TestCompletionMatchesReference:
    """The growing-complement completion equals a from-scratch solve per free slot, row for row."""

    @settings(max_examples=200, deadline=None)
    @given(counts=slot_counts(), seed=st.integers(0, 1 << 32))
    @example(counts=(1, 0, 0), seed=0)
    @example(counts=(1, 1, 0), seed=0)
    @example(counts=(1, 0, 1), seed=0)
    @example(counts=(6, 0, 3), seed=1)
    @example(counts=(6, 3, 0), seed=2)
    @example(counts=(7, 2, 5), seed=3)
    @example(counts=(10, 0, 10), seed=4)
    @example(counts=(10, 10, 0), seed=5)
    @example(counts=(10, 4, 6), seed=6)
    def test_random_symplectic_decompositions(self, counts, seed):
        d = random_symplectic_decomposition(random.Random(seed), *counts)
        assert find_encoding_symplectic(d) == reference_encoding_symplectic(d)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 1 << 32))
    def test_gram_schmidt_decompositions(self, n, seed):
        rng = random.Random(seed)
        g = reduce_independent(random_generator_set(rng, n, rng.randint(1, 2 * n)))
        d = gram_schmidt_decompose(g)
        assert d.c + d.s <= n
        assert find_encoding_symplectic(d) == reference_encoding_symplectic(d)

    def test_random_n48_code(self):
        d = build_code(random_classical_code(random.Random(48), 48, 28)).decomposition
        assert find_encoding_symplectic(d) == reference_encoding_symplectic(d)

    @pytest.mark.parametrize("path", sorted(BENCH_CORPUS.glob("*.code")), ids=lambda p: p.stem)
    def test_bench_corpus(self, path):
        d = build_code(load_code_file(str(path)).code).decomposition
        assert find_encoding_symplectic(d) == reference_encoding_symplectic(d)


class TestValidate:
    @settings(max_examples=300, deadline=None)
    @given(counts=slot_counts(), seed=st.integers(0, 1 << 32), flips=st.integers(0, 3))
    @example(counts=(3, 0, 3), seed=7, flips=1)  # the pattern holds, the rows are dependent
    @example(counts=(2, 1, 1), seed=3, flips=1)
    @example(counts=(6, 2, 3), seed=1, flips=0)
    def test_names_the_first_bad_pair(self, counts, seed, flips):
        rng = random.Random(seed)
        n, c, _ = counts
        d = random_symplectic_decomposition(rng, *counts)
        rows = [g.row() for g in d.generators()]
        for _ in range(flips if rows else 0):
            rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(2 * n)
        gens = [PauliString.from_row(n, r) for r in rows]
        d = Decomposition(n, tuple(zip(gens[: 2 * c : 2], gens[1 : 2 * c : 2])), tuple(gens[2 * c :]))
        bad = [
            (i, j, int(i // 2 == j // 2 and j < 2 * c))
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
            if symplectic_product(gens[i], gens[j]) != (i // 2 == j // 2 and j < 2 * c)
        ]
        if bad:
            i, j, expect = bad[0]
            message = f"^generators {i} and {j} have symplectic product {1 - expect}, expected {expect}$"
            with pytest.raises(ValueError, match=message):
                d.validate()
        elif gf2.rank(rows, 2 * n) < len(rows):
            with pytest.raises(ValueError, match="dependent"):
                d.validate()
        else:
            d.validate()


class TestIsSymplectic:
    @settings(max_examples=200, deadline=None)
    @given(counts=slot_counts(), seed=st.integers(0, 1 << 32), flips=st.integers(0, 3))
    def test_matches_numpy_oracle_on_perturbed_matrices(self, counts, seed, flips):
        rng = random.Random(seed)
        n = counts[0]
        rows = list(find_encoding_symplectic(random_symplectic_decomposition(rng, *counts)).rows)
        for _ in range(flips):
            rows[rng.randrange(2 * n)] ^= 1 << rng.randrange(2 * n)
        m = SymplecticMatrix(n, tuple(rows))
        assert m.is_symplectic() == numpy_is_symplectic(m)

    def test_rejects_rows_outside_the_width(self):
        for rows, bad in [((0b101, 0b10), "row 0 = 5"), ((-1, 2), "row 0 = -1"), ((1, 4), "row 1 = 4")]:
            with pytest.raises(ValueError, match=f"^{bad} lies outside \\[0, 2\\*\\*2\\)$"):
                SymplecticMatrix(1, rows)
        assert SymplecticMatrix(1, (1, 2)).is_symplectic()
        assert SymplecticMatrix(1, (2, 1)).is_symplectic()

    def test_image_of_rejects_vectors_outside_the_width(self):
        m = SymplecticMatrix(1, (1, 2))
        for bad in (4, -1, 1 << 70):
            with pytest.raises(ValueError, match=f"^vector {bad} lies outside \\[0, 2\\*\\*2\\)$"):
                m.image_of(bad)
        assert [m.image_of(v) for v in range(4)] == [0, 1, 2, 3]

    def test_memory_at_2n_2048_stays_blocked(self):
        # a symplectic matrix scans every block.  The kernel's two uint64
        # Gram temporaries are 256 KB each and its packed rows 512 KB per
        # copy (2.4 MB peak in all), where a whole (2n, 2n) parity matrix
        # would be 4 MB as uint8 and 32 MB as a uint64 Gram matrix
        rng = random.Random(2048)
        n = 1024
        rows = [1 << t for t in range(2 * n)]
        for _ in range(8):
            h = rng.getrandbits(2 * n)
            h_swapped = _swap_halves(h, n)
            rows = [r ^ h if gf2.parity(r & h_swapped) else r for r in rows]
        m = SymplecticMatrix(n, tuple(rows))
        tracemalloc.start()
        try:
            assert m.is_symplectic()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def perturbed_rows(rng, counts, flips, as_matrix):
    """Rows of a random symplectic matrix or decomposition, with partners, after random bit flips."""
    n, c, _ = counts
    d = random_symplectic_decomposition(rng, *counts)
    if as_matrix:
        rows = list(find_encoding_symplectic(d).rows)
        partners = [(a + n) % (2 * n) for a in range(2 * n)]
    else:
        rows = [g.row() for g in d.generators()]
        partners = [i ^ 1 if i < 2 * c else -1 for i in range(len(rows))]
    for _ in range(flips if rows else 0):
        rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(2 * n)
    return rows, n, partners


@st.composite
def wide_slot_counts(draw):
    n = draw(st.sampled_from([1, 2, 5, 31, 32, 33, 40, 64]))
    c = draw(st.integers(0, n))
    return n, c, draw(st.integers(0, n - c))


class TestProductKernel:
    """The packed kernel names the same first bad pair as the pairwise loop."""

    @pytest.mark.parametrize("block_rows", [None, 3])
    @settings(max_examples=100, deadline=None)
    @given(
        counts=wide_slot_counts(),
        seed=st.integers(0, 1 << 32),
        flips=st.integers(0, 3),
        as_matrix=st.booleans(),
    )
    @example(counts=(1, 0, 0), seed=0, flips=0, as_matrix=False)  # no rows
    @example(counts=(1, 0, 1), seed=0, flips=1, as_matrix=False)  # one row
    @example(counts=(32, 10, 12), seed=1, flips=1, as_matrix=False)  # 2n = 64
    @example(counts=(32, 16, 16), seed=2, flips=2, as_matrix=True)
    @example(counts=(33, 3, 30), seed=3, flips=3, as_matrix=True)  # 2n = 66
    @example(counts=(40, 20, 20), seed=4, flips=0, as_matrix=True)
    def test_matches_pairwise_loop(self, block_rows, counts, seed, flips, as_matrix):
        rows, n, partners = perturbed_rows(random.Random(seed), counts, flips, as_matrix)
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(symplectic, "_BLOCK_WORDS", block_rows * len(rows))
            assert _first_bad_product(rows, n, partners) == reference_first_bad_product(rows, n, partners)

    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_bad_pair_in_a_late_block(self, block_rows, monkeypatch):
        n = 40
        rows = list(SymplecticMatrix(n, tuple(1 << t for t in range(2 * n))).rows)
        rows[70] ^= 1 << 5  # row 70 (Z on qubit 30) gains X on qubit 5: row 45 is Z there
        partners = [(a + n) % (2 * n) for a in range(2 * n)]
        if block_rows is not None:
            monkeypatch.setattr(symplectic, "_BLOCK_WORDS", block_rows * len(rows))
        assert _first_bad_product(rows, n, partners) == (45, 70)
        assert reference_first_bad_product(rows, n, partners) == (45, 70)
