"""Tests for the int-bitset GF(2) linear algebra helpers."""

import random
from functools import reduce
from operator import or_, xor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import gf2

from helpers import reference_eliminate, reference_nullspace


def test_rank_simple_cases():
    assert gf2.rank([], 4) == 0
    assert gf2.rank([0b0000], 4) == 0
    assert gf2.rank([0b0001, 0b0010], 4) == 2
    assert gf2.rank([0b0011, 0b0011], 4) == 1
    assert gf2.rank([0b001, 0b010, 0b011], 3) == 2
    assert gf2.rank([0b111, 0b110, 0b100], 3) == 3


def test_row_reduce_gives_rref():
    reduced, pivots = gf2.row_reduce([0b110, 0b011, 0b101], 3)
    assert len(reduced) == len(pivots) == 2
    # each pivot column appears in exactly one row
    for row, col in zip(reduced, pivots):
        assert (row >> col) & 1
        for other in reduced:
            if other != row:
                assert not (other >> col) & 1


def test_in_span():
    rows = [0b0110, 0b0011]
    assert gf2.in_span(0b0101, rows, 4)
    assert gf2.in_span(0, rows, 4)
    assert not gf2.in_span(0b1000, rows, 4)
    assert not gf2.in_span(0b0100, rows, 4)


def test_basis_reduce_detects_membership():
    rng = random.Random(11)
    for _ in range(100):
        width = rng.randint(1, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, width))]
        basis = gf2.Basis(width, rows)
        vec = rng.getrandbits(width)
        residue = basis.reduce(vec)
        # the residue has no pivot bit, and is zero exactly for a member of the span
        assert not residue & basis.mask
        rank = len(reference_eliminate(rows, width)[1])
        assert (residue == 0) == (len(reference_eliminate(rows + [vec], width)[1]) == rank)
        # any subset XOR of the rows must reduce to zero
        combo = 0
        for r in rows:
            if rng.random() < 0.5:
                combo ^= r
        assert basis.reduce(combo) == 0


def test_solve_satisfies_constraints():
    rng = random.Random(23)
    solved = 0
    for _ in range(200):
        width = rng.randint(1, 10)
        m = rng.randint(1, width + 2)
        rows = [rng.getrandbits(width) for _ in range(m)]
        rhs = [rng.randint(0, 1) for _ in range(m)]
        x = gf2.solve(rows, rhs, width)
        if x is None:
            continue
        solved += 1
        for row, b in zip(rows, rhs):
            assert gf2.parity(row & x) == b
    assert solved > 50


def test_solve_inconsistent_returns_none():
    # x0 = 0 and x0 = 1 simultaneously
    assert gf2.solve([0b1, 0b1], [0, 1], 1) is None
    assert gf2.solve([0b11, 0b11], [1, 0], 2) is None


def test_solve_full_rank_always_solvable():
    rng = random.Random(5)
    for _ in range(50):
        width = rng.randint(1, 8)
        rows = []
        while gf2.rank(rows, width) < width:
            rows = [rng.getrandbits(width) for _ in range(width)]
        rhs = [rng.randint(0, 1) for _ in range(width)]
        assert gf2.solve(rows, rhs, width) is not None


def test_nullspace_dimension_and_orthogonality():
    rng = random.Random(7)
    for _ in range(100):
        width = rng.randint(1, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, width))]
        basis = gf2.nullspace(rows, width)
        assert len(basis) == width - gf2.rank(rows, width)
        for vec in basis:
            for row in rows:
                assert gf2.parity(row & vec) == 0
        assert gf2.rank(basis, width) == len(basis)


@st.composite
def systems(draw):
    """(width, rows, rhs): random rows below width, with zero and duplicate rows mixed in."""
    width = draw(st.integers(0, 20))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=25))
    rows += [0] * draw(st.integers(0, 2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows = draw(st.permutations(rows))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return width, rows, rhs


def reference_solve(rows, rhs, width):
    work, pivots = reference_eliminate([r | b << width for r, b in zip(rows, rhs)], width)
    if any(work[len(pivots):]):
        return None
    return sum(1 << col for row, col in zip(work, pivots) if (row >> width) & 1)


class TestMatchesColumnSweep:
    """rank, row_reduce, nullspace, in_span and solve equal the column-sweep elimination."""

    @settings(max_examples=400, deadline=None)
    @given(system=systems(), vec=st.integers(0, (1 << 20) - 1))
    @example(system=(0, [], []), vec=0)
    @example(system=(0, [0, 0], [0, 1]), vec=0)
    @example(system=(3, [0b101, 0b101, 0b011], [1, 0, 1]), vec=0b110)
    @example(system=(4, [0, 0b1000, 0b1000], [0, 1, 1]), vec=0b1000)
    def test_kernels(self, system, vec):
        width, rows, rhs = system
        vec &= (1 << width) - 1
        work, pivots = reference_eliminate(rows, width)
        assert gf2.rank(rows, width) == len(pivots)
        assert gf2.row_reduce(rows, width) == (work[: len(pivots)], pivots)
        assert gf2.nullspace(rows, width) == reference_nullspace(rows, width)
        in_span = len(reference_eliminate(rows + [vec], width)[1]) == len(pivots)
        assert gf2.in_span(vec, rows, width) == in_span
        assert gf2.solve(rows, rhs, width) == reference_solve(rows, rhs, width)

    @settings(max_examples=200, deadline=None)
    @given(system=systems(), flip=st.integers(0, 1 << 20))
    def test_inconsistent_systems(self, system, flip):
        # a copy of a row with the other right-hand side makes every system inconsistent
        width, rows, rhs = system
        if not rows:
            return
        i = flip % len(rows)
        rows, rhs = rows + [rows[i]], rhs + [1 - rhs[i]]
        assert reference_solve(rows, rhs, width) is None
        assert gf2.solve(rows, rhs, width) is None


def check_basis(basis, rows, width):
    """basis, grown from rows (tags aside), against the column-sweep elimination of rows."""
    low = (1 << width) - 1
    work, pivots = reference_eliminate(rows, width)
    by_pivot = sorted(zip(basis.bits, basis.rows))
    assert [r & low for _, r in by_pivot] == work[: len(pivots)]
    assert [bit for bit, _ in by_pivot] == [1 << p for p in pivots]
    assert basis.mask == reduce(or_, basis.bits, 0)
    assert basis.free() == [c for c in range(width) if c not in pivots]


@settings(max_examples=200, deadline=None)
@given(system=systems())
def test_basis_tags_name_the_rows_combined(system):
    width, rows, rhs = system
    low = (1 << width) - 1
    basis = gf2.Basis(width)
    # the same rows with each right-hand side as the tag at width
    augmented = gf2.Basis(width)
    inconsistent = False
    for t, row in enumerate(rows):
        rank = len(basis.rows)
        residue = basis.add(row | 1 << (width + t))
        assert len(basis.rows) == rank + (residue & low != 0)
        # every residue and basis row is the XOR of the input rows its tag names
        for r in basis.rows + [residue]:
            named = [rows[j] for j in range(t + 1) if (r >> (width + j)) & 1]
            assert r & low == reduce(xor, named, 0)
        check_basis(basis, rows[: t + 1], width)
        inconsistent |= augmented.add(row | rhs[t] << width) == 1 << width
        check_basis(augmented, rows[: t + 1], width)
        expected = reference_solve(rows[: t + 1], rhs[: t + 1], width)
        assert inconsistent == (expected is None)
        if not inconsistent:
            assert augmented.solution(width) == expected
    by_pivot = sorted(zip(basis.bits, basis.rows))
    assert gf2.row_reduce(rows, width) == (
        [r & low for _, r in by_pivot],
        [bit.bit_length() - 1 for bit, _ in by_pivot],
    )


@settings(max_examples=300, deadline=None)
@given(system=systems(), high=st.lists(st.integers(0, 7), max_size=31))
@example(system=(0, [], []), high=[])
@example(system=(0, [0, 0], [0, 1]), high=[1, 3])
@example(system=(3, [0b101, 0, 0b101, 0b011, 0b110], [0] * 5), high=[0, 2, 1, 0, 5])
def test_complement_is_the_nullspace_after_every_add(system, high):
    # the rows carry bits at and above width, which the complement ignores
    width, rows, _ = system
    rows = [row | h << width for row, h in zip(rows, high + [0] * len(rows))]
    complement = gf2.Complement(width)
    basis = gf2.Basis(width)
    assert list(complement.vectors.values()) == reference_nullspace([], width)
    for t, row in enumerate(rows):
        before = dict(complement.vectors)
        pivots = reference_eliminate(rows[:t], width)[1]
        out = complement.add(row)
        basis.add(row)
        added = sorted(set(reference_eliminate(rows[: t + 1], width)[1]) - set(pivots))
        if out is None:
            assert added == []
            assert complement.vectors == before
        else:
            [pivot] = added
            assert out == before[pivot] and (out >> pivot) & 1
            assert gf2.parity(out & row) == 1
            assert all(gf2.parity(out & earlier) == 0 for earlier in rows[:t])
        assert list(complement.vectors) == basis.free()
        assert list(complement.vectors.values()) == reference_nullspace(rows[: t + 1], width)
