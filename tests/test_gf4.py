"""Tests for GF(4) arithmetic and matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqecc import gf4
from eaqecc.gf4 import OMEGA, OMEGA_BAR, ONE, ZERO

from helpers import reference_gf4_rank


class TestFieldAxioms:
    def test_characteristic_two(self):
        for a in gf4.ELEMENTS:
            assert gf4.add(a, a) == ZERO

    def test_omega_relations(self):
        assert gf4.mul(OMEGA, OMEGA) == OMEGA_BAR
        assert gf4.mul(OMEGA, OMEGA_BAR) == ONE
        assert gf4.mul(OMEGA, gf4.mul(OMEGA, OMEGA)) == ONE
        assert gf4.add(ONE, gf4.add(OMEGA, gf4.mul(OMEGA, OMEGA))) == ZERO

    def test_add_mul_commutative_associative(self):
        for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
            assert gf4.add(a, b) == gf4.add(b, a)
            assert gf4.mul(a, b) == gf4.mul(b, a)
        for a, b, c in itertools.product(gf4.ELEMENTS, repeat=3):
            assert gf4.add(gf4.add(a, b), c) == gf4.add(a, gf4.add(b, c))
            assert gf4.mul(gf4.mul(a, b), c) == gf4.mul(a, gf4.mul(b, c))

    def test_distributivity(self):
        for a, b, c in itertools.product(gf4.ELEMENTS, repeat=3):
            assert gf4.mul(a, gf4.add(b, c)) == gf4.add(gf4.mul(a, b), gf4.mul(a, c))

    def test_identities_and_inverses(self):
        for a in gf4.ELEMENTS:
            assert gf4.add(a, ZERO) == a
            assert gf4.mul(a, ONE) == a
            assert gf4.mul(a, ZERO) == ZERO
        # every nonzero element has a multiplicative inverse (its conjugate)
        for a in (ONE, OMEGA, OMEGA_BAR):
            assert gf4.mul(a, gf4.conj(a)) == ONE

    def test_conj_is_frobenius_square(self):
        for a in gf4.ELEMENTS:
            assert gf4.conj(a) == gf4.mul(a, a)

    def test_trace_values(self):
        assert [gf4.trace(a) for a in gf4.ELEMENTS] == [0, 0, 1, 1]


def test_symbol_round_trip():
    for a in gf4.ELEMENTS:
        assert gf4.parse_symbol(gf4.format_symbol(a)) == a
    with pytest.raises(ValueError, match="invalid GF"):
        gf4.parse_symbol("2")


def test_scale():
    assert gf4.scale((ONE, OMEGA, ONE, ZERO), OMEGA) == (OMEGA, OMEGA_BAR, OMEGA, ZERO)
    assert gf4.scale((ONE, ONE, ZERO, ONE), OMEGA_BAR) == (OMEGA_BAR, OMEGA_BAR, ZERO, OMEGA_BAR)


class TestPlanes:
    @settings(max_examples=200, deadline=None)
    @given(vec=st.lists(st.sampled_from(gf4.ELEMENTS), max_size=300))
    def test_bit_j_is_entry_j_coefficient(self, vec):
        ones, omegas = gf4.planes(vec)
        assert ones == sum((a & 1) << j for j, a in enumerate(vec))
        assert omegas == sum((a >> 1) << j for j, a in enumerate(vec))
        assert gf4.planes(tuple(vec)) == gf4.planes(np.array(vec, dtype=np.int64))

    def test_hand_cases(self):
        assert gf4.planes(()) == (0, 0)
        assert gf4.planes((ONE, OMEGA, OMEGA_BAR, ZERO)) == (0b101, 0b110)

    # 48 and 49 are the bytes of the digits "0" and "1"
    @pytest.mark.parametrize("bad", [4, 48, 49, 255, -1, 256])
    def test_non_element_rejected(self, bad):
        with pytest.raises(ValueError):
            gf4.planes((ONE, bad, ZERO))


def test_hermitian_trace_inner():
    # single entries: trace(a * conj(b))
    assert gf4.hermitian_trace_inner((OMEGA_BAR,), (OMEGA,)) == 1
    assert gf4.hermitian_trace_inner((OMEGA_BAR,), (OMEGA_BAR,)) == 0
    assert gf4.hermitian_trace_inner((ONE,), (OMEGA,)) == 1
    with pytest.raises(ValueError, match="length"):
        gf4.hermitian_trace_inner((ONE,), (ONE, ONE))


class TestRank:
    def test_hand_cases(self):
        assert gf4.rank([], 3) == 0
        assert gf4.rank([(ZERO, ZERO)], 2) == 0
        assert gf4.rank([(ONE, OMEGA)], 2) == 1
        # second row is omega times the first: dependent
        assert gf4.rank([(ONE, OMEGA), (OMEGA, OMEGA_BAR)], 2) == 1
        assert gf4.rank([(ONE, ZERO), (ZERO, ONE)], 2) == 2
        assert gf4.rank([(ONE, OMEGA, ONE, ZERO), (ONE, ONE, ZERO, ONE)], 4) == 2

    def test_rank_invariant_under_row_scaling(self):
        rows = [(ONE, OMEGA, OMEGA_BAR), (ZERO, ONE, ONE)]
        for s in (ONE, OMEGA, OMEGA_BAR):
            scaled = [gf4.scale(r, s) for r in rows]
            assert gf4.rank(scaled, 3) == gf4.rank(rows, 3)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_direct_gf4_elimination(self, data):
        ncols = data.draw(st.integers(1, 8))
        element = st.sampled_from(gf4.ELEMENTS)
        nonzero = st.sampled_from((ONE, OMEGA, OMEGA_BAR))
        rows = data.draw(st.lists(st.tuples(*[element] * ncols), max_size=5))
        for _ in range(data.draw(st.integers(0, 4))):
            kind = data.draw(st.sampled_from(("zero", "scaled", "sum")))
            if kind == "zero" or not rows:
                rows.append((ZERO,) * ncols)
            elif kind == "scaled":
                rows.append(gf4.scale(data.draw(st.sampled_from(rows)), data.draw(nonzero)))
            else:
                u = gf4.scale(data.draw(st.sampled_from(rows)), data.draw(nonzero))
                v = gf4.scale(data.draw(st.sampled_from(rows)), data.draw(nonzero))
                rows.append(tuple(a ^ b for a, b in zip(u, v)))
        rows = data.draw(st.permutations(rows))
        assert gf4.rank(rows, ncols) == reference_gf4_rank(rows, ncols)


class TestGfFourMatrix:
    def test_construction_and_access(self):
        m = gf4.GfFourMatrix.from_rows([(ONE, OMEGA), (ZERO, ONE)])
        assert (m.nrows, m.ncols) == (2, 2)
        assert m.row(0) == (ONE, OMEGA)
        assert m.rank() == 2

    def test_zero_row_matrix_keeps_width(self):
        m = gf4.GfFourMatrix(3, ())
        assert (m.nrows, m.ncols) == (0, 3)
        assert m.rank() == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="column"):
            gf4.GfFourMatrix(2, ((ONE,),))
        with pytest.raises(ValueError, match="invalid GF"):
            gf4.GfFourMatrix(1, ((7,),))
        with pytest.raises(ValueError, match="ncols"):
            gf4.GfFourMatrix.from_rows([])

    @pytest.mark.parametrize(
        "bad, shown",
        [(7, "7"), (-1, "-1"), (4, "4"), ("w", "'w'"), (None, "None"), ([], "[]")],
    )
    def test_bad_entry_deep_in_a_wide_row(self, bad, shown):
        # the first bad entry is named, not a later one; an unhashable entry
        # is refused with the same error
        row = [ONE] * 128
        row[100], row[120] = bad, 9
        with pytest.raises(ValueError) as exc:
            gf4.GfFourMatrix(128, ((ZERO,) * 128, tuple(row)))
        assert str(exc.value) == f"invalid GF(4) value {shown}"

    def test_entries_equal_to_elements_still_pass(self):
        # the set test admits what the per-entry test admitted: equal values
        m = gf4.GfFourMatrix(3, ((True, 2.0, OMEGA_BAR),))
        assert m.entries == ((1, 2, 3),)
