import copy
import math
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ba137qudit.angmom import HalfInt, _wigner3j_signed_square, clebsch_gordan
from oracles import oracle_cg


def _halves(maxj):
    return [k / 2 for k in range(0, int(2 * maxj) + 1)]


def _projections(j):
    return [m / 2 for m in range(-int(2 * j), int(2 * j) + 1, 2)]


def wigner3j(*jm):
    """The 3j symbol (j1 j2 j3; m1 m2 m3) from its exact sign and square."""
    sign, square = _wigner3j_signed_square(*(round(2 * x) for x in jm))
    return sign * math.sqrt(square)


class TestHalfInt:
    def test_coerce(self):
        assert HalfInt.coerce(2).twice == 4
        assert HalfInt.coerce(1.5).twice == 3
        assert HalfInt.coerce(HalfInt(5)).twice == 5

    def test_coerce_rejects_non_half_integer(self):
        for x in (0.3, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                HalfInt.coerce(x)

    def test_one_instance_per_value(self):
        assert HalfInt.coerce(2.5) is HalfInt(5) is HalfInt(twice=5) is HalfInt.coerce(HalfInt(5))
        assert HalfInt(3) - 1 is HalfInt(1)

    def test_copy_deepcopy_and_pickle_keep_the_instance(self):
        half = HalfInt(-3)
        assert copy.copy(half) is half and copy.deepcopy(half) is half
        assert pickle.loads(pickle.dumps(half)) is half
        assert copy.deepcopy([half, (half,)])[1][0] is half

    def test_assignment_raises(self):
        half = HalfInt(1)
        with pytest.raises(AttributeError):
            half.twice = 3
        with pytest.raises(AttributeError):
            del half.twice
        assert half.twice == 1 and HalfInt(1) is half

    def test_orders_by_value(self):
        values = [HalfInt(t) for t in (3, -1, 4, 0, -4, 1)]
        assert [h.twice for h in sorted(values)] == [-4, -1, 0, 1, 3, 4]
        assert HalfInt(1) < HalfInt(2) <= HalfInt(2) and HalfInt(3) > HalfInt(-3) >= HalfInt(-3)
        with pytest.raises(TypeError):
            HalfInt(1) < 1

    def test_arithmetic_and_str(self):
        assert float(HalfInt(3) - HalfInt(1)) == 1.0
        assert float(HalfInt(3) - 3) == -1.5
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(0.5, 0.5, 2, 2, 2.5, 2.5) == 1.0

    def test_projection_selection_rule(self):
        assert clebsch_gordan(0.5, 0.5, 2, 1, 2.5, 2.5) == 0.0

    def test_derived_value(self):
        # <2,2; 1/2,-1/2 | 5/2,3/2> = +sqrt(1/5), frozen from the oracle
        want = math.sqrt(1 / 5)
        assert abs(oracle_cg(2, 2, 0.5, -0.5, 2.5, 1.5) - want) < 1e-13
        assert clebsch_gordan(2, 2, 0.5, -0.5, 2.5, 1.5) == pytest.approx(want, abs=1e-14)

    def test_matches_oracle_exhaustively(self):
        for tj1, tj2 in product(range(0, 6), repeat=2):
            j1, j2 = tj1 / 2, tj2 / 2
            for J2 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                J = J2 / 2
                for m1, m2 in product(_projections(j1), _projections(j2)):
                    got = clebsch_gordan(j1, m1, j2, m2, J, m1 + m2)
                    want = oracle_cg(j1, m1, j2, m2, J, m1 + m2)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_orthonormality_j_up_to_4(self):
        for j1 in _halves(4):
            for j2 in _halves(4):
                for m1, m2 in product(_projections(j1), _projections(j2)):
                    total = 0.0
                    M = m1 + m2
                    J2min = int(2 * abs(j1 - j2))
                    J2max = int(2 * (j1 + j2))
                    for J2 in range(J2min, J2max + 1, 2):
                        total += clebsch_gordan(j1, m1, j2, m2, J2 / 2, M) ** 2
                    assert abs(total - 1.0) < 1e-12

    def test_swap_symmetry_j_up_to_4(self):
        for j1 in _halves(4):
            for j2 in _halves(4):
                J2min = int(2 * abs(j1 - j2))
                J2max = int(2 * (j1 + j2))
                for J2 in range(J2min, J2max + 1, 2):
                    J = J2 / 2
                    phase = (-1) ** int(round(j1 + j2 - J))
                    for m1, m2 in product(_projections(j1), _projections(j2)):
                        a = clebsch_gordan(j1, m1, j2, m2, J, m1 + m2)
                        b = clebsch_gordan(j2, m2, j1, m1, J, m1 + m2)
                        assert a == pytest.approx(phase * b, abs=1e-13)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(st.integers(10, 16), st.integers(0, 16), st.data())
    def test_past_j_nine_halves_property(self, tj1, tj2, data):
        # j1 of 5 to 8: values against the oracle, orthonormality of the rows
        # (sum over J) and of the columns (sum over m1 at fixed J, M), and
        # swap symmetry, at the bounds of the j <= 4 tests
        j1, j2 = tj1 / 2, tj2 / 2
        m1 = data.draw(st.sampled_from(_projections(j1)))
        m2 = data.draw(st.sampled_from(_projections(j2)))
        M = m1 + m2
        Js = [J2 / 2 for J2 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2) if J2 >= abs(2 * M)]
        total = 0.0
        for J in Js:
            a = clebsch_gordan(j1, m1, j2, m2, J, M)
            assert a == pytest.approx(oracle_cg(j1, m1, j2, m2, J, M), abs=1e-12)
            phase = (-1) ** int(round(j1 + j2 - J))
            assert a == pytest.approx(phase * clebsch_gordan(j2, m2, j1, m1, J, M), abs=1e-13)
            total += a**2
        assert abs(total - 1.0) < 1e-12
        column = {J: [clebsch_gordan(j1, x, j2, M - x, J, M) for x in _projections(j1)]
                  for J in Js}
        for J, K in product(Js, repeat=2):
            overlap = sum(a * b for a, b in zip(column[J], column[K]))
            assert abs(overlap - (J == K)) < 1e-12

    def test_triangle_violation_returns_zero(self):
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 2, 0) == 0.0


class TestWigner3j:
    def test_known_values(self):
        assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)
        assert wigner3j(1, 1, 1, 1, -1, 0) == pytest.approx(1 / math.sqrt(6), abs=1e-15)

    def test_m_selection_rule(self):
        assert wigner3j(1, 1, 1, 1, 1, 0) == 0.0
        assert wigner3j(2, 2, 2, 1, 0, 0) == 0.0

    def test_cg_identity_exact(self):
        # CG = (-1)^(j1-j2+M) sqrt(2J+1) * 3j(j1 j2 J; m1 m2 -M), exactly
        for tj1, tj2 in product(range(0, 8), repeat=2):
            j1, j2 = tj1 / 2, tj2 / 2
            for J2 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                J = J2 / 2
                for m1, m2 in product(_projections(j1), _projections(j2)):
                    M = m1 + m2
                    if abs(M) > J:
                        continue
                    cg = clebsch_gordan(j1, m1, j2, m2, J, M)
                    tj = wigner3j(j1, j2, J, m1, m2, -M)
                    phase = (-1) ** int(round(j1 - j2 + M))
                    assert cg == pytest.approx(
                        phase * math.sqrt(2 * J + 1) * tj, rel=1e-14, abs=1e-15
                    )

    def test_headroom_to_j_nine_halves(self):
        # stretched 9/2 + 9/2 -> 9 coupling: CG = 1, so 3j = -1/sqrt(19)
        got = wigner3j(4.5, 4.5, 9, 4.5, 4.5, -9)
        assert got == pytest.approx(-1 / math.sqrt(19), abs=1e-14)
