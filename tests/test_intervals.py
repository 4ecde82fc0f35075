from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkd.intervals import (
    IntervalReal,
    exp_interval,
    mpf_fraction,
    pi_interval,
    sqrt_rational_interval,
    to_interval,
)


class TestConstruction:
    def test_int_exact(self):
        x = to_interval(7, 128)
        assert x.lo == x.hi == 7
        assert x.contains(7)

    def test_fraction_enclosure(self):
        x = to_interval(Fraction(1, 3), 128)
        assert x.lo < x.hi
        assert x.contains(Fraction(1, 3))
        assert x.width < mp.mpf(2) ** -120

    def test_huge_int_rounds_outward(self):
        big = 10**60 + 1
        x = to_interval(big, 64)
        assert x.lo_fraction() <= big <= x.hi_fraction()
        assert x.lo < x.hi

    def test_pair(self):
        x = to_interval((1, 2), 64)
        assert x.contains(Fraction(3, 2))

    def test_disordered_rejected(self):
        with pytest.raises(ValueError):
            IntervalReal(lo=mp.mpf(2), hi=mp.mpf(1), prec=64)


class TestArithmetic:
    def test_third_times_three_contains_one(self):
        x = to_interval(Fraction(1, 3), 96) * 3
        assert x.contains(1)

    def test_division(self):
        x = to_interval(1, 96) / 3
        assert x.contains(Fraction(1, 3))

    def test_pow_negative(self):
        x = to_interval(2, 96) ** -2
        assert x.contains(Fraction(1, 4))

    def test_abs_straddling(self):
        x = to_interval((-2, 1), 64)
        a = abs(x)
        assert a.lo == 0 and a.hi == 2

    def test_sqrt_squares_back(self):
        r = sqrt_rational_interval(Fraction(2), 128)
        assert (r * r).contains(2)


class TestConstants:
    def test_pi_between_classical_bounds(self):
        p = pi_interval(128)
        assert Fraction(103993, 33102) < p.lo_fraction()
        assert p.hi_fraction() < Fraction(355, 113)

    def test_pi_cached_identity(self):
        assert pi_interval(128) is pi_interval(128)

    def test_mpf_fraction_exact(self):
        assert mpf_fraction(mp.mpf("1.5")) == Fraction(3, 2)


class TestExpBracket:
    # 1 + s < e^s < 1 + s + s^2 for s in [-1, 0): self-test of exp
    @pytest.mark.parametrize(
        "s", [Fraction(-1), Fraction(-1, 2), Fraction(-1, 10), Fraction(-99, 100)]
    )
    def test_bracket(self, s):
        e = exp_interval(s, 192)
        assert e.lo_fraction() > 1 + s
        assert e.hi_fraction() < 1 + s + s * s


def _quadratic(x: IntervalReal) -> IntervalReal:
    return x * x - 2 * x


class TestEnclosureSoundness:
    @staticmethod
    def _assert_nested(lo, width, shrink):
        wide = to_interval((lo, lo + width), 96)
        inner_lo = lo + width * shrink / 2
        narrow = to_interval((inner_lo, inner_lo + width / 2), 96)
        out_wide = _quadratic(wide)
        out_narrow = _quadratic(narrow)
        assert out_wide.lo_fraction() <= out_narrow.lo_fraction()
        assert out_narrow.hi_fraction() <= out_wide.hi_fraction()

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.fractions(min_value=-4, max_value=4),
        width=st.fractions(min_value=0, max_value=2),
        shrink=st.fractions(min_value=0, max_value=1),
    )
    def test_shrinking_inputs_stays_inside(self, lo, width, shrink):
        self._assert_nested(lo, width, shrink)

    def test_nested_rationals_get_nested_enclosures(self):
        # rounding numerator and denominator before dividing gave these
        # nested inputs enclosures that were not nested
        self._assert_nested(Fraction(3594, 1386600191),
                            Fraction(1, 18782793585450270205451173885),
                            Fraction(1, 862938))

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-7, 3), Fraction(5, 162),
                                   Fraction(10**60 + 1, 7)])
    def test_rational_rounded_once_each_way(self, q):
        x = to_interval(q, 96)
        lo, hi = x.lo_fraction(), x.hi_fraction()
        assert lo <= q <= hi
        assert hi - lo <= abs(lo) / 2**95  # at most one unit in the last place

    def test_point_containment(self):
        # x^2 - 2x at x = 3/2 is -3/4; any enclosure of x must produce
        # an enclosure of the value
        x = to_interval((1, 2), 96)
        assert _quadratic(x).contains(Fraction(-3, 4))


class TestSerialization:
    def test_dumps_has_precision_tag(self):
        s = to_interval(Fraction(1, 3), 128).dumps(digits=10)
        assert s.endswith("@128")
        assert s.startswith("[0.33")
