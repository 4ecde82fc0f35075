import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_pi, round_ceiling, round_floor
from mpref import iv_context, iv_ends, iv_rational, mpf_fraction

from bkd.intervals import (
    IntervalReal,
    from_dyadic,
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
        assert x.width < Fraction(2) ** -120

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
            IntervalReal(lo=2, hi=1, prec=64)
        with pytest.raises(ValueError):
            from_dyadic(1, 1, 1, 0, 64)

    def test_endpoints_are_odd_dyadics(self):
        x = IntervalReal(lo=Fraction(3, 8), hi=12, prec=64)
        assert x.dyadic_ends == (3, -3, 3, 2)
        assert to_interval(0, 64).dyadic_ends == (0, 0, 0, 0)

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            to_interval("1.5", 64)
        with pytest.raises(TypeError):
            to_interval(1, 64) + "1"


class TestOwnPrecision:
    # an 8-bit global mpmath precision must not leak into any of these
    def test_float_is_nearest_double(self):
        with mp.workprec(8):
            x = to_interval(Fraction(1, 3), 128)
            assert float(x) == 1 / 3
            assert x.contains(x.mid)

    def test_contains_float_exactly(self):
        with mp.workprec(8):
            assert to_interval(Fraction(0.1), 128).contains(0.1)
            assert not to_interval(Fraction(1, 10), 128).contains(0.1)

    def test_width_rounded_up(self):
        with mp.workprec(8):
            x = to_interval((Fraction(1, 3), 2), 128)
            assert x.width >= x.hi_fraction() - x.lo_fraction()


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

    def test_division_by_an_enclosure_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            to_interval(1, 64) / to_interval((-1, 1), 64)
        with pytest.raises(ZeroDivisionError):
            1 / to_interval(0, 64)

    def test_sqrt_below_zero(self):
        with pytest.raises(ValueError):
            to_interval((-1, 1), 64).sqrt()

    def test_far_apart_summands(self):
        # 1 + 2^-100000 rounds to the neighbours of 1 without a
        # 100000-bit intermediate
        tiny = IntervalReal(Fraction(1, 2**100000), Fraction(1, 2**100000), 64)
        s = 1 + tiny
        assert s.lo == 1 and s.hi == 1 + Fraction(1, 2**63)
        d = 1 - tiny
        assert d.lo == 1 - Fraction(1, 2**64) and d.hi == 1


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
        e = to_interval(s, 192).exp()
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


# ---------------------------------------------------------------------------
# Differential tests: the kernel against mpmath's interval context
# ---------------------------------------------------------------------------

PRECS = [8, 53, 64, 144, 384, 1024]


def _dyadic(rng: random.Random, prec: int) -> Fraction:
    """A random dyadic with at most ``prec`` significant bits, of either
    sign, between about 2^-(prec + 40) and 2^40."""
    m = rng.getrandbits(rng.randint(1, prec)) | 1
    return (-m if rng.random() < 0.5 else m) * Fraction(2) ** rng.randint(-prec - 40, 40)


def _operand_pair(rng: random.Random, prec: int):
    """The same enclosure as an IntervalReal and as an mpmath interval:
    a point, or two random ends (both nonnegative half the time)."""
    a = _dyadic(rng, prec)
    b = a if rng.random() < 0.3 else _dyadic(rng, prec)
    if rng.random() < 0.5:
        a, b = abs(a), abs(b)
    a, b = min(a, b), max(a, b)
    return IntervalReal(a, b, prec), iv_rational(iv_context(prec), a, b)


def _ends(x: IntervalReal):
    return x.lo_fraction(), x.hi_fraction()


def _mp_number(ctx, c):
    """An int operand as mpmath converts it; a Fraction, which mpmath
    does not take, enclosed at the context's precision."""
    return c if isinstance(c, int) else iv_rational(ctx, c)


BINARY = [
    ("+", lambda a, b: a + b),
    ("-", lambda a, b: a - b),
    ("*", lambda a, b: a * b),
    ("/", lambda a, b: a / b),
]


def _mp_divisor_ok(v) -> bool:
    lo, hi = iv_ends(v)
    return not lo <= 0 <= hi


class TestAgainstMpmath:
    """Every endpoint equals mpmath's ``iv`` endpoint at the same precision."""

    @pytest.mark.parametrize("prec", PRECS)
    def test_interval_operands(self, prec):
        rng = random.Random("binary:%d" % prec)
        for _ in range(150):
            other = rng.choice([prec, prec, rng.choice(PRECS)])
            x, mx = _operand_pair(rng, prec)
            y, my = _operand_pair(rng, other)
            ctx = iv_context(max(prec, other))
            mx, my = ctx.make_mpf(mx._mpi_), ctx.make_mpf(my._mpi_)
            for name, op in BINARY:
                if name == "/" and not _mp_divisor_ok(my):
                    continue
                got = op(x, y)
                assert got.prec == max(prec, other)
                assert _ends(got) == iv_ends(op(mx, my)), (name, x, y)

    @pytest.mark.parametrize("prec", PRECS)
    def test_number_operands(self, prec):
        rng = random.Random("numbers:%d" % prec)
        ctx = iv_context(prec)
        for _ in range(150):
            x, mx = _operand_pair(rng, prec)
            c = rng.choice([rng.randint(-10**6, 10**6), 10**60 + 1,
                            Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))])
            mc = _mp_number(ctx, c)
            for name, op in BINARY:
                if name == "/" and not _mp_divisor_ok(mx):
                    continue
                assert _ends(op(c, x)) == iv_ends(op(mc, mx)), (name, c, x)
                if name == "/" and c == 0:
                    continue
                assert _ends(op(x, c)) == iv_ends(op(mx, mc)), (name, x, c)

    @pytest.mark.parametrize("prec", PRECS)
    def test_powers(self, prec):
        rng = random.Random("powers:%d" % prec)
        for _ in range(60):
            x, mx = _operand_pair(rng, prec)
            for n in list(range(-7, 9)) + [13, 40]:
                if n < 0 and not _mp_divisor_ok(mx):
                    continue
                assert _ends(x**n) == iv_ends(mx**n), (n, x)

    @pytest.mark.parametrize("prec", PRECS)
    def test_unary(self, prec):
        rng = random.Random("unary:%d" % prec)
        ctx = iv_context(prec)
        for _ in range(150):
            x, mx = _operand_pair(rng, prec)
            assert _ends(-x) == iv_ends(-mx)
            assert _ends(abs(x)) == iv_ends(abs(mx))
            if x.lo >= 0:
                assert _ends(x.sqrt()) == iv_ends(ctx.sqrt(mx))

    @pytest.mark.parametrize("prec", PRECS)
    def test_lower_precision_operand_after_at(self, prec):
        # endpoints wider than the working precision are rounded by the
        # operation, as in mpmath
        x, mx = _operand_pair(random.Random("at:%d" % prec), 1024)
        y, my = to_interval(Fraction(1, 3), prec), iv_rational(iv_context(prec), Fraction(1, 3))
        ctx = iv_context(prec)
        low = ctx.make_mpf(mx._mpi_)
        assert _ends(x.at(prec) * y) == iv_ends(low * my)
        assert _ends(-x.at(prec)) == iv_ends(-low)
        assert _ends(x.at(prec) ** 7) == iv_ends(low**7)

    def test_pi(self):
        for prec in PRECS + list(range(1, 300)):
            assert _ends(pi_interval(prec)) == (
                mpf_fraction(mpf_pi(prec, round_floor)),
                mpf_fraction(mpf_pi(prec, round_ceiling))), prec

    @pytest.mark.parametrize("prec", PRECS)
    def test_exp_contains_mpmath_exp(self, prec):
        # mpmath's exp at ever higher precision until its enclosure of
        # e^x decides containment; the width is at most hi 2^(2 - prec)
        rng = random.Random("exp:%d" % prec)
        for _ in range(40):
            m = rng.getrandbits(rng.randint(1, prec)) | 1
            x = (-m if rng.random() < 0.5 else m) * Fraction(2) ** rng.randint(
                -prec - 30, 14 - m.bit_length())
            got = to_interval(x, prec).exp()
            lo, hi = _ends(got)
            for wp in (2 * prec + 64, 8 * prec + 256, 32 * prec + 1024):
                ctx = iv_context(wp)
                ref_lo, ref_hi = iv_ends(ctx.exp(iv_rational(ctx, x)))
                assert not (hi < ref_lo or ref_hi < lo), x
                if lo <= ref_lo and ref_hi <= hi:
                    break
            else:
                pytest.fail("containment of exp(%s) undecided" % x)
            assert hi - lo <= hi * Fraction(2) ** (2 - prec), x

    @pytest.mark.parametrize("prec", PRECS)
    def test_dumps_and_repr(self, prec):
        rng = random.Random("dumps:%d" % prec)
        for _ in range(150):
            x, mx = _operand_pair(rng, prec)
            lo, hi = (mp.make_mpf(end) for end in mx._mpi_)
            digits = rng.choice([5, 10, 20, 30, 40])
            assert x.dumps(digits) == "[%s,%s]@%d" % (
                mp.nstr(lo, digits, strip_zeros=False),
                mp.nstr(hi, digits, strip_zeros=False), prec)
            assert repr(x) == "IntervalReal([%s, %s] @%d)" % (
                mp.nstr(lo, 20), mp.nstr(hi, 20), prec)

    @settings(max_examples=200, deadline=None)
    @given(
        prec=st.sampled_from(PRECS),
        a=st.fractions(), b=st.fractions(),
        name=st.sampled_from([name for name, _ in BINARY] + ["**"]),
    )
    def test_point_operands_property(self, prec, a, b, name):
        ctx = iv_context(prec)
        x, mx = to_interval(a, prec), iv_rational(ctx, a)
        my = iv_rational(ctx, b)
        if name == "**":
            n = b.numerator % 9 - 4
            if n >= 0 or _mp_divisor_ok(mx):
                assert _ends(x**n) == iv_ends(mx**n)
            return
        if name == "/" and not _mp_divisor_ok(my):
            return
        fn = dict(BINARY)[name]
        assert _ends(fn(x, to_interval(b, prec))) == iv_ends(fn(mx, my))
        assert _ends(fn(x, b)) == iv_ends(fn(mx, my))
