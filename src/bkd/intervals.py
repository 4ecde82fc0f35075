"""Rigorous real enclosures at configurable binary precision, on Python integers.

One immutable type, :class:`IntervalReal`, holds two dyadic endpoints,
each an odd integer mantissa m and an exponent e for the value m 2^e
(zero is 0 2^0), and its working precision ``prec`` in bits.  Every
operation rounds each endpoint outward to ``prec`` bits: the lower end
down (floor), the upper end up (ceiling).  So an enclosure of a point
value x always satisfies lo <= x <= hi, and no state is global.

Operands meet at the larger of their two precisions; an exact int or
Fraction enters as p/q rounded once down and once up at the interval's
precision, so nested rationals get nested enclosures.  Addition,
subtraction, multiplication, division and ``sqrt`` compute each endpoint
exactly, or with a sticky bit below its last place, and round it once:
they are correctly rounded.  Powers, ``abs``, negation, pi and
:meth:`IntervalReal.dumps` follow the rules of mpmath 1.3's interval
arithmetic (``libmpi``), so the endpoints equal those of ``mpmath.iv`` at
the same precision.  (mpmath shortcuts a sum whose summands lie more than
prec + 4 bits apart; the two agree whenever the larger summand has at
most prec bits, as every result of an operation here has.)  ``exp`` is
rigorous and within a few units in the last place, not bit-identical.
The arithmetic follows Brent and Zimmermann, *Modern Computer Arithmetic*
(2010), ch. 3-4.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt, log

__all__ = [
    "IntervalReal",
    "wrap",
    "from_dyadic",
    "to_interval",
    "pi_interval",
    "sqrt_rational_interval",
]

DEFAULT_PREC = 384


# ---------------------------------------------------------------------------
# Dyadic endpoints: (m, e) stands for m 2^e, m odd or (0, 0)
# ---------------------------------------------------------------------------

def _round(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """m 2^e rounded to ``prec`` bits, up (ceiling) or down (floor)."""
    n = (m if m > 0 else -m).bit_length() - prec
    if n > 0:
        m = -(-m >> n) if up else m >> n
        e += n
    if m & 1:
        return m, e
    if not m:
        return 0, 0
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _sticky_quotient(am: int, bm: int, prec: int) -> tuple[int, int]:
    """(q, s) with q 2^-s = am / bm for bm > 0, or, when inexact, q odd
    and strictly between the two neighbours of am / bm at prec + 2 bits:
    every rounding of q 2^-s to prec bits is that of am / bm."""
    if bm == 1 or not am:
        return am, 0
    s = max(0, prec + 2 + bm.bit_length() - abs(am).bit_length())
    q, r = divmod(am << s, bm)
    if r:
        return 2 * q + 1, s + 1
    return q, s


def _quotient(am: int, ae: int, bm: int, be: int, prec: int, up: bool) -> tuple[int, int]:
    """(am 2^ae) / (bm 2^be), correctly rounded; bm != 0."""
    if bm < 0:
        am, bm = -am, -bm
    q, s = _sticky_quotient(am, bm, prec)
    return _round(q, ae - be - s, prec, up)


def _sum(am: int, ae: int, bm: int, be: int, prec: int, up: bool) -> tuple[int, int]:
    """am 2^ae + bm 2^be, correctly rounded."""
    if not bm:
        return _round(am, ae, prec, up)
    if not am:
        return _round(bm, be, prec, up)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    shift = ae - be
    if shift > 2 * prec + 64:
        # b may sit far below a: every breakpoint of the rounding lies on
        # multiples of 2^g, and |b| < 2^g leaves a + b in the open cell
        # next to a, so b may be replaced by sign(b) 2^(g - 1)
        g = min(ae, ae + abs(am).bit_length() - 1 - prec)
        if be + abs(bm).bit_length() <= g:
            bm, be = (1 if bm > 0 else -1), g - 1
            shift = ae - be
    return _round((am << shift) + bm, be, prec, up)


def _less(am: int, ae: int, bm: int, be: int) -> bool:
    """am 2^ae < bm 2^be, exactly."""
    if ae >= be:
        return am << (ae - be) < bm
    return am < bm << (be - ae)


def _sqrt(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """sqrt(m 2^e) for m >= 0, correctly rounded."""
    if not m:
        return 0, 0
    if e & 1:
        m, e = m << 1, e - 1
    s = max(0, 2 * prec + 4 - m.bit_length())
    s += s & 1
    r = isqrt(m << s)
    if r * r != m << s:
        r, s = 2 * r + 1, s + 2
    return _round(r, (e - s) // 2, prec, up)


def _power(m: int, e: int, n: int, prec: int, up: bool) -> tuple[int, int]:
    """(m 2^e)^n for n >= 2 by mpmath's ``mpf_pow_int``: exact when the
    mantissa has fewer than 1000/n bits, else binary powering with
    directed truncation at prec + 4 bitlen(n) + 4 bits."""
    if not m:
        return 0, 0
    negative = m < 0 and n & 1
    mag = -m if m < 0 else m
    if mag == 1:
        return (-1 if negative else 1), e * n
    if n == 2 or mag.bit_length() * n < 1000:
        return _round(m**n, e * n, prec, up)
    down = up == negative  # truncate magnitudes towards the rounding direction
    wp = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * mag, pe + e
            k = pm.bit_length() - wp
            if k > 0:
                pm, pe = (pm >> k if down else -(-pm >> k)), pe + k
            n -= 1
            if not n:
                break
        mag, e = mag * mag, e + e
        k = mag.bit_length() - wp
        if k > 0:
            mag, e = (mag >> k if down else -(-mag >> k)), e + k
        n >>= 1
    return _round(-pm if negative else pm, pe, prec, up)


def _exp_positive(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """A bound on exp(m 2^e) for m > 0, below or above by ``up``, with a
    relative error below 2^-(prec + 4); the mantissa is not rounded to prec.

    x = m 2^e is halved exactly k times to r < 2^-s; the Taylor series of
    exp(r) is summed in fixed point with w fractional bits, every term
    rounded in the bound's direction (the upper sum adds its last term
    once more, a bound on the tail, since every term ratio is below
    1/2); then the sum is squared k times with directed truncation to w
    bits.  The error of the sum and of each squaring, doubled by every
    later squaring, stays below 2^(k + log2(terms + 2k + 4) - w).
    """
    s = isqrt(prec) + 1
    k = max(0, m.bit_length() + e + s)
    w = prec + k + (prec // s + 2 * k + 8).bit_length() + 8
    sh = e - k + w
    r = m << sh if sh >= 0 else (-(-m >> -sh) if up else m >> -sh)
    total = t = 1 << w
    j = 0
    if up:
        while t > 1:
            j += 1
            t = -((-(t * r) >> w) // j)  # ceil(ceil(t r / 2^w) / j)
            total += t
        total += t
    else:
        while t:
            j += 1
            t = (t * r >> w) // j
            total += t
    mag, ex = total, -w
    for _ in range(k):
        mag, ex = mag * mag, ex + ex
        n = mag.bit_length() - w
        if n > 0:
            mag, ex = (-(-mag >> n) if up else mag >> n), ex + n
    return mag, ex


def _exp(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """exp(m 2^e) rounded to prec bits, up or down; exp(-y) = 1/exp(y)."""
    if not m:
        return 1, 0
    if m > 0:
        return _round(*_exp_positive(m, e, prec, up), prec, up)
    return _quotient(1, 0, *_exp_positive(-m, e, prec, not up), prec, up)


def _fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _rational(x, prec: int) -> tuple[int, int, int, int]:
    """Endpoints of an int, Fraction or float x rounded once down and
    once up to prec bits."""
    if isinstance(x, int):
        if not x:
            return 0, 0, 0, 0
        if (x if x > 0 else -x).bit_length() <= prec:
            t = (x & -x).bit_length() - 1
            return x >> t, t, x >> t, t
        return _round(x, 0, prec, False) + _round(x, 0, prec, True)
    if isinstance(x, float):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError("cannot enclose %r" % type(x).__name__)
    q, s = _sticky_quotient(x.numerator, x.denominator, prec)
    return _round(q, -s, prec, False) + _round(q, -s, prec, True)


def _check_prec(prec: int) -> int:
    if prec < 1:
        raise ValueError("precision must be at least one bit, not %r" % prec)
    return prec


# ---------------------------------------------------------------------------
# Decimal output, as mpmath's to_str
# ---------------------------------------------------------------------------

_LOG2_10 = log(10, 2)


def _digits(m: int, e: int, dps: int) -> tuple[str, int]:
    """Digit string and decimal exponent of m 2^e > 0, truncated, as
    mpmath's ``to_digits_exp``: a binary fixed point of about dps digits
    plus 10 bits, then converted to decimal.  Past 2^3500, where mpmath
    divides by a power of ten in floating point, the leading digits are
    taken exactly."""
    bc = m.bit_length()
    bitprec = int(dps * _LOG2_10) + 10
    fixprec = max(bitprec - e - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = e + fixprec
    fixed = m << offset if offset >= 0 else m >> -offset
    skipped = 0
    if bc + e > 3500:
        skipped = max(0, int((bc + e - bitprec) / _LOG2_10) - 2)
        fixed //= 10**skipped
    digits = str(fixed * 10**fixdps >> fixprec)
    return digits, len(digits) - fixdps - 1 + skipped


def _to_str(m: int, e: int, dps: int, strip_zeros: bool = True) -> str:
    """m 2^e with dps significant digits, as ``mpmath.nstr``."""
    if not m:
        return "0.0"
    sign = "-" if m < 0 else ""
    digits, exponent = _digits(abs(m), e, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = digits[:split] + "." + digits[split:]
    if strip_zeros:
        digits = digits.rstrip("0")
        if digits[-1] == ".":
            digits += "0"
    if exponent == 0:
        return sign + digits
    return "%s%se%s%d" % (sign, digits, "+" if exponent > 0 else "", exponent)


# Operator kernels on two IntervalReals a and b: they meet at the larger
# precision p, and each endpoint is rounded once.

def _add(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    p = a._prec if a._prec >= b._prec else b._prec
    lm, le = _sum(a._lm, a._le, b._lm, b._le, p, False)
    hm, he = _sum(a._hm, a._he, b._hm, b._he, p, True)
    return wrap(lm, le, hm, he, p)


def _sub(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    p = a._prec if a._prec >= b._prec else b._prec
    lm, le = _sum(a._lm, a._le, -b._hm, b._he, p, False)
    hm, he = _sum(a._hm, a._he, -b._lm, b._le, p, True)
    return wrap(lm, le, hm, he, p)


def _mul(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    """The endpoint products that are the extremes, chosen by the signs."""
    p = a._prec if a._prec >= b._prec else b._prec
    al, ale, ah, ahe = a._lm, a._le, a._hm, a._he
    bl, ble, bh, bhe = b._lm, b._le, b._hm, b._he
    if al >= 0:
        if bl >= 0:
            lo, hi = (al * bl, ale + ble), (ah * bh, ahe + bhe)
        elif bh <= 0:
            lo, hi = (ah * bl, ahe + ble), (al * bh, ale + bhe)
        else:
            lo, hi = (ah * bl, ahe + ble), (ah * bh, ahe + bhe)
    elif ah <= 0:
        if bl >= 0:
            lo, hi = (al * bh, ale + bhe), (ah * bl, ahe + ble)
        elif bh <= 0:
            lo, hi = (ah * bh, ahe + bhe), (al * bl, ale + ble)
        else:
            lo, hi = (al * bh, ale + bhe), (al * bl, ale + ble)
    elif bl >= 0:
        lo, hi = (al * bh, ale + bhe), (ah * bh, ahe + bhe)
    elif bh <= 0:
        lo, hi = (ah * bl, ahe + ble), (al * bl, ale + ble)
    else:
        lo, other = (al * bh, ale + bhe), (ah * bl, ahe + ble)
        if _less(*other, *lo):
            lo = other
        hi, other = (al * bl, ale + ble), (ah * bh, ahe + bhe)
        if _less(*hi, *other):
            hi = other
    lm, le = _round(lo[0], lo[1], p, False)
    hm, he = _round(hi[0], hi[1], p, True)
    return wrap(lm, le, hm, he, p)


def _div(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    """The divisor must not contain 0."""
    p = a._prec if a._prec >= b._prec else b._prec
    al, ale, ah, ahe = a._lm, a._le, a._hm, a._he
    bl, ble, bh, bhe = b._lm, b._le, b._hm, b._he
    if bl <= 0 <= bh:
        raise ZeroDivisionError("divisor enclosure contains 0")
    if bh < 0:  # a / b = (-a) / (-b)
        al, ale, ah, ahe, bl, ble, bh, bhe = -ah, ahe, -al, ale, -bh, bhe, -bl, ble
    if al >= 0:
        lo, hi = (al, ale, bh, bhe), (ah, ahe, bl, ble)
    elif ah <= 0:
        lo, hi = (al, ale, bl, ble), (ah, ahe, bh, bhe)
    else:
        lo, hi = (al, ale, bl, ble), (ah, ahe, bl, ble)
    lm, le = _quotient(*lo, p, False)
    hm, he = _quotient(*hi, p, True)
    return wrap(lm, le, hm, he, p)


# ---------------------------------------------------------------------------
# The interval type
# ---------------------------------------------------------------------------

class IntervalReal:
    """Enclosure [lo, hi] produced at ``prec`` bits of working precision."""

    __slots__ = ("_lm", "_le", "_hm", "_he", "_prec")

    def __init__(self, lo, hi, prec: int) -> None:
        """[lo, hi] for ints, Fractions or floats, lo rounded down and hi
        rounded up to ``prec`` bits."""
        _check_prec(prec)
        self._lm, self._le = _rational(lo, prec)[:2]
        self._hm, self._he = _rational(hi, prec)[2:]
        self._prec = prec
        if _less(self._hm, self._he, self._lm, self._le):
            raise ValueError("interval endpoints out of order: %s > %s" % (lo, hi))

    # -- inspection ---------------------------------------------------------

    @property
    def prec(self) -> int:
        return self._prec

    @property
    def lo(self) -> Fraction:
        return _fraction(self._lm, self._le)

    @property
    def hi(self) -> Fraction:
        return _fraction(self._hm, self._he)

    def lo_fraction(self) -> Fraction:
        return _fraction(self._lm, self._le)

    def hi_fraction(self) -> Fraction:
        return _fraction(self._hm, self._he)

    @property
    def dyadic_ends(self) -> tuple[int, int, int, int]:
        """(lo mantissa, lo exponent, hi mantissa, hi exponent): the
        endpoints are lo = m 2^e and hi = m' 2^e', with odd mantissas."""
        return self._lm, self._le, self._hm, self._he

    def at(self, prec: int) -> IntervalReal:
        """The same endpoints, exactly, as an enclosure at ``prec`` bits."""
        return wrap(self._lm, self._le, self._hm, self._he, _check_prec(prec))

    @property
    def width(self) -> Fraction:
        """hi - lo, exactly."""
        return self.hi_fraction() - self.lo_fraction()

    @property
    def mid(self) -> Fraction:
        """(lo + hi) / 2, exactly."""
        return (self.lo_fraction() + self.hi_fraction()) / 2

    def __float__(self) -> float:
        return float(self.mid)

    def contains(self, x) -> bool:
        """Exact containment test for an IntervalReal, int, Fraction or float."""
        if isinstance(x, IntervalReal):
            return self.lo_fraction() <= x.lo_fraction() and (
                x.hi_fraction() <= self.hi_fraction()
            )
        return self.lo_fraction() <= Fraction(x) <= self.hi_fraction()

    def straddles_zero(self) -> bool:
        return self._lm <= 0 <= self._hm

    # -- arithmetic ---------------------------------------------------------

    def _binary(kernel, reflected=False):
        """The operator kernel(self, other), or kernel(other, self) when
        ``reflected``; a number operand enters at self's precision."""
        def op(self, other):
            if not isinstance(other, IntervalReal):
                try:
                    other = wrap(*_rational(other, self._prec), self._prec)
                except TypeError:
                    return NotImplemented
            return kernel(other, self) if reflected else kernel(self, other)
        return op

    __add__ = __radd__ = _binary(_add)
    __sub__, __rsub__ = _binary(_sub), _binary(_sub, reflected=True)
    __mul__ = __rmul__ = _binary(_mul)
    __truediv__, __rtruediv__ = _binary(_div), _binary(_div, reflected=True)
    del _binary

    def __pow__(self, n: int) -> IntervalReal:
        """x^n for an integer n, by mpmath's ``mpi_pow_int``: x itself for
        n = 1, the square of the larger magnitude from 0 when the sign
        is mixed and n even, and 1/(x^-n at prec + 20) for n < 0."""
        if not isinstance(n, int):
            return NotImplemented
        lm, le, hm, he, p = self._lm, self._le, self._hm, self._he, self._prec
        if n < 0:
            inverse = (self.at(p + 20) ** -n).at(p)
            return 1 / inverse
        if n == 0:
            return wrap(1, 0, 1, 0, p)
        if n == 1:
            return self
        if n & 1 or lm >= 0:
            lo, hi = _power(lm, le, n, p, False), _power(hm, he, n, p, True)
        elif hm <= 0:
            lo, hi = _power(hm, he, n, p, False), _power(lm, le, n, p, True)
        else:
            big = (hm, he) if _less(-lm, le, hm, he) else (-lm, le)
            lo, hi = (0, 0), _power(*big, n, p, True)
        return wrap(*lo, *hi, p)

    def __neg__(self) -> IntervalReal:
        p = self._prec
        return wrap(*_round(-self._hm, self._he, p, False),
                    *_round(-self._lm, self._le, p, True), p)

    def __abs__(self) -> IntervalReal:
        lm, le, hm, he, p = self._lm, self._le, self._hm, self._he, self._prec
        if lm >= 0:
            return wrap(*_round(lm, le, p, False), *_round(hm, he, p, True), p)
        if hm <= 0:
            return wrap(*_round(-hm, he, p, False), *_round(-lm, le, p, True), p)
        big = (hm, he) if _less(-lm, le, hm, he) else (-lm, le)
        return wrap(0, 0, *_round(*big, p, True), p)

    def sqrt(self) -> IntervalReal:
        if self._lm < 0:
            raise ValueError("sqrt of an enclosure that reaches below 0")
        p = self._prec
        return wrap(*_sqrt(self._lm, self._le, p, False),
                    *_sqrt(self._hm, self._he, p, True), p)

    def exp(self) -> IntervalReal:
        p = self._prec
        return wrap(*_exp(self._lm, self._le, p, False),
                    *_exp(self._hm, self._he, p, True), p)

    # -- output -------------------------------------------------------------

    def __repr__(self) -> str:
        return "IntervalReal([%s, %s] @%d)" % (
            _to_str(self._lm, self._le, 20),
            _to_str(self._hm, self._he, 20),
            self._prec,
        )

    def dumps(self, digits: int = 30) -> str:
        """Decimal serialization with an explicit precision tag; each end
        is mpmath's ``nstr(end, digits, strip_zeros=False)``."""
        return "[%s,%s]@%d" % (
            _to_str(self._lm, self._le, digits, strip_zeros=False),
            _to_str(self._hm, self._he, digits, strip_zeros=False),
            self._prec,
        )


_new = object.__new__


def wrap(lm: int, le: int, hm: int, he: int, prec: int) -> IntervalReal:
    """IntervalReal with the endpoints lm 2^le and hm 2^he, already
    rounded and normalized (odd mantissas), at ``prec`` bits."""
    iv = _new(IntervalReal)
    iv._lm = lm  # one store per statement: a tuple assignment is twice as slow
    iv._le = le
    iv._hm = hm
    iv._he = he
    iv._prec = prec
    return iv


def from_dyadic(lm: int, le: int, hm: int, he: int, prec: int) -> IntervalReal:
    """[lm 2^le, hm 2^he] with the lower end rounded down and the upper
    end rounded up to ``prec`` bits."""
    _check_prec(prec)
    lo, hi = _round(lm, le, prec, False), _round(hm, he, prec, True)
    if _less(*hi, *lo):
        raise ValueError("interval endpoints out of order")
    return wrap(*lo, *hi, prec)


def to_interval(x, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Coerce ints, Fractions, floats and (lo, hi) pairs of them, or pass
    an IntervalReal through."""
    if isinstance(x, IntervalReal):
        return x
    _check_prec(prec)
    if isinstance(x, tuple):
        lo, hi = (to_interval(e, prec) for e in x)
        return from_dyadic(lo._lm, lo._le, hi._hm, hi._he, prec)
    return wrap(*_rational(x, prec), prec)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

_PI_FIXED = [0, 0, 0]  # [w, P, E]: |pi 2^w - P| <= E, the largest w so far


def _acot_fixed(n: int, w: int) -> tuple[int, int]:
    """(A, E) with |atan(1/n) 2^w - A| <= E.

    Each term floor(2^w / ((2j + 1) n^(2j + 1))) is exact up to one unit
    (the powers come from nested floor divisions, which are exact), and
    the alternating series stops at the first power below one unit, a
    bound on its tail."""
    power = (1 << w) // n
    n2 = n * n
    total, j = 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        power //= n2
        j += 1
    return total, j + 1


def _pi_fixed(w: int) -> tuple[int, int]:
    """(P, E) with |pi 2^w - P| <= E, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239); the largest w is kept, and a
    smaller w is a shift of it."""
    if w > _PI_FIXED[0]:
        a, ea = _acot_fixed(5, w)
        b, eb = _acot_fixed(239, w)
        _PI_FIXED[:] = w, 16 * a - 4 * b, 16 * ea + 4 * eb
    have, fixed, err = _PI_FIXED
    if have == w:
        return fixed, err
    # P >> d errs by less than E / 2^d + 1 <= (E >> d) + 2
    return fixed >> (have - w), (err >> (have - w)) + 2


@functools.lru_cache(maxsize=64)
def pi_interval(prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of pi: pi rounded down and up to ``prec`` bits.

    pi 2^w is known within E units; its floor at prec bits is certain
    once both ends of that window agree, else w grows (Ziv's strategy;
    pi is irrational, so the loop ends)."""
    _check_prec(prec)
    w = prec + 32
    while True:
        fixed, err = _pi_fixed(w)
        shift = w - prec + 2  # pi lies in [2, 4): units of 2^(2 - prec)
        low = (fixed - err) >> shift
        if low == (fixed + err) >> shift:
            break
        w += w // 2
    return wrap(*_round(low, 2 - prec, prec, False),
                *_round(low + 1, 2 - prec, prec, True), prec)


@functools.lru_cache(maxsize=128)
def sqrt_rational_interval(q: Fraction, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Cached enclosure of sqrt(q) for exact rational q >= 0."""
    return to_interval(Fraction(q), prec).sqrt()
