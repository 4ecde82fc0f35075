"""Rigorous real enclosures at configurable binary precision.

A thin, immutable wrapper over mpmath's interval contexts: an
:class:`IntervalReal` is a pair lo <= hi of arbitrary-precision floats
together with the working precision that produced it.  All arithmetic
rounds outward (lo down, hi up), so an enclosure of a point value x
always satisfies lo <= x <= hi.

Heavy inner loops should grab a context with :func:`ctx_for` and work on
raw mpmath interval values, wrapping only their final results; casual
formula code can use the operators on IntervalReal directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_rational, round_ceiling, round_floor

__all__ = [
    "IntervalReal",
    "ctx_for",
    "wrap",
    "unwrap",
    "to_interval",
    "rational_to_iv",
    "mpf_fraction",
    "pi_interval",
    "sqrt_rational_interval",
    "exp_interval",
]

DEFAULT_PREC = 384


@functools.lru_cache(maxsize=32)
def ctx_for(prec: int) -> MPIntervalContext:
    """Interval context at the given binary precision (cached, immutable
    by convention: never mutate .prec on a cached context)."""
    if prec < 8:
        raise ValueError("precision below 8 bits is useless")
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def mpf_fraction(x: mp.mpf) -> Fraction:
    """Exact rational value of an mpf (mpf values are dyadic rationals)."""
    p, q = mp.libmp.to_rational(x._mpf_)
    return Fraction(int(p), int(q))  # keep gmpy2 mpz out of Fraction internals


def rational_to_iv(ctx: MPIntervalContext, q) -> "mp.iv.mpf":
    """Enclosure of an exact int/Fraction under ctx: p/q rounded once down
    and once up, the tightest enclosure at ctx.prec, so nested rationals
    get nested enclosures."""
    if isinstance(q, int):
        return ctx.mpf(q)
    q = Fraction(q)
    p, d, prec = q.numerator, q.denominator, ctx.prec
    return ctx.make_mpf((from_rational(p, d, prec, round_floor),
                         from_rational(p, d, prec, round_ceiling)))


@dataclass(frozen=True)
class IntervalReal:
    """Enclosure [lo, hi] produced at ``prec`` bits of working precision."""

    lo: mp.mpf
    hi: mp.mpf
    prec: int

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError("interval endpoints out of order: %s > %s"
                             % (self.lo, self.hi))

    # -- inspection ---------------------------------------------------------

    @property
    def width(self) -> mp.mpf:
        return self.hi - self.lo

    @property
    def mid(self) -> mp.mpf:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.mid)

    def lo_fraction(self) -> Fraction:
        return mpf_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return mpf_fraction(self.hi)

    def contains(self, x) -> bool:
        """Exact containment test for an int/Fraction/mpf value."""
        if isinstance(x, IntervalReal):
            return self.lo_fraction() <= x.lo_fraction() and (
                x.hi_fraction() <= self.hi_fraction()
            )
        q = x if isinstance(x, Fraction) else (
            Fraction(x) if isinstance(x, int) else mpf_fraction(mp.mpf(x))
        )
        return self.lo_fraction() <= q <= self.hi_fraction()

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # -- arithmetic ---------------------------------------------------------

    def _binop(self, other, op):
        other = to_interval(other, self.prec)
        prec = max(self.prec, other.prec)
        ctx = ctx_for(prec)
        a = ctx.mpf([self.lo, self.hi])
        b = ctx.mpf([other.lo, other.hi])
        return wrap(op(a, b), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return to_interval(other, self.prec) - self

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return to_interval(other, self.prec) / self

    def __pow__(self, n: int):
        ctx = ctx_for(self.prec)
        return wrap(ctx.mpf([self.lo, self.hi]) ** n, self.prec)

    def __neg__(self):
        return IntervalReal(lo=-self.hi, hi=-self.lo, prec=self.prec)

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return IntervalReal(lo=mp.mpf(0), hi=max(-self.lo, self.hi), prec=self.prec)

    def sqrt(self):
        ctx = ctx_for(self.prec)
        return wrap(ctx.sqrt(ctx.mpf([self.lo, self.hi])), self.prec)

    def exp(self):
        ctx = ctx_for(self.prec)
        return wrap(ctx.exp(ctx.mpf([self.lo, self.hi])), self.prec)

    def __repr__(self) -> str:
        return "IntervalReal([%s, %s] @%d)" % (
            mp.nstr(self.lo, 20),
            mp.nstr(self.hi, 20),
            self.prec,
        )

    def dumps(self, digits: int = 30) -> str:
        """Decimal serialization with an explicit precision tag."""
        return "[%s,%s]@%d" % (
            mp.nstr(self.lo, digits, strip_zeros=False),
            mp.nstr(self.hi, digits, strip_zeros=False),
            self.prec,
        )


def wrap(x, prec: int) -> IntervalReal:
    """IntervalReal from a raw mpmath interval value."""
    lo_raw, hi_raw = x._mpi_
    return IntervalReal(lo=mp.mp.make_mpf(lo_raw), hi=mp.mp.make_mpf(hi_raw), prec=prec)


def unwrap(x: IntervalReal, ctx: MPIntervalContext):
    """Raw mpmath interval under ctx (exact: endpoints are preserved)."""
    return ctx.mpf([x.lo, x.hi])


def to_interval(x, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Coerce ints, Fractions, floats, strings, pairs, or pass through."""
    if isinstance(x, IntervalReal):
        return x
    ctx = ctx_for(prec)
    if isinstance(x, (int, Fraction)):
        return wrap(rational_to_iv(ctx, x), prec)
    if isinstance(x, tuple):
        lo, hi = (to_interval(e, prec) for e in x)
        return IntervalReal(lo=lo.lo, hi=hi.hi, prec=prec)
    return wrap(ctx.mpf(x), prec)


@functools.lru_cache(maxsize=64)
def pi_interval(prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of pi, computed once per precision and cached."""
    return wrap(ctx_for(prec).pi, prec)


@functools.lru_cache(maxsize=128)
def sqrt_rational_interval(q: Fraction, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Cached enclosure of sqrt(q) for exact rational q >= 0."""
    ctx = ctx_for(prec)
    return wrap(ctx.sqrt(rational_to_iv(ctx, Fraction(q))), prec)


def exp_interval(x, prec: int = DEFAULT_PREC) -> IntervalReal:
    return to_interval(x, prec).exp()
