"""Rigorous real enclosures at configurable binary precision.

One immutable type, :class:`IntervalReal`, holds one raw mpmath interval
value of the cached context :func:`ctx_for` (prec); that context's
precision is the working precision of every operation on it.  Each
operator applies the raw operation once and wraps the result; operands
meet at the larger of their two precisions, and exact ints and Fractions
enter as the enclosure of p/q rounded once down and once up.  All
arithmetic rounds outward (lo down, hi up), so an enclosure of a point
value x always satisfies lo <= x <= hi.  Nothing here reads mpmath's
global precision.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

import mpmath as mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (
    from_rational,
    mpf_le,
    mpf_sub,
    mpi_mid,
    round_ceiling,
    round_floor,
    to_float,
)

__all__ = [
    "IntervalReal",
    "ctx_for",
    "wrap",
    "to_interval",
    "mpf_fraction",
    "pi_interval",
    "sqrt_rational_interval",
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


def _rational_to_iv(ctx: MPIntervalContext, q) -> "mp.iv.mpf":
    """Enclosure of an exact int/Fraction under ctx: p/q rounded once down
    and once up, the tightest enclosure at ctx.prec, so nested rationals
    get nested enclosures."""
    if isinstance(q, int):
        return ctx.mpf(q)
    q = Fraction(q)
    p, d, prec = q.numerator, q.denominator, ctx.prec
    return ctx.make_mpf((from_rational(p, d, prec, round_floor),
                         from_rational(p, d, prec, round_ceiling)))


class IntervalReal:
    """Enclosure [lo, hi] produced at ``prec`` bits of working precision."""

    __slots__ = ("_v",)

    def __init__(self, lo, hi, prec: int) -> None:
        ctx = ctx_for(prec)
        a, b = ctx.mpf(lo)._mpi_[0], ctx.mpf(hi)._mpi_[1]
        if not mpf_le(a, b):
            raise ValueError("interval endpoints out of order: %s > %s" % (lo, hi))
        self._v = ctx.make_mpf((a, b))

    # -- inspection ---------------------------------------------------------

    @property
    def lo(self) -> mp.mpf:
        return mp.make_mpf(self._v._mpi_[0])

    @property
    def hi(self) -> mp.mpf:
        return mp.make_mpf(self._v._mpi_[1])

    @property
    def prec(self) -> int:
        return self._v.ctx.prec

    def at(self, prec: int) -> IntervalReal:
        """The same endpoints, exactly, as an enclosure at ``prec`` bits."""
        return wrap(ctx_for(prec).make_mpf(self._v._mpi_))

    @property
    def width(self) -> mp.mpf:
        """hi - lo, rounded up at the interval's own precision."""
        lo, hi = self._v._mpi_
        return mp.make_mpf(mpf_sub(hi, lo, self.prec, round_ceiling))

    @property
    def mid(self) -> mp.mpf:
        return mp.make_mpf(mpi_mid(self._v._mpi_, self.prec))

    def __float__(self) -> float:
        return to_float(mpi_mid(self._v._mpi_, self.prec))

    def lo_fraction(self) -> Fraction:
        return mpf_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return mpf_fraction(self.hi)

    def contains(self, x) -> bool:
        """Exact containment test for an int/Fraction/float/mpf value."""
        if isinstance(x, IntervalReal):
            return self.lo_fraction() <= x.lo_fraction() and (
                x.hi_fraction() <= self.hi_fraction()
            )
        q = mpf_fraction(x) if isinstance(x, mp.mpf) else Fraction(x)
        return self.lo_fraction() <= q <= self.hi_fraction()

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # -- arithmetic ---------------------------------------------------------

    def _binop(self, other, op, reflected: bool = False):
        """op(self, other), or op(other, self) when ``reflected``, at the
        larger of the two precisions."""
        a, b = self._v, to_interval(other, self.prec)._v
        if a.ctx.prec < b.ctx.prec:
            a = b.ctx.make_mpf(a._mpi_)
        elif b.ctx.prec < a.ctx.prec:
            b = a.ctx.make_mpf(b._mpi_)
        return wrap(op(b, a) if reflected else op(a, b))

    def _operators(op):
        return (lambda self, other: self._binop(other, op),
                lambda self, other: self._binop(other, op, reflected=True))

    __add__, __radd__ = _operators(operator.add)
    __sub__, __rsub__ = _operators(operator.sub)
    __mul__, __rmul__ = _operators(operator.mul)
    __truediv__, __rtruediv__ = _operators(operator.truediv)
    del _operators

    def __pow__(self, n: int):
        return wrap(self._v ** n)

    def __neg__(self):
        return wrap(-self._v)

    def __abs__(self):
        return wrap(abs(self._v))

    def sqrt(self):
        return wrap(self._v.ctx.sqrt(self._v))

    def exp(self):
        return wrap(self._v.ctx.exp(self._v))

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


def wrap(x) -> IntervalReal:
    """IntervalReal holding the raw mpmath interval value x; its
    precision is that of x's context."""
    iv = object.__new__(IntervalReal)
    iv._v = x
    return iv


def to_interval(x, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Coerce ints, Fractions, floats, strings, pairs, or pass through."""
    if isinstance(x, IntervalReal):
        return x
    ctx = ctx_for(prec)
    if isinstance(x, (int, Fraction)):
        return wrap(_rational_to_iv(ctx, x))
    if isinstance(x, tuple):
        lo, hi = (to_interval(e, prec) for e in x)
        return IntervalReal(lo=lo.lo, hi=hi.hi, prec=prec)
    return wrap(ctx.mpf(x))


@functools.lru_cache(maxsize=64)
def pi_interval(prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of pi, computed once per precision and cached."""
    return wrap(+ctx_for(prec).pi)


@functools.lru_cache(maxsize=128)
def sqrt_rational_interval(q: Fraction, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Cached enclosure of sqrt(q) for exact rational q >= 0."""
    return to_interval(Fraction(q), prec).sqrt()
