"""mpmath as an independent reference for the interval kernel.

The program does not use mpmath; the tests compare with it.  Its values
are dyadic rationals, so each converts to a Fraction exactly.
"""

from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_rational, round_ceiling, round_floor, to_rational


def mpf_fraction(x) -> Fraction:
    """Exact rational value of an mpf, or of a raw mpf tuple."""
    p, q = to_rational(getattr(x, "_mpf_", x))
    return Fraction(int(p), int(q))  # keep gmpy2 mpz out of Fraction internals


def iv_context(prec: int) -> MPIntervalContext:
    """A fresh mpmath interval context at ``prec`` bits."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def iv_rational(ctx: MPIntervalContext, lo, hi=None):
    """[lo, hi] (hi defaults to lo) for exact rationals, each end rounded
    outward once at the context's precision."""
    lo, hi = Fraction(lo), Fraction(lo if hi is None else hi)
    return ctx.make_mpf((from_rational(lo.numerator, lo.denominator, ctx.prec, round_floor),
                         from_rational(hi.numerator, hi.denominator, ctx.prec, round_ceiling)))


def iv_ends(v) -> tuple[Fraction, Fraction]:
    """Exact endpoints of an mpmath interval value."""
    return tuple(mpf_fraction(end) for end in v._mpi_)
