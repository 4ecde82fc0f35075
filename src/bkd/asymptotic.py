"""Rigorous enclosures for the analytic side of the verification.

Everything the exact tables are confronted with lives here: the size
parameter x_k(n) = pi sqrt(24n - 2k - 2)/6, the modified Bessel function
I_nu by its all-positive ascending series, the main asymptotic term
M_k(n), remainder bounds for I_2(z) e^{-z} sqrt(2 pi z), the six-term
asymptotic envelopes, closed-form bounds for the ratio
Lambda_k(n) = M(n-1) M(n+1) / M(n)^2 and for Theta_k(n), and the
neighbor-correction factors g_k, G_k.

Hypothesis gating: formulas evaluate anywhere they are defined, but
claims are only asserted inside their stated validity ranges (size
parameter >= 152, >= 315, scaled argument >= (15/2)^6/120, ...); outside
them checks return HYPOTHESIS_NOT_MET rather than a verdict.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, lgamma, log, log2, sqrt
from typing import Optional, Union

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling, round_floor, to_float

from .etaseries import PartitionTable
from .intervals import (
    DEFAULT_PREC,
    IntervalReal,
    ctx_for,
    rational_to_iv,
    sqrt_rational_interval,
    to_interval,
    unwrap,
    wrap,
)
from .report import CheckOutcome

__all__ = [
    "alpha",
    "x_param",
    "bessel_i",
    "i2_scaled_main",
    "auto_prec",
    "remainder_precisions",
    "bessel_remainder_margin",
    "bessel_remainder_check",
    "margin_outcome",
    "between",
    "general_remainder_terms",
    "general_remainder_bound",
    "gamma_constants",
    "envelope_pair",
    "envelope_sandwich_outcome",
    "main_term",
    "main_term_sandwich",
    "theta_exact",
    "RatioBounds",
    "ratio_bounds",
    "lambda_exact",
    "lambda_bounds_check",
    "theta_bounds_check",
    "tail_factors",
    "SandwichResult",
    "sandwich_check",
    "Z_REMAINDER_MIN",
    "X_MAIN_VALID",
    "X_THETA_VALID",
    "N_MAIN_VALID",
    "N_THETA_VALID",
]

# validity thresholds of the analytic claims
Z_REMAINDER_MIN = Fraction(759375, 512)  # (15/2)**6 / 120 = 1483.154...
X_MAIN_VALID = 152    # size parameter for the main-term sandwich (n >= 3512)
N_MAIN_VALID = 3512
X_THETA_VALID = 315   # size parameter for the Theta bounds (n >= 15081)
N_THETA_VALID = 15081


def alpha(k: int) -> Fraction:
    """The exact rational growth constant (5k + 2) / (2k + 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction(5 * k + 2, 2 * k + 1)


@functools.lru_cache(maxsize=32)
def _sqrt_alpha(k: int, prec: int) -> IntervalReal:
    return sqrt_rational_interval(alpha(k), prec)


def x_param(k: int, n: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Size parameter pi sqrt(24 n - (2k + 2)) / 6 as an enclosure."""
    radicand = 24 * n - (2 * k + 2)
    if radicand <= 0:
        raise ValueError("size parameter undefined: 24n - (2k+2) = %d <= 0" % radicand)
    ctx = ctx_for(prec)
    x = ctx.pi * ctx.sqrt(ctx.mpf(radicand)) / 6
    return wrap(x, prec)


# ---------------------------------------------------------------------------
# Bessel function by ascending series
# ---------------------------------------------------------------------------

def _series_sum(nu: int, x: tuple, w: int, limit: int, up: bool) -> tuple[int, int]:
    """Directed sum of the ascending series of I_nu at the raw mpf x >= 0.

    Returns (S, F) with S * 2^F <= I_nu(x) when ``up`` is False and
    S * 2^F >= I_nu(x) when it is True.  Terms carry w-bit mantissas;
    2^F sits w bits below the largest term.
    """
    man, exp = int(x[1]), x[2]
    if not man:
        return int(nu == 0), 0
    # (x/2)^2 = qm 2^qe exactly, qm shifted so that qm > m (m + nu) for
    # every m < limit: then T qm // (m (m + nu)) never drops below w bits
    qm, qe = man * man, 2 * exp - 2
    shift = max(0, (limit * (limit + nu)).bit_length() + 1 - qm.bit_length())
    qm, qe = qm << shift, qe - shift
    # 2 (x/2)^2 < d  <=>  two_q < d * scale
    two_q, scale = (qm << qe + 1, 1) if qe >= -1 else (qm, 1 << -qe - 1)
    # the upper sum runs on negated values, so that // and >>, which
    # round towards -infinity, round its magnitudes up
    sign = -1 if up else 1
    # first term (x/2)^nu / nu!, exponent e, then w bits kept
    num, fact = man**nu, factorial(nu)
    lift = max(0, w + fact.bit_length() - num.bit_length())
    t = (sign * num << lift) // fact
    excess = t.bit_length() - w
    t >>= excess
    e = nu * (exp - 1) - lift + excess
    # F = log2 of the largest term (at m* ~ (sqrt(nu^2 + x^2) - nu) / 2,
    # a float estimate) minus w; it only affects tightness
    ln_half = log(man) + (exp - 1) * log(2)
    m_peak = int((sqrt(nu * nu + to_float(x) ** 2) - nu) / 2)
    peak = ((2 * m_peak + nu) * ln_half - lgamma(m_peak + 1)
            - lgamma(m_peak + nu + 1)) / log(2)
    f = int(peak) - w
    k = e - f  # the current term is t * 2^(f + k)
    s = t << k if k >= 0 else t >> -k
    decaying = False
    for m in range(1, limit):
        t = t * qm // (m * (m + nu))
        k += qe
        excess = t.bit_length() - w
        t >>= excess
        k += excess
        s += t << k if k >= 0 else t >> -k
        # the term ratio only falls with m, so once below 1/2 it stays
        # there, and the tail after a term is at most that term
        decaying = decaying or two_q < (m + 1) * (m + nu + 1) * scale
        if decaying and k + t.bit_length() <= 0:
            return sign * s + up, f
    raise RuntimeError("bessel series failed to converge within %d terms" % limit)


def bessel_i(nu: int, z, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of I_nu(z) for z >= 0 by the ascending series

        I_nu(z) = sum_m (z/2)^(2m + nu) / (m! (m + nu)!).

    Every term is positive and increasing in z, so the series is summed
    twice with directed rounding (Brent-Zimmermann, *Modern Computer
    Arithmetic*, ch. 4): from z.lo rounding every step down, which gives
    a lower bound at any truncation, and from z.hi rounding every step up.

    The sums run in Python integers.  A term is a mantissa T of
    w = prec + guard bits and an exponent; guard is log2 of the term
    count plus 6 bits, which covers the rounding of every term.  Since
    the mpf mantissa of z is an integer, Q = (z/2)^2 is exact, and the
    next term is T Q // (m (m + nu)), renormalised to w bits.  The terms
    add into one fixed-point integer whose unit 2^F sits w bits below
    the largest term.  Once 2Q < (m+1)(m+nu+1), an exact integer test,
    every later term ratio r is below 1/2, so the tail after a term is
    at most term * r/(1 - r) <= term; when that term is below 2^F too,
    the upper sum adds one unit of F and stops.  Each sum becomes an mpf
    at ``prec`` bits, rounded down for the lower end and up for the
    upper.  F and guard set the tightness only, never the direction of
    any rounding.  Rigorous for the whole range used here (z up to
    ~10^4).  For large z the ratio test binds: the sums run to
    m ~ z/sqrt(2) terms (7071 at z = 10^4).
    """
    if nu < 0:
        raise ValueError("nu must be a nonnegative integer")
    z_iv = to_interval(z, prec)
    if z_iv.lo < 0:
        raise ValueError("bessel_i requires z >= 0")
    terms = int(float(z_iv.hi)) + prec + nu + 16
    w = prec + terms.bit_length() + 6
    lo = from_man_exp(*_series_sum(nu, z_iv.lo._mpf_, w, 8 * terms, False),
                      prec, round_floor)
    hi = from_man_exp(*_series_sum(nu, z_iv.hi._mpf_, w, 8 * terms, True),
                      prec, round_ceiling)
    return IntervalReal(lo=mp.make_mpf(lo), hi=mp.make_mpf(hi), prec=prec)


def i2_scaled_main(z, prec: Optional[int] = None) -> IntervalReal:
    """Five-term main part of I_2(z) e^{-z} sqrt(2 pi z) for large z:

        1 - 15/(8z) + 105/(128 z^2) + 315/(1024 z^3)
          + 10395/(32768 z^4) + 135135/(262144 z^5).
    """
    z_iv = to_interval(z, prec or DEFAULT_PREC)
    if z_iv.lo <= 0:
        raise ValueError("main part needs z > 0")
    p = prec or z_iv.prec
    ctx = ctx_for(p)
    zz = unwrap(z_iv, ctx)
    u = 1 / zz
    # Horner in 1/z with exact rational coefficients
    acc = rational_to_iv(ctx, Fraction(135135, 262144))
    for c in (
        Fraction(10395, 32768),
        Fraction(315, 1024),
        Fraction(105, 128),
        Fraction(-15, 8),
        Fraction(1),
    ):
        acc = acc * u + rational_to_iv(ctx, c)
    return wrap(acc, p)


def auto_prec(z) -> int:
    """Starting precision for remainder checks at argument z:
    ceil(6 log2 z) + 64 bits.

    I_2(z) e^{-z} sqrt(2 pi z) is O(1): multiplying by e^{-z} cancels
    nothing, because the floating-point exponent absorbs the magnitude of
    I_2(z).  The margin 73/z^6 - |err| is about 72/z^6, so it needs an
    absolute accuracy well below z^-6 on an O(1) quantity (6 log2 z bits).
    The other 64 bits are headroom for the handful of outward roundings
    in the product and the subtraction; the series itself needs none of
    them, because :func:`bessel_i` sums it with its own guard bits (log2
    of the term count plus 6) and rounds the sum to prec bits once.
    At z = 10^4 this is 144 bits.
    """
    z_hi = float(to_interval(z, 64).hi)
    return int(ceil(6 * log2(z_hi))) + 64


def remainder_precisions(z, prec: Union[int, str, None] = None) -> list[int]:
    """The precisions a remainder check at z tries, in order.

    An explicit ``prec`` is the only attempt.  With prec None or "auto"
    the check starts at :func:`auto_prec` and doubles while the margin
    straddles 0, up to a cap of ceil(1.45 z) + 64 bits, at which the
    last attempt is made.
    """
    if prec not in (None, "auto"):
        return [int(prec)]
    cap = int(ceil(1.45 * float(to_interval(z, 64).hi))) + 64
    schedule = [min(auto_prec(z), cap)]
    while schedule[-1] < cap:
        schedule.append(min(2 * schedule[-1], cap))
    return schedule


def scaled_i2(z, prec: int) -> IntervalReal:
    """Enclosure of I_2(z) e^{-z} sqrt(2 pi z), evaluated as a product."""
    z_iv = to_interval(z, prec)
    ctx = ctx_for(prec)
    zz = unwrap(z_iv, ctx)
    bessel = unwrap(bessel_i(2, z_iv, prec), ctx)
    val = bessel * ctx.exp(-zz) * ctx.sqrt(2 * ctx.pi * zz)
    return wrap(val, prec)


def bessel_remainder_margin(z, prec: Union[int, str, None] = None) -> IntervalReal:
    """Margin 73/z^6 - |I_2(z) e^{-z} sqrt(2 pi z) - main part|.

    The remainder claim holds at z iff the returned enclosure is
    provably positive (margin.lo > 0).  Requires z >= (15/2)^6 / 120.
    The precisions tried are those of :func:`remainder_precisions`; the
    first margin that does not straddle 0, or the last one, is returned,
    and its ``prec`` says which attempt that was.
    """
    z_iv = to_interval(z, 64)
    if z_iv.lo_fraction() < Z_REMAINDER_MIN:
        raise ValueError(
            "remainder bound is only claimed for z >= (15/2)^6/120 = %s"
            % float(Z_REMAINDER_MIN)
        )
    for p in remainder_precisions(z_iv, prec):
        z_p = to_interval(z, p)
        ctx = ctx_for(p)
        zz = unwrap(z_p, ctx)
        err = unwrap(scaled_i2(z_p, p), ctx) - unwrap(i2_scaled_main(z_p, p), ctx)
        margin = wrap(73 / zz**6 - abs(err), p)
        if not margin.straddles_zero():
            break
    return margin


def margin_outcome(margin: IntervalReal) -> CheckOutcome:
    """PASS when the margin is provably positive, FAIL when provably
    negative, INCONCLUSIVE when its enclosure straddles 0."""
    if margin.lo > 0:
        return CheckOutcome.PASS
    if margin.hi < 0:
        return CheckOutcome.FAIL
    return CheckOutcome.INCONCLUSIVE


def bessel_remainder_check(z, prec: Union[int, str, None] = None) -> CheckOutcome:
    return margin_outcome(bessel_remainder_margin(z, prec))


def between(lower, value, upper, strict: bool) -> CheckOutcome:
    """Decide lower <= value <= upper, or lower < value < upper when
    ``strict``, for IntervalReal enclosures and exact ints or Fractions.

    PASS when the inequality holds at every point of the enclosures, FAIL
    when it fails at every point, INCONCLUSIVE otherwise.  An enclosure
    enters by its endpoints as Fractions, so every comparison is exact.
    This is the one two-sided comparator behind the sandwich and bounds
    checks; each caller states its strictness.
    """
    (low_lo, low_hi), (lo, hi), (up_lo, up_hi) = (
        (x.lo_fraction(), x.hi_fraction()) if isinstance(x, IntervalReal) else (x, x)
        for x in (lower, value, upper))
    holds = operator.lt if strict else operator.le
    if holds(low_hi, lo) and holds(hi, up_lo):
        return CheckOutcome.PASS
    if not (holds(low_lo, hi) and holds(lo, up_hi)):
        return CheckOutcome.FAIL
    return CheckOutcome.INCONCLUSIVE


# ---------------------------------------------------------------------------
# General remainder bound for integer nu >= 2
# ---------------------------------------------------------------------------

def general_remainder_hypothesis_min(nu: int) -> Fraction:
    """Smallest admissible z: (nu + 11/2)^6 / 120."""
    return Fraction((2 * nu + 11) ** 6, 64 * 120)


def general_remainder_terms(
    nu: int, z, prec: int = DEFAULT_PREC
) -> tuple[IntervalReal, IntervalReal, IntervalReal]:
    """The three terms of the remainder bound for |I_nu e^{-z} sqrt(2 pi z)
    minus its five-term asymptotic main part|:

      t1 = (52/17) e^{-z} / Gamma(nu+1/2) * sum_i |C(nu-1/2, i)| z^{nu-1/2} / 2^i
      t2 = e^{-z} z^{nu+1/2} / (2^{nu-1/2} Gamma(nu+1/2))
      t3 = |prod_{j odd <= 11} (nu^2 - j^2/4)| / (6! 2^{nu-1/2} z^6)
             * max(2^{nu-13/2}, 1)
    """
    if nu < 2:
        raise ValueError("the bound requires nu >= 2")
    z_iv = to_interval(z, prec)
    if z_iv.lo_fraction() < general_remainder_hypothesis_min(nu):
        raise ValueError(
            "hypothesis violated: need z >= (nu + 11/2)^6 / 120 = %s"
            % float(general_remainder_hypothesis_min(nu))
        )
    ctx = ctx_for(prec)
    zz = unwrap(z_iv, ctx)
    sqrt2 = ctx.sqrt(ctx.mpf(2))
    sqrt_pi = ctx.sqrt(ctx.pi)
    sqrt_z = ctx.sqrt(zz)
    exp_neg_z = ctx.exp(-zz)

    # Gamma(nu + 1/2) = (2 nu - 1)!! sqrt(pi) / 2^nu, exact up to sqrt(pi)
    dfact = 1
    for i in range(1, 2 * nu, 2):
        dfact *= i
    gamma_nu_half = rational_to_iv(ctx, Fraction(dfact, 2**nu)) * sqrt_pi

    # binomial C(nu - 1/2, i) is an exact rational for integer nu
    binom_sum = ctx.zero
    for i in range(6):
        b = Fraction(1)
        for j in range(i):
            b *= Fraction(2 * nu - 1 - 2 * j, 2)
        b /= factorial(i)
        binom_sum = binom_sum + rational_to_iv(ctx, abs(b)) / 2**i
    z_pow_nu = zz**nu
    t1 = (
        rational_to_iv(ctx, Fraction(52, 17))
        * exp_neg_z
        / gamma_nu_half
        * binom_sum
        * z_pow_nu
        / sqrt_z
    )

    two_pow = rational_to_iv(ctx, Fraction(2**nu)) / sqrt2  # 2^(nu - 1/2)
    t2 = exp_neg_z * z_pow_nu * sqrt_z / (two_pow * gamma_nu_half)

    product = Fraction(1)
    for j in (1, 3, 5, 7, 9, 11):
        product *= Fraction(4 * nu * nu - j * j, 4)
    cap = ctx.one if nu <= 6 else rational_to_iv(ctx, Fraction(2 ** (nu - 7))) * sqrt2
    t3 = rational_to_iv(ctx, abs(product) / 720) / (two_pow * zz**6) * cap
    return wrap(t1, prec), wrap(t2, prec), wrap(t3, prec)


def general_remainder_bound(nu: int, z, prec: int = DEFAULT_PREC) -> IntervalReal:
    t1, t2, t3 = general_remainder_terms(nu, z, prec)
    return t1 + t2 + t3


# ---------------------------------------------------------------------------
# Asymptotic envelopes
# ---------------------------------------------------------------------------

def gamma_constants(k: int, prec: int = DEFAULT_PREC) -> tuple[IntervalReal, ...]:
    """The six envelope coefficients over sqrt(alpha_k):

    15/(8 a^(1/2)), 105/(128 a), 315/(1024 a^(3/2)), 10395/(32768 a^2),
    135135/(262144 a^(5/2)), 73/a^3   with a = alpha_k.
    """
    a = alpha(k)
    ctx = ctx_for(prec)
    ra = unwrap(_sqrt_alpha(k, prec), ctx)
    g1 = rational_to_iv(ctx, Fraction(15, 8)) / ra
    g2 = rational_to_iv(ctx, Fraction(105, 128) / a)
    g3 = rational_to_iv(ctx, Fraction(315, 1024) / a) / ra
    g4 = rational_to_iv(ctx, Fraction(10395, 32768) / a**2)
    g5 = rational_to_iv(ctx, Fraction(135135, 262144) / a**2) / ra
    g6 = rational_to_iv(ctx, Fraction(73) / a**3)
    return tuple(wrap(g, prec) for g in (g1, g2, g3, g4, g5, g6))


def envelope_pair(
    k: int,
    t,
    prec: int = DEFAULT_PREC,
    orientation: str = "printed",
) -> tuple[IntervalReal, IntervalReal]:
    """The envelope pair (phi, Phi) at argument t.

    Both polynomials share 1 - g1/t + g2/t^2 + g3/t^3 + g4/t^4 + g5/t^5
    and differ only in the sign of the g6/t^6 term.  ``orientation``:

    * "printed": phi carries +g6/t^6 and Phi carries -g6/t^6, exactly as
      the definitions are printed.  Note this makes phi > Phi pointwise.
    * "corrected": the g6 signs are swapped, which is the orientation
      actually consistent with the two-sided remainder bound (phi below,
      Phi above).  See :func:`envelope_sandwich_outcome`.
    """
    if orientation not in ("printed", "corrected"):
        raise ValueError("orientation must be 'printed' or 'corrected'")
    t_iv = to_interval(t, prec)
    if t_iv.lo <= 0:
        raise ValueError("envelopes need t > 0")
    ctx = ctx_for(prec)
    tt = unwrap(t_iv, ctx)
    g1, g2, g3, g4, g5, g6 = (unwrap(g, ctx) for g in gamma_constants(k, prec))
    base = 1 - g1 / tt + g2 / tt**2 + g3 / tt**3 + g4 / tt**4 + g5 / tt**5
    bump = g6 / tt**6
    if orientation == "printed":
        phi, big_phi = base + bump, base - bump
    else:
        phi, big_phi = base - bump, base + bump
    return wrap(phi, prec), wrap(big_phi, prec)


def envelope_sandwich_outcome(
    k: int,
    t,
    prec: Optional[int] = None,
    orientation: str = "printed",
) -> CheckOutcome:
    """Does phi <= I_2(sqrt(a) t) e^{-...} sqrt(...) <= Phi hold at t?

    Checks the scaled form phi(t) <= I_2(z) e^{-z} sqrt(2 pi z) <= Phi(t)
    with z = sqrt(alpha_k) t, which is equivalent and numerically tame.
    Hypothesis: z >= (15/2)^6/120 (t >= ~971 for k in {1, 2}).
    """
    p = prec or DEFAULT_PREC
    t_iv = to_interval(t, p)
    ctx = ctx_for(p)
    z = wrap(unwrap(_sqrt_alpha(k, p), ctx) * unwrap(t_iv, ctx), p)
    if z.lo_fraction() < Z_REMAINDER_MIN:
        return CheckOutcome.HYPOTHESIS_NOT_MET
    scaled = scaled_i2(z, p)
    phi, big_phi = envelope_pair(k, t_iv, p, orientation)
    return between(phi, scaled, big_phi, strict=False)


# ---------------------------------------------------------------------------
# Main term and its sandwiches
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def main_term(k: int, n: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """M_k(n) = alpha_k pi^3 / (18 x^2) * I_2(sqrt(alpha_k) x) at x = x_k(n).

    Memoized: Lambda(n) needs M(n-1), M(n) and M(n+1), so a scan over
    consecutive n asks for each value three times.
    """
    ctx = ctx_for(prec)
    x = unwrap(x_param(k, n, prec), ctx)
    ra = unwrap(_sqrt_alpha(k, prec), ctx)
    bessel = unwrap(bessel_i(2, wrap(ra * x, prec), prec), ctx)
    val = rational_to_iv(ctx, alpha(k)) * ctx.pi**3 / (18 * x**2) * bessel
    return wrap(val, prec)


def theta_exact(table: PartitionTable, n: int) -> Fraction:
    """Exact rational Theta(n) = a(n-1) a(n+1) / a(n)^2 from the table."""
    if n < 1 or n + 1 > table.N:
        raise IndexError("theta needs 1 <= n <= N-1")
    a = table.coeffs
    return Fraction(a[n - 1] * a[n + 1], a[n] ** 2)


def main_term_sandwich(
    k: int, n: int, table: PartitionTable, prec: int = DEFAULT_PREC
) -> CheckOutcome:
    """Check M(n)(1 - x^-6) <= delta_k(n) <= M(n)(1 + x^-6) rigorously.

    Asserted only where the claim is valid (size parameter >= 152, i.e.
    n >= 3512 for k in {1, 2}); below that returns HYPOTHESIS_NOT_MET.
    """
    if k not in (1, 2):
        raise ValueError("the main-term sandwich is stated for k = 1 or 2")
    if n > table.N:
        raise IndexError("table does not cover n = %d" % n)
    x = x_param(k, n, prec)
    if x.lo_fraction() < X_MAIN_VALID:
        return CheckOutcome.HYPOTHESIS_NOT_MET
    ctx = ctx_for(prec)
    m_val = unwrap(main_term(k, n, prec), ctx)
    corr = unwrap(x, ctx) ** (-6)
    lower = wrap(m_val * (1 - corr), prec)
    upper = wrap(m_val * (1 + corr), prec)
    return between(lower, table.coeffs[n], upper, strict=False)


def lambda_exact(k: int, n: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of M(n-1) M(n+1) / M(n)^2 from Bessel evaluations."""
    if n < 2:
        raise ValueError("lambda needs n >= 2 so that x_k(n-1) is defined")
    ctx = ctx_for(prec)
    num = unwrap(main_term(k, n - 1, prec), ctx) * unwrap(main_term(k, n + 1, prec), ctx)
    den = unwrap(main_term(k, n, prec), ctx) ** 2
    return wrap(num / den, prec)


@dataclass(frozen=True)
class RatioBounds:
    """Closed-form bounds in 1/x for Lambda and Theta at one n."""

    k: int
    n: int
    lambda_lo: IntervalReal
    lambda_hi: IntervalReal
    theta_lo: IntervalReal
    theta_hi: IntervalReal
    lambda_valid: bool  # n >= 2
    theta_valid: bool   # size parameter >= 315


def ratio_bounds(k: int, n: int, prec: int = DEFAULT_PREC) -> RatioBounds:
    """Evaluate the printed polynomial-in-1/x bounds at x = x_k(n).

    lambda_hi = (1 + 5 pi^4/(9x^4) + pi^8/(3x^8))
                (1 - sqrt(a) pi^4/(9x^3) + a pi^8/(81 x^6))
                (1 - 5 pi^4/(8 sqrt(a) x^5) + 292/(a^3 x^6))
    lambda_lo = (1 + 5 pi^4/(9x^4) + 5 pi^8/(18 x^8))
                (1 - sqrt(a) pi^4/(9x^3) - 5 sqrt(a) pi^8/(162 x^7))
                (1 - 5 pi^4/(8 sqrt(a) x^5) - 5 pi^4/(6 a x^6) - 300/(a^3 x^6))
    theta_lo  = c(x) + (-300/a^3 - 10 - 5 pi^4/(6a)) / x^6
    theta_hi  = c(x) + (pi^8 a/81 + 292/a^3 + 5) / x^6
    with c(x) = 1 - pi^4 sqrt(a)/(9x^3) + 5 pi^4/(9x^4) - 5 pi^4/(8 sqrt(a) x^5).
    """
    if k not in (1, 2):
        raise ValueError("ratio bounds are stated for k = 1 or 2")
    a = alpha(k)
    ctx = ctx_for(prec)
    x_iv = x_param(k, n, prec)
    x = unwrap(x_iv, ctx)
    ra = unwrap(_sqrt_alpha(k, prec), ctx)
    pi4 = ctx.pi**4
    pi8 = pi4 * pi4
    u = 1 / x

    a_hi = 1 + 5 * pi4 / 9 * u**4 + pi8 / 3 * u**8
    b_hi = 1 - ra * pi4 / 9 * u**3 + rational_to_iv(ctx, a / 81) * pi8 * u**6
    c_hi = (
        1
        - rational_to_iv(ctx, Fraction(5, 8)) * pi4 / ra * u**5
        + rational_to_iv(ctx, 292 / a**3) * u**6
    )
    lam_hi = a_hi * b_hi * c_hi

    a_lo = 1 + 5 * pi4 / 9 * u**4 + rational_to_iv(ctx, Fraction(5, 18)) * pi8 * u**8
    b_lo = 1 - ra * pi4 / 9 * u**3 - rational_to_iv(ctx, Fraction(5, 162)) * ra * pi8 * u**7
    c_lo = (
        1
        - rational_to_iv(ctx, Fraction(5, 8)) * pi4 / ra * u**5
        - rational_to_iv(ctx, Fraction(5, 6) / a) * pi4 * u**6
        - rational_to_iv(ctx, 300 / a**3) * u**6
    )
    lam_lo = a_lo * b_lo * c_lo

    common = (
        1
        - pi4 * ra / 9 * u**3
        + 5 * pi4 / 9 * u**4
        - rational_to_iv(ctx, Fraction(5, 8)) * pi4 / ra * u**5
    )
    th_lo = common + (
        rational_to_iv(ctx, -300 / a**3 - 10) - rational_to_iv(ctx, Fraction(5, 6) / a) * pi4
    ) * u**6
    th_hi = common + (
        rational_to_iv(ctx, a / 81) * pi8 + rational_to_iv(ctx, 292 / a**3 + 5)
    ) * u**6

    return RatioBounds(
        k=k,
        n=n,
        lambda_lo=wrap(lam_lo, prec),
        lambda_hi=wrap(lam_hi, prec),
        theta_lo=wrap(th_lo, prec),
        theta_hi=wrap(th_hi, prec),
        lambda_valid=n >= 2,
        theta_valid=x_iv.lo_fraction() >= X_THETA_VALID,
    )


def lambda_bounds_check(k: int, n: int, prec: int = DEFAULT_PREC) -> CheckOutcome:
    """lambda_lo <= Lambda_exact <= lambda_hi, Lambda from Bessel values."""
    if n < 2:
        return CheckOutcome.HYPOTHESIS_NOT_MET
    rb = ratio_bounds(k, n, prec)
    return between(rb.lambda_lo, lambda_exact(k, n, prec), rb.lambda_hi, strict=False)


def theta_bounds_check(
    k: int, n: int, table: PartitionTable, prec: int = DEFAULT_PREC,
    bounds: Optional[RatioBounds] = None,
) -> CheckOutcome:
    """theta_lo < Theta_exact < theta_hi at n (valid for size >= 315).

    ``bounds`` is ratio_bounds(k, n, prec) when the caller already has it.
    """
    rb = bounds or ratio_bounds(k, n, prec)
    if not rb.theta_valid:
        return CheckOutcome.HYPOTHESIS_NOT_MET
    return between(rb.theta_lo, theta_exact(table, n), rb.theta_hi, strict=True)


# ---------------------------------------------------------------------------
# Neighbor-correction factors and the two-sided sandwich
# ---------------------------------------------------------------------------

def tail_factors(
    k: int, n: int, prec: int = DEFAULT_PREC
) -> tuple[IntervalReal, IntervalReal]:
    """The factors (g, G) given by x(n -/+ 1) = sqrt(x^2 -/+ 2 pi^2/3):

        g = (1 - x(n-1)^-6)(1 - x(n+1)^-6) / (1 + x(n)^-6)^2
        G = (1 + x(n-1)^-6)(1 + x(n+1)^-6) / (1 - x(n)^-6)^2
    """
    if n < 2:
        raise ValueError("tail factors need n >= 2")
    ctx = ctx_for(prec)
    x = unwrap(x_param(k, n, prec), ctx)
    shift = 2 * ctx.pi**2 / 3
    low_sq = x**2 - shift
    if low_sq.a <= 0:
        raise ValueError("x(n-1)^2 enclosure not positive; n too small")
    xm6 = ctx.sqrt(low_sq) ** (-6)
    xp6 = ctx.sqrt(x**2 + shift) ** (-6)
    x6 = x ** (-6)
    g = (1 - xm6) * (1 - xp6) / (1 + x6) ** 2
    big_g = (1 + xm6) * (1 + xp6) / (1 - x6) ** 2
    return wrap(g, prec), wrap(big_g, prec)


# ---------------------------------------------------------------------------
# Tail data for the Theta-bound domination certificates
# ---------------------------------------------------------------------------

def theta_bound_tail_blocks(k: int, bits: int = 192) -> dict:
    """Leading-coefficient data of the two tail polynomials behind the
    Theta bounds, as exact rational enclosures ready for
    :func:`bkd.positivity.domination_threshold`.

    The upper-bound reduction ends in a degree-19 polynomial with

        c19 = 360 pi^8 a^(7/2),  c18 = -2349 pi^8 a^3,
        c17 = 2025 pi^8 a^(5/2) + 3240 pi^4 a^(7/2) + 189216 pi^4 a^(1/2),

    pivot 17, count 17; the lower-bound one in a degree-21 polynomial with

        d21 = 349920 a^3,  d20 = -6480 pi^8 a^(7/2),  d19 = 24300 pi^8 a^3,

    pivot 19, count 19 (a = alpha_k).  Only these leading coefficients are
    printed; bounds for the dominated low-order coefficients are the
    caller's input to the domination mechanism.
    """
    from .positivity import pi_bounds, q_add, q_mul, q_pow, q_scale, sqrt_bounds

    a = alpha(k)
    pi_q = pi_bounds(bits)
    pi4 = q_pow(pi_q, 4)
    pi8 = q_pow(pi_q, 8)
    sa = sqrt_bounds(a, bits)

    c19 = q_scale(q_mul(pi8, sa), 360 * a**3)
    c18 = q_scale(pi8, -2349 * a**3)
    c17 = q_add(
        q_scale(q_mul(pi8, sa), 2025 * a**2),
        q_add(
            q_scale(q_mul(pi4, sa), 3240 * a**3),
            q_scale(q_mul(pi4, sa), 189216),
        ),
    )
    d21 = (Fraction(349920) * a**3, Fraction(349920) * a**3)
    d20 = q_scale(q_mul(pi8, sa), -6480 * a**3)
    d19 = q_scale(pi8, 24300 * a**3)
    return {
        "upper": {"pivot": 17, "count": 17, "pivot_bound": c17,
                  "leading": {18: c18, 19: c19}},
        "lower": {"pivot": 19, "count": 19, "pivot_bound": d19,
                  "leading": {20: d20, 21: d21}},
    }


@dataclass(frozen=True)
class SandwichResult:
    """Outcome of one Lambda g <= Theta <= Lambda G comparison, with the
    enclosures it compared (None below the validity threshold)."""

    k: int
    n: int
    outcome: CheckOutcome
    theta: Optional[Fraction]
    lower: Optional[IntervalReal]
    upper: Optional[IntervalReal]
    g: Optional[IntervalReal]
    big_g: Optional[IntervalReal]
    prec: int

    def to_json_obj(self) -> dict:
        obj = {"k": self.k, "n": self.n, "outcome": self.outcome.value,
               "prec": self.prec}
        if self.theta is not None:
            obj["theta"] = "%d/%d" % (self.theta.numerator, self.theta.denominator)
        if self.lower is not None:
            obj["lower"] = self.lower.dumps()
            obj["upper"] = self.upper.dumps()
        return obj


def sandwich_check(
    k: int, n: int, table: PartitionTable, prec: int = DEFAULT_PREC
) -> SandwichResult:
    """Verify Lambda(n) g(n) <= Theta(n) <= Lambda(n) G(n) rigorously.

    Lambda comes from Bessel enclosures, g and G from the exact neighbor
    relations, Theta from the table.  Valid from n >= 3512 (size >= 152);
    below that the outcome is HYPOTHESIS_NOT_MET by design.  PASS/FAIL
    are certain; INCONCLUSIVE asks for more precision.
    """
    if k not in (1, 2):
        raise ValueError("the two-sided sandwich is stated for k = 1 or 2")
    if n + 1 > table.N:
        raise IndexError("table must cover n + 1 = %d" % (n + 1))
    x = x_param(k, n, prec)
    if x.lo_fraction() < X_MAIN_VALID:
        return SandwichResult(k, n, CheckOutcome.HYPOTHESIS_NOT_MET,
                              None, None, None, None, None, prec)
    ctx = ctx_for(prec)
    lam = unwrap(lambda_exact(k, n, prec), ctx)
    g, big_g = tail_factors(k, n, prec)
    lower = wrap(lam * unwrap(g, ctx), prec)
    upper = wrap(lam * unwrap(big_g, ctx), prec)
    th = theta_exact(table, n)
    outcome = between(lower, th, upper, strict=False)
    return SandwichResult(k, n, outcome, th, lower, upper, g, big_g, prec)
