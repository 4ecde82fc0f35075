"""Rigorous enclosures for the analytic side of the verification.

Everything the exact tables are confronted with lives here: the size
parameter x_k(n) = pi sqrt(24n - 2k - 2)/6, the modified Bessel function
I_nu by its all-positive ascending series, the main asymptotic term
M_k(n), remainder bounds for I_2(z) e^{-z} sqrt(2 pi z), closed-form
bounds for the ratio Lambda_k(n) = M(n-1) M(n+1) / M(n)^2 and for
Theta_k(n), and the neighbor-correction factors g_k, G_k.

Every formula is written with the operators of
:class:`~bkd.intervals.IntervalReal` on exact ints and Fractions; each
function works at its ``prec`` argument, re-homing an enclosure that
arrives at another precision with ``at(prec)``.  Only the Bessel series
runs outside the interval type: one pass in Python integers, rounded
down, gives a lower and an upper bound on the sum, and the interval
kernel rounds the two to ``prec`` bits.  Nothing here needs mpmath.

Hypothesis gating: formulas evaluate anywhere they are defined, but
claims are only asserted inside their stated validity ranges (size
parameter >= 152, >= 315, scaled argument >= (15/2)^6/120, ...); outside
them checks return HYPOTHESIS_NOT_MET rather than a verdict, and
bessel_remainder_margin, which returns a margin, raises ValueError.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import ceil, factorial, ldexp, lgamma, log, log2, perm, sqrt
from typing import NamedTuple, Optional

from .etaseries import PartitionTable
from .intervals import (
    DEFAULT_PREC,
    IntervalReal,
    _power,
    from_dyadic,
    pi_interval,
    sqrt_rational_interval,
    to_interval,
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
    "margin_outcome",
    "between",
    "general_remainder_terms",
    "general_remainder_bound",
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
]

# validity thresholds of the analytic claims
Z_REMAINDER_MIN = Fraction(759375, 512)  # (15/2)**6 / 120 = 1483.154...
X_MAIN_VALID = 152    # size parameter for the main-term sandwich (n >= 3512)
X_THETA_VALID = 315   # size parameter for the Theta bounds (n >= 15081)


def alpha(k: int) -> Fraction:
    """The exact rational growth constant (5k + 2) / (2k + 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction(5 * k + 2, 2 * k + 1)


def x_param(k: int, n: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Size parameter pi sqrt(24 n - (2k + 2)) / 6 as an enclosure."""
    radicand = 24 * n - (2 * k + 2)
    if radicand <= 0:
        raise ValueError("size parameter undefined: 24n - (2k+2) = %d <= 0" % radicand)
    return pi_interval(prec) * to_interval(radicand, prec).sqrt() / 6


# ---------------------------------------------------------------------------
# Bessel function by ascending series
# ---------------------------------------------------------------------------

def _term_bounds(nu: int, man: int, exp: int, m: int, w: int) -> tuple[int, int, int]:
    """(t, u, e) with t 2^e <= T_m <= u 2^e, t of exactly w bits, for the
    term T_m = (x/2)^(2m + nu) / (m! (m + nu)!) at x = man 2^exp > 0.

    For m > 0 the power is binary powering with directed truncation at
    w + 8 bits, and m! is truncated to w + 8 bits each way before it
    divides: a division by the exact m!, 45 000 bits at m = 4233, would
    cost time quadratic in its length.  (m + nu)! / m! is an exact small
    product.
    """
    if m:
        lo_pm, lo_pe = _power(man, exp - 1, 2 * m + nu, w + 8, False)
        hi_pm, hi_pe = _power(man, exp - 1, 2 * m + nu, w + 8, True)
    else:
        lo_pm = hi_pm = man**nu
        lo_pe = hi_pe = nu * (exp - 1)
    # m! (m + nu)! = m!^2 p with d_lo 2^cut <= m! <= d_hi 2^cut
    fact, p = factorial(m), perm(m + nu, nu)
    cut = max(0, fact.bit_length() - w - 8)
    d_lo, d_hi = fact >> cut, -(-fact >> cut)
    den_lo, den_hi = d_lo * d_lo * p, d_hi * d_hi * p
    lift = max(0, w + 1 + den_hi.bit_length() - lo_pm.bit_length())
    t = (lo_pm << lift) // den_hi
    excess = t.bit_length() - w
    t >>= excess
    e = lo_pe - lift - 2 * cut + excess
    k = hi_pe - 2 * cut - e  # u = ceil(hi_pm 2^k / den_lo)
    u = -((-hi_pm << k) // den_lo) if k >= 0 else -(-hi_pm // (den_lo << -k))
    return t, u, e


def _series_bounds(nu: int, man: int, exp: int, w: int, limit: int) -> tuple[int, int, int]:
    """(S_lo, S_hi, F) with S_lo 2^F <= I_nu(x) <= S_hi 2^F at x = man 2^exp >= 0,
    from one pass of the ascending series rounded down.

    2^F sits w bits below the largest term, and the terms carry v = w + 8
    bit mantissas: the upper bound charges every term the worst rounding
    of the whole pass, n 2^(2-v) for n terms, which the 8 bits keep to a
    few units.  The pass starts at a term m0 past a head worth under a
    quarter unit; ``limit``, below 2^(v - 2), caps the index of its last
    term.
    """
    if not man:
        return int(nu == 0), int(nu == 0), 0
    v = w + 8
    # (x/2)^2 = qm 2^qe exactly, qm shifted so that qm > m (m + nu) for
    # every m < limit: then T qm // (m (m + nu)) never drops below v bits
    qm, qe = man * man, 2 * exp - 2
    shift = max(0, (limit * (limit + nu)).bit_length() + 1 - qm.bit_length())
    qm, qe = qm << shift, qe - shift
    # (x/2)^2 = q_num / q_den, and 2^q_log <= (x/2)^2
    q_num, q_den = (qm << qe, 1) if qe >= 0 else (qm, 1 << -qe)
    q_log = qm.bit_length() - 1 + qe
    # float estimates, which only affect tightness: log2 T_m, the largest
    # term at m_peak ~ (sqrt(nu^2 + x^2) - nu) / 2, and F = its log2 - w
    ln_half = log(man) + (exp - 1) * log(2)
    cut = max(0, man.bit_length() - 53)
    x_float = ldexp(man >> cut, exp + cut)
    m_peak = int((sqrt(nu * nu + x_float**2) - nu) / 2)

    def log2_term(m: int) -> float:
        return ((2 * m + nu) * ln_half - lgamma(m + 1) - lgamma(m + nu + 1)) / log(2)

    f = int(log2_term(m_peak)) - w
    # head start: the largest m0 <= m_peak with m0 T_m0 below a quarter
    # unit by the estimate, kept only if m0 (m0 + nu) <= (x/2)^2 exactly:
    # then no term falls before m0, and the head sums to at most m0 T_m0
    m0 = 0
    if log2_term(0) < f - 2:
        lo, hi = 0, m_peak
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if log2_term(mid) + log2(mid + 1) < f - 2:
                lo = mid
            else:
                hi = mid
        if lo * (lo + nu) * q_den <= q_num:
            m0 = lo
    t0, u, e = _term_bounds(nu, man, exp, m0, v)
    t = t0
    k = e - f  # the current term is t * 2^(f + k)
    s = t << k if k >= 0 else t >> -k
    head = m0 * u << k if k >= 0 else -(-m0 * u >> -k)
    decaying = False
    for m in range(m0 + 1, limit):
        t = t * qm // (m * (m + nu))
        k += qe
        excess = t.bit_length() - v
        t >>= excess
        k += excess
        s += t << k if k >= 0 else t >> -k
        # the next term is this one, T = t 2^k units, times r = Q/d; r
        # only falls with m, so once r < 1 the tail is at most
        # T r/(1 - r) = T Q/(d - Q).  Stop once that is below one unit,
        # T Q < d - Q, tested exactly after a bit-length screen for T Q < d
        d = (m + 1) * (m + nu + 1)
        decaying = decaying or q_num < d * q_den
        if decaying and k + t.bit_length() + q_log <= d.bit_length():
            if t * q_num << max(k, 0) < d * q_den - q_num << max(-k, 0):
                # n terms, each floored into s (under a unit each) after
                # n - 1 steps that keep a factor >= 1 - 2^(2-v) of the
                # exact ratio: T_j <= (t_j 2^k_j) (u/t0) / (1 - n 2^(2-v))
                # for every summed j, and the tail is under one such unit
                n = m - m0 + 1
                s_hi = -(-((s + n + 1) * u << v) // (t0 * ((1 << v) - 4 * n)))
                return s, s_hi + head, f
    raise RuntimeError("bessel series failed to converge within %d terms" % limit)


def bessel_i(nu: int, z, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of I_nu(z) for z >= 0 by the ascending series

        I_nu(z) = sum_m (z/2)^(2m + nu) / (m! (m + nu)!).

    Every term is positive and increasing in z, so a lower bound at z's low
    end and an upper bound at its high end enclose I_nu over all of z; a
    point z takes one pass of the series, an enclosure one at each end.

    A pass runs in Python integers, with w = prec + guard bits, guard
    being log2 of the term count plus 6.  A term is a mantissa T of
    v = w + 8 bits and an exponent.  Since each end of z has an integer
    mantissa, Q = (z/2)^2 is exact, and the next term is
    T Q // (m (m + nu)), renormalised to v bits, always rounded down.
    The terms add into one fixed-point integer S whose unit 2^F sits
    w bits below the largest term; S is a lower bound at any truncation.  The pass starts at the
    first term m0 after a head worth under a quarter unit (m0 = 4233 at
    z = 10^4 and 144 bits), enclosing T_m0 = [t0, u] 2^e directly.  The
    ratio r = Q/((m+1)(m+nu+1)) of the next term to the current one only
    falls with m, so once r < 1 the tail after a term T is at most
    T r/(1 - r); the pass stops at the first term where that bound, an
    exact integer test, is below one unit (m = 5775 at z = 10^4).

    The same pass bounds the sum from above.  Each step floors twice and
    keeps a factor of at least 1 - 2^(2-v) of the exact ratio, so after
    n terms every summed term is at most u/t0 / (1 - n 2^(2-v)) times its
    computed value; S + n + 1 units cover the summed terms, their
    flooring and the tail, and the head adds at most m0 u 2^e, all in
    integer arithmetic.  The guard bits keep n 2^(2-v) below 2^(-prec-9).
    Each end is rounded to ``prec`` bits by the interval kernel, down for
    the lower and up for the upper.  F, m0 and guard set the tightness
    only, never the direction of any rounding.
    """
    if nu < 0:
        raise ValueError("nu must be a nonnegative integer")
    z_iv = to_interval(z, prec)
    lo_man, lo_exp, hi_man, hi_exp = z_iv.dyadic_ends
    if lo_man < 0:
        raise ValueError("bessel_i requires z >= 0")
    terms = int(float(z_iv.hi_fraction())) + prec + nu + 16
    w = prec + terms.bit_length() + 6
    s_lo, s_hi, f = _series_bounds(nu, lo_man, lo_exp, w, 8 * terms)
    f_hi = f
    if (hi_man, hi_exp) != (lo_man, lo_exp):
        _, s_hi, f_hi = _series_bounds(nu, hi_man, hi_exp, w, 8 * terms)
    return from_dyadic(s_lo, f, s_hi, f_hi, prec)


def i2_scaled_main(z, prec: Optional[int] = None) -> IntervalReal:
    """Five-term main part of I_2(z) e^{-z} sqrt(2 pi z) for large z:

        1 - 15/(8z) + 105/(128 z^2) + 315/(1024 z^3)
          + 10395/(32768 z^4) + 135135/(262144 z^5).
    """
    z_iv = to_interval(z, prec or DEFAULT_PREC)
    if z_iv.lo_fraction() <= 0:
        raise ValueError("main part needs z > 0")
    p = prec or z_iv.prec
    u = 1 / z_iv.at(p)
    # Horner in 1/z with exact rational coefficients
    acc = to_interval(Fraction(135135, 262144), p)
    for c in (
        Fraction(10395, 32768),
        Fraction(315, 1024),
        Fraction(105, 128),
        Fraction(-15, 8),
        Fraction(1),
    ):
        acc = acc * u + c
    return acc


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
    of the term count plus 6), which keep the rounding of its one pass
    under 2^-(prec + 4) relative, and rounds each bound to prec bits once.
    At z = 10^4 this is 144 bits.
    """
    z_hi = float(to_interval(z, 64).hi_fraction())
    return int(ceil(6 * log2(z_hi))) + 64


def remainder_precisions(z, prec: Optional[int] = None) -> list[int]:
    """The precisions a remainder check at z tries, in order.

    An explicit ``prec`` is the only attempt.  With prec None the check
    starts at :func:`auto_prec` and doubles while the margin straddles 0,
    up to a cap of ceil(1.45 z) + 64 bits, at which the last attempt is
    made.
    """
    if prec is not None:
        return [prec]
    cap = int(ceil(1.45 * float(to_interval(z, 64).hi_fraction()))) + 64
    schedule = [min(auto_prec(z), cap)]
    while schedule[-1] < cap:
        schedule.append(min(2 * schedule[-1], cap))
    return schedule


def scaled_i2(z, prec: int) -> IntervalReal:
    """Enclosure of I_2(z) e^{-z} sqrt(2 pi z), evaluated as a product."""
    z_iv = to_interval(z, prec)
    zz = z_iv.at(prec)
    return bessel_i(2, z_iv, prec) * (-zz).exp() * (2 * pi_interval(prec) * zz).sqrt()


def bessel_remainder_margin(z, prec: Optional[int] = None) -> IntervalReal:
    """Margin 73/z^6 - |I_2(z) e^{-z} sqrt(2 pi z) - main part|.

    The remainder claim holds at z iff the returned enclosure is
    provably positive (its low end > 0).  Requires z >= (15/2)^6 / 120.
    The precisions tried are those of :func:`remainder_precisions`; the
    first margin that does not straddle 0, or the last one, is returned,
    and its ``prec`` says which attempt that was.

    z may be an enclosure.  At z = sqrt(alpha_k) t the claim is the
    paper's envelope pair phi(t) <= I_2(z) e^{-z} sqrt(2 pi z) <= Phi(t),
    phi and Phi being the main part minus and plus g6/t^6 = 73/z^6.  A z of
    nonzero width bounds the margin's width: attempts stop once one reaches z.prec.
    """
    z_iv = to_interval(z, 64)
    if z_iv.lo_fraction() < Z_REMAINDER_MIN:
        raise ValueError(
            "remainder bound is only claimed for z >= (15/2)^6/120 = %s"
            % float(Z_REMAINDER_MIN)
        )
    last = z.prec if isinstance(z, IntervalReal) and z.width else None
    for p in remainder_precisions(z_iv, prec):
        z_p = to_interval(z, p)
        err = scaled_i2(z_p, p) - i2_scaled_main(z_p, p)
        margin = 73 / z_p.at(p)**6 - abs(err)
        if not margin.straddles_zero() or (last and p >= last):
            break
    return margin


def margin_outcome(margin: IntervalReal) -> CheckOutcome:
    """PASS when the margin is provably positive, FAIL when provably
    negative, INCONCLUSIVE when its enclosure straddles 0."""
    if margin.lo_fraction() > 0:
        return CheckOutcome.PASS
    if margin.hi_fraction() < 0:
        return CheckOutcome.FAIL
    return CheckOutcome.INCONCLUSIVE


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
    zz = z_iv.at(prec)
    sqrt2 = to_interval(2, prec).sqrt()
    sqrt_pi = pi_interval(prec).sqrt()
    sqrt_z = zz.sqrt()
    exp_neg_z = (-zz).exp()

    # Gamma(nu + 1/2) = (2 nu - 1)!! sqrt(pi) / 2^nu, exact up to sqrt(pi)
    dfact = 1
    for i in range(1, 2 * nu, 2):
        dfact *= i
    gamma_nu_half = Fraction(dfact, 2**nu) * sqrt_pi

    # binomial C(nu - 1/2, i) is an exact rational for integer nu
    binom_sum = to_interval(0, prec)
    for i in range(6):
        b = Fraction(1)
        for j in range(i):
            b *= Fraction(2 * nu - 1 - 2 * j, 2)
        b /= factorial(i)
        binom_sum = binom_sum + to_interval(abs(b), prec) / 2**i
    z_pow_nu = zz**nu
    t1 = Fraction(52, 17) * exp_neg_z / gamma_nu_half * binom_sum * z_pow_nu / sqrt_z

    two_pow = Fraction(2**nu) / sqrt2  # 2^(nu - 1/2)
    t2 = exp_neg_z * z_pow_nu * sqrt_z / (two_pow * gamma_nu_half)

    product = Fraction(1)
    for j in (1, 3, 5, 7, 9, 11):
        product *= Fraction(4 * nu * nu - j * j, 4)
    cap = 1 if nu <= 6 else Fraction(2 ** (nu - 7)) * sqrt2
    t3 = abs(product) / 720 / (two_pow * zz**6) * cap
    return t1, t2, t3


def general_remainder_bound(nu: int, z, prec: int = DEFAULT_PREC) -> IntervalReal:
    t1, t2, t3 = general_remainder_terms(nu, z, prec)
    return t1 + t2 + t3


# ---------------------------------------------------------------------------
# Main term and its sandwiches
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def main_term(k: int, n: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """M_k(n) = alpha_k pi^3 / (18 x^2) * I_2(sqrt(alpha_k) x) at x = x_k(n).

    Memoized: Lambda(n) needs M(n-1), M(n) and M(n+1), so a scan over
    consecutive n asks for each value three times.
    """
    x = x_param(k, n, prec)
    bessel = bessel_i(2, sqrt_rational_interval(alpha(k), prec) * x, prec)
    return alpha(k) * pi_interval(prec)**3 / (18 * x**2) * bessel


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
    m_val = main_term(k, n, prec)
    corr = x ** (-6)
    return between(m_val * (1 - corr), table.coeffs[n], m_val * (1 + corr), strict=False)


def lambda_exact(k: int, n: int, prec: int = DEFAULT_PREC) -> IntervalReal:
    """Enclosure of M(n-1) M(n+1) / M(n)^2 from Bessel evaluations."""
    if n < 2:
        raise ValueError("lambda needs n >= 2 so that x_k(n-1) is defined")
    num = main_term(k, n - 1, prec) * main_term(k, n + 1, prec)
    return num / main_term(k, n, prec) ** 2


class RatioBounds(NamedTuple):
    """Closed-form bounds in 1/x for Lambda and Theta at one n."""

    lambda_lo: IntervalReal
    lambda_hi: IntervalReal
    theta_lo: IntervalReal
    theta_hi: IntervalReal
    theta_valid: bool  # size parameter >= 315


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
    x = x_param(k, n, prec)
    ra = sqrt_rational_interval(a, prec)
    pi4 = pi_interval(prec)**4
    pi8 = pi4 * pi4
    u = 1 / x

    a_hi = 1 + 5 * pi4 / 9 * u**4 + pi8 / 3 * u**8
    b_hi = 1 - ra * pi4 / 9 * u**3 + a / 81 * pi8 * u**6
    c_hi = 1 - Fraction(5, 8) * pi4 / ra * u**5 + 292 / a**3 * u**6
    lam_hi = a_hi * b_hi * c_hi

    a_lo = 1 + 5 * pi4 / 9 * u**4 + Fraction(5, 18) * pi8 * u**8
    b_lo = 1 - ra * pi4 / 9 * u**3 - Fraction(5, 162) * ra * pi8 * u**7
    c_lo = (
        1
        - Fraction(5, 8) * pi4 / ra * u**5
        - Fraction(5, 6) / a * pi4 * u**6
        - 300 / a**3 * u**6
    )
    lam_lo = a_lo * b_lo * c_lo

    common = (
        1
        - pi4 * ra / 9 * u**3
        + 5 * pi4 / 9 * u**4
        - Fraction(5, 8) * pi4 / ra * u**5
    )
    th_lo = common + (-300 / a**3 - 10 - Fraction(5, 6) / a * pi4) * u**6
    th_hi = common + (a / 81 * pi8 + (292 / a**3 + 5)) * u**6

    return RatioBounds(
        lambda_lo=lam_lo,
        lambda_hi=lam_hi,
        theta_lo=th_lo,
        theta_hi=th_hi,
        theta_valid=x.lo_fraction() >= X_THETA_VALID,
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
    x = x_param(k, n, prec)
    shift = 2 * pi_interval(prec)**2 / 3
    low_sq = x**2 - shift
    if low_sq.lo_fraction() <= 0:
        raise ValueError("x(n-1)^2 enclosure not positive; n too small")
    xm6 = low_sq.sqrt() ** (-6)
    xp6 = (x**2 + shift).sqrt() ** (-6)
    x6 = x ** (-6)
    g = (1 - xm6) * (1 - xp6) / (1 + x6) ** 2
    big_g = (1 + xm6) * (1 + xp6) / (1 - x6) ** 2
    return g, big_g


class SandwichResult(NamedTuple):
    """Outcome of one Lambda g <= Theta <= Lambda G comparison, with the
    enclosures it compared (None below the validity threshold)."""

    outcome: CheckOutcome
    theta: Optional[Fraction] = None
    lower: Optional[IntervalReal] = None
    upper: Optional[IntervalReal] = None
    g: Optional[IntervalReal] = None
    big_g: Optional[IntervalReal] = None


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
        return SandwichResult(CheckOutcome.HYPOTHESIS_NOT_MET)
    lam = lambda_exact(k, n, prec)
    g, big_g = tail_factors(k, n, prec)
    lower, upper = lam * g, lam * big_g
    th = theta_exact(table, n)
    outcome = between(lower, th, upper, strict=False)
    return SandwichResult(outcome, th, lower, upper, g, big_g)
