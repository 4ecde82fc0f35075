"""Certification of polynomial positivity on rays.

A polynomial is a :class:`PolyQ`, whose coefficients are exact rational
combinations of powers of pi, so that a difference such as phi - psi
cancels exactly, or a plain coefficient list whose entries may also be
:class:`~bkd.intervals.IntervalReal` enclosures, such as sqrt(alpha_k).
A certificate encloses each coefficient once at a working precision
``prec`` (pi from :func:`~bkd.intervals.pi_interval`) and runs on
``IntervalReal``: every decision holds for every value in those
enclosures, or is reported as :class:`Inconclusive` so the caller can
raise the precision.  Sturm chains and hyperbolicity stay in exact
rational arithmetic and take rational polynomials only.

Certification methods:

* Taylor shift (:func:`certify_positive_on_ray`): the enclosures of the
  coefficients of p(x0 + y) all have nonnegative lower ends and the
  constant term's lower end is positive, so p > 0 on [x0, oo) for every
  value of the coefficients in their enclosures (Descartes' rule with no
  sign variation; Collins & Akritas, SYMSAC 1976).  Refutations are
  points where the enclosure of p lies below zero; Sturm counts of a
  rational polynomial, or of the coefficient midpoints, only choose
  where to look for them.
* Hyperbolicity: the leading-coefficient signs of one reduced subresultant
  chain of p and p', with the Sturm chain of p as its fallback
  (:func:`is_hyperbolic`).
"""

from __future__ import annotations

from decimal import Context
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .intervals import IntervalReal, pi_interval, to_interval
from .report import FrozenRecord, Record

__all__ = [
    "Inconclusive",
    "PolyQ",
    "PositivityCertificate",
    "RayRefutation",
    "sturm_count",
    "is_hyperbolic",
    "certify_positive_on_ray",
    "lemma_uv_check",
    "tau_positivity_check",
    "lemma_quadratic",
    "phi_poly",
    "psi_poly",
]

Rational = Union[int, Fraction]
DEFAULT_PREC = 256  # bits of a certificate's coefficient enclosures


class Inconclusive(Exception):
    """Neither a certificate nor a refutation was found: the enclosures
    are too wide, or the Taylor shift at x0 has a sign variation."""


# ---------------------------------------------------------------------------
# PolyQ
# ---------------------------------------------------------------------------

PiCoeff = tuple[tuple[int, Fraction], ...]  # ((pi_power, rational), ...)


def _norm_coeff(c) -> PiCoeff:
    if isinstance(c, dict):
        items = c.items()
    elif isinstance(c, (int, Fraction)):
        items = [(0, c)]
    else:
        items = c
    merged: dict[int, Fraction] = {}
    for power, r in items:
        if power < 0:
            raise ValueError("pi powers must be nonnegative integers")
        r = Fraction(r)
        if r:
            merged[power] = merged.get(power, Fraction(0)) + r
    return tuple(sorted((p, r) for p, r in merged.items() if r))


class PolyQ(FrozenRecord):
    """Dense univariate polynomial, ascending degree.

    Each coefficient is a finite sum of terms c * pi**e with c an exact
    rational and e a nonnegative integer; plain rational polynomials are
    the e = 0 case.  The trailing (highest-degree) coefficient is nonzero.
    A coefficient known only as an enclosure goes in a plain coefficient
    list instead (see :func:`certify_positive_on_ray`).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[PiCoeff, ...]) -> None:
        if coeffs and not coeffs[-1]:
            raise ValueError("trailing coefficient must be nonzero")
        self._set(coeffs=coeffs)

    @classmethod
    def make(cls, coeffs: Iterable) -> "PolyQ":
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def from_terms(cls, terms: dict[int, dict[int, Rational]]) -> "PolyQ":
        """Build from {degree: {pi_power: rational}}."""
        deg = max(terms) if terms else -1
        cs = [terms.get(i, {}) for i in range(deg + 1)]
        return cls.make(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def uses_pi(self) -> bool:
        return any(p != 0 for c in self.coeffs for p, _ in c)

    def __neg__(self) -> "PolyQ":
        return PolyQ.make([[(p, -r) for p, r in c] for c in self.coeffs])

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else ()
            b = other.coeffs[i] if i < len(other.coeffs) else ()
            cs.append(tuple(a) + tuple(b))
        return PolyQ.make(cs)

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def to_json_obj(self) -> dict:
        entries = []
        for deg, c in enumerate(self.coeffs):
            for p, r in c:
                entries.append(
                    {
                        "degree": deg,
                        "pi_power": p,
                        "numerator": str(r.numerator),
                        "denominator": str(r.denominator),
                    }
                )
        return {"degree": self.degree, "coefficients": entries}


def _as_fraction_list(p) -> Optional[list[Fraction]]:
    """Plain rational coefficient list, or None when p really needs pi or
    holds an enclosure."""
    if isinstance(p, PolyQ):
        if p.uses_pi():
            return None
        return [sum((r for _, r in c), Fraction(0)) for c in p.coeffs]
    if any(isinstance(c, IntervalReal) for c in p):
        return None
    return [Fraction(c) for c in p]


# ---------------------------------------------------------------------------
# Integer Sturm machinery
# ---------------------------------------------------------------------------

def _clear_denominators(coeffs: Sequence[Fraction]) -> list[int]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in coeffs]


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _content(p: Sequence[int]) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
    return g or 1


def _prim(p: Sequence[int]) -> list[int]:
    g = _content(p)
    return [c // g for c in p]


def _deriv(p: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _prem_neg(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive part of minus the pseudo-remainder of f by g.

    Only positive scalings of f are used, so the sign pattern needed by
    Sturm's theorem is preserved.
    """
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    sgn = 1 if lg > 0 else -1
    scale = abs(lg)
    while True:
        _trim(f)
        if len(f) - 1 < dg or not f:
            break
        lf = f[-1]
        sh = len(f) - 1 - dg
        f = [c * scale for c in f]
        for i, c in enumerate(g):
            f[sh + i] -= sgn * lf * c
        assert f[-1] == 0
        f.pop()
        f = _prim(_trim(f)) if any(f) else []
    return _prim([-c for c in f]) if f else []


def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """Signed remainder sequence of p and p', each member primitive; the
    last one is gcd(p, p') up to a constant factor."""
    chain = [_prim(p), _prim(_deriv(p))]
    while chain[-1] and len(chain[-1]) > 1:
        nxt = _prem_neg(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for a primitive g that divides f.  By Gauss's lemma the
    quotient has integer coefficients, so the long division stays in Z."""
    f = list(f)
    dg = len(g) - 1
    quo = [0] * (len(f) - dg)
    for sh in reversed(range(len(quo))):
        c = quo[sh] = f[sh + dg] // g[-1]
        for i, gc in enumerate(g):
            f[sh + i] -= c * gc
    if any(f):  # an inexact step leaves its coefficient behind
        raise AssertionError("polynomial division is inexact")
    return quo


def _sign_at(p: Sequence[int], x: Fraction) -> int:
    """Exact sign of p(x) at rational x = a/b via integer homogenization."""
    a, b = x.numerator, x.denominator
    d = len(p) - 1
    acc = 0
    for i, c in enumerate(p):
        acc += c * a**i * b ** (d - i)
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Optional[Fraction], side: int) -> int:
    """Number of sign variations of the chain at x; x = None means the
    infinity on ``side`` (-1 or +1).

    Zeros are dropped from the sign sequence, which makes V(a) - V(b)
    count distinct roots over the half-open interval (a, b].
    """
    signs = []
    for q in chain:
        if not q:
            continue
        if x is not None:
            s = _sign_at(q, x)
        else:
            lc = q[-1] if side > 0 or (len(q) - 1) % 2 == 0 else -q[-1]
            s = (lc > 0) - (lc < 0)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_between(chain: list[list[int]], lo: Optional[Fraction],
                   hi: Optional[Fraction]) -> int:
    """Roots in (lo, hi] of the squarefree polynomial whose Sturm chain
    is ``chain``; None endpoints are infinite.  With both endpoints
    infinite p need not be squarefree: the count is of its distinct real
    roots (Basu, Pollack & Roy, *Algorithms in Real Algebraic Geometry*,
    Thm 2.50)."""
    return _variations(chain, lo, -1) - _variations(chain, hi, +1)


def _prem_step(f: list[int], g: list[int]) -> list[int]:
    """lc(g)^2 f - q g, the pseudo-remainder of f by g when deg f = deg g + 1.

    The degree-1 quotient is eliminated one term at a time; the result
    has degree below deg g and may carry zero leading coefficients.
    """
    lg = g[-1]
    r = f
    for sh in (1, 0):
        lr = r[-1]
        r = [c * lg for c in r[:-1]]
        for i, c in enumerate(g[:-1]):
            r[sh + i] -= lr * c
    return r


def _regular_chain_verdict(p: list[int]) -> Optional[bool]:
    """Hyperbolicity of p from its reduced subresultant chain, or None.

    The chain is F0 = p, F1 = p', F(i+1) = -prem(F(i-1), F(i)) / lc(F(i-1))^2
    (no division at the first step).  While the degrees fall by one, the
    prem scaling is lc(F(i))^2 > 0 and the divisions are exact
    (Brown & Traub 1971), so every F is a positive multiple of the
    Sturm remainder.  A regular chain (degrees d, d-1, ..., 0) makes p
    squarefree, and p is hyperbolic iff every leading coefficient has the
    sign of lc(p).  None means a zero or degree-gapped remainder: p may
    have a repeated root, and the caller decides with p's Sturm chain.
    """
    positive = p[-1] > 0
    f, g = p, _deriv(p)
    div = 1
    while len(g) > 1:
        h = []
        for c in _prem_step(f, g):
            c, rem = divmod(-c, div)
            if rem:
                raise AssertionError("subresultant division by lc^2 is inexact")
            h.append(c)
        _trim(h)
        if len(h) != len(g) - 1:
            return None
        if (h[-1] > 0) != positive:
            # Over a regular prefix the chain is p's Sturm sequence up to
            # positive factors.  The Sturm sequence of p has at most m + 1
            # members when p has m distinct roots, and a sign change among
            # the leading coefficients makes V(+oo) >= 1, so at most m - 1
            # of those roots are real: p is not hyperbolic, whatever the
            # rest of the chain looks like.
            return False
        div = g[-1] ** 2
        f, g = g, h
    return True


def _sturm_hyperbolic(p: list[int]) -> bool:
    """Hyperbolicity of the primitive integer polynomial p from its Sturm
    chain: the chain ends in gcd(p, p'), so p has deg p - deg gcd
    distinct roots, and p is hyperbolic iff all of them are real.  The
    roots of the gcd are roots of p, so multiplicities need no recursion."""
    chain = _sturm_chain(p)
    return _count_between(chain, None, None) == len(p) - len(chain[-1])


def is_hyperbolic(coeffs: Sequence[Rational]) -> bool:
    """True iff all roots are real, counted with multiplicity.

    Decided from one reduced subresultant chain of p and p' when that
    chain is regular, which needs no gcd.  A zero or degree-gapped
    remainder (a repeated root, or a gap that only complex roots cause)
    falls back to the Sturm chain of p, which counts its distinct real
    roots and ends in gcd(p, p').
    """
    if all(type(c) is int for c in coeffs):
        p = _trim(list(coeffs))
    else:
        p = _trim(_clear_denominators([Fraction(c) for c in coeffs]))
    if len(p) <= 2:  # constants and linear polynomials
        return True
    p = _prim(p)
    verdict = _regular_chain_verdict(p)
    return _sturm_hyperbolic(p) if verdict is None else verdict


def _rational_chain(coeffs: Sequence[Fraction]) -> list[list[int]]:
    """Sturm chain of the squarefree part p / gcd(p, p') of a nonzero
    rational polynomial; the gcd is the last member of p's own chain,
    which is the answer when p is squarefree."""
    p = _trim(_clear_denominators(coeffs))
    if not p:
        raise ValueError("zero polynomial has no root count")
    chain = _sturm_chain(p)
    if len(chain[-1]) <= 1:  # p is squarefree
        return chain
    return _sturm_chain(_exact_div(chain[0], chain[-1]))


def sturm_count(
    p,
    a: Optional[Rational] = None,
    b: Optional[Rational] = None,
) -> int:
    """Distinct real roots of the rational polynomial p in (a, b]; None
    endpoints are infinite.  A :class:`PolyQ` with pi terms, or a list
    holding an ``IntervalReal``, is rejected."""
    plain = _as_fraction_list(p)
    if plain is None:
        raise ValueError("sturm_count takes rational polynomials; p has pi "
                         "terms or enclosures")
    return _count_between(
        _rational_chain(plain),
        None if a is None else Fraction(a),
        None if b is None else Fraction(b),
    )


# ---------------------------------------------------------------------------
# Ray positivity certificates
# ---------------------------------------------------------------------------

def _enclose(p, prec: int) -> list[IntervalReal]:
    """Each coefficient of p as an enclosure at ``prec`` bits: a term
    r pi^e of a :class:`PolyQ` as r times pi_interval(prec)^e, an int or
    Fraction through to_interval, an IntervalReal as it is."""
    if not isinstance(p, PolyQ):
        return [to_interval(c, prec) for c in p]
    pi, zero = pi_interval(prec), to_interval(0, prec)
    return [sum((pi**e * r for e, r in c), zero) for c in p.coeffs]


def _value(coeffs: Sequence[IntervalReal], x: Fraction, prec: int) -> IntervalReal:
    """Enclosure of p(x) by Horner's rule, with x enclosed at ``prec`` bits."""
    x_iv = to_interval(x, prec)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x_iv + c
    return acc


def _shift_witness(coeffs: Sequence[IntervalReal], x0: Fraction,
                   prec: int) -> Optional[dict]:
    """Witness of the Taylor-shift test at x0, or None when it fails.

    The coefficients of p(x0 + y) come from repeated synthetic division by
    y - x0, in O(d^2) interval operations.  The test passes when each has
    a nonnegative lower end and the constant term's lower end is
    positive: then p(x0 + y) >= p(x0) > 0 for every y >= 0 and every
    value of the coefficients in their enclosures.
    """
    x0_iv, shifted = to_interval(x0, prec), list(coeffs)
    for i in range(len(shifted) - 1):
        for j in reversed(range(i, len(shifted) - 1)):
            shifted[j] = shifted[j] + x0_iv * shifted[j + 1]
    lows = [c.lo_fraction() for c in shifted]
    if lows[0] <= 0 or min(lows) < 0:
        return None
    return {
        "prec": prec,
        "degree": len(lows) - 1,
        "constant_lo_approx": _approx(lows[0]),
        "min_lo_approx": _approx(min(lows)),
    }


def _approx(q: Fraction) -> str:
    """Seven significant digits of q, with no float overflow."""
    return format(Context(prec=7).divide(q.numerator, q.denominator), ".6e")


class PositivityCertificate(Record):
    """Witness that a polynomial is positive on [x0, oo) for every value of
    its coefficients in their enclosures at the witness's ``prec`` bits:
    the TAYLOR_SHIFT test of :func:`certify_positive_on_ray`, which
    :meth:`recheck` re-derives."""

    __slots__ = ("method", "threshold", "witness", "_poly")

    def __init__(self, method: str, threshold: Fraction, witness: dict,
                 _poly) -> None:
        self.method = method  # "TAYLOR_SHIFT"
        self.threshold, self.witness, self._poly = threshold, witness, _poly

    def to_json_obj(self) -> dict:
        return {
            "method": self.method,
            "x0": str(self.threshold),
            "witness": self.witness,
        }

    def recheck(self) -> bool:
        """Enclose the coefficients again at the witness's precision,
        re-derive the shifted coefficients and compare the witness."""
        prec = self.witness["prec"]
        coeffs = _enclose(self._poly, prec)
        return _shift_witness(coeffs, self.threshold, prec) == self.witness


class RayRefutation(Record):
    """A point x* >= x0 where the polynomial is provably negative."""

    __slots__ = ("point", "value_hi")

    def __init__(self, point: Fraction, value_hi: Fraction) -> None:
        self.point = point
        self.value_hi = value_hi  # certified upper bound on p(point); < 0

    def to_json_obj(self) -> dict:
        return {"refuted_at": str(self.point), "value_below": str(self.value_hi)}


def _root_magnitude_bound(coeffs: Sequence[Fraction]) -> Fraction:
    """Cauchy bound: every real root lies in [-B, B]."""
    return 1 + max((abs(c) for c in coeffs[:-1]), default=Fraction(0)) / abs(coeffs[-1])


def _probe_points(coeffs: list[Fraction], x0: Fraction) -> tuple[int, list[Fraction]]:
    """Distinct real roots beyond x0 of a rational polynomial, and the
    points past x0 that a bisection isolating them visits.

    The Sturm chain is built once; each step only counts sign variations.
    An interval is split until it holds a single root and is narrower
    than 1/1024.
    """
    chain = _rational_chain(coeffs)
    roots = _count_between(chain, x0, None)
    bound = max(_root_magnitude_bound(coeffs), x0 + 1)
    points = {bound + 1}
    stack = [(x0, bound, roots)] if roots else []
    while stack:
        lo, hi, cnt = stack.pop()
        mid = (lo + hi) / 2
        points.add(mid)
        if cnt == 1 and hi - lo < Fraction(1, 1024):
            continue
        left = _count_between(chain, lo, mid)
        if left:
            stack.append((lo, mid, left))
        if cnt - left:
            stack.append((mid, hi, cnt - left))
    return roots, sorted(points)


def certify_positive_on_ray(p, x0: Rational, prec: int = DEFAULT_PREC):
    """Certify p > 0 on [x0, oo), or exhibit a refutation point.

    p is a :class:`PolyQ` or an ascending coefficient list of ints,
    Fractions and :class:`~bkd.intervals.IntervalReal` enclosures.  Each
    coefficient is enclosed once, at ``prec`` bits, and those enclosures
    serve every step, so a verdict holds for every value of the
    coefficients in them.

    Returns a :class:`RayRefutation` when the enclosure of p(x0) lies
    below zero, else a :class:`PositivityCertificate` when the Taylor
    shift test at x0 passes.  Otherwise it looks for a point past x0
    where p is provably negative: walking out when the leading
    coefficient is negative, else probing around the real roots beyond
    x0, isolated by Sturm counts of p, or of the midpoints of its
    coefficient enclosures when p is not rational.

    Raises :class:`Inconclusive` when neither is found: the enclosures
    are too wide for ``prec``, or a rational p has no real root beyond x0
    and still fails the shift test.  Raises ValueError when a rational p
    has p(x0) = 0, or has roots beyond x0 but never dips negative
    (even-order contact): strict positivity is false, yet no point
    refutes it.
    """
    if not isinstance(p, PolyQ):
        p = list(p)
        if not any(isinstance(c, IntervalReal) for c in p):
            p = PolyQ.make(p)
    exact = _as_fraction_list(p)
    coeffs = _enclose(p, prec)
    if not coeffs:
        raise ValueError("zero polynomial")
    x0 = Fraction(x0)
    v0 = _value(coeffs, x0, prec)
    if v0.hi_fraction() < 0:
        return RayRefutation(point=x0, value_hi=v0.hi_fraction())
    if exact is not None and not sum(c * x0**i for i, c in enumerate(exact)):
        raise ValueError(
            "p(x0) = 0 exactly: strict positivity fails at the threshold itself"
        )
    witness = _shift_witness(coeffs, x0, prec)
    if witness is not None:
        return PositivityCertificate("TAYLOR_SHIFT", x0, witness, p)

    lead = coeffs[-1]
    if lead.hi_fraction() < 0:  # eventually negative: walk out
        points = [x0 + 2**e for e in range(512)]
    elif lead.lo_fraction() <= 0:
        raise Inconclusive("leading coefficient sign undecided; raise prec")
    elif exact is None:
        # the midpoints only choose where to look; a refutation is still
        # an enclosure of p below zero
        _, points = _probe_points([c.mid for c in coeffs], x0)
    else:
        roots, points = _probe_points(exact, x0)
        if roots == 0:
            raise Inconclusive(
                "p has no real root beyond x0, but p(x0 + y) has a negative "
                "coefficient: the shift test does not certify it"
            )
    for x in points:
        v = _value(coeffs, x, prec)
        if v.hi_fraction() < 0:
            return RayRefutation(point=x, value_hi=v.hi_fraction())
    if exact is None or lead.hi_fraction() < 0:
        raise Inconclusive(
            "the shift test fails and no probe is provably negative over the "
            "whole coefficient enclosures; raise prec"
        )
    raise ValueError(
        "polynomial has roots beyond x0 but never provably dips negative "
        "(even-order contact); strict positivity on the ray is false at the "
        "root itself"
    )


# ---------------------------------------------------------------------------
# Scalar lemma checks (exact rational arithmetic throughout)
# ---------------------------------------------------------------------------

def lemma_uv_check(u: Rational, v: Rational) -> bool:
    """Implication check: u + sqrt((1-u)^3) > v  implies
    4(1-u)(1-v) - (1-uv)^2 > 0, on 15/16 <= u < v < 1.

    The hypothesis is decided exactly by comparing (v-u)^2 with (1-u)^3;
    the conclusion is a rational sign evaluation.  Returns True when the
    implication holds (vacuously or not).
    """
    u, v = Fraction(u), Fraction(v)
    if not (Fraction(15, 16) <= u < v < 1):
        raise ValueError("domain requires 15/16 <= u < v < 1")
    hypothesis = (1 - u) ** 3 > (v - u) ** 2
    if not hypothesis:
        return True
    conclusion = 4 * (1 - u) * (1 - v) - (1 - u * v) ** 2
    return conclusion > 0


def lemma_quadratic(u: Rational) -> PolyQ:
    """The quadratic f(t) = -u^2 t^2 + (6u - 4) t + (3 - 4u)."""
    u = Fraction(u)
    return PolyQ.make([3 - 4 * u, 6 * u - 4, -(u**2)])


def tau_positivity_check(samples: Iterable[Rational]) -> bool:
    """Verify the substitution tail is positive at each s in (0, 1/4].

    The only sign that matters is -2s + sqrt(5) - 1 > 0, decided exactly
    by squaring: sqrt(5) > 2s + 1  iff  5 > (2s + 1)^2 (both sides are
    positive on the domain); the remaining factors are visibly positive.
    """
    for s in samples:
        s = Fraction(s)
        if not (0 < s <= Fraction(1, 4)):
            raise ValueError("samples must lie in (0, 1/4]")
        if not (2 * s + 1) ** 2 < 5:
            return False
    return True


# ---------------------------------------------------------------------------
# Built-in tail polynomials of the neighbor-correction estimates
# ---------------------------------------------------------------------------

def phi_poly() -> PolyQ:
    """Numerator polynomial of g_k(n) - (1 - 5/x^6), in x = x_k(n)."""
    return PolyQ.from_terms(
        {
            24: {0: 729},
            20: {4: -4860},
            18: {0: 7290},
            16: {8: 1296},
            14: {4: -8748},
            12: {12: -192, 0: 3645},
            10: {8: 3888},
            8: {4: -4860},
            6: {12: -576},
            4: {8: 2160},
            0: {12: -320},
        }
    )


def psi_poly() -> PolyQ:
    """Numerator polynomial of (1 + 5/x^6) - G_k(n), in x = x_k(n)."""
    return PolyQ.from_terms(
        {
            24: {0: 729},
            20: {4: -4860},
            18: {0: -7290},
            16: {8: 1296},
            14: {4: 8748},
            12: {12: -192, 0: 3645},
            10: {8: -3888},
            8: {4: -4860},
            6: {12: 576},
            4: {8: 2160},
            0: {12: -320},
        }
    )
