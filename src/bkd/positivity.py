"""Exact certification of polynomial positivity on rays.

Everything here is rational arithmetic: polynomials carry exact
``Fraction`` coefficients, optionally as rational combinations of powers
of pi.  Transcendental constants enter only through rational enclosure
pairs (lo, hi) (mpmath is imported only when :func:`pi_bounds` runs), and
every decision either holds for the whole enclosure or is reported as
:class:`Inconclusive` so the caller can tighten it.

Certification methods:

* Sturm counts: zero real roots beyond a threshold plus a positive value
  at the threshold certify positivity on the ray.
* Hyperbolicity: the leading-coefficient signs of one reduced subresultant
  chain of p and p', with a Sturm/gcd fallback (:func:`is_hyperbolic`).
* Coefficient domination: every low-order coefficient is bounded by a
  pivot term, and the few leading terms beat ``count`` copies of the
  pivot from some threshold on; the threshold is certified by a Taylor
  shift with nonnegative shifted coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "Inconclusive",
    "PolyQ",
    "PositivityCertificate",
    "RayRefutation",
    "pi_bounds",
    "sqrt_bounds",
    "sturm_count",
    "count_real_roots",
    "is_hyperbolic",
    "certify_positive_on_ray",
    "domination_threshold",
    "lemma_uv_check",
    "tau_positivity_check",
    "lemma_quadratic",
    "phi_poly",
    "psi_poly",
]

Rational = Union[int, Fraction]
QPair = tuple[Fraction, Fraction]


class Inconclusive(Exception):
    """A sign/count could not be decided from the given enclosures."""


# ---------------------------------------------------------------------------
# Rational enclosures of the constants we need
# ---------------------------------------------------------------------------

def _raw_to_fraction(raw) -> Fraction:
    from mpmath.libmp import to_rational

    p, q = to_rational(raw)
    return Fraction(int(p), int(q))  # gmpy2 mpz must not leak into Fraction


def pi_bounds(bits: int = 256) -> QPair:
    """Rational pair (lo, hi) with lo < pi < hi and ~``bits`` agreement."""
    from mpmath.libmp import mpf_pi, round_ceiling, round_floor

    lo = _raw_to_fraction(mpf_pi(bits, round_floor))
    hi = _raw_to_fraction(mpf_pi(bits, round_ceiling))
    if lo == hi:  # directed rounding landed on the same float; widen
        ulp = Fraction(1, 1 << bits)
        lo, hi = lo - ulp, hi + ulp
    return lo, hi


def sqrt_bounds(x: Rational, bits: int = 256) -> QPair:
    """Rational pair enclosing sqrt(x) for x >= 0, via integer isqrt."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q; scale so the isqrt has ~bits significant bits
    m = p * q
    shift = max(0, 2 * bits - m.bit_length())
    shift += shift & 1
    i = isqrt(m << shift)
    den = q << (shift // 2)
    lo = Fraction(i, den)
    hi = Fraction(i + 1, den)
    return lo, hi


def as_qpair(x) -> QPair:
    """Coerce an exact rational or a (lo, hi) pair to a rational interval."""
    if isinstance(x, tuple):
        lo, hi = Fraction(x[0]), Fraction(x[1])
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return lo, hi
    v = Fraction(x)
    return v, v


def q_add(a: QPair, b: QPair) -> QPair:
    return a[0] + b[0], a[1] + b[1]


def q_mul(a: QPair, b: QPair) -> QPair:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def q_pow(a: QPair, n: int) -> QPair:
    if n == 0:
        return Fraction(1), Fraction(1)
    r = a
    for _ in range(n - 1):
        r = q_mul(r, a)
    return r


def q_scale(a: QPair, c: Rational) -> QPair:
    c = Fraction(c)
    if c >= 0:
        return a[0] * c, a[1] * c
    return a[1] * c, a[0] * c


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


@dataclass(frozen=True)
class PolyQ:
    """Dense univariate polynomial, ascending degree.

    Each coefficient is a finite sum of terms c * pi**e with c an exact
    rational and e a nonnegative integer; plain rational polynomials are
    the e = 0 case.  The trailing (highest-degree) coefficient is nonzero.
    """

    coeffs: tuple[PiCoeff, ...]

    def __post_init__(self) -> None:
        if self.coeffs and not self.coeffs[-1]:
            raise ValueError("trailing coefficient must be nonzero")

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

    def substitute_pi(self, rho: Rational) -> list[Fraction]:
        """Plain rational coefficient list with pi replaced by ``rho``."""
        rho = Fraction(rho)
        return [sum((r * rho**p for p, r in c), Fraction(0)) for c in self.coeffs]

    def coeff_bounds(self, pi_pair: QPair) -> list[QPair]:
        out = []
        for c in self.coeffs:
            acc = (Fraction(0), Fraction(0))
            for p, r in c:
                acc = q_add(acc, q_scale(q_pow(pi_pair, p), r))
            out.append(acc)
        return out

    def eval_bounds(self, x: Rational, pi_pair: QPair) -> QPair:
        """Rigorous rational enclosure of p(x) for exact rational x."""
        x = Fraction(x)
        acc = (Fraction(0), Fraction(0))
        for cb in reversed(self.coeff_bounds(pi_pair)):
            acc = q_add(q_scale(acc, x), cb)
        return acc

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
    """Plain rational coefficient list, or None when p really needs pi."""
    if isinstance(p, PolyQ):
        if p.uses_pi():
            return None
        return [sum((r for _, r in c), Fraction(0)) for c in p.coeffs]
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
    chain = [_prim(p), _prim(_deriv(p))]
    while chain[-1] and len(chain[-1]) > 1:
        nxt = _prem_neg(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _poly_gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    f, g = _prim(list(f)), _prim(list(g))
    while g and len(g) > 1:
        f, g = g, _prem_neg(f, g)
    if g:  # nonzero constant remainder: coprime
        return [1]
    return f


def _exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f // g assuming the division is exact, primitive output."""
    fq = [Fraction(c) for c in f]
    gq = [Fraction(c) for c in g]
    quo = [Fraction(0)] * (len(fq) - len(gq) + 1)
    while True:
        while fq and fq[-1] == 0:
            fq.pop()
        if len(fq) < len(gq) or not fq:
            break
        c = fq[-1] / gq[-1]
        sh = len(fq) - len(gq)
        quo[sh] = c
        for i, gc in enumerate(gq):
            fq[sh + i] -= c * gc
    return _prim(_clear_denominators(quo))


def _sign_at(p: Sequence[int], x: Fraction) -> int:
    """Exact sign of p(x) at rational x = a/b via integer homogenization."""
    a, b = x.numerator, x.denominator
    d = len(p) - 1
    acc = 0
    for i, c in enumerate(p):
        acc += c * a**i * b ** (d - i)
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Optional[Fraction], at: int = 0) -> int:
    """Number of sign variations of the chain at x; at=-1/+1 means -inf/+inf.

    Zeros are dropped from the sign sequence, which makes V(a) - V(b)
    count distinct roots over the half-open interval (a, b].
    """
    signs = []
    for q in chain:
        if not q:
            continue
        if at > 0:
            s = (q[-1] > 0) - (q[-1] < 0)
        elif at < 0:
            lc = q[-1] if (len(q) - 1) % 2 == 0 else -q[-1]
            s = (lc > 0) - (lc < 0)
        else:
            s = _sign_at(q, x)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree_part(p: list[int]) -> list[int]:
    g = _poly_gcd(p, _deriv(p))
    if len(g) <= 1:
        return _prim(p)
    return _exact_div(p, g)


def _count_squarefree_roots(
    p: list[int], lo: Optional[Fraction], hi: Optional[Fraction]
) -> int:
    """Real roots of the squarefree integer polynomial p in (lo, hi]."""
    if len(p) <= 1:
        return 0
    chain = _sturm_chain(p)
    va = _variations(chain, lo, at=0 if lo is not None else -1)
    vb = _variations(chain, hi, at=0 if hi is not None else +1)
    return va - vb


def _count_int_roots(p: list[int], lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    """Distinct real roots of the integer polynomial p in (lo, hi]."""
    if not any(p):
        raise ValueError("zero polynomial has no root count")
    return _count_squarefree_roots(_squarefree_part(p), lo, hi)


def count_real_roots(
    coeffs: Sequence[Rational],
    lo: Optional[Rational] = None,
    hi: Optional[Rational] = None,
) -> int:
    """Distinct real roots of a rational polynomial in (lo, hi].

    ``None`` endpoints mean -infinity / +infinity respectively.
    """
    p = _clear_denominators([Fraction(c) for c in coeffs])
    return _count_int_roots(
        p,
        None if lo is None else Fraction(lo),
        None if hi is None else Fraction(hi),
    )


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
    have a repeated root, and the caller decides with the Sturm/gcd path.
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
    """Hyperbolicity of the primitive integer polynomial p from Sturm
    counts of its squarefree part and a recursion on gcd(p, p')."""
    g = _poly_gcd(p, _deriv(p))
    h = p if len(g) <= 1 else _exact_div(p, g)
    if _count_squarefree_roots(h, None, None) != len(h) - 1:
        return False
    return len(g) <= 1 or is_hyperbolic(g)


def is_hyperbolic(coeffs: Sequence[Rational]) -> bool:
    """True iff all roots are real, counted with multiplicity.

    Decided from one reduced subresultant chain of p and p' when that
    chain is regular, which needs no gcd.  A zero or degree-gapped
    remainder (a repeated root, or a gap that only complex roots cause)
    falls back to Sturm counts of the squarefree part plus a recursion
    on gcd(p, p').
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


def sturm_count(
    p,
    a: Optional[Rational] = None,
    b: Optional[Rational] = None,
    pi_bits: int = 256,
) -> int:
    """Distinct real roots of p in (a, b]; None endpoints are infinite.

    For polynomials whose coefficients involve powers of pi, the count is
    run at both endpoints of a rational pi enclosure; disagreement raises
    :class:`Inconclusive` and the caller should widen ``pi_bits``.
    """
    plain = _as_fraction_list(p)
    lo = None if a is None else Fraction(a)
    hi = None if b is None else Fraction(b)
    if plain is not None:
        return count_real_roots(plain, lo, hi)
    pi_lo, pi_hi = pi_bounds(pi_bits)
    n_lo = count_real_roots(p.substitute_pi(pi_lo), lo, hi)
    n_hi = count_real_roots(p.substitute_pi(pi_hi), lo, hi)
    if n_lo != n_hi:
        raise Inconclusive(
            "root counts differ across the pi enclosure (%d vs %d); "
            "tighten pi_bits" % (n_lo, n_hi)
        )
    return n_lo


# ---------------------------------------------------------------------------
# Ray positivity certificates
# ---------------------------------------------------------------------------

@dataclass
class PositivityCertificate:
    """Witness that a polynomial is positive on [x0, oo): a STURM
    certificate of :func:`certify_positive_on_ray`, which :meth:`recheck`
    re-derives, or the DOMINATION threshold of :func:`domination_threshold`."""

    method: str  # "STURM" or "DOMINATION"
    threshold: Fraction
    witness: dict
    _poly: Optional[PolyQ] = field(default=None, repr=False)

    def to_json_obj(self) -> dict:
        return {
            "method": self.method,
            "x0": str(self.threshold),
            "witness": self.witness,
        }

    def recheck(self) -> bool:
        """Re-derive the stored witness data from scratch."""
        if self.method != "STURM" or self._poly is None:
            raise ValueError("recheck only supported for STURM certificates")
        pi_bits = self.witness["pi_bits"]
        n = sturm_count(self._poly, self.threshold, None, pi_bits=pi_bits)
        pi_pair = pi_bounds(pi_bits)
        v0 = self._poly.eval_bounds(self.threshold, pi_pair)
        return (
            n == self.witness["roots_beyond"]
            and (v0[0] > 0) == self.witness["value_positive"]
        )


@dataclass
class RayRefutation:
    """A point x* >= x0 where the polynomial is provably negative."""

    point: Fraction
    value_hi: Fraction  # certified upper bound on p(point); < 0

    def to_json_obj(self) -> dict:
        return {"refuted_at": str(self.point), "value_below": str(self.value_hi)}


def _root_magnitude_bound(cb: list[QPair]) -> Fraction:
    """Cauchy-style bound: all real roots lie in [-B, B]."""
    lead_lo = cb[-1][0]
    if lead_lo <= 0:
        raise Inconclusive("leading coefficient enclosure is not positive")
    worst = max(max(abs(lo), abs(hi)) for lo, hi in cb[:-1]) if len(cb) > 1 else Fraction(0)
    return 1 + worst / lead_lo


def certify_positive_on_ray(p, x0: Rational, pi_bits: int = 256):
    """Certify p > 0 on [x0, oo), or exhibit a refutation point.

    Returns a :class:`PositivityCertificate` (Sturm method: no roots in
    (x0, oo) and p(x0) > 0) or a :class:`RayRefutation` carrying a point
    where p is provably negative.  Raises :class:`Inconclusive` when the
    pi enclosure is too loose to decide, and ValueError when p touches
    zero on the ray without crossing (neither certificate nor refutation
    exists for strict positivity).
    """
    if not isinstance(p, PolyQ):
        p = PolyQ.make(list(p))
    x0 = Fraction(x0)
    pi_pair = pi_bounds(pi_bits)
    cb = p.coeff_bounds(pi_pair)
    if not cb:
        raise ValueError("zero polynomial")

    lead_lo, lead_hi = cb[-1]
    if lead_hi < 0 or (p.degree == 0 and lead_hi <= 0):
        # eventually negative: walk out until provably below zero
        x = x0 + 1
        for _ in range(512):
            v = p.eval_bounds(x, pi_pair)
            if v[1] < 0:
                return RayRefutation(point=x, value_hi=v[1])
            x *= 2
        raise Inconclusive("could not locate a provably negative point")
    if lead_lo <= 0:
        raise Inconclusive("leading coefficient sign undecided; tighten pi_bits")

    v0 = p.eval_bounds(x0, pi_pair)
    if v0 == (0, 0):
        raise ValueError(
            "p(x0) = 0 exactly: strict positivity fails at the threshold itself"
        )
    roots_beyond = sturm_count(p, x0, None, pi_bits=pi_bits)
    if roots_beyond == 0 and v0[0] > 0:
        witness = {
            "pi_bits": pi_bits,
            "roots_beyond": roots_beyond,
            "value_positive": True,
            "value_at_x0_approx": "%.6e" % float(v0[0]),
        }
        return PositivityCertificate(
            method="STURM", threshold=x0, witness=witness, _poly=p
        )
    if roots_beyond == 0 and v0[1] < 0:
        # no crossing beyond x0 but negative at x0: negative on the whole ray
        return RayRefutation(point=x0, value_hi=v0[1])
    if roots_beyond == 0:
        raise Inconclusive("sign of p(x0) undecided; tighten pi_bits")

    # roots beyond x0: isolate them and probe the gaps for a negative value
    bound = max(_root_magnitude_bound(cb), x0 + 1)
    points = [x0, bound + 1]
    stack = [(x0, bound, roots_beyond)]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        mid = (lo + hi) / 2
        points.append(mid)
        if hi - lo < Fraction(1, 1024):
            continue
        left = sturm_count(p, lo, mid, pi_bits=pi_bits)
        if left:
            stack.append((lo, mid, left))
        if cnt - left:
            stack.append((mid, hi, cnt - left))
    for x in sorted(set(points)):
        if x < x0:
            continue
        v = p.eval_bounds(x, pi_pair)
        if v[1] < 0:
            return RayRefutation(point=x, value_hi=v[1])
    raise ValueError(
        "polynomial has roots beyond x0 but never provably dips negative "
        "(even-order contact); strict positivity on the ray is false at the "
        "root itself"
    )


# ---------------------------------------------------------------------------
# Coefficient domination
# ---------------------------------------------------------------------------

def _shifted_coeffs(terms: dict[int, QPair], shift: Fraction) -> list[QPair]:
    """Interval coefficients of q(shift + s) in s, for q = sum terms."""
    deg = max(terms)
    out = [(Fraction(0), Fraction(0))] * (deg + 1)
    for j, cj in terms.items():
        for i in range(j + 1):
            w = comb(j, i) * shift ** (j - i)
            out[i] = q_add(out[i], q_scale(cj, w))
    return out


def domination_threshold(
    low_bounds: Iterable[tuple[int, object]],
    pivot: int,
    pivot_bound,
    leading: Iterable[tuple[int, object]],
    count: Optional[int] = None,
    denom_bits: int = 10,
    hunt_limit: int = 1 << 64,
) -> PositivityCertificate:
    """Smallest certified threshold x* for the tail-domination argument.

    The certificate (method DOMINATION) states that for all x >= x*:
      (i)  bound_j * x^j <= pivot_bound * x^pivot for every dominated j,
      (ii) -count * pivot_bound * x^pivot + sum(leading terms) > 0,
    hence any polynomial whose low-order coefficients obey the given
    bounds and whose leading block matches is positive for x >= x*.

    ``low_bounds``  -- (index j, upper bound on |c_j|) for every j < pivot.
    ``pivot_bound`` -- exact magnitude of the pivot coefficient.
    ``leading``     -- (index j, signed exact coefficient) for j > pivot.
    ``count``       -- how many pivot copies the tail is charged with
                       (defaults to ``pivot``, i.e. indices 0..pivot-1).

    All coefficient inputs may be exact rationals or rational (lo, hi)
    enclosures.  The search runs on integers first, then refines to a
    dyadic rational with denominator at most 2**denom_bits.
    """
    lows = [(int(j), as_qpair(b)) for j, b in low_bounds]
    if any(j >= pivot for j, _ in lows):
        raise ValueError("dominated indices must lie below the pivot")
    if any(b[0] < 0 for _, b in lows):
        raise ValueError("coefficient bounds must be nonnegative")
    pivot_q = as_qpair(pivot_bound)
    if pivot_q[0] < 0:
        raise ValueError("pivot bound must be nonnegative")
    leads = {int(j): as_qpair(c) for j, c in leading}
    if any(j <= pivot for j in leads):
        raise ValueError("leading indices must lie above the pivot")
    if not leads:
        raise ValueError("leading block is empty")
    top = max(leads)
    if leads[top][0] <= 0 and pivot_q[1] > 0:
        raise ValueError("leading block has no positive dominant term")
    count = pivot if count is None else int(count)

    block = dict(leads)
    block[pivot] = q_scale(pivot_q, -count)

    def holds(x: Fraction) -> bool:
        # (i) pointwise domination; monotone in x, so one check suffices
        xp = x**pivot
        for j, bj in lows:
            if bj[1] * x**j > pivot_q[0] * xp:
                return False
        # (ii) leading block beats count pivot copies for ALL y >= x:
        # Taylor shift with nonnegative interval coefficients
        sc = _shifted_coeffs(block, x)
        if sc[0][0] <= 0:
            return False
        return all(c[0] >= 0 for c in sc[1:])

    # integer hunt then binary search for the least passing integer
    hi_i = 1
    while not holds(Fraction(hi_i)):
        hi_i *= 2
        if hi_i > hunt_limit:
            raise ValueError("no threshold found below the hunt limit; "
                             "leading block is not eventually dominant")
    lo_i = hi_i // 2 if hi_i > 1 else 0
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if holds(Fraction(mid)):
            hi_i = mid
        else:
            lo_i = mid
    x_star = Fraction(hi_i)
    # dyadic refinement below the integer threshold
    step = Fraction(1, 2)
    for _ in range(denom_bits):
        if x_star - step > lo_i and holds(x_star - step):
            x_star -= step
        step /= 2

    witness = {
        "pivot": pivot,
        "count": count,
        "pivot_bound_lo": str(pivot_q[0]),
        "leading_indices": sorted(leads),
        "dominated_indices": sorted(j for j, _ in lows),
        "shifted_nonnegative_at": str(x_star),
    }
    return PositivityCertificate(method="DOMINATION", threshold=x_star, witness=witness)


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
