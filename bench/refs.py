"""Independent references for the benchmark's output checks.

Nothing here imports ``bkd``.  The references are built from the
published definitions by a different route than the program takes:

* Delta_k(0..N) by sparse products.  The generating function
      (q^2;q^2)(q^{2k+1};q^{2k+1}) / ((q;q)^3 (q^{4k+2};q^{4k+2}))
  is evaluated with Euler's pentagonal series for (q^m;q^m)_inf and
  Jacobi's series (q;q)_inf^3 = sum_j (-1)^j (2j+1) q^{j(j+1)/2}
  (Andrews, The Theory of Partitions, 1976, ch. 1-2).  Dividing by a
  sparse series with constant term 1 is a short recurrence.
* Exact margins, D^3 log signs and Jensen hyperbolicity, recomputed from
  that table.  Degree-4 hyperbolicity uses the sign pattern of the quartic
  discriminant and its companion invariants, not Sturm sequences.
* Analytic quantities with ``mpmath.besseli`` in ordinary (non-interval)
  arithmetic at ``DPS`` decimal digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath as mp

DPS = 60  # decimal digits for every analytic reference value


# ---------------------------------------------------------------------------
# Delta_k by sparse q-series
# ---------------------------------------------------------------------------

def pentagonal(m: int, N: int) -> list[tuple[int, int]]:
    """Sparse (exponent, coefficient) terms of (q^m;q^m)_inf up to q^N.

    Euler: prod (1 - q^n) = sum_{j in Z} (-1)^j q^{j(3j-1)/2}.
    """
    terms = [(0, 1)]
    j = 1
    while m * j * (3 * j - 1) // 2 <= N:
        sign = -1 if j % 2 else 1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if m * e <= N:
                terms.append((m * e, sign))
        j += 1
    return sorted(terms)


def jacobi_cube(N: int) -> list[tuple[int, int]]:
    """Sparse terms of (q;q)_inf^3 = sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}."""
    terms = []
    j = 0
    while j * (j + 1) // 2 <= N:
        terms.append((j * (j + 1) // 2, (-1) ** j * (2 * j + 1)))
        j += 1
    return terms


def _sparse_product(a, b, N: int) -> list[int]:
    out = [0] * (N + 1)
    for ea, ca in a:
        for eb, cb in b:
            if ea + eb <= N:
                out[ea + eb] += ca * cb
    return out


def _divide_sparse(f: list[int], d: list[tuple[int, int]]) -> list[int]:
    """f / d for a sparse series d with constant term 1, in place order."""
    if d[0] != (0, 1):
        raise ValueError("divisor must have constant term 1")
    tail = d[1:]
    for n in range(len(f)):
        s = f[n]
        for e, c in tail:
            if e > n:
                break
            s -= c * f[n - e]
        f[n] = s
    return f


def delta_reference(k: int, N: int) -> list[int]:
    """Delta_k(0..N) as a list of Python ints."""
    f = _sparse_product(pentagonal(2, N), pentagonal(2 * k + 1, N), N)
    _divide_sparse(f, jacobi_cube(N))
    _divide_sparse(f, pentagonal(4 * k + 2, N))
    return f


# the proved congruences: (k, modulus, period, residues)
CONGRUENCES = (
    (1, 3, 2, (1,)),
    (2, 2, 10, (2, 6)),
    (2, 5, 25, (14, 24)),
)


def congruence_violations(k: int, a) -> list[str]:
    """Indices where a proved congruence for Delta_k fails on table a."""
    bad = []
    for ck, mod, period, residues in CONGRUENCES:
        if ck != k:
            continue
        for r in residues:
            for n in range(r, len(a), period):
                if a[n] % mod:
                    bad.append("Delta_%d(%d) = %d is not 0 mod %d" % (k, n, a[n], mod))
    return bad


# ---------------------------------------------------------------------------
# Exact margins
# ---------------------------------------------------------------------------

def logconcave_margin(a, n: int) -> int:
    return a[n] * a[n] - a[n - 1] * a[n + 1]


def turan3_margin(a, n: int) -> int:
    left = a[n] * a[n] - a[n - 1] * a[n + 1]
    right = a[n + 1] * a[n + 1] - a[n] * a[n + 2]
    cross = a[n] * a[n + 1] - a[n - 1] * a[n + 2]
    return 4 * left * right - cross * cross


def theta_mono_margin(a, n: int) -> int:
    """a(n)^3 a(n+2) - a(n-1) a(n+1)^3: the sign of Theta(n+1) - Theta(n)."""
    return a[n] ** 3 * a[n + 2] - a[n - 1] * a[n + 1] ** 3


MARGINS = {
    "logconcave": logconcave_margin,
    "turan3": turan3_margin,
    "theta-mono": theta_mono_margin,
}


def dlog3_positive(a, n: int) -> bool:
    """D^3 log a(n) > 0, i.e. a(n+3) a(n+1)^3 > a(n+2)^3 a(n)."""
    return a[n + 3] * a[n + 1] ** 3 > a[n + 2] ** 3 * a[n]


def quartic_all_real(a: int, b: int, c: int, d: int, e: int) -> bool:
    """All roots of a x^4 + b x^3 + c x^2 + d x + e real (a != 0)?

    Decided from the signs of the discriminant and the invariants
    P, R, Delta0 and D of the quartic (the classical case table).
    """
    if a == 0:
        raise ValueError("not a quartic")
    disc = (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2 - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e + 18 * a * b * c * d**3
        + 16 * a * c**4 * e - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )
    P = 8 * a * c - 3 * b * b
    R = b**3 + 8 * d * a * a - 4 * a * b * c
    delta0 = c * c - 3 * b * d + 12 * a * e
    D = 64 * a**3 * e - 16 * a * a * c * c + 16 * a * b * b * c - 16 * a * a * b * d - 3 * b**4
    if disc < 0:
        return False
    if disc > 0:
        return P < 0 and D < 0
    # a multiple root
    if P < 0 and D < 0 and delta0 != 0:
        return True
    if D > 0 or (P > 0 and (D != 0 or R != 0)):
        return False
    if delta0 == 0 and D != 0:
        return True
    if D == 0:
        if P < 0:
            return True
        if P > 0 and R == 0:
            return False
        return delta0 == 0
    return False


def jensen4_hyperbolic(a, n: int) -> bool:
    """Degree-4 shift-n Jensen polynomial sum_j C(4,j) a(n+j) X^j."""
    c = [comb(4, j) * a[n + j] for j in range(5)]
    return quartic_all_real(c[4], c[3], c[2], c[1], c[0])


def theta(a, n: int) -> Fraction:
    return Fraction(a[n - 1] * a[n + 1], a[n] * a[n])


# ---------------------------------------------------------------------------
# Analytic references (mpmath, ordinary arithmetic at DPS digits)
# ---------------------------------------------------------------------------

def _alpha(k: int):
    return mp.mpf(5 * k + 2) / (2 * k + 1)


def _x(k: int, n: int):
    return mp.pi * mp.sqrt(24 * n - 2 * k - 2) / 6


def main_term(k: int, n: int):
    """M_k(n) = alpha pi^3 / (18 x^2) I_2(sqrt(alpha) x), x = x_k(n)."""
    x = _x(k, n)
    al = _alpha(k)
    return al * mp.pi**3 / (18 * x * x) * mp.besseli(2, mp.sqrt(al) * x)


def sandwich_quantities(k: int, n: int) -> dict:
    """Lambda(n), g(n), G(n) at DPS digits."""
    with mp.workdps(DPS):
        lam = main_term(k, n - 1) * main_term(k, n + 1) / main_term(k, n) ** 2
        x6 = _x(k, n) ** -6
        xm6 = _x(k, n - 1) ** -6
        xp6 = _x(k, n + 1) ** -6
        g = (1 - xm6) * (1 - xp6) / (1 + x6) ** 2
        big_g = (1 + xm6) * (1 + xp6) / (1 - x6) ** 2
        return {"lambda": lam, "g": g, "G": big_g}


def sandwich_holds(q: dict, th: Fraction) -> bool:
    """Lambda g < Theta < Lambda G at DPS digits."""
    with mp.workdps(DPS):
        t = mp.mpf(th.numerator) / th.denominator
        return q["lambda"] * q["g"] < t < q["lambda"] * q["G"]


def bessel_remainder_margin(z: float, const: int = 73):
    """const/z^6 - |I_2(z) e^{-z} sqrt(2 pi z) - five-term main part|."""
    with mp.workdps(DPS):
        zz = mp.mpf(z)
        scaled = mp.besseli(2, zz) * mp.exp(-zz) * mp.sqrt(2 * mp.pi * zz)
        main = (
            1 - mp.mpf(15) / (8 * zz) + mp.mpf(105) / (128 * zz**2)
            + mp.mpf(315) / (1024 * zz**3) + mp.mpf(10395) / (32768 * zz**4)
            + mp.mpf(135135) / (262144 * zz**5)
        )
        return mp.mpf(const) / zz**6 - abs(scaled - main)


def log_grid(lo: float, hi: float, count: int) -> list[float]:
    """count points from lo to hi with a constant ratio between neighbours."""
    if count == 1:
        return [lo]
    step = (hi / lo) ** (1.0 / (count - 1))
    return [lo * step**i for i in range(count)]
