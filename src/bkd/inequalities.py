"""Exact inequality checks on partition tables.

Every decision here is an arbitrary-precision integer comparison: no
floating point enters, so outcomes are reproducible bit for bit.  The
checks are pure functions over an immutable :class:`~bkd.etaseries.PartitionTable`.

Conventions.  With a = table.coeffs and ratios
Theta(n) = a[n-1] a[n+1] / a[n]^2, the difference operator D acts as
(Df)(n) = f(n+1) - f(n).  The identity
D^3 log a(n) = log(Theta(n+2) / Theta(n+1)) fixes the index alignment
between :func:`dlog_sign` at order 3 and :func:`theta_monotone_at`, and
is pinned by a unit test on a four-term table.
"""

from __future__ import annotations

import time
from math import comb
from typing import Callable, Optional

from .etaseries import PartitionTable
from .report import Sign, VerificationReport

__all__ = [
    "logconcave_margin",
    "logconcave_at",
    "turan3_margin",
    "turan3_at",
    "theta_monotone_margin",
    "theta_monotone_at",
    "dlog_sign",
    "jensen_coeffs",
    "jensen_hyperbolic",
    "scan_check",
    "conjecture_threshold",
    "jensen_threshold",
]


def _need(table: PartitionTable, lo: int, hi: int) -> None:
    if lo < 0 or hi > table.N:
        raise IndexError(
            "check needs indices [%d, %d] but table covers [0, %d]"
            % (lo, hi, table.N)
        )


def logconcave_margin(table: PartitionTable, n: int) -> int:
    """a(n)^2 - a(n-1) a(n+1); positive means strictly log-concave at n."""
    _need(table, n - 1, n + 1)
    a = table.coeffs
    return a[n] ** 2 - a[n - 1] * a[n + 1]


def logconcave_at(table: PartitionTable, n: int) -> Sign:
    return Sign.of(logconcave_margin(table, n))


def turan3_margin(table: PartitionTable, n: int) -> int:
    """Cubic Turan margin
    4 (a_n^2 - a_{n-1} a_{n+1}) (a_{n+1}^2 - a_n a_{n+2})
      - (a_n a_{n+1} - a_{n-1} a_{n+2})^2.
    """
    _need(table, n - 1, n + 2)
    a = table.coeffs
    left = a[n] ** 2 - a[n - 1] * a[n + 1]
    right = a[n + 1] ** 2 - a[n] * a[n + 2]
    cross = a[n] * a[n + 1] - a[n - 1] * a[n + 2]
    return 4 * left * right - cross**2


def turan3_at(table: PartitionTable, n: int) -> Sign:
    return Sign.of(turan3_margin(table, n))


def theta_monotone_margin(table: PartitionTable, n: int) -> int:
    """Cross-multiplied form of Theta(n) < Theta(n+1):
    a(n)^3 a(n+2) - a(n-1) a(n+1)^3, positive iff the ratio increases.
    """
    _need(table, n - 1, n + 2)
    a = table.coeffs
    return a[n] ** 3 * a[n + 2] - a[n - 1] * a[n + 1] ** 3


def theta_monotone_at(table: PartitionTable, n: int) -> Sign:
    return Sign.of(theta_monotone_margin(table, n))


def dlog_sign(table: PartitionTable, n: int, r: int) -> Sign:
    """Exact sign of D^r log a(n) = sum_j (-1)^(r-j) C(r,j) log a(n+j).

    Decided by comparing the two integer products
    P+ = prod_{r-j even} a(n+j)^C(r,j) and P- = prod_{r-j odd} ...,
    with exponentiation by squaring on big integers.
    """
    if r < 1:
        raise ValueError("difference order r must be >= 1")
    _need(table, n, n + r)
    a = table.coeffs
    plus = minus = 1
    for j in range(r + 1):
        c = comb(r, j)
        if (r - j) % 2 == 0:
            plus *= a[n + j] ** c
        else:
            minus *= a[n + j] ** c
    return Sign.of(plus - minus)


def jensen_coeffs(table: PartitionTable, d: int, n: int) -> list[int]:
    """Coefficients of sum_j C(d,j) a(n+j) X^j, ascending."""
    if d < 1:
        raise ValueError("degree d must be >= 1")
    _need(table, n, n + d)
    a = table.coeffs
    return [comb(d, j) * a[n + j] for j in range(d + 1)]


def jensen_hyperbolic(table: PartitionTable, d: int, n: int) -> bool:
    """True iff the degree-d shift-n Jensen polynomial has only real roots.

    Decided over the integers by :func:`~bkd.positivity.is_hyperbolic`:
    the signs of the leading coefficients of one reduced subresultant
    chain of the polynomial and its derivative, with a Sturm/gcd
    fallback when that chain has a zero or degree-gapped remainder.
    """
    from .positivity import is_hyperbolic  # only Jensen scans load positivity

    return is_hyperbolic(jensen_coeffs(table, d, n))


# ---------------------------------------------------------------------------
# Range scans
# ---------------------------------------------------------------------------

def scan_check(
    table: PartitionTable,
    check_name: str,
    margin_fn: Callable[[int], int],
    from_n: int,
    to_n: int,
    collect_margins: bool = False,
) -> VerificationReport:
    """Scan margin_fn over [from_n, to_n]; failures are n with margin <= 0."""
    if from_n > to_n:
        raise ValueError("empty range: from %d to %d" % (from_n, to_n))
    t0 = time.perf_counter()
    failures = []
    margins = {} if collect_margins else None
    for n in range(from_n, to_n + 1):
        value = margin_fn(n)
        if collect_margins:
            margins[n] = value
        if value <= 0:
            failures.append(n)
    report = VerificationReport(
        check_name=check_name,
        k=table.k,
        from_n=from_n,
        to_n=to_n,
        failures=failures,
        margins=margins,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )
    report.validate()
    return report


def conjecture_threshold(
    table: PartitionTable, r: int, to_n: int
) -> tuple[Optional[int], VerificationReport]:
    """Empirical candidate for the least n* with (-1)^(r-1) D^r log a(n) > 0
    on all of [n*, to_n].

    Scans n = 1..to_n exactly; returns (candidate, report) where the
    report's failures list every sign violation.  When the violations
    reach to_n itself, no threshold exists below the scan limit and the
    candidate is None.  This is an empirical candidate, not a proof.
    """
    if to_n + r > table.N:
        raise IndexError(
            "scan to %d at order %d needs table N >= %d (have %d)"
            % (to_n, r, to_n + r, table.N)
        )
    sign_flip = 1 if r % 2 == 1 else -1

    def margin(n: int) -> int:
        return sign_flip * dlog_sign(table, n, r).value

    report = scan_check(table, "dlog-alternating-r%d" % r, margin, 1, to_n)
    if not report.failures:
        return 1, report
    if report.failures[-1] == to_n:
        report.notes = "no threshold found <= %d" % to_n
        return None, report
    return report.failures[-1] + 1, report


def jensen_threshold(
    table: PartitionTable, d: int, to_n: int
) -> tuple[Optional[int], VerificationReport]:
    """Least shift n* such that the degree-d Jensen polynomial is
    hyperbolic for every n in [n*, to_n] (scanning from n = 0)."""
    if to_n + d > table.N:
        raise IndexError("scan needs table N >= %d" % (to_n + d))

    def margin(n: int) -> int:
        return 1 if jensen_hyperbolic(table, d, n) else -1

    report = scan_check(table, "jensen-d%d" % d, margin, 0, to_n)
    if not report.failures:
        return 0, report
    if report.failures[-1] == to_n:
        report.notes = "no threshold found <= %d" % to_n
        return None, report
    return report.failures[-1] + 1, report
