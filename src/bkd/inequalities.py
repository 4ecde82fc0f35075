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
from functools import partial
from math import comb
from typing import Callable, Optional, Union

from .etaseries import PartitionTable
from .report import CheckOutcome, Sign, VerificationReport

__all__ = [
    "logconcave_margin",
    "logconcave_at",
    "turan3_margin",
    "turan3_at",
    "theta_monotone_margin",
    "theta_monotone_at",
    "dlog_sign",
    "dlog_margin",
    "jensen_coeffs",
    "jensen_hyperbolic",
    "jensen_margin",
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


def dlog_margin(table: PartitionTable, r: int, n: int) -> int:
    """(-1)^(r-1) times the sign of D^r log a(n): 1 where the alternating
    sign pattern holds at n, else 0 or -1."""
    return (1 if r % 2 else -1) * dlog_sign(table, n, r).value


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


def jensen_margin(table: PartitionTable, d: int, n: int) -> int:
    """1 when the degree-d shift-n Jensen polynomial is hyperbolic, else -1."""
    return 1 if jensen_hyperbolic(table, d, n) else -1


# ---------------------------------------------------------------------------
# Range scans
# ---------------------------------------------------------------------------

def scan_check(
    table: PartitionTable,
    check_name: str,
    margin_fn: Callable[[int], Union[int, CheckOutcome]],
    from_n: int,
    to_n: int,
    collect_margins: bool = False,
) -> VerificationReport:
    """The one range loop: evaluate margin_fn at each n in [from_n, to_n].

    margin_fn returns an exact integer margin, a failure when <= 0 (kept
    per n with ``collect_margins``), or a CheckOutcome, filed as it is.
    """
    if from_n > to_n:
        raise ValueError("empty range: from %d to %d" % (from_n, to_n))
    t0 = time.perf_counter()
    report = VerificationReport(check_name=check_name, k=table.k, from_n=from_n,
                                to_n=to_n, margins={} if collect_margins else None)
    failures, margins = report.failures, report.margins
    for n in range(from_n, to_n + 1):
        value = margin_fn(n)
        if isinstance(value, CheckOutcome):
            report.add(n, value)
            continue
        if collect_margins:
            margins[n] = value
        if value <= 0:
            failures.append(n)
    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _threshold(report: VerificationReport) -> Optional[int]:
    """Least n* such that the scan passed on all of [n*, to]: the last
    failure + 1, or from when nothing failed.  None when the failures
    reach to itself, so that no threshold exists below the scan limit."""
    if not report.failures:
        return report.from_n
    if report.failures[-1] == report.to_n:
        report.notes = "no threshold found <= %d" % report.to_n
        return None
    return report.failures[-1] + 1


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
    report = scan_check(table, "dlog-alternating-r%d" % r,
                        partial(dlog_margin, table, r), 1, to_n)
    return _threshold(report), report


def jensen_threshold(
    table: PartitionTable, d: int, to_n: int
) -> tuple[Optional[int], VerificationReport]:
    """Least shift n* such that the degree-d Jensen polynomial is
    hyperbolic for every n in [n*, to_n] (scanning from n = 0)."""
    if to_n + d > table.N:
        raise IndexError("scan needs table N >= %d" % (to_n + d))
    report = scan_check(table, "jensen-d%d" % d, partial(jensen_margin, table, d), 0, to_n)
    return _threshold(report), report
