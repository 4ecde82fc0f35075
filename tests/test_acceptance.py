"""Acceptance suite: one test per named criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them live).

Every tolerance is pinned here; exact checks carry zero tolerance by
construction, interval checks must come out decided (no INCONCLUSIVE)
at their stated working precision.
"""

import random
import time
from fractions import Fraction

import pytest

from bkd.asymptotic import (
    alpha,
    bessel_remainder_margin,
    main_term_sandwich,
    margin_outcome,
    sandwich_check,
    theta_bounds_check,
)
from bkd.etaseries import delta_oracle_logderiv, delta_table
from bkd.inequalities import (
    conjecture_threshold,
    jensen_threshold,
    logconcave_margin,
    theta_monotone_margin,
    turan3_margin,
)
from bkd.intervals import sqrt_rational_interval
from bkd.positivity import (
    PositivityCertificate,
    certify_positive_on_ray,
    lemma_quadratic,
    lemma_uv_check,
    phi_poly,
    psi_poly,
    sturm_count,
)
from bkd.report import CheckOutcome

SCAN_LIMIT = 5000
SCAN_TABLE_N = 5005  # covers turan3 (+2) and jensen up to d=5
BIG_TABLE_N = 20001


def report(ident, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "ACCEPTANCE %-28s %s (%.1fs)" % (ident, status, elapsed)
    if detail:
        line += " " + detail
    print(line)
    return ok


@pytest.fixture(scope="module")
def scan1():
    return delta_table(1, SCAN_TABLE_N)


@pytest.fixture(scope="module")
def scan2():
    return delta_table(2, SCAN_TABLE_N)


def log_spaced(lo, hi, count):
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return sorted({int(round(lo * ratio**i)) for i in range(count)})


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for k in range(4):
        expanded = delta_table(k, 500)
        oracle = delta_oracle_logderiv(k, 500)
        ok = ok and list(expanded.coeffs) == oracle
    elapsed = time.perf_counter() - t0
    assert report("01-oracle-equivalence", ok and elapsed < 10, elapsed,
                  "k in 0..3, N=500, exact equality")


def test_criterion_02_small_value_regression():
    t0 = time.perf_counter()
    ok = delta_table(1, 3).coeffs == (1, 3, 8, 18)
    ok = ok and delta_table(2, 3).coeffs == (1, 3, 8, 19)
    ok = ok and delta_oracle_logderiv(1, 3) == [1, 3, 8, 18]
    ok = ok and delta_oracle_logderiv(2, 3) == [1, 3, 8, 19]
    assert report("02-small-values", ok, time.perf_counter() - t0,
                  "delta_1=(1,3,8,18) delta_2=(1,3,8,19)")


def test_criterion_03_higher_order_turan():
    # the stated budget includes the table builds, so they are timed here
    # (later criteria legitimately reuse the memoized tables)
    t0 = time.perf_counter()
    bad = []
    for k in (1, 2):
        table = delta_table(k, SCAN_TABLE_N)
        bad += [(k, n) for n in range(6, SCAN_LIMIT + 1)
                if turan3_margin(table, n) <= 0]
    elapsed = time.perf_counter() - t0
    assert report("03-turan3", not bad and elapsed < 60, elapsed,
                  "k in {1,2}, 6 <= n <= 5000, zero tolerance, incl. build")


def test_criterion_04_ratio_monotonicity(scan1, scan2):
    t0 = time.perf_counter()
    bad = [n for n in range(5, SCAN_LIMIT + 1)
           if theta_monotone_margin(scan1, n) <= 0]
    bad += [n for n in range(7, SCAN_LIMIT + 1)
            if theta_monotone_margin(scan2, n) <= 0]
    below1 = [n for n in range(1, 5)
              if theta_monotone_margin(scan1, n) <= 0]
    below2 = [n for n in range(1, 7)
              if theta_monotone_margin(scan2, n) <= 0]
    elapsed = time.perf_counter() - t0
    # violations below the thresholds are reported, not asserted
    assert report("04-theta-monotone", not bad and elapsed < 30, elapsed,
                  "violations below threshold: k=1 %s, k=2 %s" % (below1, below2))


def test_criterion_05_log_concavity(scan1, scan2):
    t0 = time.perf_counter()
    bad = []
    for table in (scan1, scan2):
        bad += [(table.k, n) for n in range(1, SCAN_LIMIT + 1)
                if logconcave_margin(table, n) <= 0]
    elapsed = time.perf_counter() - t0
    assert report("05-log-concavity", not bad and elapsed < 10, elapsed,
                  "k in {1,2}, 1 <= n <= 5000")


def test_criterion_06_main_term_sandwich():
    t0 = time.perf_counter()
    ns = log_spaced(3512, 20000, 20)
    outcomes = []
    for k in (1, 2):
        table = delta_table(k, BIG_TABLE_N)
        outcomes += [main_term_sandwich(k, n, table) for n in ns]
    elapsed = time.perf_counter() - t0
    ok = all(o is CheckOutcome.PASS for o in outcomes) and elapsed < 300
    assert report("06-main-term-sandwich", ok, elapsed,
                  "%d points, no INCONCLUSIVE at default 384 bits" % len(outcomes))


def test_criterion_07_theta_bounds():
    t0 = time.perf_counter()
    outcomes = []
    for k in (1, 2):
        table = delta_table(k, BIG_TABLE_N)
        outcomes += [theta_bounds_check(k, n, table)
                     for n in (15081, 16000, 18000, 20000)]
    elapsed = time.perf_counter() - t0
    ok = all(o is CheckOutcome.PASS for o in outcomes) and elapsed < 120
    assert report("07-theta-bounds", ok, elapsed,
                  "n in {15081, 16000, 18000, 20000}, k in {1,2}")


def test_criterion_08_bessel_remainder():
    t0 = time.perf_counter()
    grid = [1484 * (10000 / 1484) ** (i / 49) for i in range(50)]
    margins = [bessel_remainder_margin(z) for z in grid]  # auto precision
    elapsed = time.perf_counter() - t0
    ok = all(m.lo > 0 for m in margins) and elapsed < 300
    assert report("08-bessel-remainder", ok, elapsed,
                  "50-point log grid on [1484, 10^4], auto precision")


def test_criterion_09_ray_certificates():
    t0 = time.perf_counter()
    cert_psi = certify_positive_on_ray(psi_poly(), 6)
    cert_diff = certify_positive_on_ray(phi_poly() - psi_poly(), Fraction(33, 10))
    ok = (
        isinstance(cert_psi, PositivityCertificate)
        and isinstance(cert_diff, PositivityCertificate)
        and cert_psi.recheck()
        and cert_diff.recheck()
    )
    elapsed = time.perf_counter() - t0
    assert report("09-ray-certificates", ok and elapsed < 5, elapsed,
                  "psi on [6,oo), phi-psi on [3.3,oo), re-verified")


def test_criterion_10_uv_lemma_property():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    failures = 0
    for _ in range(10_000):
        u = Fraction(15, 16) + Fraction(rng.randrange(0, 2**20), 2**24)
        v = u + (1 - u) * Fraction(rng.randrange(1, 2**20), 2**20)
        if not lemma_uv_check(u, v):
            failures += 1
    ordering_ok = True
    for _ in range(100):
        u = Fraction(15, 16) + Fraction(rng.randrange(0, 2**20), 2**24)
        f = lemma_quadratic(u)
        ordering_ok = ordering_ok and (
            sturm_count(f, None, 0) == 0
            and sturm_count(f, 0, u) == 1
            and sturm_count(f, u, 1) == 1
        )
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and ordering_ok and elapsed < 30
    assert report("10-uv-lemma", ok, elapsed,
                  "10^4 random pairs, 100 root orderings, 0 failures")


def test_criterion_11_two_sided_sandwich():
    t0 = time.perf_counter()
    ns = log_spaced(3512, 20000, 10)
    outcomes = []
    for k in (1, 2):
        table = delta_table(k, BIG_TABLE_N)
        outcomes += [sandwich_check(k, n, table).outcome for n in ns]
    elapsed = time.perf_counter() - t0
    ok = all(o is CheckOutcome.PASS for o in outcomes) and elapsed < 180
    assert report("11-two-sided-sandwich", ok, elapsed,
                  "%d sampled n in [3512, 20000] x k in {1,2}" % len(ns))


def test_criterion_12_jensen_scans(scan1, scan2):
    # asymptotic hyperbolicity for general degree is not provable at desk
    # scale; instead: empirical minimal all-true thresholds for d in
    # {4, 5}, plus internal consistency of d=2 / d=3 with criteria 5 / 3
    t0 = time.perf_counter()
    observed = {}
    for table in (scan1, scan2):
        for d in (4, 5):
            threshold, _ = jensen_threshold(table, d, SCAN_LIMIT)
            observed[(table.k, d)] = threshold
    consistent = True
    for table in (scan1, scan2):
        d2_threshold, d2_report = jensen_threshold(table, 2, SCAN_LIMIT)
        consistent = consistent and d2_threshold == 0 and not d2_report.failures
        _, d3_report = jensen_threshold(table, 3, SCAN_LIMIT)
        turan_violations = [n for n in range(1, SCAN_LIMIT + 1)
                            if turan3_margin(table, n) <= 0]
        consistent = consistent and d3_report.failures == [
            n - 1 for n in turan_violations
        ]
    elapsed = time.perf_counter() - t0
    assert report("12-jensen-thresholds", consistent, elapsed,
                  "observed min all-true shifts: %s" %
                  {("k=%d" % k, "d=%d" % d): v for (k, d), v in observed.items()})


def test_supplement_envelope_orientation():
    # The paper prints an envelope pair (phi, Phi) for I_2(z) e^{-z}
    # sqrt(2 pi z) at z = sqrt(alpha_k) t: the five-term main part plus
    # g6/t^6 on phi and minus g6/t^6 on Phi, g6 = 73/alpha_k^3.  So the
    # printed phi - Phi = 2 g6/t^6 = 146/z^6 > 0 exactly: the printed pair
    # is empty for every t > 0, and its sandwich fails with no Bessel value.
    # Swapping the two signs gives main part -/+ 73/z^6, which is the
    # remainder bound at z = sqrt(alpha_k) t.  This records the discrepancy
    # rather than silently fixing it.
    t0 = time.perf_counter()
    t = 1000
    printed, corrected = [], []
    for k in (1, 2):
        g6_over_t6 = Fraction(73) / alpha(k)**3 / t**6
        assert g6_over_t6 == 73 / (alpha(k) * t**2)**3  # z^2 = alpha_k t^2
        # an empty pair fails; a nonempty one would need the Bessel value
        printed.append(CheckOutcome.FAIL if 2 * g6_over_t6 > 0
                       else CheckOutcome.INCONCLUSIVE)
        z = sqrt_rational_interval(alpha(k), 384) * t
        corrected.append(margin_outcome(bessel_remainder_margin(z)))
    ok = all(o is CheckOutcome.FAIL for o in printed) and all(
        o is CheckOutcome.PASS for o in corrected
    )
    assert report("envelope-orientation", ok, time.perf_counter() - t0,
                  "printed pair is empty (phi - Phi = 146/z^6), corrected pair "
                  "is the 73/z^6 remainder bound and passes")


def test_supplement_paper_checked_ranges():
    # the source theorems were machine-checked up to n = 15080 before
    # their asymptotic thresholds take over; reproduce those full ranges
    # exactly (tables to 20001 are already memoized by criterion 6)
    t0 = time.perf_counter()
    t1 = delta_table(1, BIG_TABLE_N)
    t2 = delta_table(2, BIG_TABLE_N)
    bad = [n for n in range(5, 15081) if theta_monotone_margin(t1, n) <= 0]
    bad += [n for n in range(7, 15081) if theta_monotone_margin(t2, n) <= 0]
    for t in (t1, t2):
        bad += [n for n in range(6, 15081) if turan3_margin(t, n) <= 0]
    elapsed = time.perf_counter() - t0
    assert report("paper-checked-ranges", not bad, elapsed,
                  "ratio monotonicity and cubic Turan exact to n = 15080")


def test_supplement_lambda_bounds_sample():
    # the closed-form Lambda bounds were machine-checked for
    # 2 <= n <= 143295; verify a log-spaced sample of that range with
    # interval arithmetic (the asymptotic argument covers the rest)
    t0 = time.perf_counter()
    from bkd.asymptotic import lambda_bounds_check

    ns = sorted({2, 3, 5, 143295} | set(log_spaced(2, 143295, 20)))
    outcomes = [lambda_bounds_check(k, n) for k in (1, 2) for n in ns]
    elapsed = time.perf_counter() - t0
    ok = all(o is CheckOutcome.PASS for o in outcomes)
    assert report("lambda-bounds-sample", ok, elapsed,
                  "%d log-spaced n in [2, 143295], k in {1,2}" % len(ns))


def test_supplement_conjecture_candidates(scan1, scan2):
    # exhaustive scan candidates for the alternating-sign thresholds;
    # candidates must not exceed what the order-3 theorems guarantee
    # (n >= 4 for k=1, n >= 6 for k=2)
    t0 = time.perf_counter()
    c1, rep1 = conjecture_threshold(scan1, 3, SCAN_LIMIT)
    c2, rep2 = conjecture_threshold(scan2, 3, SCAN_LIMIT)
    ok = c1 == 3 and rep1.failures == [2] and c2 == 5 and rep2.failures == [4]
    ok = ok and c1 <= 4 and c2 <= 6
    assert report("conjecture-candidates", ok, time.perf_counter() - t0,
                  "r=3 candidates: k=1 -> %s, k=2 -> %s" % (c1, c2))
