import pytest

from bkd.etaseries import PartitionTable, delta_table
from bkd.inequalities import (
    conjecture_threshold,
    dlog_sign,
    jensen_coeffs,
    jensen_hyperbolic,
    logconcave_margin,
    scan_check,
    theta_monotone_margin,
    turan3_margin,
)
from bkd.report import CheckOutcome, VerificationReport


def toy(*coeffs):
    return PartitionTable(k=99, N=len(coeffs) - 1, coeffs=tuple(coeffs))


CONSTANT = toy(1, 1, 1)
GEOMETRIC = toy(1, 2, 4, 8)


class TestLogConcave:
    def test_k1_values(self):
        t = delta_table(1, 10)
        assert logconcave_margin(t, 1) == 3**2 - 1 * 8 == 1
        assert logconcave_margin(t, 2) == 8**2 - 3 * 18 == 10
        assert logconcave_margin(t, 1) > 0

    def test_constant_table_zero(self):
        assert logconcave_margin(CONSTANT, 1) == 0

    def test_range_check(self):
        with pytest.raises(IndexError):
            logconcave_margin(delta_table(1, 10), 10)


class TestTuran3:
    def test_paper_start(self, table1, table2):
        assert turan3_margin(table1, 6) > 0
        assert turan3_margin(table2, 6) > 0

    def test_geometric_zero(self):
        # log-linear sequences annihilate both factors and the bracket
        assert turan3_margin(GEOMETRIC, 1) == 0

    def test_early_violations_k1(self, table1):
        assert [n for n in range(1, 6) if turan3_margin(table1, n) <= 0] == [2, 4]


class TestThetaMonotone:
    def test_paper_start(self, table1, table2):
        assert theta_monotone_margin(table1, 5) > 0
        assert theta_monotone_margin(table2, 7) > 0

    def test_geometric_zero(self):
        assert theta_monotone_margin(GEOMETRIC, 1) == 0

    def test_early_violations(self, table1, table2):
        assert [n for n in range(1, 5) if theta_monotone_margin(table1, n) <= 0] == [1, 3]
        assert [n for n in range(1, 7) if theta_monotone_margin(table2, n) <= 0] == [5]


class TestDlogSign:
    def test_r3_start(self, table1):
        assert dlog_sign(table1, 4, 3) == 1

    def test_r2_always_negative(self, table1):
        assert all(dlog_sign(table1, n, 2) == -1 for n in range(1, 60))

    def test_r1_constant_zero(self):
        assert dlog_sign(CONSTANT, 0, 1) == 0

    def test_r0_rejected(self, table1):
        with pytest.raises(ValueError):
            dlog_sign(table1, 1, 0)

    def test_range_overflow(self):
        with pytest.raises(IndexError):
            dlog_sign(delta_table(1, 10), 9, 3)

    @pytest.mark.parametrize("coeffs", [(1, 2, 4, 9), (1, 2, 4, 7), (1, 3, 8, 18)])
    def test_r3_theta_index_pinning(self, coeffs):
        # D^3 log a(m) decides Theta(m+1) < Theta(m+2): same integer
        # comparison as the ratio-monotonicity margin at m+1
        t = toy(*coeffs)
        margin = theta_monotone_margin(t, 1)
        assert dlog_sign(t, 0, 3) == (margin > 0) - (margin < 0)


class TestConjectureThreshold:
    def test_r1_r2(self, table1):
        assert conjecture_threshold(table1, 1, 200)[0] == 1
        assert conjecture_threshold(table1, 2, 200)[0] == 1

    def test_r3_candidate(self, table1):
        cand, report = conjecture_threshold(table1, 3, 200)
        assert cand == 3
        assert report.failures == [2]

    def test_no_threshold_outcome(self):
        # strictly decreasing ratio table: r=1 margins alternate enough
        # that the last scanned n still violates
        t = toy(1, 10, 20, 21, 21, 21)
        cand, report = conjecture_threshold(t, 1, 4)
        assert cand is None
        assert report.failures[-1] == 4

    def test_table_too_small(self):
        with pytest.raises(IndexError):
            conjecture_threshold(delta_table(1, 10), 3, 10)


class TestJensen:
    def test_degree3_at_paper_start(self, table1):
        assert jensen_hyperbolic(table1, 3, 6)

    def test_linear_always(self, table1):
        assert all(jensen_hyperbolic(table1, 1, n) for n in range(0, 30))

    def test_degree2_matches_logconcavity(self, table1):
        for n in range(0, 40):
            expected = logconcave_margin(table1, n + 1) >= 0
            assert jensen_hyperbolic(table1, 2, n) == expected

    def test_degree2_zero_discriminant(self):
        # constant table: the quadratic is (1 + X)^2, a double real root
        assert logconcave_margin(CONSTANT, 1) == 0
        assert jensen_hyperbolic(CONSTANT, 2, 0)

    def test_degree3_matches_turan3(self, table1):
        # order-3 Turan holds at n iff the shift n-1 cubic is hyperbolic,
        # given strict log-concavity around n (true for these tables)
        for n in range(1, 40):
            assert jensen_hyperbolic(table1, 3, n - 1) == (
                turan3_margin(table1, n) > 0
            )

    def test_coefficients(self, table1):
        assert jensen_coeffs(table1, 3, 0) == [1, 9, 24, 18]

    def test_degree_zero_rejected(self, table1):
        with pytest.raises(ValueError):
            jensen_hyperbolic(table1, 0, 1)


class TestScan:
    def test_margins_collected(self, table1):
        report = scan_check(
            table1,
            "logconcave",
            lambda n: logconcave_margin(table1, n),
            1,
            5,
            collect_margins=True,
        )
        assert report.margins[1] == 1
        assert report.margins[2] == 10
        assert "n,margin" in report.margins_csv()

    def test_empty_range_rejected(self, table1):
        with pytest.raises(ValueError):
            scan_check(table1, "x", lambda n: 1, 5, 4)

    def test_one_loop_files_outcomes_by_point(self):
        # the loop of every verify report: points need not be n
        outcomes = [CheckOutcome.PASS, CheckOutcome.FAIL, CheckOutcome.INCONCLUSIVE,
                    CheckOutcome.HYPOTHESIS_NOT_MET, 0, 5, -2]
        report = VerificationReport("x", 0, 0, 6, margins={})
        assert report.run(range(7), outcomes.__getitem__) is report
        assert (report.failures, report.inconclusive, report.skipped) == ([1, 4, 6], [2], [3])
        assert report.margins == {4: 0, 5: 5, 6: -2}
        assert report.runtime_ms >= 0 and report.exit_code == 1
