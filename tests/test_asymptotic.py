from fractions import Fraction
from math import factorial, log
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bkd.asymptotic
from mpref import mpf_fraction
from bkd.asymptotic import (
    Z_REMAINDER_MIN,
    alpha,
    auto_prec,
    bessel_i,
    between,
    bessel_remainder_margin,
    general_remainder_bound,
    general_remainder_hypothesis_min,
    general_remainder_terms,
    i2_scaled_main,
    lambda_bounds_check,
    lambda_exact,
    main_term,
    main_term_sandwich,
    margin_outcome,
    ratio_bounds,
    remainder_precisions,
    sandwich_check,
    scaled_i2,
    tail_factors,
    theta_bounds_check,
    theta_exact,
    x_param,
)
from bkd.etaseries import delta_table
from bkd.intervals import sqrt_rational_interval, to_interval
from bkd.report import CheckOutcome

# 38-digit bracket around I2(1), from summing the ascending series with a
# tail bound before the build (matches every standard table)
I2_AT_1_LO = Fraction(13574766976703828118285256999499092294, 10**38)
I2_AT_1_HI = I2_AT_1_LO + Fraction(1, 10**38)


def scaled_main_fraction(z: int) -> Fraction:
    """Exact rational value of the five-term main part at integer z."""
    return (
        1
        - Fraction(15, 8 * z)
        + Fraction(105, 128 * z**2)
        + Fraction(315, 1024 * z**3)
        + Fraction(10395, 32768 * z**4)
        + Fraction(135135, 262144 * z**5)
    )


def exact_bessel_series(nu: int, x: Fraction, unit: Fraction) -> tuple[Fraction, Fraction]:
    """(P, R) with P <= I_nu(x) <= P + R, exactly, and R under 2^-20 units:
    the partial sum P stops at a term below that once the term ratio
    (x/2)^2 / ((m + 1)(m + nu + 1)), which only falls, is below 1/2, so
    the tail after the term is at most the term itself."""
    half_sq = (x / 2) ** 2
    term = (x / 2) ** nu / factorial(nu)
    partial, m = term, 0
    while not (2 * half_sq < (m + 1) * (m + nu + 1) and term * 2**20 < unit):
        m += 1
        term = term * half_sq / (m * (m + nu))
        partial += term
    return partial, term


def check_series_bounds(nu: int, x, w: int) -> tuple[int, int]:
    """One pass of the Bessel kernel at x with w bits: check S_lo 2^F <= P
    and P + R <= S_hi 2^F against the exact series, and return S_hi - S_lo
    and the index m0 of the pass's first term."""
    starts = []
    term_bounds = bkd.asymptotic._term_bounds

    def spy(nu, man, exp, m, v):
        starts.append(m)
        return term_bounds(nu, man, exp, m, v)

    man, exp = to_interval(x, 64).dyadic_ends[:2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bkd.asymptotic, "_term_bounds", spy)
        s_lo, s_hi, f = bkd.asymptotic._series_bounds(nu, man, exp, w, 4096)
    unit = Fraction(2) ** f
    partial, tail = exact_bessel_series(nu, Fraction(x), unit)
    assert s_lo * unit <= partial
    assert partial + tail <= s_hi * unit
    assert len(starts) == 1
    return s_hi - s_lo, starts[0]


class TestSizeParam:
    def test_small_value(self):
        x = x_param(1, 1, 192)
        # pi * sqrt(20) / 6, computed independently at higher precision
        with mp.workprec(320):
            ref = mp.pi * mp.sqrt(20) / 6
        assert x.lo_fraction() < mpf_fraction(ref) < x.hi_fraction()
        assert abs(float(x) - 2.3416049) < 1e-6

    def test_width_contract(self):
        x = x_param(1, 10**6, 192)
        assert x.width <= Fraction(2) ** (4 - 192) * x.hi_fraction()

    def test_main_validity_threshold(self):
        assert x_param(1, 3512).lo_fraction() >= 152
        assert x_param(2, 3512).lo_fraction() >= 152
        assert x_param(1, 3511).hi_fraction() < 152

    def test_theta_validity_threshold(self):
        assert x_param(1, 15081).lo_fraction() >= 315
        assert x_param(2, 15081).lo_fraction() >= 315
        assert x_param(2, 15080).hi_fraction() < 315

    def test_nonpositive_radicand(self):
        with pytest.raises(ValueError):
            x_param(1, 0)


KERNEL_PRECS = [64, 128, 384, 1024]
KERNEL_NUS = [0, 1, 2, 5]
# arguments that are exact at every precision above (dyadic, <= 53 bits)
DYADIC_Z = [0, Fraction(1, 2**40), 0.5, 7, 1483.2, 10**4, 2 * 10**4]


def besseli_ref(nu: int, z, prec: int) -> Fraction:
    """mpmath's own I_nu (an independent algorithm) at 2 prec + 64 bits,
    and at least 512, as an exact Fraction; ``z`` may be a callable
    evaluated at that precision."""
    with mp.workprec(max(512, 2 * prec + 64)):
        return mpf_fraction(mp.besseli(nu, z() if callable(z) else z))


class TestBessel:
    def test_zero_argument(self):
        assert float(bessel_i(2, 0, 96)) == 0.0
        one = bessel_i(0, 0, 96)
        assert one.contains(1)

    def test_value_at_one(self):
        enc = bessel_i(2, 1, 160)
        # enclosure is far tighter than the 38-digit bracket, so it must
        # sit strictly inside it
        assert I2_AT_1_LO <= enc.lo_fraction() <= enc.hi_fraction() <= I2_AT_1_HI
        assert enc.width < Fraction(1, 2**140)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i(2, -1)

    @pytest.mark.parametrize("z", list(range(1, 51)))
    def test_three_term_recurrence(self, z):
        # I_1(z) - I_3(z) = (4/z) I_2(z): enclosures must intersect
        p = 128
        left = bessel_i(1, z, p) - bessel_i(3, z, p)
        right = to_interval(4, p) / z * bessel_i(2, z, p)
        assert left.lo_fraction() <= right.hi_fraction()
        assert right.lo_fraction() <= left.hi_fraction()

    @pytest.mark.parametrize("nu,z", [(0, 3), (1, 10), (2, 7), (4, 25), (2, 100)])
    def test_against_library_reference(self, nu, z):
        # mpmath's own besseli is an independent implementation; its value
        # (computed at much higher precision) must land in the enclosure
        enc = bessel_i(nu, z, 128)
        with mp.workprec(256):
            ref = mpf_fraction(mp.besseli(nu, z))
        assert enc.lo_fraction() <= ref <= enc.hi_fraction()

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("nu", KERNEL_NUS)
    def test_contains_library_value_at_large_z(self, nu, prec):
        # a dyadic z = 10^4 and a non-dyadic enclosure z = x_1(8180) ~ 232
        # (sized like the main-term arguments); mpmath's besseli of the
        # exact argument must lie inside
        x = x_param(1, 8180, prec)
        assert x.lo_fraction() < x.hi_fraction() and 231 < float(x) < 233
        for z_enc, z_exact in (
            (10**4, 10**4),
            (x, lambda: mp.pi * mp.sqrt(24 * 8180 - 4) / 6),
        ):
            enc = bessel_i(nu, z_enc, prec)
            assert enc.lo_fraction() <= besseli_ref(nu, z_exact, prec) <= enc.hi_fraction()
            lo, hi = enc.lo_fraction(), enc.hi_fraction()
            assert hi - lo <= hi * Fraction(2) ** (24 - prec)


class TestBesselKernel:
    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("nu", KERNEL_NUS)
    def test_dyadic_arguments_contained_and_tight(self, nu, prec):
        for z in DYADIC_Z:
            z_iv = to_interval(z, prec)
            assert z_iv.lo_fraction() == z_iv.hi_fraction(), z
            enc = bessel_i(nu, z, prec)
            ref = besseli_ref(nu, z_iv.lo_fraction(), prec)
            assert enc.lo_fraction() <= ref <= enc.hi_fraction(), z
            lo, hi = enc.lo_fraction(), enc.hi_fraction()
            assert hi - lo <= hi * Fraction(2) ** (4 - prec), z

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    @pytest.mark.parametrize("nu", KERNEL_NUS)
    def test_wide_enclosure(self, nu, prec):
        enc = bessel_i(nu, (100, 101), prec)
        for z in (100, 101):
            assert enc.lo_fraction() <= besseli_ref(nu, z, prec) <= enc.hi_fraction()

    @pytest.mark.parametrize("prec", [64, 384])
    @pytest.mark.parametrize("nu", [0, 2, 5])
    @pytest.mark.parametrize("z", [Fraction(1, 2), 7, 100])
    def test_raw_sums_bracket_exact_series(self, z, nu, prec):
        # the integer sums before the final rounding to prec bits, against
        # exact rational partial sums P <= I_nu(z) <= P + (last term)
        half = Fraction(z) / 2
        term = half**nu / factorial(nu)
        partial, m = term, 0
        while not (2 * half**2 < (m + 1) * (m + nu + 1) and term < partial / 2 ** (3 * prec)):
            m += 1
            term = term * half**2 / (m * (m + nu))
            partial += term
        man, exp = to_interval(z, prec).dyadic_ends[:2]
        w, limit = prec + 20, 8 * (prec + 200)
        s_lo, s_hi, f = bkd.asymptotic._series_bounds(nu, man, exp, w, limit)
        assert s_lo * Fraction(2) ** f <= partial
        assert partial + term <= s_hi * Fraction(2) ** f
        assert s_hi - s_lo < 2**12

    # x = 1/4 and 1/2: the terms the lower sum floors away total a few
    # hundredths of a unit, so it must sit within one unit of the series;
    # x = 10, 27/2, 29/2: the pass starts past a head (m0 > 0)
    @pytest.mark.parametrize("nu,x,w,head", [
        (0, Fraction(1, 4), 6, False), (1, Fraction(1, 4), 7, False),
        (2, Fraction(1, 4), 1, False), (0, Fraction(1, 2), 10, False),
        (0, 10, 1, True), (0, Fraction(27, 2), 1, True), (3, Fraction(29, 2), 1, True),
    ])
    def test_series_bounds_against_exact_sums(self, nu, x, w, head):
        # small w and small x, where the bounds are a few units apart
        width, m0 = check_series_bounds(nu, x, w)
        assert width <= 16
        assert (m0 > 0) == head

    @pytest.mark.parametrize("skew", ["finer_unit", "longest_head"])
    @pytest.mark.parametrize("nu,x,w", [(0, 10, 1), (0, Fraction(27, 2), 1), (3, Fraction(29, 2), 1),
                                        (2, 40, 8), (0, 24, 12), (5, 7, 4), (1, Fraction(1, 4), 7)])
    def test_float_estimates_set_tightness_only(self, nu, x, w, skew, monkeypatch):
        # the float estimates of log2 T_m choose F and the head start m0;
        # the exact checks keep the bounds rigorous whatever they say.
        # finer_unit lowers every estimate by 16 bits: 2^F sits 2^16 times
        # finer, and the rounding of the terms weighs thousands of units
        # against the n + 1 that cover their flooring.  longest_head makes
        # every head look negligible: m0 goes as far as the exact check
        # m0 (m0 + nu) <= (x/2)^2 allows, and the head holds much of the sum
        if skew == "finer_unit":
            lgamma = bkd.asymptotic.lgamma
            monkeypatch.setattr(bkd.asymptotic, "lgamma", lambda v: lgamma(v) + 8 * log(2))
        else:
            monkeypatch.setattr(bkd.asymptotic, "log2", lambda v: -float("inf"))
        _, m0 = check_series_bounds(nu, x, w)
        assert (m0 > 0) == (x >= 10)

    @pytest.mark.parametrize("nu,z,m", [(2, 10**4, 0), (2, 10**4, 4233), (5, 7, 3), (0, 0.5, 1)])
    def test_term_bounds_enclose_exact_term(self, nu, z, m):
        # the pass's first term, against T_m = (z/2)^(2m + nu) / (m! (m + nu)!)
        man, exp = to_interval(z, 64).dyadic_ends[:2]
        w = 172
        t, u, e = bkd.asymptotic._term_bounds(nu, man, exp, m, w)
        exact = (Fraction(z) / 2) ** (2 * m + nu) / (factorial(m) * factorial(m + nu))
        assert t.bit_length() == w
        assert t * Fraction(2) ** e <= exact <= u * Fraction(2) ** e
        assert u - t <= 4

    def test_series_stops_at_last_term_that_counts(self, monkeypatch):
        # at z = 10^4 and 144 bits every term after m = 5771 is below one
        # unit of the sum, but the term ratio first drops below 1/2 at
        # m = 7070; the tail bound T r/(1 - r) stops within a few terms.
        # The terms below m = 4000 together are worth under one unit, so
        # the one pass starts past them
        passes = []

        def counting_range(*args):
            passes.append([])
            for m in range(*args):
                passes[-1].append(m)
                yield m

        monkeypatch.setattr(bkd.asymptotic, "range", counting_range, raising=False)
        bessel_i(2, 10**4, 144)
        assert len(passes) == 1
        first, last = passes[0][0], passes[0][-1]
        assert first > 4000 and 5771 <= last < 5800, (first, last)

    @pytest.mark.parametrize("z,passes", [(10**4, 1), (to_interval((100, 101), 64), 2)])
    def test_one_pass_per_end(self, monkeypatch, z, passes):
        # a point argument needs one pass of the series, an enclosure one
        # at each end
        calls = []
        kernel = bkd.asymptotic._series_bounds

        def counting_kernel(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(bkd.asymptotic, "_series_bounds", counting_kernel)
        bessel_i(2, z, 64)
        assert len(calls) == passes

    @settings(max_examples=40, deadline=None)
    @given(
        nu=st.integers(min_value=0, max_value=5),
        z=st.floats(min_value=0, max_value=2 * 10**4),
        prec=st.integers(min_value=64, max_value=384),
    )
    def test_contains_library_value(self, nu, z, prec):
        enc = bessel_i(nu, z, prec)
        assert enc.lo_fraction() <= besseli_ref(nu, mp.mpf(z), prec) <= enc.hi_fraction()


class TestScaledMain:
    def test_limit_is_one(self):
        v = i2_scaled_main(to_interval(10**9, 128))
        assert abs(float(v) - 1.0) < 1e-8

    def test_exact_rational_at_1484(self):
        v = i2_scaled_main(to_interval(1484, 192))
        ref = scaled_main_fraction(1484)
        assert v.lo_fraction() <= ref <= v.hi_fraction()
        assert abs(float(v) - 0.998737) < 1e-6

    def test_width_contract_at_2000(self):
        p = 192
        v = i2_scaled_main(to_interval(2000, p))
        assert v.width <= Fraction(2) ** (6 - p)


class TestRemainder:
    def test_margin_positive_at_threshold(self):
        assert bessel_remainder_margin(1484).lo_fraction() > 0

    def test_margin_positive_at_5000(self):
        assert bessel_remainder_margin(5000).lo_fraction() > 0

    def test_measured_constant_at_2000(self):
        # |I2 e^-z sqrt(2 pi z) - main| * z^6 measured: about 1.129,
        # far inside the claimed 73
        z = 2000
        p = auto_prec(z)
        err = abs(scaled_i2(to_interval(z, p), p) - i2_scaled_main(to_interval(z, p)))
        measured = err * to_interval(z, p) ** 6
        assert Fraction(112, 100) < measured.lo_fraction()
        assert measured.hi_fraction() < Fraction(114, 100)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            bessel_remainder_margin(1400)
        assert Fraction(1483) < Z_REMAINDER_MIN < Fraction(1484)

    def test_check_outcome(self):
        assert margin_outcome(bessel_remainder_margin(2000)) is CheckOutcome.PASS

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("t", [Fraction(1000), Fraction(12345, 7)],
                             ids=["t1000", "t12345_7"])
    def test_enclosed_argument(self, k, t):
        # z = sqrt(alpha_k) t, where the claim is the paper's envelope pair,
        # enters as an enclosure and is decided at the first precision
        z = sqrt_rational_interval(alpha(k), 384) * t
        margin = bessel_remainder_margin(z)
        assert margin_outcome(margin) is CheckOutcome.PASS
        assert margin.prec == remainder_precisions(z)[0]

    def test_enclosure_width_stops_the_schedule(self):
        # a 64-bit enclosure of z keeps the margin undecided at any precision:
        # the attempts stop at the first that reaches z's own 64 bits
        z = sqrt_rational_interval(alpha(1), 64) * 1000
        assert remainder_precisions(z)[:2] == [128, 256]
        margin = bessel_remainder_margin(z)
        assert margin_outcome(margin) is CheckOutcome.INCONCLUSIVE
        assert margin.prec == 128
        margin = bessel_remainder_margin(sqrt_rational_interval(alpha(1), 384) * 1000)
        assert margin_outcome(margin) is CheckOutcome.PASS and margin.prec == 128

    @pytest.mark.parametrize("k", [1, 2])
    def test_enclosed_argument_below_threshold_rejected(self, k):
        # t = 900: z is about 1375 for k = 1 and 1394 for k = 2, below 1483.15
        with pytest.raises(ValueError):
            bessel_remainder_margin(sqrt_rational_interval(alpha(k), 384) * 900)

    def test_auto_prec_policy(self):
        # ceil(6 log2 z) + 64: 144 bits at z = 10^4 (was ceil(1.45 z) + 64)
        assert auto_prec(10**4) == 144
        assert auto_prec(1484) == 128
        assert remainder_precisions(1484) == [128, 256, 512, 1024, 2048, 2216]
        assert remainder_precisions(1484, 300) == [300]

    def test_precision_raised_until_decided(self, monkeypatch):
        z = 10**4
        cap = remainder_precisions(z)[-1]
        assert cap == 14564  # the old budget ceil(1.45 z) + 64
        assert margin_outcome(bessel_remainder_margin(z, 64)) is CheckOutcome.INCONCLUSIVE
        monkeypatch.setattr(bkd.asymptotic, "auto_prec", lambda z: 64)
        margin = bessel_remainder_margin(z)
        assert margin.lo_fraction() > 0
        assert 64 < margin.prec <= cap

    @settings(max_examples=25, deadline=None)
    @given(
        z=st.floats(min_value=1484, max_value=10**4),
        prec=st.integers(min_value=64, max_value=256),
    )
    def test_low_precision_never_fails(self, z, prec):
        # too few bits may leave the margin undecided, never refuted
        outcome = margin_outcome(bessel_remainder_margin(z, prec))
        assert outcome in (CheckOutcome.PASS, CheckOutcome.INCONCLUSIVE)


class TestGeneralRemainder:
    def test_nu2_consistent_with_specialization(self):
        # at nu = 2 the three-term bound must imply the 73/z^6 claim
        z = 1484
        bound = general_remainder_bound(2, z, 256)
        assert bound.hi_fraction() < Fraction(73, z**6) * (1 + Fraction(1, 10**6))
        assert bound.lo_fraction() > 0

    def test_product_term_constant(self):
        # third term times z^6 times 2^(3/2) is exactly 4729725/65536
        z = 1484
        _, _, t3 = general_remainder_terms(2, z, 256)
        normalized = t3 * to_interval(z, 256) ** 6 * to_interval(8, 256).sqrt()
        assert normalized.contains(Fraction(4729725, 65536))

    def test_nu3_totality(self):
        z_min = general_remainder_hypothesis_min(3)
        assert z_min == Fraction(17**6, 7680)
        bound = general_remainder_bound(3, Fraction(17**6, 7680) + 1, 256)
        assert bound.lo_fraction() > 0

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            general_remainder_bound(1, 5000)
        with pytest.raises(ValueError):
            general_remainder_bound(3, 3000)


class TestMainTerm:
    def test_total_below_validity(self):
        # formula evaluates fine even where no claim is asserted
        v = main_term(1, 10, 128)
        assert v.lo_fraction() > 0

    def test_sandwich_at_validity_start(self):
        t = delta_table(1, 3513)
        assert main_term_sandwich(1, 3512, t) is CheckOutcome.PASS

    def test_sandwich_below_validity(self):
        t = delta_table(1, 200)
        assert main_term_sandwich(1, 100, t) is CheckOutcome.HYPOTHESIS_NOT_MET


class TestRatioBounds:
    def test_all_bounds_tend_to_one(self):
        rb = ratio_bounds(1, 10**13, 192)
        for b in (rb.lambda_lo, rb.lambda_hi, rb.theta_lo, rb.theta_hi):
            assert abs(float(b) - 1) < 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    def test_lambda_bounds_hold_from_two(self, k):
        assert lambda_bounds_check(k, 2) is CheckOutcome.PASS
        assert lambda_bounds_check(k, 50) is CheckOutcome.PASS

    def test_lambda_below_validity(self):
        assert lambda_bounds_check(1, 1) is CheckOutcome.HYPOTHESIS_NOT_MET

    def test_lambda_exact_sane(self):
        lam = lambda_exact(1, 2, 256)
        rb = ratio_bounds(1, 2, 256)
        assert rb.lambda_lo.hi_fraction() < lam.lo_fraction()
        assert lam.hi_fraction() < rb.lambda_hi.lo_fraction()

    def test_theta_gate(self, table1):
        assert theta_bounds_check(1, 5000, table1) is CheckOutcome.HYPOTHESIS_NOT_MET

    def test_k_range(self):
        with pytest.raises(ValueError):
            ratio_bounds(3, 100)


class TestTailFactors:
    @pytest.mark.parametrize("k,n", [(1, 6), (1, 50), (2, 7), (2, 3512)])
    def test_five_over_x6_bounds(self, k, n):
        # for size >= 6: g >= 1 - 5/x^6 and G <= 1 + 5/x^6
        g, big_g = tail_factors(k, n, 256)
        x = x_param(k, n, 256)
        assert x.lo_fraction() >= 6
        five = 5 * x ** -6
        assert g.lo_fraction() >= (1 - five).lo_fraction()
        assert big_g.hi_fraction() <= (1 + five).hi_fraction()
        assert g.hi_fraction() < 1 < big_g.lo_fraction()

    def test_limit(self):
        g, big_g = tail_factors(1, 10**9, 128)
        assert abs(float(g) - 1) < 1e-12 and abs(float(big_g) - 1) < 1e-12

    def test_too_small(self):
        with pytest.raises(ValueError):
            tail_factors(1, 1, 128)


class TestSandwich:
    def test_pass_at_validity_start(self):
        t = delta_table(1, 3513)
        res = sandwich_check(1, 3512, t)
        assert res.outcome is CheckOutcome.PASS
        assert res.lower.hi_fraction() <= res.theta <= res.upper.lo_fraction()

    def test_hypothesis_gate(self):
        t = delta_table(1, 200)
        assert sandwich_check(1, 100, t).outcome is CheckOutcome.HYPOTHESIS_NOT_MET

    def test_table_range(self):
        with pytest.raises(IndexError):
            sandwich_check(1, 3512, delta_table(1, 3512))

    def test_k_outside_theorem_scope(self):
        t = delta_table(3, 200)
        with pytest.raises(ValueError):
            sandwich_check(3, 100, t)
        with pytest.raises(ValueError):
            main_term_sandwich(3, 100, t)


class TestBetween:
    @pytest.mark.parametrize("lower,value,upper,strict,outcome", [
        (1, Fraction(3, 2), 2, True, CheckOutcome.PASS),
        (1, 1, 2, False, CheckOutcome.PASS),
        (1, 1, 2, True, CheckOutcome.FAIL),          # equality breaks a strict bound
        (1, 2, 2, True, CheckOutcome.FAIL),
        (1, 3, 2, False, CheckOutcome.FAIL),
        (0, Fraction(-1, 2), 2, False, CheckOutcome.FAIL),
    ])
    def test_exact_values(self, lower, value, upper, strict, outcome):
        assert between(lower, value, upper, strict) is outcome

    def test_enclosures(self):
        low, up = to_interval((0, 1), 64), to_interval((3, 4), 64)
        assert between(low, 2, up, strict=True) is CheckOutcome.PASS
        assert between(low, to_interval((1, 3), 64), up, strict=False) is CheckOutcome.PASS
        assert between(low, to_interval((1, 3), 64), up, strict=True) is (
            CheckOutcome.INCONCLUSIVE)
        assert between(low, Fraction(1, 2), up, strict=False) is CheckOutcome.INCONCLUSIVE
        assert between(low, 5, up, strict=False) is CheckOutcome.FAIL
        assert between(low, to_interval((-2, -1), 64), up, strict=False) is CheckOutcome.FAIL


class TestPrecisionNeverFlips:
    """A lower precision may leave an interval verdict INCONCLUSIVE; it
    must never turn the 384-bit PASS into FAIL or FAIL into PASS.  The
    drawn n straddle each hypothesis gate."""

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        n=st.integers(min_value=3500, max_value=3600),
        prec=st.integers(min_value=64, max_value=384),
    )
    def test_sandwich_check(self, sandwich_tables, k, n, prec):
        table = sandwich_tables[k]
        verdict = sandwich_check(k, n, table, 384).outcome
        low = sandwich_check(k, n, table, prec).outcome
        assert low in (verdict, CheckOutcome.INCONCLUSIVE)

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        n=st.integers(min_value=3500, max_value=3600),
        prec=st.integers(min_value=64, max_value=384),
    )
    def test_main_term_sandwich(self, sandwich_tables, k, n, prec):
        table = sandwich_tables[k]
        verdict = main_term_sandwich(k, n, table, 384)
        low = main_term_sandwich(k, n, table, prec)
        assert low in (verdict, CheckOutcome.INCONCLUSIVE)

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        n=st.integers(min_value=15070, max_value=15200),
        prec=st.integers(min_value=64, max_value=384),
    )
    def test_theta_bounds_check(self, theta_tables, k, n, prec):
        table = theta_tables[k]
        verdict = theta_bounds_check(k, n, table, 384)
        low = theta_bounds_check(k, n, table, prec)
        assert low in (verdict, CheckOutcome.INCONCLUSIVE)


class TestThetaExact:
    def test_small_value(self, table1):
        assert theta_exact(table1, 1) == Fraction(8, 9)
        assert theta_exact(table1, 2) == Fraction(3 * 18, 64)

    def test_range(self, table1):
        with pytest.raises(IndexError):
            theta_exact(table1, 0)


PINNED = Path(__file__).parent / "data" / "pinned_enclosures.txt"


def pinned_lines() -> list[str]:
    """One line per closed-form enclosure at 384 bits: a label, then
    (sign, hex mantissa, exponent) of each endpoint and the precision.
    Nothing here is built on bessel_i, so the series kernel can change
    without touching the data."""
    def line(label, x):
        lo_man, lo_exp, hi_man, hi_exp = x.dyadic_ends
        ends = " | ".join("%d %x %d" % (man < 0, abs(man), exp)
                          for man, exp in ((lo_man, lo_exp), (hi_man, hi_exp)))
        return "%s: %s @%d" % (label, ends, x.prec)

    p, out = 384, []
    for k in (1, 2):
        for n in (3512, 15081):
            out.append(line("x_param k=%d n=%d" % (k, n), x_param(k, n, p)))
            rb = ratio_bounds(k, n, p)
            out += [line("ratio_bounds k=%d n=%d %s" % (k, n, f), getattr(rb, f))
                    for f in ("lambda_lo", "lambda_hi", "theta_lo", "theta_hi")]
            out += [line("tail_factors k=%d n=%d %s" % (k, n, f), v)
                    for f, v in zip(("g", "G"), tail_factors(k, n, p))]
    for z in (Fraction(1484), Fraction(30001, 3)):
        out.append(line("i2_scaled_main z=%s" % z, i2_scaled_main(z, p)))
    return out


class TestPinnedEnclosures:
    def test_bit_for_bit(self):
        # the data file holds the endpoints these formulas gave before
        # they were written in IntervalReal operators
        expected = PINNED.read_text().splitlines()
        for got, want in zip(pinned_lines(), expected, strict=True):
            assert got == want
