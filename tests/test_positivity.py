import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkd import positivity
from bkd.inequalities import jensen_coeffs
from bkd.intervals import pi_interval, sqrt_rational_interval, to_interval
from bkd.positivity import (
    Inconclusive,
    PolyQ,
    PositivityCertificate,
    RayRefutation,
    certify_positive_on_ray,
    is_hyperbolic,
    lemma_quadratic,
    lemma_uv_check,
    phi_poly,
    psi_poly,
    sturm_count,
    tau_positivity_check,
)


class TestPolyQ:
    def test_make_strips_trailing_zeros(self):
        p = PolyQ.make([1, 2, 0, 0])
        assert p.degree == 1

    def test_pi_coefficients(self):
        p = PolyQ.from_terms({2: {0: 1}, 0: {2: -1}})  # x^2 - pi^2
        assert p.uses_pi()
        subs = p.substitute_pi(Fraction(3))
        assert subs == [Fraction(-9), Fraction(0), Fraction(1)]

    def test_value_contains_truth(self):
        p = PolyQ.from_terms({2: {0: 1}, 0: {2: -1}})
        value = positivity._value(positivity._enclose(p, 128), Fraction(4), 128)
        # sharper reference enclosure of 16 - pi^2 from a 512-bit pi
        assert value.contains(16 - pi_interval(512) ** 2)
        assert value.width < Fraction(1, 2**120)

    def test_sub(self):
        d = phi_poly() - psi_poly()
        # 14580 t^18 - 17496 pi^4 t^14 + 7776 pi^8 t^10 - 1152 pi^12 t^6
        assert d.degree == 18
        assert d.coeffs[18] == ((0, Fraction(14580)),)
        assert d.coeffs[14] == ((4, Fraction(-17496)),)
        assert d.coeffs[10] == ((8, Fraction(7776)),)
        assert d.coeffs[6] == ((12, Fraction(-1152)),)

    def test_serialization(self):
        obj = PolyQ.make([Fraction(1, 2), 0, 3]).to_json_obj()
        assert obj["degree"] == 2
        assert {"degree": 0, "pi_power": 0, "numerator": "1", "denominator": "2"} in obj[
            "coefficients"
        ]


class TestSturmCount:
    def test_basic(self):
        assert sturm_count([-1, 0, 1], -2, 2) == 2  # X^2 - 1 on (-2, 2]

    def test_half_open_convention(self):
        # roots at -1 and 1: (a, b] excludes a, includes b
        assert sturm_count([-1, 0, 1], -1, 1) == 1
        assert sturm_count([-1, 0, 1], -2, 0) == 1
        assert sturm_count([-1, 0, 1], 1, 5) == 0

    def test_unbounded(self):
        assert sturm_count([-1, 0, 1]) == 2
        assert sturm_count([-1, 0, 1], 0, None) == 1
        assert sturm_count([1, 0, 1]) == 0  # X^2 + 1

    def test_multiple_root_counted_once(self):
        assert sturm_count([1, -2, 1]) == 1  # (X-1)^2

    def test_lemma_quadratic_roots_in_unit_interval(self):
        f = lemma_quadratic(Fraction(15, 16))
        assert sturm_count(f, 0, 1) == 2

    def test_psi_has_no_roots_beyond_six(self):
        # sturm_count takes rational polynomials: pi at each end of its enclosure
        pi = pi_interval(256)
        for end in (pi.lo, pi.hi):
            assert sturm_count(psi_poly().substitute_pi(end), 6, None) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sturm_count([0, 0])

    def test_pi_polynomial_rejected(self):
        p = PolyQ.from_terms({1: {0: 1}, 0: {1: -1}})  # X - pi
        with pytest.raises(ValueError, match="pi"):
            sturm_count(p, 0, 4)

    def test_enclosure_rejected(self):
        with pytest.raises(ValueError, match="enclosures"):
            sturm_count([-sqrt_rational_interval(Fraction(7, 3), 64), 1])

    @settings(max_examples=120, deadline=None)
    @given(
        roots=st.lists(
            st.fractions(min_value=-8, max_value=8, max_denominator=16),
            min_size=1,
            max_size=5,
        ),
        a=st.fractions(min_value=-10, max_value=10, max_denominator=8),
        b=st.fractions(min_value=-10, max_value=10, max_denominator=8),
    )
    def test_count_matches_constructed_roots(self, roots, a, b):
        # polynomial with known roots: count over (a, b] must equal the
        # number of distinct roots in that half-open interval
        if a == b:
            return
        if a > b:
            a, b = b, a
        # build prod (x - r) by convolution, ascending coefficients
        coeffs = [Fraction(1)]
        for r in roots:
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * (-r)
                nxt[i + 1] += c
            coeffs = nxt
        expected = len({r for r in roots if a < r <= b})
        assert sturm_count(coeffs, a, b) == expected

    def test_root_ordering_of_lemma_quadratic(self):
        rng = random.Random(20260809)
        for _ in range(100):
            u = Fraction(15, 16) + Fraction(rng.randrange(1, 2**20), 2**24)
            assert Fraction(15, 16) <= u < 1
            f = lemma_quadratic(u)
            assert sturm_count(f, None, 0) == 0
            assert sturm_count(f, 0, u) == 1
            assert sturm_count(f, u, 1) == 1


class TestHyperbolic:
    def test_products_of_linear_factors(self):
        assert is_hyperbolic([6, -11, 6, -1])  # (1-X)(2-X)(3-X) up to sign
        assert is_hyperbolic([1, -2, 1])  # (X-1)^2
        assert is_hyperbolic([0, 0, 1])  # X^2

    def test_complex_roots_detected(self):
        assert not is_hyperbolic([1, 0, 1])
        assert not is_hyperbolic([1, -2, 2, -2, 1])  # (X-1)^2 (X^2+1)

    def test_low_degree(self):
        assert is_hyperbolic([5])
        assert is_hyperbolic([1, 7])


def _sturm_verdict(coeffs):
    """The Sturm-chain fallback on its own."""
    return positivity._sturm_hyperbolic(positivity._prim(list(coeffs)))


# (x+1)^2 (x+2) (x+3), (x+1)^2 (x+2), x^4 + 1, x^3, (x+1)^3 (x+2),
# (x-1)^2 (x+2)^2, (x-2)^2 (x-1) (x^2+2)
FALLBACK_POLYS = [
    ([6, 17, 17, 7, 1], True),
    ([2, 5, 4, 1], True),
    ([1, 0, 0, 0, 1], False),
    ([0, 0, 0, 1], True),
    ([2, 7, 9, 5, 1], True),
    ([4, -4, -3, 2, 1], True),
    ([-8, 16, -14, 10, -5, 1], False),
]


class TestSubresultantChain:
    """The regular-chain decision against the Sturm-chain fallback."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_agrees_with_sturm_path_on_jensen_polynomials(self, table1, table2, d):
        # the acceptance range of criterion 12: n = 0..5000 for k = 1, 2
        for table in (table1, table2):
            for n in range(5001):
                coeffs = jensen_coeffs(table, d, n)
                expected = _sturm_verdict(coeffs)
                chain = positivity._regular_chain_verdict(positivity._prim(coeffs))
                assert chain in (None, expected), (table.k, d, n)
                assert is_hyperbolic(coeffs) == expected, (table.k, d, n)

    @pytest.mark.parametrize("coeffs,expected", FALLBACK_POLYS)
    def test_irregular_chain_falls_back(self, coeffs, expected, monkeypatch):
        assert positivity._regular_chain_verdict(coeffs) is None
        calls, chains = [], []
        sturm, chain = positivity._sturm_hyperbolic, positivity._sturm_chain

        def spy(p):
            calls.append(p)
            return sturm(p)

        def chain_spy(p):
            chains.append(p)
            return chain(p)

        def unreachable(*args):
            raise RuntimeError("the fallback divided by the gcd")

        monkeypatch.setattr(positivity, "_sturm_hyperbolic", spy)
        monkeypatch.setattr(positivity, "_sturm_chain", chain_spy)
        monkeypatch.setattr(positivity, "_exact_div", unreachable)
        assert is_hyperbolic(coeffs) == expected
        assert calls == [coeffs] and chains == [coeffs]

    def test_regular_path_needs_no_gcd(self, table1, monkeypatch):
        cases = [jensen_coeffs(table1, d, n) for d in (2, 3, 4, 5) for n in range(0, 400, 3)]
        # the last one, (x-1)^2 (x^2+1), has a double root, but a leading
        # coefficient of the wrong sign decides it before the chain ends
        cases += [[6, -11, 6, -1], [1, 0, 1], [-1, 0, 3, 0, -1], [1, -2, 2, -2, 1]]
        expected = [_sturm_verdict(c) for c in cases]

        def unreachable(*args):
            raise RuntimeError("the Sturm fallback ran on a regular chain")

        for name in ("_exact_div", "_sturm_chain", "_sturm_hyperbolic"):
            monkeypatch.setattr(positivity, name, unreachable)
        assert [is_hyperbolic(c) for c in cases] == expected
        assert not all(expected)  # both verdicts occur

    def test_inexact_division_is_an_internal_error(self, monkeypatch):
        prem = positivity._prem_step
        monkeypatch.setattr(positivity, "_prem_step",
                            lambda f, g: [c + 1 for c in prem(f, g)])
        with pytest.raises(AssertionError):
            is_hyperbolic([6, 11, 6, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=3, max_size=8).filter(lambda c: c[-1]))
    def test_chain_never_contradicts_sturm_path(self, coeffs):
        expected = _sturm_verdict(coeffs)
        chain = positivity._regular_chain_verdict(positivity._prim(coeffs))
        assert chain in (None, expected)
        assert is_hyperbolic(coeffs) == expected
        assert is_hyperbolic([Fraction(c, 7) for c in coeffs]) == expected


class TestRayCertificates:
    def test_psi_certificate(self):
        cert = certify_positive_on_ray(psi_poly(), 6)
        assert isinstance(cert, PositivityCertificate)
        assert cert.method == "TAYLOR_SHIFT"
        assert cert.recheck()
        assert cert.to_json_obj()["x0"] == "6"

    def test_values_beyond_float_range(self):
        cert = certify_positive_on_ray([10**400, 1], 0)
        assert cert.witness["constant_lo_approx"] == "1.000000e+400"
        assert cert.recheck()

    def test_recheck_rejects_a_tampered_witness(self):
        cert = certify_positive_on_ray(psi_poly(), 6)
        cert.witness["degree"] = 23
        assert not cert.recheck()

    def test_certificates_with_a_coarse_pi_enclosure(self):
        # the shift test holds with pi and every operation at 16 bits
        for poly, x0 in ((psi_poly(), 6), (phi_poly() - psi_poly(), Fraction(33, 10)),
                         (phi_poly(), 6)):
            cert = certify_positive_on_ray(poly, x0, prec=16)
            assert isinstance(cert, PositivityCertificate) and cert.recheck()
            assert cert.witness["prec"] == 16

    def test_sqrt_alpha_coefficient(self):
        # x - sqrt(alpha_1), alpha_1 = 7/3, with the root known only as an
        # enclosure: positive from 2 on, negative at 1
        r = sqrt_rational_interval(Fraction(7, 3), 256)
        cert = certify_positive_on_ray([-r, 1], 2)
        assert isinstance(cert, PositivityCertificate) and cert.recheck()
        refutation = certify_positive_on_ray([-r, 1], 1)
        assert isinstance(refutation, RayRefutation)
        assert refutation.point == 1 and refutation.value_hi < 0

    def test_one_enclosure_per_call(self, monkeypatch):
        # the value at x0, the shift, the leading sign and every probe
        # share one coefficient enclosure
        calls = []
        enclose = positivity._enclose

        def counting(p, prec):
            calls.append(prec)
            return enclose(p, prec)

        monkeypatch.setattr(positivity, "_enclose", counting)
        r = certify_positive_on_ray([15, -8, 1], 2)  # (X - 3)(X - 5)
        assert isinstance(r, RayRefutation) and calls == [256]

    def test_phi_minus_psi_certificate(self):
        cert = certify_positive_on_ray(phi_poly() - psi_poly(), Fraction(33, 10))
        assert isinstance(cert, PositivityCertificate)
        assert cert.recheck()

    def test_phi_itself_on_six(self):
        # psi >= 0 on [6, oo) and phi - psi >= 0 on [3.3, oo) chain to
        # phi >= 0 on [6, oo); the direct certificate must agree
        assert isinstance(certify_positive_on_ray(phi_poly(), 6), PositivityCertificate)

    def test_refutation(self):
        r = certify_positive_on_ray([1, -1], 2)  # 1 - X
        assert isinstance(r, RayRefutation)
        assert r.point == 2 and r.value_hi == -1

    def test_negative_threshold_value_refuted_at_once(self):
        # phi - (1 - x^2) has roots beyond 33/10 but is already negative
        # there; no Sturm work is needed to say so
        t0 = time.process_time()
        r = certify_positive_on_ray(phi_poly() - PolyQ.make([1, 0, -1]), Fraction(33, 10))
        assert time.process_time() - t0 < 1
        assert isinstance(r, RayRefutation)
        assert r.point == Fraction(33, 10) and r.value_hi < 0

    def test_walk_out_stays_on_the_ray(self):
        # 100 - x^2 from x0 = -5: positive at x0, eventually negative
        r = certify_positive_on_ray([100, 0, -1], -5)
        assert isinstance(r, RayRefutation)
        assert r.point >= -5 and r.value_hi < 0

    def test_root_pair_inside_pi_enclosure_is_inconclusive(self):
        # (x - 5)^2 + (pi - 7/2)^2 - 1/16 with pi in [3, 4]: no real root
        # at either end of the enclosure, but p(5) = -1/16 at pi = 7/2
        p = PolyQ.from_terms({2: {0: 1}, 1: {0: -10},
                              0: {0: Fraction(595, 16), 1: -7, 2: 1}})
        pi = to_interval((3, 4), 256)
        assert [sturm_count(p.substitute_pi(end), 0, None)
                for end in (pi.lo, pi.hi)] == [0, 0]
        at_7_2 = p.substitute_pi(Fraction(7, 2))
        assert sum(c * 5**i for i, c in enumerate(at_7_2)) == Fraction(-1, 16)
        with pytest.raises(Inconclusive):
            certify_positive_on_ray([Fraction(595, 16) - 7 * pi + pi**2, -10, 1], 0)

    def test_probes_of_an_enclosed_polynomial(self):
        # x^2 - 10x + c: the Sturm probes come from the midpoint of c; a
        # probe refutes only when p's whole enclosure lies below zero
        c = to_interval((24, Fraction(49, 2)), 256)  # p(5) <= -1/2 for every c
        r = certify_positive_on_ray([c, -10, 1], 0)
        assert isinstance(r, RayRefutation) and 4 < r.point < 6 and r.value_hi < 0
        c = to_interval((Fraction(49, 2), Fraction(101, 4)), 256)  # p(5) = c - 25: either sign
        with pytest.raises(Inconclusive):
            certify_positive_on_ray([c, -10, 1], 0)

    def test_root_free_rational_failing_the_shift_is_inconclusive(self):
        # x^2 - x + 1 > 0 everywhere, but its coefficients at x0 = 0 vary
        # in sign: the shift test is the only certificate
        with pytest.raises(Inconclusive):
            certify_positive_on_ray([1, -1, 1], 0)

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                        min_size=1, max_size=7).filter(lambda c: c[-1] != 0),
        x0=st.fractions(min_value=-6, max_value=6, max_denominator=4),
    )
    def test_shift_certificate_agrees_with_sturm(self, coeffs, x0):
        try:
            result = certify_positive_on_ray(coeffs, x0)
        except (Inconclusive, ValueError):
            return
        if isinstance(result, PositivityCertificate):
            assert sturm_count(coeffs, x0, None) == 0
            assert sum(c * x0**i for i, c in enumerate(coeffs)) > 0

    def test_sign_change_found_beyond_threshold(self):
        # (X - 3)(X - 5) is negative between its roots
        r = certify_positive_on_ray([15, -8, 1], 2)
        assert isinstance(r, RayRefutation)
        assert 3 < r.point < 5

    def test_even_contact_raises(self):
        with pytest.raises(ValueError):
            certify_positive_on_ray([4, -4, 1], 0)  # (X-2)^2 touches zero

    def test_exact_zero_at_threshold_raises(self):
        with pytest.raises(ValueError, match="x0"):
            certify_positive_on_ray([0, 1], 0)  # p(x) = x vanishes at x0


class TestScalarLemmas:
    def test_example_pair(self):
        assert lemma_uv_check(Fraction(95, 100), Fraction(96, 100))

    def test_vacuous_when_hypothesis_fails(self):
        # gap too wide: hypothesis (1-u)^3 > (v-u)^2 is false
        assert lemma_uv_check(Fraction(15, 16), Fraction(999, 1000))

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma_uv_check(Fraction(1, 2), Fraction(3, 4))
        with pytest.raises(ValueError):
            lemma_uv_check(Fraction(96, 100), Fraction(95, 100))

    @settings(max_examples=300, deadline=None)
    @given(
        u_num=st.integers(min_value=0, max_value=2**24 - 1),
        v_num=st.integers(min_value=1, max_value=2**24 - 1),
    )
    def test_implication_never_fails(self, u_num, v_num):
        u = Fraction(15, 16) + Fraction(u_num, 2**28)
        v = u + Fraction(v_num, 2**28) * (1 - u) / Fraction(2**24)
        if not (u < v < 1):
            return
        assert lemma_uv_check(u, v)

    def test_tau_samples(self):
        assert tau_positivity_check([Fraction(1, 4), Fraction(1, 8), Fraction(1, 1000)])

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            tau_positivity_check([Fraction(0)])
        with pytest.raises(ValueError):
            tau_positivity_check([Fraction(1, 2)])
