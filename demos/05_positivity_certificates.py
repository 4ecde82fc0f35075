"""Exact positivity certificates on rays.

Two mechanisms: Sturm counts (no roots beyond the threshold plus a
positive value there) and coefficient domination (low-order terms are
charged against a pivot term which the leading block eventually beats).
Pi enters only through rational enclosures, so certificates stay exact.
"""

import json
from fractions import Fraction

from bkd.asymptotic import theta_bound_tail_blocks
from bkd.positivity import (
    certify_positive_on_ray,
    domination_threshold,
    lemma_quadratic,
    lemma_uv_check,
    phi_poly,
    psi_poly,
    sturm_count,
    tau_positivity_check,
)

# the two degree-24 tail polynomials of the neighbor-correction bounds
psi = psi_poly()
diff = phi_poly() - psi
cert_psi = certify_positive_on_ray(psi, 6)
cert_diff = certify_positive_on_ray(diff, Fraction(33, 10))
print("psi >= 0 on [6, oo):      ", json.dumps(cert_psi.to_json_obj()))
print("phi - psi >= 0 on [3.3,oo):", json.dumps(cert_diff.to_json_obj()))
print("recheck:", cert_psi.recheck(), cert_diff.recheck())

# a refutation, for contrast
print("\n1 - x on [2, oo):", certify_positive_on_ray([1, -1], 2).to_json_obj())

# domination certificates for the tail polynomials behind the Theta
# bounds; only the leading coefficients are printed, the low-order ones
# enter through user-supplied magnitude bounds
for k in (1, 2):
    blocks = theta_bound_tail_blocks(k)
    up = blocks["upper"]
    lows = [(j, up["pivot_bound"][1] * 7 ** (17 - j)) for j in range(17)]
    cert_u = domination_threshold(lows, up["pivot"], up["pivot_bound"],
                                  sorted(up["leading"].items()), count=up["count"])
    lo = blocks["lower"]
    lows = [(j, lo["pivot_bound"][1] * 3 ** (19 - j)) for j in range(19)]
    cert_l = domination_threshold(lows, lo["pivot"], lo["pivot_bound"],
                                  sorted(lo["leading"].items()), count=lo["count"])
    print("\nk=%d tail thresholds: upper block %.3f, lower block %.3f"
          " (both certified <= 315)" % (k, cert_u.threshold, cert_l.threshold))

# the quadratic from the ratio-gap lemma: both roots inside (0, 1),
# straddling u, for every u in [15/16, 1)
u = Fraction(31, 32)
f = lemma_quadratic(u)
print("\nroots of the gap quadratic at u=31/32:",
      sturm_count(f, 0, u), "in (0, u],", sturm_count(f, u, 1), "in (u, 1]")

# the implication u + sqrt((1-u)^3) > v  =>  4(1-u)(1-v) > (1-uv)^2
print("implication at (0.95, 0.96):",
      lemma_uv_check(Fraction(95, 100), Fraction(96, 100)))

# positivity of the substitution tail on (0, 1/4]
print("tail positive at s in {1/4, 1/8, 1/1000}:",
      tau_positivity_check([Fraction(1, 4), Fraction(1, 8), Fraction(1, 1000)]))
