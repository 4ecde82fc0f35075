"""Positivity certificates on rays.

One mechanism: the Taylor shift.  When every coefficient of p(x0 + y),
enclosed as an IntervalReal with pi at the certificate's precision, has a
nonnegative lower end and the constant term is positive, p > 0 on
[x0, oo) for every pi in the enclosure.  A point where the enclosure of p lies below zero refutes the
claim instead.  Sturm counts of rational polynomials locate the roots of
the ratio-gap quadratic.
"""

import json
from fractions import Fraction

from bkd.positivity import (
    certify_positive_on_ray,
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
