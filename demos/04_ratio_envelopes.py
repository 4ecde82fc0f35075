"""Confronting exact values with their analytic envelopes.

The main term M_k(n) brackets delta_k(n) within a relative x^-6 band
once the size parameter x = pi sqrt(24n - 2k - 2)/6 reaches 152.  The
ratio Theta(n) = delta(n-1) delta(n+1)/delta(n)^2 is bracketed both by
closed-form polynomials in 1/x and by the Lambda g / Lambda G sandwich.
"""

from fractions import Fraction

from bkd.asymptotic import (
    alpha,
    bessel_remainder_margin,
    lambda_bounds_check,
    main_term,
    main_term_sandwich,
    margin_outcome,
    ratio_bounds,
    sandwich_check,
    tail_factors,
    theta_exact,
    x_param,
)
from bkd.etaseries import delta_table
from bkd.intervals import sqrt_rational_interval

N = 6000
tables = {k: delta_table(k, N) for k in (1, 2)}

# the main term is a very good approximation well before the validity
# threshold, but the claim is only asserted from x >= 152 (n >= 3512)
for n in (100, 3512, 6000 - 1):
    m = main_term(1, n)
    exact = tables[1].coeffs[n]
    print("n=%-5d  M_1(n)/delta_1(n) ~ %.12f   sandwich: %s"
          % (n, float(m) / exact, main_term_sandwich(1, n, tables[1]).value))

# Lambda bounds hold from n = 2 (verified by interval arithmetic)
print("\nLambda bounds at n=2:", lambda_bounds_check(1, 2).value,
      "| at n=5000:", lambda_bounds_check(1, 5000).value)

# the closed-form Theta bounds are only claimed from x >= 315; below
# that the checker refuses to issue a verdict
rb = ratio_bounds(1, 5000)
print("Theta bound hypothesis at n=5000 (x=%.1f): valid=%s"
      % (float(x_param(1, 5000)), rb.theta_valid))

# the two-sided sandwich at the start of its validity range
for k in (1, 2):
    res = sandwich_check(k, 3512, tables[k])
    print("k=%d n=3512: Lambda g <= Theta <= Lambda G -> %s  (Theta ~ %.12f)"
          % (k, res.outcome.value, float(res.theta)))
    g, G = tail_factors(k, 3512)
    print("        g ~ %.15f, G ~ %.15f" % (float(g), float(G)))

# the paper's envelope pair (phi, Phi) for I_2(z) e^{-z} sqrt(2 pi z) at
# z = sqrt(alpha_k) t is the five-term main part +/- g6/t^6, and
# g6/t^6 = 73/z^6.  As printed, +g6/t^6 sits on phi, so phi - Phi = 146/z^6
# > 0: the printed pair is empty for every t > 0, an exact fact.  With the
# signs swapped the pair is the 73/z^6 remainder bound at z.
t = 1000
z_squared = alpha(1) * t**2
print("\nenvelope pair at t=1000, printed: phi - Phi = 146/z^6 = %.3e > 0, "
      "an empty pair -> fail" % float(Fraction(146) / z_squared**3))
z = sqrt_rational_interval(alpha(1), 384) * t
print("envelope pair at t=1000, corrected: remainder bound at z = %.3f -> %s"
      % (float(z), margin_outcome(bessel_remainder_margin(z)).value))

print("\nexact Theta_1(3512) =", theta_exact(tables[1], 3512))
