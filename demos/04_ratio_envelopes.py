"""Confronting exact values with their analytic envelopes.

The main term M_k(n) brackets delta_k(n) within a relative x^-6 band
once the size parameter x = pi sqrt(24n - 2k - 2)/6 reaches 152.  The
ratio Theta(n) = delta(n-1) delta(n+1)/delta(n)^2 is bracketed both by
closed-form polynomials in 1/x and by the Lambda g / Lambda G sandwich.
"""

from bkd.asymptotic import (
    envelope_sandwich_outcome,
    lambda_bounds_check,
    main_term,
    main_term_sandwich,
    ratio_bounds,
    sandwich_check,
    tail_factors,
    theta_exact,
    x_param,
)
from bkd.etaseries import delta_table

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

# the printed envelope pair is ordered the wrong way around; the
# corrected orientation is the one the two-sided remainder bound yields
print("\nenvelope sandwich at t=1000, printed orientation:",
      envelope_sandwich_outcome(1, 1000, orientation="printed").value)
print("envelope sandwich at t=1000, corrected orientation:",
      envelope_sandwich_outcome(1, 1000, orientation="corrected").value)

print("\nexact Theta_1(3512) =", theta_exact(tables[1], 3512))
