"""Exact inequality scans: log-concavity, the cubic Turan inequality,
ratio monotonicity, and iterated differences of log delta_k(n).

Everything here is integer arithmetic; a check either holds exactly or
fails exactly, and the failure sets below the known thresholds are part
of the story.
"""

from bkd.etaseries import delta_table
from bkd.inequalities import (
    conjecture_threshold,
    dlog_sign,
    jensen_threshold,
    logconcave_margin,
    theta_monotone_margin,
    turan3_margin,
)

LIMIT = 2000
tables = {k: delta_table(k, LIMIT + 6) for k in (1, 2)}

# log-concavity holds from n = 1 on; the cubic Turan inequality and the
# ratio monotonicity pick up a little later
for k, t in tables.items():
    lc = [n for n in range(1, LIMIT) if logconcave_margin(t, n) <= 0]
    t3 = [n for n in range(1, LIMIT) if turan3_margin(t, n) <= 0]
    tm = [n for n in range(1, LIMIT) if theta_monotone_margin(t, n) <= 0]
    print("k=%d: log-concavity violations %s, cubic-Turan violations %s,"
          " ratio-monotonicity violations %s" % (k, lc, t3, tm))

# second differences of log delta are negative everywhere (that IS
# log-concavity), third differences go positive after a short prefix
t1 = tables[1]
print("\nD^2 log delta_1(n) < 0 for n=1..50:",
      all(dlog_sign(t1, n, 2) == -1 for n in range(1, 51)))
print("D^3 log delta_1(n) signs for n=1..8:",
      [dlog_sign(t1, n, 3) for n in range(1, 9)])

# empirical thresholds for the alternating-sign pattern (-1)^(r-1) D^r > 0
for k, t in tables.items():
    for r in (1, 2, 3, 4):
        candidate, rep = conjecture_threshold(t, r, LIMIT)
        print("k=%d r=%d: candidate threshold %s, violations below: %s"
              % (k, r, candidate, rep.failures[:10]))

# hyperbolicity of the associated cubic polynomials tracks the cubic
# Turan inequality exactly (shift off by one)
thr3, rep3 = jensen_threshold(t1, 3, 200)
print("\ndegree-3 polynomials hyperbolic from shift %d (false at %s)"
      % (thr3, rep3.failures))
