"""Rigorous Bessel enclosures and the 73/z^6 remainder margin.

I_2(z) is summed by its all-positive ascending series in Python
integers, in one pass rounded down: the pass itself is a lower bound,
and the pass plus a bound on its rounding, on the terms it skipped at
the head and on the tail is an upper bound, so every value is a true
enclosure; an enclosure of z takes one pass at each end.  The scaled combination
I_2(z) e^{-z} sqrt(2 pi z) stays O(1) while I_2 itself is astronomically
large, and the margin 73/z^6 - |err| needs absolute accuracy below z^-6:
the check starts at ceil(6 log2 z) + 64 bits (144 at z = 10^4) and
doubles the precision only while the margin straddles 0.
"""

from fractions import Fraction

from bkd.asymptotic import (
    auto_prec,
    bessel_i,
    bessel_remainder_margin,
    general_remainder_bound,
    general_remainder_terms,
    i2_scaled_main,
    scaled_i2,
)
from bkd.intervals import to_interval

# small arguments: enclosures tight enough to read off 30+ digits
print("I_2(1)  =", bessel_i(2, 1, 160))
print("I_0(0)  =", bessel_i(0, 0, 64))

# the three-term recurrence is an independent consistency check
z = 25
left = bessel_i(1, z, 128) - bessel_i(3, z, 128)
right = to_interval(4, 128) / z * bessel_i(2, z, 128)
print("recurrence I1 - I3 vs (4/z) I2 overlap at z=25:",
      left.lo <= right.hi and right.lo <= left.hi)

# the five-term main part and the measured remainder constant
for zv in (1484, 2000, 5000, 10000):
    p = auto_prec(zv)
    err = abs(scaled_i2(to_interval(zv, p), p) - i2_scaled_main(to_interval(zv, p)))
    margin = bessel_remainder_margin(zv)
    print("z=%-6d prec=%-6d |err|*z^6 ~ %.4f   margin 73/z^6 - |err| > 0: %s"
          % (zv, p, float(err * to_interval(zv, p) ** 6), margin.lo > 0))

# the general integer-order bound, specialized at nu = 2, implies the
# 73/z^6 claim with lots of slack
t1, t2, t3 = general_remainder_terms(2, 1484, 256)
total = general_remainder_bound(2, 1484, 256)
print("\nnu=2, z=1484 bound terms: %.3e + %.3e + %.3e = %.3e  (73/z^6 = %.3e)"
      % (float(t1), float(t2), float(t3), float(total), 73 / 1484**6))
print("product term * z^6 * 2^(3/2) encloses 4729725/65536:",
      (t3 * to_interval(1484, 256) ** 6 * to_interval(8, 256).sqrt()).contains(
          Fraction(4729725, 65536)))
