"""Exact tables of broken k-diamond counts, cross-validated two ways.

The counting function delta_k(n) is the coefficient sequence of the eta
quotient (1-q^2n)(1-q^(2k+1)n) / ((1-q^n)^3 (1-q^(4k+2)n)).  We expand it
with the sparse series of Euler's pentagonal theorem and Jacobi's identity
and confirm every coefficient against a log-derivative recurrence that
shares no code with the expansion.
"""

from bkd.etaseries import broken_diamond_spec, delta_oracle_logderiv, delta_table

# the factor lists; note how k = 0 collapses to plain 2-colored partitions
for k in (0, 1, 2):
    print("k=%d factors:" % k, broken_diamond_spec(k).factors)

# the first few values for k = 1 and k = 2
t1 = delta_table(1, 12)
t2 = delta_table(2, 12)
print("\ndelta_1(0..12):", list(t1.coeffs))
print("delta_2(0..12):", list(t2.coeffs))

# the independent recurrence must agree bit for bit
for k in (0, 1, 2, 3):
    table = delta_table(k, 400)
    oracle = delta_oracle_logderiv(k, 400)
    assert list(table.coeffs) == oracle
    print("k=%d: expansion == recurrence oracle on 0..400  (last value %d digits)"
          % (k, len(str(table.coeffs[-1]))))

# tables serialize with decimal strings (the values outgrow doubles fast)
print("\nCSV head:")
print("\n".join(t2.to_csv().splitlines()[:5]))
print("\nJSON:", delta_table(2, 3).to_json())
