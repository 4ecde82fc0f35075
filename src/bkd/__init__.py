"""Exact and rigorous-interval verification toolkit for the broken
k-diamond partition numbers delta_k(n).

The exact side (``etaseries``, ``inequalities``) works purely over
arbitrary-precision integers: eta-quotient expansion with an independent
log-derivative oracle, and the log-concavity / cubic Turan / ratio
monotonicity / iterated-difference checks.  The analytic side
(``intervals``, ``asymptotic``) produces rigorous enclosures of the
Bessel-type main term and its printed bounds so exact values can be
confronted with analytic envelopes.  ``positivity`` certifies polynomial
positivity on rays by a Taylor shift on ``IntervalReal`` enclosures of
the coefficients; its Sturm counts stay in exact rational arithmetic.

Importing the package loads none of these modules; import names from the
module that defines them.  The interval arithmetic runs on Python
integers, so no module needs anything beyond the standard library; the
tests use mpmath as an independent reference.  A table's SHA-256 covers
the algorithm tag, k, N and every coefficient's decimal string; its cache
file (written and read by ``etaseries``) is that hash, a newline and
exactly those bytes.  The hash comes from CPython's builtin SHA-256 module
rather than hashlib, so no command loads OpenSSL.
"""

__version__ = "0.1.0"
