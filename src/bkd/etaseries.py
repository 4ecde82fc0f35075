"""Exact power-series expansion of eta quotients.

A finite eta quotient is a product prod_m prod_{n>=1} (1 - q^{m n})^{e_m}
with distinct positive moduli m and nonzero integer exponents e_m.  The
broken k-diamond counting function delta_k(n) is the coefficient sequence
of one such quotient:

    sum_n delta_k(n) q^n
        = prod_{n>=1} (1-q^{2n}) (1-q^{(2k+1)n})
          / ((1-q^n)^3 (1-q^{(4k+2)n})).

Two independent algorithms are provided:

* :func:`expand_eta_quotient` multiplies and divides by sparse series for
  the factors (q^m;q^m)_inf, where (a;q)_inf = prod_{n>=0} (1 - a q^n).
  Two classical identities (Andrews, *The Theory of Partitions*, 1976,
  ch. 1-2) give the series:

      Euler:  (q^m;q^m)_inf   = sum_{j in Z}  (-1)^j q^{m j(3j-1)/2}
      Jacobi: (q^m;q^m)_inf^3 = sum_{j >= 0} (-1)^j (2j+1) q^{m j(j+1)/2}

  Truncated at q^N they have O(sqrt(N/m)) terms.  The factors with positive
  exponents are multiplied term by term into a sparse product; each factor
  with a negative exponent is then divided out by a dense pass over the
  coefficient array, O(N^1.5) integer operations.  For k >= 1 a table of
  delta_k(0..N) takes two such passes: Jacobi's series divides out
  (q;q)^3 and Euler's series (q^{4k+2};q^{4k+2}).  Division needs no
  inverse series: the divisor has constant term 1, so the quotient is a
  recurrence.
* :func:`delta_oracle_logderiv` runs the logarithmic-derivative recurrence
  n f_n = sum_j w_j f_{n-j} driven by divisor sums.

They share no code and must agree coefficient-for-coefficient, which is
the correctness oracle for everything built on top.  All arithmetic is
over Python's arbitrary-precision integers; no floating point is used.
"""

from __future__ import annotations

import functools
import io
from collections import Counter
from itertools import islice
from operator import mul
from typing import Iterable, Optional

from .report import FrozenRecord

# CPython's builtin SHA-256; hashlib would load OpenSSL for this one digest
try:
    from _sha256 import sha256  # CPython 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

__all__ = [
    "ALGORITHM",
    "EtaQuotientSpec",
    "PartitionTable",
    "broken_diamond_spec",
    "expand_eta_quotient",
    "delta_table",
    "delta_oracle_logderiv",
    "table_from_bytes",
]

# names the expansion behind every table; content_hash covers it, so a
# cached table built by another algorithm is never trusted
ALGORITHM = "eta-quotient/euler-jacobi-passes/1"


class EtaQuotientSpec(FrozenRecord):
    """A finite list of (modulus, exponent) factors of an eta quotient.

    Moduli must be distinct positive integers in ascending order and
    exponents nonzero.  Use :meth:`from_factors` to normalize arbitrary
    input (merging repeated moduli, dropping zero exponents).
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]) -> None:
        if not factors:
            raise ValueError("eta quotient spec must contain at least one factor")
        moduli = [m for m, _ in factors]
        if any(m <= 0 for m in moduli):
            raise ValueError("moduli must be positive integers")
        if any(e == 0 for _, e in factors):
            raise ValueError("exponents must be nonzero")
        if len(set(moduli)) != len(moduli):
            raise ValueError("duplicate moduli: %r" % (moduli,))
        if moduli != sorted(moduli):
            raise ValueError("moduli must be sorted ascending")
        self._set(factors=factors)

    @classmethod
    def from_factors(cls, factors: Iterable[tuple[int, int]]) -> "EtaQuotientSpec":
        merged: Counter[int] = Counter()
        for m, e in factors:
            merged[int(m)] += int(e)
        normalized = tuple(sorted((m, e) for m, e in merged.items() if e != 0))
        return cls(normalized)


def broken_diamond_spec(k: int) -> EtaQuotientSpec:
    """Eta-quotient spec of the broken k-diamond generating function.

    For k >= 1 this is literally [(1, -3), (2, +1), (2k+1, +1), (4k+2, -1)].
    For k = 0 the moduli collide (2k+1 = 1, 4k+2 = 2) and the normalized
    form [(1, -2)] results, i.e. two-colored partitions.
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer, got %r" % (k,))
    return EtaQuotientSpec.from_factors(
        [(1, -3), (2, 1), (2 * k + 1, 1), (4 * k + 2, -1)]
    )


# ---------------------------------------------------------------------------
# Sparse factor series
# ---------------------------------------------------------------------------

def _euler_series(m: int, N: int) -> list[tuple[int, int]]:
    """Nonconstant terms of (q^m;q^m)_inf up to q^N, by Euler's theorem.

    (q^m;q^m)_inf = sum_{j in Z} (-1)^j q^{m j(3j-1)/2}.  The terms come
    as (exponent, coefficient) pairs with ascending exponents; the
    constant term 1 is implied.
    """
    terms = []
    j = 1
    while m * j * (3 * j - 1) // 2 <= N:
        sign = -1 if j % 2 else 1
        terms.append((m * j * (3 * j - 1) // 2, sign))
        if m * j * (3 * j + 1) // 2 <= N:
            terms.append((m * j * (3 * j + 1) // 2, sign))
        j += 1
    return terms


def _jacobi_series(m: int, N: int) -> list[tuple[int, int]]:
    """Nonconstant terms of (q^m;q^m)_inf^3 up to q^N, by Jacobi's identity.

    (q^m;q^m)_inf^3 = sum_{j>=0} (-1)^j (2j+1) q^{m j(j+1)/2}, in the
    same (exponent, coefficient) form as :func:`_euler_series`.
    """
    terms = []
    j = 1
    while m * j * (j + 1) // 2 <= N:
        terms.append((m * j * (j + 1) // 2, (-1) ** j * (2 * j + 1)))
        j += 1
    return terms


def _sparse_product(passes: list[list[tuple[int, int]]], N: int) -> list[int]:
    """prod (1 + series) over ``passes``, truncated to N+1 terms.

    Each pass multiplies term by term: every nonzero term of the product so
    far times every term of the series.  The series are sparse, so this
    costs far fewer operations than a pass over all N+1 entries.
    """
    c = [0] * (N + 1)
    c[0] = 1
    for series in passes:
        for a, v in [(a, v) for a, v in enumerate(c) if v]:
            for e, s in series:
                if a + e > N:
                    break
                c[a + e] += s * v
    return c


def _divide(f: list[int], series: list[tuple[int, int]]) -> list[int]:
    """f / (1 + series), truncated to len(f) terms, computed in place.

    The divisor has constant term 1, so the quotient solves the
    recurrence f[n] -= sum_e c_e * f[n - e] over the terms with e <= n.
    """
    active = 0
    for n in range(1, len(f)):
        while active < len(series) and series[active][0] <= n:
            active += 1
        s = 0
        for e, c in islice(series, active):
            s += c * f[n - e]
        f[n] -= s
    return f


def expand_eta_quotient(spec: EtaQuotientSpec, N: int) -> list[int]:
    """First N+1 coefficients of the eta quotient described by ``spec``.

    A factor (m, e) becomes |e| // 3 passes of Jacobi's series for
    (q^m;q^m)^3 and |e| % 3 passes of Euler's series for (q^m;q^m).  The
    passes with e > 0 form a sparse product, which the passes with e < 0
    then divide, each in one dense pass.  Dividing last keeps the
    intermediate values small.  A series of modulus m has O(sqrt(N/m))
    terms, so a division costs O(N sqrt(N/m)) integer operations.
    """
    if N < 0:
        raise ValueError("truncation order must be >= 0, got %r" % (N,))
    if not isinstance(spec, EtaQuotientSpec):
        spec = EtaQuotientSpec.from_factors(spec)
    multipliers, divisors = [], []
    for m, e in spec.factors:
        cubes, singles = divmod(abs(e), 3)
        passes = [_jacobi_series(m, N)] * cubes + [_euler_series(m, N)] * singles
        (multipliers if e > 0 else divisors).extend(passes)
    c = _sparse_product(multipliers, N)
    for series in divisors:
        _divide(c, series)
    return c


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class PartitionTable(FrozenRecord):
    """Immutable table of exact values delta_k(0..N).

    ``coeffs[n]`` is delta_k(n) as a Python int.  Completed tables are
    safe to share across threads.  The content hash is kept once known;
    it is not a field, so equality, hashing and repr ignore it.
    """

    __slots__ = ("k", "N", "coeffs", "_digest")

    def __init__(self, k: int, N: int, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != N + 1:
            raise ValueError("coefficient array length != N + 1")
        self._set(k=k, N=N, coeffs=coeffs, _digest=None)

    def _fields(self) -> tuple:
        return self.k, self.N, self.coeffs

    def check_invariants(self) -> None:
        """Positivity and monotonicity of the stored values."""
        if self.coeffs[0] != 1:
            raise AssertionError("delta_k(0) != 1")
        for n, v in enumerate(self.coeffs):
            if v <= 0:
                raise AssertionError("nonpositive coefficient at n=%d" % n)
        for n in range(self.N):
            if self.coeffs[n + 1] < self.coeffs[n]:
                raise AssertionError("coefficients decrease at n=%d" % n)

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "delta"])
        w.writerows(enumerate(self.coeffs))
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        # decimal strings, never floats: values overflow doubles fast
        return {"k": self.k, "N": self.N, "coeffs": [str(v) for v in self.coeffs]}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def _hashed_bytes(self) -> bytes:
        """What :meth:`content_hash` covers: "ALGORITHM:k:N:" and the
        comma-joined decimal strings of the coefficients."""
        return ("%s:%d:%d:%s" % (ALGORITHM, self.k, self.N,
                                 ",".join(map(str, self.coeffs)))).encode()

    def content_hash(self) -> str:
        """SHA-256 of the algorithm tag, k, N and every coefficient."""
        if self._digest is None:
            self._set(_digest=sha256(self._hashed_bytes()).hexdigest())
        return self._digest

    def to_bytes(self) -> bytes:
        """The file form, read by :func:`table_from_bytes`: the content
        hash in hex, a newline, then exactly the bytes that hash covers."""
        body = self._hashed_bytes()
        if self._digest is None:
            self._set(_digest=sha256(body).hexdigest())
        return self._digest.encode() + b"\n" + body


def table_from_bytes(data: bytes, k: int, N: int) -> Optional[PartitionTable]:
    """delta_k(0..N) from the bytes of :meth:`PartitionTable.to_bytes`, or None.

    ``data`` is trusted only when its tag is ALGORITHM, it holds delta_k up
    to some N' >= N, its first line is the SHA-256 of the rest, and its
    coefficients are N' + 1 decimal strings exactly as ``str`` writes them,
    so a match vouches for exactly the table written.  Only delta_k(0..N)
    are then converted to integers.
    """
    # ALGORITHM holds no colon, so one split copies the digits and nothing
    # else of size: the hash reads the rest of ``data`` through a view
    parts = data.split(b":", 3)
    if len(parts) != 4:
        return None
    line1, k_text, n_text, digits = parts
    digest, _, tag = line1.partition(b"\n")
    if tag != ALGORITHM.encode() or k_text != b"%d" % k or not n_text.isdigit():
        return None
    stored = int(n_text)
    if (n_text != b"%d" % stored or stored < N
            or digest != sha256(memoryview(data)[len(digest) + 1:]).hexdigest().encode()
            or digits.translate(None, b"0123456789,") or digits.count(b",") != stored):
        return None
    entries = digits.split(b",")
    # among digit strings, an empty entry and one that starts with 0 sort below "1"
    if min(entries) < b"1":
        return None
    table = PartitionTable(k=k, N=N, coeffs=tuple(map(int, entries[: N + 1])))
    if stored == N:  # the digest checked is this table's content hash
        table._set(_digest=digest.decode())
    return table


@functools.lru_cache(maxsize=32)
def delta_table(k: int, N: int) -> PartitionTable:
    """Exact table of delta_k(0..N) by eta-quotient expansion.

    Positivity is asserted before returning; a nonpositive coefficient
    would signal an implementation bug, never expected input.
    Tables are memoized, so repeated requests are cheap.
    """
    if k < 0:
        raise ValueError("k must be >= 0, got %r" % (k,))
    if N < 0:
        raise ValueError("N must be >= 0, got %r" % (N,))
    coeffs = expand_eta_quotient(broken_diamond_spec(k), N)
    for n, v in enumerate(coeffs):
        if v <= 0:
            raise AssertionError(
                "expansion produced nonpositive delta_%d(%d) = %d" % (k, n, v)
            )
    return PartitionTable(k=k, N=N, coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

def _divisor_sums(N: int) -> list[int]:
    """sigma(1..N) by sieving; sigma[j] = sum of divisors of j."""
    sigma = [0] * (N + 1)
    for d in range(1, N + 1):
        for j in range(d, N + 1, d):
            sigma[j] += d
    return sigma


def logderiv_weights(spec: EtaQuotientSpec, N: int) -> list[int]:
    """Weights w_1..w_N of the recurrence n f_n = sum_j w_j f_{n-j}.

    For F = prod_m prod_{n>=1} (1-q^{mn})^{e_m} the logarithmic
    derivative gives w_j = -sum_{m | j} e_m * m * sigma(j / m), where
    sigma is the sum-of-divisors function.
    """
    sigma = _divisor_sums(N)
    w = [0] * (N + 1)
    for m, e in spec.factors:
        for j in range(m, N + 1, m):
            w[j] -= e * m * sigma[j // m]
    return w


def eta_oracle_coeffs(spec: EtaQuotientSpec, N: int) -> list[int]:
    """Coefficients of an eta quotient via the log-derivative recurrence.

    Shares no code path with :func:`expand_eta_quotient`.  The division
    by n in the recurrence must be exact; a nonzero remainder means the
    weight formula is wrong and raises immediately.
    """
    if N < 0:
        raise ValueError("truncation order must be >= 0, got %r" % (N,))
    w = logderiv_weights(spec, N)[1:]
    f = [0] * (N + 1)
    f[0] = 1
    for n in range(1, N + 1):
        # sum_j w_j f_{n-j} for j = 1..n
        q, r = divmod(sum(map(mul, w, f[n - 1 :: -1])), n)
        if r:
            raise AssertionError(
                "inexact division at n=%d: the recurrence weights are wrong" % n
            )
        f[n] = q
    return f


def delta_oracle_logderiv(k: int, N: int) -> list[int]:
    """delta_k(0..N) by the recurrence oracle (cross-validation path)."""
    if k < 0:
        raise ValueError("k must be >= 0, got %r" % (k,))
    return eta_oracle_coeffs(broken_diamond_spec(k), N)

