"""Checks of ``bkd`` outputs against the independent references.

Each check takes one command (an :class:`~workloads.Op`), its standard
output and exit code, and a :class:`References`, and returns a list of
problems; an empty list means the output is correct.  Expected exit codes
follow the program's contract: 0 when every claim in the range holds, 1
when the reference finds a counterexample.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import mpmath as mp

import refs

# a value printed at 30 significant digits must match the reference to this
REL_TOL = mp.mpf(10) ** -25


class References:
    """Reference values, computed once per run and shared by all checks."""

    def __init__(self, remainder_const: int = 73):
        self.remainder_const = remainder_const
        self._tables: dict[int, list[int]] = {}
        self._sandwich: dict[tuple[int, int], dict] = {}
        self._bessel: dict[float, object] = {}

    def table(self, k: int, N: int) -> list[int]:
        have = self._tables.get(k)
        if have is None or len(have) <= N:
            # a little slack, so the next command's slightly longer table is covered
            have = self._tables[k] = refs.delta_reference(k, N + 16)
        return have

    def sandwich(self, k: int, n: int) -> dict:
        if (k, n) not in self._sandwich:
            self._sandwich[k, n] = refs.sandwich_quantities(k, n)
        return self._sandwich[k, n]

    def remainder_margin(self, z: float):
        if z not in self._bessel:
            self._bessel[z] = refs.bessel_remainder_margin(z, self.remainder_const)
        return self._bessel[z]


def _exit(rc: int, failures) -> list[str]:
    want = 1 if failures else 0
    return [] if rc == want else ["exit code %d, expected %d" % (rc, want)]


def _json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _rows(out: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        raise ValueError("CSV header %r, expected %r" % (rows[:1], header))
    return rows[1:]


def _report_fields(obj: dict, check: str, p: dict) -> list[str]:
    problems = []
    for key, want in (("check", check), ("k", p["k"]), ("from", p["from"]), ("to", p["to"])):
        if obj.get(key) != want:
            problems.append("%s = %r, expected %r" % (key, obj.get(key), want))
    return problems


def check_expand(op, out: str, rc: int, ref: References) -> list[str]:
    """Every coefficient of the exported CSV, and the proved congruences."""
    k, N = op.params["k"], op.params["N"]
    rows = _rows(out, ["n", "delta"])
    if [r[0] for r in rows] != [str(n) for n in range(N + 1)]:
        return ["rows are not n = 0..%d" % N]
    got = [int(r[1]) for r in rows]
    want = ref.table(k, N)
    problems = ["Delta_%d(%d) = %d, reference %d" % (k, n, g, want[n])
                for n, g in enumerate(got) if g != want[n]]
    problems += refs.congruence_violations(k, got)
    return problems + _exit(rc, [])


def check_margins(op, out: str, rc: int, ref: References) -> list[str]:
    """Exact per-n margins of logconcave / turan3 / theta-mono."""
    p = op.params
    margin = refs.MARGINS[p["check"]]
    a = ref.table(p["k"], p["to"] + 3)
    rows = _rows(out, ["n", "margin"])
    ns = list(range(p["from"], p["to"] + 1))
    if [r[0] for r in rows] != [str(n) for n in ns]:
        return ["rows are not n = %d..%d" % (p["from"], p["to"])]
    problems = []
    for n, (_, value) in zip(ns, rows):
        want = margin(a, n)
        if int(value) != want:
            problems.append("%s margin at n=%d is %s, reference %d" % (p["check"], n, value, want))
    failures = [n for n in ns if margin(a, n) <= 0]
    return problems + _exit(rc, failures)


def check_dlog3(op, out: str, rc: int, ref: References) -> list[str]:
    """Failures of (-1)^(r-1) D^r log Delta > 0 at r = 3."""
    p = op.params
    a = ref.table(p["k"], p["to"] + 3)
    obj = _json(out)
    failures = [n for n in range(p["from"], p["to"] + 1) if not refs.dlog3_positive(a, n)]
    problems = _report_fields(obj, "dlog-r3", p)
    if obj.get("failures") != failures:
        problems.append("failures %r, reference %r" % (obj.get("failures"), failures))
    return problems + _exit(rc, failures)


def check_jensen4(op, out: str, rc: int, ref: References) -> list[str]:
    """Degree-4 Jensen hyperbolicity by the quartic discriminant test."""
    p = op.params
    a = ref.table(p["k"], p["to"] + 4)
    obj = _json(out)
    failures = [n for n in range(p["from"], p["to"] + 1) if not refs.jensen4_hyperbolic(a, n)]
    problems = _report_fields(obj, "jensen-d4", p)
    if obj.get("failures") != failures:
        problems.append("failures %r, reference %r" % (obj.get("failures"), failures))
    return problems + _exit(rc, failures)


def check_conjecture(op, out: str, rc: int, ref: References) -> list[str]:
    """Violations of the D^3 log sign pattern on 1..to, and the candidate."""
    p = op.params
    a = ref.table(p["k"], p["to"] + 3)
    obj = _json(out)
    violations = [n for n in range(1, p["to"] + 1) if not refs.dlog3_positive(a, n)]
    if not violations:
        candidate = 1
    elif violations[-1] == p["to"]:
        candidate = None
    else:
        candidate = violations[-1] + 1
    problems = []
    if obj.get("violations") != violations:
        problems.append("violations %r, reference %r" % (obj.get("violations"), violations))
    if obj.get("candidate") != candidate:
        problems.append("candidate %r, reference %r" % (obj.get("candidate"), candidate))
    want_rc = 0 if candidate is not None else 1
    if rc != want_rc:
        problems.append("exit code %d, expected %d" % (rc, want_rc))
    return problems


def _sandwich_failures(p: dict, ref: References) -> list[int]:
    a = ref.table(p["k"], p["to"] + 2)
    return [n for n in range(p["from"], p["to"] + 1)
            if not refs.sandwich_holds(ref.sandwich(p["k"], n), refs.theta(a, n))]


def check_sandwich_json(op, out: str, rc: int, ref: References) -> list[str]:
    """Lambda g < Theta < Lambda G at every n of the window, at 384 bits."""
    p = op.params
    obj = _json(out)
    failures = _sandwich_failures(p, ref)
    problems = _report_fields(obj, "sandwich", p)
    for key, want in (("failures", failures), ("inconclusive", []),
                      ("skipped_below_validity", []), ("prec", 384)):
        if obj.get(key) != want:
            problems.append("%s = %r, expected %r" % (key, obj.get(key), want))
    return problems + _exit(rc, failures)


def _enclosure(text: str):
    """'[lo,hi]@prec' -> (lo, hi) as mpf at the reference precision."""
    body = text.split("@")[0].strip("[]")
    lo, hi = body.split(",")
    return mp.mpf(lo), mp.mpf(hi)


def _close(value, text: str) -> bool:
    lo, hi = _enclosure(text)
    return lo - abs(value) * REL_TOL <= value <= hi + abs(value) * REL_TOL


def check_sandwich_csv(op, out: str, rc: int, ref: References) -> list[str]:
    """Per-n row: exact Theta, the g and G enclosures, the closed-form
    Lambda bounds around the Bessel Lambda, and the verdict."""
    p, k = op.params, op.params["k"]
    a = ref.table(k, p["to"] + 2)
    rows = _rows(out, ["n", "theta_exact", "theta_lo", "theta_hi", "lambda_lo",
                       "lambda_hi", "g", "G", "verdict"])
    ns = list(range(p["from"], p["to"] + 1))
    if [r[0] for r in rows] != [str(n) for n in ns]:
        return ["rows are not n = %d..%d" % (p["from"], p["to"])]
    problems = []
    failures = _sandwich_failures(p, ref)
    with mp.workdps(refs.DPS):
        for n, row in zip(ns, rows):
            _, th, _, _, lam_lo, lam_hi, g, big_g, verdict = row
            q = ref.sandwich(k, n)
            if Fraction(th) != refs.theta(a, n):
                problems.append("Theta(%d) = %s is not the reference value" % (n, th))
            if not _close(q["g"], g) or not _close(q["G"], big_g):
                problems.append("g or G at n=%d misses the reference" % n)
            if not (_enclosure(lam_lo)[0] <= q["lambda"] <= _enclosure(lam_hi)[1]):
                problems.append("Lambda(%d) lies outside the printed bounds" % n)
            want = "fail" if n in failures else "pass"
            if verdict != want:
                problems.append("verdict at n=%d is %s, reference %s" % (n, verdict, want))
    return problems + _exit(rc, failures)


def check_bessel(op, out: str, rc: int, ref: References) -> list[str]:
    """The reported grid is the benchmark's log grid, and the verdict at
    each point agrees with const/z^6 - |remainder| from mpmath.besseli."""
    p = op.params
    obj = _json(out)
    grid = refs.log_grid(p["lo"], p["hi"], p["count"])
    reported = obj.get("grid", [])
    problems = []
    if len(reported) != len(grid) or any(
        abs(float(s) - z) > 1e-6 + 1e-12 * z for s, z in zip(reported, grid)
    ):
        problems.append("grid %r is not the log grid %r" % (reported, grid))
    failures = [i for i, z in enumerate(grid) if not ref.remainder_margin(z) > 0]
    for key, want in (("failures", failures), ("inconclusive", [])):
        if obj.get(key) != want:
            problems.append("%s = %r, expected %r" % (key, obj.get(key), want))
    return problems + _exit(rc, failures)


CHECKS = {
    "smoke": check_expand,
    "expand": check_expand,
    "margins": check_margins,
    "dlog3": check_dlog3,
    "jensen4": check_jensen4,
    "conjecture": check_conjecture,
    "sandwich-json": check_sandwich_json,
    "sandwich-csv": check_sandwich_csv,
    "bessel": check_bessel,
}


def check(op, out: str, rc: int, ref: References) -> list[str]:
    """Problems with one command's output; unparseable output is one."""
    try:
        return CHECKS[op.kind](op, out, rc, ref)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
