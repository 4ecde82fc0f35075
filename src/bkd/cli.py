"""Batch command-line front-end.

    bkd expand --k 1 --n 100 --format csv --out table.csv
    bkd verify turan3 --k 1 --from 6 --to 5000
    bkd verify theta-mono --k 2 --from 7 --to 5000
    bkd verify bessel --z-grid 1484:10000:50 --prec auto
    bkd verify sandwich --k 1 --from 3512 --to 4000 --prec 384
    bkd scan conjecture --k 1 --r 3 --to 5000

Each range check of `verify` is a row of the table CHECKS, run by the one
loop inequalities.scan_check.  Every `verify` report has the same keys;
`pass` means no failure and no inconclusive point (points below a claim's
validity range are skipped).  With --format csv, sandwich and theta-bounds
print their enclosures per n, and exact checks, which need --margins for
it, the n,margin integers they compared; bessel, phi-psi and `scan` have
no CSV.

--prec sets the bits of the interval checks.  Its default, `auto`, means
for bessel the schedule of asymptotic.remainder_precisions: at each z,
ceil(6 log2 z) + 64 bits, doubled while the margin straddles 0, up to
ceil(1.45 z) + 64.  For sandwich and theta-bounds it means 384 bits, the
interval layer's default, and for phi-psi 256 bits, the precision of
every coefficient enclosure of the two certificates.

Exit codes: 0 all checks pass, 1 mathematical counterexample found,
2 precision-inconclusive outcome, 3 usage error, 4 internal error (the
traceback goes to stderr; no verdict was reached).

`verify dlog` and `scan conjecture` compare exact products of 2^(r-1)
table values; an --r at which one could pass 2^22 bits is a usage error.

Expanded tables are cached under $BKD_CACHE_DIR (default ~/.cache/bkd),
one file delta_k<k>.tbl per k, reused for any smaller N.  Line 1 is a
SHA-256, the checksum `bkd expand` prints; the rest is exactly the bytes
it covers: the algorithm tag, k, N and every coefficient as str() writes
it (etaseries owns the layout).  A file is used only when its tag, k and N
fit the request, its SHA-256 matches, and its first values agree with the
log-derivative oracle.  The hash comes from CPython's builtin SHA-256
module, so no command loads OpenSSL.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import tempfile
import time
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from . import inequalities
from .etaseries import PartitionTable, delta_oracle_logderiv, delta_table, table_from_bytes
from .report import CheckOutcome, VerificationReport

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Table cache
# ---------------------------------------------------------------------------

def _cache_dir() -> str:
    return os.environ.get("BKD_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "bkd"
    )


def _cache_path(k: int) -> str:
    return os.path.join(_cache_dir(), "delta_k%d.tbl" % k)


def _write_cache(path: str, data: bytes) -> None:
    """Replace the cache file at ``path`` by ``data`` atomically.

    Each writer goes through its own temporary file, so concurrent runs
    never write into one file.  The cache is best effort: a failed write
    removes its temporary file and is otherwise ignored.
    """
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):  # e.g. KeyboardInterrupt
            raise


ORACLE_PREFIX = 200  # load_table checks delta_k(0..min(N, 200)) against the oracle


def load_table(k: int, N: int) -> PartitionTable:
    """Table of delta_k(0..N), reusing any cached expansion with N' >= N.
    Its first values must match the oracle's: a cached table that differs
    is rebuilt, a fresh expansion that differs is an internal error."""
    path = _cache_path(k)
    prefix = tuple(delta_oracle_logderiv(k, min(N, ORACLE_PREFIX)))
    try:
        with open(path, "rb") as fp:
            table = table_from_bytes(fp.read(), k, N)
    except OSError:
        table = None
    if table is None or table.coeffs[: len(prefix)] != prefix:
        table = delta_table(k, N)
        if table.coeffs[: len(prefix)] != prefix:
            raise AssertionError("delta_%d expansion differs from the oracle" % k)
        _write_cache(path, table.to_bytes())
    return table


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report_text(obj: dict, fmt: str) -> str:
    """One JSON line for --format json, else one "key: value" line per key."""
    if fmt == "json":
        import json

        return json.dumps(obj, separators=(",", ":")) + "\n"
    return "".join("%s: %s\n" % item for item in obj.items())


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def _cmd_expand(args) -> int:
    table = load_table(args.k, args.n)
    if args.format == "csv":
        payload = table.to_csv()
    elif args.format == "json":
        payload = table.to_json() + "\n"
    else:
        payload = "".join(
            "%d %s\n" % (n, v) for n, v in enumerate(table.coeffs)
        )
    checksum = "k=%d N=%d first=%s last=%s sha256=%s" % (
        table.k,
        table.N,
        table.coeffs[0],
        table.coeffs[-1],
        table.content_hash(),
    )
    if args.out:
        _emit(payload, args.out)
        print(checksum)
    else:
        sys.stdout.write(payload)
        print(checksum, file=sys.stderr)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _parse_prec(value: Optional[str]):
    if value in (None, "auto"):
        return None
    try:
        p = int(value)
    except ValueError:
        raise UsageError("--prec must be an integer or 'auto'")
    if p < 64:
        raise UsageError("--prec must be >= 64")
    return p


def _sandwich(table, prec: int, rows: Optional[list], n: int) -> CheckOutcome:
    from . import asymptotic

    result = asymptotic.sandwich_check(table.k, n, table, prec)
    if rows is not None:
        factors = None if result.g is None else (result.g, result.big_g)
        rows.append((n, result.outcome, None, factors))
    return result.outcome


def _theta_bounds(table, prec: int, rows: Optional[list], n: int) -> CheckOutcome:
    from . import asymptotic

    bounds = asymptotic.ratio_bounds(table.k, n, prec)
    outcome = asymptotic.theta_bounds_check(table.k, n, table, prec, bounds)
    if rows is not None:
        rows.append((n, outcome, bounds, None))
    return outcome


class Check(NamedTuple):
    """A range check of ``bkd verify``.  ``evaluate`` takes the table, the
    option's value or an interval check's (prec, CSV rows), and n last."""

    report: str                # report name; {} takes the option's value
    option: Optional[str]      # "r" or "d" when the check requires it
    lookahead: Optional[int]   # table entries needed past n; None: the option's value
    evaluate: Callable[..., Union[int, CheckOutcome]]
    interval: bool = False     # k in {1, 2}, --from >= 2, --prec, the ratio CSV
    notes: Optional[str] = None


CHECKS = {
    "logconcave": Check("logconcave", None, 1, inequalities.logconcave_margin),
    "turan3": Check("turan3", None, 2, inequalities.turan3_margin),
    "theta-mono": Check("theta-mono", None, 2, inequalities.theta_monotone_margin),
    "dlog": Check("dlog-r{}", "r", None, inequalities.dlog_margin,
                  notes="sign convention: (-1)^(r-1) D^r log delta > 0"),
    "jensen": Check("jensen-d{}", "d", None, inequalities.jensen_margin),
    "sandwich": Check("sandwich", None, 1, _sandwich, interval=True),
    "theta-bounds": Check("theta-bounds", None, 1, _theta_bounds, interval=True),
}
ALL_CHECKS = tuple(CHECKS) + ("bessel", "phi-psi")


DLOG_MAX_BITS = 1 << 22  # the exact products of one D^r log sign; 512 KiB each


def _check_dlog_order(r: int, top: int) -> None:
    """Refuse an order r at which :func:`inequalities.dlog_sign` could form
    a product of more than DLOG_MAX_BITS bits.  Each of its two products
    has factors a(n+j)^C(r,j) whose exponents sum to 2^(r-1), so it has at
    most 2^(r-1) times the bits of ``top``, the largest value it reads."""
    if top.bit_length() << (r - 1) > DLOG_MAX_BITS:
        raise UsageError("--r %d is too large: its exact products could pass "
                         "%d bits" % (r, DLOG_MAX_BITS))


def _verify_range(args, check: Check) -> int:
    """Run a check of the table on [--from, --to] and print its report."""
    value = getattr(args, check.option) if check.option else None
    if check.option and value is None:
        raise UsageError("verify %s requires --%s" % (args.check, check.option))
    leading = (value,) if check.option else ()  # evaluate's arguments before n
    extra = rows = ratio_csv = None
    if check.interval:
        if args.k not in (1, 2):
            raise UsageError("verify %s is stated for --k 1 or 2" % args.check)
        if args.from_n < 2:
            raise UsageError("verify %s needs --from >= 2 (Lambda(n) uses n - 1)"
                             % args.check)
        from . import asymptotic  # loaded before the timed scan

        prec = _parse_prec(args.prec) or asymptotic.DEFAULT_PREC
        rows = [] if args.format == "csv" else None
        leading, extra = (prec, rows), {"prec": prec}
    table = load_table(args.k, args.to + (check.lookahead or value))
    if check.option == "r":
        _check_dlog_order(value, table.coeffs[-1])
    report = inequalities.scan_check(table, check.report.format(value),
                                     partial(check.evaluate, table, *leading),
                                     args.from_n, args.to, collect_margins=args.margins)
    report.notes = check.notes
    if rows is not None:
        ratio_csv = _ratio_csv_rows(args.k, table, prec, rows)
    return _finish_report(args, report, extra, ratio_csv)


def _ratio_csv_rows(k: int, table, prec: int, rows) -> str:
    """Per-n dump: exact theta as a rational, every analytic quantity as
    a decimal enclosure with its precision tag, plus the verdict.

    ``rows`` holds (n, outcome, bounds, factors): the ratio bounds and
    (g, G) the check computed, or None, in which case they are computed here.
    """
    import csv

    from . import asymptotic

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "theta_exact", "theta_lo", "theta_hi",
                "lambda_lo", "lambda_hi", "g", "G", "verdict"])
    for n, outcome, bounds, factors in rows:
        rb = bounds or asymptotic.ratio_bounds(k, n, prec)
        g, big_g = factors or asymptotic.tail_factors(k, n, prec)
        th = asymptotic.theta_exact(table, n)
        w.writerow([
            n,
            "%d/%d" % (th.numerator, th.denominator),
            rb.theta_lo.dumps(), rb.theta_hi.dumps(),
            rb.lambda_lo.dumps(), rb.lambda_hi.dumps(),
            g.dumps(), big_g.dumps(),
            outcome.value,
        ])
    return buf.getvalue()


def _parse_z_grid(spec: str) -> list[float]:
    from . import asymptotic

    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise UsageError("--z-grid expects LO:HI:COUNT")
    if not (0 < lo <= hi) or not math.isfinite(hi) or count < 1:
        raise UsageError("bad z grid %r" % spec)
    if count == 1 and lo != hi:
        raise UsageError("--z-grid %s: one point cannot be both LO and HI" % spec)
    if lo < asymptotic.Z_REMAINDER_MIN:
        raise UsageError(
            "--z-grid LO must be >= (15/2)^6/120 = %s, where the remainder "
            "bound is claimed" % float(asymptotic.Z_REMAINDER_MIN)
        )
    if count == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count - 1)] + [hi]  # ends at HI exactly


def _verify_bessel(args) -> int:
    from . import asymptotic

    grid = _parse_z_grid(args.z_grid or "1484:10000:50")
    prec = _parse_prec(args.prec)
    t0 = time.perf_counter()
    report = VerificationReport(
        check_name="bessel",
        k=args.k or 0,
        from_n=int(grid[0]),
        to_n=int(grid[-1]),
        notes="z-grid %s (failures/inconclusive hold grid indices)"
        % (args.z_grid or "1484:10000:50"),
    )
    precs, raises = [], []
    for i, z in enumerate(grid):
        margin = asymptotic.bessel_remainder_margin(z, prec)
        report.add(i, asymptotic.margin_outcome(margin))
        precs.append(margin.prec)
        raises.append(asymptotic.remainder_precisions(z, prec).index(margin.prec))
    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    extra = {"grid": ["%.6f" % z for z in grid], "prec": precs, "raises": raises}
    return _finish_report(args, report, extra)


def _verify_phi_psi(args) -> int:
    from fractions import Fraction

    from . import positivity

    prec = _parse_prec(args.prec) or positivity.DEFAULT_PREC
    t0 = time.perf_counter()
    psi = positivity.psi_poly()
    report = VerificationReport(
        check_name="phi-psi", k=args.k or 0, from_n=0, to_n=1,
        notes="certificate indices: 0 psi>=0 on [6, oo), 1 phi-psi>=0 on [33/10, oo)",
    )
    certs = {}
    for i, (name, poly, threshold) in enumerate((
        ("psi>=0", psi, Fraction(6)),
        ("phi-psi>=0", positivity.phi_poly() - psi, Fraction(33, 10)),
    )):
        try:
            result = positivity.certify_positive_on_ray(poly, threshold, prec)
        except positivity.Inconclusive:
            report.add(i, CheckOutcome.INCONCLUSIVE)
            continue
        if isinstance(result, positivity.RayRefutation):
            report.add(i, CheckOutcome.FAIL)
        elif result.recheck():
            certs[name] = result.to_json_obj()
        else:
            raise AssertionError("the %s certificate fails its recheck" % name)
    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    return _finish_report(args, report, {"certificates": certs})


def _finish_report(args, report: VerificationReport, extra: Optional[dict] = None,
                   csv_text: Optional[str] = None) -> int:
    """Print the report, with the check-specific keys ``extra``, and return
    its exit code.  CSV is ``csv_text``, else the margins."""
    if args.format == "csv":
        _emit(csv_text or report.margins_csv(), args.out)
    else:
        obj = report.to_json_obj()
        obj.update(extra or {})
        _emit(_report_text(obj, args.format), args.out)
    return report.exit_code


def _cmd_verify(args) -> int:
    if args.check not in ALL_CHECKS:
        raise UsageError(
            "unknown check %r (choose from %s)" % (args.check, ", ".join(ALL_CHECKS))
        )
    check = CHECKS.get(args.check)
    if args.format == "csv" and not (check and (check.interval or args.margins)):
        raise UsageError("verify %s has no CSV output%s"
                         % (args.check, " without --margins" if check else ""))
    if args.check == "bessel":
        return _verify_bessel(args)
    if args.check == "phi-psi":
        return _verify_phi_psi(args)
    if args.k is None:
        raise UsageError("--k is required for this check")
    if args.to is None:
        raise UsageError("--to is required for this check")
    return _verify_range(args, check)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _cmd_scan(args) -> int:
    if args.what != "conjecture":
        raise UsageError("unknown scan %r (only 'conjecture')" % args.what)
    for flag in ("k", "r"):
        if getattr(args, flag) is None:
            raise UsageError("scan conjecture requires --%s" % flag)
    table = load_table(args.k, args.to + args.r)
    _check_dlog_order(args.r, table.coeffs[-1])
    t0 = time.perf_counter()
    candidate, report = inequalities.conjecture_threshold(table, args.r, args.to)
    obj = {
        "check": "conjecture-scan",
        "k": args.k,
        "r": args.r,
        "to": args.to,
        "candidate": candidate,
        "violations": sorted(report.failures),
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(_report_text(obj, args.format), args.out)
    return EXIT_PASS if candidate is not None else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

R_HELP = ("order r of D^r log; an r at which one exact product could pass "
          "2^22 bits is a usage error")
PREC_HELP = ("bits (>= 64), or 'auto', the default: for bessel, ceil(6 log2 z) + 64 "
             "bits, doubled while a margin is undecided; for sandwich and "
             "theta-bounds, 384 bits; for phi-psi, 256 bits")


def build_parser() -> _Parser:
    parser = _Parser(prog="bkd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None)

    p_expand = sub.add_parser("expand", help="write a delta_k table")
    p_expand.add_argument("--k", type=int, required=True)
    p_expand.add_argument("--n", type=int, required=True)
    p_expand.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_expand.add_argument("--out", default=None)
    p_expand.set_defaults(handler=_cmd_expand)

    p_verify = sub.add_parser("verify", help="run a registered check over a range")
    p_verify.add_argument("check")
    common(p_verify, ("csv", "json", "text"))
    p_verify.add_argument("--from", dest="from_n", type=int, default=1)
    p_verify.add_argument("--to", type=int, default=None)
    p_verify.add_argument("--r", type=int, default=None, help=R_HELP)
    p_verify.add_argument("--d", type=int, default=None)
    p_verify.add_argument("--prec", default=None, help=PREC_HELP)
    p_verify.add_argument("--z-grid", dest="z_grid", default=None,
                          help="LO:HI:COUNT logarithmic grid for the bessel check")
    p_verify.add_argument("--margins", action="store_true",
                          help="collect exact per-n margins (csv output)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_scan = sub.add_parser("scan", help="threshold scans")
    p_scan.add_argument("what")
    common(p_scan, ("json", "text"))  # no CSV: the scan reports one candidate
    p_scan.add_argument("--r", type=int, default=None, help=R_HELP)
    p_scan.add_argument("--to", type=int, required=True)
    p_scan.set_defaults(handler=_cmd_scan)

    return parser


def _validate(args) -> None:
    """Reject out-of-range numbers before any work starts, so that an
    exception raised later is an internal error, not a usage error."""
    if getattr(args, "k", None) is not None and args.k < 0:
        raise UsageError("--k must be >= 0")
    if getattr(args, "n", None) is not None and args.n < 0:
        raise UsageError("--n must be >= 0")
    for flag in ("r", "d"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
            raise UsageError("--%s must be >= 1" % flag)
    if getattr(args, "r", None) is not None:
        _check_dlog_order(args.r, 2)  # a(n) >= 2 for n >= 1: refused before any table
    from_n = getattr(args, "from_n", 1)
    if from_n < 1:
        raise UsageError("--from must be >= 1")
    if getattr(args, "to", None) is not None and args.to < from_n:
        raise UsageError("--to %d is below --from %d" % (args.to, from_n))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        return args.handler(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
