"""Command lists of the benchmark's workloads.

A workload turns a seed into the list of ``bkd`` commands that one pass
runs.  The seed only slides each window inside a fixed narrow band, so the
amount of work is the same for every seed; the program sees nothing but
the generated ranges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One program command and what its output is checked against."""

    kind: str              # which check reads the output
    args: tuple[str, ...]  # argv after ``python -m bkd.cli``
    params: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


SMOKE = Op("smoke", _argv("expand", "--k", 1, "--n", 3), {"k": 1, "N": 3})

# exact-scan: the top of the scanned range lies in [SCAN_BASE, SCAN_BASE + SCAN_BAND)
SCAN_BASE, SCAN_BAND = 1350, 16
# interval-sandwich: the window starts in [SANDWICH_FIRST, SANDWICH_FIRST + SANDWICH_BAND)
SANDWICH_FIRST, SANDWICH_BAND = 3512, 16
SANDWICH_CSV, SANDWICH_JSON = 4, 8
# bessel-remainder: LO in [1485, 1500) with three decimals, HI fixed
BESSEL_LO, BESSEL_BAND, BESSEL_HI, BESSEL_COUNT = 1485, 15, 10000, 4


def exact_scan(seed: int) -> list[Op]:
    """For k = 1, 2: six exact checks, each needing one more table term
    than the one before, then the CSV export of the largest table."""
    rng = random.Random("exact-scan:%d" % seed)
    ops = []
    for k in (1, 2):
        t = SCAN_BASE + rng.randrange(SCAN_BAND)
        # (check, to); the table each needs is to + lookahead: t+1 .. t+6
        for check, to in (("logconcave", t), ("turan3", t), ("theta-mono", t + 1)):
            ops.append(Op("margins", _argv("verify", check, "--k", k, "--from", 1,
                                           "--to", to, "--margins", "--format", "csv"),
                          {"check": check, "k": k, "from": 1, "to": to}))
        ops.append(Op("dlog3", _argv("verify", "dlog", "--k", k, "--r", 3, "--from", 1,
                                     "--to", t + 1, "--format", "json"),
                      {"k": k, "from": 1, "to": t + 1}))
        ops.append(Op("jensen4", _argv("verify", "jensen", "--k", k, "--d", 4, "--from", 1,
                                       "--to", t + 1, "--format", "json"),
                      {"k": k, "from": 1, "to": t + 1}))
        ops.append(Op("conjecture", _argv("scan", "conjecture", "--k", k, "--r", 3,
                                          "--to", t + 3, "--format", "json"),
                      {"k": k, "to": t + 3}))
        ops.append(Op("expand", _argv("expand", "--k", k, "--n", t + 6, "--format", "csv"),
                      {"k": k, "N": t + 6}))
    return ops


def interval_sandwich(seed: int) -> list[Op]:
    """For k = 1, 2: the two-sided sandwich on a window of consecutive
    n >= 3512 at the default 384 bits.  The upper part of the window is
    checked first (JSON report), so the lower part (CSV, Theta printed per
    n) finds the table in the cache."""
    rng = random.Random("interval-sandwich:%d" % seed)
    ops = []
    for k in (1, 2):
        a = SANDWICH_FIRST + rng.randrange(SANDWICH_BAND)
        hi_from, hi_to = a + SANDWICH_CSV, a + SANDWICH_CSV + SANDWICH_JSON - 1
        ops.append(Op("sandwich-json", _argv("verify", "sandwich", "--k", k, "--from", hi_from,
                                             "--to", hi_to, "--format", "json"),
                      {"k": k, "from": hi_from, "to": hi_to}))
        ops.append(Op("sandwich-csv", _argv("verify", "sandwich", "--k", k, "--from", a,
                                            "--to", a + SANDWICH_CSV - 1, "--format", "csv"),
                      {"k": k, "from": a, "to": a + SANDWICH_CSV - 1}))
    return ops


def bessel_remainder(seed: int) -> list[Op]:
    """The I_2 remainder bound on a log grid LO..10^4 at automatic precision."""
    rng = random.Random("bessel-remainder:%d" % seed)
    lo = "%.3f" % (BESSEL_LO + rng.randrange(BESSEL_BAND * 1000) / 1000)
    grid = "%s:%d:%d" % (lo, BESSEL_HI, BESSEL_COUNT)
    return [Op("bessel", _argv("verify", "bessel", "--z-grid", grid, "--format", "json"),
               {"lo": float(lo), "hi": float(BESSEL_HI), "count": BESSEL_COUNT})]


WORKLOADS = {
    "exact-scan": exact_scan,
    "interval-sandwich": interval_sandwich,
    "bessel-remainder": bessel_remainder,
}
