"""Shared result types: check outcomes and range reports.

An exact check answers with its integer margin, a failure when <= 0; an
interval or certificate check answers with a :class:`CheckOutcome`.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CheckOutcome", "VerificationReport"]


class CheckOutcome(enum.Enum):
    """Result of an interval comparison or a certificate check.

    INCONCLUSIVE means the enclosures were too wide to decide: a precision
    problem, not a mathematical failure.
    HYPOTHESIS_NOT_MET marks inputs outside a claim's validity range,
    where no verdict is asserted at all.
    """

    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass
class VerificationReport:
    """Per-range record of a check: the n that failed, were inconclusive
    or lay below the claim's validity range, exact margins, timing."""

    check_name: str
    k: int
    from_n: int
    to_n: int
    failures: list[int] = field(default_factory=list)
    inconclusive: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    margins: Optional[dict[int, int]] = None
    runtime_ms: int = 0
    notes: Optional[str] = None

    def add(self, n: int, outcome: CheckOutcome) -> None:
        """File the outcome at n; PASS needs no record."""
        if outcome is CheckOutcome.FAIL:
            self.failures.append(n)
        elif outcome is CheckOutcome.INCONCLUSIVE:
            self.inconclusive.append(n)
        elif outcome is CheckOutcome.HYPOTHESIS_NOT_MET:
            self.skipped.append(n)

    @property
    def passed(self) -> bool:
        """Every point passed or lay below the validity range."""
        return not self.failures and not self.inconclusive

    @property
    def exit_code(self) -> int:
        """1 on any failure, else 2 on any inconclusive point, else 0."""
        if self.failures:
            return 1
        return 2 if self.inconclusive else 0

    def to_json_obj(self) -> dict:
        obj = {
            "check": self.check_name,
            "k": self.k,
            "from": self.from_n,
            "to": self.to_n,
            "pass": self.passed,
            "failures": sorted(self.failures),
            "elapsed_ms": self.runtime_ms,
        }
        if self.notes is not None:
            obj["notes"] = self.notes
        obj["inconclusive"] = self.inconclusive
        obj["skipped_below_validity"] = self.skipped
        return obj

    def margins_csv(self) -> str:
        """Per-n exact integer margins as CSV (only if margins were kept)."""
        if self.margins is None:
            raise ValueError("report was produced without margins")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "margin"])
        for n in sorted(self.margins):
            w.writerow([n, str(self.margins[n])])
        return buf.getvalue()
