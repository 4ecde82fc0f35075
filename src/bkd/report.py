"""Shared result types: value records, check outcomes and range reports.

An exact check answers with its integer margin, a failure when <= 0; an
interval or certificate check answers with a :class:`CheckOutcome`.
"""

from __future__ import annotations

import enum
import io
import time
from typing import Callable, Iterable, Optional, Union

__all__ = ["Record", "FrozenRecord", "CheckOutcome", "VerificationReport"]


class Record:
    """Base of the value classes: the attributes named in ``__slots__``
    are the fields, compared in that order and shown unless private.
    Like a dataclass with eq, a mutable record is unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__ if not name.startswith("_")))


class FrozenRecord(Record):
    """A record whose fields are set once, by :meth:`_set` in __init__,
    and hashed, like a frozen dataclass."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # pickle and copy through __init__, which takes the fields in order
        return type(self), self._fields()


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


class VerificationReport(Record):
    """Per-range record of a check: the points that failed, were
    inconclusive or lay below the claim's validity range, exact margins,
    timing.  A point is an n, or an index for a check that scans no n."""

    __slots__ = ("check_name", "k", "from_n", "to_n", "failures", "inconclusive",
                 "skipped", "margins", "runtime_ms", "notes")

    def __init__(self, check_name: str, k: int, from_n: int, to_n: int,
                 failures: Optional[list[int]] = None,
                 inconclusive: Optional[list[int]] = None,
                 skipped: Optional[list[int]] = None,
                 margins: Optional[dict[int, int]] = None,
                 runtime_ms: int = 0, notes: Optional[str] = None) -> None:
        self.check_name, self.k, self.from_n, self.to_n = check_name, k, from_n, to_n
        self.failures = [] if failures is None else failures
        self.inconclusive = [] if inconclusive is None else inconclusive
        self.skipped = [] if skipped is None else skipped
        self.margins, self.runtime_ms, self.notes = margins, runtime_ms, notes

    def run(self, points: Iterable[int],
            evaluate: Callable[[int], Union[int, CheckOutcome]]) -> VerificationReport:
        """The one loop: evaluate each point, file its answer and set
        ``runtime_ms``.  An exact integer margin is a failure when <= 0 and
        is kept per point when ``margins`` is a dict; a CheckOutcome other
        than PASS goes to the list it names."""
        t0 = time.perf_counter()
        failures, margins, ok = self.failures, self.margins, CheckOutcome.PASS
        filed = {CheckOutcome.FAIL: failures, CheckOutcome.INCONCLUSIVE: self.inconclusive,
                 CheckOutcome.HYPOTHESIS_NOT_MET: self.skipped}
        for n in points:
            value = evaluate(n)
            if isinstance(value, CheckOutcome):
                if value is not ok:
                    filed[value].append(n)
                continue
            if margins is not None:
                margins[n] = value
            if value <= 0:
                failures.append(n)
        self.runtime_ms = int((time.perf_counter() - t0) * 1000)
        return self

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
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "margin"])
        for n in sorted(self.margins):
            w.writerow([n, str(self.margins[n])])
        return buf.getvalue()
