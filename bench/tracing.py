"""Span tracing of one ``bkd`` command, installed from outside the program.

Run as ``python bench/tracing.py SPANS.jsonl PASS CMD -- <bkd arguments>``
with ``src`` on ``PYTHONPATH``.  It imports ``bkd``, replaces the traced
functions with wrappers in every ``bkd`` module namespace that holds them
(``cli`` imports ``delta_table`` by name, ``inequalities`` imports
``is_hyperbolic``, ``asymptotic`` imports ``wrap``), runs ``bkd.cli.main``
and exits with its code.  Spans stay in memory and are written as JSONL
when the command ends.  Each command runs in its own process, so every
pass starts with an empty ``delta_table`` memo.

A span records layer, name, start, end (wall-clock seconds), its parent
span, the pass and command it belongs to, and the arguments that matter.
``intervals.wrap`` and the ``IntervalReal`` fraction conversions are only
counted: they run thousands of times per command.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, pass_name: str, cmd: int):
        self.pass_name = pass_name
        self.cmd = cmd
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: Counter = Counter()
        self._wall0 = time.time() - time.perf_counter()

    def _now(self) -> float:
        return self._wall0 + time.perf_counter()

    def span(self, layer: str, name: str, fn, describe):
        """Wrap fn; describe(arguments, result, span) gives the span's args."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec = {"id": len(self.spans), "parent": self.stack[-1]["id"] if self.stack else None,
                   "layer": layer, "name": name, "pass": self.pass_name, "cmd": self.cmd,
                   "pid": os.getpid(), "children": []}
            self.spans.append(rec)
            if self.stack:
                self.stack[-1]["children"].append(rec)
            self.stack.append(rec)
            result = None
            rec["start"] = self._now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec["end"] = self._now()
                self.stack.pop()
                rec["args"] = describe(bound.arguments, result, rec)

        return wrapped

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def records(self) -> list[dict]:
        out = []
        for rec in self.spans:
            rec = dict(rec)
            children = rec.pop("children")
            rec["self_s"] = (rec["end"] - rec["start"]) - sum(c["end"] - c["start"] for c in children)
            out.append(rec)
        out.append({"layer": "counts", "name": "counts", "pass": self.pass_name,
                    "cmd": self.cmd, "pid": os.getpid(), "counts": dict(self.counts)})
        return out


def _replace_everywhere(original, replacement) -> None:
    """Point every bkd module attribute that is ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "bkd" or name.startswith("bkd."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import bkd  # noqa: F401  (loads every submodule that re-exports names)
    from bkd import asymptotic, cli, etaseries, inequalities, intervals, positivity

    def _z(value):
        lo = getattr(value, "lo", value)
        return float(lo)

    def delta_table_args(a, result, rec):
        return {"k": a["k"], "N": a["N"], "memo": rec.pop("memo", "miss")}

    memo_fn = etaseries.delta_table

    def delta_table_traced(k, N):
        misses = memo_fn.cache_info().misses
        try:
            return memo_fn(k, N)
        finally:
            tracer.stack[-1]["memo"] = "miss" if memo_fn.cache_info().misses > misses else "hit"

    def load_table_args(a, result, rec):
        rebuilt = any(c["name"] == "delta_table" for c in rec["children"])
        try:
            size = os.path.getsize(cli._cache_path(a["k"]))
        except OSError:
            size = 0
        return {"k": a["k"], "N": a["N"], "event": "rebuild" if rebuilt else "hit",
                "cache_bytes": size}

    def scan_args(a, result, rec):
        return {"k": a["table"].k, "N": a["table"].N, "check": a["check_name"],
                "from": a["from_n"], "to": a["to_n"]}

    def knp_args(a, result, rec):
        return {"k": a["k"], "n": a["n"], "prec": a["prec"]}

    def sandwich_args(a, result, rec):
        out = knp_args(a, result, rec)
        out["outcome"] = result.outcome.value if result is not None else "error"
        return out

    def bessel_args(a, result, rec):
        return {"nu": a["nu"], "z": _z(a["z"]), "prec": a["prec"]}

    def z_prec_args(a, result, rec):
        return {"z": _z(a["z"]), "prec": a["prec"]}

    def auto_prec_args(a, result, rec):
        return {"z": _z(a["z"]), "bits": result}

    def hyperbolic_args(a, result, rec):
        return {"degree": len(a["coeffs"]) - 1, "hyperbolic": result}

    spans = [
        (etaseries, "delta_table", "etaseries", delta_table_traced, delta_table_args),
        (cli, "load_table", "cli", None, load_table_args),
        (inequalities, "scan_check", "inequalities", None, scan_args),
        (positivity, "is_hyperbolic", "positivity", None, hyperbolic_args),
        (asymptotic, "sandwich_check", "asymptotic", None, sandwich_args),
        (asymptotic, "main_term", "asymptotic", None, knp_args),
        (asymptotic, "tail_factors", "asymptotic", None, knp_args),
        (asymptotic, "bessel_i", "asymptotic", None, bessel_args),
        (asymptotic, "bessel_remainder_margin", "asymptotic", None, z_prec_args),
        (asymptotic, "auto_prec", "asymptotic", None, auto_prec_args),
        (asymptotic, "scaled_i2", "asymptotic", None, z_prec_args),
    ]
    for module, name, layer, inner, describe in spans:
        original = getattr(module, name)
        _replace_everywhere(original, tracer.span(layer, name, inner or original, describe))

    _replace_everywhere(intervals.wrap, tracer.counter("intervals.wrap", intervals.wrap))
    cls = intervals.IntervalReal
    for meth in ("lo_fraction", "hi_fraction"):
        setattr(cls, meth, tracer.counter("intervals.fraction", getattr(cls, meth)))


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: tracing.py SPANS.jsonl PASS CMD -- <bkd arguments>", file=sys.stderr)
        return 3
    path, pass_name, cmd = argv[0], argv[1], int(argv[2])
    tracer = Tracer(pass_name, cmd)
    install(tracer)
    from bkd import cli

    try:
        return cli.main(argv[4:])
    finally:
        with open(path, "w", encoding="utf-8") as fp:
            for rec in tracer.records():
                fp.write(json.dumps(rec, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
