"""The bkd benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload exact-scan --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; nothing needs to be installed.
Every program command is a fresh ``python -m bkd.cli`` process that
imports ``bkd`` from the checkout's ``src``, with ``BKD_CACHE_DIR``
pointing at an empty directory of the benchmark's own.  The load is a
closed loop with one client: a command starts when the previous one has
exited.

A round is the workload's command list run twice on one fresh cache
directory: the cold pass starts from an empty table cache, the warm pass
reuses what the cold pass left.  Rounds repeat while the next one is
expected to end within ``--seconds``, and at least three times (two with
``--trace 1``), so that each command's median is taken over three rounds.
Every output is then checked against the independent references in
``refs.py``.

With ``--trace 0`` the last line reports the end-to-end metrics:
  setup_s      one cold set-up: processor time from this process's start
               through the smoke call ``bkd expand --k 1 --n 3``
  cold_s       processor time of the cold pass
  warm_s       processor time of the warm pass
  peak_rss_mb  largest resident set of any program process
Processor time is user plus system time of the program processes (and of
this process, for set-up), as ``wait4`` reports it.  On a shared virtual
machine the wall time also holds the time the host takes the processor
away, which swings by a fifth from run to run and says nothing about the
program; wall times are kept in the run record.  A pass's time is the sum
over its commands of each command's median over the rounds, which discards
a burst of load that hits one command in one round.
With ``--trace 1`` rounds alternate between untraced and traced (see
``tracing.py``) and the last line reports the per-layer metrics.  Result
records go to ``bench/results/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

HARD_LIMIT_S = 170.0  # the whole run, checks included, ends well within 180 s
CHECK_RESERVE_S = 25.0  # kept free after the last round for the output checks
COMMAND_TIMEOUT_S = 120.0
VERDICT_CODES = (0, 1)  # pass, counterexample; anything else is a failed operation


@dataclass
class Result:
    op: workloads.Op
    pass_name: str
    rc: int
    wall_s: float
    cpu_s: float  # user + system time of the program process
    maxrss_kib: int
    out_path: Path
    spans_path: Path | None
    failed: str | None  # why the operation failed, or None


class Runner:
    """Starts program processes one at a time and records what they cost."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.seq = 0

    def run(self, op, cache: Path, pass_name: str, index: int, traced: bool) -> Result:
        self.seq += 1
        out_path = self.work / ("%04d.out" % self.seq)
        err_path = self.work / ("%04d.err" % self.seq)
        spans_path = self.work / ("%04d.spans.jsonl" % self.seq) if traced else None
        env = dict(os.environ, PYTHONPATH=str(SRC), BKD_CACHE_DIR=str(cache))
        # bytecode is cached in src/ as for an installed program, whatever the caller's setting
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if traced:
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_path),
                    pass_name, str(index), "--", *op.args]
        else:
            argv = [sys.executable, "-m", "bkd.cli", *op.args]
        timeout = max(0.0, min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter()))
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=env, cwd=ROOT)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)  # reaped by wait4
        failed = None
        if timed_out.is_set():
            failed = "timed out after %.0f s" % timeout
        elif rc not in VERDICT_CODES:
            failed = "exit code %d: %s" % (rc, err_path.read_text(errors="replace")[-300:].strip())
        elif traced and not spans_path.exists():
            failed = "no spans written"
        return Result(op, pass_name, rc, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss, out_path, spans_path, failed)


@dataclass
class Round:
    traced: bool
    cold_s: float
    warm_s: float
    results: list[Result]

    @property
    def wall_s(self) -> float:
        return self.cold_s + self.warm_s


def pass_time(rounds: list[Round], pass_name: str, clock: str = "cpu_s") -> float:
    """Sum over the pass's commands of each command's median time."""
    per_command = zip(*([getattr(r, clock) for r in rnd.results if r.pass_name == pass_name]
                        for rnd in rounds))
    return sum(statistics.median(times) for times in per_command)


def run_round(runner: Runner, ops, index: int, traced: bool) -> Round:
    cache = runner.work / ("round%d-cache" % index)
    cache.mkdir()
    walls, results = {}, []
    for pass_name in ("cold", "warm"):
        start = time.perf_counter()
        for i, op in enumerate(ops):
            results.append(runner.run(op, cache, pass_name, i, traced))
        walls[pass_name] = time.perf_counter() - start
    return Round(traced, walls["cold"], walls["warm"], results)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one traced round (both passes)."""
    by = defaultdict(list)
    counts = defaultdict(int)
    for rec in records:
        if rec["layer"] == "counts":
            for key, value in rec["counts"].items():
                counts[key] += value
        else:
            by[rec["name"]].append(rec)

    def total(name):
        return sum(_dur(s) for s in by[name])

    distinct = {(s["pid"], s["args"]["k"], s["args"]["n"], s["args"]["prec"])
                for s in by["main_term"]}
    return {
        "etaseries.delta_table.calls": len(by["delta_table"]),
        "etaseries.delta_table.s": total("delta_table"),
        "etaseries.coeffs_built": sum(s["args"]["N"] + 1 for s in by["delta_table"]
                                      if s["args"]["memo"] == "miss"),
        "cli.load_table.calls": len(by["load_table"]),
        "cli.load_table.hits": sum(s["args"]["event"] == "hit" for s in by["load_table"]),
        "cli.load_table.self_s": sum(s["self_s"] for s in by["load_table"]),
        "cli.cache_bytes": sum(s["args"]["cache_bytes"] for s in by["load_table"]),
        "inequalities.scan_check.s": total("scan_check"),
        "inequalities.scan_check.values": sum(s["args"]["to"] - s["args"]["from"] + 1
                                              for s in by["scan_check"]),
        "positivity.is_hyperbolic.calls": len(by["is_hyperbolic"]),
        "positivity.is_hyperbolic.s": total("is_hyperbolic"),
        "asymptotic.sandwich_check.s": total("sandwich_check"),
        "asymptotic.main_term.calls": len(by["main_term"]),
        "asymptotic.main_term.distinct": len(distinct),
        "asymptotic.tail_factors.s": total("tail_factors"),
        "asymptotic.bessel_i.calls": len(by["bessel_i"]),
        "asymptotic.bessel_i.s": total("bessel_i"),
        "asymptotic.bessel_remainder_margin.s": total("bessel_remainder_margin"),
        "asymptotic.auto_prec.bits": sum(s["args"]["bits"] or 0 for s in by["auto_prec"]),
        "asymptotic.scaled_i2.s": total("scaled_i2"),
        "intervals.wrap.calls": counts["intervals.wrap"],
        "intervals.fraction.calls": counts["intervals.fraction"],
    }


def self_times(records: list[dict]) -> dict:
    """Self seconds per traced function and pass."""
    out = defaultdict(float)
    for rec in records:
        if rec["layer"] != "counts":
            out["%s.%s.%s" % (rec["layer"], rec["name"], rec["pass"])] += rec["self_s"]
    return dict(sorted(out.items()))


def read_spans(rnd: Round, index: int) -> list[dict]:
    records = []
    for res in rnd.results:
        if res.spans_path is not None and res.spans_path.exists():
            for line in res.spans_path.read_text().splitlines():
                rec = json.loads(line)
                rec["round"] = index
                records.append(rec)
    return records


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def machine() -> dict:
    import mpmath

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
    }


def steal_s() -> float | None:
    """CPU time the host took from this virtual machine since boot, if known."""
    try:
        with open("/proc/stat", encoding="utf-8") as fp:
            fields = fp.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {".s": "s", "_s": "s", "bytes": "bytes", "bits": "bits"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bkd" / "cli.py").is_file():
        print("no bkd sources at %s: run from the root of a checkout" % SRC, file=sys.stderr)
        return 2

    # on SIGTERM, unwind: the running command is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = T0 + HARD_LIMIT_S
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, deadline: float) -> int:
    ops = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(work, deadline)
    (work / "setup-cache").mkdir()
    smoke = runner.run(workloads.SMOKE, work / "setup-cache", "setup", 0, False)
    setup_wall_s = time.perf_counter() - T0
    own = resource.getrusage(resource.RUSAGE_SELF)
    setup_s = own.ru_utime + own.ru_stime + smoke.cpu_s

    rounds: list[Round] = []
    steal_start = steal_s()
    start = time.perf_counter()
    min_rounds = 2 if args.trace else 3
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(runner, ops, len(rounds), traced))
        longest = max(r.wall_s for r in rounds)
        now = time.perf_counter()
        if len(rounds) >= min_rounds and (now - start + longest > args.seconds
                                          or now + longest > deadline - CHECK_RESERVE_S):
            break
    measured_s = time.perf_counter() - start
    steal_end = steal_s()

    import checks  # imports mpmath; kept out of the set-up time

    ref = checks.References()
    results = [smoke] + [res for rnd in rounds for res in rnd.results]
    failed = [res for res in results if res.failed]
    problems = []
    for res in results:
        if not res.failed:
            out = res.out_path.read_text(encoding="utf-8", errors="replace")
            problems += ["%s [%s]: %s" % (res.op.label, res.pass_name, p)
                         for p in checks.check(res.op, out, res.rc, ref)]

    untraced = [r for r in rounds if not r.traced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "commands": [op.label for op in ops],
        "rounds": [{"traced": r.traced, "cold_s": r.cold_s, "warm_s": r.warm_s,
                    "commands_s": [round(res.wall_s, 4) for res in r.results],
                    "commands_cpu_s": [round(res.cpu_s, 4) for res in r.results]}
                   for r in rounds],
        "measured_s": measured_s,
        "wall_s": {"setup_s": setup_wall_s, "cold_s": pass_time(untraced, "cold", "wall_s"),
                   "warm_s": pass_time(untraced, "warm", "wall_s")},
        "host_steal_s": None if steal_start is None else steal_end - steal_start,
        "failed_ops": ["%s [%s]: %s" % (r.op.label, r.pass_name, r.failed) for r in failed],
        "problems": problems[:100],
    }
    if args.trace:
        traced_rounds = [(i, r) for i, r in enumerate(rounds) if r.traced]
        spans = [read_spans(r, i) for i, r in traced_rounds]
        per_round = [layer_metrics(s) for s in spans]
        # median_low keeps counts whole: they are the same in every traced round
        layers = {name: statistics.median_low(m[name] for m in per_round)
                  for name in per_round[0]}
        traced_only = [r for _, r in traced_rounds]
        layers["bench.trace_overhead_s"] = sum(
            pass_time(traced_only, p) - pass_time(untraced, p) for p in ("cold", "warm"))
        metrics = {name: metric(value, layer_unit(name)) for name, value in layers.items()}
        record["self_s"] = self_times(spans[0])
        record["per_pass"] = {
            p: layer_metrics([s for s in spans[0] if s["pass"] == p]) for p in ("cold", "warm")}
        trace_path = RESULTS / ("%s-seed%d.trace.jsonl" % (args.workload, args.seed))
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "cold_s": metric(pass_time(untraced, "cold"), "s"),
            "warm_s": metric(pass_time(untraced, "warm"), "s"),
            "peak_rss_mb": metric(max(r.maxrss_kib for r in results) / 1024, "MiB"),
        }
    record["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(trace_path, "w", encoding="utf-8") as fp:
            for batch in spans:
                for rec in batch:
                    fp.write(json.dumps(rec, separators=(",", ":")) + "\n")

    print("machine: %s" % json.dumps(record["machine"]))
    print("measured %.1f s wall, host steal %s s" % (measured_s, record["host_steal_s"]))
    for i, r in enumerate(rounds):
        print("round %d%s: cold %.3f s, warm %.3f s wall" % (i, " traced" if r.traced else "",
                                                            r.cold_s, r.warm_s))
    for key, value in record.get("self_s", {}).items():
        print("self time %s: %.4f s" % (key, value))
    for line in record["failed_ops"][:10]:
        print("FAILED: %s" % line)
    for line in problems[:10]:
        print("WRONG: %s" % line)
    print("record: %s" % (RESULTS / name).relative_to(ROOT))
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
