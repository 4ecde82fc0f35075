import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bkd
from bkd import cli, positivity
from bkd.cli import main
from bkd.etaseries import ALGORITHM, PartitionTable, delta_table
from bkd.intervals import to_interval

SRC = str(Path(bkd.__file__).resolve().parent.parent)

pytestmark = pytest.mark.usefixtures("cache_dir")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("BKD_CACHE_DIR", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_csv_rows(self, capsys):
        code, out, err = run(capsys, "expand", "--k", "1", "--n", "100", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,delta"
        assert len(lines) == 102  # header + 101 coefficient rows
        assert lines[2] == "1,3"
        assert lines[3] == "2,8"
        assert lines[4] == "3,18"
        assert "sha256=" in err  # checksum goes to stderr when data is on stdout

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,delta", "0,1"]

    def test_json_payload(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "expand", "--k", "2", "--n", "3", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text()) == {
            "k": 2, "N": 3, "coeffs": ["1", "3", "8", "19"],
        }
        assert "first=1 last=19" in out  # checksum on stdout for file output


class TestVerify:
    def test_turan3_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "turan3", "--k", "1", "--from", "6", "--to", "120",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True and obj["failures"] == []

    def test_turan3_counterexample_exit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "turan3", "--k", "1", "--from", "1", "--to", "120",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["failures"] == [2, 4]

    def test_theta_mono(self, capsys):
        code, out, _ = run(
            capsys, "verify", "theta-mono", "--k", "2", "--from", "7", "--to", "200",
            "--format", "json",
        )
        assert code == 0

    def test_dlog_requires_r(self, capsys):
        code, _, err = run(capsys, "verify", "dlog", "--k", "1", "--to", "50")
        assert code == 3 and "requires --r" in err

    def test_jensen(self, capsys):
        code, out, _ = run(
            capsys, "verify", "jensen", "--k", "1", "--d", "3", "--from", "5",
            "--to", "60", "--format", "json",
        )
        assert code == 0

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "nope", "--k", "1", "--to", "5")
        assert code == 3 and "unknown check" in err

    def test_bessel_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bessel", "--z-grid", "1484:1600:2", "--prec", "auto",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True and obj["inconclusive"] == []
        assert obj["prec"] == [128, 128] and obj["raises"] == [0, 0]

    def test_bessel_default_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bessel", "--z-grid", "1484:10000:50", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["grid"]) == 50
        assert obj["failures"] == [] and obj["inconclusive"] == []
        assert obj["raises"] == [0] * 50

    def test_bessel_raised_precision_reported(self, capsys, monkeypatch):
        monkeypatch.setattr("bkd.asymptotic.auto_prec", lambda z: 64)
        code, out, _ = run(
            capsys, "verify", "bessel", "--z-grid", "10000:10000:1", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["prec"] == [128] and obj["raises"] == [1]

    def test_z_grid_ends_at_hi(self, capsys, monkeypatch):
        from bkd import asymptotic

        seen = []

        def spy(z, prec=None):
            seen.append(z)
            return margin(z, prec)

        margin = asymptotic.bessel_remainder_margin
        monkeypatch.setattr(asymptotic, "bessel_remainder_margin", spy)
        code, out, _ = run(capsys, "verify", "bessel", "--z-grid", "1484:1600:2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["to"] == 1600
        assert seen == [1484.0, 1600.0]

    def test_bad_z_grid(self, capsys):
        code, _, err = run(capsys, "verify", "bessel", "--z-grid", "oops")
        assert code == 3

    def test_z_grid_below_threshold(self, capsys):
        code, _, err = run(capsys, "verify", "bessel", "--z-grid", "1400:1500:2")
        assert code == 3
        assert "1483.154296875" in err

    def test_phi_psi_certificates(self, capsys):
        code, out, _ = run(capsys, "verify", "phi-psi", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj["certificates"]) == {"psi>=0", "phi-psi>=0"}

    def test_phi_psi_wide_pi_is_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(positivity, "pi_interval", lambda prec: to_interval((3, 4), prec))
        code, out, _ = run(capsys, "verify", "phi-psi", "--format", "json")
        assert code == 2
        obj = json.loads(out)
        assert (obj["from"], obj["to"]) == (0, 1)
        assert obj["inconclusive"] == [0, 1] and obj["failures"] == []

    def test_phi_psi_prec(self, capsys):
        code, out, _ = run(capsys, "verify", "phi-psi", "--prec", "64", "--format", "json")
        assert code == 0
        witnesses = [c["witness"] for c in json.loads(out)["certificates"].values()]
        assert [w["prec"] for w in witnesses] == [64, 64]

    def test_phi_psi_failed_recheck_is_internal(self, capsys, monkeypatch):
        monkeypatch.setattr(positivity.PositivityCertificate, "recheck", lambda self: False)
        code, out, err = run(capsys, "verify", "phi-psi", "--format", "json")
        assert code == 4 and out == ""
        assert "AssertionError: the psi>=0 certificate fails its recheck" in err

    def test_phi_psi_refutation(self, capsys, monkeypatch):
        monkeypatch.setattr(positivity, "psi_poly", lambda: positivity.PolyQ.make([1, -1]))
        monkeypatch.setattr(positivity, "phi_poly", lambda: positivity.PolyQ.make([0, 1, -1]))
        code, out, _ = run(capsys, "verify", "phi-psi", "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["failures"] == [0, 1] and obj["certificates"] == {}

    def test_margins_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "logconcave", "--k", "1", "--from", "1", "--to", "5",
            "--margins", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,margin"
        assert "1,1" in out.splitlines()

    def test_sandwich_csv_dump(self, capsys):
        code, out, _ = run(
            capsys, "verify", "sandwich", "--k", "1", "--from", "5", "--to", "7",
            "--format", "csv",
        )
        assert code == 0  # below validity: hypothesis-gated, not failed
        lines = out.splitlines()
        assert lines[0] == (
            "n,theta_exact,theta_lo,theta_hi,lambda_lo,lambda_hi,g,G,verdict"
        )
        assert len(lines) == 4
        assert lines[1].startswith("5,") and lines[1].endswith("hypothesis-not-met")
        assert "@384" in lines[1]  # precision tag on every enclosure
        assert "/" in lines[1].split(",")[1]  # theta as an exact rational


    @pytest.mark.parametrize("first,last", [(3512, 3515), (5, 7)])
    def test_sandwich_csv_computes_tail_factors_once(self, capsys, monkeypatch,
                                                     first, last):
        # above the gate the CSV reads g, G from the check; below it the
        # check computes none and the CSV computes them
        from bkd import asymptotic

        calls = []
        original = asymptotic.tail_factors

        def counted(k, n, prec):
            calls.append(n)
            return original(k, n, prec)

        monkeypatch.setattr(asymptotic, "tail_factors", counted)
        code, out, _ = run(
            capsys, "verify", "sandwich", "--k", "1", "--from", str(first),
            "--to", str(last), "--format", "csv",
        )
        assert code == 0
        assert calls == list(range(first, last + 1))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(row[0]) for row in rows] == calls
        for row in rows:
            g, big_g = original(1, int(row[0]), 384)
            assert row[6:8] == [g.dumps(), big_g.dumps()]

    def test_theta_bounds_csv_computes_ratio_bounds_once(self, capsys, monkeypatch):
        # the CSV reads the bounds the check compared instead of
        # computing them again
        from bkd import asymptotic

        calls = []
        original = asymptotic.ratio_bounds

        def counted(k, n, prec):
            calls.append(n)
            return original(k, n, prec)

        monkeypatch.setattr(asymptotic, "ratio_bounds", counted)
        code, out, _ = run(
            capsys, "verify", "theta-bounds", "--k", "1", "--from", "15081",
            "--to", "15084", "--format", "csv",
        )
        assert code == 0
        assert calls == [15081, 15082, 15083, 15084]
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            rb = original(1, int(row[0]), 384)
            assert row[2:6] == [rb.theta_lo.dumps(), rb.theta_hi.dumps(),
                                rb.lambda_lo.dumps(), rb.lambda_hi.dumps()]
            assert row[8] == "pass"

    @pytest.mark.parametrize("argv,margins", [
        (["dlog", "--r", "3"], [1, -1, 1, 1, 1]),
        (["jensen", "--d", "4"], [-1] * 5),
    ])
    def test_sign_scans_write_margins(self, capsys, argv, margins):
        code, out, _ = run(
            capsys, "verify", *argv, "--k", "1", "--from", "1", "--to", "5",
            "--margins", "--format", "csv",
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "margin"]
        assert rows[1:] == [[str(n), str(m)] for n, m in zip(range(1, 6), margins)]


class TestExitCodeMapping:
    def test_inconclusive_maps_to_2(self, capsys):
        import argparse

        from bkd.cli import EXIT_INCONCLUSIVE, _finish_report
        from bkd.report import VerificationReport

        args = argparse.Namespace(format="json", out=None)
        rep = VerificationReport(check_name="x", k=1, from_n=1, to_n=1, inconclusive=[1])
        code = _finish_report(args, rep)
        assert code == EXIT_INCONCLUSIVE
        obj = json.loads(capsys.readouterr().out)
        assert obj["pass"] is False and obj["inconclusive"] == [1]

    def test_bessel_inconclusive_is_not_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bessel", "--z-grid", "10000:10000:1", "--prec", "64",
            "--format", "json",
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["inconclusive"] == [0] and obj["failures"] == []
        assert obj["pass"] is False

    def test_hypothesis_gated_points_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "sandwich", "--k", "1", "--from", "3510", "--to", "3513",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True and obj["skipped_below_validity"] == [3510, 3511]

    def test_internal_error_maps_to_4(self, capsys, monkeypatch):
        def broken(k, N):
            raise AssertionError("invariant violated")

        monkeypatch.setattr("bkd.cli.delta_table", broken)
        code, _, err = run(capsys, "verify", "turan3", "--k", "1", "--to", "20")
        assert code == 4  # not 1, the counterexample code
        assert err.startswith("internal error:")
        assert "AssertionError: invariant violated" in err

    def test_internal_index_error_maps_to_4(self, capsys, monkeypatch):
        def broken(k, N):
            raise IndexError("internal bug")

        monkeypatch.setattr("bkd.cli.load_table", broken)
        code, _, err = run(capsys, "verify", "turan3", "--k", "1", "--to", "20")
        assert code == 4  # not 3, the usage-error code
        assert err.startswith("internal error:")
        assert "IndexError: internal bug" in err

    def test_inexact_chain_division_maps_to_4(self, capsys, monkeypatch):
        prem = positivity._prem_step
        monkeypatch.setattr(positivity, "_prem_step",
                            lambda f, g: [c + 1 for c in prem(f, g)])
        code, _, err = run(capsys, "verify", "jensen", "--k", "1", "--d", "4", "--to", "20")
        assert code == 4
        assert "AssertionError: subresultant division" in err


def run_fresh(script: str, cache_dir) -> subprocess.CompletedProcess:
    """Run a Python script in a new interpreter that imports bkd from SRC."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, BKD_CACHE_DIR=str(cache_dir), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)


class TestImports:
    def test_exact_commands_never_import_mpmath(self, cache_dir):
        proc = run_fresh("""
            import sys
            traceback_preloaded = "traceback" in sys.modules
            from bkd.cli import main
            for argv, code in (
                (["expand", "--k", "1", "--n", "60"], 0),
                (["verify", "logconcave", "--k", "1", "--to", "50"], 0),
                (["verify", "turan3", "--k", "1", "--to", "50"], 1),
                (["verify", "theta-mono", "--k", "2", "--to", "50"], 1),
                (["verify", "dlog", "--k", "1", "--r", "3", "--to", "50"], 1),
                (["verify", "jensen", "--k", "1", "--d", "4", "--to", "50"], 1),
                (["scan", "conjecture", "--k", "2", "--r", "3", "--to", "50"], 0),
            ):
                assert main(argv) == code, argv
                if argv[1] == "jensen":  # the one exact command that loads positivity
                    assert "bkd.positivity" in sys.modules, "jensen skipped positivity"
                    assert "mpmath" not in sys.modules, "positivity imported mpmath"
                if argv[1] == "logconcave":
                    assert "bkd.positivity" not in sys.modules, "logconcave imported positivity"
                    assert traceback_preloaded or "traceback" not in sys.modules, (
                        "a passing command imported traceback")
            assert "mpmath" not in sys.modules, "an exact command imported mpmath"
        """, cache_dir)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv,code", [
        (["verify", "sandwich", "--k", "1", "--from", "3512", "--to", "3513",
          "--format", "csv"], 0),
        (["verify", "theta-bounds", "--k", "2", "--from", "15080", "--to", "15081"], 0),
        (["verify", "bessel", "--z-grid", "1484:1600:2"], 0),
        (["verify", "phi-psi", "--format", "json"], 0),
        (["verify", "turan3", "--k", "1", "--to", "50"], 1),
    ])
    def test_commands_never_import_mpmath(self, cache_dir, argv, code):
        proc = run_fresh("""
            import sys
            from bkd.cli import main
            code = main(%r)
            sys.exit(99 if "mpmath" in sys.modules else code)
        """ % (argv,), cache_dir)
        assert proc.returncode != 99, "the command imported mpmath"
        assert proc.returncode == code, proc.stderr

    @pytest.mark.parametrize("argv,code,writes_csv", [
        (["expand", "--k", "1", "--n", "60", "--format", "text"], 0, False),
        (["expand", "--k", "1", "--n", "60", "--format", "json"], 0, False),
        (["expand", "--k", "1", "--n", "60"], 0, True),
        (["verify", "logconcave", "--k", "1", "--to", "50"], 0, False),
        (["verify", "logconcave", "--k", "1", "--to", "50", "--margins", "--format", "csv"],
         0, True),
        (["verify", "turan3", "--k", "1", "--to", "50"], 1, False),
        (["verify", "theta-mono", "--k", "2", "--to", "50"], 1, False),
        (["verify", "dlog", "--k", "1", "--r", "3", "--to", "50"], 1, False),
        (["verify", "jensen", "--k", "1", "--d", "4", "--to", "50"], 1, False),
        (["verify", "sandwich", "--k", "1", "--from", "3512", "--to", "3513"], 0, False),
        (["verify", "sandwich", "--k", "1", "--from", "3512", "--to", "3513",
          "--format", "csv"], 0, True),
        (["verify", "theta-bounds", "--k", "1", "--from", "3512", "--to", "3513"], 0, False),
        (["verify", "bessel", "--z-grid", "1484:1600:2", "--format", "json"], 0, False),
        (["verify", "phi-psi"], 0, False),
        (["scan", "conjecture", "--k", "2", "--r", "3", "--to", "50"], 0, False),
        (["verify", "logconcave", "--k", "1", "--to", "50", "--format", "json"], 0, False),
        (["scan", "conjecture", "--k", "2", "--r", "3", "--to", "50", "--format", "json"],
         0, False),
    ])
    def test_commands_load_no_openssl_and_csv_only_for_csv(self, cache_dir, argv, code,
                                                          writes_csv):
        # each command in a fresh interpreter: one command's imports cannot
        # hide another's; the second run reads the table the first one cached.
        # json is loaded by exactly the commands that print JSON
        proc = run_fresh("""
            import sys
            watched = {"_hashlib", "csv", "json"}
            preloaded = watched & set(sys.modules)
            from bkd.cli import main
            main(%r)
            code = main(%r)
            print("loaded:", *sorted(watched & set(sys.modules) - preloaded),
                  file=sys.stderr)
            sys.exit(code)
        """ % (argv, argv), cache_dir)
        assert proc.returncode == code, proc.stderr
        loaded = proc.stderr.splitlines()[-1].split()[1:]
        assert "_hashlib" not in loaded, "the command loaded OpenSSL"
        assert ("csv" in loaded) == writes_csv, loaded
        assert ("json" in loaded) == ("json" in argv), loaded

    def test_expand_never_imports_dataclasses(self, cache_dir):
        proc = run_fresh("""
            import sys
            assert "dataclasses" not in sys.modules, "dataclasses preloaded"
            from bkd.cli import main
            assert main(["expand", "--k", "1", "--n", "60"]) == 0
            assert "dataclasses" not in sys.modules, "expand imported dataclasses"
        """, cache_dir)
        assert proc.returncode == 0, proc.stderr

    def test_bessel_imports_what_it_needs(self, cache_dir):
        proc = run_fresh("""
            import sys
            from bkd.cli import main
            sys.exit(main(["verify", "bessel", "--z-grid", "1484:1600:2",
                           "--format", "json"]))
        """, cache_dir)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["grid"]) == 2


class TestTracedNames:
    """``bench/tracing.py`` wraps bkd functions by name from outside the
    program; a rename under ``src/`` must fail here, not silently empty
    the benchmark's per-layer trace."""

    @pytest.mark.parametrize("argv,spans", [
        (["verify", "turan3", "--k", "1", "--to", "50"], {"load_table", "scan_check"}),
        (["verify", "sandwich", "--k", "1", "--from", "3512", "--to", "3513",
          "--format", "json"], {"scan_check", "sandwich_check", "main_term", "bessel_i"}),
        (["verify", "bessel", "--z-grid", "1484:1600:2", "--format", "json"],
         {"bessel_remainder_margin", "bessel_i"}),
    ])
    def test_traced_command(self, cache_dir, tmp_path, argv, spans):
        tracer = Path(SRC).parent / "bench" / "tracing.py"
        out = tmp_path / "spans.jsonl"
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, BKD_CACHE_DIR=str(cache_dir), PYTHONPATH=path)
        proc = subprocess.run([sys.executable, str(tracer), str(out), "cold", "0", "--", *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 1), proc.stderr
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert spans <= {rec["name"] for rec in records}
        if "sandwich_check" in spans:
            # the per-layer interval counters of the benchmark
            counts = next(rec["counts"] for rec in records if rec["layer"] == "counts")
            assert counts.get("intervals.wrap", 0) > 0, counts
            assert counts.get("intervals.fraction", 0) > 0, counts


class TestDeterminism:
    def test_identical_reports_modulo_timing(self, capsys):
        _, out1, _ = run(
            capsys, "verify", "logconcave", "--k", "1", "--to", "300", "--format", "json"
        )
        _, out2, _ = run(
            capsys, "verify", "logconcave", "--k", "1", "--to", "300", "--format", "json"
        )
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b


class TestScan:
    def test_conjecture_r3(self, capsys):
        code, out, _ = run(
            capsys, "scan", "conjecture", "--k", "1", "--r", "3", "--to", "200",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["candidate"] == 3 and obj["violations"] == [2]

    def test_conjecture_r2(self, capsys):
        code, out, _ = run(
            capsys, "scan", "conjecture", "--k", "1", "--r", "2", "--to", "200",
            "--format", "json",
        )
        assert json.loads(out)["candidate"] == 1

    def test_conjecture_k3(self, capsys):
        code, out, _ = run(
            capsys, "scan", "conjecture", "--k", "3", "--r", "2", "--to", "150",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["candidate"] is not None

    def test_requires_r(self, capsys):
        code, _, err = run(capsys, "scan", "conjecture", "--k", "1", "--to", "50")
        assert code == 3

    def test_unknown_scan(self, capsys):
        code, _, _ = run(capsys, "scan", "nothing", "--k", "1", "--to", "50")
        assert code == 3


class TestCache:
    @staticmethod
    def _body(k, N, entries):
        """The bytes a cache file's digest covers, with ``entries`` as the
        coefficient strings."""
        return ("%s:%d:%d:" % (ALGORITHM, k, N) + ",".join(entries)).encode()

    @staticmethod
    def _write(path, body, digest_of=None):
        """A cache file holding ``body`` under the hashlib SHA-256 of
        ``digest_of``, by default of ``body`` itself."""
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(body if digest_of is None else digest_of).hexdigest()
        path.write_bytes(digest.encode() + b"\n" + body)

    @staticmethod
    def _entries(path):
        return path.read_bytes().split(b"\n", 1)[1].split(b":", 3)[3].split(b",")

    @staticmethod
    def _spy_delta_table(monkeypatch):
        calls = []

        def spy(k, N):
            calls.append((k, N))
            return delta_table(k, N)

        monkeypatch.setattr(cli, "delta_table", spy)
        return calls

    def test_cache_file_created_and_reused(self, capsys, cache_dir):
        run(capsys, "expand", "--k", "1", "--n", "50")
        path = cache_dir / "delta_k1.tbl"
        first = path.read_bytes()
        # a smaller request must reuse the cached expansion unchanged
        run(capsys, "expand", "--k", "1", "--n", "20")
        assert path.read_bytes() == first
        assert first.split(b"\n")[1].startswith(("%s:1:50:1,3,8,18," % ALGORITHM).encode())

    def test_cache_hash_is_table_hash(self, capsys, cache_dir):
        # line 1 is the table hash and the checksum expand prints, and the
        # rest is exactly what it covers
        _, _, err = run(capsys, "expand", "--k", "1", "--n", "20")
        table = delta_table(1, 20)
        digest, body = (cache_dir / "delta_k1.tbl").read_bytes().split(b"\n")
        assert digest.decode() == table.content_hash()
        assert "sha256=%s" % table.content_hash() in err
        assert body == self._body(1, 20, map(str, table.coeffs))

    def test_expand_hashes_its_table_once(self, capsys, monkeypatch, cache_dir):
        # the digest computed to write or to read the file is the checksum
        # expand prints, unless the cached table is longer than the one printed
        hashed = []

        def counting_sha256(data):
            hashed.append(len(data))
            return hashlib.sha256(data)

        monkeypatch.setattr(bkd.etaseries, "sha256", counting_sha256)
        # a fresh table on every miss, so no digest is left over from another test
        monkeypatch.setattr(cli, "delta_table", lambda k, N: PartitionTable(
            k=k, N=N, coeffs=delta_table(k, N).coeffs))
        for n, hashes in ((40, 1), (40, 1), (30, 2)):  # miss, hit, longer hit
            hashed.clear()
            code, _, err = run(capsys, "expand", "--k", "1", "--n", str(n))
            digest = hashlib.sha256(self._body(1, n, map(str, delta_table(1, n).coeffs)))
            assert code == 0 and len(hashed) == hashes, (n, hashed)
            assert err.endswith(" sha256=%s\n" % digest.hexdigest())

    def test_tampered_cache_rebuilt(self, capsys, cache_dir):
        run(capsys, "expand", "--k", "1", "--n", "30")
        path = cache_dir / "delta_k1.tbl"
        path.write_bytes(path.read_bytes().replace(b",75,", b",76,"))  # digest no longer matches
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "30", "--format", "csv")
        assert code == 0
        assert "5,75" in out.splitlines()
        assert self._entries(path)[5] == b"75"

    def test_cache_of_other_k_rejected(self, capsys, cache_dir):
        run(capsys, "expand", "--k", "1", "--n", "50")
        (cache_dir / "delta_k2.tbl").write_bytes((cache_dir / "delta_k1.tbl").read_bytes())
        code, out, _ = run(capsys, "expand", "--k", "2", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "3,19"  # delta_2(3), not delta_1(3) = 18

    def test_hashed_wrong_value_caught_by_oracle(self, capsys, cache_dir):
        coeffs = list(delta_table(1, 30).coeffs)
        coeffs[5] = 999
        path = cache_dir / "delta_k1.tbl"
        path.parent.mkdir(parents=True)
        path.write_bytes(PartitionTable(k=1, N=30, coeffs=tuple(coeffs)).to_bytes())
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "10", "--format", "csv")
        assert code == 0
        assert "5,75" in out.splitlines()
        assert self._entries(path)[5] == b"75"  # rewritten

    def test_hash_without_algorithm_tag_rejected(self, capsys, cache_dir):
        # the file's digest, then the whole file, lacks the algorithm tag
        entries = [str(v) for v in delta_table(1, 300).coeffs]
        entries[250] = str(int(entries[250]) + 1)  # past the oracle prefix
        untagged = ("1:300:" + ",".join(entries)).encode()
        for body in (self._body(1, 300, entries), untagged):
            self._write(cache_dir / "delta_k1.tbl", body, untagged)
            code, out, _ = run(capsys, "expand", "--k", "1", "--n", "300", "--format", "csv")
            assert code == 0
            assert out.splitlines()[251] == "250,%s" % delta_table(1, 300).coeffs[250]

    def test_hashlib_digest_file_is_a_hit(self, capsys, monkeypatch, cache_dir):
        self._write(cache_dir / "delta_k1.tbl",
                    self._body(1, 60, map(str, delta_table(1, 60).coeffs)))
        calls = self._spy_delta_table(monkeypatch)
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "40", "--format", "csv")
        assert code == 0 and calls == []
        assert out.splitlines()[-1] == "40,%d" % delta_table(1, 40).coeffs[40]

    @pytest.mark.parametrize("entry", ["018", "+18", "18 ", "1_8", ""])
    def test_non_canonical_entry_rebuilt(self, capsys, monkeypatch, cache_dir, entry):
        # the digest matches the stored bytes, and int() reads each nonempty
        # entry as 18
        entries = [str(v) for v in delta_table(1, 60).coeffs]
        entries[3] = entry
        path = cache_dir / "delta_k1.tbl"
        self._write(path, self._body(1, 60, entries))
        calls = self._spy_delta_table(monkeypatch)
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "60", "--format", "csv")
        assert code == 0 and calls == [(1, 60)]
        assert out.splitlines()[4] == "3,18"
        assert self._entries(path)[3] == b"18"

    def test_json_file_replaced(self, capsys, monkeypatch, cache_dir):
        # a table in the JSON form of earlier versions, at the new path
        table = delta_table(1, 60)
        obj = dict(table.to_json_obj(), sha256=table.content_hash())
        path = cache_dir / "delta_k1.tbl"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(obj, separators=(",", ":")))
        calls = self._spy_delta_table(monkeypatch)
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "60", "--format", "csv")
        assert code == 0 and calls == [(1, 60)]
        assert path.read_bytes() == table.to_bytes()

    def test_fresh_table_checked_against_oracle(self, capsys, monkeypatch):
        table = delta_table(1, 20)
        coeffs = table.coeffs[:7] + (table.coeffs[7] + 1,) + table.coeffs[8:]
        monkeypatch.setattr("bkd.cli.delta_table",
                            lambda k, N: PartitionTable(k=k, N=N, coeffs=coeffs))
        code, _, err = run(capsys, "expand", "--k", "1", "--n", "20")
        assert code == 4
        assert "AssertionError: delta_1 expansion differs from the oracle" in err

    def test_stale_temp_path_does_not_block_write(self, capsys, cache_dir):
        (cache_dir / "delta_k1.tbl.tmp").mkdir(parents=True)
        code, _, _ = run(capsys, "expand", "--k", "1", "--n", "20")
        assert code == 0
        assert (cache_dir / "delta_k1.tbl").read_bytes() == delta_table(1, 20).to_bytes()

    def test_failed_write_leaves_no_temp_file(self, capsys, cache_dir):
        (cache_dir / "delta_k1.tbl").mkdir(parents=True)  # os.replace must fail
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[-1] == "3,18"
        assert [p.name for p in cache_dir.iterdir()] == ["delta_k1.tbl"]


class TestUsage:
    def test_workers_flag_removed(self, capsys):
        code, _, err = run(capsys, "verify", "logconcave", "--k", "1", "--to", "10",
                           "--workers", "2")
        assert code == 3 and "--workers" in err

    def test_missing_to(self, capsys):
        code, _, err = run(capsys, "verify", "logconcave", "--k", "1")
        assert code == 3

    def test_argparse_error_mapped(self, capsys):
        code, _, _ = run(capsys, "expand", "--k", "1")  # missing --n
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("expand", "--k", "1", "--n", "-1"),
        ("verify", "logconcave", "--k", "1", "--from", "0", "--to", "10"),
        ("verify", "logconcave", "--k", "1", "--from", "20", "--to", "10"),
        ("verify", "dlog", "--k", "1", "--r", "-2", "--to", "10"),
        ("verify", "jensen", "--k", "1", "--d", "-1", "--to", "10"),
        ("verify", "sandwich", "--k", "3", "--from", "5", "--to", "7"),
        ("verify", "sandwich", "--k", "1", "--from", "1", "--to", "3", "--format", "csv"),
        ("scan", "conjecture", "--k", "1", "--r", "0", "--to", "50"),
        ("scan", "conjecture", "--r", "3", "--to", "10"),
        ("scan", "conjecture", "--k", "1", "--r", "3", "--to", "10", "--format", "csv"),
        ("verify", "bessel", "--z-grid", "1484:inf:3"),
        ("verify", "bessel", "--z-grid", "1484:1e400:2"),
        ("verify", "bessel", "--z-grid", "1484:10000:1"),
    ])
    def test_out_of_range_arguments(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise RuntimeError("work started before the usage check")

        monkeypatch.setattr(cli, "load_table", no_work)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ("verify", "dlog", "--k", "1", "--r", "40", "--to", "100000"),
        ("scan", "conjecture", "--k", "1", "--r", "40", "--to", "100000"),
    ])
    def test_dlog_order_refused_before_any_table(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise RuntimeError("work started before the usage check")

        monkeypatch.setattr(cli, "load_table", no_work)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("usage error: --r 40 is too large")

    def test_prec_help_names_the_interval_default(self):
        from bkd.intervals import DEFAULT_PREC

        assert "%d bits" % DEFAULT_PREC in cli.PREC_HELP
        assert "%d bits" % DEFAULT_PREC in cli.__doc__

    @pytest.mark.parametrize("argv", [
        ("verify", "dlog", "--k", "1", "--r", "19", "--to", "50"),
        ("scan", "conjecture", "--k", "1", "--r", "19", "--to", "50"),
    ])
    def test_dlog_order_refused_before_the_scan(self, capsys, monkeypatch, argv):
        # 2^18 times the bits of delta_1(69) passes 2^22, though 2^19 alone does not
        def no_scan(*args, **kwargs):
            raise RuntimeError("the scan started before the usage check")

        monkeypatch.setattr(cli.inequalities, "scan_check", no_scan)
        monkeypatch.setattr(cli.inequalities, "conjecture_threshold", no_scan)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("usage error: --r 19 is too large")

    @pytest.mark.parametrize("argv", [
        ("verify", "logconcave", "--k", "1", "--to", "5"),
        ("verify", "turan3", "--k", "1", "--to", "5"),
        ("verify", "theta-mono", "--k", "1", "--to", "5"),
        ("verify", "dlog", "--k", "1", "--r", "3", "--to", "5"),
        ("verify", "jensen", "--k", "1", "--d", "4", "--to", "5"),
        ("verify", "bessel", "--z-grid", "1484:1600:2"),
        ("verify", "bessel", "--z-grid", "1484:1600:2", "--margins"),
        ("verify", "phi-psi"),
    ])
    def test_csv_without_a_csv_dump(self, capsys, monkeypatch, argv):
        # rejected before any work: no table, Bessel sum or certificate
        from bkd import asymptotic

        def no_work(*args):
            raise RuntimeError("work started before the usage check")

        monkeypatch.setattr(cli, "load_table", no_work)
        monkeypatch.setattr(asymptotic, "bessel_remainder_margin", no_work)
        monkeypatch.setattr(positivity, "certify_positive_on_ray", no_work)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 3 and out == ""
        assert err.startswith("usage error: verify %s has no CSV output" % argv[1])
