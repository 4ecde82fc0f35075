import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bkd
from bkd import positivity
from bkd.cli import main
from bkd.etaseries import PartitionTable, delta_table

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
                if argv[1] == "logconcave":
                    assert "bkd.positivity" not in sys.modules, "logconcave imported positivity"
                    assert traceback_preloaded or "traceback" not in sys.modules, (
                        "a passing command imported traceback")
            assert "mpmath" not in sys.modules, "an exact command imported mpmath"
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
        names = {json.loads(line)["name"] for line in out.read_text().splitlines()}
        assert spans <= names


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
    def test_cache_file_created_and_reused(self, capsys, cache_dir):
        run(capsys, "expand", "--k", "1", "--n", "50")
        path = cache_dir / "delta_k1.json"
        assert path.exists()
        first = path.read_text()
        # a smaller request must reuse the cached expansion unchanged
        run(capsys, "expand", "--k", "1", "--n", "20")
        assert path.read_text() == first
        obj = json.loads(first)
        assert obj["N"] == 50 and obj["coeffs"][3] == "18"

    def test_tampered_cache_rebuilt(self, capsys, cache_dir):
        run(capsys, "expand", "--k", "1", "--n", "30")
        path = cache_dir / "delta_k1.json"
        obj = json.loads(path.read_text())
        obj["coeffs"][5] = "999"  # hash no longer matches
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "30", "--format", "csv")
        assert code == 0
        assert "5,75" in out.splitlines()

    def test_cache_of_other_k_rejected(self, capsys, cache_dir):
        run(capsys, "expand", "--k", "1", "--n", "50")
        (cache_dir / "delta_k2.json").write_text((cache_dir / "delta_k1.json").read_text())
        code, out, _ = run(capsys, "expand", "--k", "2", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "3,19"  # delta_2(3), not delta_1(3) = 18

    def test_cache_hash_is_table_hash(self, capsys, cache_dir):
        _, _, err = run(capsys, "expand", "--k", "1", "--n", "20")
        obj = json.loads((cache_dir / "delta_k1.json").read_text())
        assert "sha256=%s" % delta_table(1, 20).content_hash() in err
        assert obj["sha256"] == delta_table(1, 20).content_hash()

    def test_stale_temp_path_does_not_block_write(self, capsys, cache_dir):
        (cache_dir / "delta_k1.json.tmp").mkdir(parents=True)
        code, _, _ = run(capsys, "expand", "--k", "1", "--n", "20")
        assert code == 0
        table = PartitionTable.from_json_obj(
            json.loads((cache_dir / "delta_k1.json").read_text())
        )
        assert table == delta_table(1, 20)

    def test_failed_write_leaves_no_temp_file(self, capsys, cache_dir):
        (cache_dir / "delta_k1.json").mkdir(parents=True)  # os.replace must fail
        code, out, _ = run(capsys, "expand", "--k", "1", "--n", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[-1] == "3,18"
        assert [p.name for p in cache_dir.iterdir()] == ["delta_k1.json"]


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
    ])
    def test_out_of_range_arguments(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.startswith("usage error:")
