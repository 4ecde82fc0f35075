"""Tests of the benchmark's references and output checks.

    python3 -m pytest bench/test_checks.py -q

Each check passes on a genuine ``bkd`` output and fails on a copy of it
with one corruption: a coefficient changed, a violation dropped, Theta(n)
swapped with Theta(n+1), or the constant 73 of the remainder bound
replaced by 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import refs
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent


def _op(kind, params, *args):
    return Op(kind, tuple(str(a) for a in args), params)


OPS = {
    "expand": _op("expand", {"k": 2, "N": 300}, "expand", "--k", 2, "--n", 300, "--format", "csv"),
    "margins": _op("margins", {"check": "turan3", "k": 1, "from": 1, "to": 200},
                   "verify", "turan3", "--k", 1, "--from", 1, "--to", 200,
                   "--margins", "--format", "csv"),
    "dlog3": _op("dlog3", {"k": 1, "from": 1, "to": 200},
                 "verify", "dlog", "--k", 1, "--r", 3, "--from", 1, "--to", 200, "--format", "json"),
    "jensen4": _op("jensen4", {"k": 2, "from": 1, "to": 200},
                   "verify", "jensen", "--k", 2, "--d", 4, "--from", 1, "--to", 200,
                   "--format", "json"),
    "conjecture": _op("conjecture", {"k": 2, "to": 200},
                      "scan", "conjecture", "--k", 2, "--r", 3, "--to", 200, "--format", "json"),
    "sandwich-json": _op("sandwich-json", {"k": 1, "from": 3514, "to": 3515},
                         "verify", "sandwich", "--k", 1, "--from", 3514, "--to", 3515,
                         "--format", "json"),
    "sandwich-csv": _op("sandwich-csv", {"k": 1, "from": 3512, "to": 3513},
                        "verify", "sandwich", "--k", 1, "--from", 3512, "--to", 3513,
                        "--format", "csv"),
    "bessel": _op("bessel", {"lo": 1490.5, "hi": 1600.0, "count": 3},
                  "verify", "bessel", "--z-grid", "1490.5:1600:3", "--format", "json"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine program outputs, one per check, from small inputs."""
    cache = tmp_path_factory.mktemp("cache")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BKD_CACHE_DIR=str(cache))
    out = {}
    for name, op in OPS.items():
        proc = subprocess.run([sys.executable, "-m", "bkd.cli", *op.args], env=env,
                              capture_output=True, text=True, timeout=300, cwd=ROOT)
        out[name] = (proc.stdout, proc.returncode)
    return out


@pytest.fixture(scope="module")
def ref():
    return checks.References()


@pytest.mark.parametrize("name", sorted(OPS))
def test_genuine_output_passes(outputs, ref, name):
    out, rc = outputs[name]
    assert checks.check(OPS[name], out, rc, ref) == []


def _replace_line(out: str, index: int, edit) -> str:
    lines = out.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


def _bump_last_field(line: str) -> str:
    head, value = line.rsplit(",", 1)
    return "%s,%d" % (head, int(value) + 1)


def test_changed_coefficient_fails(outputs, ref):
    out, rc = outputs["expand"]
    bad = _replace_line(out, 1 + 157, _bump_last_field)
    assert checks.check(OPS["expand"], bad, rc, ref)


def test_changed_margin_fails(outputs, ref):
    out, rc = outputs["margins"]
    bad = _replace_line(out, 1 + 99, _bump_last_field)
    assert checks.check(OPS["margins"], bad, rc, ref)


def _drop_first(out: str, key: str) -> str:
    obj = json.loads(out)
    assert obj[key], "the genuine output has nothing to drop"
    obj[key] = obj[key][1:]
    return json.dumps(obj)


@pytest.mark.parametrize("name,key", [("conjecture", "violations"), ("dlog3", "failures"),
                                      ("jensen4", "failures")])
def test_dropped_violation_fails(outputs, ref, name, key):
    out, rc = outputs[name]
    assert checks.check(OPS[name], _drop_first(out, key), rc, ref)


def test_swapped_theta_fails(outputs, ref):
    out, rc = outputs["sandwich-csv"]
    lines = out.splitlines()
    first, second = lines[1].split(","), lines[2].split(",")
    first[1], second[1] = second[1], first[1]
    lines[1], lines[2] = ",".join(first), ",".join(second)
    assert checks.check(OPS["sandwich-csv"], "\n".join(lines) + "\n", rc, ref)


def test_report_for_another_window_fails(outputs, ref):
    out, rc = outputs["sandwich-json"]
    obj = json.loads(out)
    obj["from"] = 3516  # the report no longer covers the requested window
    assert checks.check(OPS["sandwich-json"], json.dumps(obj), rc, ref)


def test_remainder_constant_one_fails(outputs):
    out, rc = outputs["bessel"]
    assert checks.check(OPS["bessel"], out, rc, checks.References()) == []
    assert checks.check(OPS["bessel"], out, rc, checks.References(remainder_const=1))


def test_moved_grid_point_fails(outputs, ref):
    out, rc = outputs["bessel"]
    obj = json.loads(out)
    obj["grid"][1] = "%.6f" % (float(obj["grid"][1]) + 0.001)
    assert checks.check(OPS["bessel"], json.dumps(obj), rc, ref)


def test_wrong_exit_code_fails(outputs, ref):
    out, rc = outputs["jensen4"]
    assert rc == 1  # Jensen degree 4 fails at small n
    assert checks.check(OPS["jensen4"], out, 0, ref)


# ---------------------------------------------------------------------------
# the references themselves
# ---------------------------------------------------------------------------

def test_small_values():
    assert refs.delta_reference(1, 3) == [1, 3, 8, 18]
    assert refs.delta_reference(2, 3) == [1, 3, 8, 19]
    # k = 0: two-coloured partitions, 1/(q;q)^2
    assert refs.delta_reference(0, 5) == [1, 2, 5, 10, 20, 36]


def test_congruences_hold_to_1200():
    for k in (1, 2):
        assert refs.congruence_violations(k, refs.delta_reference(k, 1200)) == []


def test_congruence_check_catches_a_change():
    a = refs.delta_reference(1, 50)
    a[21] += 1
    assert refs.congruence_violations(1, a)


def test_conjecture_scan_reference():
    for k, violations in ((1, [2]), (2, [4])):
        a = refs.delta_reference(k, 1210)
        assert [n for n in range(1, 1201) if not refs.dlog3_positive(a, n)] == violations


def _expand(*factors):
    poly = [1]
    for f in factors:  # ascending coefficients
        out = [0] * (len(poly) + len(f) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(f):
                out[i + j] += x * y
        poly = out
    return poly


@pytest.mark.parametrize("factors,real", [
    ([[-1, 1], [-2, 1], [-3, 1], [-4, 1]], True),
    ([[1, 0, 0, 0, 1]], False),
    ([[1, 0, 1], [-1, 1], [-2, 1]], False),
    ([[-1, 1], [-1, 1], [-2, 1], [-3, 1]], True),
    ([[-1, 1], [-1, 1], [1, 0, 1]], False),
    ([[-1, 1]] * 3 + [[-2, 1]], True),
    ([[-1, 1]] * 2 + [[-2, 1]] * 2, True),
    ([[1, 0, 1]] * 2, False),
    ([[-1, 1]] * 4, True),
    ([[3, 2], [-5, 7], [1, 1], [-2, 3]], True),
])
def test_quartic_classification(factors, real):
    e, d, c, b, a = _expand(*factors)
    assert refs.quartic_all_real(a, b, c, d, e) is real


def test_jensen_degree4_threshold():
    # Delta_1: the degree-4 Jensen polynomials fail for n <= 16 only
    a = refs.delta_reference(1, 300)
    assert [n for n in range(0, 290) if not refs.jensen4_hyperbolic(a, n)] == list(range(17))


def test_remainder_is_about_1_13_over_z6():
    import mpmath as mp

    for z in (1490.0, 10000.0):
        with mp.workdps(refs.DPS):
            rem = 73 - refs.bessel_remainder_margin(z) * mp.mpf(z) ** 6
        assert 1.12 < rem < 1.14
