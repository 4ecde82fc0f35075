"""Golden outputs of small ``bkd`` commands: the exit code and stdout of
each command in ``data/golden_cli.json``, with ``elapsed_ms`` masked.

A change that alters any of these outputs on purpose regenerates the file
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from bkd.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"

COMMANDS = [
    ["verify", "logconcave", "--k", "1", "--from", "1", "--to", "40", "--margins",
     "--format", "csv"],
    ["verify", "turan3", "--k", "2", "--from", "1", "--to", "40", "--margins",
     "--format", "csv"],
    ["verify", "dlog", "--k", "1", "--r", "3", "--from", "1", "--to", "40", "--margins",
     "--format", "csv"],
    ["verify", "theta-mono", "--k", "2", "--from", "1", "--to", "40", "--format", "json"],
    ["verify", "jensen", "--k", "1", "--d", "4", "--from", "1", "--to", "40",
     "--format", "json"],
    ["verify", "turan3", "--k", "1", "--from", "1", "--to", "30"],
    ["scan", "conjecture", "--k", "1", "--r", "3", "--to", "60", "--format", "json"],
    ["expand", "--k", "2", "--n", "30", "--format", "csv"],
    ["verify", "sandwich", "--k", "1", "--from", "3510", "--to", "3513", "--format", "csv"],
    ["verify", "sandwich", "--k", "2", "--from", "3510", "--to", "3513", "--format", "csv"],
    ["verify", "sandwich", "--k", "1", "--from", "3511", "--to", "3514", "--format", "json"],
    ["verify", "sandwich", "--k", "2", "--from", "3511", "--to", "3514", "--format", "json"],
    ["verify", "theta-bounds", "--k", "1", "--from", "15080", "--to", "15082",
     "--format", "csv"],
    ["verify", "bessel", "--z-grid", "1484:3000:3", "--format", "json"],
    ["verify", "bessel", "--z-grid", "10000:10000:1", "--prec", "64", "--format", "json"],
    ["verify", "phi-psi", "--format", "json"],
]


def _masked(text: str) -> str:
    return re.sub(r'(elapsed_ms"?: ?)\d+', r"\1*", text)


def _replay(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": _masked(buf.getvalue())}


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BKD_CACHE_DIR", str(tmp_path / "cache"))


@pytest.mark.usefixtures("cache_dir")
@pytest.mark.parametrize("case", json.loads(DATA.read_text()) if DATA.exists() else [],
                         ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case):
    assert _replay(case["argv"]) == case


def test_golden_file_lists_every_command():
    assert [case["argv"] for case in json.loads(DATA.read_text())] == COMMANDS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as cache:
        os.environ["BKD_CACHE_DIR"] = cache
        cases = [_replay(argv) for argv in COMMANDS]
    DATA.write_text(json.dumps(cases, indent=1) + "\n")
    print("wrote %d cases to %s" % (len(cases), DATA))
