"""A pinned transcript of the command line: exact stdout, stderr and exit code.

Each entry of `cli_transcript.json` is one invocation of `cli.run`.  The
transcript covers every subcommand in text and `--json` form, every map kind,
each table, small check suites and the exit-2/3 paths.  It leaves out
`--help` and argparse's own errors, whose wording depends on the Python
version, and `--timings`, whose values differ from run to run.

To re-record after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the diff of `cli_transcript.json` entry by entry.
"""

import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

from crossperm import cli

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

# the diagram entries fail before any file is opened, so nothing is written
INVOCATIONS = [
    ["stats", "4735126"],
    ["stats", "4735126", "--json"],
    ["stats", "1"],
    ["stats", "1", "--json"],
    ["stats", "10,2,1,3,4,5,6,7,8,9"],
    ["stats", "3", "1", "2"],
    ["stats", "4725126"],
    ["stats", "abc"],
    ["avoid", "4", "321"],
    ["avoid", "3", "321", "--list"],
    ["avoid", "4", "-"],
    ["avoid", "4", "321,231", "--list"],
    ["avoid", "0", "321", "--list"],
    ["avoid", "-1", "321"],
    ["avoid", "3", "32a"],
    ["avoid", "3", "322"],
    ["map", "theta", "24135867"],
    ["map", "theta-inv", "78534621"],
    ["map", "gamma", "24135867"],
    ["map", "rci", "41532"],
    ["map", "r", "312"],
    ["map", "c", "312"],
    ["map", "i", "312"],
    ["map", "rc", "312"],
    ["map", "fk", "213", "4"],
    ["map", "gk", "3241"],
    ["map", "r", "10", "2", "1", "3", "4", "5", "6", "7", "8", "9"],
    ["map", "theta", "321"],
    ["map", "theta-inv", "132"],
    ["map", "gamma", "321"],
    ["map", "fk", "213"],
    ["map", "fk", "213", "x"],
    ["map", "fk", "213", "9"],
    ["dist", "5", "312,213", "crs"],
    ["dist", "4", "321", "crs", "--json"],
    ["dist", "4", "321,321", "crs", "--json"],
    ["dist", "6", "-", "crs", "--refine", "tail", "--k", "2"],
    ["dist", "6", "-", "crs", "--refine", "tail", "--k", "2", "--json"],
    ["dist", "5", "321", "nes"],
    ["dist", "5", "321", "inv", "--refine", "one-at", "--k", "2"],
    ["dist", "5", "321", "crs", "--refine", "last", "--k", "3", "--json"],
    ["dist", "5", "321", "crs", "--refine", "both", "--k", "2", "--j", "4"],
    ["dist", "0", "-", "maj", "--json"],
    ["dist", "5", "321", "crs", "--k", "2"],
    ["dist", "5", "321", "crs", "--refine", "one-at"],
    ["dist", "5", "321", "crs", "--refine", "one-at", "--k", "2", "--j", "9", "--json"],
    ["dist", "-1", "321", "crs"],
    ["series", "321,231", "--order", "4"],
    ["series", "321,231", "--order", "3", "--json"],
    ["series", "321,321", "--order", "2", "--json"],
    ["series", "213,132", "--order", "5"],
    ["series", "213,132", "--order", "4", "--json"],
    ["series", "312", "--order", "4"],
    ["series", "312", "--order", "3", "--json"],
    ["series", "-", "--order", "3"],
    ["series", "321", "--order", "-1"],
    ["table", "r", "5"],
    ["table", "a076791", "6"],
    ["table", "a299927", "6"],
    ["table", "pascal-corok", "6"],
    ["table", "r", "-1"],
    ["check", "crs-decomposition", "--nmax", "4"],
    ["check", "crs-decomposition", "--nmax", "4", "--json"],
    ["check", "generation", "--nmax", "4"],
    ["check", "generation", "--nmax", "4", "--json"],
    ["check", "frobnicate"],
    ["check", "crs-decomposition", "--nmax", "-1"],
    ["diagram", "dyck", "uddu", "--out", "unwritten.svg"],
    ["diagram", "arcs", "4725126", "--out", "unwritten.svg"],
]


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


@functools.cache
def _pinned() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_transcript_lists_every_invocation():
    assert [entry["argv"] for entry in _pinned()] == INVOCATIONS


@pytest.mark.parametrize("index", range(len(INVOCATIONS)), ids=lambda i: " ".join(INVOCATIONS[i]))
def test_transcript_entry(index, monkeypatch, tmp_path):
    monkeypatch.delenv(cli.ENV_NMAX, raising=False)
    monkeypatch.chdir(tmp_path)
    assert invoke(INVOCATIONS[index]) == _pinned()[index]
    assert not list(tmp_path.iterdir())


if __name__ == "__main__":
    os.environ.pop(cli.ENV_NMAX, None)
    entries = [invoke(argv) for argv in INVOCATIONS]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
