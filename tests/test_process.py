"""The command line as a user runs it: `python -m lcsbeam.cli` in a new process.

One run per documented exit code.  Whatever the code, the process ends
with its own message on stderr, never a Python traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lcsbeam

SRC = Path(lcsbeam.__file__).resolve().parent.parent

GOOD_ENTRY = "gen: uncorr sigma=4 n=2 len=20 seed=1\n"
BAD_ENTRY = "gen: uncorr sigma=4 n=1 len=50 seed=1\n"  # one string: an error row


def run(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LCSBEAM_TABLE_BUDGET_MB", None)
    return subprocess.run(
        [sys.executable, "-m", "lcsbeam.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "code,manifest,argv,stderr",
    [
        (0, None, ["probe", "--sigma", "4", "--n", "3", "--k-range", "2:2"], ""),
        (1, BAD_ENTRY + GOOD_ENTRY,
         ["sweep", "--manifest", "m.txt", "--heuristics", "minlen", "--out", "o.csv"], ""),
        (2, GOOD_ENTRY,
         ["sweep", "--manifest", "m.txt", "--heuristics", "minlen",
          "--out", "no-such-dir/o.csv"],
         "usage error: cannot write no-such-dir/o.csv: No such file or directory\n"),
        (2, None,
         ["solve", "--gen", "corr", "--sigma", "4", "--n", "3", "--len", "20",
          "--seed", "1", "--rate", "abc"],
         "usage error: argument --rate: invalid float value: 'abc' "
         "(see 'lcsbeam solve --help')\n"),
        (3, "gen: corr sigma=4 n=3 len=20 rate=abc seed=1\n",
         ["sweep", "--manifest", "m.txt", "--heuristics", "minlen", "--out", "o.csv"],
         "dataset error: m.txt:1: could not convert string to float: 'abc'\n"),
        (3, "gen: corr sigma=4 n=3 len=20 rat=0.9 seed=1\n",
         ["sweep", "--manifest", "m.txt", "--heuristics", "minlen", "--out", "o.csv"],
         "dataset error: m.txt:1: unknown generator key 'rat'\n"),
    ],
    ids=["ok", "partial", "unwritable-out", "argparse-refusal", "bad-rate", "unknown-key"],
)
def test_exit_code_and_no_traceback(tmp_path, code, manifest, argv, stderr):
    if manifest is not None:
        (tmp_path / "m.txt").write_text(manifest)
    proc = run(tmp_path, *argv)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == stderr
    if code == 1:
        rows = (tmp_path / "o.csv").read_text().splitlines()
        assert sum("error: bad generator entry" in row for row in rows) == 1


def test_every_exported_name_resolves():
    missing = [name for name in lcsbeam.__all__ if not hasattr(lcsbeam, name)]
    assert missing == []
    assert len(set(lcsbeam.__all__)) == len(lcsbeam.__all__)


# a plain file whose second string holds the byte 0xFF: not UTF-8
UNDECODABLE = b"2 2\nAB\n2 AB\n2 A\xff\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "bad.txt", "--heuristic", "minlen"],
        ["solve", "--input", "bad.txt", "--format", "fasta", "--heuristic", "minlen"],
        ["oracle", "--input", "bad.txt"],
        ["sweep", "--manifest", "bad.txt", "--heuristics", "minlen", "--out", "o.csv"],
        ["solve", "--gen", "uncorr", "--sigma", "4", "--n", "2", "--len", "20", "--seed", "1",
         "--heuristic-config", "bad.txt"],
    ],
    ids=["solve-plain", "solve-fasta", "oracle", "sweep-manifest", "heuristic-config"],
)
def test_undecodable_input_is_dataset_error(tmp_path, argv):
    (tmp_path / "bad.txt").write_bytes(UNDECODABLE)
    proc = run(tmp_path, *argv)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("dataset error: cannot read "), proc.stderr


def test_undecodable_manifest_entry_is_partial_failure(tmp_path):
    (tmp_path / "bad.txt").write_bytes(UNDECODABLE)
    (tmp_path / "m.txt").write_text("bad.txt uncorr\n" + GOOD_ENTRY)
    proc = run(tmp_path, "sweep", "--manifest", "m.txt", "--heuristics", "minlen",
               "--out", "o.csv")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    rows = (tmp_path / "o.csv").read_text().splitlines()
    assert sum(",error: cannot read " in row for row in rows) == 1
    assert sum(row.endswith(",ok") for row in rows) == 2  # the good entry and the average

    proc = run(tmp_path, "timing", "--manifest", "m.txt", "--heuristics", "minlen",
               "--repeats", "1")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("warning: skipping entry: cannot read "), proc.stderr
    assert [row.split(",")[1] for row in proc.stdout.splitlines()] == ["heuristic", "minlen"]


SOLVE = ["solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "60", "--seed", "1",
         "--json", "--heuristic"]


@pytest.mark.parametrize(
    "statement",
    ["import lcsbeam", "import lcsbeam.cli"]
    + [f"from lcsbeam import cli; assert cli.main({SOLVE + [h]!r}) == 0"
       for h in ("minlen", "kguess", "kanalytic", "gcov", "hh")],
    ids=["import", "import-cli", "minlen", "kguess", "kanalytic", "gcov", "hh"],
)
def test_solve_path_loads_no_scipy(tmp_path, statement):
    # the kernel's log-gamma lookup is numpy's own, so neither an import nor a
    # solve of any heuristic loads scipy, which only the closed-form routes use
    check = "loaded = [m for m in sys.modules if m.startswith('scipy')]; assert not loaded, loaded"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LCSBEAM_TABLE_BUDGET_MB", None)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; {check}"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
