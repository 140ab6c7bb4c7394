"""End-to-end command-line tests: flags, exit codes, CSV/JSON schemas."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam import cli
from lcsbeam.cli import (
    EXIT_DATASET,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    main,
    resolve_heuristic,
    run_named_heuristic,
)
from lcsbeam.datasets import Family
from lcsbeam.engine import BeamConfig, beam_search, search_bytes, verify_solution
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec
from lcsbeam.datasets import gen_uncorrelated
from lcsbeam.instance import table_budget_bytes
from lcsbeam.oracle import lcs2_bytes, lcs3_bytes
from lcsbeam.probability import CapacityError

WORKED_FILE = "2 3\nABC\n8 BCABAABC\n8 CAACBBAA\n"

# An entry whose probability-scored solves `refuse_probability_solves` makes
# fail with CapacityError, while minlen still solves it.
REFUSED_ENTRY = "gen: uncorr sigma=7 n=2 len=23 seed=5\n"
REFUSAL = "refused by the test"

# Under `budget_between_entries(...)` the first entry's instance tables and its
# beta=5 searches fit, and the second's tables are refused before they are built.
BUDGET_MANIFEST = (
    "gen: uncorr sigma=4 n=2 len=20 seed=1\n"
    "gen: uncorr sigma=4 n=10 len=200 seed=1\n"
)


def table_charge(instance):
    """What the budget check charges for the two tables of an instance of this shape."""
    return table_budget_bytes(instance.n_strings, instance.max_len, instance.sigma_size)


def budget_mib(need):
    """A LCSBEAM_TABLE_BUDGET_MB value of exactly `need` bytes."""
    return repr(need / 2**20)


def budget_between_entries(*heuristics):
    """The budget that fits BUDGET_MANIFEST's first entry, and its beta=5
    search under each named heuristic, and not the second entry."""
    fits, _ = gen_uncorrelated(4, 2, 20, 1)
    refused, _ = gen_uncorrelated(4, 10, 200, 1)
    searches = [BeamConfig(heuristic=resolve_heuristic(name, Family.UNCORRELATED), beta=5)
                for name in heuristics]
    need = max([table_charge(fits)] + [search_bytes(fits, config) for config in searches])
    assert need < table_charge(refused)
    return budget_mib(need)


def refuse_probability_solves(monkeypatch):
    """Make the CLI's solves raise CapacityError for probability heuristics."""
    real = cli.beam_search

    def refusing(instance, config):
        if config.heuristic.kind.uses_probability:
            raise CapacityError(REFUSAL)
        return real(instance, config)

    monkeypatch.setattr(cli, "beam_search", refusing)


# A generator line that every generator refuses (one string), and the
# flags of a small valid generated instance.
BAD_GEN_ENTRY = "gen: uncorr sigma=4 n=1 len=50 seed=1\n"
GOOD_GEN_ENTRY = "gen: uncorr sigma=4 n=2 len=20 seed=1\n"
GEN_FLAGS = {"--gen": "corr", "--sigma": "4", "--n": "3", "--len": "20", "--seed": "1"}


def flag_argv(flags):
    return [item for pair in flags.items() for item in pair]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFamilyResolution:
    def test_kanalytic_follows_family(self):
        assert (
            resolve_heuristic("kanalytic", Family.CORRELATED).kind
            is HeuristicKind.PROB_K_ANALYTIC_CORR
        )
        assert (
            resolve_heuristic("kanalytic", Family.UNCORRELATED).kind
            is HeuristicKind.PROB_K_ANALYTIC_UNCORR
        )
        assert (
            resolve_heuristic("kanalytic", Family.UNKNOWN).kind
            is HeuristicKind.PROB_K_ANALYTIC_UNCORR
        )

    def test_other_names(self):
        assert resolve_heuristic("minlen", Family.UNKNOWN).kind is HeuristicKind.MINLEN
        assert resolve_heuristic("gcov", Family.UNKNOWN).kind is HeuristicKind.GCOV
        assert (
            resolve_heuristic("kguess", Family.CORRELATED).kind
            is HeuristicKind.PROB_K_GUESS
        )

    def test_run_named_heuristic_leaves_caller_dict(self):
        inst, desc = gen_uncorrelated(4, 3, 30, 1)
        config_kw = {"beta": 5, "beta_h": 5, "dominance_filter": False}
        before = dict(config_kw)
        run_named_heuristic(inst, desc, "hh", config_kw)
        assert config_kw == before


class TestSolve:
    def test_plain_input(self, capsys, tmp_path):
        path = tmp_path / "worked.txt"
        path.write_text(WORKED_FILE)
        code, out, _ = run_cli(
            capsys, "solve", "--input", str(path), "--heuristic", "minlen", "--beta", "4"
        )
        assert code == EXIT_OK
        assert "verified:   true" in out

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "40",
            "--seed", "5", "--heuristic", "kguess", "--beta", "20", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["length"] == len(payload["solution"])
        assert json.dumps(json.loads(json.dumps(payload, sort_keys=True)), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_solution_matches_direct_api(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "40",
            "--seed", "5", "--heuristic", "kguess", "--beta", "20", "--json",
        )
        payload = json.loads(out)
        inst, _ = gen_uncorrelated(4, 3, 40, 5)
        direct = beam_search(
            inst,
            BeamConfig(heuristic=HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS), beta=20),
        )
        assert payload["solution"] == direct.solution
        assert verify_solution(inst, payload["solution"])

    def test_hyper_heuristic_reports_choice(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "50",
            "--seed", "2", "--heuristic", "hh", "--beta", "20", "--beta-h", "6", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["chosen_heuristic"] in ("kanalytic-uncorr", "kanalytic-corr", "gcov")
        assert len(payload["probe_lengths"]) == 2

    def test_hyper_heuristic_reports_probe_times(self, capsys):
        flags = (
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "50",
            "--seed", "2", "--heuristic", "hh", "--beta", "20", "--beta-h", "6",
        )
        code, out, _ = run_cli(capsys, *flags, "--json")
        assert code == EXIT_OK
        times = json.loads(out)["probe_wall_times"]
        assert len(times) == 2 and all(t > 0.0 for t in times)
        code, out, _ = run_cli(capsys, *flags)
        assert code == EXIT_OK
        chosen = next(line for line in out.splitlines() if line.startswith("chosen:"))
        assert "probes=(" in chosen and "probe_ms=(" in chosen

    def test_family_flag_selects_corr_rule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "30",
            "--seed", "2", "--heuristic", "kanalytic", "--family", "corr",
            "--beta", "10", "--json",
        )
        payload = json.loads(out)
        assert payload["config"]["heuristic"]["kind"] == "kanalytic-corr"

    def test_heuristic_config_file(self, capsys, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"kind": "kanalytic-corr", "c": 25.0}))
        code, out, _ = run_cli(
            capsys,
            "solve", "--gen", "corr", "--sigma", "4", "--n", "3", "--len", "40",
            "--seed", "8", "--heuristic-config", str(config), "--beta", "10", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["heuristic"]["kind"] == "kanalytic-corr"
        assert payload["config"]["heuristic"]["c"] == 25.0

    def test_bad_heuristic_config(self, capsys, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"kind": "not-a-kind"}))
        code, _, err = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "2", "--len", "10",
            "--seed", "1", "--heuristic-config", str(config),
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("spec", [
        {"kind": "kanalytic-uncorr", "a": math.nan},
        {"kind": "kanalytic-corr", "c": -math.inf},
        {"kind": "kguess", "fixed_k": 2.5},
        {"kind": "gcov", "a": "x"},
        {"kind": "gcov", "gamma_slope": math.inf},
    ])
    def test_bad_heuristic_config_value(self, capsys, tmp_path, spec):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        code, out, err = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "20",
            "--seed", "1", "--heuristic-config", str(config),
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: bad heuristic config: ")

    def test_heuristic_config_past_the_float_range(self, capsys, tmp_path):
        # a finite constant whose k rule overflows still gives a target in range
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"kind": "kanalytic-uncorr", "a": 1e308}))
        code, out, _ = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "20",
            "--seed", "1", "--heuristic-config", str(config), "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verified"] and payload["config"]["heuristic"]["a"] == 1e308

    @pytest.mark.parametrize("spec,code", [
        ({"kind": "gcov", "gamma_slope": 1e308}, EXIT_USAGE),
        ({"kind": "gcov", "gamma_slope": 1000}, EXIT_USAGE),
        ({"kind": "gcov", "gamma_intercept": 400}, EXIT_USAGE),
        # N=3 and remainders up to 20 leave the float range past 133.29 and -132.55
        ({"kind": "gcov", "gamma_slope": 0, "gamma_intercept": 133.3}, EXIT_USAGE),
        ({"kind": "gcov", "gamma_slope": 0, "gamma_intercept": 133.2}, EXIT_OK),
        ({"kind": "gcov", "gamma_slope": 0, "gamma_intercept": -132.6}, EXIT_USAGE),
        ({"kind": "gcov", "gamma_slope": 0, "gamma_intercept": -132.5}, EXIT_OK),
    ])
    def test_gcov_exponent_past_the_float_range(self, capsys, tmp_path, spec, code):
        # refused before the first level, where var^gamma or a score would
        # overflow, vanish or turn NaN (a RuntimeWarning fails the test)
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        got, out, err = run_cli(
            capsys,
            "solve", "--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "20",
            "--seed", "1", "--heuristic-config", str(config), "--json",
        )
        assert got == code
        if code == EXIT_OK:
            assert json.loads(out)["verified"] and err == ""
        else:
            assert out == ""
            assert err.startswith("domain error: gcov exponent ")
            assert err.endswith(" out of the float range for remainders up to 20\n")

    def test_gcov_exponent_past_the_float_range_is_a_sweep_row(self, capsys, tmp_path,
                                                                monkeypatch):
        monkeypatch.setattr(HeuristicSpec, "gamma", lambda self, n_strings: 400.0)
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen,gcov",
            "--out", str(out_csv), "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = {r["heuristic"]: r for r in read_csv(out_csv) if r["dataset"] != "average"}
        assert rows["minlen"]["status"] == "ok"
        assert rows["gcov"]["status"].startswith("error: gcov exponent 400.0 for N=")

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--gen", "uncorr", "--sigma", "4", "--n", "2", "--len", "10"
        )
        assert code == EXIT_USAGE
        assert "seed" in err

    def test_missing_file_is_dataset_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--input", "/nonexistent/x.txt")
        assert code == EXIT_DATASET

    def test_refused_instance_is_capacity_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.001")
        code, _, err = run_cli(
            capsys, "solve", "--gen", "uncorr", "--sigma", "4", "--n", "10", "--len", "200",
            "--seed", "1", "--heuristic", "minlen",
        )
        assert code == EXIT_DATASET
        assert err.startswith("capacity error: instance tables for N=10")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("source", ["gen", "input"])
    def test_non_finite_budget_is_capacity_error(self, capsys, monkeypatch, tmp_path, raw, source):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", raw)
        if source == "gen":
            flags = ("--gen", "uncorr", "--sigma", "4", "--n", "3", "--len", "20", "--seed", "1")
        else:
            path = tmp_path / "worked.txt"
            path.write_text(WORKED_FILE)
            flags = ("--input", str(path))
        code, out, err = run_cli(capsys, "solve", *flags, "--heuristic", "minlen")
        assert (code, out) == (EXIT_DATASET, "")
        assert err == f"capacity error: LCSBEAM_TABLE_BUDGET_MB is not a finite number: '{raw}'\n"

    def test_sixteen_bit_tables_fit_where_int32_tables_did_not(self, capsys, monkeypatch):
        # sigma=20, N=10, len=1000: a budget that holds the charge for uint16
        # tables and the beta=5 search refuses the charge for int32 tables
        uint16, _ = gen_uncorrelated(20, 10, 1000, 1)
        with monkeypatch.context() as mp:
            mp.setattr("lcsbeam.instance.table_dtype", lambda max_len: np.dtype(np.int32))
            int32 = table_charge(uint16)
        minlen = BeamConfig(heuristic=HeuristicSpec(kind=HeuristicKind.MINLEN), beta=5)
        need = max(table_charge(uint16), search_bytes(uint16, minlen))
        assert need < int32
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", budget_mib(need))
        argv = ("solve", "--gen", "uncorr", "--sigma", "20", "--n", "10", "--len", "1000",
                "--seed", "1", "--heuristic", "minlen", "--beta", "5")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "length:" in out
        monkeypatch.setattr("lcsbeam.instance.table_dtype", lambda max_len: np.dtype(np.int32))
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_DATASET
        assert err.startswith(
            "capacity error: instance tables for N=10, max_len=1000, sigma=20: "
            f"{int32 / 2**20:.1f} MiB needed, budget is {need / 2**20:.1f} MiB"
        )

    def test_search_over_budget_is_capacity_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "1")
        code, _, err = run_cli(
            capsys, "solve", "--gen", "uncorr", "--sigma", "4", "--n", "200", "--len", "20",
            "--seed", "1", "--heuristic", "minlen", "--beta", "2000",
        )
        assert code == EXIT_DATASET
        assert err.startswith("capacity error: search for beta=2000, N=200, sigma=4")

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--bogus"])
        assert exc.value.code == 2


class TestSweep:
    def test_schema_and_averages(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "gen: uncorr sigma=4 n=3 len=40 seed=1\n"
            "gen: uncorr sigma=4 n=3 len=40 seed=2\n"
        )
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--manifest", str(manifest),
            "--heuristics", "minlen,kguess", "--out", str(out_csv), "--beta", "20",
        )
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header[:8] == ["dataset", "sigma", "n", "len", "heuristic", "length", "ms", "seed"]
        rows = read_csv(out_csv)
        data = [r for r in rows if r["dataset"] != "average"]
        avgs = [r for r in rows if r["dataset"] == "average"]
        assert len(data) == 4
        assert len(avgs) == 2
        for avg in avgs:
            member = [
                float(r["length"]) for r in data if r["heuristic"] == avg["heuristic"]
            ]
            assert float(avg["length"]) == pytest.approx(
                sum(member) / len(member), abs=1e-9
            )
        for r in rows:
            assert r["status"] == "ok"
            float(r["ms"])  # parses as a decimal

    def test_rows_follow_manifest_order(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "gen: uncorr sigma=4 n=2 len=20 seed=9\n"
            "gen: uncorr sigma=2 n=2 len=20 seed=3\n"
        )
        out_csv = tmp_path / "out.csv"
        run_cli(capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen",
                "--out", str(out_csv), "--beta", "5")
        rows = [r for r in read_csv(out_csv) if r["dataset"] != "average"]
        assert [r["seed"] for r in rows] == ["9", "3"]

    def test_empty_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("# nothing here\n")
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen",
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        assert read_csv(out_csv) == []

    def test_partial_failure(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(
            "missing-file.txt uncorr\n"
            "gen: uncorr sigma=4 n=2 len=20 seed=1\n"
        )
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen",
            "--out", str(out_csv), "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = read_csv(out_csv)
        failed = [r for r in rows if r["status"].startswith("error")]
        assert len(failed) == 1
        assert failed[0]["length"] == ""

    def test_solver_error_is_a_row(self, capsys, tmp_path, monkeypatch):
        refuse_probability_solves(monkeypatch)
        manifest = tmp_path / "m.txt"
        manifest.write_text(REFUSED_ENTRY)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen,kanalytic",
            "--out", str(out_csv), "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = {r["heuristic"]: r for r in read_csv(out_csv) if r["dataset"] != "average"}
        assert rows["minlen"]["status"] == "ok"
        assert int(rows["minlen"]["length"]) >= 0
        assert rows["kanalytic"]["status"].startswith(f"error: {REFUSAL}")
        assert rows["kanalytic"]["length"] == ""
        averages = [r["heuristic"] for r in read_csv(out_csv) if r["dataset"] == "average"]
        assert averages == ["minlen"]

    def test_refused_instance_is_a_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", budget_between_entries("minlen", "gcov"))
        manifest = tmp_path / "m.txt"
        manifest.write_text(BUDGET_MANIFEST)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen,gcov",
            "--out", str(out_csv), "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = [r for r in read_csv(out_csv) if r["dataset"] != "average"]
        assert [(r["n"], r["status"]) for r in rows[:2]] == [("2", "ok"), ("2", "ok")]
        assert [r["heuristic"] for r in rows[2:]] == ["minlen", "gcov"]
        for row in rows[2:]:
            assert row["n"] == "10"
            assert row["status"].startswith("error: instance tables for N=10, max_len=200")
            assert row["length"] == ""

    def test_search_over_budget_is_a_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "1")
        manifest = tmp_path / "m.txt"
        manifest.write_text("gen: uncorr sigma=4 n=200 len=20 seed=1\n")
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen",
            "--out", str(out_csv), "--beta", "2000",
        )
        assert code == EXIT_PARTIAL
        rows = [r for r in read_csv(out_csv) if r["dataset"] != "average"]
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error: search for beta=2000, N=200, sigma=4")
        assert rows[0]["length"] == ""

    def test_file_entries(self, capsys, tmp_path):
        data = tmp_path / "worked.txt"
        data.write_text(WORKED_FILE)
        manifest = tmp_path / "m.txt"
        manifest.write_text("worked.txt corr\n")
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "kanalytic",
            "--out", str(out_csv), "--beta", "5",
        )
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        assert rows[0]["dataset"] == "worked"
        assert int(rows[0]["length"]) >= 1


class TestProbe:
    def test_q_curve_row_count_and_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--sigma", "4", "--n", "200", "--k-range", "0:200", "--q"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 201
        byk = {int(r["k"]): float(r["value"]) for r in rows}
        assert byk[1] == 1.0
        assert all(math.isfinite(v) and v > 0 for k, v in byk.items() if k >= 1)

    def test_q_is_zero_above_n(self, capsys):
        code, out, err = run_cli(
            capsys, "probe", "--sigma", "4", "--n", "3", "--k-range", "0:6", "--q"
        )
        assert code == EXIT_OK
        assert err == ""
        values = [r["value"] for r in csv.DictReader(io.StringIO(out))]
        assert values[:4] == ["0.0", "1.0", "1.5", "1.3125"]
        assert values[4:] == ["0.0", "0.0", "0.0"]

    def test_q_beyond_the_float_range(self, capsys):
        # ln q = 2079, past the largest finite float
        code, out, err = run_cli(
            capsys, "probe", "--sigma", "2", "--n", "6000", "--k-range", "3000:3000", "--q"
        )
        assert code == EXIT_OK
        assert err == ""
        assert [r["value"] for r in csv.DictReader(io.StringIO(out))] == ["inf"]

    def test_methods_agree(self, capsys):
        outputs = {}
        for method in ("table", "closed", "closed2", "beta"):
            code, out, _ = run_cli(
                capsys, "probe", "--sigma", "4", "--n", "60", "--k-range", "0:60",
                "--method", method,
            )
            assert code == EXIT_OK
            outputs[method] = [
                float(r["value"]) for r in csv.DictReader(io.StringIO(out))
            ]
        for method in ("closed", "closed2", "beta"):
            diffs = [
                abs(a - b) for a, b in zip(outputs["table"], outputs[method])
            ]
            assert max(diffs) <= 1e-9

    def test_table_method_needs_one_column(self, capsys, monkeypatch):
        # the full (n+1)^2 grid for n = 9000 is over the default budget
        monkeypatch.delenv("LCSBEAM_TABLE_BUDGET_MB", raising=False)
        outputs = {}
        for method in ("table", "closed"):
            code, out, _ = run_cli(
                capsys, "probe", "--sigma", "4", "--n", "9000", "--k-range", "1:2",
                "--method", method,
            )
            assert code == EXIT_OK
            outputs[method] = [float(r["value"]) for r in csv.DictReader(io.StringIO(out))]
        assert len(outputs["table"]) == 2
        for a, b in zip(outputs["table"], outputs["closed"]):
            assert abs(a - b) <= 1e-9

    def test_beta_point_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--sigma", "4", "--n", "3", "--k-range", "2:2",
            "--method", "beta",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["value"]) == pytest.approx(0.15625, abs=1e-12)

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys, "probe", "--sigma", "4", "--n", "10", "--k-range", "5:1"
        )
        assert code == EXIT_USAGE


class TestKsweep:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "ksweep", "--gen", "uncorr", "--sigma", "4", "--n", "3",
            "--len", "30", "--seed", "4", "--k-range", "1:1", "--beta", "10",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["k"] == "1"

    def test_matches_fixed_k_engine_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "ksweep", "--gen", "uncorr", "--sigma", "4", "--n", "3",
            "--len", "30", "--seed", "4", "--k-range", "2:6", "--k-step", "2",
            "--beta", "10",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["k"] for r in rows] == ["2", "4", "6"]
        inst, _ = gen_uncorrelated(4, 3, 30, 4)
        for row in rows:
            spec = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS, fixed_k=int(row["k"]))
            direct = beam_search(inst, BeamConfig(heuristic=spec, beta=10, beta_h=10))
            assert int(row["length"]) == direct.length


class TestTiming:
    def test_emits_medians(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("gen: uncorr sigma=4 n=3 len=30 seed=1\n")
        code, out, _ = run_cli(
            capsys, "timing", "--manifest", str(manifest),
            "--heuristics", "minlen,kanalytic", "--repeats", "3", "--beta", "10",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["heuristic"] for r in rows] == ["minlen", "kanalytic"]
        assert all(float(r["ms"]) >= 0 for r in rows)
        assert rows[0]["n"] == "3"

    def test_solver_error_skips_heuristic(self, capsys, tmp_path, monkeypatch):
        refuse_probability_solves(monkeypatch)
        manifest = tmp_path / "m.txt"
        manifest.write_text(REFUSED_ENTRY)
        code, out, err = run_cli(
            capsys, "timing", "--manifest", str(manifest),
            "--heuristics", "kanalytic,minlen", "--repeats", "1", "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["heuristic"] for r in rows] == ["minlen"]
        assert "skipping kanalytic" in err

    def test_refused_instance_is_skipped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", budget_between_entries("minlen"))
        manifest = tmp_path / "m.txt"
        manifest.write_text(BUDGET_MANIFEST)
        code, out, err = run_cli(
            capsys, "timing", "--manifest", str(manifest),
            "--heuristics", "minlen", "--repeats", "1", "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["heuristic"]) for r in rows] == [("2", "minlen")]
        assert "skipping entry: instance tables for N=10, max_len=200" in err


class TestOracleCommand:
    def test_two_string_file(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("2 3\nABC\n3 ABC\n3 BCA\n")
        code, out, _ = run_cli(capsys, "oracle", "--input", str(path))
        assert code == EXIT_OK
        assert "length: 2" in out
        assert "method: dp2" in out

    def test_enum_for_many_strings(self, capsys, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("4 2\nAB\n2 AB\n2 AB\n2 AB\n2 AB\n")
        code, out, _ = run_cli(capsys, "oracle", "--input", str(path))
        assert code == EXIT_OK
        assert "length: 2" in out
        assert "method: enum" in out

    def test_fasta_flags(self, capsys, tmp_path):
        # ACGT unless --alphabet says otherwise; --truncate cuts each record first
        path = tmp_path / "x.fa"
        path.write_text(">a\nACGTAC\n>b\nCAGTTA\n")
        for extra in ([], ["--alphabet", "TGCA"]):
            code, out, _ = run_cli(capsys, "oracle", "--input", str(path), "--format", "fasta",
                                   "--truncate", "3", *extra)
            assert code == EXIT_OK
            assert "length: 2" in out
        code, _, err = run_cli(capsys, "oracle", "--input", str(path), "--format", "fasta",
                               "--alphabet", "ACG")
        assert code == EXIT_DATASET
        assert err.startswith("dataset error: ")

    @pytest.mark.parametrize(
        "n,length,budget,refusal",
        [
            (2, 4000, "1", "2-string DP of 4000 x 4000: 61.2 MiB needed, budget is 1.0 MiB"),
            (3, 150, "0.1", "3-string DP planes of 150 x 150: 0.3 MiB needed, budget is 0.1 MiB"),
            (3, 300, None, "3-string DP needs 27270901 cells, cap is 25000000"),
            (4, 21, None, "enumeration over a length-21 string exceeds the cap of 20"),
        ],
    )
    def test_refusal_is_capacity_error(self, capsys, monkeypatch, n, length, budget, refusal):
        if budget is None:
            monkeypatch.delenv("LCSBEAM_TABLE_BUDGET_MB", raising=False)
        else:
            monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", budget)
        code, out, err = run_cli(capsys, "oracle", "--gen", "uncorr", "--sigma", "4", "--n",
                                 str(n), "--len", str(length), "--seed", "1")
        assert (code, out) == (EXIT_DATASET, "")
        assert err.startswith(f"capacity error: {refusal}")


class TestUsageErrors:
    """Bad values of generator and width flags exit 2 with a usage error."""

    @pytest.mark.parametrize(
        "flag,value",
        [("--n", "1"), ("--sigma", "0"), ("--sigma", "63"), ("--len", "-1"),
         ("--rate", "1.5"), ("--beta", "0"), ("--beta-h", "0")],
    )
    def test_solve(self, capsys, flag, value):
        flags = dict(GEN_FLAGS, **{flag: value})
        code, out, err = run_cli(capsys, "solve", *flag_argv(flags), "--heuristic", "minlen")
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")
        assert out == ""

    @pytest.mark.parametrize(
        "flag,value",
        [("--n", "0"), ("--sigma", "0"), ("--len", "-3"), ("--rate", "-0.5"),
         ("--beta", "0"), ("--k-step", "0")],
    )
    def test_ksweep(self, capsys, flag, value):
        flags = dict(GEN_FLAGS, **{"--k-range": "1:2", flag: value})
        code, out, err = run_cli(capsys, "ksweep", *flag_argv(flags))
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")
        assert out == ""

    @pytest.mark.parametrize("command", ["sweep", "timing"])
    @pytest.mark.parametrize(
        "flag,value", [("--beta", "0"), ("--beta", "-1"), ("--beta-h", "0")]
    )
    def test_manifest_widths(self, capsys, tmp_path, command, flag, value):
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY)
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--manifest", str(manifest), "--heuristics", "minlen",
            "--out", str(out_csv), flag, value,
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["sweep", "timing"])
    @pytest.mark.parametrize("names", [",", " , ", ""])
    def test_manifest_names_no_heuristic(self, capsys, tmp_path, command, names):
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY)
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--manifest", str(manifest), "--heuristics", names,
            "--out", str(out_csv),
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: --heuristics names no heuristic: {names!r}\n"
        assert not out_csv.exists()

    def test_negative_truncate(self, capsys, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">a\nACGTAC\n>b\nCAGTTA\n")
        code, out, err = run_cli(
            capsys, "oracle", "--input", str(path), "--format", "fasta", "--truncate", "-2"
        )
        assert code == EXIT_USAGE
        assert err == "usage error: --truncate must be >= 0, got -2\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["solve", "ksweep", "oracle"])
    @pytest.mark.parametrize(
        "flag,extra,source",
        [
            ("--format fasta", ["--format", "fasta"], "gen"),
            ("--alphabet", ["--alphabet", "XYZ"], "plain"),
            ("--truncate", ["--truncate", "1"], "plain"),
            ("--truncate", ["--truncate", "0"], "gen"),
        ],
    )
    def test_fasta_flag_without_fasta_input(self, capsys, tmp_path, command, flag, extra,
                                            source):
        path = tmp_path / "worked.txt"
        path.write_text(WORKED_FILE)
        argv = flag_argv(GEN_FLAGS) if source == "gen" else ["--input", str(path)]
        argv += ["--k-range", "1:2"] if command == "ksweep" else []
        code, out, err = run_cli(capsys, command, *argv, *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: {flag} needs a FASTA input (--input FILE --format fasta)\n"

    def test_timing_repeats(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY)
        code, out, err = run_cli(
            capsys, "timing", "--manifest", str(manifest), "--heuristics", "minlen",
            "--repeats", "0",
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")


class TestUnwritableOut:
    """An --out that cannot be opened is a usage error, raised before any solve."""

    OUT = "no-such-dir/out.csv"

    @pytest.mark.parametrize("command", ["sweep", "timing", "ksweep", "probe"])
    def test_usage_error_before_any_solve(self, capsys, tmp_path, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output was opened")

        monkeypatch.setattr(cli, "beam_search", no_solve)
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY)
        argv = {
            "sweep": ["--manifest", str(manifest), "--heuristics", "minlen"],
            "timing": ["--manifest", str(manifest), "--heuristics", "minlen"],
            "ksweep": [*flag_argv(GEN_FLAGS), "--k-range", "1:2"],
            "probe": ["--sigma", "4", "--n", "10", "--k-range", "0:3"],
        }[command]
        out_path = tmp_path / self.OUT
        code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: cannot write {out_path}: ")
        assert "No such file or directory" in err
        assert out == ""


class TestBadManifestLine:
    """A generator line the generators refuse fails alone; the run goes on."""

    def test_sweep_writes_error_row(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(BAD_GEN_ENTRY + GOOD_GEN_ENTRY)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--manifest", str(manifest), "--heuristics", "minlen,kanalytic",
            "--out", str(out_csv), "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = [r for r in read_csv(out_csv) if r["dataset"] != "average"]
        assert [(r["n"], r["heuristic"]) for r in rows] == [
            ("1", "minlen"), ("1", "kanalytic"), ("2", "minlen"), ("2", "kanalytic"),
        ]
        for row in rows[:2]:
            assert row["status"] == "error: bad generator entry: need at least 2 strings, got 1"
            assert row["length"] == ""
        assert [r["status"] for r in rows[2:]] == ["ok", "ok"]

    def test_timing_skips_entry(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(BAD_GEN_ENTRY + GOOD_GEN_ENTRY)
        code, out, err = run_cli(
            capsys, "timing", "--manifest", str(manifest), "--heuristics", "minlen",
            "--repeats", "1", "--beta", "5",
        )
        assert code == EXIT_PARTIAL
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["heuristic"]) for r in rows] == [("2", "minlen")]
        assert "skipping entry: bad generator entry: need at least 2 strings" in err

    @pytest.mark.parametrize("command", ["sweep", "timing"])
    def test_unknown_generator_key(self, capsys, tmp_path, command):
        # a misspelt key must not fall back to its default (rate 0.1 here)
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY + "gen: corr sigma=4 n=3 len=20 rat=0.9 seed=1\n")
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--manifest", str(manifest), "--heuristics", "minlen",
            "--out", str(out_csv),
        )
        assert code == EXIT_DATASET
        assert err == f"dataset error: {manifest}:2: unknown generator key 'rat'\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["sweep", "timing"])
    def test_rate_that_is_not_a_number(self, capsys, tmp_path, command):
        manifest = tmp_path / "m.txt"
        manifest.write_text("gen: corr sigma=4 n=3 len=20 rate=abc seed=1\n")
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--manifest", str(manifest), "--heuristics", "minlen",
            "--out", str(out_csv),
        )
        assert code == EXIT_DATASET
        assert err == (
            f"dataset error: {manifest}:1: could not convert string to float: 'abc'\n"
        )
        assert not out_csv.exists()


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["solve", "ksweep", "sweep", "timing"]),
    gen=st.sampled_from(["uncorr", "corr"]),
    n=st.integers(0, 4),
    sigma=st.integers(0, 30),
    length=st.integers(-2, 40),
    beta=st.integers(-1, 8),
    heuristic=st.sampled_from(cli.HEURISTIC_CHOICES),
    seed=st.integers(0, 2**32),
    rate=st.one_of(
        st.none(),
        st.floats(-0.5, 1.5).map(repr),
        st.sampled_from(["abc", "", "nan", "1e400", "0x1"]),
    ),
)
def test_exit_code_matches_its_class(
    command, gen, n, sigma, length, beta, heuristic, seed, rate
):
    """In-process `main` on small flag sets, valid and invalid.

    Generator parameters are valid for n >= 2, sigma >= 1, len >= 0 and,
    for the correlated family, 0 <= rate <= 1; widths for beta >= 1.  Bad
    flags are usage errors (2); a manifest line whose rate is not a number
    is a dataset error (3); a bad manifest line otherwise fails only its
    own rows (1); everything else succeeds (0).  A `--rate` that is not a
    number is refused by argparse itself, which exits 2 with the same
    `usage error:` text.
    """
    try:
        rate_value = 0.1 if rate is None else float(rate)
    except ValueError:
        rate_value = None  # not a number
    instance_ok = n >= 2 and sigma >= 1 and length >= 0
    rate_ok = gen == "uncorr" or (rate_value is not None and 0.0 <= rate_value <= 1.0)
    with tempfile.TemporaryDirectory() as tmp:
        if command in ("solve", "ksweep"):
            flags = {"--gen": gen, "--sigma": sigma, "--n": n, "--len": length, "--seed": seed}
            argv = [command, *flag_argv({f: str(v) for f, v in flags.items()})]
            if rate is None:
                rate_ok = True  # the default rate
            elif rate_value is None:
                argv += ["--rate", rate]
                rate_ok = False  # not a number: argparse refuses it, whatever the family
            else:
                argv.append(f"--rate={rate}")  # `=` keeps "-1e-05" a value
            argv += ["--heuristic", heuristic] if command == "solve" else ["--k-range", "1:2"]
            expected = EXIT_OK if instance_ok and rate_ok and beta >= 1 else EXIT_USAGE
        else:
            manifest = Path(tmp) / "m.txt"
            rate_token = "" if rate is None else f" rate={rate}"
            manifest.write_text(
                f"gen: {gen} sigma={sigma} n={n} len={length}{rate_token} seed={seed}\n"
                + GOOD_GEN_ENTRY
            )
            argv = [command, "--manifest", str(manifest), "--heuristics", heuristic]
            argv += ["--out", str(Path(tmp) / "out.csv")]
            argv += ["--repeats", "1"] if command == "timing" else []
            if beta < 1:
                expected = EXIT_USAGE
            elif gen == "corr" and rate_value is None:
                expected = EXIT_DATASET
            else:
                expected = EXIT_OK if instance_ok and rate_ok else EXIT_PARTIAL
        argv += ["--beta", str(beta)]
        prefix = {EXIT_USAGE: "usage error: ", EXIT_DATASET: "dataset error: "}.get(expected)
        assert_exit_class(argv, expected, prefix)


def assert_exit_class(argv, expected, prefix=None):
    """In-process `main(argv)` exits `expected`, and a failure's stderr starts with `prefix`.

    No exception escapes: argparse's own refusals raise SystemExit with
    code 2, and everything else is a return value.  A success writes
    nothing on stderr.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    assert code in (EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, EXIT_DATASET)
    assert code == expected, err.getvalue()
    if code == EXIT_OK:
        assert err.getvalue() == ""
    elif prefix is not None:
        assert err.getvalue().startswith(prefix), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 4),
    length=st.integers(0, 80),
    sigma=st.integers(1, 4),
    method=st.sampled_from(["auto", "dp2", "dp3", "enum"]),
    seed=st.integers(0, 2**32),
    scale=st.sampled_from([0.5, 0.99, 1.0, 1.01, 2.0]),
)
def test_oracle_exit_code_matches_its_class(n, length, sigma, method, seed, scale):
    """`oracle` on generated instances, under a budget on either side of the
    larger of two charges: the instance tables' and the planes' of the DP
    that runs.

    The tables are charged first; then a method that does not fit the
    string count is a usage error (2); a DP whose planes are over the
    budget, and an enumeration over more than 20 symbols, are capacity
    errors (3).  The tables' charge outweighs the 2-string plane's up to
    35-44 symbols, so lengths run past that.
    """
    runs = {2: "dp2", 3: "dp3"}.get(n, "enum") if method == "auto" else method
    tables = table_budget_bytes(n, length, sigma)
    planes = {"dp2": lcs2_bytes(length, length), "dp3": lcs3_bytes(length, length)}.get(runs, 0)
    budget = scale * max(tables, planes)
    if tables > budget:
        expected, prefix = EXIT_DATASET, "capacity error: instance tables for "
    elif (runs, n) in (("dp2", 3), ("dp2", 4), ("dp3", 2), ("dp3", 4)):
        expected, prefix = EXIT_USAGE, "usage error: "
    elif planes > budget:
        expected, prefix = EXIT_DATASET, {"dp2": "capacity error: 2-string DP of ",
                                          "dp3": "capacity error: 3-string DP planes of "}[runs]
    elif runs == "enum" and length > 20:
        expected, prefix = EXIT_DATASET, "capacity error: enumeration over "
    else:
        expected, prefix = EXIT_OK, None
    argv = ["oracle", "--gen", "uncorr", "--sigma", str(sigma), "--n", str(n),
            "--len", str(length), "--seed", str(seed), "--method", method]
    with mock.patch.dict(os.environ, {"LCSBEAM_TABLE_BUDGET_MB": repr(budget / 2**20)}):
        assert_exit_class(argv, expected, prefix)


@settings(max_examples=120, deadline=None)
@given(
    sigma=st.integers(-1, 30),
    n=st.integers(-1, 60),
    k_range=st.one_of(
        st.tuples(st.integers(-2, 70), st.integers(-2, 70)).map(lambda r: f"{r[0]}:{r[1]}"),
        st.sampled_from(["", "3", ":", "1:2:3", "a:b", "1.5:2"]),
    ),
    method=st.sampled_from(["table", "closed", "closed2", "beta"]),
    q=st.booleans(),
)
def test_probe_exit_code_matches_its_class(sigma, n, k_range, method, q):
    """`probe` over valid and invalid alphabets, string lengths and k ranges.

    A range that is not A:B with 0 <= A <= B is a usage error; an alphabet
    below 1 letter, a negative n, and q or the Beta form where the single
    letter alphabet leaves them undefined (1 <= k <= n) are domain errors.
    Both exit 2.
    """
    try:
        lo, hi = (int(part) for part in k_range.split(":"))
    except ValueError:
        lo, hi = 1, 0  # not A:B
    undefined = sigma == 1 and (q or method == "beta") and max(lo, 1) <= min(hi, n)
    if not 0 <= lo <= hi:
        expected, prefix = EXIT_USAGE, "usage error: "
    elif sigma < 1 or n < 0 or undefined:
        expected, prefix = EXIT_USAGE, "domain error: "
    else:
        expected, prefix = EXIT_OK, None
    argv = ["probe", f"--sigma={sigma}", f"--n={n}", f"--k-range={k_range}", "--method", method]
    assert_exit_class(argv + ["--q"] * q, expected, prefix)
