"""End-to-end command-line tests: flags, exit codes, CSV/JSON schemas."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

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
from lcsbeam.engine import BeamConfig, beam_search, verify_solution
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec
from lcsbeam.datasets import gen_uncorrelated
from lcsbeam.probability import CapacityError

WORKED_FILE = "2 3\nABC\n8 BCABAABC\n8 CAACBBAA\n"

# An entry whose probability-scored solves `refuse_probability_solves` makes
# fail with CapacityError, while minlen still solves it.
REFUSED_ENTRY = "gen: uncorr sigma=7 n=2 len=23 seed=5\n"
REFUSAL = "refused by the test"

# Under a 0.01 MiB budget the first entry's instance tables fit (1.3 KiB)
# and the second's (62.8 KiB) are refused before they are built.
BUDGET_MANIFEST = (
    "gen: uncorr sigma=4 n=2 len=20 seed=1\n"
    "gen: uncorr sigma=4 n=10 len=200 seed=1\n"
)


def refuse_probability_solves(monkeypatch):
    """Make the CLI's solves raise CapacityError for probability heuristics."""
    real = cli.beam_search

    def refusing(instance, config, width=None):
        if config.heuristic.kind.uses_probability:
            raise CapacityError(REFUSAL)
        return real(instance, config, width)

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
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.01")
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
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.01")
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

    def test_timing_repeats(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(GOOD_GEN_ENTRY)
        code, out, err = run_cli(
            capsys, "timing", "--manifest", str(manifest), "--heuristics", "minlen",
            "--repeats", "0",
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")


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
)
def test_exit_code_matches_its_class(command, gen, n, sigma, length, beta, heuristic, seed):
    """In-process `main` on small flag sets, valid and invalid.

    Generator parameters are valid for n >= 2, sigma >= 1 and len >= 0,
    widths for beta >= 1.  Bad flags are usage errors (2); a bad manifest
    line fails only its own rows (1); everything else succeeds (0).
    """
    instance_ok = n >= 2 and sigma >= 1 and length >= 0
    with tempfile.TemporaryDirectory() as tmp:
        if command in ("solve", "ksweep"):
            flags = {"--gen": gen, "--sigma": sigma, "--n": n, "--len": length, "--seed": seed}
            argv = [command, *flag_argv({f: str(v) for f, v in flags.items()})]
            argv += ["--heuristic", heuristic] if command == "solve" else ["--k-range", "1:2"]
            expected = EXIT_OK if instance_ok and beta >= 1 else EXIT_USAGE
        else:
            manifest = Path(tmp) / "m.txt"
            manifest.write_text(
                f"gen: {gen} sigma={sigma} n={n} len={length} seed={seed}\n" + GOOD_GEN_ENTRY
            )
            argv = [command, "--manifest", str(manifest), "--heuristics", heuristic]
            argv += ["--out", str(Path(tmp) / "out.csv")]
            argv += ["--repeats", "1"] if command == "timing" else []
            if beta < 1:
                expected = EXIT_USAGE
            else:
                expected = EXIT_OK if instance_ok else EXIT_PARTIAL
        argv += ["--beta", str(beta)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, EXIT_DATASET)
    assert code == expected, err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("usage error: ")
    if code == EXIT_OK:
        assert err.getvalue() == ""
