"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria (tolerances pinned here, nothing deferred):
  1. closed-form equivalence on the full k<=n<=200 grid, 1e-9, < 30 s
  2. monotonicity of every method on that grid, 1e-12 slack
  3. q-curve reproduction at n=200 via the probe subcommand
  4. beam validity + admissibility vs exact DP on 200 random instances,
     mean beam/exact >= 0.95 on the two-string calibration slice, < 2 min
  5. hyper-heuristic selection rule exact on 50 seeded instances
  6. generated-data substitute for the benchmark tables (original
     benchmark files not shipped): k-analytic beats k-guess on average
     over 5 seeds and lands in [190, 235]
  7. k-sweep curve dominates the other family's k point, >= 7/10 seeds
  8. performance envelope: big-instance solve < 60 s; GCoV overflow-free
"""

import csv
import io
import math
import statistics
import time

import numpy as np
import pytest

from lcsbeam.cli import main
from lcsbeam.datasets import gen_correlated, gen_uncorrelated
from lcsbeam.engine import BeamConfig, beam_search, hyper_heuristic, verify_solution
from lcsbeam.heuristics import (
    HeuristicKind,
    HeuristicSpec,
    score_gcov_batch,
    select_k,
)
from lcsbeam.oracle import exact_lcs2, exact_lcs3
from lcsbeam.probability import (
    beta_sum_grid,
    build_table,
    closed_grid,
    closed_product_grid,
    exact_float_grid,
)

GRID_SIGMAS = (2, 4, 20, 26)
N_MAX = 200

MINLEN = HeuristicSpec(kind=HeuristicKind.MINLEN)
GUESS = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS)
UNCORR = HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR)
CORR = HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_CORR)
GCOV = HeuristicSpec(kind=HeuristicKind.GCOV)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def grids():
    """All four evaluation routes over the full grid, per alphabet size."""
    t0 = time.perf_counter()
    out = {}
    for sigma in GRID_SIGMAS:
        out[sigma] = {
            "tabular-exact": exact_float_grid(sigma, N_MAX),
            "closed": closed_grid(sigma, N_MAX),
            "closed2": closed_product_grid(sigma, N_MAX),
            "beta": beta_sum_grid(sigma, N_MAX),
            "tabular-float": build_table(sigma, N_MAX),
        }
    out["build_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_1_closed_form_equivalence(grids, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for sigma in GRID_SIGMAS:
        g = grids[sigma]
        dev_closed = np.abs(g["tabular-exact"] - g["closed"]).max()
        dev_prod = np.abs(g["closed2"] - g["closed"]).max()
        dev_beta = np.abs(g["beta"] - g["closed"]).max()
        worst = max(worst, dev_closed, dev_prod, dev_beta)
    elapsed = grids["build_seconds"] + (time.perf_counter() - t0)
    ok = worst <= 1e-9 and elapsed < 30.0
    announce(
        capsys,
        f"ACCEPTANCE 1 closed-form equivalence: {'PASS' if ok else 'FAIL'} "
        f"(max deviation {worst:.3e}, {elapsed:.1f}s)",
    )
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_monotonicity(grids, capsys):
    violations = 0
    worst = 0.0
    for sigma in GRID_SIGMAS:
        for name, grid in grids[sigma].items():
            if name == "build_seconds":
                continue
            dk = np.diff(grid, axis=0)  # p(k+1, n) - p(k, n) must be <= 0
            dn = np.diff(grid, axis=1)  # p(k, n+1) - p(k, n) must be >= 0
            # k > n cells are all zeros in every grid, so diffs there are safe
            violations += int((dk > 1e-12).sum()) + int((dn < -1e-12).sum())
            if dk.size:
                worst = max(worst, float(dk.max()), float(-dn.min()))
    ok = violations == 0
    announce(
        capsys,
        f"ACCEPTANCE 2 monotonicity: {'PASS' if ok else 'FAIL'} "
        f"({violations} violations beyond 1e-12, worst drift {worst:.3e})",
    )
    assert violations == 0


def test_criterion_3_q_curve(capsys):
    code = main(["probe", "--sigma", "4", "--n", "200", "--k-range", "0:200", "--q"])
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    byk = {int(r["k"]): float(r["value"]) for r in rows}
    ok = (
        code == 0
        and len(rows) == 201
        and byk[1] == 1.0
        and all(math.isfinite(byk[k]) and byk[k] > 0.0 for k in range(1, 201))
    )
    announce(
        capsys,
        f"ACCEPTANCE 3 q-curve reproduction: {'PASS' if ok else 'FAIL'} "
        f"(201 rows, q(1,200)={byk[1]!r}, max q={max(byk.values()):.4g})",
    )
    assert ok


def test_criterion_4_oracle_admissibility(capsys):
    t0 = time.perf_counter()
    kinds = [MINLEN, GUESS, UNCORR, GCOV]
    checked = 0
    for i in range(200):
        n_strings = 2 if i % 2 == 0 else 3
        sigma = 2 if i % 4 < 2 else 4
        length = 20 + (i * 7) % 101  # spread over [20, 120]
        inst, _ = gen_uncorrelated(sigma, n_strings, length, seed=1000 + i)
        spec = kinds[i % len(kinds)]
        report = beam_search(inst, BeamConfig(heuristic=spec, beta=200))
        assert verify_solution(inst, report.solution)
        if n_strings == 2:
            exact, _w = exact_lcs2(*inst.strings)
        else:
            exact = exact_lcs3(*inst.strings)
        assert report.length <= exact, (i, report.length, exact)
        checked += 1
    ratios = []
    for seed in range(100, 130):
        inst, _ = gen_uncorrelated(4, 2, 100, seed)
        report = beam_search(inst, BeamConfig(heuristic=UNCORR, beta=200))
        exact, _w = exact_lcs2(*inst.strings)
        ratios.append(report.length / exact)
    mean_ratio = statistics.mean(ratios)
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and mean_ratio >= 0.95 and elapsed < 120.0
    announce(
        capsys,
        f"ACCEPTANCE 4 oracle admissibility: {'PASS' if ok else 'FAIL'} "
        f"({checked}/200 instances valid and admissible, "
        f"mean beam/exact {mean_ratio:.4f}, {elapsed:.1f}s)",
    )
    assert checked == 200
    assert mean_ratio >= 0.95
    assert elapsed < 120.0


def test_criterion_5_hyper_heuristic_contract(capsys):
    matches = 0
    for seed in range(50):
        if seed % 2 == 0:
            inst, _ = gen_correlated(4, 5, 100, 0.15, seed)
            hf1 = CORR
        else:
            inst, _ = gen_uncorrelated(4, 5, 100, seed)
            hf1 = UNCORR
        hf2 = GCOV
        config = BeamConfig(heuristic=hf1, beta=60, beta_h=20)
        report = hyper_heuristic(inst, config, hf1, hf2)
        probe1 = beam_search(inst, BeamConfig(heuristic=hf1, beta=20, beta_h=20)).length
        probe2 = beam_search(inst, BeamConfig(heuristic=hf2, beta=20, beta_h=20)).length
        expected = hf1 if probe1 >= probe2 else hf2
        if (
            report.chosen_heuristic == expected.kind.value
            and report.probe_lengths == (probe1, probe2)
        ):
            matches += 1
    ok = matches == 50
    announce(
        capsys,
        f"ACCEPTANCE 5 hyper-heuristic contract: {'PASS' if ok else 'FAIL'} "
        f"({matches}/50 runs follow the >= selection rule)",
    )
    assert matches == 50


def test_criterion_6_table_substitute(capsys):
    """Original benchmark files are not shipped, so the generated-data
    substitute applies: 5 uncorrelated instances at sigma=4, N=10, l=600."""
    analytic, guess = [], []
    for seed in range(1, 6):
        inst, _ = gen_uncorrelated(4, 10, 600, seed)
        analytic.append(
            beam_search(inst, BeamConfig(heuristic=UNCORR, beta=200)).length
        )
        guess.append(beam_search(inst, BeamConfig(heuristic=GUESS, beta=200)).length)
    mean_a = statistics.mean(analytic)
    mean_g = statistics.mean(guess)
    ok = mean_a > mean_g and 190.0 <= mean_a <= 235.0
    announce(
        capsys,
        f"ACCEPTANCE 6 table substitute: {'PASS' if ok else 'FAIL'} "
        f"(k-analytic mean {mean_a:.1f} vs k-guess mean {mean_g:.1f}, "
        f"band [190, 235])",
    )
    assert mean_a > mean_g
    assert 190.0 <= mean_a <= 235.0


def _ksweep_lengths(gen_flags, lo, hi, step, beta, capsys):
    code = main(
        ["ksweep", *gen_flags, "--k-range", f"{lo}:{hi}",
         "--k-step", str(step), "--beta", str(beta)]
    )
    captured = capsys.readouterr()
    assert code == 0
    return {
        int(row["k"]): int(row["length"])
        for row in csv.DictReader(io.StringIO(captured.out))
    }


def test_criterion_7_ksweep_families(capsys):
    t0 = time.perf_counter()
    beta = 60
    inst_len = 200
    wins = {"uncorr": 0, "corr": 0}
    for seed in range(1, 11):
        # uncorrelated instance vs the correlated rule's root k
        corr_k = select_k(CORR, inst_len, inst_len, 4, 10)
        flags = ["--gen", "uncorr", "--sigma", "4", "--n", "10",
                 "--len", str(inst_len), "--seed", str(seed)]
        lengths = _ksweep_lengths(flags, max(1, corr_k - 12), corr_k + 12, 3, beta, capsys)
        if max(lengths.values()) >= lengths[corr_k]:
            wins["uncorr"] += 1
        # correlated instance vs the uncorrelated rule's root k
        uncorr_k = select_k(UNCORR, inst_len, inst_len, 4, 10)
        flags = ["--gen", "corr", "--sigma", "4", "--n", "10",
                 "--len", str(inst_len), "--rate", "0.1", "--seed", str(seed)]
        lengths = _ksweep_lengths(flags, max(1, uncorr_k - 12), uncorr_k + 12, 3, beta, capsys)
        if max(lengths.values()) >= lengths[uncorr_k]:
            wins["corr"] += 1
    elapsed = time.perf_counter() - t0
    ok = wins["uncorr"] >= 7 and wins["corr"] >= 7
    announce(
        capsys,
        f"ACCEPTANCE 7 k-sweep families: {'PASS' if ok else 'FAIL'} "
        f"(uncorrelated {wins['uncorr']}/10, correlated {wins['corr']}/10, "
        f"{elapsed:.1f}s)",
    )
    assert wins["uncorr"] >= 7
    assert wins["corr"] >= 7


def test_criterion_8_performance_envelope(capsys):
    inst, _ = gen_uncorrelated(20, 200, 600, 7)
    report = beam_search(inst, BeamConfig(heuristic=UNCORR, beta=200))
    analytic_ok = report.wall_time < 60.0 and report.verified

    gcov_report = beam_search(inst, BeamConfig(heuristic=GCOV, beta=200))
    gcov_done = gcov_report.verified and gcov_report.length > 0
    # scoring stays finite at string counts that overflow naive
    # geometric-mean statistics
    with np.errstate(over="raise"):
        for n_strings in (150, 500, 5000):
            rem = np.tile(
                np.linspace(1, 600, n_strings).astype(np.int64), (8, 1)
            )
            ubs = np.full(8, 600.0)
            gamma = GCOV.gamma(n_strings)
            scores = score_gcov_batch(rem, ubs, gamma)
            assert np.all(np.isfinite(scores))
    ok = analytic_ok and gcov_done
    announce(
        capsys,
        f"ACCEPTANCE 8 performance envelope: {'PASS' if ok else 'FAIL'} "
        f"(k-analytic {report.wall_time:.1f}s for len {report.length}; "
        f"GCoV len {gcov_report.length} in {gcov_report.wall_time:.1f}s, "
        f"finite scores up to N=5000)",
    )
    assert analytic_ok
    assert gcov_done
