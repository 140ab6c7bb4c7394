"""Search output does not depend on the table dtype.

Instances whose strings are shorter than 65535 keep their tables, lengths
and every per-level cursor array in uint16; longer ones use int32.  With
`table_dtype` forced to int32 the same solves must give the same bytes:
the minlen golden grid, and a grid of the probability, gcov and
hyper-heuristic solves.
"""

import itertools
import json

import numpy as np
import pytest

from lcsbeam.datasets import gen_correlated, gen_uncorrelated
from lcsbeam.engine import BeamConfig, beam_search, hyper_heuristic
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec
from lcsbeam.instance import build_instance

from test_engine_golden import GOLDEN, case_id, grid, solve


@pytest.fixture
def int32_tables(monkeypatch):
    monkeypatch.setattr("lcsbeam.instance.table_dtype", lambda max_len: np.dtype(np.int32))
    assert build_instance("AB", ["AB", "BA"]).next_table.dtype == np.int32


@pytest.fixture(scope="module")
def uint16_golden():
    # test_engine_golden pins these records on uint16 tables
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_minlen_golden_on_int32_tables(case, uint16_golden, int32_tables):
    assert solve(case) == uint16_golden[case_id(case)]


KANALYTIC = {
    "uncorr": HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR),
    "corr": HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_CORR),
}
GCOV = HeuristicSpec(kind=HeuristicKind.GCOV)

SCORED_GRID = list(
    itertools.product(
        ("uncorr", "corr"), (2, 4, 20), (3, 12), (False, True), ("kanalytic", "gcov", "hh")
    )
)


def scored_id(case):
    family, sigma, n, merge, heuristic = case
    return f"{family}-s{sigma}-n{n}-{'merge' if merge else 'plain'}-{heuristic}"


def run(inst, family, merge, heuristic):
    kanalytic = KANALYTIC[family]
    if heuristic == "hh":
        config = BeamConfig(heuristic=kanalytic, beta=30, beta_h=10, dominance_filter=merge)
        report = hyper_heuristic(inst, config, kanalytic, GCOV)
    else:
        spec = kanalytic if heuristic == "kanalytic" else GCOV
        report = beam_search(inst, BeamConfig(heuristic=spec, beta=30, dominance_filter=merge))
    return (report.solution, report.levels, report.nodes_expanded,
            report.chosen_heuristic, report.probe_lengths)


@pytest.mark.parametrize("case", SCORED_GRID, ids=scored_id)
def test_scored_search_is_dtype_independent(case, monkeypatch):
    family, sigma, n, merge, heuristic = case
    if family == "uncorr":
        inst, _ = gen_uncorrelated(sigma, n, 120, 4)
    else:
        inst, _ = gen_correlated(sigma, n, 120, 0.1, 4)
    assert inst.next_table.dtype == np.uint16
    narrow = run(inst, family, merge, heuristic)
    with monkeypatch.context() as mp:
        mp.setattr("lcsbeam.instance.table_dtype", lambda max_len: np.dtype(np.int32))
        wide = build_instance(inst.alphabet, inst.strings)
    assert wide.next_table.dtype == np.int32
    assert run(wide, family, merge, heuristic) == narrow
