"""minlen's search output on a fixed grid, pinned by digest.

The minlen score is an integer min over the strings, so no change to the
level's layout or to the order of its reductions may move a single
byte of its output.  `golden_minlen.json` holds one record per solve of
the grid below: its length, levels and expansions in the clear and a
SHA-256 of (solution, levels, nodes_expanded).  Regenerate it only for a
change that is meant to alter search output:

    PYTHONPATH=src python tests/test_engine_golden.py > tests/golden_minlen.json
"""

import hashlib
import itertools
import json
import pathlib

import pytest

from lcsbeam.datasets import gen_correlated, gen_uncorrelated
from lcsbeam.engine import BeamConfig, beam_search
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec

GOLDEN = pathlib.Path(__file__).with_name("golden_minlen.json")

SIGMAS = (2, 4, 20)
N_STRINGS = (3, 10, 60)
SEEDS = (1, 2)
LENGTH = 200
BETA = 80
# uncorrelated strings, and mutated copies of one base string, where
# equal cursor vectors (the merge's work) are common
FAMILIES = ("uncorr", "corr")


def grid():
    return list(itertools.product(FAMILIES, SIGMAS, N_STRINGS, SEEDS, (False, True)))


def case_id(case):
    family, sigma, n, seed, merge = case
    return f"{family}-s{sigma}-n{n}-seed{seed}-{'merge' if merge else 'plain'}"


def solve(case) -> dict:
    family, sigma, n, seed, merge = case
    if family == "uncorr":
        inst, _ = gen_uncorrelated(sigma, n, LENGTH, seed)
    else:
        inst, _ = gen_correlated(sigma, n, LENGTH, 0.1, seed)
    config = BeamConfig(
        heuristic=HeuristicSpec(kind=HeuristicKind.MINLEN), beta=BETA, dominance_filter=merge
    )
    report = beam_search(inst, config)
    blob = f"{report.solution}|{report.levels}|{report.nodes_expanded}".encode()
    return {
        "length": report.length,
        "levels": report.levels,
        "nodes_expanded": report.nodes_expanded,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_minlen_output_matches_golden(case, golden):
    assert solve(case) == golden[case_id(case)]


def test_golden_covers_grid(golden):
    assert sorted(golden) == sorted(case_id(c) for c in grid())


if __name__ == "__main__":
    print(json.dumps({case_id(c): solve(c) for c in grid()}, indent=1, sort_keys=True))
