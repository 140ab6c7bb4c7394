"""The tabular route's outputs on a fixed grid, pinned by digest.

Every builder of the recurrence p(k, n) = alpha p(k-1, n-1) + beta p(k, n-1)
is deterministic, so a change to how the recurrence is driven must not move
a single byte of what it returns.  `golden_tables.json` holds one SHA-256
per output of the grid below: the shape, dtype and raw bytes of an array,
or the numerators and denominators of an `exact_table`.  Regenerate it only
for a change that is meant to alter the tables:

    PYTHONPATH=src python tests/test_tables_golden.py > tests/golden_tables.json
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from lcsbeam.probability import (
    build_log_table,
    build_table,
    exact_float_grid,
    exact_table,
    table_column,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_tables.json")

SIGMAS = (1, 2, 3, 4, 20, 26)
N_MAXES = (0, 1, 5, 37, 200)
EXACT_TABLE_N_MAX = 40  # exact_table returns Fractions; keep it small


def grid() -> dict:
    """case id -> a thunk that builds the output."""
    cases = {}
    for sigma in SIGMAS:
        for n_max in N_MAXES:
            tag = f"s{sigma}-n{n_max}"
            cases[f"build_table-{tag}"] = lambda s=sigma, m=n_max: build_table(s, m)
            cases[f"build_log_table-{tag}"] = lambda s=sigma, m=n_max: build_log_table(s, m)
            cases[f"exact_float_grid-{tag}"] = lambda s=sigma, m=n_max: exact_float_grid(s, m)
            if n_max <= EXACT_TABLE_N_MAX:
                cases[f"exact_table-{tag}"] = lambda s=sigma, m=n_max: exact_table(s, m)
            for n in (0, 3, n_max):
                for k_max in (0, 2, n_max, n_max + 5):
                    cases[f"table_column-s{sigma}-n{n}-k{k_max}"] = (
                        lambda s=sigma, n=n, k=k_max: table_column(s, n, k)
                    )
    return cases


def digest(out) -> str:
    h = hashlib.sha256()
    if isinstance(out, np.ndarray):
        h.update(f"{out.dtype.str}{out.shape}".encode())
        h.update(np.ascontiguousarray(out).tobytes())
    else:
        h.update(f"{len(out)}x{len(out[0])}".encode())
        for row in out:
            h.update(";".join(f"{v.numerator}/{v.denominator}" for v in row).encode())
            h.update(b"\n")
    return h.hexdigest()


CASES = grid()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_matches_golden(case, golden):
    assert digest(CASES[case]()) == golden[case]


def test_golden_covers_grid(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    print(json.dumps({c: digest(f()) for c, f in CASES.items()}, indent=1, sort_keys=True))
