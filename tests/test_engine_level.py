"""The one-array level against the per-symbol block loop it replaced.

`ref_beam_search` (in `search_reference.py`) is the former form of the
engine's level: one table gather, one scorer call and one block per
symbol, glued back together with `np.concatenate`, and ranked by full
sorts on the compacted cursors, with every copy of a cursor vector kept
as its own row.  The engine gathers the whole level at once, scores
minlen and gcov on every (parent, symbol) slot of the gathered block,
reads the rank's cursor rows from it, and holds each distinct vector once
with its count of copies; its children come out symbol-major, then by
parent, which is the order of the concatenated blocks, so the stable rank
breaks ties the same way.  The instances have strings of unequal length,
in uint16 or int32 tables.  The properties hold the engine to the
reference, and every solution to the admissible bounds of the problem: a
common subsequence no longer than the exact LCS or the root's occurrence
bound.
"""

import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam.engine import (
    ONE_GATHER_COUNTS,
    BeamConfig,
    beam_search,
    occurrence_bounds,
    verify_solution,
)
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec
from lcsbeam.instance import NodeState, build_instance
from lcsbeam.oracle import exhaustive_lcs
from search_reference import ref_beam_search

ALPHABET = "ABCDEF"


def build_in(dtype, alphabet, strings):
    """`build_instance` with the tables in `dtype` (None: the dtype it picks)."""
    with pytest.MonkeyPatch.context() as mp:
        if dtype is not None:
            mp.setattr("lcsbeam.instance.table_dtype", lambda max_len: np.dtype(dtype))
        return build_instance(alphabet, strings)


@st.composite
def instances(draw, max_len):
    sigma = draw(st.integers(1, 6))
    alphabet = ALPHABET[:sigma]
    strings = []
    for _ in range(draw(st.integers(2, 5))):
        # an explicit length per string, so the strings' lengths differ:
        # plain st.text mostly draws very short strings
        length = draw(st.integers(1, max_len))
        codes = draw(st.lists(st.integers(0, sigma - 1), min_size=length, max_size=length))
        strings.append("".join(alphabet[c] for c in codes))
    return build_in(draw(st.sampled_from([None, np.int32])), alphabet, strings)


specs = st.one_of(
    st.sampled_from([HeuristicSpec(kind=kind) for kind in HeuristicKind]),
    st.builds(
        HeuristicSpec,
        kind=st.just(HeuristicKind.PROB_K_GUESS),
        fixed_k=st.integers(0, 12),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances(max_len=30), specs, st.integers(1, 12), st.booleans())
def test_level_matches_per_symbol_blocks(inst, spec, beta, merge):
    config = BeamConfig(heuristic=spec, beta=beta, beta_h=1, dominance_filter=merge)
    report = beam_search(inst, config)
    solution, levels, expanded = ref_beam_search(inst, config)
    assert report.solution == solution
    assert report.length == len(solution)
    assert (report.levels, report.nodes_expanded) == (levels, expanded)


@pytest.mark.parametrize("dtype", [None, np.int32])
@pytest.mark.parametrize("spec", [HeuristicSpec(kind=kind) for kind in HeuristicKind],
                         ids=lambda spec: spec.kind.value)
def test_empty_string_stops_at_the_root(spec, dtype):
    # its last position L - 1 is 65535 (the uint16 sentinel) or -1: no slot is
    # feasible, so the search ends before any level is scored
    inst = build_in(dtype, "AB", ["ABBA", "", "BAB"])
    assert int(inst.lengths[1]) == 0
    for merge in (False, True):
        config = BeamConfig(heuristic=spec, beta=3, beta_h=1, dominance_filter=merge)
        report = beam_search(inst, config)
        assert (report.solution, report.levels, report.nodes_expanded) == ("", 0, 0)
        assert ref_beam_search(inst, config) == ("", 0, 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(max_len=10), specs, st.integers(1, 12), st.booleans())
def test_solution_is_bounded_common_subsequence(inst, spec, beta, merge):
    config = BeamConfig(heuristic=spec, beta=beta, beta_h=1, dominance_filter=merge)
    report = beam_search(inst, config)
    assert verify_solution(inst, report.solution)
    assert report.length <= exhaustive_lcs(inst.strings)
    assert report.length <= inst.upper_bound(inst.root())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 26), st.integers(2, 40), st.data())
def test_occurrence_bounds_match_upper_bound(sigma, n, data):
    alphabet = string.ascii_uppercase[:sigma]
    strings = data.draw(
        st.lists(st.text(alphabet, max_size=12), min_size=n, max_size=n), label="strings"
    )
    inst = build_instance(alphabet, strings)
    # each cursor anywhere in [0, len], often at len itself (the empty suffix)
    column = [st.one_of(st.just(len(s)), st.integers(0, len(s))) for s in strings]
    rows = data.draw(st.lists(st.tuples(*column), min_size=1, max_size=8), label="cursors")
    got = occurrence_bounds(inst.suffix_table, np.array(rows, dtype=np.int32))
    want = [inst.upper_bound(NodeState(cursors=row, depth=0)) for row in rows]
    assert got.tolist() == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 26), st.integers(2, 40), st.data())
def test_occurrence_bounds_read_positions_with_a_shift(sigma, n, data):
    # the engine passes a child's positions, each its cursor - 1, with shift 1
    alphabet = string.ascii_uppercase[:sigma]
    strings = data.draw(
        st.lists(st.text(alphabet, min_size=1, max_size=12), min_size=n, max_size=n),
        label="strings",
    )
    inst = build_instance(alphabet, strings)
    column = [st.integers(1, len(s)) for s in strings]
    rows = data.draw(st.lists(st.tuples(*column), min_size=1, max_size=8), label="cursors")
    positions = np.array(rows, dtype=inst.next_table.dtype) - 1
    got = occurrence_bounds(inst.suffix_table, positions, 1)
    want = [inst.upper_bound(NodeState(cursors=row, depth=0)) for row in rows]
    assert got.tolist() == want


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("largest", [255, 256])
@pytest.mark.parametrize("sigma,n,one_gather", [(4, 2, True), (20, 16, False)])
def test_occurrence_bounds_at_the_count_dtype_edge(sigma, n, one_gather, largest, shift):
    # the last count that fits uint8 and the first that does not, on both paths
    rng = random.Random(largest * 100 + sigma)
    alphabet = string.ascii_uppercase[:sigma]
    strings = []
    for _ in range(n):
        # every string holds `largest` As at random places, so the least A count is it
        symbols = [rng.choice(alphabet[1:]) for _ in range(200)] + ["A"] * largest
        rng.shuffle(symbols)
        strings.append("".join(symbols))
    inst = build_instance(alphabet, strings)
    assert (inst.suffix_table.dtype == np.uint8) == (largest == 255)
    assert (n * inst.suffix_table.shape[2] <= ONE_GATHER_COUNTS) == one_gather
    # the first row reads every string's totals
    rows = [(shift,) * n] + [tuple(rng.randint(shift, len(s)) for s in strings)
                             for _ in range(50)]
    positions = np.array(rows, dtype=inst.next_table.dtype) - shift
    got = occurrence_bounds(inst.suffix_table, positions, shift)
    want = [inst.upper_bound(NodeState(cursors=row, depth=0)) for row in rows]
    assert got.tolist() == want
    assert want[0] >= largest
