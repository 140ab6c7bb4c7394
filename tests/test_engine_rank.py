"""Top-beta ranking and duplicate merging against the full-sort reference.

`ref_rank` and `ref_merge_duplicates` are the plain form of the engine's
selection: a lexsort of every child on all cursor columns plus the
score, and a merge that ranks, runs `np.unique(axis=0)` and ranks again.
The engine partitions to the beta-th score and merges adjacent rows
after one rank; these properties hold it to the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam import engine
from lcsbeam.datasets import gen_correlated, gen_uncorrelated
from lcsbeam.engine import BeamConfig, _merge_duplicates, _rank, beam_search, hyper_heuristic
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec
from lcsbeam.instance import build_instance


def ref_rank(scores: np.ndarray, cursors: np.ndarray) -> np.ndarray:
    """Indices ordered by score descending, cursor vector lex ascending."""
    keys = tuple(cursors[:, i] for i in range(cursors.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (-scores,))


def ref_merge_duplicates(cursors: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Keep one child per distinct cursor vector, preferring the best score."""
    order = ref_rank(scores, cursors)
    _, first = np.unique(cursors[order], axis=0, return_index=True)
    return np.sort(order[first])


def ref_survivors(cursors: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The reference merge's survivors, in the reference rank order."""
    keep = ref_merge_duplicates(cursors, scores)
    return keep[ref_rank(scores[keep], cursors[keep])]


def every_row(cursors: np.ndarray) -> np.ndarray:
    """The slots of children that are the rows of `cursors`, in order."""
    return np.arange(len(cursors))


# few values, so ties are common; 0.0 and -0.0 compare equal
SCORE_VALUES = [0.0, -0.0, 1.0, -1.5, 2.5, -np.inf]


# few values, so duplicate rows are common; they differ in each byte of an
# int32, so a key that is not big-endian and unsigned misorders them
CURSOR_VALUES = [0, 1, 255, 256, 65535, 65536, 1 << 24, (1 << 30) - 1]


# uint16 cursors that differ in each byte, the sentinel's neighbour included
UINT16_VALUES = [0, 1, 255, 256, 511, 65279, 65280, 65534]


@st.composite
def level_arrays(draw, values=CURSOR_VALUES, dtype=np.int32):
    """Cursor rows over a small palette, so duplicate rows are common.

    Half the draws have fewer than LEXSORT_ROWS_PER_STRING rows per
    column, so the rank and the merge order them by byte-string keys; the
    other half have at least that many, so a full sort is one lexsort.
    Their up to 960 cells come from a drawn seed rather than one hypothesis
    draw each.
    """
    cols = draw(st.integers(1, 4))
    least = cols * engine.LEXSORT_ROWS_PER_STRING
    if draw(st.booleans()):
        rows = draw(st.integers(1, min(40, least - 1)))
        cells = draw(st.lists(st.sampled_from(values), min_size=rows * cols,
                              max_size=rows * cols))
    else:
        rows = draw(st.integers(least, least + 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cells = rng.choice(values, size=rows * cols)
    return np.array(cells, dtype=dtype).reshape(rows, cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(), st.data())
def test_rank_is_prefix_of_full_sort(cursors, data):
    scores = np.array(
        data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=len(cursors),
                           max_size=len(cursors)))
    )
    full = ref_rank(scores, cursors)
    for top in range(1, len(cursors) + 3):
        assert np.array_equal(_rank(scores, cursors, top, every_row(cursors)), full[:top])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(), st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8))
def test_merge_matches_reference_survivors(cursors, palette):
    # in the engine a cursor vector fixes its score within a level
    _, inverse = np.unique(cursors, axis=0, return_inverse=True)
    scores = np.array(palette)[inverse.ravel() % len(palette)]
    assert np.array_equal(
        _merge_duplicates(scores, cursors, every_row(cursors)), ref_survivors(cursors, scores)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(), st.data())
def test_rank_and_merge_read_cursor_rows_by_slot(block, data):
    # the engine passes every slot's row, as the (slots, N) view of a
    # string-major block, and each child's slot
    slots = np.array(data.draw(st.permutations(range(len(block)))))
    slots = slots[:data.draw(st.integers(1, len(block)))]
    children = block[slots]
    _, inverse = np.unique(children, axis=0, return_inverse=True)
    palette = data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8))
    scores = np.array(palette)[inverse.ravel() % len(palette)]
    rows = np.ascontiguousarray(block.T).T
    full = ref_rank(scores, children)
    for top in range(1, len(slots) + 2):
        assert np.array_equal(_rank(scores, rows, top, slots), full[:top])
    assert np.array_equal(_merge_duplicates(scores, rows, slots), ref_survivors(children, scores))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(UINT16_VALUES, np.uint16), st.data())
def test_uint16_cursors_rank_and_merge_as_int32(narrow, data):
    rows = len(narrow)
    wide = narrow.astype(np.int32)
    _, inverse = np.unique(wide, axis=0, return_inverse=True)
    palette = data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8))
    scores = np.array(palette)[inverse.ravel() % len(palette)]
    full = ref_rank(scores, wide)
    for top in range(1, rows + 2):
        assert np.array_equal(_rank(scores, narrow, top, every_row(narrow)), full[:top])
        assert np.array_equal(
            _rank(scores, narrow, top, every_row(narrow)), _rank(scores, wide, top, every_row(wide))
        )
    survivors = _merge_duplicates(scores, narrow, every_row(narrow))
    assert np.array_equal(survivors, ref_survivors(wide, scores))
    assert np.array_equal(survivors, _merge_duplicates(scores, wide, every_row(wide)))


def _ref_rank_top(scores, cursors, top, slots):
    return ref_rank(scores, cursors[slots])[:top]


def _ref_survivors(scores, cursors, slots):
    return ref_survivors(cursors[slots], scores)


KINDS = [
    HeuristicKind.MINLEN,
    HeuristicKind.PROB_K_GUESS,
    HeuristicKind.PROB_K_ANALYTIC_UNCORR,
    HeuristicKind.PROB_K_ANALYTIC_CORR,
    HeuristicKind.GCOV,
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.text("ABC", min_size=1, max_size=14), min_size=2, max_size=4),
    st.sampled_from(KINDS),
    st.integers(1, 8),
    st.booleans(),
)
def test_beam_search_matches_reference_selection(strings, kind, beta, merge):
    inst = build_instance("ABC", strings)
    config = BeamConfig(
        heuristic=HeuristicSpec(kind=kind), beta=beta, beta_h=1, dominance_filter=merge
    )
    new = beam_search(inst, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_rank", _ref_rank_top)
        mp.setattr(engine, "_merge_duplicates", _ref_survivors)
        ref = beam_search(inst, config)
    assert (new.solution, new.levels, new.nodes_expanded) == (
        ref.solution, ref.levels, ref.nodes_expanded
    )


PATH_SPECS = {
    "minlen": HeuristicSpec(kind=HeuristicKind.MINLEN),
    "kanalytic-corr": HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_CORR),
    "gcov": HeuristicSpec(kind=HeuristicKind.GCOV),
}


@pytest.mark.parametrize("heuristic", ["minlen", "kanalytic-corr", "gcov", "hh"])
@pytest.mark.parametrize("merge", [False, True], ids=["plain", "merge"])
@pytest.mark.parametrize("family", ["corr", "uncorr"])
@pytest.mark.parametrize("n", [10, 24])
def test_search_is_the_same_on_both_order_paths(heuristic, merge, family, n, monkeypatch):
    # a rows-per-string threshold of 0 orders every level by lexsort, and one
    # no level reaches orders every level by byte-string keys
    if family == "corr":
        inst, _ = gen_correlated(4, n, 150, 0.1, 5)
    else:
        inst, _ = gen_uncorrelated(4, n, 150, 5)
    spec = PATH_SPECS["kanalytic-corr" if heuristic == "hh" else heuristic]
    config = BeamConfig(heuristic=spec, beta=60, beta_h=20, dominance_filter=merge)
    runs = []
    for threshold in (0, 10**9):
        monkeypatch.setattr(engine, "LEXSORT_ROWS_PER_STRING", threshold)
        if heuristic == "hh":
            report = hyper_heuristic(inst, config, PATH_SPECS["kanalytic-corr"], PATH_SPECS["gcov"])
        else:
            report = beam_search(inst, config)
        runs.append((report.solution, report.levels, report.nodes_expanded))
    assert runs[0] == runs[1]
