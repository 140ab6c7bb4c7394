"""Top-beta ranking, copy counts and duplicate merging against full sorts.

`ref_rank`, `ref_rank_copies` and `ref_survivors` (in
`search_reference.py`) are the plain form of the engine's selection: a
lexsort of every copy on all cursor columns plus the score, the runs of
equal vectors among the first `top` copies, and a merge that ranks, runs
`np.unique(axis=0)` and ranks again.  The engine partitions to the
beta-th score, counts each vector's copies, and merges adjacent rows
after one rank; these properties hold it to the same selection, and
whole searches to the full-width `ref_beam_search`.  The rank has two
ways to order a level, by score first (`by_score`) and by the full key,
and each property runs both, whatever the heuristic kind would choose.
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
from search_reference import (
    ref_beam_search,
    ref_hyper_heuristic,
    ref_rank,
    ref_rank_copies,
    ref_survivors,
)


def every_row(cursors: np.ndarray) -> np.ndarray:
    """The slots of children that are the rows of `cursors`, in order."""
    return np.arange(len(cursors))


def one_copy_each(children) -> np.ndarray:
    """The weights of a level whose every child stands for one copy."""
    return np.ones(len(children), dtype=np.intp)


def assert_ranked(result, want):
    rows, copies = result
    assert np.array_equal(rows, want[0]) and np.array_equal(copies, want[1])


def scores_by_vector(cursors, palette):
    """Scores that a cursor vector fixes, as in the engine within a level."""
    _, inverse = np.unique(cursors, axis=0, return_inverse=True)
    return np.array(palette)[inverse.ravel() % len(palette)]


# few values, so ties are common; 0.0 and -0.0 compare equal, and a NaN
# equals nothing but ranks after every number, as a full sort puts it
SCORE_VALUES = [0.0, -0.0, 1.0, -1.5, 2.5, -np.inf, np.inf, np.nan]


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


ORDER_PATHS = (0, 10**9)  # rows-per-string thresholds: every order by lexsort, or by keys
BY_SCORE = (False, True)  # the rank's two ways: the full key, or by score first

RANK = engine._rank


def rank_paths(mp):
    """Each way `_rank` can order a level: by score first or by the full
    key, which orders (and a score-first rank falls back to) by lexsort
    or by byte-string keys.  Yields the `by_score` argument."""
    for threshold in ORDER_PATHS:
        mp.setattr(engine, "LEXSORT_ROWS_PER_STRING", threshold)
        yield from BY_SCORE


def forced_rank(by_score):
    """`_rank` ranking by score first, or never, whatever the heuristic kind."""
    def rank(*args, **kwargs):
        return RANK(*args, **{**kwargs, "by_score": by_score})
    return rank


def straddling_cuts(scores, cursors, weights):
    """Each `top` that cuts between two copies of distinct vectors equal in score."""
    rows = np.repeat(np.arange(len(scores)), weights)
    full = rows[ref_rank(scores[rows], cursors[rows])]
    ranked, vectors = scores[full], cursors[full]
    tied = (ranked[1:] == ranked[:-1]) & (vectors[1:] != vectors[:-1]).any(axis=1)
    return tied.nonzero()[0] + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(), st.data())
def test_rank_is_prefix_of_full_sort(cursors, data):
    # one copy each and every vector distinct: the kept rows are the first
    # `top` of the full sort, one copy each
    distinct = np.unique(cursors, axis=0)
    cursors = distinct[data.draw(st.permutations(range(len(distinct))))]
    scores = np.array(
        data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=len(cursors),
                           max_size=len(cursors)))
    )
    full = ref_rank(scores, cursors)
    with pytest.MonkeyPatch.context() as mp:
        for by_score in rank_paths(mp):
            for top in range(1, len(cursors) + 3):
                rows, copies = _rank(scores, cursors, top, every_row(cursors),
                                     one_copy_each(cursors), by_score=by_score)
                assert np.array_equal(rows, full[:top]) and np.array_equal(copies, one_copy_each(rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(), st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8),
       st.data())
def test_rank_counts_the_copies_of_each_vector(cursors, palette, data):
    scores = scores_by_vector(cursors, palette)
    weights = one_copy_each(cursors)
    if data.draw(st.booleans(), label="weighted"):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        weights = np.random.default_rng(seed).integers(1, 5, size=len(cursors))
    with pytest.MonkeyPatch.context() as mp:
        # the first copy, a drawn cut, the last copy and past it, and a cut
        # between distinct vectors equal in score
        total = int(weights.sum())
        tops = {1, data.draw(st.integers(1, total), label="top"), total, total + 1}
        straddling = straddling_cuts(scores, cursors, weights)
        if len(straddling):
            tops.add(int(data.draw(st.sampled_from(straddling), label="straddling")))
        for top in tops:
            want = ref_rank_copies(scores, cursors, top, weights)
            for by_score in rank_paths(mp):
                got = _rank(scores, cursors, top, every_row(cursors), weights, by_score=by_score)
                assert_ranked(got, want)


@pytest.mark.parametrize("threshold", ORDER_PATHS, ids=["lexsort", "keys"])
def test_cut_inside_a_run_truncates_its_count(threshold, monkeypatch):
    # rows 0 and 2 are one vector, scoring 2, from parents of 3 and 2 copies;
    # row 1 is another, scoring 1, from a parent of 4 copies
    monkeypatch.setattr(engine, "LEXSORT_ROWS_PER_STRING", threshold)
    cursors = np.array([[5, 1], [0, 0], [5, 1]], dtype=np.uint16)
    scores = np.array([2.0, 1.0, 2.0])
    weights = np.array([3, 4, 2], dtype=np.intp)
    rows_of = every_row(cursors)
    for by_score in BY_SCORE:
        for top, rows, copies in [(1, [0], [1]), (4, [0], [4]), (5, [0], [5]), (6, [0, 1], [5, 1]),
                                  (9, [0, 1], [5, 4]), (20, [0, 1], [5, 4])]:
            got = _rank(scores, cursors, top, rows_of, weights, by_score=by_score)
            assert_ranked(got, (np.array(rows), np.array(copies)))
        # one copy a row: a run counts its rows, and a row without a run one copy
        ones = one_copy_each(cursors)
        got = _rank(scores, cursors, 3, rows_of, ones, by_score=by_score)
        assert_ranked(got, (np.array([0, 1]), np.array([2, 1])))
        got = _rank(scores, cursors, 2, rows_of, ones, by_score=by_score)
        assert_ranked(got, (np.array([0]), np.array([2])))
        got = _rank(scores[:2], cursors[:2], 2, rows_of[:2], ones[:2], by_score=by_score)
        assert_ranked(got, (np.array([0, 1]), np.array([1, 1])))


@pytest.mark.parametrize("threshold", ORDER_PATHS, ids=["lexsort", "keys"])
def test_a_tie_across_the_cut_breaks_by_vector(threshold, monkeypatch):
    monkeypatch.setattr(engine, "LEXSORT_ROWS_PER_STRING", threshold)
    for by_score in BY_SCORE:
        # rows 0 and 1 tie in score with distinct vectors, and the cut falls
        # between them: the lesser vector, row 1, is kept
        cursors = np.array([[3, 1], [2, 9], [0, 0]], dtype=np.uint16)
        scores = np.array([5.0, 5.0, 1.0])
        assert_ranked(_rank(scores, cursors, 1, every_row(cursors), one_copy_each(cursors),
                            by_score=by_score),
                      (np.array([1]), np.array([1])))
        # rows 0 and 1 are one vector and row 2 a lesser one of their score: the
        # two rows before the cut tie with equal vectors, and row 2 still goes first
        cursors = np.array([[3, 1], [3, 1], [2, 9], [0, 0]], dtype=np.uint16)
        scores = np.array([5.0, 5.0, 5.0, 1.0])
        for top, rows, copies in [(1, [2], [1]), (2, [2, 0], [1, 1]), (3, [2, 0], [1, 2])]:
            got = _rank(scores, cursors, top, every_row(cursors), one_copy_each(cursors),
                        by_score=by_score)
            assert_ranked(got, (np.array(rows), np.array(copies)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(), st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8))
def test_merge_matches_reference_survivors(cursors, palette):
    scores = scores_by_vector(cursors, palette)
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
    palette = data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8))
    scores = scores_by_vector(children, palette)
    rows = np.ascontiguousarray(block.T).T
    for top in range(1, len(slots) + 2):
        want = ref_rank_copies(scores, children, top)
        for by_score in BY_SCORE:
            assert_ranked(_rank(scores, rows, top, slots, one_copy_each(slots), by_score=by_score),
                          want)
    assert np.array_equal(_merge_duplicates(scores, rows, slots), ref_survivors(children, scores))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_arrays(UINT16_VALUES, np.uint16), st.data())
def test_uint16_cursors_rank_and_merge_as_int32(narrow, data):
    wide = narrow.astype(np.int32)
    palette = data.draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=8))
    scores = scores_by_vector(wide, palette)
    for top in range(1, len(narrow) + 2):
        for by_score in BY_SCORE:
            ones = one_copy_each(narrow)
            got = _rank(scores, narrow, top, every_row(narrow), ones, by_score=by_score)
            assert_ranked(got, ref_rank_copies(scores, wide, top))
            assert_ranked(got, _rank(scores, wide, top, every_row(wide), ones, by_score=by_score))
    survivors = _merge_duplicates(scores, narrow, every_row(narrow))
    assert np.array_equal(survivors, ref_survivors(wide, scores))
    assert np.array_equal(survivors, _merge_duplicates(scores, wide, every_row(wide)))


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
    assert (new.solution, new.levels, new.nodes_expanded) == ref_beam_search(inst, config)


@st.composite
def duplicate_instances(draw):
    """2-4 strings of at most 30 symbols over at most 3 letters: most
    children of a level share their cursor vector with another child."""
    alphabet = "ABC"[:draw(st.integers(1, 3))]
    lengths = draw(st.lists(st.integers(1, 30), min_size=2, max_size=4))
    return build_instance(alphabet, [
        "".join(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))
        for n in lengths
    ])


HH = (HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_CORR), HeuristicSpec(kind=HeuristicKind.GCOV))


@pytest.mark.parametrize("merge", [False, True], ids=["plain", "merge"])
@pytest.mark.parametrize("heuristic", KINDS + ["hh"],
                         ids=lambda h: h if h == "hh" else h.value)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(inst=duplicate_instances(), beta=st.integers(20, 60), beta_h=st.integers(1, 20))
def test_many_duplicates_match_the_full_width_reference(heuristic, merge, inst, beta, beta_h):
    # the engine holds each vector once with its copies; the reference keeps
    # every copy as a row of a beam up to beta wide
    spec = HH[0] if heuristic == "hh" else HeuristicSpec(kind=heuristic)
    config = BeamConfig(heuristic=spec, beta=beta, beta_h=beta_h, dominance_filter=merge)
    if heuristic == "hh":
        want, probes = ref_hyper_heuristic(inst, config, *HH)
    else:
        want, probes = ref_beam_search(inst, config), None
    with pytest.MonkeyPatch.context() as mp:
        for by_score in rank_paths(mp):
            mp.setattr(engine, "_rank", forced_rank(by_score))
            if heuristic == "hh":
                report = hyper_heuristic(inst, config, *HH)
            else:
                report = beam_search(inst, config)
            assert (report.solution, report.levels, report.nodes_expanded) == want
            assert report.probe_lengths == probes


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
    # no level reaches orders every level by byte-string keys; either way each
    # level is ranked by score first, or never, whatever the heuristic
    if family == "corr":
        inst, _ = gen_correlated(4, n, 150, 0.1, 5)
    else:
        inst, _ = gen_uncorrelated(4, n, 150, 5)
    spec = PATH_SPECS["kanalytic-corr" if heuristic == "hh" else heuristic]
    config = BeamConfig(heuristic=spec, beta=60, beta_h=20, dominance_filter=merge)
    runs = []
    for by_score in rank_paths(monkeypatch):
        monkeypatch.setattr(engine, "_rank", forced_rank(by_score))
        if heuristic == "hh":
            report = hyper_heuristic(inst, config, PATH_SPECS["kanalytic-corr"], PATH_SPECS["gcov"])
        else:
            report = beam_search(inst, config)
        runs.append((report.solution, report.levels, report.nodes_expanded))
    assert runs[1:] == runs[:-1]


def test_probability_and_gcov_levels_seldom_need_the_full_key(monkeypatch):
    # on this instance the score-first rank falls back to `_order` on 3 of
    # 109 kanalytic-uncorr levels, 6 of 107 kanalytic-corr ones and 11 of 106
    # gcov ones; minlen takes the full key on every level
    inst, _ = gen_uncorrelated(4, 10, 300, 1)
    calls = []
    order = engine._order
    monkeypatch.setattr(engine, "_order", lambda *args: calls.append(1) or order(*args))
    for kind in (HeuristicKind.MINLEN, HeuristicKind.PROB_K_ANALYTIC_UNCORR,
                 HeuristicKind.PROB_K_ANALYTIC_CORR, HeuristicKind.GCOV):
        calls.clear()
        report = beam_search(inst, BeamConfig(heuristic=HeuristicSpec(kind=kind), beta=60))
        if kind is HeuristicKind.MINLEN:
            assert len(calls) == report.levels
        else:
            assert 4 * len(calls) <= report.levels, (kind, len(calls), report.levels)
