"""The one-array level against the per-symbol block loop it replaced.

`ref_beam_search` is the former form of the engine's level: one table
gather, one scorer call and one block per symbol, glued back together
with `np.concatenate`.  The engine now gathers, expands and scores the
whole level at once; its children come out symbol-major, then by parent,
which is the order of the concatenated blocks, so the stable rank breaks
ties the same way.  The properties hold the engine to the reference, and
every solution to the admissible bounds of the problem: a common
subsequence no longer than the exact LCS or the root's occurrence bound.
"""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam.engine import (
    BeamConfig,
    _merge_duplicates,
    _rank,
    _walk_arena,
    beam_search,
    occurrence_bounds,
    verify_solution,
)
from lcsbeam.heuristics import (
    HeuristicKind,
    HeuristicSpec,
    score_gcov_batch,
    score_minlen_batch,
    score_prob_batch,
    select_k,
)
from lcsbeam.instance import NodeState, build_instance
from lcsbeam.oracle import exhaustive_lcs
from lcsbeam.probability import get_kernel

ALPHABET = "ABCDEF"


def ref_beam_search(instance, config):
    """(solution, levels, nodes_expanded) from the per-symbol block loop."""
    beta = config.beta
    spec = config.heuristic
    kernel = None
    if spec.kind.uses_probability:
        kernel = get_kernel(instance.sigma_size, instance.max_len)
    gamma = spec.gamma(instance.n_strings)
    n = instance.n_strings
    sigma = instance.sigma_size
    lengths = instance.lengths[None, :]
    row_idx = np.arange(n)[None, :]
    next_table = instance.next_table

    beam = np.zeros((1, n), dtype=next_table.dtype)
    arena = []
    levels = 0
    nodes_expanded = 0
    while True:
        blocks = []  # (symbol code, parent indices, child cursors)
        for code in range(sigma):
            nxt = next_table[row_idx, beam, code]  # (B, N)
            feasible = (nxt != instance.no_occurrence).all(axis=1)
            if feasible.any():
                blocks.append((code, np.nonzero(feasible)[0], nxt[feasible] + 1))
        if not blocks:
            break

        remainders = [lengths - cursors for _, _, cursors in blocks]
        k = None
        if spec.kind.uses_probability:
            if spec.fixed_k is not None:
                k = spec.fixed_k
            else:
                lo = min(int(r.min()) for r in remainders)
                hi = max(int(r.max()) for r in remainders)
                k = max(1, min(select_k(spec, lo, hi, sigma, n), lo))

        scores = []
        for (_, _, cursors), rem in zip(blocks, remainders):
            if spec.kind is HeuristicKind.MINLEN:
                scores.append(score_minlen_batch(rem))
            elif spec.kind is HeuristicKind.GCOV:
                counts = instance.suffix_table[row_idx, cursors]  # (B, N, sigma)
                ubs = counts.min(axis=1).sum(axis=1)
                scores.append(score_gcov_batch(rem, ubs, gamma))
            else:
                scores.append(score_prob_batch(
                    rem, k, kernel,
                    max(int(r.max()) for r in remainders), min(int(r.min()) for r in remainders),
                ))

        all_cursors = np.concatenate([b[2] for b in blocks])
        all_parents = np.concatenate([b[1] for b in blocks])
        all_codes = np.concatenate(
            [np.full(len(b[1]), b[0], dtype=np.int16) for b in blocks]
        )
        all_scores = np.concatenate(scores)
        nodes_expanded += len(all_scores)

        if config.dominance_filter:
            order = _merge_duplicates(all_cursors, all_scores)[:beta]
        else:
            order = _rank(all_scores, all_cursors, beta)
        beam = all_cursors[order]
        arena.append((all_parents[order], all_codes[order]))
        levels += 1
    return _walk_arena(instance, arena), levels, nodes_expanded


@st.composite
def instances(draw, max_len):
    sigma = draw(st.integers(1, 6))
    alphabet = ALPHABET[:sigma]
    strings = []
    for _ in range(draw(st.integers(2, 5))):
        # an explicit length: plain st.text mostly draws very short strings
        length = draw(st.integers(1, max_len))
        codes = draw(st.lists(st.integers(0, sigma - 1), min_size=length, max_size=length))
        strings.append("".join(alphabet[c] for c in codes))
    return build_instance(alphabet, strings)


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
