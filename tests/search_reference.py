"""A full-width reference of the beam search and of its selection.

The engine holds each distinct cursor vector of a level once, with a
count of its copies.  The reference below keeps every copy as its own
row, as a beam of width beta does when nothing is merged, and ranks with
plain full sorts: `ref_rank` lexsorts every child on all cursor columns
plus the score, and `ref_survivors` merges by `np.unique(axis=0)`.  Its
level is the per-symbol block loop the engine's one-array level
replaced: one table gather, one scorer call and one block per symbol,
glued back together with `np.concatenate`, so its children are listed
symbol-major, then by parent, and the stable sort breaks ties as the
engine's does.
"""

from dataclasses import replace

import numpy as np

from lcsbeam.heuristics import (
    HeuristicKind,
    score_gcov_batch,
    score_minlen_batch,
    score_prob_batch,
    select_k,
)
from lcsbeam.probability import ProbKernel


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


def ref_rank_copies(scores, cursors, top, weights=None):
    """(rows, copies) of the first `top` rows of a level whose row j is
    `weights[j]` copies (one each when None): each row is repeated, the
    copies are fully ranked, the first `top` kept, and each run of
    adjacent equal vectors among them becomes its first row and its
    length."""
    if weights is None:
        weights = np.ones(len(scores), dtype=np.intp)
    rows = np.repeat(np.arange(len(scores)), weights)
    first = rows[ref_rank(scores[rows], cursors[rows])[:top]]
    vectors = cursors[first]
    starts = np.flatnonzero(np.r_[True, (vectors[1:] != vectors[:-1]).any(axis=1)])
    return first[starts], np.diff(np.r_[starts, len(first)])


def ref_beam_search(instance, config):
    """(solution, levels, nodes_expanded) of a beam that keeps every copy."""
    beta = config.beta
    spec = config.heuristic
    kernel = None
    if spec.kind.uses_probability:
        kernel = ProbKernel(instance.sigma_size, instance.max_len)
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
        lo = min(int(r.min()) for r in remainders)
        hi = max(int(r.max()) for r in remainders)
        k = None
        if spec.kind.uses_probability:
            k = spec.fixed_k if spec.fixed_k is not None else max(
                1, min(select_k(spec, lo, hi, sigma, n), lo)
            )

        scores = []
        for (_, _, cursors), rem in zip(blocks, remainders):
            if spec.kind is HeuristicKind.MINLEN:
                scores.append(score_minlen_batch(rem))
            elif spec.kind is HeuristicKind.GCOV:
                counts = instance.suffix_table[row_idx, cursors]  # (B, N, sigma)
                ubs = counts.min(axis=1).sum(axis=1)
                scores.append(score_gcov_batch(rem, ubs, gamma))
            else:
                scores.append(score_prob_batch(rem, k, kernel, hi, lo))

        all_cursors = np.concatenate([b[2] for b in blocks])
        all_parents = np.concatenate([b[1] for b in blocks])
        all_codes = np.concatenate([np.full(len(b[1]), b[0]) for b in blocks])
        all_scores = np.concatenate(scores)
        nodes_expanded += len(all_scores)

        if config.dominance_filter:
            order = ref_survivors(all_cursors, all_scores)[:beta]
        else:
            order = ref_rank(all_scores, all_cursors)[:beta]
        beam = all_cursors[order]
        arena.append((all_parents[order], all_codes[order]))
        levels += 1

    # the path of the top-ranked node of the last level
    symbols, idx = [], 0
    for parents, codes in reversed(arena):
        symbols.append(instance.alphabet[codes[idx]])
        idx = parents[idx]
    return "".join(reversed(symbols)), levels, nodes_expanded


def ref_hyper_heuristic(instance, config, hf1, hf2):
    """((solution, levels, nodes_expanded), probe lengths) of the wrapper:
    both probes at the probe width, the winner (first on ties) at full width."""
    probes = tuple(
        len(ref_beam_search(instance, replace(config, heuristic=spec, beta=config.beta_h))[0])
        for spec in (hf1, hf2)
    )
    winner = hf1 if probes[0] >= probes[1] else hf2
    return ref_beam_search(instance, replace(config, heuristic=winner)), probes
