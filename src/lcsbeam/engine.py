"""Beam search over LCS construction, plus the two-heuristic wrapper.

Each level expands every feasible single-symbol extension of every beam
node, scores the children under the configured heuristic, and keeps the
best `beta` of them.  Children are ranked by (score desc, cursor vector
lex asc); the fixed tie policy makes runs reproducible across machines.
Only the children scoring at or above the beta-th best score are sorted;
ties among them still break by cursor vector, lexicographically
ascending.  Without merging, the probability and gcov scores are sorted
alone first, and the cursor vectors decide only where two of those
children tie in score with distinct vectors (on about 1 % of the levels
of a long instance); minlen's whole-number scores tie that way on about
half its levels, so minlen always sorts by the full key.  The longest
solution seen anywhere in the run is returned.

A cursor vector fixes its score within a level (every heuristic reads
only the remainders and, for gcov, the suffix counts at the cursors).
With `dominance_filter`, children with equal cursor vectors are merged:
the first of each run survives.  Without it, a beam of width beta keeps
every copy, and copies are common (on a long instance over 4 letters the
200 nodes of a level hold 5 to 25 distinct vectors).  The search holds
each distinct vector once, with a count of its copies (the root is one
vector with one copy), so a level gathers, scores and ranks each
distinct (parent, symbol) child once, and `nodes_expanded` counts every
copy: the search output is that of the beam that keeps every copy.

The wrapper trial-runs two heuristics, each the same search with `beta`
set to `beta_h`, and replays the winner (first one on ties) at `beta`.

A level is three phases on numpy arrays, each built once per search:
`_expander` gathers the children, `_scorer` scores them under one
heuristic kind and `_selector` keeps the best; their docstrings say how.
The beam, the block and the remainders keep the instance's table dtype
(`uint16` for strings shorter than 65535, else `int32`), and no
arithmetic on them mixes in another integer dtype (only the gather
indices are intp, and gcov's exact sums int64).  The scorers,
`occurrence_bounds`, the rank and the merge receive transposed (slots, N)
views, and numpy reduces over their strings at the leading-axis speed of
the base.  `search_bytes`, the sum of what each phase allocates, is
checked against the budget before the first level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .heuristics import (
    STRING_BLOCK,
    HeuristicKind,
    HeuristicSpec,
    gcov_gamma,
    score_gcov_batch,
    score_minlen_batch,
    score_prob_batch,
    select_k,
)
from .instance import Instance
from .probability import check_budget, get_kernel

# Ties in score rank by cursor vector, lexicographically ascending.
TIE_BREAK = "cursor-lex"

# `occurrence_bounds` gathers a row's suffix counts in one step while they
# number at most this many (N times the padded row width), and string by
# string beyond it; on 800 rows the one gather was the faster up to 256
ONE_GATHER_COUNTS = 256

# `_rank` and `_merge_duplicates` order their rows by one `np.lexsort` of
# the cursor columns while there are at least this many rows per string,
# and by byte-string keys below it.  lexsort makes a pass per string, while
# the key sort gains from the presorted runs of a level; on levels of real
# solves lexsort wins a merge of ~800 children up to N ~ 16 and loses a
# rank of ~220 rows from N = 10 on
LEXSORT_ROWS_PER_STRING = 50


@dataclass(frozen=True)
class BeamConfig:
    heuristic: HeuristicSpec
    beta: int = 200
    beta_h: int | None = None  # defaults to min(60, beta)
    dominance_filter: bool = False

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError(f"beam width must be >= 1, got {self.beta}")
        if self.beta_h is None:
            object.__setattr__(self, "beta_h", min(60, self.beta))
        if not 1 <= self.beta_h <= self.beta:
            raise ValueError(
                f"probe width must be in [1, beta], got {self.beta_h} (beta={self.beta})"
            )

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "beta_h": self.beta_h,
            "dominance_filter": self.dominance_filter,
            "tie_break": TIE_BREAK,
            "heuristic": self.heuristic.to_dict(),
        }


@dataclass
class RunReport:
    """Outcome of one solve: the solution, its length, and run counters."""

    solution: str
    length: int
    levels: int
    nodes_expanded: int
    wall_time: float
    config: dict = field(default_factory=dict)
    chosen_heuristic: str | None = None
    probe_lengths: tuple[int, int] | None = None
    probe_wall_times: tuple[float, float] | None = None
    verified: bool = False

    def to_dict(self) -> dict:
        return {
            "solution": self.solution,
            "length": self.length,
            "levels": self.levels,
            "nodes_expanded": self.nodes_expanded,
            "wall_time": self.wall_time,
            "config": self.config,
            "chosen_heuristic": self.chosen_heuristic,
            "probe_lengths": list(self.probe_lengths) if self.probe_lengths else None,
            "probe_wall_times": list(self.probe_wall_times) if self.probe_wall_times else None,
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        probe = d.get("probe_lengths")
        probe_times = d.get("probe_wall_times")
        return cls(
            solution=d["solution"],
            length=d["length"],
            levels=d["levels"],
            nodes_expanded=d["nodes_expanded"],
            wall_time=d["wall_time"],
            config=d.get("config", {}),
            chosen_heuristic=d.get("chosen_heuristic"),
            probe_lengths=tuple(probe) if probe else None,
            probe_wall_times=tuple(probe_times) if probe_times else None,
            verified=d.get("verified", False),
        )


def verify_solution(instance: Instance, solution: str) -> bool:
    """Subsequence check against every input string by plain linear scan."""
    for s in instance.strings:
        it = iter(s)
        if not all(ch in it for ch in solution):
            return False
    return True


def beam_search(instance: Instance, config: BeamConfig) -> RunReport:
    """Run the beam search at width `config.beta`."""
    if instance is None or instance.n_strings == 0:
        raise ValueError("beam search needs a non-empty instance")
    beta = config.beta
    n, sigma = instance.n_strings, instance.sigma_size
    check_budget(search_bytes(instance, config), f"search for beta={beta}, N={n}, sigma={sigma}")
    expand = _expander(instance, beta)
    score = _scorer(instance, config.heuristic, beta)
    arena: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, symbol codes)
    # minlen's whole-number scores tie between distinct vectors on about
    # half its levels, where a rank by score first is work thrown away
    by_score = config.heuristic.kind is not HeuristicKind.MINLEN
    select = _selector(config.dominance_filter, beta, sigma, arena, by_score)

    t0 = time.perf_counter()
    # string-major (N, B) positions, each its cursor - 1: the root's cursors are 0
    beam = np.full((n, 1), -1, dtype=np.intp)
    # each beam vector's copies: the root is one vector with one copy
    copies = np.ones(1, dtype=np.intp)
    nodes_expanded = 0
    while True:
        positions, slots = expand(beam)
        if len(slots) == 0:
            break
        scores = score(positions, slots)
        kept, copies, children = select(scores, positions, slots, copies)
        nodes_expanded += children
        beam = positions.take(kept, axis=1)

    wall = time.perf_counter() - t0
    solution = _walk_arena(instance, arena)
    report = RunReport(solution=solution, length=len(solution), levels=len(arena),
                       nodes_expanded=nodes_expanded, wall_time=wall, config=config.to_dict())
    report.verified = verify_solution(instance, solution)
    if not report.verified:
        raise AssertionError("search produced an invalid solution (engine bug)")
    return report


def _expander(instance: Instance, beta: int):
    """The expand phase: the (N, B) beam positions to the level's (positions, slots).

    The beam is a C-contiguous (N, B) array of positions, each a cursor
    minus 1.  One `take` of whole rows from the next table viewed as
    (N * (max_len + 1), sigma), at the positions plus each string's row
    offset plus 1, is the (N, B, sigma) block, written in place into one
    buffer sized for the full width, level after level (a fresh array
    that size costs a page fault for every page it touches).  Its column
    parent * sigma + symbol, a slot, holds that child's positions, or the
    sentinel, the dtype's largest value, where a string has no
    occurrence; so a slot is feasible exactly when no string holds its
    largest entry, and the children are the feasible slots, listed
    symbol-major, then by parent (in slot order the stable sorts of the
    rank and the merge find shorter presorted runs and take longer).
    Returns the block as (N, B * sigma) positions and the children's slots.
    """
    n, sigma = instance.n_strings, instance.sigma_size
    # string i's rows start at i * (max_len + 1) of the flattened table (a view),
    # and a position p is read at row p + 1, its cursor; intp, so beam + offsets
    # cannot overflow the table dtype
    stride = instance.max_len + 1
    offsets = np.arange(n, dtype=np.intp)[:, None] * stride + 1
    flat_next = instance.next_table.reshape(n * stride, sigma)
    slot_of = np.arange(beta * sigma).reshape(beta, sigma)
    block_cells = np.empty(n * beta * sigma, dtype=flat_next.dtype)

    def expand(beam):
        width = beam.shape[1] * sigma
        # a position is below max_len, so every row is in range, and "clip"
        # only keeps `take` from buffering what it writes to `out`
        block = flat_next.take(beam + offsets, axis=0, mode="clip",
                               out=block_cells[:n * width].reshape(n, -1, sigma))
        feasible = np.maximum.reduce(block, axis=0) != instance.no_occurrence  # (B, sigma)
        return block.reshape(n, width), slot_of[:len(feasible)].T[feasible.T]

    return expand


def _expand_bytes(instance: Instance, beta: int) -> int:
    """What `_expander` and the loop's beam hold."""
    n, w = instance.n_strings, instance.next_table.dtype.itemsize
    # a slot: its block column and slot table entry, the feasibility test's
    # maximum and mask, the children's slots and the mask's indices; the beam:
    # its positions, the next level's or the intp gather index, and its copies
    return beta * (instance.sigma_size * (n * w + w + 33) + n * (w + 8) + 8) + 8 * n


def _scorer(instance: Instance, spec: HeuristicSpec, beta: int):
    """The score phase of `spec`'s kind: (positions, slots) to the children's scores.

    The remainders, last position minus position, are written into one
    buffer of the table dtype sized for the full width.  minlen and gcov
    copy no column of the block: they score every slot (gcov first clamps,
    in place, each sentinel to its string's last position, so that every
    slot reads in-range suffix counts; only infeasible slots hold one, and
    no later phase reads them), and one 1-D `take` by slot keeps the
    children's scores.  A probability score copies the children's columns
    once, since its k and its window depend on their remainders only: it
    builds its p(k, .) row only over the window from the level's shortest
    to its longest remainder, from the kernel's O(max_len) lookups, which
    are built here, outside the timed search.
    """
    n, sigma = instance.n_strings, instance.sigma_size
    # each string's last position, L_i - 1, in the table dtype (65535 or -1
    # for an empty string, whose search stops at the root: no slot is feasible)
    last = (instance.lengths - 1)[:, None]
    rem_cells = np.empty(n * beta * sigma, dtype=instance.next_table.dtype)

    if spec.kind.uses_probability:
        kernel = get_kernel(sigma, instance.max_len)

        def score(positions, slots):
            remainders = positions.take(slots, axis=1, mode="clip",  # (N, children)
                                        out=rem_cells[:n * len(slots)].reshape(n, -1))
            np.subtract(last, remainders, out=remainders)
            lo, hi = int(remainders.min()), int(remainders.max())
            k = spec.fixed_k if spec.fixed_k is not None else select_k(spec, lo, hi, sigma, n)
            return score_prob_batch(remainders.T, k, kernel, hi, lo)

    elif spec.kind is HeuristicKind.MINLEN:
        def score(positions, slots):
            remainders = np.subtract(last, positions, out=rem_cells[:positions.size].reshape(n, -1))
            return score_minlen_batch(remainders.T).take(slots)

    else:
        gamma = gcov_gamma(spec, n, instance.max_len)

        def score(positions, slots):
            if len(slots) < positions.shape[1]:
                np.minimum(positions, last, out=positions)
            remainders = np.subtract(last, positions, out=rem_cells[:positions.size].reshape(n, -1))
            ubs = occurrence_bounds(instance.suffix_table, positions.T, 1)
            return score_gcov_batch(remainders.T, ubs, gamma).take(slots)

    return score


def _score_bytes(instance: Instance, spec: HeuristicSpec, beta: int) -> int:
    """What `_scorer` holds for `spec`'s kind."""
    n, w = instance.n_strings, instance.next_table.dtype.itemsize
    block = min(n, STRING_BLOCK)
    per_slot, fixed = n * w, 8 * n  # the remainders, a cell each, and the last positions
    if spec.kind.uses_probability:
        # the window index, float64 gather and sum of a block of strings;
        # past the first block, the carried block and the next sum
        per_slot += block * (w + 8) + (8 if n == block else 152)
        fixed += 48 * (instance.max_len + 2)  # the kernel's lookups, a row and its temporaries
    elif spec.kind is HeuristicKind.MINLEN:
        per_slot += w + 16  # the least remainders, as floats and taken by slot
    else:
        # the occurrence bound's one gather (intp rows, counts, least counts) or two count
        # rows and intp indices; the bounds, a block's int64 squares, eleven float64 vectors
        row = instance.suffix_table[0, 0].nbytes
        one_gather = n * instance.suffix_table.shape[2] <= ONE_GATHER_COUNTS
        per_slot += (n * (8 + row) + 2 * row + 8 if one_gather else 2 * row + 24) + 8 * block + 96
    return beta * instance.sigma_size * per_slot + fixed


def _selector(merge: bool, beta: int, sigma: int, arena: list, by_score: bool):
    """The select phase: the scored children to the kept slots and their copies.

    A child stands for as many copies as its parent.  Without `merge`,
    `_rank` keeps the first `beta` copies, each run of equal vectors as
    its first row, the one from the lowest parent (children equal in score
    and cursor vector share their last symbol, and the sort is stable), so
    the walk back from the first vector of the last level steps only on
    first copies; it ranks by score first when `by_score`.  With `merge`,
    `_merge_duplicates` keeps one child per vector and the first `beta` of
    those, each one copy, so the parents' copies are never gathered.
    Either gathers the cursor columns of only the rows it orders or
    compares (positions sort as their cursors do).  Each level appends its
    kept children's parents and symbols to `arena`, in the smallest
    unsigned dtypes that hold beta - 1 and sigma - 1.  Returns the kept
    slots in rank order, their copy counts (intp; with `merge`, a
    read-only slice of ones) and the copies the level expanded.
    """
    parent_of = np.repeat(np.arange(beta, dtype=np.min_scalar_type(beta - 1)), sigma)
    symbol_of = np.tile(np.arange(sigma, dtype=np.min_scalar_type(sigma - 1)), beta)

    if merge:
        ones = np.ones(beta, dtype=np.intp)
        ones.flags.writeable = False

        def keep(scores, cursors, slots, copies):
            order = _merge_duplicates(scores, cursors, slots)[:beta]
            return order, ones[:len(order)], len(scores)
    else:
        def keep(scores, cursors, slots, copies):
            weights = copies.take(parent_of.take(slots))
            order, counts = _rank(scores, cursors, beta, slots, weights, by_score=by_score)
            return order, counts, int(weights.sum())

    def select(scores, positions, slots, copies):
        order, copies, children = keep(scores, positions.T, slots, copies)
        kept = slots[order]
        arena.append((parent_of.take(kept), symbol_of.take(kept)))
        return kept, copies, children

    return select


def _select_bytes(instance: Instance, beta: int, merge: bool) -> int:
    """What `_selector` and the arena it fills hold."""
    n, sigma, w = instance.n_strings, instance.sigma_size, instance.next_table.dtype.itemsize
    a = np.min_scalar_type(beta - 1).itemsize + np.min_scalar_type(sigma - 1).itemsize
    # a slot: its parent and symbol, the ordered rows' columns, their keys and
    # the ranked keys or columns with a bool comparison, ten intp or float64
    # vectors and two bool ones and, without merging, each child's parent and
    # copies; the kept copy counts; at most max_len levels of kept parents and
    # symbols, each with 320 bytes of Python objects (a level's tuple, array
    # objects and list slot trace at 280-290)
    per_slot = a + n * (3 * w + 1) + 82 + (0 if merge else 24)
    return beta * sigma * per_slot + 8 * beta + instance.max_len * (beta * a + 320)


def search_bytes(instance: Instance, config: BeamConfig) -> int:
    """Upper bound on the array bytes `beam_search(instance, config)` holds at one time.

    The sum of what each phase allocates for the kind and merge mode it runs,
    at the full width of beta * sigma slots, plus 16 KiB of fixed objects
    (tiny searches traced up to 9 KiB above the terms warm, 12 KiB fresh).
    """
    beta = config.beta
    return (_expand_bytes(instance, beta) + _score_bytes(instance, config.heuristic, beta)
            + _select_bytes(instance, beta, config.dominance_filter) + 16 * 1024)


def occurrence_bounds(
    suffix_table: np.ndarray, cursors: np.ndarray, shift: int = 0
) -> np.ndarray:
    """`Instance.upper_bound` of every row of the (rows, N) cursor matrix `cursors + shift`.

    Sum over symbols of the least suffix count over the strings.  Each
    string's counts at a cursor are one row of `suffix_table`, which the
    `take`s here copy whole; in a uint8 table a row is padded with zero
    columns to a width that numpy copies with a typed loop (see
    `instance.FAST_TAKE_BYTES`), and a zero column adds nothing to a sum
    of minima.  While a row has at most ONE_GATHER_COUNTS counts (N times
    the padded width), every string's are gathered in one step and
    reduced, and the least counts are summed with the symbol axis leading
    (a sum along a short last axis is slow); otherwise they are a running
    minimum string by string, so the only temporaries are two blocks of
    one count row per row of `cursors`.
    """
    n, stride, cols = suffix_table.shape
    if n * cols <= ONE_GATHER_COUNTS:
        # string i's row for cursor c is row i * stride + c of the flat table
        rows = np.add(cursors.T, np.arange(shift, n * stride + shift, stride)[:, None],
                      dtype=np.intp)
        counts = suffix_table.reshape(n * stride, cols).take(rows, axis=0)
        least = np.ascontiguousarray(np.minimum.reduce(counts, axis=0).T)  # (cols, rows)
        return np.add.reduce(least, axis=0, dtype=np.intp)
    least = suffix_table[0, shift:].take(cursors[:, 0], axis=0)
    for i in range(1, n):
        np.minimum(least, suffix_table[i, shift:].take(cursors[:, i], axis=0), out=least)
    return least.sum(axis=1)


def _rank(
    scores: np.ndarray,
    cursors: np.ndarray,
    top: int,
    slots: np.ndarray,
    weights: np.ndarray,
    by_score: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The first `top` copies by score descending, cursor vector lex ascending.

    Child j's cursor vector is row `slots[j]` of `cursors`, and it stands
    for `weights[j]` >= 1 copies, which rank as adjacent rows.  Every
    child stands for at least one copy, so only children scoring at or
    above the top-th best score, the candidates, can be among the first
    `top` copies (`top` >= the child count keeps all), and at most the
    first `top` of them are kept.  With `by_score`, `_by_score` orders the
    candidates by score alone, which is their rank unless two of them tie
    in score with distinct vectors; without it, or where they do, their
    rows are gathered and ordered by `_order`.  A cursor vector fixes its
    score, so the copies of a vector are one run of adjacent rows.  Each
    run is kept as its first row, counting its rows' weights, until the
    count reaches `top`; the last run's count is cut to fit.

    Returns (rows, copies): the kept children's indices in rank order and
    each one's count (intp).
    """
    neg = -scores
    rows = None
    if top < len(neg):
        cutoff = np.partition(neg, top - 1)[top - 1]
        # not `neg <= cutoff`: a NaN cutoff must keep every row, as the full sort would
        rows = (~(neg > cutoff)).nonzero()[0]
        neg, slots = neg.take(rows), slots.take(rows)
    ranked = _by_score(neg, cursors, slots) if by_score else None
    if ranked is None:
        columns = cursors.T.take(slots, axis=1)
        order, keys = _order(neg, columns)
        ranked = order, _run_heads(order[:top], columns, keys)
    order, heads = ranked
    order = order[:top]
    if rows is not None:
        order = rows.take(order)
    counts = weights.take(order)
    starts = None if heads is None else heads[:top].nonzero()[0]
    if starts is not None and len(starts) < len(order):
        # a run counts its rows' copies
        counts = np.add.reduceat(counts, starts)
        order = order.take(starts)
    total = np.add.accumulate(counts)
    # the runs up to the first whose running count reaches top
    kept = min(int(total.searchsorted(top)) + 1, len(total))
    counts = counts[:kept]
    counts[-1] -= max(int(total[kept - 1]) - top, 0)
    return order[:kept], counts


def _by_score(
    neg_scores: np.ndarray, cursors: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The stable order of the rows by score alone, where it is their full rank.

    Rows whose scores all differ rank by score alone and hold distinct
    vectors.  Where two adjacent ranked scores are equal, only those two
    rows' cursor vectors (row `slots[j]` of `cursors`) are read: equal
    vectors are a run, already in index order as `_order` would put them,
    while distinct ones need the lexicographic tie-break.  A NaN equals
    nothing, not even itself, so its ties cannot be seen.
    Returns (order, heads), where heads marks the first row of each run
    and is None when every run is one row, or None where ties need
    `_order` (distinct vectors equal in score, or a NaN score).
    """
    order = neg_scores.argsort(kind="stable")
    ranked = neg_scores.take(order)
    if ranked[-1] != ranked[-1]:  # NaNs sort last
        return None
    tied = ranked[1:] == ranked[:-1]
    ties = tied.nonzero()[0]
    if len(ties) == 0:
        return order, None
    columns = cursors.T
    rows = order.take(ties)
    first = columns.take(slots.take(rows), axis=1)
    second = columns.take(slots.take(order.take(ties + 1, out=rows)), axis=1)
    if (first != second).any():
        return None
    # every tie is a pair of equal vectors: a run starts wherever the score changes
    heads = np.empty(len(order), dtype=bool)
    heads[0] = True
    np.logical_not(tied, out=heads[1:])
    return order, heads


def _order(neg_scores: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Stable order of the rows under (N, rows) `columns`: score desc, then lex asc.

    With at least LEXSORT_ROWS_PER_STRING rows per string it is one
    `np.lexsort` of the columns, which radix-sorts 16-bit keys.  Otherwise
    it is two stable sorts, first of the cursor vectors, each read as one
    string of big-endian bytes (cursors are >= 0, and the big-endian bytes
    of a signed dtype equal the unsigned ones, so the strings compare in
    the lexicographic order of the rows), then of the negated scores in
    that order.  Rows equal in both keep their index order either way.
    Returns the order and the rows' byte-string keys (None after a lexsort).
    """
    n, rows = columns.shape
    if n * LEXSORT_ROWS_PER_STRING <= rows:
        return np.lexsort(tuple(columns[::-1]) + (neg_scores,)), None
    big = np.ascontiguousarray(columns.T, dtype=columns.dtype.newbyteorder(">"))
    keys = big.view(np.dtype((np.void, big.itemsize * n))).ravel()
    by_key = np.argsort(keys, kind="stable")
    return by_key[np.argsort(neg_scores[by_key], kind="stable")], keys


def _run_heads(order: np.ndarray, columns: np.ndarray, keys: np.ndarray | None) -> np.ndarray:
    """Whether each of the rows `order` differs from the one before it.

    The rows' byte-string keys, where `_order` built them, are compared
    whole, one per row; otherwise their (N, rows) `columns`, one string at
    a time.  The first row always differs.
    """
    heads = np.ones(len(order), dtype=bool)
    if keys is None:
        ranked = columns.take(order, axis=1)
        heads[1:] = np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1], axis=0)
    else:
        ranked = keys.take(order)
        heads[1:] = ranked[1:] != ranked[:-1]
    return heads


def _merge_duplicates(scores: np.ndarray, cursors: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Indices of one child per distinct cursor vector, in rank order.

    Child j's cursor vector is row `slots[j]` of `cursors`; every child's
    row is gathered once and all are ordered by `_order`.  Copies of a
    vector share its score, so after the full rank they are adjacent and
    the first of each run, found by `_run_heads`, is the one kept.
    """
    columns = cursors.T.take(slots, axis=1)
    order, keys = _order(-scores, columns)
    return order[_run_heads(order, columns, keys)]


def _walk_arena(instance: Instance, arena) -> str:
    """Reconstruct the top-ranked deepest node's symbol path."""
    symbols = []
    idx = 0
    for parents, codes in reversed(arena):
        symbols.append(instance.alphabet[codes[idx]])
        idx = int(parents[idx])
    symbols.reverse()
    return "".join(symbols)


def hyper_heuristic(
    instance: Instance,
    config: BeamConfig,
    hf1: HeuristicSpec,
    hf2: HeuristicSpec,
) -> RunReport:
    """Probe both heuristics at `beta = config.beta_h`, replay the winner at `config.beta`.

    The first heuristic wins ties (probe length greater or equal).  The
    report records both probe lengths, both probe wall times and which
    heuristic ran at full width; its wall time covers the winning
    full-width run only.
    """
    probe1 = beam_search(instance, replace(config, heuristic=hf1, beta=config.beta_h))
    probe2 = beam_search(instance, replace(config, heuristic=hf2, beta=config.beta_h))
    winner = hf1 if probe1.length >= probe2.length else hf2
    final = beam_search(instance, replace(config, heuristic=winner))
    final.chosen_heuristic = winner.kind.value
    final.probe_lengths = (probe1.length, probe2.length)
    final.probe_wall_times = (probe1.wall_time, probe2.wall_time)
    final.config = config.to_dict()
    final.config["hyper_heuristics"] = [hf1.to_dict(), hf2.to_dict()]
    return final

