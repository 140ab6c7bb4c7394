"""Beam search over LCS construction, plus the two-heuristic wrapper.

Each level expands every feasible single-symbol extension of every beam
node, scores the children under the configured heuristic, and keeps the
best `beta` of them.  Children are ranked by (score desc, cursor vector
lex asc); the fixed tie policy makes runs reproducible across machines.
Only the children scoring at or above the beta-th best score are sorted;
ties among them still break by cursor vector, lexicographically
ascending.  The longest solution seen anywhere in the run is returned.

With `dominance_filter`, children with equal cursor vectors are merged.
A cursor vector fixes its score within a level (every heuristic reads
only the remainders and, for gcov, the suffix counts at the cursors), so
after one full rank the copies of a vector sit next to each other and
the first of each run survives.

The wrapper trial-runs two heuristics at a reduced width and replays the
winner (first one on ties) at full width.

Internally a level is one set of numpy arrays (cursors, parent indices,
chosen symbols), gathered from the next-occurrence table in one step and
scored in one call.  The level is string-major: the beam is a C-contiguous
(N, B) cursor array, and one `take` of whole rows from the table viewed
as (N * (max_len + 1), sigma) is the (N, B, sigma) block, so feasibility
is a reduction over its leading axis and the children's cursors are one
`take` of its columns at parent * sigma + symbol, an (N, children) array.
The beam, the block, the cursors, the remainders and a probability
score's window index all keep the instance's table dtype (`uint16` for
strings shorter than 65535, else `int32`): no arithmetic on them mixes
in another integer dtype (only the gather indices are intp, and gcov's
exact sums int64).  The scorers, `occurrence_bounds`, the rank and the
merge receive the transposed (children, N) views, and numpy reduces
over their strings at the leading-axis speed of the base.  The rank is two stable sorts, first
of the cursor vectors, each read as one string of big-endian bytes, then
of the negated scores in that order; the merge builds those keys once,
ranks every child, and finds runs of equal vectors by comparing adjacent
ranked columns one string at a time.  The gcov occurrence bound
is a running minimum over the strings of each child's suffix counts,
one (children, sigma) block at a time, and a probability score builds
its p(k, .) row only over the window from the level's shortest to its
longest remainder.  Its children are listed symbol-major, then by
parent, and the rank sort is stable: children equal in score and cursor
vector share their last symbol, so among them the lower parent index
ranks first.  Per-level parent/symbol arrays form the arena that the
final solution is reconstructed from.  An upper bound on all of this,
`search_bytes`, is checked against the memory budget before the first level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .heuristics import (
    HeuristicKind,
    HeuristicSpec,
    score_gcov_batch,
    score_minlen_batch,
    score_prob_batch,
    select_k,
)
from .instance import Instance, table_dtype
from .probability import check_budget, get_kernel

# Ties in score rank by cursor vector, lexicographically ascending.
TIE_BREAK = "cursor-lex"


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


def beam_search(instance: Instance, config: BeamConfig, width: int | None = None) -> RunReport:
    """Run the beam search; `width` overrides config.beta (probe runs)."""
    if instance is None or instance.n_strings == 0:
        raise ValueError("beam search needs a non-empty instance")
    beta = config.beta if width is None else width
    n = instance.n_strings
    sigma = instance.sigma_size
    need = search_bytes(beta, n, sigma, instance.max_len)
    check_budget(need, f"search for beta={beta}, N={n}, sigma={sigma}")
    spec = config.heuristic
    # its O(max_len) lookup is built outside the timed section; the
    # per-level rows are built inside it
    kernel = get_kernel(sigma, instance.max_len) if spec.kind.uses_probability else None
    gamma = spec.gamma(n)

    lengths = instance.lengths[:, None]
    # string i's rows of the next table start at i * (max_len + 1) once it is
    # flattened (a view); intp, so beam + offsets cannot overflow the table dtype
    stride = instance.max_len + 1
    offsets = np.arange(n, dtype=np.intp)[:, None] * stride
    flat_next = instance.next_table.reshape(n * stride, sigma)
    suffix_table = instance.suffix_table

    t0 = time.perf_counter()
    # string-major (N, B), in the table dtype like every per-level array
    beam = np.zeros((n, 1), dtype=flat_next.dtype)
    arena: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, symbol codes)
    levels = 0
    nodes_expanded = 0

    while True:
        # (N, B, sigma): string i's next positions for node b are one row
        block = flat_next.take(beam + offsets, axis=0)
        feasible = np.logical_and.reduce(block != instance.no_occurrence, axis=0)  # (B, sigma)
        codes, parents = np.nonzero(feasible.T)  # symbol-major, then parent
        if len(codes) == 0:
            break
        cursors = block.reshape(n, -1).take(parents * sigma + codes, axis=1)  # (N, children)
        cursors += 1  # at most max_len, below the sentinel
        del block  # not needed past here; frees its memory before scoring
        remainders = lengths - cursors
        # the scorers and the rank read (children, N) views of these arrays
        cursor_rows, rem_rows = cursors.T, remainders.T

        if spec.kind is HeuristicKind.MINLEN:
            scores = score_minlen_batch(rem_rows)
        elif spec.kind is HeuristicKind.GCOV:
            ubs = occurrence_bounds(suffix_table, cursor_rows)
            scores = score_gcov_batch(rem_rows, ubs, gamma)
        else:
            lo, hi = int(remainders.min()), int(remainders.max())
            k = spec.fixed_k
            if k is None:
                k = select_k(spec, lo, hi, sigma, n)
            scores = score_prob_batch(rem_rows, k, kernel, hi, lo)
        nodes_expanded += len(scores)

        if config.dominance_filter:
            order = _merge_duplicates(cursor_rows, scores)[:beta]
        else:
            order = _rank(scores, cursor_rows, beta)
        beam = cursors.take(order, axis=1)
        arena.append((parents[order], codes[order].astype(np.int16)))
        levels += 1
        # free this level's (N, children) arrays before the next gather
        del cursors, remainders, cursor_rows, rem_rows

    wall = time.perf_counter() - t0
    solution = _walk_arena(instance, arena)
    report = RunReport(
        solution=solution,
        length=len(solution),
        levels=levels,
        nodes_expanded=nodes_expanded,
        wall_time=wall,
        config=config.to_dict(),
    )
    report.verified = verify_solution(instance, solution)
    if not report.verified:
        raise AssertionError("search produced an invalid solution (engine bug)")
    return report


def search_bytes(width: int, n_strings: int, sigma: int, max_len: int) -> int:
    """Upper bound on the array bytes a search at `width` holds at one time.

    Cursors, remainders and the gathered block are in the table dtype,
    `table_dtype(max_len)`, of w bytes (2 for uint16, 4 for int32).  A
    level has at most width * sigma children.  Each (child, string) cell
    takes at most 6w + 10 bytes: the gathered block with its bool
    feasibility mask, the cursors and remainders, a probability score's
    window index and float64 gathered row (gcov's int64 squares are
    smaller), and two copies in the rank (the candidates' columns and
    their byte-string keys) or, in the merge, the keys, the ranked
    columns and their bool comparison.  Each child adds 96 bytes in
    twelve int64/float64 vectors (its symbol, parent, block row and
    score; the rank's negated scores, their partition copy, the
    candidate rows and their scores; the key order, the scores gathered
    by it, their order and the composed order; a scorer's own vectors,
    gcov's moments among them, are gone before the rank starts) and
    gcov's two (children, sigma) blocks of w-byte counts, the beam its
    cursors and intp index, a probability score its O(max_len) row.  The
    arena keeps an int64 parent and an int16 symbol per kept child for
    each of at most max_len levels; the Python objects holding them
    (about 300 bytes a level) are not counted.
    """
    w = table_dtype(max_len).itemsize
    per_child = n_strings * (6 * w + 10) + 96 + 2 * w * sigma
    level = width * sigma * per_child + width * n_strings * (w + 8) + 48 * (max_len + 1)
    return level + max_len * width * 10


def occurrence_bounds(suffix_table: np.ndarray, cursors: np.ndarray) -> np.ndarray:
    """`Instance.upper_bound` of every row of a (rows, N) cursor matrix.

    Sum over symbols of the least suffix count over the strings, taken as
    a running minimum string by string, so the only temporary is one
    (rows, sigma) block.
    """
    least = suffix_table[0].take(cursors[:, 0], axis=0)
    for i in range(1, cursors.shape[1]):
        np.minimum(least, suffix_table[i].take(cursors[:, i], axis=0), out=least)
    return least.sum(axis=1)


def _rank(scores: np.ndarray, cursors: np.ndarray, top: int) -> np.ndarray:
    """The first `top` indices by score descending, cursor vector lex ascending.

    Only rows scoring at or above the top-th best score can be among the
    first `top`, so only those are sorted; `top` >= the row count sorts all.
    """
    neg = -scores
    if top >= len(neg):
        return _lex_order(neg, _row_keys(cursors))
    cutoff = np.partition(neg, top - 1)[top - 1]
    # not `neg <= cutoff`: a NaN cutoff must keep every row, as the full sort would
    rows = np.flatnonzero(~(neg > cutoff))
    return rows[_lex_order(neg[rows], _row_keys(cursors, rows))[:top]]


def _lex_order(neg_scores: np.ndarray, keys: np.ndarray) -> np.ndarray:
    by_key = np.argsort(keys, kind="stable")
    return by_key[np.argsort(neg_scores[by_key], kind="stable")]


def _row_keys(cursors: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """One fixed-width byte string per cursor row (or per row in `rows`).

    Cursors are >= 0, so their big-endian bytes (those of a signed dtype
    equal the unsigned ones), read as one string, compare in the
    lexicographic order of the rows.  The rows are gathered as columns of
    the string-major (N, rows) array under `cursors`, and one transposing
    cast lays out the keys.
    """
    columns = cursors.T if rows is None else cursors.T.take(rows, axis=1)
    big = np.ascontiguousarray(columns.T, dtype=cursors.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.itemsize * cursors.shape[1]))).ravel()


def _merge_duplicates(cursors: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices of one child per distinct cursor vector, in rank order.

    Copies of a vector share its score, so after the full rank they are
    adjacent and the first of each run is the one kept.  Runs are found
    by comparing adjacent ranked vectors one string at a time.
    """
    order = _lex_order(-scores, _row_keys(cursors))
    ranked = cursors.T.take(order, axis=1)
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1], axis=0)
    return order[first]


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
    """Probe both heuristics at the reduced width, replay the winner.

    The first heuristic wins ties (probe length greater or equal).  The
    report records both probe lengths, both probe wall times and which
    heuristic ran at full width; its wall time covers the winning
    full-width run only.
    """
    probe1 = beam_search(instance, replace(config, heuristic=hf1), width=config.beta_h)
    probe2 = beam_search(instance, replace(config, heuristic=hf2), width=config.beta_h)
    winner = hf1 if probe1.length >= probe2.length else hf2
    final = beam_search(instance, replace(config, heuristic=winner))
    final.chosen_heuristic = winner.kind.value
    final.probe_lengths = (probe1.length, probe2.length)
    final.probe_wall_times = (probe1.wall_time, probe2.wall_time)
    final.config = config.to_dict()
    final.config["hyper_heuristics"] = [hf1.to_dict(), hf2.to_dict()]
    return final

