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
scored in one call.  The gather is one `take` of whole rows from the
table viewed as (N * (max_len + 1), sigma), copied once, transposed, into
a C-contiguous (B, sigma, N) block: feasibility is a reduction over its
last axis, and the children's cursors are one `take` of its rows at
parent * sigma + symbol.  The rank is two stable sorts, first of the
cursor vectors, each read as one string of big-endian bytes, then of the
negated scores in that order; the merge finds runs of equal vectors by
comparing adjacent keys of the same kind.  The gcov occurrence bound
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
from .instance import NO_OCCURRENCE, Instance
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

    lengths = instance.lengths[None, :]
    # string i's rows of the next table start at i * (max_len + 1) once it is
    # flattened (a view); intp, so beam + offsets cannot overflow int32
    stride = instance.max_len + 1
    offsets = np.arange(n, dtype=np.intp) * stride
    flat_next = instance.next_table.reshape(n * stride, sigma)
    suffix_table = instance.suffix_table

    t0 = time.perf_counter()
    beam = np.zeros((1, n), dtype=np.int32)
    arena: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, symbol codes)
    levels = 0
    nodes_expanded = 0

    while True:
        # (B, sigma, N): a node's next positions for one symbol are one row
        block = np.ascontiguousarray(flat_next.take(beam + offsets, axis=0).transpose(0, 2, 1))
        feasible = (block != NO_OCCURRENCE).all(axis=2)  # (B, sigma)
        codes, parents = np.nonzero(feasible.T)  # symbol-major, then parent
        if len(codes) == 0:
            break
        cursors = block.reshape(-1, n).take(parents * sigma + codes, axis=0)  # (children, N)
        cursors += 1
        del block  # not needed past here; frees its memory before scoring
        remainders = lengths - cursors

        if spec.kind is HeuristicKind.MINLEN:
            scores = score_minlen_batch(remainders)
        elif spec.kind is HeuristicKind.GCOV:
            ubs = occurrence_bounds(suffix_table, cursors)
            scores = score_gcov_batch(remainders, ubs, gamma)
        else:
            lo, hi = int(remainders.min()), int(remainders.max())
            k = spec.fixed_k
            if k is None:
                k = select_k(spec, lo, hi, sigma, n)
            scores = score_prob_batch(remainders, k, kernel, hi, lo)
        nodes_expanded += len(scores)

        if config.dominance_filter:
            order = _merge_duplicates(cursors, scores)[:beta]
        else:
            order = _rank(scores, cursors, beta)
        beam = cursors[order]
        arena.append((parents[order], codes[order].astype(np.int16)))
        levels += 1

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

    A level has at most width * sigma children.  Each (child, string) cell
    takes at most 37 bytes: the int32 gather and its transposed copy (alive
    together for one statement) with the bool feasibility mask, the int32
    cursors and remainders, a probability score's int32 index and float64
    gathered row, and two int32 copies in the rank (the candidates' cursors
    and their byte-string keys) or in the merge (the keys and their ranked
    gather).  Each child adds 96 bytes in twelve int64/float64 vectors (its
    symbol, parent, block row and score; the rank's negated scores, their
    partition copy, the candidate rows and their scores; the cursor-key
    order, the scores gathered by it, their order and the composed order)
    and gcov's two int32 (children, sigma) blocks, the beam its intp index,
    a probability score its O(max_len) row.  The arena keeps an int64
    parent and an int16 symbol per kept child for each of at most max_len
    levels; the Python objects holding them (about 300 bytes a level) are
    not counted.
    """
    per_child = n_strings * 37 + 96 + 8 * sigma
    level = width * sigma * per_child + width * n_strings * 8 + 48 * (max_len + 1)
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
        return _lex_order(neg, cursors)
    cutoff = np.partition(neg, top - 1)[top - 1]
    # not `neg <= cutoff`: a NaN cutoff must keep every row, as the full sort would
    rows = np.flatnonzero(~(neg > cutoff))
    return rows[_lex_order(neg[rows], cursors[rows])[:top]]


def _lex_order(neg_scores: np.ndarray, cursors: np.ndarray) -> np.ndarray:
    by_cursor = np.argsort(_row_keys(cursors), kind="stable")
    return by_cursor[np.argsort(neg_scores[by_cursor], kind="stable")]


def _row_keys(cursors: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per cursor row, ordered as the rows are.

    Cursors are >= 0, so their big-endian unsigned bytes, read as one
    string, compare in the lexicographic order of the rows.
    """
    big = np.ascontiguousarray(cursors, dtype=">u4")
    return big.view(np.dtype((np.void, 4 * cursors.shape[1]))).ravel()


def _merge_duplicates(cursors: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices of one child per distinct cursor vector, in rank order.

    Copies of a vector share its score, so after the full rank they are
    adjacent and the first of each run is the one kept.
    """
    order = _rank(scores, cursors, len(scores))
    keys = _row_keys(cursors)[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
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

