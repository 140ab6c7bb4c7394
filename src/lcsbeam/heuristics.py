"""Node-scoring functions for the beam search.

Five scoring kinds: the minimum-remaining-length baseline, the
probability-product score under three rules for picking the target
length k (a plain guess and two fitted analytic rules, one for
uncorrelated and one for correlated string sets), and the generalized
coefficient-of-variation score.

The probability product is carried as a sum of logs; orderings are
unchanged and underflow is impossible.  For the Prob* kinds, k is chosen
once per search level from the min/max remainder lengths over all
children of that level, so scores stay comparable across the level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict
from enum import Enum

import numpy as np

from .instance import Instance, NodeState
from .probability import DomainError, ProbKernel

# Published constants of the fitted k rules and the GCoV exponent rule.
UNCORR_A = 1.8233
UNCORR_B = 0.1588
CORR_C = 31.0
GAMMA_SLOPE = 0.0036
GAMMA_INTERCEPT = -0.0161


class HeuristicKind(Enum):
    MINLEN = "minlen"
    PROB_K_GUESS = "kguess"
    PROB_K_ANALYTIC_UNCORR = "kanalytic-uncorr"
    PROB_K_ANALYTIC_CORR = "kanalytic-corr"
    GCOV = "gcov"

    @property
    def uses_probability(self) -> bool:
        return self in (
            HeuristicKind.PROB_K_GUESS,
            HeuristicKind.PROB_K_ANALYTIC_UNCORR,
            HeuristicKind.PROB_K_ANALYTIC_CORR,
        )


@dataclass(frozen=True)
class HeuristicSpec:
    """Scoring function choice plus the constants it evaluates with.

    Constants default to the published fitted values and are echoed into
    every run report.  fixed_k pins the probability score to a constant
    target length (used by the k-sweep harness) instead of a per-level rule.
    """

    kind: HeuristicKind
    a: float = UNCORR_A
    b: float = UNCORR_B
    c: float = CORR_C
    gamma_slope: float = GAMMA_SLOPE
    gamma_intercept: float = GAMMA_INTERCEPT
    fixed_k: int | None = None

    def __post_init__(self):
        for name in ("a", "b", "c", "gamma_slope", "gamma_intercept"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        k = self.fixed_k
        if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0):
            raise ValueError(f"fixed_k must be a non-negative integer, got {k!r}")

    def gamma(self, n_strings: int) -> float:
        """Variance exponent; may be negative for small string counts."""
        return self.gamma_slope * n_strings + self.gamma_intercept

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = self.kind.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HeuristicSpec":
        """Build a spec from a parsed config mapping (CLI --heuristic-config)."""
        kind = HeuristicKind(d["kind"])
        fields = ("a", "b", "c", "gamma_slope", "gamma_intercept", "fixed_k")
        return cls(kind=kind, **{k: d[k] for k in fields if k in d})


@dataclass(frozen=True)
class Score:
    """Comparable node score; ties fall back to the cursor vector.

    Higher value ranks first; among equal values the lexicographically
    smaller tie key ranks first.
    """

    value: float
    tie_key: tuple[int, ...] = ()

    def ranks_before(self, other: "Score") -> bool:
        if self.value != other.value:
            return self.value > other.value
        return self.tie_key < other.tie_key

    def __lt__(self, other: "Score") -> bool:
        # natural "<" means worse rank, so sorted() ascends to the best
        return other.ranks_before(self)


def round_half_away(x: float) -> float:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def select_k(
    spec: HeuristicSpec,
    min_remaining: int,
    max_remaining: int,
    sigma_size: int,
    n_strings: int,
) -> int:
    """Target subsequence length for the probability product.

    min/max_remaining aggregate over every remainder of every child at the
    current level.  The result is clamped into [1, max(1, min_remaining)]:
    a k above any remainder sends that child's score to -inf and erases
    the ranking signal exactly when the endgame needs it.
    """
    kind = spec.kind
    if kind is HeuristicKind.PROB_K_GUESS:
        k, to_int = min_remaining / sigma_size, math.floor
    elif kind is HeuristicKind.PROB_K_ANALYTIC_UNCORR:
        k = max_remaining * (spec.a - spec.b * math.log(n_strings)) / sigma_size
        to_int = round_half_away
    elif kind is HeuristicKind.PROB_K_ANALYTIC_CORR:
        k, to_int = (min_remaining - spec.c) / sigma_size, math.floor
    else:
        raise ValueError(f"{kind} has no k-selection rule")
    # clamped before the rounding, which neither moves an integer bound nor
    # reorders two values, so that an overflowed (infinite, or NaN from 0 *
    # inf) k still gives a target; a NaN fails both comparisons and gives 1
    return int(to_int(max(1, min(k, int(min_remaining)))))


def score_prob(
    instance: Instance, state: NodeState, k: int, kernel: ProbKernel
) -> Score:
    """Sum of ln p(k, remainder length) over the strings.

    -inf as soon as any remainder is shorter than k (that factor is 0).
    """
    total = 0.0
    for rem in instance.remaining_lengths(state):
        lp = kernel.log_p(k, rem)
        if lp == -math.inf:
            return Score(value=-math.inf, tie_key=state.cursors)
        total += lp
    return Score(value=total, tie_key=state.cursors)


def score_gcov(instance: Instance, state: NodeState, spec: HeuristicSpec) -> Score:
    """mean^2 / variance^gamma, scaled by sqrt of the occurrence bound.

    Zero variance carries no dispersion signal, so that factor is taken
    as 1.  The result is >= 0 and is 0 exactly when the bound or the mean
    vanishes.
    """
    mean, var = instance.stats(state)
    ub = instance.upper_bound(state)
    gamma = spec.gamma(instance.n_strings)
    denom = var**gamma if var > 0.0 else 1.0
    return Score(value=mean * mean / denom * math.sqrt(ub), tie_key=state.cursors)


def score_minlen(instance: Instance, state: NodeState) -> Score:
    """Length of the shortest remainder."""
    return Score(
        value=float(min(instance.remaining_lengths(state))), tie_key=state.cursors
    )


# --------------------------------------------------------------------------
# vectorised variants used by the engine (one call per level)
# --------------------------------------------------------------------------


# strings per block of the window gather and of gcov's squared remainders
STRING_BLOCK = 16


def score_prob_batch(
    remaining: np.ndarray,
    k: int,
    kernel: ProbKernel,
    n_hi: int | None = None,
    n_lo: int = 0,
) -> np.ndarray:
    """ln-probability sums for a (children x strings) remainder matrix.

    `n_lo` and `n_hi` bound the entries of `remaining` when the caller
    knows them; the p(k, .) row is then built only over that window.
    """
    return window_sum(kernel.log_row(k, n_hi, n_lo), remaining.T, n_lo)


def window_sum(row: np.ndarray, strings: np.ndarray, n_lo: int) -> np.ndarray:
    """`row[strings - n_lo].sum(axis=0)`, bitwise, for a (strings, m) array.

    The window index is laid out string-major whatever the layout of
    `strings`, and numpy adds the rows of a C-contiguous array in order,
    so each sum adds the strings in order and a column's sum depends only
    on its entries.  The strings are indexed and gathered STRING_BLOCK at
    a time below a carried row holding the sum so far, so every
    temporary is at most (STRING_BLOCK + 1, m) and stays in cache.
    """
    total = row.take(np.subtract(strings[:STRING_BLOCK], n_lo, order="C")).sum(axis=0)
    if len(strings) <= STRING_BLOCK:
        return total
    carried = np.empty((STRING_BLOCK + 1, strings.shape[1]))
    for start in range(STRING_BLOCK, len(strings), STRING_BLOCK):
        part = np.subtract(strings[start:start + STRING_BLOCK], n_lo, order="C")
        carried[0] = total
        carried[1:len(part) + 1] = row.take(part)
        total = carried[:len(part) + 1].sum(axis=0)
    return total


def remainder_moments(remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample variance (n-1 denominator) of each row's remainders.

    Both come from the exact int64 sums s1 = sum(r) and s2 = sum(r^2):
    mean = s1 / N and var = (N*s2 - s1^2) / (N*(N-1)).  N*s2 and s1^2 are
    at most (N*max_len)^2, so nothing overflows while N*max_len < 3e9, and
    each value is a single rounding of the exact quotient while
    N*max_len < 2^26.5 (about 9.5e7), where the numerator is exact in a
    float64.  Neither depends on the order in which the strings are added.
    """
    n = remaining.shape[1]
    s1 = remaining.sum(axis=1, dtype=np.int64)
    # squared STRING_BLOCK strings at a time, so the int64 squares stay small
    s2 = np.square(remaining[:, :STRING_BLOCK], dtype=np.int64).sum(axis=1)
    for start in range(STRING_BLOCK, n, STRING_BLOCK):
        s2 += np.square(remaining[:, start:start + STRING_BLOCK], dtype=np.int64).sum(axis=1)
    return s1 / n, (n * s2 - s1 * s1) / (n * (n - 1))


def gcov_gamma(spec: HeuristicSpec, n_strings: int, max_len: int) -> float:
    """`spec.gamma(n_strings)`; DomainError where gcov's scores can leave the float range.

    With remainders in [0, max_len], N times a positive sample variance is
    a sum of squared differences over pairs of strings, so the variance
    lies in [1/N, max_len^2 / 2], and var^gamma between those ends raised
    to gamma.  A positive score mean^2 / var^gamma * sqrt(ub), with mean
    and ub at least 1/N and 1 and at most max_len, lies between
    N^-2 / var^gamma and max_len^2.5 / var^gamma.  The exponent is refused
    unless var^gamma and both ends are normal floats for every variance in
    range (1 stands for a variance of 0).
    """
    gamma = spec.gamma(n_strings)
    length = max(max_len, 1)
    ends = (0.0, -gamma * math.log(n_strings), gamma * math.log(length * length / 2))
    lo, hi = min(ends), max(ends)
    logs = (lo, hi, 2.5 * math.log(length) - lo, -2 * math.log(n_strings) - hi)
    tiny, huge = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    if not all(tiny <= x <= huge for x in logs):
        raise DomainError(
            f"gcov exponent {gamma!r} for N={n_strings} takes var^gamma or the score "
            f"out of the float range for remainders up to {max_len}"
        )
    return gamma


def score_gcov_batch(
    remaining: np.ndarray, upper_bounds: np.ndarray, gamma: float
) -> np.ndarray:
    mean, var = remainder_moments(remaining)
    denom = np.where(var > 0.0, var, 1.0) ** gamma
    return mean * mean / denom * np.sqrt(upper_bounds)


def score_minlen_batch(remaining: np.ndarray) -> np.ndarray:
    return remaining.min(axis=1).astype(float)
