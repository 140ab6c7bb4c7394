"""Subsequence-probability kernel.

Everything here evaluates p(k, n): the probability that a fixed symbol
sequence of length k occurs as a subsequence of a uniformly random string
of length n over an alphabet of a given size.  The same quantity is
computed by five mutually verifying routes:

- ``build_table``          the two-term recurrence, column by column
- ``prob_closed``          direct summation of the closed form
- ``prob_closed_product``  closed form with an incrementally accumulated
                           term product (no explicit binomials)
- ``prob_beta_sum``        weighted sum of Beta density values
- ``ProbKernel.log_row``   the binomial tail P(Binomial(n, 1/sigma) >= k),
                           one k row at a time in log space

``q_value`` evaluates the rescaled tail q(k, n) = (1 - p) / beta^(n-k+1),
the sum inside the closed form, used for picking the target length k in
the search heuristics.  ``cross_validate`` runs all five routes over a
grid and reports the worst pairwise disagreement.

Every tabular output runs the recurrence through one driver, ``_columns``,
in one of three arithmetics: float64 (``build_table``, ``table_column``),
ln p (``build_log_table``), and Python ints scaled by sigma^n_max, which
keeps each step integral (``exact_table``, ``exact_float_grid``).

Each closed form (and q) is one row function of (k, n) over a vector of
n.  Its scalar entry point (``prob_closed``, ``prob_closed_product``,
``prob_beta_sum``, ``q_value``) is that row at a single n behind shared
base cases, and its grid (``closed_grid``, ``closed_product_grid``,
``beta_sum_grid``) is that row stacked over k, so the two cannot drift
apart.

The search engine scores with ``ProbKernel`` rows only: it needs one k
per level, so no (n_max+1)^2 grid is built on the search path, and it
asks only for the window of n from the level's shortest to its longest
remainder.  A window that starts above k is seeded with the binomial
tail at its first n, so its cost does not grow with how far that n is
from k.

Numeric modes of the closed form: its sum over i is always a log-sum in
numpy; LOGSPACE then forms 1 - beta^(n-k+1) q in log space (safe for
large n or large alphabets), LINEAR multiplies it out as written, and
EXACT_RATIONAL keeps arbitrary-precision rationals and serves as ground
truth in tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.special import gammaln


class CapacityError(Exception):
    """A requested table would exceed the configured memory budget."""


class DomainError(ValueError):
    """Parameters outside the mathematical domain of an operation."""


TABLE_BUDGET_ENV = "LCSBEAM_TABLE_BUDGET_MB"
_DEFAULT_BUDGET_MB = 512.0

EXACT_N_CAP = 500  # largest exact grid, for exact_table and exact_float_grid


def check_budget(need: int, what: str) -> None:
    """Raise CapacityError if `need` bytes for `what` exceed the budget.

    Callers check before they allocate, so a refusal costs no memory.
    """
    raw = os.environ.get(TABLE_BUDGET_ENV)
    mb = _DEFAULT_BUDGET_MB
    if raw is not None:
        try:
            mb = float(raw)
        except ValueError:
            raise CapacityError(f"{TABLE_BUDGET_ENV} is not a number: {raw!r}")
    budget = int(mb * 1024 * 1024)
    if need > budget:
        raise CapacityError(
            f"{what}: {need / 2**20:.1f} MiB needed, "
            f"budget is {budget / 2**20:.1f} MiB (set {TABLE_BUDGET_ENV})"
        )


@dataclass(frozen=True)
class AlphabetParams:
    """Alphabet size with its derived match/mismatch probabilities.

    alpha is the chance a uniform symbol equals a fixed symbol, beta the
    complement; beta is derived as 1 - alpha so the pair sums to 1 exactly.
    """

    sigma_size: int
    alpha: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        if self.sigma_size < 1:
            raise DomainError(f"alphabet size must be >= 1, got {self.sigma_size}")
        object.__setattr__(self, "alpha", 1.0 / self.sigma_size)
        object.__setattr__(self, "beta", 1.0 - 1.0 / self.sigma_size)

    @property
    def degenerate(self) -> bool:
        """True for the single-letter alphabet (beta == 0)."""
        return self.sigma_size == 1


class Method(Enum):
    TABULAR_DP = "table"
    CLOSED_FORM = "closed"
    CLOSED_FORM_II = "closed2"
    BETA_FORM = "beta"
    BINOMIAL = "binomial"


class NumericMode(Enum):
    LINEAR = "linear"
    LOGSPACE = "log"
    EXACT_RATIONAL = "exact"


def default_mode(sigma_size: int, n: int) -> NumericMode:
    """LOGSPACE once underflow becomes plausible, LINEAR for small grids."""
    if n > 300 or sigma_size >= 20:
        return NumericMode.LOGSPACE
    return NumericMode.LINEAR


# --------------------------------------------------------------------------
# tabular route
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbTable:
    """Dense p(k, n) grid for 0 <= k <= n <= n_max; cells with k > n are 0."""

    sigma_size: int
    n_max: int
    values: np.ndarray  # shape (n_max + 1, n_max + 1), indexed [k, n]

    def p(self, k: int, n: int) -> float:
        if k == 0:
            return 1.0
        if k > n:
            return 0.0
        return float(self.values[k, n])


def _tabular_params(sigma_size: int, n: int, k_max: int = 0) -> AlphabetParams:
    """The input check of every tabular builder."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    return AlphabetParams(sigma_size)


def _columns(n: int, first: np.ndarray, step):
    """Yield columns 0..n of the recurrence, carried in place in `first`.

    `first` is column 0 over k = 0..k_max.  Column m sets rows 1..min(m,
    k_max) to step(lower, same) of column m-1's rows k-1 and k.  Row 0 and
    the rows above m keep column 0's values.  Every yield is `first`.
    """
    col = first
    yield col
    for m in range(1, n + 1):
        top = min(m, len(col) - 1)
        col[1 : top + 1] = step(col[:top], col[1 : top + 1])
        yield col


def _stacked(n_max: int, first: np.ndarray, step) -> np.ndarray:
    """Columns 0..n_max of `_columns` as the (k, n) grid."""
    grid = np.empty((n_max + 1, n_max + 1), first.dtype)
    for m, col in enumerate(_columns(n_max, first, step)):
        grid[:, m] = col
    return grid


def _float_step(params: AlphabetParams):
    a, b = params.alpha, params.beta
    return lambda lower, same: a * lower + b * same


def build_table(sigma_size: int, n_max: int) -> ProbTable:
    """Fill the p(k, n) grid from the two-term recurrence.

    Base cases: p(0, n) = 1 and p(k, n) = 0 for k > n.  Interior cells are
    alpha * p(k-1, n-1) + beta * p(k, n-1), evaluated column by column by
    `_columns`, the one driver of the tabular route.  It also runs in log
    space (`build_log_table`) and in Python ints scaled by sigma^n_max
    (`_exact_grid`), a scale that keeps every exact step an integer.
    """
    params = _tabular_params(sigma_size, n_max)
    check_budget((n_max + 1) ** 2 * 8, f"table for n_max={n_max}")
    values = _stacked(n_max, np.array([1.0] + [0.0] * n_max), _float_step(params))
    return ProbTable(sigma_size=sigma_size, n_max=n_max, values=values)


def table_column(sigma_size: int, n: int, k_max: int) -> np.ndarray:
    """p(k, n) for k = 0..k_max from the recurrence of ``build_table``.

    Cell (k, n) reads only cells with k' <= k, so one vector over k <= k_max
    carried from column 0 to column n holds exactly the values of
    ``build_table(sigma_size, n).values[:k_max + 1, n]`` in O(k_max) memory.
    """
    params = _tabular_params(sigma_size, n, k_max)
    *_, col = _columns(n, np.array([1.0] + [0.0] * k_max), _float_step(params))
    return col


def build_log_table(sigma_size: int, n_max: int) -> np.ndarray:
    """Same recurrence carried in log space; returns ln p(k, n).

    Cells with k > n hold -inf.  The reference the engine's ``ProbKernel``
    rows are tested against; linear p underflows long before n reaches the
    benchmark string lengths.  On the single-letter alphabet ln beta is
    -inf, so each step shifts the column down and ln p is 0 for k <= n.
    """
    params = _tabular_params(sigma_size, n_max)
    check_budget((n_max + 1) ** 2 * 8, f"table for n_max={n_max}")
    ln_a = math.log(params.alpha)
    ln_b = -math.inf if params.degenerate else math.log(params.beta)
    log_vals = _stacked(
        n_max,
        np.array([0.0] + [-math.inf] * n_max),
        lambda lower, same: np.logaddexp(ln_a + lower, ln_b + same),
    )
    # float noise in the saturated region can nudge ln p above 0
    np.minimum(log_vals, 0.0, out=log_vals)
    return log_vals


def _exact_grid(sigma_size: int, n_max: int) -> tuple[np.ndarray, int]:
    """The grid of p(k, n) * sigma^n_max in Python ints, and sigma^n_max.

    p(k, n) is an integer over sigma^n, so every cell is an integer, row 0
    is the constant sigma^n_max, and lower + (sigma-1) * same is sigma
    times the next cell, so the step divides exactly.
    """
    _tabular_params(sigma_size, n_max)
    if n_max > EXACT_N_CAP:
        raise CapacityError(f"exact-rational grid capped at n_max={EXACT_N_CAP}")
    s, denom = sigma_size, sigma_size**n_max
    first = np.array([denom] + [0] * n_max, dtype=object)
    return _stacked(n_max, first, lambda lower, same: (lower + (s - 1) * same) // s), denom


def exact_table(sigma_size: int, n_max: int) -> list[list[Fraction]]:
    """Arbitrary-precision rational p(k, n) grid via the recurrence.

    Ground truth for the equivalence suite.  Capped at n_max = EXACT_N_CAP.
    """
    grid, denom = _exact_grid(sigma_size, n_max)
    return [[Fraction(v, denom) for v in row] for row in grid]


def exact_float_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Exact-rational grid rounded once to float64 (for array comparisons).

    Each cell is int / int, which Python rounds correctly.  Capped at
    n_max = EXACT_N_CAP.
    """
    grid, denom = _exact_grid(sigma_size, n_max)
    return (grid / denom).astype(float)


# --------------------------------------------------------------------------
# closed forms: one row function per route
# --------------------------------------------------------------------------
#
# Each route is one function of (k, n, params) that returns the unclamped
# value over a vector of n >= k >= 1 on a multi-letter alphabet.  Every
# log-gamma comes from scipy's `gammaln`, as in `ProbKernel`.

_BETA_FORM = "the Beta-density form"


def _log_q_row(k: int, n: np.ndarray, params: AlphabetParams) -> np.ndarray:
    """ln q(k, n) = ln sum_{i<k} alpha^i C(n-k+i, i) over the vector n.

    The i = 0 term is exactly 0, so q(1, n) is exactly 1 and the largest
    term, which the exps are scaled by, is finite.
    """
    i = np.arange(k)[:, None]
    terms = (
        i * math.log(params.alpha)
        + gammaln(n - k + i + 1)
        - gammaln(i + 1)
        - gammaln(n - k + 1)
    )
    top = terms.max(axis=0)
    return top + np.log(np.exp(terms - top).sum(axis=0))


def _closed_row(
    k: int, n: np.ndarray, params: AlphabetParams, mode: NumericMode
) -> np.ndarray:
    """Closed-form p = 1 - beta^(n-k+1) q(k, n) over the vector n.

    LOGSPACE forms the product in log space and takes -expm1 of it, which
    keeps the digits of a small p; LINEAR multiplies it out as written.
    """
    ln_q = _log_q_row(k, n, params)
    if mode is NumericMode.LOGSPACE:
        t = np.minimum((n - k + 1) * math.log(params.beta) + ln_q, 0.0)
        return -np.expm1(t)
    return 1.0 - params.beta ** (n - k + 1) * np.exp(ln_q)


def _product_row(k: int, n: np.ndarray, params: AlphabetParams) -> np.ndarray:
    """Product-form p over the vector n.

    p = 1 - beta^(n-k+1) - sum_{1<=i<k} beta^(n-k+1) prod_{j<=i} alpha*(n-k+j)/j,
    each term a running sum of logs over j from ln beta^(n-k+1); a term is a
    probability, so unlike the bare products it cannot overflow.
    """
    j = np.arange(1, k)[:, None]
    log_terms = (n - k + 1) * math.log(params.beta) + np.cumsum(
        np.log(params.alpha * (n - k + j) / j), axis=0
    )
    return 1.0 - params.beta ** (n - k + 1) - np.exp(log_terms).sum(axis=0)


def _beta_row(k: int, n: np.ndarray, params: AlphabetParams) -> np.ndarray:
    """p = 1 - beta^(n-k+1) - alpha*beta * sum_{1<=i<k} density_i / i over n.

    The i-th summand is the Beta(n-k+1, i) density at beta; term by term
    it is the i-th term of the closed form.
    """
    i = np.arange(1, k)[:, None]
    total = (beta_density(params.beta, n - k + 1, i) / i).sum(axis=0)
    return 1.0 - params.beta ** (n - k + 1) - params.alpha * params.beta * total


def beta_density(x: float, a, b):
    """Beta(a, b) probability density at x, evaluated through log-gamma.

    a and b may be arrays; they broadcast against each other.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"density evaluated at x={x}, need 0 < x < 1")
    if np.any(np.less_equal(a, 0)) or np.any(np.less_equal(b, 0)):
        raise DomainError(f"shape parameters must be positive, got a={a} b={b}")
    log_norm = gammaln(a) + gammaln(b) - gammaln(np.add(a, b))
    return np.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)


def _single_letter(route: str | None) -> int:
    """p(k, n) for k <= n on the single-letter alphabet: 1, unless `route`
    names a form that is undefined there."""
    if route is not None:
        raise DomainError(f"{route} needs a multi-letter alphabet")
    return 1


def _base_p(
    k: int, n: int, params: AlphabetParams, route: str | None = None
) -> int | None:
    """p(k, n) where no sum is needed, or None where a route must sum.

    DomainError for k < 0 or n < 0; then p = 1 at k = 0, p = 0 at k > n,
    and the single-letter alphabet (see `_single_letter`).
    """
    if k < 0 or n < 0:
        raise DomainError(f"k and n must be >= 0, got k={k} n={n}")
    if k == 0:
        return 1
    if k > n:
        return 0
    if params.degenerate:
        return _single_letter(route)
    return None


def _point(row, k: int, n: int, params: AlphabetParams, *args, route=None) -> float:
    """A route's p at one (k, n): the base cases, else its row at [n] clamped."""
    base = _base_p(k, n, params, route)
    if base is not None:
        return float(base)
    return min(1.0, max(0.0, float(row(k, np.array([n]), params, *args)[0])))


def _grid(row, sigma_size: int, n_max: int, *args, route=None) -> np.ndarray:
    """A route's rows stacked over k into the unclamped (k, n) grid.

    Row 0 is 1 and cells with k > n are 0; on the single-letter alphabet
    the grid is upper-triangular ones.
    """
    params = AlphabetParams(sigma_size)
    size = n_max + 1
    if params.degenerate:
        return _single_letter(route) * np.triu(np.ones((size, size)))
    grid = np.zeros((size, size))
    grid[0, :] = 1.0
    for k in range(1, size):
        grid[k, k:] = row(k, np.arange(k, size), params, *args)
    return grid


def prob_closed(
    k: int,
    n: int,
    params: AlphabetParams,
    mode: NumericMode | None = None,
):
    """Closed-form p(k, n) = 1 - beta^(n-k+1) * sum_i alpha^i C(n-k+i, i).

    mode=None picks LINEAR or LOGSPACE automatically; EXACT_RATIONAL
    returns a Fraction.  Results are clamped to [0, 1] (float modes only);
    the raw value is exercised unclamped by cross_validate.
    """
    if mode is NumericMode.EXACT_RATIONAL:
        base = _base_p(k, n, params)
        if base is not None:
            return Fraction(base)
        a = Fraction(1, params.sigma_size)
        b = 1 - a
        s = sum(a**i * math.comb(n - k + i, i) for i in range(k))
        return 1 - b ** (n - k + 1) * s
    if mode is None:
        mode = default_mode(params.sigma_size, n)
    return _point(_closed_row, k, n, params, mode)


def prob_closed_product(k: int, n: int, params: AlphabetParams) -> float:
    """Product-form closed evaluation (see `_product_row`), clamped."""
    return _point(_product_row, k, n, params)


def prob_beta_sum(k: int, n: int, params: AlphabetParams) -> float:
    """p(k, n) as a weighted sum of Beta densities (see `_beta_row`), clamped.

    Needs 0 < beta < 1, so the single-letter alphabet raises DomainError
    wherever k <= n asks for the sum.
    """
    return _point(_beta_row, k, n, params, route=_BETA_FORM)


def q_value(
    k: int,
    n: int,
    params: AlphabetParams,
    mode: NumericMode = NumericMode.LINEAR,
) -> float:
    """Rescaled tail q(k, n) = sum_{i<k} alpha^i C(n-k+i, i).

    Equals (1 - p(k, n)) / beta^(n-k+1) for k <= n; the sum is empty at
    k = 0 and its binomials vanish at k > n, so q = 0 there.  LOGSPACE
    mode returns ln q; the other modes return inf where q is beyond the
    float range.  The single-letter alphabet raises DomainError wherever
    k <= n asks for the sum.
    """
    if _base_p(k, n, params, "q(k, n)") is None:
        ln_q = float(_log_q_row(k, np.array([n]), params)[0])
    else:
        ln_q = -math.inf
    if mode is NumericMode.LOGSPACE:
        return ln_q
    try:
        return math.exp(ln_q)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# whole-grid evaluators (used by cross_validate and tests)
# --------------------------------------------------------------------------


def closed_grid(
    sigma_size: int, n_max: int, mode: NumericMode = NumericMode.LOGSPACE
) -> np.ndarray:
    """Unclamped closed-form p over the full (k, n) grid."""
    return _grid(_closed_row, sigma_size, n_max, mode)


def closed_product_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Unclamped product-form p over the full grid."""
    return _grid(_product_row, sigma_size, n_max)


def beta_sum_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Unclamped Beta-density-sum p over the full grid."""
    return _grid(_beta_row, sigma_size, n_max, route=_BETA_FORM)


@dataclass(frozen=True)
class CrossValidationReport:
    sigma_size: int
    n_max: int
    tolerance: float
    deviations: dict
    passed: bool

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())


def cross_validate(
    sigma_size: int, n_max: int, tolerance: float = 1e-9
) -> CrossValidationReport:
    """Evaluate all five routes over the grid and compare them pairwise.

    The tabular route runs in exact rationals (ground truth); the closed
    form runs through log space; the product and Beta-sum forms run linear;
    the binomial route stacks the search engine's own kernel rows.
    """
    kernel = ProbKernel(sigma_size, n_max)
    grids = {
        Method.TABULAR_DP: exact_float_grid(sigma_size, n_max),
        Method.CLOSED_FORM: closed_grid(sigma_size, n_max, NumericMode.LOGSPACE),
        Method.CLOSED_FORM_II: closed_product_grid(sigma_size, n_max),
        Method.BETA_FORM: beta_sum_grid(sigma_size, n_max),
        Method.BINOMIAL: np.exp([kernel.log_row(k) for k in range(n_max + 1)]),
    }
    names = list(grids)
    devs = {}
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            a, b = names[a_idx], names[b_idx]
            devs[(a.value, b.value)] = float(
                np.abs(grids[a] - grids[b]).max()
            )
    passed = all(d <= tolerance for d in devs.values())
    return CrossValidationReport(
        sigma_size=sigma_size,
        n_max=n_max,
        tolerance=tolerance,
        deviations=devs,
        passed=passed,
    )


# --------------------------------------------------------------------------
# row kernel for the search engine
# --------------------------------------------------------------------------


class ProbKernel:
    """ln p(k, n) for one (alphabet size, n_max) pair, one k row at a time.

    A row comes from the closed form p(k, n) = P(Binomial(n, alpha) >= k):
    the k-th match falls at some position m <= n, which has probability
    C(m-1, k-1) alpha^k beta^(m-k), so ln p(k, n) is a running log-sum of
    those terms over m = k..n.  A kernel holds only its parameters and an
    O(n_max) log-gamma lookup and keeps nothing between calls, so each row
    is a pure function of (k, window) and memory does not grow with n_max
    squared.
    """

    def __init__(self, sigma_size: int, n_max: int):
        if n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {n_max}")
        self.params = AlphabetParams(sigma_size)
        self.n_max = n_max
        self._gammaln = gammaln(np.arange(n_max + 2))  # [j] = ln (j-1)!

    def log_p(self, k: int, n: int) -> float:
        """ln p(k, n); DomainError unless k >= 0 and 0 <= n <= n_max."""
        if not 0 <= n <= self.n_max:
            raise DomainError(f"need 0 <= n <= {self.n_max}, got n={n}")
        if k == 0:
            return 0.0
        if k > n:
            return -math.inf
        return float(self.log_row(k, n)[n])

    def log_row(self, k: int, n_hi: int | None = None, n_lo: int = 0) -> np.ndarray:
        """Read-only ln p(k, n) for n = n_lo..min(n_hi, n_max); -inf where k > n.

        Entry i of the result is n = n_lo + i, and `n_hi` defaults to n_max.
        With n_lo <= k the running log-sum starts at m = k, so the window is
        bitwise that slice of the full row.  With n_lo > k its first entry
        is the tail ln P(Binomial(n_lo, alpha) >= k) (see `_log_tail`), and
        the running log-sum goes on from there over m = n_lo+1..n_hi; it
        rounds differently from the full row, by up to about
        2e-11 * max(1, |ln p|).  Every call builds its window afresh.
        """
        if k < 0:
            raise DomainError(f"k must be >= 0, got {k}")
        if n_lo < 0 or (n_hi is not None and n_hi < n_lo):
            raise DomainError(f"need 0 <= n_lo <= n_hi, got n_lo={n_lo} n_hi={n_hi}")
        hi = self.n_max if n_hi is None else min(n_hi, self.n_max)
        row = np.full(max(hi - n_lo + 1, 0), -np.inf)
        first = max(k, n_lo)
        if k == 0 or self.params.degenerate:
            # p(0, n) = 1; single-letter strings contain every shorter pattern
            row[first - n_lo :] = 0.0
        elif first <= hi:
            lg = self._gammaln
            terms = (
                k * math.log(self.params.alpha)
                + (np.arange(first, hi + 1) - k) * math.log(self.params.beta)
                + (lg[first : hi + 1] - lg[k] - lg[first - k + 1 : hi - k + 2])
            )
            if n_lo > k:
                terms[0] = self._log_tail(k, n_lo)  # stands for the terms m = k..n_lo
            np.logaddexp.accumulate(terms, out=row[first - n_lo :])
            # float noise in the saturated region can nudge ln p above 0
            np.minimum(row, 0.0, out=row)
        row.setflags(write=False)
        return row

    def _log_tail(self, k: int, n: int) -> float:
        """ln P(Binomial(n, alpha) >= k) for 1 <= k <= n, alpha < 1.

        Sums the pmf terms t_j on the short side of the mean n*alpha: above
        it the tail j >= k itself, else the complement j < k from k-1
        downward, returned as log1p(-sum) so that p close to 1 keeps its
        digits.  Either way t_j falls from the first term on.  The pmf is
        log-concave: the log of the step ratio r = t_next / t_j is below 0
        at the start and drops by at least 4 / (n + 2) per step, so the
        number of steps after which the terms have fallen by 2**-60 (and a
        margin) follows from a quadratic, and the terms left out sum to at
        most t_J * r / (1 - r) < 2**-60 of the sum.  One vectorised pass.
        """
        a, b = self.params.alpha, self.params.beta
        lg = self._gammaln
        upper = k > n * a
        if upper:  # j = k, k+1, ..., n
            total, ratio = n - k + 1, (n - k) * a / ((k + 1) * b)
        else:  # j = k-1, k-2, ..., 0
            total, ratio = k, (k - 1) * b / ((n - k + 2) * a)
        count = total
        if total > 1:
            # d steps lower the log of the terms by at least d*g + d*(d-1)*c/2;
            # the 10 covers r / (1 - r) < e**10, which holds for n below 1e10
            g, c = -math.log(ratio), 4 / (n + 2)
            drop = 60 * math.log(2) + 10
            steps = (math.sqrt((g - c / 2) ** 2 + 2 * c * drop) - (g - c / 2)) / c
            count = min(total, math.ceil(steps) + 1)
        j0, j1 = (k, k + count - 1) if upper else (k - count, k - 1)
        log_t = (
            (lg[n + 1] + n * math.log(b))
            + np.arange(j0, j1 + 1) * math.log(a / b)
            - lg[j0 + 1 : j1 + 2]
            - lg[n - j1 + 1 : n - j0 + 2][::-1]
        )
        head = log_t[0] if upper else log_t[-1]  # the largest term
        rel = np.exp(log_t - head).sum()
        if upper:
            return float(head + math.log(rel))
        return math.log1p(-math.exp(head) * rel)

    def p(self, k: int, n: int) -> float:
        return math.exp(self.log_p(k, n))


def get_kernel(sigma_size: int, n_max: int) -> ProbKernel:
    """The kernel the engine scores with; a new one per call, nothing cached."""
    return ProbKernel(sigma_size, n_max)
