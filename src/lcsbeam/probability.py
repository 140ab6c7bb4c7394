"""Subsequence-probability kernel.

Everything here evaluates p(k, n): the probability that a fixed symbol
sequence of length k occurs as a subsequence of a uniformly random string
of length n over an alphabet of a given size.  The same quantity is
computed by five mutually verifying routes:

- ``build_table``          recurrence-driven dynamic-programming grid
- ``prob_closed``          direct summation of the closed form
- ``prob_closed_product``  closed form with an incrementally accumulated
                           term product (no explicit binomials)
- ``prob_beta_sum``        weighted sum of Beta density values
- ``ProbKernel.log_row``   the binomial tail P(Binomial(n, 1/sigma) >= k),
                           one k row at a time in log space

``q_value`` evaluates the rescaled tail q(k, n) = (1 - p) / beta^(n-k+1),
a plain binomial-weighted sum used for picking the target length k in the
search heuristics.  ``cross_validate`` runs all five routes over a grid
and reports the worst pairwise disagreement.

The search engine scores with ``ProbKernel`` rows only: it needs one k
per level, so no (n_max+1)^2 grid is built on the search path, and it
asks only for the window of n from the level's shortest to its longest
remainder.  A window that starts above k is seeded with the binomial
tail at its first n, so its cost does not grow with how far that n is
from k.

Numeric modes: LINEAR sums terms directly, LOGSPACE goes through
log-sum-exp (safe for large n or large alphabets), EXACT_RATIONAL keeps
arbitrary-precision rationals and serves as ground truth in tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp


class CapacityError(Exception):
    """A requested table would exceed the configured memory budget."""


class DomainError(ValueError):
    """Parameters outside the mathematical domain of an operation."""


TABLE_BUDGET_ENV = "LCSBEAM_TABLE_BUDGET_MB"
_DEFAULT_BUDGET_MB = 512.0

EXACT_N_CAP = 500  # largest grid the exact-rational recurrence will build


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


def build_table(sigma_size: int, n_max: int) -> ProbTable:
    """Fill the p(k, n) grid from the two-term recurrence.

    Base cases: p(0, n) = 1 and p(k, n) = 0 for k > n.  Interior cells are
    alpha * p(k-1, n-1) + beta * p(k, n-1), evaluated column by column.
    """
    params = AlphabetParams(sigma_size)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    check_budget((n_max + 1) ** 2 * 8, f"table for n_max={n_max}")
    size = n_max + 1
    vals = np.zeros((size, size))
    vals[0, :] = 1.0
    for n in range(1, size):
        vals[1 : n + 1, n] = (
            params.alpha * vals[0:n, n - 1] + params.beta * vals[1 : n + 1, n - 1]
        )
    return ProbTable(sigma_size=sigma_size, n_max=n_max, values=vals)


def table_column(sigma_size: int, n: int, k_max: int) -> np.ndarray:
    """p(k, n) for k = 0..k_max from the recurrence of ``build_table``.

    Cell (k, n) reads only cells with k' <= k, so one vector over k <= k_max
    carried from column 0 to column n holds exactly the values of
    ``build_table(sigma_size, n).values[:k_max + 1, n]`` in O(k_max) memory.
    """
    params = AlphabetParams(sigma_size)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    col = np.zeros(k_max + 1)
    col[0] = 1.0
    for m in range(1, n + 1):
        top = min(m, k_max)
        col[1 : top + 1] = params.alpha * col[0:top] + params.beta * col[1 : top + 1]
    return col


def build_log_table(sigma_size: int, n_max: int) -> np.ndarray:
    """Same recurrence carried in log space; returns ln p(k, n).

    Cells with k > n hold -inf.  The reference the engine's ``ProbKernel``
    rows are tested against; linear p underflows long before n reaches the
    benchmark string lengths.
    """
    params = AlphabetParams(sigma_size)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    check_budget((n_max + 1) ** 2 * 8, f"table for n_max={n_max}")
    size = n_max + 1
    log_vals = np.full((size, size), -np.inf)
    log_vals[0, :] = 0.0
    if params.degenerate:
        # single-letter strings contain every shorter subsequence
        for n in range(size):
            log_vals[0 : n + 1, n] = 0.0
        return log_vals
    ln_a = math.log(params.alpha)
    ln_b = math.log(params.beta)
    with np.errstate(invalid="ignore"):
        for n in range(1, size):
            log_vals[1 : n + 1, n] = np.logaddexp(
                ln_a + log_vals[0:n, n - 1], ln_b + log_vals[1 : n + 1, n - 1]
            )
    # float noise in the saturated region can nudge ln p above 0
    np.minimum(log_vals, 0.0, out=log_vals)
    return log_vals


def exact_table(sigma_size: int, n_max: int) -> list[list[Fraction]]:
    """Arbitrary-precision rational p(k, n) grid via the recurrence.

    Ground truth for the equivalence suite.  Internally the numerators are
    integers over the implicit denominator sigma^n, so no gcd churn occurs.
    Capped at n_max = EXACT_N_CAP.
    """
    if sigma_size < 1:
        raise DomainError(f"alphabet size must be >= 1, got {sigma_size}")
    if n_max > EXACT_N_CAP:
        raise CapacityError(f"exact-rational grid capped at n_max={EXACT_N_CAP}")
    num = _exact_numerators(sigma_size, n_max)
    out = []
    denom = 1
    cols = []
    for n in range(n_max + 1):
        cols.append(denom)
        denom *= sigma_size
    for k in range(n_max + 1):
        out.append(
            [Fraction(num[k][n], cols[n]) for n in range(n_max + 1)]
        )
    return out


def _exact_numerators(sigma_size: int, n_max: int) -> list[list[int]]:
    """Integer numerators P with p(k, n) = P[k][n] / sigma^n."""
    size = n_max + 1
    num = [[0] * size for _ in range(size)]
    denom = 1
    for n in range(size):
        num[0][n] = denom
        denom *= sigma_size
    w = sigma_size - 1
    for n in range(1, size):
        row_prev = n - 1
        for k in range(1, n + 1):
            num[k][n] = num[k - 1][row_prev] + w * num[k][row_prev]
    return num


def exact_float_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Exact-rational grid rounded once to float64 (for array comparisons)."""
    num = _exact_numerators(sigma_size, n_max)
    size = n_max + 1
    grid = np.zeros((size, size))
    denom = 1
    for n in range(size):
        for k in range(n + 1):
            grid[k, n] = num[k][n] / denom  # int/int is correctly rounded
        denom *= sigma_size
    return grid


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

_FACTORIAL_CUTOFF = 60  # beyond this, binomials go through log-gamma


def _log_binom(top: int, bottom: int) -> float:
    return (
        math.lgamma(top + 1) - math.lgamma(bottom + 1) - math.lgamma(top - bottom + 1)
    )


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
    if k < 0 or n < 0:
        raise DomainError(f"k and n must be >= 0, got k={k} n={n}")
    if k == 0:
        return Fraction(1) if mode is NumericMode.EXACT_RATIONAL else 1.0
    if k > n:
        return Fraction(0) if mode is NumericMode.EXACT_RATIONAL else 0.0
    if params.degenerate:
        # single-letter convention: certainty whenever k <= n
        return Fraction(1) if mode is NumericMode.EXACT_RATIONAL else 1.0
    if mode is None:
        mode = default_mode(params.sigma_size, n)
    if mode is NumericMode.EXACT_RATIONAL:
        a = Fraction(1, params.sigma_size)
        b = 1 - a
        s = sum(a**i * math.comb(n - k + i, i) for i in range(k))
        return 1 - b ** (n - k + 1) * s
    raw = _closed_raw(k, n, params, mode)
    return min(1.0, max(0.0, raw))


def _closed_raw(k: int, n: int, params: AlphabetParams, mode: NumericMode) -> float:
    if mode is NumericMode.LINEAR:
        ln_a = math.log(params.alpha)
        s = 0.0
        for i in range(k):
            if n - k + i <= _FACTORIAL_CUTOFF:
                term = params.alpha**i * math.comb(n - k + i, i)
            else:
                term = math.exp(i * ln_a + _log_binom(n - k + i, i))
            s += term
        return 1.0 - params.beta ** (n - k + 1) * s
    # LOGSPACE: accumulate the sum via log-sum-exp, then 1 - e^T stably
    ln_q = _log_q(k, n, params)
    t = (n - k + 1) * math.log(params.beta) + ln_q
    return -math.expm1(min(t, 0.0))


def _log_q(k: int, n: int, params: AlphabetParams) -> float:
    """ln of sum_i alpha^i C(n-k+i, i) for i in [0, k), via log-sum-exp.

    All three lgamma factors come from the same lookup so the i = 0 term
    cancels to exactly 0 (q(1, n) must be exactly 1)."""
    ln_a = math.log(params.alpha)
    i = np.arange(k)
    terms = (
        i * ln_a
        + _gammaln_int(n - k + i + 1)
        - _gammaln_int(i + 1)
        - _gammaln_int(n - k + 1)
    )
    return float(logsumexp(terms))


_GAMMALN_CACHE: np.ndarray = np.array([])


def _gammaln_int(idx):
    """lgamma over non-negative integer arguments via a growing lookup."""
    global _GAMMALN_CACHE
    top = int(np.max(idx)) if np.ndim(idx) else int(idx)
    if top >= _GAMMALN_CACHE.size:
        size = max(top + 1, 2 * _GAMMALN_CACHE.size, 1024)
        table = np.zeros(size)
        table[0] = np.inf  # lgamma(0) diverges; index 0 is never used
        table[2:] = np.cumsum(np.log(np.arange(1, size - 1)))  # lgamma(m) = ln (m-1)!
        _GAMMALN_CACHE = table
    return _GAMMALN_CACHE[idx]


def prob_closed_product(k: int, n: int, params: AlphabetParams) -> float:
    """Product-form closed evaluation.

    p = 1 - beta^(n-k+1) - beta^(n-k+1) * sum_{i>=1} prod_{j<=i} alpha*(n-k+j)/j,
    with the inner product carried incrementally from one i to the next.
    """
    if k < 0 or n < 0:
        raise DomainError(f"k and n must be >= 0, got k={k} n={n}")
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    if params.degenerate:
        return 1.0
    raw = _closed_product_raw(k, n, params)
    return min(1.0, max(0.0, raw))


def _closed_product_raw(k: int, n: int, params: AlphabetParams) -> float:
    total = 0.0
    prod = 1.0
    for i in range(1, k):
        prod *= params.alpha * (n - k + i) / i
        total += prod
    bpow = params.beta ** (n - k + 1)
    return 1.0 - bpow - bpow * total


def beta_density(x: float, a: float, b: float) -> float:
    """Beta(a, b) probability density at x, evaluated through log-gamma."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"density evaluated at x={x}, need 0 < x < 1")
    if a <= 0 or b <= 0:
        raise DomainError(f"shape parameters must be positive, got a={a} b={b}")
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)


def prob_beta_sum(k: int, n: int, params: AlphabetParams) -> float:
    """p(k, n) as 1 - beta^(n-k+1) - alpha*beta * sum_i density_i / i.

    The i-th summand is the Beta(n-k+1, i) density at beta.  Matches the
    direct closed form term by term; the base cases k = 0 and k > n bypass
    the sum entirely.
    """
    if params.beta == 0.0 or params.beta == 1.0:
        raise DomainError(
            f"beta density form needs 0 < beta < 1 (alphabet size {params.sigma_size})"
        )
    if k < 0 or n < 0:
        raise DomainError(f"k and n must be >= 0, got k={k} n={n}")
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    raw = _beta_sum_raw(k, n, params)
    return min(1.0, max(0.0, raw))


def _beta_sum_raw(k: int, n: int, params: AlphabetParams) -> float:
    total = 0.0
    for i in range(1, k):
        total += beta_density(params.beta, n - k + 1, i) / i
    bpow = params.beta ** (n - k + 1)
    return 1.0 - bpow - params.alpha * params.beta * total


def q_value(
    k: int,
    n: int,
    params: AlphabetParams,
    mode: NumericMode = NumericMode.LINEAR,
) -> float:
    """Rescaled tail q(k, n) = sum_{i<k} alpha^i C(n-k+i, i).

    Equals (1 - p(k, n)) / beta^(n-k+1).  LOGSPACE mode returns ln q.
    Undefined on the single-letter alphabet.
    """
    if params.degenerate:
        raise DomainError("q(k, n) is undefined for a single-letter alphabet")
    if k < 0 or n < 0:
        raise DomainError(f"k and n must be >= 0, got k={k} n={n}")
    if k == 0:
        return -math.inf if mode is NumericMode.LOGSPACE else 0.0
    if mode is NumericMode.LOGSPACE:
        return _log_q(k, n, params)
    ln_a = math.log(params.alpha)
    s = 0.0
    for i in range(k):
        top = n - k + i
        if top < i:
            continue  # vanishing binomial (only reachable when k > n)
        if top <= _FACTORIAL_CUTOFF:
            s += params.alpha**i * math.comb(top, i)
        else:
            s += math.exp(i * ln_a + _log_binom(top, i))
    return s


# --------------------------------------------------------------------------
# whole-grid evaluators (row-vectorised; used by cross_validate and tests)
# --------------------------------------------------------------------------


def closed_grid(
    sigma_size: int, n_max: int, mode: NumericMode = NumericMode.LOGSPACE
) -> np.ndarray:
    """Unclamped closed-form p over the full (k, n) grid."""
    params = AlphabetParams(sigma_size)
    size = n_max + 1
    grid = np.zeros((size, size))
    grid[0, :] = 1.0
    if params.degenerate:
        for n in range(size):
            grid[0 : n + 1, n] = 1.0
        return grid
    ln_a = math.log(params.alpha)
    ln_b = math.log(params.beta)
    _gammaln_int(2 * n_max + 2)  # warm the lookup once
    for k in range(1, size):
        n = np.arange(k, size)
        i = np.arange(k)[:, None]
        log_terms = (
            i * ln_a
            + _gammaln_int(n - k + i + 1)
            - _gammaln_int(i + 1)
            - _gammaln_int(n - k + 1)
        )
        if mode is NumericMode.LOGSPACE:
            ln_q = logsumexp(log_terms, axis=0)
            t = np.minimum((n - k + 1) * ln_b + ln_q, 0.0)
            grid[k, k:] = -np.expm1(t)
        else:
            s = np.exp(log_terms).sum(axis=0)
            grid[k, k:] = 1.0 - np.exp((n - k + 1) * ln_b) * s
    return grid


def closed_product_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Unclamped product-form p over the full grid (cumulative products)."""
    params = AlphabetParams(sigma_size)
    size = n_max + 1
    grid = np.zeros((size, size))
    grid[0, :] = 1.0
    if params.degenerate:
        for n in range(size):
            grid[0 : n + 1, n] = 1.0
        return grid
    for k in range(1, size):
        n = np.arange(k, size)
        bpow = params.beta ** (n - k + 1).astype(float)
        if k == 1:
            grid[k, k:] = 1.0 - bpow
            continue
        j = np.arange(1, k)[:, None]
        ratios = params.alpha * (n - k + j) / j
        total = np.cumprod(ratios, axis=0).sum(axis=0)
        grid[k, k:] = 1.0 - bpow - bpow * total
    return grid


def beta_sum_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Unclamped Beta-density-sum p over the full grid."""
    params = AlphabetParams(sigma_size)
    if params.degenerate:
        raise DomainError("beta density form needs a multi-letter alphabet")
    size = n_max + 1
    grid = np.zeros((size, size))
    grid[0, :] = 1.0
    ln_a = math.log(params.alpha)
    ln_b = math.log(params.beta)
    _gammaln_int(2 * n_max + 2)
    for k in range(1, size):
        n = np.arange(k, size)
        bpow = np.exp((n - k + 1) * ln_b)
        if k == 1:
            grid[k, k:] = 1.0 - bpow
            continue
        i = np.arange(1, k)[:, None]
        a = n - k + 1
        log_density = (
            (a - 1) * ln_b
            + (i - 1) * ln_a
            - (_gammaln_int(a) + _gammaln_int(i) - _gammaln_int(a + i))
        )
        total = (np.exp(log_density) / i).sum(axis=0)
        grid[k, k:] = 1.0 - bpow - params.alpha * params.beta * total
    return grid


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
    if n_max > EXACT_N_CAP:
        raise CapacityError(f"cross-validation grid capped at n_max={EXACT_N_CAP}")
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
    those terms over m = k..n.  Only an O(n_max) log-gamma lookup and the
    last row are kept, so memory does not grow with n_max squared.
    """

    def __init__(self, sigma_size: int, n_max: int):
        if n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {n_max}")
        self.params = AlphabetParams(sigma_size)
        self.n_max = n_max
        self._gammaln = gammaln(np.arange(n_max + 2))  # [j] = ln (j-1)!
        # (k, n_lo, row) of the last row built; one tuple so that a thread
        # reading it never pairs one k or window with another's row
        self._last: tuple[int, int, np.ndarray] | None = None

    def log_p(self, k: int, n: int) -> float:
        if k == 0:
            return 0.0
        if k > n:
            return -math.inf
        return float(self.log_row(k)[n])

    def log_row(self, k: int, n_hi: int | None = None, n_lo: int = 0) -> np.ndarray:
        """Read-only ln p(k, n) for n = n_lo..min(n_hi, n_max); -inf where k > n.

        Entry i of the result is n = n_lo + i, and `n_hi` defaults to n_max.
        With n_lo <= k the running log-sum starts at m = k, so the window is
        bitwise that slice of the full row.  With n_lo > k its first entry
        is the tail ln P(Binomial(n_lo, alpha) >= k) (see `_log_tail`), and
        the running log-sum goes on from there over m = n_lo+1..n_hi; it
        rounds differently from the full row, by up to about
        2e-11 * max(1, |ln p|).
        The engine asks for the same k across many calls in a row, so the
        last row is kept and handed out again to any call with the same k
        whose window it covers.
        """
        if k < 0:
            raise DomainError(f"k must be >= 0, got {k}")
        if n_lo < 0 or (n_hi is not None and n_hi < n_lo):
            raise DomainError(f"need 0 <= n_lo <= n_hi, got n_lo={n_lo} n_hi={n_hi}")
        hi = self.n_max if n_hi is None else min(n_hi, self.n_max)
        last = self._last
        if last is not None:
            last_k, last_lo, last_row = last
            if last_k == k and last_lo <= n_lo and hi < last_lo + len(last_row):
                return last_row[n_lo - last_lo : hi - last_lo + 1]
        row = self._build_row(k, n_lo, hi)
        row.setflags(write=False)
        self._last = (k, n_lo, row)
        return row

    def _build_row(self, k: int, lo: int, hi: int) -> np.ndarray:
        row = np.full(max(hi - lo + 1, 0), -np.inf)
        if k == 0 or self.params.degenerate:
            # p(0, n) = 1; single-letter strings contain every shorter pattern
            row[max(k - lo, 0) :] = 0.0
            return row
        first = max(k, lo)
        if first > hi:
            return row
        m = np.arange(first, hi + 1)
        lg = self._gammaln
        terms = (
            k * math.log(self.params.alpha)
            + (m - k) * math.log(self.params.beta)
            + (lg[first : hi + 1] - lg[k] - lg[first - k + 1 : hi - k + 2])
        )
        if lo > k:
            terms[0] = self._log_tail(k, lo)  # stands for the terms m = k..lo
        np.logaddexp.accumulate(terms, out=row[first - lo :])
        # float noise in the saturated region can nudge ln p above 0
        np.minimum(row, 0.0, out=row)
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
