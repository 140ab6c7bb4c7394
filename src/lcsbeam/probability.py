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
the sum inside the closed form, and ``log_q_value`` its logarithm.
``cross_validate`` runs all five routes over a grid and reports the worst
pairwise disagreement.

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

Only numpy is imported here.  ``ProbKernel`` reads ln Gamma at the
integers from ``log_gamma_ints``, a port of the cephes ``lgam`` that
scipy's ``gammaln`` runs and bitwise equal to it, so a solve never loads
scipy.  The closed-form sum of q and the Beta densities call scipy's
``gammaln`` itself, imported when they run: ``cross_validate`` and the
tests thus check the kernel against a log-gamma it does not share.

Each route has one evaluation and returns a plain value.  The closed
form sums q as a log-sum and forms 1 - beta^(n-k+1) q as -expm1 of a
logarithm, so it keeps its digits where beta^(n-k+1) underflows and q
overflows (large n, large alphabets); for n <= 200 it is within 1.9e-13
of the exact grid on alphabets of 2 to 26 letters.  ``prob_closed_exact``
is the same sum in Python ``Fraction``s, the ground truth of the tests.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np


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
        if not math.isfinite(mb):
            raise CapacityError(f"{TABLE_BUDGET_ENV} is not a finite number: {raw!r}")
    # kept a float: a finite budget past about 1.7e302 MiB is inf bytes and refuses nothing
    budget = mb * 1024 * 1024
    if need > budget:
        # one decimal, or as many more as it takes for the need to read above
        # the budget's whole bytes: seven places resolve one byte
        for places in range(1, 8):
            shown = f"{need / 2**20:.{places}f}", f"{math.floor(budget) / 2**20:.{places}f}"
            if shown[0] != shown[1]:
                break
        raise CapacityError(
            f"{what}: {shown[0]} MiB needed, budget is {shown[1]} MiB (set {TABLE_BUDGET_ENV})"
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


# --------------------------------------------------------------------------
# tabular route
# --------------------------------------------------------------------------


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


def build_table(sigma_size: int, n_max: int) -> np.ndarray:
    """The (n_max+1, n_max+1) grid of p(k, n), indexed [k, n], from the
    two-term recurrence.

    Base cases: p(0, n) = 1 and p(k, n) = 0 for k > n.  Interior cells are
    alpha * p(k-1, n-1) + beta * p(k, n-1), evaluated column by column by
    `_columns`, the one driver of the tabular route.  It also runs in log
    space (`build_log_table`) and in Python ints scaled by sigma^n_max
    (`_exact_grid`), a scale that keeps every exact step an integer.
    """
    params = _tabular_params(sigma_size, n_max)
    check_budget((n_max + 1) ** 2 * 8, f"table for n_max={n_max}")
    return _stacked(n_max, np.array([1.0] + [0.0] * n_max), _float_step(params))


def table_column(sigma_size: int, n: int, k_max: int) -> np.ndarray:
    """p(k, n) for k = 0..k_max from the recurrence of ``build_table``.

    Cell (k, n) reads only cells with k' <= k, so one vector over k <= k_max
    carried from column 0 to column n holds exactly the values of
    ``build_table(sigma_size, n)[:k_max + 1, n]`` in O(k_max) memory.
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
# log-gamma comes from scipy's `gammaln`, imported where it is called, so
# these routes check `ProbKernel` against a log-gamma it does not share
# and a solve, which reads only the kernel, never imports scipy.

_BETA_FORM = "the Beta-density form"


def _log_q_row(k: int, n: np.ndarray, params: AlphabetParams) -> np.ndarray:
    """ln q(k, n) = ln sum_{i<k} alpha^i C(n-k+i, i) over the vector n.

    The i = 0 term is exactly 0, so q(1, n) is exactly 1 and the largest
    term, which the exps are scaled by, is finite.
    """
    from scipy.special import gammaln

    i = np.arange(k)[:, None]
    terms = (
        i * math.log(params.alpha)
        + gammaln(n - k + i + 1)
        - gammaln(i + 1)
        - gammaln(n - k + 1)
    )
    top = terms.max(axis=0)
    return top + np.log(np.exp(terms - top).sum(axis=0))


def _closed_row(k: int, n: np.ndarray, params: AlphabetParams) -> np.ndarray:
    """Closed-form p = 1 - beta^(n-k+1) q(k, n) over the vector n.

    The product is formed in log space and p is -expm1 of it, which keeps
    the digits of a small p and cannot overflow.
    """
    t = (n - k + 1) * math.log(params.beta) + _log_q_row(k, n, params)
    return -np.expm1(np.minimum(t, 0.0))


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
    from scipy.special import gammaln

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


def _point(row, k: int, n: int, params: AlphabetParams, route=None) -> float:
    """A route's p at one (k, n): the base cases, else its row at [n] clamped."""
    base = _base_p(k, n, params, route)
    if base is not None:
        return float(base)
    return min(1.0, max(0.0, float(row(k, np.array([n]), params)[0])))


def _grid(row, sigma_size: int, n_max: int, route=None) -> np.ndarray:
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
        grid[k, k:] = row(k, np.arange(k, size), params)
    return grid


def prob_closed(k: int, n: int, params: AlphabetParams) -> float:
    """Closed-form p(k, n) = 1 - beta^(n-k+1) * sum_i alpha^i C(n-k+i, i).

    Evaluated as in `_closed_row` and clamped to [0, 1]; the raw value is
    exercised unclamped by cross_validate.
    """
    return _point(_closed_row, k, n, params)


def prob_closed_exact(k: int, n: int, params: AlphabetParams) -> Fraction:
    """The closed form of ``prob_closed`` summed in exact rationals."""
    base = _base_p(k, n, params)
    if base is not None:
        return Fraction(base)
    a = Fraction(1, params.sigma_size)
    s = sum(a**i * math.comb(n - k + i, i) for i in range(k))
    return 1 - (1 - a) ** (n - k + 1) * s


def prob_closed_product(k: int, n: int, params: AlphabetParams) -> float:
    """Product-form closed evaluation (see `_product_row`), clamped."""
    return _point(_product_row, k, n, params)


def prob_beta_sum(k: int, n: int, params: AlphabetParams) -> float:
    """p(k, n) as a weighted sum of Beta densities (see `_beta_row`), clamped.

    Needs 0 < beta < 1, so the single-letter alphabet raises DomainError
    wherever k <= n asks for the sum.
    """
    return _point(_beta_row, k, n, params, route=_BETA_FORM)


def log_q_value(k: int, n: int, params: AlphabetParams) -> float:
    """ln q(k, n), where q(k, n) = sum_{i<k} alpha^i C(n-k+i, i).

    q equals (1 - p(k, n)) / beta^(n-k+1) for k <= n; the sum is empty at
    k = 0 and its binomials vanish at k > n, so ln q = -inf there.  The
    single-letter alphabet raises DomainError wherever k <= n asks for
    the sum.
    """
    if _base_p(k, n, params, "q(k, n)") is not None:
        return -math.inf
    return float(_log_q_row(k, np.array([n]), params)[0])


def q_value(k: int, n: int, params: AlphabetParams) -> float:
    """q(k, n) of ``log_q_value``, or inf where q is beyond the float range."""
    try:
        return math.exp(log_q_value(k, n, params))
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# whole-grid evaluators (used by cross_validate and tests)
# --------------------------------------------------------------------------


def closed_grid(sigma_size: int, n_max: int) -> np.ndarray:
    """Unclamped closed-form p over the full (k, n) grid."""
    return _grid(_closed_row, sigma_size, n_max)


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

    The tabular route runs in exact rationals (ground truth); the product
    and Beta-sum forms run linear; the binomial route stacks the search
    engine's own kernel rows.  Deviations are keyed by pairs of the route
    names "table", "closed", "closed2", "beta" and "binomial".
    """
    kernel = ProbKernel(sigma_size, n_max)
    grids = {
        "table": exact_float_grid(sigma_size, n_max),
        "closed": closed_grid(sigma_size, n_max),
        "closed2": closed_product_grid(sigma_size, n_max),
        "beta": beta_sum_grid(sigma_size, n_max),
        "binomial": np.exp([kernel.log_row(k) for k in range(n_max + 1)]),
    }
    devs = {
        (a, b): float(np.abs(grids[a] - grids[b]).max())
        for a, b in itertools.combinations(grids, 2)
    }
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

# cephes `lgam`, which scipy's `gammaln` runs: ln sqrt(2 pi), and the
# correction polynomials in 1/x^2 of its Stirling series below x = 1000
# and from there on
_LN_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_STIRLING_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)


def log_gamma_ints(n: int) -> np.ndarray:
    """ln Gamma(j) for j = 0..n-1, bitwise what scipy's `gammaln` returns.

    A port of cephes `lgam` at the integers: inf at 0, ln (j-1)! below 13,
    and from 13 the Stirling series (x - 1/2) ln x - x + ln sqrt(2 pi)
    plus its correction over x, the 5-term polynomial below 1000, the
    3-term one up to 1e8 and none past it.  The arithmetic runs in numpy
    in cephes' order, each step correctly rounded as in C, but every ln x
    is `math.log`, the libm log cephes calls: with numpy's vectorised log,
    which is not libm's, the port differed from `gammaln` on 48 integers
    below 2**20 (numpy 2.4), and `math.lgamma` is another algorithm.
    """
    out = np.empty(n)
    small = [math.inf] + [math.log(math.factorial(j - 1)) for j in range(1, 13)]
    out[:13] = small[:n]
    if n <= 13:
        return out
    x = np.arange(13, n, dtype=np.float64)
    q = out[13:]
    np.multiply(x - 0.5, np.fromiter(map(math.log, x.tolist()), np.float64, len(x)), out=q)
    q -= x
    q += _LN_SQRT_2PI
    inv_sq = 1.0 / (x * x)
    cut, stop = min(n, 1000) - 13, min(n, 10**8 + 1) - 13
    for coeffs, part in ((_STIRLING, slice(0, cut)), (_STIRLING_LARGE, slice(cut, stop))):
        corr = np.full(len(inv_sq[part]), coeffs[0])
        for c in coeffs[1:]:  # Horner, as cephes' `polevl`
            corr *= inv_sq[part]
            corr += c
        corr /= x[part]
        q[part] += corr
    return out


class ProbKernel:
    """ln p(k, n) for one (alphabet size, n_max) pair, one k row at a time.

    A row comes from the closed form p(k, n) = P(Binomial(n, alpha) >= k):
    the k-th match falls at some position m <= n, which has probability
    C(m-1, k-1) alpha^k beta^(m-k), so ln p(k, n) is a running log-sum of
    those terms over m = k..n.  A kernel holds only its parameters and
    O(n_max) lookups and keeps nothing between calls, so each row is a pure
    function of (k, window) and memory does not grow with n_max squared.
    The lookups are ln Gamma(j) for j = 0..n_max+1 (`log_gamma_ints`,
    bitwise scipy's `gammaln` without importing scipy), j ln beta and
    j ln(alpha / beta), the products a row and a tail would otherwise form
    afresh from an `arange`.  The log-gamma lookup is built by the first
    row that reads it, not by the constructor: it costs about ten times
    scipy's vectorised call, and a kernel that is built but never asked
    for a row should not pay it.  Threads that race to that first build
    each make the whole array before they store it, and the arrays are
    equal, so every row reads a complete lookup.
    """

    def __init__(self, sigma_size: int, n_max: int):
        if n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {n_max}")
        self.params = AlphabetParams(sigma_size)
        self.n_max = n_max
        if not self.params.degenerate:  # ln beta is -inf for a single letter
            a, b = self.params.alpha, self.params.beta
            j = np.arange(n_max + 1)
            self._j_ln_beta = j * math.log(b)
            self._j_ln_ratio = j * math.log(a / b)

    @cached_property
    def _gammaln(self) -> np.ndarray:
        """[j] = ln (j-1)! for j = 0..n_max+1, built on first use."""
        return log_gamma_ints(self.n_max + 2)

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
        size = max(hi - n_lo + 1, 0)
        # a window from n_lo >= k on has no entry n < k, and every entry is written below
        row = np.empty(size) if n_lo >= k else np.full(size, -np.inf)
        first = max(k, n_lo)
        if k == 0 or self.params.degenerate:
            # p(0, n) = 1; single-letter strings contain every shorter pattern
            row[first - n_lo :] = 0.0
        elif first <= hi:
            lg = self._gammaln
            # term m = k..n: k ln alpha + (m - k) ln beta + ln C(m-1, k-1), in
            # place in the row
            terms = row[first - n_lo :]
            np.add(self._j_ln_beta[first - k : hi - k + 1], k * math.log(self.params.alpha),
                   out=terms)
            binom = np.subtract(lg[first : hi + 1], lg[k])
            np.subtract(binom, lg[first - k + 1 : hi - k + 2], out=binom)
            terms += binom
            if n_lo > k:
                terms[0] = self._log_tail(k, n_lo)  # stands for the terms m = k..n_lo
            np.logaddexp.accumulate(terms, out=terms)
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
        log_t = np.add(self._j_ln_ratio[j0 : j1 + 1], lg[n + 1] + n * math.log(b))
        log_t -= lg[j0 + 1 : j1 + 2]
        log_t -= lg[n - j1 + 1 : n - j0 + 2][::-1]
        head = log_t[0] if upper else log_t[-1]  # the largest term
        log_t -= head
        rel = np.exp(log_t, out=log_t).sum()
        if upper:
            return float(head + math.log(rel))
        return math.log1p(-math.exp(head) * rel)

    def p(self, k: int, n: int) -> float:
        return math.exp(self.log_p(k, n))


def get_kernel(sigma_size: int, n_max: int) -> ProbKernel:
    """The kernel the engine scores with; a new one per call, nothing cached."""
    return ProbKernel(sigma_size, n_max)
