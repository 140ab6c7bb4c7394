"""Probability kernel tests.

Expected values were frozen from independent oracles: exhaustive
enumeration over all sigma^n strings for small cases, and exact rational
arithmetic for identities.  The five evaluation routes are checked
against each other and against those oracles.
"""

import itertools
import math
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam.probability import (
    AlphabetParams,
    CapacityError,
    DomainError,
    NumericMode,
    ProbKernel,
    beta_density,
    build_log_table,
    build_table,
    beta_sum_grid,
    closed_grid,
    closed_product_grid,
    cross_validate,
    default_mode,
    exact_float_grid,
    exact_table,
    get_kernel,
    prob_beta_sum,
    prob_closed,
    prob_closed_product,
    q_value,
    table_column,
)


def enum_prob(k: int, n: int, sigma: int) -> Fraction:
    """Brute-force oracle: fraction of sigma^n strings containing a fixed
    k-symbol pattern as a subsequence."""
    if k == 0:
        return Fraction(1)
    pattern = tuple(i % sigma for i in range(k))
    count = 0
    for s in itertools.product(range(sigma), repeat=n):
        it = iter(s)
        if all(ch in it for ch in pattern):
            count += 1
    return Fraction(count, sigma**n)


def exact_log_tail(sigma: int, n: int, k: int) -> float:
    """ln P(Binomial(n, 1/sigma) >= k) from exact big-integer sums.

    The sum runs on the short side of the mean, and the complement is taken
    in exact rationals, so p close to 1 and p below e**-745 both keep their
    digits.
    """
    if k <= 0:
        return 0.0
    if k > n:
        return -math.inf
    if sigma == 1:
        return 0.0
    w = sigma - 1  # C(n, j) w^(n-j) / sigma^n is the pmf at j
    upper = k * sigma > n
    j = k if upper else k - 1
    term = math.comb(n, j) * w ** (n - j)
    total = 0
    while term:
        total += term
        if upper:
            term = term * (n - j) // ((j + 1) * w)
            j += 1
        else:
            term = term * j * w // (n - j + 1) if j else 0
            j -= 1
    if upper:
        return math.log(total) - math.log(sigma**n)
    return math.log1p(-float(Fraction(total, sigma**n)))


class TestAlphabetParams:
    def test_alpha_beta_sum_exactly_one(self):
        for sigma in range(1, 27):
            p = AlphabetParams(sigma)
            assert p.alpha + p.beta == 1.0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            AlphabetParams(0)

    def test_degenerate(self):
        assert AlphabetParams(1).degenerate
        assert not AlphabetParams(2).degenerate


class TestBuildTable:
    def test_base_cases(self):
        t = build_table(4, 5)
        assert t.p(0, 5) == 1.0
        assert t.p(3, 2) == 0.0

    def test_hand_unrolled_recursion(self):
        # p(1,1)=0.25, p(1,2)=0.4375, p(2,2)=0.0625,
        # p(2,3) = 0.25*0.4375 + 0.75*0.0625 = 0.15625
        t = build_table(4, 5)
        assert t.p(1, 1) == pytest.approx(0.25, abs=1e-15)
        assert t.p(1, 2) == pytest.approx(0.4375, abs=1e-15)
        assert t.p(2, 2) == pytest.approx(0.0625, abs=1e-15)
        assert t.p(2, 3) == pytest.approx(0.15625, abs=1e-15)

    def test_matches_enumeration(self):
        t2 = build_table(2, 4)
        t3 = build_table(3, 4)
        for sigma, table in ((2, t2), (3, t3)):
            for n in range(5):
                for k in range(n + 1):
                    expected = float(enum_prob(k, n, sigma))
                    assert table.p(k, n) == pytest.approx(expected, abs=1e-12)

    def test_range_invariant(self):
        t = build_table(4, 80)
        assert np.all(t.values >= 0.0)
        assert np.all(t.values <= 1.0)

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.001")
        with pytest.raises(CapacityError):
            build_table(4, 1000)

    @pytest.mark.parametrize("sigma", [2, 4, 20])
    def test_column_is_bitwise_table_column(self, sigma):
        values = build_table(sigma, 200).values
        for n in range(201):
            for k_max in {0, 5, n, min(n + 3, 200), 200}:
                column = table_column(sigma, n, k_max)
                assert np.array_equal(column, values[: k_max + 1, n])

    def test_single_letter_alphabet(self):
        t = build_table(1, 4)
        for n in range(5):
            for k in range(n + 1):
                assert t.p(k, n) == 1.0
        assert t.p(3, 2) == 0.0


class TestTabularInputs:
    """Every tabular builder checks its inputs the same way."""

    @pytest.mark.parametrize(
        "builder,args,error",
        [
            (build_table, (0, 5), DomainError),
            (build_table, (4, -1), DomainError),
            (build_log_table, (0, 5), DomainError),
            (build_log_table, (4, -1), DomainError),
            (table_column, (0, 5, 2), DomainError),
            (table_column, (4, -1, 2), DomainError),
            (table_column, (4, 5, -1), DomainError),
            (exact_table, (0, 5), DomainError),
            (exact_table, (4, -1), DomainError),
            (exact_table, (4, 501), CapacityError),
            (exact_float_grid, (0, 5), DomainError),
            (exact_float_grid, (4, -1), DomainError),
            (exact_float_grid, (4, 501), CapacityError),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_bad_input_raises(self, builder, args, error):
        with pytest.raises(error):
            builder(*args)

    def test_cap_is_inclusive(self):
        grid = exact_float_grid(2, 500)
        assert grid.shape == (501, 501)
        assert grid[500, 500] == 2.0**-500


class TestClosedForm:
    def test_examples(self):
        p4 = AlphabetParams(4)
        assert prob_closed(2, 3, p4) == pytest.approx(0.15625, abs=1e-12)
        assert prob_closed(0, 7, AlphabetParams(20)) == 1.0
        assert prob_closed(5, 3, p4) == 0.0

    def test_modes_agree(self):
        p4 = AlphabetParams(4)
        for k, n in [(1, 1), (2, 3), (10, 30), (50, 150), (149, 150)]:
            lin = prob_closed(k, n, p4, NumericMode.LINEAR)
            log = prob_closed(k, n, p4, NumericMode.LOGSPACE)
            exact = prob_closed(k, n, p4, NumericMode.EXACT_RATIONAL)
            assert lin == pytest.approx(float(exact), abs=1e-12)
            assert log == pytest.approx(float(exact), abs=1e-9)

    def test_exact_mode_is_rational(self):
        p4 = AlphabetParams(4)
        assert prob_closed(2, 3, p4, NumericMode.EXACT_RATIONAL) == Fraction(5, 32)

    def test_single_letter_convention(self):
        p1 = AlphabetParams(1)
        assert prob_closed(3, 5, p1) == 1.0
        assert prob_closed(6, 5, p1) == 0.0

    def test_default_mode_rule(self):
        assert default_mode(4, 200) is NumericMode.LINEAR
        assert default_mode(4, 301) is NumericMode.LOGSPACE
        assert default_mode(20, 10) is NumericMode.LOGSPACE

    def test_matches_enumeration(self):
        for sigma in (2, 3):
            p = AlphabetParams(sigma)
            for n in range(5):
                for k in range(n + 2):
                    expected = float(enum_prob(k, n, sigma))
                    assert prob_closed(k, n, p) == pytest.approx(expected, abs=1e-12)


class TestClosedFormProduct:
    def test_examples(self):
        assert prob_closed_product(2, 3, AlphabetParams(4)) == pytest.approx(
            0.15625, abs=1e-12
        )
        assert prob_closed_product(1, 1, AlphabetParams(4)) == pytest.approx(
            0.25, abs=1e-15
        )
        assert prob_closed_product(0, 0, AlphabetParams(2)) == 1.0

    def test_agrees_with_closed(self):
        for sigma in (2, 5, 26):
            p = AlphabetParams(sigma)
            for k, n in [(1, 4), (3, 9), (17, 40), (60, 120)]:
                assert prob_closed_product(k, n, p) == pytest.approx(
                    prob_closed(k, n, p), abs=1e-9
                )

    def test_small_alphabet_at_large_n(self):
        # the bare products reach inf while beta^(n-k+1) underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prob_closed_product(1500, 6000, AlphabetParams(2)) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(sigma=st.sampled_from([2, 3, 4]), n=st.integers(0, 6000), data=st.data())
    def test_matches_closed_up_to_large_n(self, sigma, n, data):
        k = data.draw(st.integers(0, n + 1), label="k")
        p = AlphabetParams(sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = prob_closed_product(k, n, p)
        assert abs(got - prob_closed(k, n, p)) <= 1e-9


class TestBetaForm:
    def test_density_value(self):
        # Beta(2,1) density at 0.75 is 2*0.75 = 1.5
        assert beta_density(0.75, 2, 1) == pytest.approx(1.5, abs=1e-12)

    def test_examples(self):
        p4 = AlphabetParams(4)
        # 1 - 0.5625 - 0.25*0.75*(1/1)*1.5 = 0.15625
        assert prob_beta_sum(2, 3, p4) == pytest.approx(0.15625, abs=1e-12)
        assert prob_beta_sum(1, 4, p4) == pytest.approx(1 - 0.75**4, abs=1e-12)
        assert prob_beta_sum(3, 3, AlphabetParams(2)) == pytest.approx(0.125, abs=1e-12)

    def test_domain_error_on_degenerate_beta(self):
        with pytest.raises(DomainError):
            prob_beta_sum(2, 3, AlphabetParams(1))

    def test_base_cases(self):
        p4 = AlphabetParams(4)
        assert prob_beta_sum(0, 3, p4) == 1.0
        assert prob_beta_sum(5, 3, p4) == 0.0


class TestQValue:
    def test_examples(self):
        p4 = AlphabetParams(4)
        assert q_value(1, 200, p4) == 1.0
        assert q_value(2, 3, p4) == pytest.approx(1.5, abs=1e-12)
        assert q_value(0, 10, p4) == 0.0

    def test_log_mode(self):
        p4 = AlphabetParams(4)
        assert q_value(1, 200, p4, NumericMode.LOGSPACE) == 0.0
        ln_q = q_value(2, 3, p4, NumericMode.LOGSPACE)
        assert math.exp(ln_q) == pytest.approx(1.5, abs=1e-12)
        assert q_value(0, 10, p4, NumericMode.LOGSPACE) == -math.inf

    def test_degenerate_raises(self):
        with pytest.raises(DomainError):
            q_value(2, 3, AlphabetParams(1))

    def test_k_above_n_is_zero(self):
        # every binomial C(n-k+i, i) with i < k vanishes once k > n
        for sigma in (2, 4, 26):
            p = AlphabetParams(sigma)
            for n, k in [(0, 1), (3, 4), (3, 5), (3, 6), (400, 401), (400, 900)]:
                assert q_value(k, n, p) == 0.0
                assert q_value(k, n, p, NumericMode.LOGSPACE) == -math.inf

    def test_beyond_the_float_range(self):
        # ln q(3000, 6000) = 2079 over the binary alphabet
        p2 = AlphabetParams(2)
        assert q_value(3000, 6000, p2, NumericMode.LOGSPACE) == pytest.approx(2079, abs=1)
        assert q_value(3000, 6000, p2) == math.inf

    def test_q_consistency_identity(self):
        # (1 - p) = q * beta^(n-k+1), relative 1e-9 where p is not saturated
        for sigma in (2, 4, 20):
            p = AlphabetParams(sigma)
            for n in (10, 60, 150):
                for k in range(1, n + 1, 7):
                    pv = prob_closed(k, n, p, NumericMode.LINEAR)
                    if pv >= 1 - 1e-6:
                        continue
                    lhs = 1.0 - pv
                    rhs = q_value(k, n, p) * p.beta ** (n - k + 1)
                    assert lhs == pytest.approx(rhs, rel=1e-9)


ROUTE_N_MAX = 120
SCALARS = {
    "closed": lambda k, n, p, mode: prob_closed(k, n, p, mode),
    "closed2": lambda k, n, p, mode: prob_closed_product(k, n, p),
    "beta": lambda k, n, p, mode: prob_beta_sum(k, n, p),
}


@pytest.fixture(scope="module")
def route_grids():
    """The exact grid and each float route's grid per alphabet size, built once."""
    cache = {}

    def grids(sigma):
        if sigma not in cache:
            n_max = ROUTE_N_MAX + 1  # so that k = n + 1 has a cell
            cache[sigma] = exact_float_grid(sigma, n_max), {
                ("closed", NumericMode.LINEAR): closed_grid(sigma, n_max, NumericMode.LINEAR),
                ("closed", NumericMode.LOGSPACE): closed_grid(sigma, n_max, NumericMode.LOGSPACE),
                ("closed2", None): closed_product_grid(sigma, n_max),
                ("beta", None): beta_sum_grid(sigma, n_max),
            }
        return cache[sigma]

    return grids


class TestOneRowPerRoute:
    """A route's scalar entry point is its grid, cell by cell."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 26), st.integers(0, ROUTE_N_MAX), st.data())
    def test_scalar_is_grid_cell(self, route_grids, sigma, n, data):
        k = data.draw(st.integers(0, n + 1))
        p = AlphabetParams(sigma)
        exact, grids = route_grids(sigma)
        for (route, mode), grid in grids.items():
            value = SCALARS[route](k, n, p, mode)
            assert value == pytest.approx(min(1.0, max(0.0, grid[k, n])), abs=1e-12)
            assert value == pytest.approx(exact[k, n], abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 26), st.integers(0, ROUTE_N_MAX), st.data())
    def test_q_is_the_closed_form_tail(self, sigma, n, data):
        k = data.draw(st.integers(0, n + 1))
        p = AlphabetParams(sigma)
        q_lin = q_value(k, n, p)
        ln_q = q_value(k, n, p, NumericMode.LOGSPACE)
        assert q_lin == pytest.approx(math.exp(ln_q), rel=1e-12)
        if k > n:
            assert q_lin == 0.0 and ln_q == -math.inf
            return
        for mode in (NumericMode.LINEAR, NumericMode.LOGSPACE):
            pv = prob_closed(k, n, p, mode)
            if pv >= 1 - 1e-6:
                continue  # 1 - p has lost its digits
            assert q_lin * p.beta ** (n - k + 1) == pytest.approx(1.0 - pv, rel=1e-9)


class TestCrossValidation:
    def test_sigma4(self):
        report = cross_validate(4, 50, 1e-9)
        assert report.passed
        assert report.max_deviation <= 1e-9
        assert report.deviations[("table", "binomial")] <= 1e-9

    def test_sigma2(self):
        assert cross_validate(2, 50, 1e-9).passed

    def test_sigma20_logspace(self):
        assert cross_validate(20, 200, 1e-9).passed

    def test_zero_tolerance_fails(self):
        report = cross_validate(4, 40, 0.0)
        assert not report.passed

    def test_cap(self):
        with pytest.raises(CapacityError):
            cross_validate(4, 501)


class TestEquivalenceInvariant:
    @pytest.mark.parametrize("sigma", [2, 3, 4, 5, 7, 11, 16, 20, 26])
    def test_methods_agree(self, sigma):
        n_max = 120
        exact = exact_float_grid(sigma, n_max)
        closed_lin = closed_grid(sigma, n_max, NumericMode.LINEAR)
        closed_log = closed_grid(sigma, n_max, NumericMode.LOGSPACE)
        table = build_table(sigma, n_max).values
        assert np.abs(exact - closed_lin).max() <= 1e-12
        assert np.abs(table - closed_lin).max() <= 1e-9
        assert np.abs(closed_log - closed_lin).max() <= 1e-9
        assert np.abs(closed_product_grid(sigma, n_max) - closed_lin).max() <= 1e-9
        assert np.abs(beta_sum_grid(sigma, n_max) - closed_lin).max() <= 1e-9


class TestMonotonicity:
    @pytest.mark.parametrize("sigma", [2, 4, 20])
    def test_both_directions(self, sigma):
        n_max = 120
        for grid in (
            build_table(sigma, n_max).values,
            closed_grid(sigma, n_max),
            closed_product_grid(sigma, n_max),
            beta_sum_grid(sigma, n_max),
        ):
            for n in range(n_max + 1):
                col = grid[: n + 1, n]
                assert np.all(np.diff(col) <= 1e-12), f"k-monotonicity, n={n}"
            for k in range(n_max + 1):
                row = grid[k, k:]
                assert np.all(np.diff(row) >= -1e-12), f"n-monotonicity, k={k}"


class TestExactIdentity:
    @pytest.mark.parametrize("sigma", [2, 4, 26])
    def test_p_nn_is_alpha_to_n(self, sigma):
        grid = exact_table(sigma, 40)
        for n in range(41):
            assert grid[n][n] == Fraction(1, sigma**n)

    @pytest.mark.parametrize("sigma", [1, 2, 3, 26])
    def test_float_grid_rounds_exact_table(self, sigma):
        n_max = 60
        grid = exact_float_grid(sigma, n_max)
        table = exact_table(sigma, n_max)
        for k in range(n_max + 1):
            for n in range(n_max + 1):
                assert grid[k, n] == float(table[k][n]), (k, n)

    def test_closed_exact_identity(self):
        p = AlphabetParams(5)
        for n in (1, 7, 30):
            assert prob_closed(n, n, p, NumericMode.EXACT_RATIONAL) == Fraction(1, 5**n)


class TestLogTable:
    def test_matches_linear_table(self):
        lin = build_table(4, 100).values
        log = build_log_table(4, 100)
        assert np.abs(np.exp(log) - lin).max() <= 1e-9

    def test_no_positive_entries(self):
        assert build_log_table(2, 300).max() <= 0.0

    def test_single_letter_alphabet(self):
        n_max = 30
        log = build_log_table(1, n_max)
        below = np.tri(n_max + 1, dtype=bool).T  # k <= n
        assert np.all(log[below] == 0.0)
        assert np.all(log[~below] == -np.inf)

    def test_kernel_lookup(self):
        kern = ProbKernel(4, 50)
        assert kern.log_p(0, 10) == 0.0
        assert kern.log_p(5, 3) == -math.inf
        assert kern.p(2, 3) == pytest.approx(0.15625, abs=1e-12)
        assert kern.log_row(200).min() == -math.inf  # beyond the table
        with pytest.raises(DomainError):
            kern.log_row(-1)

    @pytest.mark.parametrize("k,n", [(2, 51), (2, 60), (0, 70), (60, 55), (2, -1), (0, -1)])
    def test_kernel_lookup_outside_its_range(self, k, n):
        kern = ProbKernel(4, 50)
        with pytest.raises(DomainError, match="n <= 50"):
            kern.log_p(k, n)
        with pytest.raises(DomainError, match="n <= 50"):
            kern.p(k, n)
        # n = n_max is inside the range
        assert math.isfinite(kern.log_p(2, 50))
        assert kern.log_p(60, 50) == -math.inf

class TestKernelRows:
    """`ProbKernel` rows from the binomial tail against the table and mpmath."""

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.integers(1, 30), n_max=st.integers(0, 300), data=st.data())
    def test_matches_log_table(self, sigma, n_max, data):
        k = data.draw(st.integers(0, n_max + 2), label="k")
        row = ProbKernel(sigma, n_max).log_row(k)
        want = build_log_table(sigma, n_max)[k] if k <= n_max else np.full(n_max + 1, -np.inf)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(row), finite)
        err = np.abs(row[finite] - want[finite])
        assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(want[finite])))
        assert not (row > 0.0).any()

    @pytest.mark.parametrize(
        "sigma,k", [(4, 2500), (4, 3000), (4, 5000), (4, 10_000), (20, 500), (20, 2000)]
    )
    def test_matches_mpmath_beyond_any_table(self, sigma, k):
        # P(Binomial(n, a) >= k) is the regularized incomplete beta I_a(k, n-k+1)
        n = 10_000
        with mpmath.workdps(30):
            tail = mpmath.betainc(k, n - k + 1, 0, mpmath.mpf(1) / sigma, regularized=True)
            want = float(mpmath.log(tail))
        got = ProbKernel(sigma, n).log_p(k, n)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @settings(max_examples=100, deadline=None)
    @given(sigma=st.integers(1, 30), n_max=st.integers(0, 300), data=st.data())
    def test_truncated_rows_are_prefixes(self, sigma, n_max, data):
        kernel = ProbKernel(sigma, n_max)
        bound = st.integers(0, n_max + 2)
        ks = data.draw(st.lists(bound, min_size=1, max_size=3), label="ks")
        # the first two calls share k and the second reaches further
        lo, hi = sorted(data.draw(st.tuples(bound, bound), label="first n_hi"))
        calls = [(ks[0], lo), (ks[0], hi)]
        calls += data.draw(st.lists(st.tuples(st.sampled_from(ks), bound), max_size=8))
        for k, n_hi in calls:
            row = kernel.log_row(k, n_hi)
            want = ProbKernel(sigma, n_max).log_row(k)[: n_hi + 1]
            assert not row.flags.writeable
            assert row.tobytes() == want.tobytes()
        with pytest.raises(DomainError):
            kernel.log_row(ks[0], -1)

    def test_kernel_keeps_no_state(self):
        kernel = ProbKernel(4, 500)
        before = dict(vars(kernel))
        for k, n_hi, n_lo in [(3, 400, 0), (3, 400, 10), (3, 500, 100), (0, None, 0),
                              (250, 300, 260), (600, None, 0)]:
            kernel.log_row(k, n_hi, n_lo)
        kernel.log_p(7, 300)
        kernel.p(2, 3)
        after = vars(kernel)
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)

    def test_shared_kernel_across_threads(self):
        kernel = get_kernel(9, 2000)
        ks = [0, 1, 50, 200, 222, 1999, 2001]
        n_his = [None, 2000, 0, 60, 1999, 700, 2500, 222, 1500]
        expected = {k: ProbKernel(9, 2000).log_row(k).copy() for k in ks}
        failures = []

        def worker(offset):
            for i in range(200):
                k = ks[(i + offset) % len(ks)]
                n_hi = n_his[(i * 3 + offset) % len(n_his)]
                row = kernel.log_row(k, n_hi)
                want = expected[k] if n_hi is None else expected[k][: n_hi + 1]
                if row.flags.writeable or row.tobytes() != want.tobytes():
                    failures.append((offset, k, n_hi))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def covers_window(row, full, k, n_lo, n_hi):
    """Assert `row` is the window [n_lo, n_hi] (None: n_max) of row k, `full`.

    Same length and -inf pattern as that slice of the full row, within
    2e-11 * max(1, |ln p|) of it, and bitwise equal to it where the window
    starts at or below k.
    """
    want = full[n_lo : None if n_hi is None else n_hi + 1]
    assert not row.flags.writeable
    assert len(row) == len(want)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(row), finite)
    err = np.abs(row[finite] - want[finite])
    assert np.all(err <= 2e-11 * np.maximum(1.0, np.abs(want[finite])))
    assert not (row > 0.0).any()
    if n_lo <= k:
        assert row.tobytes() == want.tobytes()


class TestKernelWindows:
    """`ProbKernel.log_row(k, n_hi, n_lo)`: a window seeded by the binomial tail."""

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.integers(1, 30), n_max=st.integers(0, 3000), data=st.data())
    def test_window_matches_full_row(self, sigma, n_max, data):
        k = data.draw(st.integers(0, n_max + 2), label="k")
        # windows near k, where the seed's two sides meet, are drawn often
        bound = st.one_of(st.integers(0, n_max + 2), st.integers(max(0, k - 3), k + 3))
        n_lo, n_hi = sorted(data.draw(st.tuples(bound, bound), label="window"))
        full = ProbKernel(sigma, n_max).log_row(k)
        covers_window(ProbKernel(sigma, n_max).log_row(k, n_hi, n_lo), full, k, n_lo, n_hi)

    @pytest.mark.parametrize(
        "sigma,n,k,regime",
        [
            (2, 6_000, 2_950, "mid"),  # near the mean, from below
            (2, 6_000, 3_050, "mid"),  # near the mean, from above
            (4, 6_000, 2_186, "mid"),
            (4, 6_000, 1_000, "one"),  # far below n/sigma: p close to 1
            (4, 6_000, 3_000, "tiny"),
            (20, 5_000, 40, "one"),
            (3, 4_321, 1_441, "mid"),
            (30, 5_000, 5, "one"),
            (2, 10_000, 4_900, "mid"),
            (2, 10_000, 5_100, "mid"),
            (4, 10_000, 1, "one"),  # p = 1 - 0.75**10000
            (4, 10_000, 2_000, "one"),
            (4, 10_000, 2_500, "mid"),
            (4, 10_000, 4_500, "tiny"),
            (20, 10_000, 100, "one"),
            (20, 10_000, 3_000, "tiny"),
            (26, 9_999, 9_999, "tiny"),  # ln p = -9999 ln 26
        ],
    )
    def test_matches_exact_tail(self, sigma, n, k, regime):
        want = exact_log_tail(sigma, n, k)
        if regime == "one":
            assert -1e-12 < want <= 0.0
        elif regime == "tiny":
            assert want < -745.0  # where exp(ln p) underflows
        # The log-gamma lookup holds ln((n-1)!) to half an ulp, 7.3e-12 from
        # n = 8 183 on, and every route that reads it, the full row too,
        # errs by up to about 1.7e-11 at n = 10 000.
        tol = (1e-11 if n <= 6_000 else 2e-11) * max(1.0, abs(want))
        for n_lo in (n, max(k, n - 300), k):
            got = ProbKernel(sigma, n).log_row(k, n, n_lo)[-1]
            assert abs(got - want) <= tol, n_lo
        if regime == "one":
            # the seed alone (n_lo = n) sums the complement, so it holds
            # ln p = log1p(-P(X < k)) to relative precision
            got = ProbKernel(sigma, n).log_row(k, n, n)[0]
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_bad_windows(self):
        kernel = ProbKernel(4, 100)
        with pytest.raises(DomainError):
            kernel.log_row(5, 10, -1)
        with pytest.raises(DomainError):
            kernel.log_row(5, 10, 11)
        assert kernel.log_row(5, 300, 200).shape == (0,)  # past n_max

    @settings(max_examples=100, deadline=None)
    @given(sigma=st.integers(1, 30), n_max=st.integers(0, 3000), data=st.data())
    def test_call_sequences_on_one_kernel(self, sigma, n_max, data):
        kernel = ProbKernel(sigma, n_max)
        bound = st.integers(0, n_max + 2)
        ks = data.draw(st.lists(bound, min_size=1, max_size=3), label="ks")
        # the first two calls share k and the second's window is wider on at
        # least one side; the third asks for the first window again
        lo, a, b, hi = sorted(data.draw(st.tuples(bound, bound, bound, bound), label="n"))
        calls = [(ks[0], a, b), (ks[0], lo, hi), (ks[0], a, b)]
        windows = st.tuples(bound, bound).map(sorted)
        calls += data.draw(
            st.lists(st.tuples(st.sampled_from(ks), windows).map(lambda t: (t[0], *t[1])),
                     max_size=8),
            label="calls",
        )
        for k, n_lo, n_hi in calls:
            full = ProbKernel(sigma, n_max).log_row(k)
            covers_window(kernel.log_row(k, n_hi, n_lo), full, k, n_lo, n_hi)

    def test_shared_kernel_across_threads(self):
        kernel = get_kernel(9, 2000)
        ks = [0, 1, 50, 200, 222, 1999, 2001]
        windows = [(0, None), (0, 2000), (0, 0), (60, 60), (222, 1999), (230, 700),
                   (1500, 2500), (199, 222), (700, 1500), (2000, 2000)]
        full = {k: ProbKernel(9, 2000).log_row(k) for k in ks}
        failures = []

        def worker(offset):
            for i in range(200):
                k = ks[(i + offset) % len(ks)]
                n_lo, n_hi = windows[(i * 3 + offset) % len(windows)]
                try:
                    covers_window(kernel.log_row(k, n_hi, n_lo), full[k], k, n_lo, n_hi)
                except AssertionError:
                    failures.append((offset, k, n_lo, n_hi))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
