"""Scoring function tests; expected numbers were derived by direct
evaluation against the verified probability oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcsbeam.heuristics import (
    STRING_BLOCK,
    HeuristicKind,
    HeuristicSpec,
    Score,
    gcov_gamma,
    round_half_away,
    score_gcov,
    score_gcov_batch,
    score_minlen,
    score_minlen_batch,
    score_prob,
    score_prob_batch,
    remainder_moments,
    select_k,
    window_sum,
)
from lcsbeam.instance import build_instance
from lcsbeam.probability import DomainError, exact_table, get_kernel

UNCORR = HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR)
CORR = HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_CORR)
GUESS = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS)
GCOV = HeuristicSpec(kind=HeuristicKind.GCOV)


class TestSelectK:
    def test_uncorrelated_rule(self):
        # 600 * (1.8233 - 0.1588 ln 10) / 4 = 218.647... -> 219
        assert select_k(UNCORR, 500, 600, 4, 10) == 219

    def test_correlated_rule(self):
        assert select_k(CORR, 1000, 1000, 2, 10) == 484

    def test_correlated_clamps_to_one(self):
        assert select_k(CORR, 20, 600, 4, 10) == 1

    def test_guess_rule(self):
        assert select_k(GUESS, 600, 600, 4, 10) == 150
        assert select_k(GUESS, 7, 600, 4, 10) == 1

    def test_upper_clamp(self):
        assert select_k(UNCORR, 3, 3, 4, 10) <= 3

    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from([UNCORR, CORR, GUESS]),
        lo=st.integers(0, 5000),
        spread=st.integers(0, 5000),
        sigma=st.integers(1, 30),
        n_strings=st.integers(2, 300),
    )
    @example(spec=UNCORR, lo=10, spread=590, sigma=4, n_strings=10)  # the rule gives 219
    def test_k_never_exceeds_the_shortest_remainder(self, spec, lo, spread, sigma, n_strings):
        k = select_k(spec, lo, lo + spread, sigma, n_strings)
        assert 1 <= k <= max(1, lo)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from([HeuristicKind.PROB_K_ANALYTIC_UNCORR,
                              HeuristicKind.PROB_K_ANALYTIC_CORR, HeuristicKind.PROB_K_GUESS]),
        a=st.floats(allow_nan=False, allow_infinity=False),
        b=st.floats(allow_nan=False, allow_infinity=False),
        c=st.floats(allow_nan=False, allow_infinity=False),
        lo=st.integers(0, 10**6),
        spread=st.integers(0, 10**6),
        sigma=st.integers(1, 30),
        n_strings=st.integers(2, 300),
    )
    # a rule past the float range: inf, and 0 * inf = NaN at a zero remainder
    @example(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR, a=1e308, b=0.0, c=0.0, lo=5, spread=5,
             sigma=1, n_strings=2)
    @example(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR, a=0.0, b=1e308, c=0.0, lo=5, spread=5,
             sigma=1, n_strings=20)
    @example(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR, a=1e308, b=-1e308, c=0.0, lo=0, spread=0,
             sigma=1, n_strings=20)
    def test_every_finite_spec_gives_a_target_in_range(
        self, kind, a, b, c, lo, spread, sigma, n_strings
    ):
        spec = HeuristicSpec(kind=kind, a=a, b=b, c=c)
        k = select_k(spec, lo, lo + spread, sigma, n_strings)
        assert type(k) is int and 1 <= k <= max(1, lo)

    def test_deterministic(self):
        args = (UNCORR, 123, 456, 4, 17)
        assert select_k(*args) == select_k(*args)

    def test_minlen_has_no_rule(self):
        with pytest.raises(ValueError):
            select_k(HeuristicSpec(kind=HeuristicKind.MINLEN), 1, 2, 4, 2)

    def test_round_half_away(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(2.4) == 2
        assert round_half_away(-2.5) == -3


class TestGamma:
    def test_published_rule(self):
        assert GCOV.gamma(2) == pytest.approx(-0.0089, abs=1e-12)
        assert GCOV.gamma(200) == pytest.approx(0.7039, abs=1e-12)

    # N=3 and remainders up to 20: a positive sample variance lies in [1/3, 200].
    # For gamma > 0 the least positive score, 3^-2 / 200^gamma, leaves the normal
    # floats first, past gamma = (708.40 - 2 ln 3) / ln 200 = 133.29; for gamma < 0
    # the largest, 20^2.5 * 200^-gamma, past (709.78 - 2.5 ln 20) / ln 200 = 132.55
    @pytest.mark.parametrize("gamma", [133.2, -132.5, 0.0, GCOV.gamma(3)])
    def test_exponent_inside_the_float_range(self, gamma):
        spec = HeuristicSpec(kind=HeuristicKind.GCOV, gamma_slope=0, gamma_intercept=gamma)
        assert gcov_gamma(spec, 3, 20) == gamma
        # the spread and the least and largest variance of remainders in [0, 20]
        rem = np.array([[0, 0, 20], [0, 20, 20], [0, 0, 1], [19, 20, 20], [20, 20, 20],
                        [0, 0, 0]], dtype=np.uint16)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            scores = score_gcov_batch(rem, np.array([1, 20, 1, 19, 20, 0]), gamma)
        assert np.isfinite(scores).all()
        assert (scores[:5] > 0).all() and scores[5] == 0

    @pytest.mark.parametrize("slope,intercept", [(0, 133.3), (0, -132.6), (1e308, -0.0161),
                                                 (1000, -0.0161), (0.0036, 400)])
    def test_exponent_past_the_float_range_is_refused(self, slope, intercept):
        spec = HeuristicSpec(kind=HeuristicKind.GCOV, gamma_slope=slope, gamma_intercept=intercept)
        with pytest.raises(DomainError, match="out of the float range for remainders up to 20"):
            gcov_gamma(spec, 3, 20)

    @pytest.mark.parametrize("n,max_len", [(2, 65534), (10, 10000), (200, 600), (1000, 65534)])
    def test_published_exponent_is_far_inside(self, n, max_len):
        assert gcov_gamma(GCOV, n, max_len) == GCOV.gamma(n)
        # five times the exponent still fits (at N=1000 and the longest uint16
        # strings the edge is near 9 times it)
        spec = HeuristicSpec(kind=HeuristicKind.GCOV, gamma_slope=0,
                             gamma_intercept=5 * GCOV.gamma(n))
        assert gcov_gamma(spec, n, max_len) == 5 * GCOV.gamma(n)

    def test_constants_echoed(self):
        d = UNCORR.to_dict()
        assert d["a"] == 1.8233
        assert d["b"] == 0.1588
        assert d["c"] == 31.0
        assert d["kind"] == "kanalytic-uncorr"


class TestSpecValues:
    @pytest.mark.parametrize("field", ["a", "b", "c", "gamma_slope", "gamma_intercept"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None, True, [1.0]])
    def test_constants_are_finite_real_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            HeuristicSpec(kind=HeuristicKind.GCOV, **{field: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, -1, True, "3", math.inf])
    def test_fixed_k_is_a_non_negative_int(self, value):
        with pytest.raises(ValueError, match="fixed_k must be a non-negative integer"):
            HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS, fixed_k=value)

    def test_finite_values_are_kept(self):
        spec = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS, a=1e308, b=-3, c=np.float64(0.5),
                             gamma_slope=0, fixed_k=np.int64(0))
        assert (spec.a, spec.b, spec.c, spec.gamma_slope, spec.fixed_k) == (1e308, -3, 0.5, 0, 0)


class TestScoreProb:
    def test_two_equal_remainders(self):
        inst = build_instance("ABCD", ["ABC", "BCA"])
        kernel = get_kernel(4, 3)
        s = score_prob(inst, inst.root(), 2, kernel)
        assert s.value == pytest.approx(2 * math.log(0.15625), abs=1e-9)

    def test_k_zero_scores_zero(self):
        inst = build_instance("AB", ["ABAB", "BA"])
        kernel = get_kernel(2, 4)
        assert score_prob(inst, inst.root(), 0, kernel).value == 0.0

    def test_short_remainder_is_minus_inf(self):
        inst = build_instance("ABCD", ["A", "ABCDA"])
        kernel = get_kernel(4, 5)
        assert score_prob(inst, inst.root(), 2, kernel).value == -math.inf

    def test_batch_matches_scalar(self):
        kernel = get_kernel(4, 60)
        rem = np.array([[3, 3], [1, 5], [20, 41]])
        batch = score_prob_batch(rem, 2, kernel)
        inst = build_instance("ABCD", ["AAA", "AAA"])
        assert batch[0] == pytest.approx(
            score_prob(inst, inst.root(), 2, kernel).value, abs=1e-12
        )
        assert batch[1] == -math.inf
        assert np.isfinite(batch[2])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.integers(2, 40), st.integers(1, 6), st.data())
    def test_batch_ignores_layout(self, rows, n, k, data):
        # the engine passes F-ordered (children, N) views; a score must not
        # depend on the layout its remainders arrive in
        kernel = get_kernel(4, 200)
        cells = data.draw(st.lists(st.integers(0, 200), min_size=rows * n, max_size=rows * n))
        rem = np.array(cells, dtype=np.int32).reshape(rows, n)
        hi, lo = int(rem.max()), int(rem.min())
        c_order = score_prob_batch(rem, k, kernel, hi, lo)
        f_order = score_prob_batch(np.asfortranarray(rem), k, kernel, hi, lo)
        assert c_order.tobytes() == f_order.tobytes()


    @pytest.mark.parametrize(
        "shape", [(10, 800), (STRING_BLOCK, 50), (STRING_BLOCK + 1, 50), (200, 4000)]
    )
    @pytest.mark.parametrize("dtype", [np.uint16, np.int32])
    def test_window_sum_is_the_plain_gather_sum(self, shape, dtype):
        # (10, 800) is one block of strings, (200, 4000) several
        assert 10 <= STRING_BLOCK < 200
        n_lo, n_hi = 40, 639
        # p(50, n) = 0 below n = 50, so the window opens with -inf entries
        row = get_kernel(4, 1000).log_row(50, n_hi, n_lo)
        rng = np.random.default_rng(shape[0])
        strings = rng.integers(n_lo, n_hi + 1, shape).astype(dtype)
        want = row[strings - n_lo].sum(axis=0).tobytes()
        assert window_sum(row, strings, n_lo).tobytes() == want
        assert window_sum(row, np.asfortranarray(strings), n_lo).tobytes() == want


class TestScoreGcov:
    def test_derived_value(self):
        # remainders (4, 6), ub = 3, N = 2, gamma = -0.0089
        inst = build_instance("ABC", ["AAAB", "ABCABC"])
        root = inst.root()
        ub = inst.upper_bound(root)
        assert ub == 3
        s = score_gcov(inst, root, GCOV)
        assert s.value == pytest.approx(43.56922180230345, abs=1e-9)

    def test_zero_upper_bound(self):
        inst = build_instance("ABC", ["AAAAA", "BBBBB", "CCCCC"])
        # no symbol common to all three strings: ub = 0, score = 0
        assert inst.upper_bound(inst.root()) == 0
        assert score_gcov(inst, inst.root(), GCOV).value == 0.0

    def test_zero_variance_term_neutralized(self):
        inst = build_instance("AB", ["ABABA", "BABAB"])
        root = inst.root()
        ub = inst.upper_bound(root)
        assert ub == 4
        assert score_gcov(inst, root, GCOV).value == pytest.approx(25 * 2.0, abs=1e-12)

    def test_non_negative(self):
        rng = random.Random(9)
        for _ in range(30):
            strings = [
                "".join(rng.choice("AB") for _ in range(rng.randint(1, 12)))
                for _ in range(rng.choice([2, 3, 5]))
            ]
            inst = build_instance("AB", strings)
            assert score_gcov(inst, inst.root(), GCOV).value >= 0.0

    def test_batch_matches_scalar(self):
        inst = build_instance("ABC", ["ABCA", "ABCABC"])
        root = inst.root()
        rem = np.array([inst.remaining_lengths(root)])
        ubs = np.array([inst.upper_bound(root)])
        batch = score_gcov_batch(rem, ubs, GCOV.gamma(2))
        assert batch[0] == pytest.approx(score_gcov(inst, root, GCOV).value, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(0, 10**6), min_size=60, max_size=60), min_size=1, max_size=5
        ),
        st.integers(2, 60),
        st.booleans(),
    )
    def test_moments_are_one_rounding_of_exact(self, rows, n, fortran):
        # N * max_len <= 6e7 < 2^26.5: one rounding of the exact quotients
        rem = np.array([row[:n] for row in rows], dtype=np.int32)
        if fortran:
            rem = np.asfortranarray(rem)
        mean, var = remainder_moments(rem)
        for row, m, v in zip(rem.tolist(), mean.tolist(), var.tolist()):
            s1, s2 = sum(row), sum(r * r for r in row)
            assert m == float(Fraction(s1, n))
            assert v == float(Fraction(n * s2 - s1 * s1, n * (n - 1)))


class TestScoreMinlen:
    def test_examples(self):
        inst = build_instance("ABC", ["BCABAABC", "CAACBBAA"])
        child = inst.successor(inst.root(), "B")
        assert score_minlen(inst, child).value == 3.0
        assert score_minlen(inst, inst.root()).value == 8.0

    def test_terminal(self):
        inst = build_instance("AB", ["A", "A"])
        state = inst.successor(inst.root(), "A")
        assert score_minlen(inst, state).value == 0.0

    def test_batch(self):
        rem = np.array([[7, 3], [5, 5], [0, 0]])
        assert list(score_minlen_batch(rem)) == [3.0, 5.0, 0.0]


class TestScoreOrdering:
    def test_value_dominates(self):
        hi = Score(value=1.0, tie_key=(9,))
        lo = Score(value=0.5, tie_key=(0,))
        assert hi.ranks_before(lo)
        assert sorted([hi, lo], reverse=True) == [hi, lo]

    def test_tie_uses_cursor_key(self):
        a = Score(value=1.0, tie_key=(0, 2))
        b = Score(value=1.0, tie_key=(0, 3))
        assert a.ranks_before(b)

    def test_log_ordering_matches_exact_products(self):
        """Ordering under summed logs equals ordering under the literal
        probability product computed in exact rationals (n <= 30)."""
        kernel = get_kernel(3, 30)
        exact = exact_table(3, 30)
        rng = random.Random(21)
        for _ in range(200):
            k = rng.randint(1, 8)
            rems_a = [rng.randint(k, 30) for _ in range(4)]
            rems_b = [rng.randint(k, 30) for _ in range(4)]
            prod_a = math.prod((exact[k][r] for r in rems_a), start=Fraction(1))
            prod_b = math.prod((exact[k][r] for r in rems_b), start=Fraction(1))
            log_a = sum(kernel.log_p(k, r) for r in rems_a)
            log_b = sum(kernel.log_p(k, r) for r in rems_b)
            if prod_a == prod_b:
                assert log_a == pytest.approx(log_b, abs=1e-9)
            elif abs(log_a - log_b) > 1e-12:
                assert (log_a > log_b) == (prod_a > prod_b)
