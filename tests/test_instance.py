"""Instance table and node-state tests, built around the two-string
worked example S = {"BCABAABC", "CAACBBAA"} over {A, B, C}."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam.instance import NO_OCCURRENCE, build_instance, reconstruct_solution
from lcsbeam.oracle import exact_lcs2, exact_lcs3
from lcsbeam.probability import CapacityError


@pytest.fixture
def worked():
    return build_instance("ABC", ["BCABAABC", "CAACBBAA"])


def is_subsequence(pattern, s):
    it = iter(s)
    return all(ch in it for ch in pattern)


class TestBuild:
    def test_next_occurrence(self, worked):
        assert worked.next_occurrence(0, 0, "A") == 2
        assert worked.next_occurrence(0, 0, "B") == 0
        assert worked.next_occurrence(1, 0, "B") == 4

    def test_next_occurrence_past_end(self):
        inst = build_instance("A", ["A", "AA"])
        assert inst.next_occurrence(0, 1, "A") is None

    def test_suffix_count(self, worked):
        # "CAACBBAA" holds four A's
        assert worked.suffix_count(1, 0, "A") == 4
        assert worked.suffix_count(0, 0, "A") == 3
        assert worked.suffix_count(1, 8, "A") == 0

    def test_suffix_count_recurrence(self, worked):
        for i, s in enumerate(worked.strings):
            for pos in range(len(s)):
                for ch in worked.alphabet:
                    expect = worked.suffix_count(i, pos + 1, ch) + (s[pos] == ch)
                    assert worked.suffix_count(i, pos, ch) == expect

    def test_rejects_too_few_strings(self):
        with pytest.raises(ValueError):
            build_instance("AB", ["AB"])

    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            build_instance("AB", ["AB", "ABX"])

    def test_tables_over_budget_are_refused(self, monkeypatch):
        # 2 tables x 10 strings x 5001 positions x 2 symbols x 4 bytes
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.5")
        with pytest.raises(
            CapacityError,
            match=r"instance tables for N=10, max_len=5000, sigma=2: 0\.8 MiB needed, "
            r"budget is 0\.5 MiB",
        ):
            build_instance("AB", ["AB" * 2500] * 10)
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "1")
        assert build_instance("AB", ["AB" * 2500] * 10).max_len == 5000

    def test_rejects_duplicate_alphabet(self):
        with pytest.raises(ValueError):
            build_instance("ABA", ["AB", "BA"])


def loop_tables(inst):
    """The instance tables as a loop over (string, symbol) columns builds them."""
    n, sigma, width = inst.n_strings, inst.sigma_size, inst.max_len + 1
    nxt = np.full((n, width, sigma), NO_OCCURRENCE, dtype=np.int32)
    cnt = np.zeros((n, width, sigma), dtype=np.int32)
    for i, s in enumerate(inst.strings):
        length = len(s)
        codes = np.array([inst.symbol_code(ch) for ch in s], dtype=np.int32)
        for c in range(sigma):
            hits = np.nonzero(codes == c)[0]
            col = np.full(length + 1, NO_OCCURRENCE, dtype=np.int32)
            col[hits] = hits
            np.minimum.accumulate(col[::-1], out=col[::-1])
            nxt[i, : length + 1, c] = col
            occ = np.zeros(length + 1, dtype=np.int32)
            occ[:length][::-1] = np.cumsum((codes == c)[::-1])
            cnt[i, : length + 1, c] = occ
    return nxt, cnt


@st.composite
def alphabet_and_strings(draw):
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[: draw(st.integers(1, 26))]
    strings = draw(
        st.lists(st.text(alphabet, max_size=40), min_size=2, max_size=6)
    )
    return alphabet, strings


class TestTablesMatchColumnLoop:
    @settings(max_examples=200, deadline=None)
    @given(alphabet_and_strings())
    def test_bitwise_equal(self, case):
        # unequal lengths, empty strings included
        inst = build_instance(*case)
        nxt, cnt = loop_tables(inst)
        assert inst.next_table.dtype == nxt.dtype and inst.suffix_table.dtype == cnt.dtype
        assert np.array_equal(inst.next_table, nxt)
        assert np.array_equal(inst.suffix_table, cnt)

    def test_all_empty(self):
        inst = build_instance("AB", ["", ""])
        nxt, cnt = loop_tables(inst)
        assert np.array_equal(inst.next_table, nxt)
        assert np.array_equal(inst.suffix_table, cnt)


class TestSuccessor:
    def test_worked_example(self, worked):
        child = worked.successor(worked.root(), "B")
        assert child.cursors == (1, 5)
        # remainders are "CABAABC" and "BAA"
        assert worked.remaining_lengths(child) == (7, 3)
        assert child.depth == 1
        assert child.last_symbol == "B"

    def test_absent_symbol_infeasible(self):
        inst = build_instance("ABC", ["AB", "AB"])
        assert inst.successor(inst.root(), "C") is None

    def test_exhausted_strings_infeasible(self):
        inst = build_instance("AB", ["A", "A"])
        state = inst.successor(inst.root(), "A")
        assert state.cursors == (1, 1)
        for ch in "AB":
            assert inst.successor(state, ch) is None

    def test_cursors_strictly_increase(self):
        rng = random.Random(5)
        inst = build_instance("ABCD", [
            "".join(rng.choice("ABCD") for _ in range(40)) for _ in range(3)
        ])
        state = inst.root()
        for _ in range(30):
            options = [c for c in inst.alphabet if inst.successor(state, c)]
            if not options:
                break
            child = inst.successor(state, rng.choice(options))
            assert all(c2 > c1 for c1, c2 in zip(state.cursors, child.cursors))
            state = child


class TestRemainingAndBounds:
    def test_root_remaining(self, worked):
        assert worked.remaining_lengths(worked.root()) == (8, 8)

    def test_upper_bound_root(self, worked):
        assert worked.upper_bound(worked.root()) == 7
        # independent recount with Counter
        counts = [Counter(s) for s in worked.strings]
        expect = sum(min(c[ch] for c in counts) for ch in "ABC")
        assert expect == 7

    def test_upper_bound_terminal(self):
        inst = build_instance("AB", ["AA", "AA"])
        state = inst.successor(inst.successor(inst.root(), "A"), "A")
        assert inst.remaining_lengths(state) == (0, 0)
        assert inst.upper_bound(state) == 0

    def test_identical_strings(self):
        inst = build_instance("A", ["AAA", "AAA"])
        assert inst.upper_bound(inst.root()) == 3

    def test_ub_admissible_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.choice([2, 3])
            strings = [
                "".join(rng.choice("AB") for _ in range(rng.randint(1, 14)))
                for _ in range(n)
            ]
            inst = build_instance("AB", strings)
            if n == 2:
                exact, _ = exact_lcs2(*strings)
            else:
                exact = exact_lcs3(*strings)
            assert exact <= inst.upper_bound(inst.root())

    def test_next_and_count_consistency(self, worked):
        for i, s in enumerate(worked.strings):
            for pos in range(len(s) + 1):
                for ch in worked.alphabet:
                    has_next = worked.next_occurrence(i, pos, ch) is not None
                    assert has_next == (worked.suffix_count(i, pos, ch) > 0)


class TestStats:
    def test_worked_values(self, worked):
        child = worked.successor(worked.root(), "B")
        assert worked.stats(child) == (5.0, 8.0)

    def test_zero_dispersion(self):
        inst = build_instance("A", ["AAAAA", "AAAAA", "AAAAA"])
        assert inst.stats(inst.root()) == (5.0, 0.0)

    def test_two_point(self):
        inst = build_instance("AB", ["ABAB", "ABABAB"])
        assert inst.stats(inst.root()) == (5.0, 2.0)


class TestReconstruct:
    def test_two_step_path(self):
        # figure-style strings: picking B then C spells "BC"
        inst = build_instance("ABCD", ["ABACD", "BAACDA"])
        n1 = inst.successor(inst.root(), "B")
        n2 = inst.successor(n1, "C")
        assert reconstruct_solution(n2) == "BC"
        assert n2.depth == len("BC")

    def test_root_is_empty(self, worked):
        assert reconstruct_solution(worked.root()) == ""

    def test_single_step(self):
        inst = build_instance("ABCD", ["ABACD", "BAACDA"])
        assert reconstruct_solution(inst.successor(inst.root(), "D")) == "D"

    def test_random_walks_yield_common_subsequences(self):
        rng = random.Random(3)
        for trial in range(20):
            strings = [
                "".join(rng.choice("ABC") for _ in range(rng.randint(4, 25)))
                for _ in range(rng.choice([2, 3, 4]))
            ]
            inst = build_instance("ABC", strings)
            state = inst.root()
            while True:
                options = [c for c in inst.alphabet if inst.successor(state, c)]
                if not options or rng.random() < 0.2:
                    break
                state = inst.successor(state, rng.choice(options))
            solution = reconstruct_solution(state)
            assert len(solution) == state.depth
            assert all(is_subsequence(solution, s) for s in strings)
