"""Instance table and node-state tests, built around the two-string
worked example S = {"BCABAABC", "CAACBBAA"} over {A, B, C}."""

import random
import string
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam.instance import (
    FAST_TAKE_BYTES,
    NodeState,
    build_instance,
    reconstruct_solution,
    table_budget_bytes,
)
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

    @pytest.mark.parametrize(
        "alphabet,strings,idx,bad",
        [
            ("AB", ["AB", "ABX"], 1, ["X"]),
            # below, between and above the alphabet's code points
            ("BD", ["A", "BD"], 0, ["A"]),
            ("BD", ["BD", "BCD"], 1, ["C"]),
            ("BD", ["BD", "DE"], 1, ["E"]),
            ("é\U0001F600", ["é", "\U0001F601é\U0001F600ü"], 1, ["ü", "\U0001F601"]),
        ],
    )
    def test_foreign_symbols_are_named(self, alphabet, strings, idx, bad):
        with pytest.raises(ValueError) as err:
            build_instance(alphabet, strings)
        assert str(err.value) == f"string {idx} contains symbols outside the alphabet: {bad}"

    def test_foreign_symbols_are_reported_before_the_budget(self, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.001")
        with pytest.raises(ValueError, match="outside the alphabet"):
            build_instance("AB", ["AB" * 2500, "ABX"])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.characters(), min_size=1, max_size=30, unique=True), st.data())
    def test_codes_follow_alphabet_order(self, symbols, data):
        # any code points, in any order: table column c is alphabet[c]
        alphabet = "".join(symbols)
        strings = data.draw(st.lists(st.text(alphabet, max_size=20), min_size=2, max_size=4))
        inst = build_instance(alphabet, strings)
        nxt, cnt = loop_tables(inst)
        assert np.array_equal(inst.next_table, nxt)
        assert np.array_equal(inst.suffix_table[..., :len(symbols)], cnt)

    def test_lone_surrogate_is_a_symbol(self):
        inst = build_instance("A\ud800", ["\ud800A\ud800", "A\ud800"])
        assert inst.next_occurrence(0, 1, "\ud800") == 2
        assert inst.suffix_count(1, 0, "A") == 1

    def test_tables_over_budget_are_refused(self, monkeypatch):
        # 2 tables x 10 strings x 5001 positions x 2 symbols x 2 bytes (uint16),
        # the codes of 10 strings and the temporaries of one: 0.75 MiB
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.3")
        with pytest.raises(
            CapacityError,
            match=r"instance tables for N=10, max_len=5000, sigma=2: 0\.7 MiB needed, "
            r"budget is 0\.3 MiB",
        ):
            build_instance("AB", ["AB" * 2500] * 10)
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.8")
        assert build_instance("AB", ["AB" * 2500] * 10).max_len == 5000

    def test_rejects_duplicate_alphabet(self):
        with pytest.raises(ValueError):
            build_instance("ABA", ["AB", "BA"])


def loop_tables(inst):
    """The instance tables as a loop over (string, symbol) columns builds them.

    Both in the next table's dtype, with sigma columns: the counts equal the
    instance's first sigma count columns, whatever their dtype.
    """
    n, sigma, width = inst.n_strings, inst.sigma_size, inst.max_len + 1
    dtype = inst.next_table.dtype
    nxt = np.full((n, width, sigma), inst.no_occurrence, dtype=dtype)
    cnt = np.zeros((n, width, sigma), dtype=dtype)
    for i, s in enumerate(inst.strings):
        length = len(s)
        codes = np.array([inst.symbol_code(ch) for ch in s], dtype=np.int32)
        for c in range(sigma):
            hits = np.nonzero(codes == c)[0]
            col = np.full(length + 1, inst.no_occurrence, dtype=dtype)
            col[hits] = hits
            np.minimum.accumulate(col[::-1], out=col[::-1])
            nxt[i, : length + 1, c] = col
            occ = np.zeros(length + 1, dtype=dtype)
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
        assert inst.next_table.dtype == nxt.dtype
        # uint8 counts exactly while no count passes 255 (at most 40 here)
        want = np.uint8 if cnt.max(initial=0) <= 255 else nxt.dtype
        assert inst.suffix_table.dtype == want
        assert np.array_equal(inst.next_table, nxt)
        assert np.array_equal(inst.suffix_table[..., :inst.sigma_size], cnt)

    def test_all_empty(self):
        inst = build_instance("AB", ["", ""])
        nxt, cnt = loop_tables(inst)
        assert np.array_equal(inst.next_table, nxt)
        assert np.array_equal(inst.suffix_table, cnt)


class TestCountTable:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.sampled_from([255, 256]), st.data())
    def test_check_bounds_the_build(self, sigma, largest, data):
        # one symbol of one string is topped up to exactly `largest` copies
        # at random places, so the largest count lands on 255 or on 256
        alphabet = string.ascii_letters[:sigma]
        strings = data.draw(st.lists(st.text(alphabet, max_size=30), min_size=2, max_size=4),
                            label="strings")
        which = data.draw(st.integers(0, len(strings) - 1), label="which")
        symbol = data.draw(st.sampled_from(alphabet), label="symbol")
        topped = list(strings[which] + symbol * (largest - strings[which].count(symbol)))
        random.Random(data.draw(st.integers(0, 2**32), label="shuffle")).shuffle(topped)
        strings[which] = "".join(topped)
        charged = []
        with mock.patch("lcsbeam.instance.check_budget",
                        lambda need, what: charged.append(need)):
            inst = build_instance(alphabet, strings)
        assert len(charged) == 1
        assert inst.next_table.nbytes + inst.suffix_table.nbytes <= charged[0]
        assert (inst.suffix_table.dtype == np.uint8) == (largest <= 255)
        cols = inst.suffix_table.shape[2]
        if inst.suffix_table.dtype != np.uint8:
            assert (inst.suffix_table.dtype, cols) == (inst.next_table.dtype, sigma)
        elif sigma <= FAST_TAKE_BYTES:
            # the narrowest row of 1, 2, 4, 8, 16 or 32 bytes that holds sigma counts
            assert cols in (1, 2, 4, 8, 16, 32) and sigma <= cols < 2 * sigma
        else:
            assert cols == sigma
        assert not inst.suffix_table[..., sigma:].any()
        _, cnt = loop_tables(inst)
        assert np.array_equal(inst.suffix_table[..., :sigma], cnt)
        assert int(cnt.max()) == largest


class TestTableCharge:
    @pytest.mark.parametrize(
        "n,length,sigma",
        [
            (2, 20000, 4),
            (3, 30000, 2),
            (2, 70000, 4),  # int32 tables and counts
            (2, 3000, 26),  # uint8 count rows padded to 32 bytes
            (10, 10000, 4),
            (200, 600, 20),
        ],
    )
    def test_charge_covers_traced_peak(self, n, length, sigma):
        # besides the two tables the build holds every string's codes and one
        # string's temporaries; the charge lies between the traced peak and twice it
        rng = random.Random(length)
        alphabet = string.ascii_letters[:sigma]
        strings = ["".join(rng.choices(alphabet, k=length)) for _ in range(n)]
        build_instance(alphabet, strings)  # warm
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_instance(alphabet, strings)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= table_budget_bytes(n, length, sigma) <= 2 * peak


class TestTableDtype:
    @pytest.mark.parametrize(
        "max_len,dtype,sentinel",
        [(65534, np.uint16, 65535), (65535, np.int32, 2**31 - 1)],
    )
    def test_scalar_api_matches_string_scan(self, max_len, dtype, sentinel):
        rng = random.Random(max_len)
        alphabet = "ABC"
        # the long string holds its only C at its last position, so an
        # advance past it reaches max_len, the largest cursor
        strings = [
            "".join(rng.choice("AB") for _ in range(max_len - 1)) + "C",
            "".join(rng.choice(alphabet) for _ in range(999)),
        ]
        inst = build_instance(alphabet, strings)
        assert inst.max_len == max_len
        assert inst.next_table.dtype == inst.suffix_table.dtype == inst.lengths.dtype == dtype
        assert inst.no_occurrence == sentinel
        for i, s in enumerate(strings):
            edge = [0, 1, len(s) - 2, len(s) - 1, len(s)]
            for pos in edge + rng.sample(range(len(s) + 1), 200):
                for ch in alphabet:
                    at = s.find(ch, pos)
                    assert inst.next_occurrence(i, pos, ch) == (None if at < 0 else at)
                    assert inst.suffix_count(i, pos, ch) == s.count(ch, pos)
        edge_states = [(0, 0), (max_len - 1, 0), (max_len, 999), (max_len - 1, 998)]
        random_states = [tuple(rng.randint(0, len(s)) for s in strings) for _ in range(200)]
        for cursors in edge_states + random_states:
            state = NodeState(cursors=cursors, depth=0)
            bound = sum(min(s.count(ch, c) for s, c in zip(strings, cursors)) for ch in alphabet)
            assert inst.upper_bound(state) == bound
            for ch in alphabet:
                at = [s.find(ch, c) for s, c in zip(strings, cursors)]
                child = inst.successor(state, ch)
                if min(at) < 0:
                    assert child is None
                else:
                    assert child.cursors == tuple(a + 1 for a in at)
        last = inst.successor(NodeState(cursors=(max_len - 1, 0), depth=0), "C")
        assert last.cursors[0] == max_len


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
