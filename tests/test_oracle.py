"""Exact-solver referee tests; expected lengths verified by independent
in-test enumeration over subsequences."""

import itertools
import random
import tracemalloc

import pytest

from lcsbeam.oracle import exact_lcs2, exact_lcs3, exhaustive_lcs, lcs2_bytes, lcs3_bytes
from lcsbeam.probability import CapacityError


def brute_force(strings):
    """Independent referee: enumerate subsequences of the shortest string."""
    shortest = min(strings, key=len)
    best = 0
    for size in range(len(shortest), 0, -1):
        for pos in itertools.combinations(range(len(shortest)), size):
            cand = "".join(shortest[p] for p in pos)
            ok = True
            for s in strings:
                it = iter(s)
                if not all(ch in it for ch in cand):
                    ok = False
                    break
            if ok:
                return size
    return best


class TestExactLcs2:
    def test_basic(self):
        length, witness = exact_lcs2("ABC", "BCA")
        assert length == 2
        assert witness in ("BC", "CA", "AB")
        it1, it2 = iter("ABC"), iter("BCA")
        assert all(ch in it1 for ch in witness)
        assert all(ch in it2 for ch in witness)

    def test_identical(self):
        assert exact_lcs2("AAAA", "AAAA") == (4, "AAAA")

    def test_disjoint(self):
        assert exact_lcs2("AB", "CD")[0] == 0

    def test_empty(self):
        assert exact_lcs2("", "ABC")[0] == 0

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.001")
        with pytest.raises(CapacityError):
            exact_lcs2("A" * 100, "A" * 100)

    def test_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            a = "".join(rng.choice("ABC") for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 12)))
            length, witness = exact_lcs2(a, b)
            assert length == brute_force([a, b])
            assert len(witness) == length


class TestExactLcs3:
    def test_identical(self):
        assert exact_lcs3("AB", "AB", "AB") == 2

    def test_rotations(self):
        assert exact_lcs3("ABC", "BCA", "CAB") == 1

    def test_interleavings(self):
        # enumeration finds "ABA" common to all three
        assert brute_force(["ABAB", "BABA", "ABBA"]) == 3
        assert exact_lcs3("ABAB", "BABA", "ABBA") == 3

    def test_budget(self):
        with pytest.raises(CapacityError):
            exact_lcs3("A" * 300, "A" * 300, "A" * 300)

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(25):
            strings = [
                "".join(rng.choice("AB") for _ in range(rng.randint(1, 10)))
                for _ in range(3)
            ]
            assert exact_lcs3(*strings) == brute_force(strings)

    def test_agrees_with_lcs2_on_duplicated_string(self):
        rng = random.Random(29)
        for _ in range(15):
            a = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 12)))
            b = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 12)))
            assert exact_lcs3(a, b, b) == exact_lcs2(a, b)[0]


class TestExhaustive:
    def test_identical_four(self):
        assert exhaustive_lcs(["AB", "AB", "AB", "AB"]) == 2

    def test_three_permuted(self):
        assert exhaustive_lcs(["ABCD", "ACBD", "ABDC"]) == 3

    def test_disjoint(self):
        assert exhaustive_lcs(["A", "B"]) == 0

    def test_budget(self):
        with pytest.raises(CapacityError):
            exhaustive_lcs(["AB" * 11, "BA" * 11])

    def test_referee_agreement_with_dp(self):
        rng = random.Random(31)
        for _ in range(20):
            a = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 11)))
            b = "".join(rng.choice("ABC") for _ in range(rng.randint(1, 11)))
            assert exhaustive_lcs([a, b]) == exact_lcs2(a, b)[0]
        for _ in range(12):
            strings = [
                "".join(rng.choice("AB") for _ in range(rng.randint(1, 9)))
                for _ in range(3)
            ]
            assert exhaustive_lcs(strings) == exact_lcs3(*strings)


def traced_peak(solve, *strings):
    """The traced peak of one warm call, over what was traced before it."""
    solve(*strings)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solve(*strings)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def random_strings(seed, alphabet, *lengths):
    rng = random.Random(seed)
    return ["".join(rng.choices(alphabet, k=length)) for length in lengths]


class TestLimits:
    """Memory goes through the table budget; the 3-string DP's cells and the
    enumeration's shortest string are capped as work."""

    @pytest.mark.parametrize(
        "lengths,alphabet",
        [((0, 0), "ACGT"), ((0, 50), "ACGT"), ((50, 0), "ACGT"), ((100, 100), "ACGT"),
         ((20, 300), "ACGT"), ((300, 20), "ACGT"), ((1000, 3000), "ACGT"),
         ((3000, 1000), "ACGT"),
         ((300, 300), "aéxø")],  # non-ASCII: int32 codes
    )
    def test_lcs2_charge_covers_traced_peak(self, lengths, alphabet):
        # the int32 plane is most of the peak: the charge lies between the
        # traced peak and twice it, plus the 4 KiB of fixed objects
        peak = traced_peak(exact_lcs2, *random_strings(7, alphabet, *lengths))
        assert peak <= lcs2_bytes(*lengths) <= 2 * peak + 4096

    @pytest.mark.parametrize(
        "lengths",
        [(0, 0, 0), (5, 0, 30), (5, 30, 0), (10, 10, 10), (50, 50, 50), (100, 200, 100),
         (300, 30, 300), (2, 1000, 0), (20, 1000, 1000)],
    )
    def test_lcs3_charge_covers_traced_peak(self, lengths):
        peak = traced_peak(exact_lcs3, *random_strings(11, "ACGT", *lengths))
        assert peak <= lcs3_bytes(*lengths[1:]) <= 2 * peak + 4096

    @pytest.mark.parametrize(
        "solve,lengths,charge,what",
        [(exact_lcs2, (1000, 3000), lcs2_bytes(1000, 3000), "2-string DP of 1000 x 3000"),
         (exact_lcs3, (40, 300, 200), lcs3_bytes(300, 200), "3-string DP planes of 300 x 200")],
    )
    def test_planes_are_charged_to_the_table_budget(self, monkeypatch, solve, lengths, charge,
                                                    what):
        strings = random_strings(5, "ACGT", *lengths)
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", repr((charge - 1) / 2**20))
        with pytest.raises(CapacityError, match=f"^{what}: {charge / 2**20:.1f} MiB needed, "):
            solve(*strings)
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", repr(charge / 2**20))
        solve(*strings)

    def test_dp3_cell_cap(self):
        # 250 x 400 x 250 cells is the cap itself
        assert exact_lcs3("A" * 249, "A" * 399, "A" * 249) == 249
        with pytest.raises(CapacityError, match="^3-string DP needs 25100000 cells, "
                                                "cap is 25000000$"):
            exact_lcs3("A" * 250, "A" * 399, "A" * 249)

    def test_enumeration_cap(self):
        assert exhaustive_lcs(["A" * 20, "A" * 21]) == 20
        with pytest.raises(CapacityError, match="^enumeration over a length-21 string exceeds "
                                                "the cap of 20$"):
            exhaustive_lcs(["A" * 21, "A" * 22])
