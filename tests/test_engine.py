"""Beam engine behavior: search results, determinism, tie policy,
duplicate merging, and the two-heuristic wrapper."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsbeam import engine
from lcsbeam.datasets import gen_correlated, gen_uncorrelated
from lcsbeam.engine import (
    BeamConfig,
    RunReport,
    beam_search,
    hyper_heuristic,
    search_bytes,
    verify_solution,
)
from lcsbeam.heuristics import HeuristicKind, HeuristicSpec
from lcsbeam.instance import build_instance
from lcsbeam.oracle import exact_lcs2, exhaustive_lcs
from lcsbeam.probability import CapacityError

MINLEN = HeuristicSpec(kind=HeuristicKind.MINLEN)
GUESS = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS)
UNCORR = HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR)
GCOV = HeuristicSpec(kind=HeuristicKind.GCOV)

ALL_KINDS = [MINLEN, GUESS, UNCORR, GCOV]


def cfg(spec, beta=10, **kw):
    kw.setdefault("beta_h", min(beta, 5))
    return BeamConfig(heuristic=spec, beta=beta, **kw)


class TestVerifySolution:
    def test_examples(self):
        inst = build_instance("ABC", ["BCABAABC", "CAACBBAA"])
        # "BAA" scans through both strings; "BC" fails the second one
        # (its last C sits before its first B)
        assert verify_solution(inst, "BAA")
        assert not verify_solution(inst, "BC")
        assert verify_solution(inst, "")
        inst2 = build_instance("AB", ["AB", "BA"])
        assert not verify_solution(inst2, "AB")


class TestBeamSearch:
    def test_identical_strings(self):
        inst = build_instance("AB", ["AB", "AB"])
        for spec in ALL_KINDS:
            report = beam_search(inst, cfg(spec, beta=1))
            assert report.length == 2
            assert report.solution == "AB"

    def test_small_derived_case(self):
        # exhaustive enumeration says the best common subsequence has length 2
        inst = build_instance("ABC", ["ABC", "BCA"])
        assert exhaustive_lcs(["ABC", "BCA"]) == 2
        report = beam_search(inst, cfg(MINLEN, beta=3))
        assert report.length == 2

    def test_no_common_symbol(self):
        inst = build_instance("AB", ["A", "B"])
        report = beam_search(inst, cfg(MINLEN, beta=2))
        assert report.length == 0
        assert report.solution == ""
        assert report.levels == 0

    def test_report_counters(self):
        inst = build_instance("AB", ["ABAB", "BABA"])
        report = beam_search(inst, cfg(GUESS, beta=4))
        assert report.length == len(report.solution) == report.levels
        assert report.nodes_expanded > 0
        assert report.wall_time >= 0.0
        assert report.verified

    def test_solution_bounded_by_ub_and_minlen(self):
        rng = random.Random(2)
        for _ in range(15):
            strings = [
                "".join(rng.choice("ABCD") for _ in range(rng.randint(3, 30)))
                for _ in range(rng.choice([2, 3, 5]))
            ]
            inst = build_instance("ABCD", strings)
            report = beam_search(inst, cfg(GUESS, beta=8))
            assert verify_solution(inst, report.solution)
            assert report.length <= inst.upper_bound(inst.root())
            assert report.length <= min(len(s) for s in strings)

    def test_beam_never_beats_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            a = "".join(rng.choice("AB") for _ in range(rng.randint(2, 25)))
            b = "".join(rng.choice("AB") for _ in range(rng.randint(2, 25)))
            inst = build_instance("AB", [a, b])
            exact, _ = exact_lcs2(a, b)
            for spec in ALL_KINDS:
                assert beam_search(inst, cfg(spec, beta=12)).length <= exact

    def test_determinism(self):
        inst, _ = gen_uncorrelated(4, 5, 80, 42)
        for spec in ALL_KINDS:
            r1 = beam_search(inst, cfg(spec, beta=20))
            r2 = beam_search(inst, cfg(spec, beta=20))
            assert r1.solution == r2.solution
            assert r1.nodes_expanded == r2.nodes_expanded
            assert r1.levels == r2.levels

    def test_width_monotonicity_statistical(self):
        """Wider beams win on at least 95% of seeds (not a strict law)."""
        wins = 0
        for seed in range(50):
            inst, _ = gen_uncorrelated(4, 3, 60, seed)
            narrow = beam_search(inst, cfg(GUESS, beta=30)).length
            wide = beam_search(inst, cfg(GUESS, beta=120)).length
            wins += wide >= narrow
        assert wins >= 48

    def test_dominance_filter_dedupes(self):
        # "AAAB"/"AABA": many parents reach identical cursor vectors
        inst = build_instance("AB", ["AAAB", "AABA"])
        plain = beam_search(inst, cfg(GUESS, beta=6))
        merged = beam_search(inst, cfg(GUESS, beta=6, dominance_filter=True))
        assert merged.length >= plain.length
        assert merged.nodes_expanded <= plain.nodes_expanded
        assert verify_solution(inst, merged.solution)

    def test_fixed_k_scoring(self):
        inst, _ = gen_uncorrelated(4, 3, 50, 9)
        spec = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS, fixed_k=5)
        report = beam_search(inst, cfg(spec, beta=10))
        assert report.length > 0
        assert verify_solution(inst, report.solution)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BeamConfig(heuristic=MINLEN, beta=0)
        with pytest.raises(ValueError):
            BeamConfig(heuristic=MINLEN, beta=10, beta_h=20)
        # the tie policy is fixed, not a field
        with pytest.raises(TypeError):
            BeamConfig(heuristic=MINLEN, tie_break="random")
        inst = build_instance("ABC", ["BCABAABC", "CAACBBAA"])
        report = beam_search(inst, BeamConfig(heuristic=MINLEN, beta=2))
        assert report.config["tie_break"] == "cursor-lex"


class TestLongInstances:
    def test_probability_score_needs_no_quadratic_table(self, monkeypatch):
        # a dense ln p table for max_len=9000 would take 618 MiB, over the
        # default 512 MiB budget; the kernel builds one row per level instead
        monkeypatch.delenv("LCSBEAM_TABLE_BUDGET_MB", raising=False)
        inst, _ = gen_uncorrelated(20, 10, 9000, 1)
        report = beam_search(inst, cfg(UNCORR, beta=1))
        assert report.verified
        assert report.length > 0


# The bound charges each search what its phases allocate for its kind and
# merge mode, but at the full width, while a beam that holds few distinct
# vectors gathers far fewer slots.  On the grid below it measured 1.44x (200
# strings, merging) to 6.4x (26 letters, 2 strings, beta=100, kanalytic) the
# traced peak; the fixed objects of a search are the 16 KiB of its constant.
BOUND_SLACK = 8
BOUND_FIXED = 16 * 1024


class TestSearchBudget:
    def test_search_over_budget_is_refused(self, monkeypatch):
        # the tables are charged 196.7 KiB, inside the budget; the search at beta=2000 is not
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "1")
        inst, _ = gen_uncorrelated(4, 200, 20, 1)
        config = cfg(MINLEN, beta=2000)
        with pytest.raises(CapacityError, match="beta=2000, N=200, sigma=4") as refused:
            beam_search(inst, config)
        # the refusal states the bound search_bytes puts on that search
        need = search_bytes(inst, config)
        assert f": {need / 2**20:.1f} MiB needed," in str(refused.value)
        # a probe, the same search at beta_h, is checked at its own width
        assert beam_search(inst, cfg(MINLEN, beta=5)).verified

    @pytest.mark.parametrize("spec", [MINLEN, UNCORR, GCOV])
    @pytest.mark.parametrize(
        "sigma,n,length,beta,merge",
        [
            (20, 30, 80, 40, False),
            (2, 20, 150, 300, True),
            (26, 2, 60, 100, False),
            # many strings: the (child, string) cells dominate the bound
            (20, 200, 300, 40, False),
            (4, 200, 80, 40, True),
            # one vector a level over thousands of levels: the arena's
            # per-level Python objects dominate the bound
            (2, 2, 5000, 1, False),
            (2, 2, 5000, 1, True),
            # tiny searches: the fixed objects of a search dominate the bound
            (4, 2, 3, 5, False),
            (2, 3, 10, 2, True),
            (2, 2, 0, 3, False),
            # gcov's suffix counts are uint8 rows padded to 4 bytes here, and
            # to 32 bytes for the alphabets of 20 and 26 letters above
            (3, 20, 80, 40, False),
            # a wide beam of copies over long strings: few distinct vectors a level
            (4, 10, 600, 200, False),
        ],
    )
    def test_bound_covers_traced_peak(self, spec, sigma, n, length, beta, merge):
        # the bound the engine checks, read from the instance, lies between the
        # traced peak and BOUND_SLACK * peak + BOUND_FIXED
        inst, _ = gen_uncorrelated(sigma, n, length, 3)
        config = cfg(spec, beta=beta, dominance_filter=merge)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            beam_search(inst, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        bound = search_bytes(inst, config)
        assert peak <= bound <= BOUND_SLACK * peak + BOUND_FIXED

    @pytest.mark.parametrize("sigma,n,length,beta", [(26, 2, 60, 100), (20, 200, 300, 40),
                                                     (3, 20, 80, 40)])
    def test_padded_count_rows_bound_the_gcov_peak(self, sigma, n, length, beta):
        # the bound a search checks reads the instance's count rows: uint8
        # counts padded to 32, 32 and 4 bytes for these alphabets
        inst, _ = gen_uncorrelated(sigma, n, length, 3)
        row = inst.suffix_table[0, 0]
        assert (row.dtype.itemsize, row.nbytes) == (1, 1 << (sigma - 1).bit_length())
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            beam_search(inst, cfg(GCOV, beta=beta))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= search_bytes(inst, cfg(GCOV, beta=beta))

    def test_each_kind_is_charged_its_own_temporaries(self, monkeypatch):
        # sigma=26, N=2, len=60, beta=100: the minlen search traces about 82 KiB.
        # A bound with every kind's temporaries, 1.07 MiB, refused it under
        # 0.75 MiB; minlen and kanalytic read no count row and fit, gcov does not
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.75")
        inst, _ = gen_uncorrelated(26, 2, 60, 3)
        for spec in (MINLEN, UNCORR):
            assert search_bytes(inst, cfg(spec, beta=100)) < 0.75 * 2**20
            assert beam_search(inst, cfg(spec, beta=100)).verified
        with pytest.raises(CapacityError, match="beta=100, N=2, sigma=26"):
            beam_search(inst, cfg(GCOV, beta=100))


@st.composite
def tiny_string_sets(draw):
    """2-4 strings of 0-8 symbols over 1-3 letters."""
    alphabet = "ABC"[:draw(st.integers(1, 3))]
    return alphabet, draw(st.lists(st.text(alphabet, max_size=8), min_size=2, max_size=4))


class TestExactness:
    # with merging on and a width of at least the number of cursor vectors,
    # prod(len_i + 1), no level prunes, so every search is exact
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tiny_string_sets())
    def test_unpruned_search_is_exact(self, string_set):
        alphabet, strings = string_set
        inst = build_instance(alphabet, strings)
        beta = math.prod(len(s) + 1 for s in strings)
        want = exhaustive_lcs(strings)
        for kind in HeuristicKind:
            config = cfg(HeuristicSpec(kind=kind), beta=beta, dominance_filter=True)
            assert beam_search(inst, config).length == want, kind
        hh = hyper_heuristic(inst, cfg(UNCORR, beta=beta, dominance_filter=True), UNCORR, GCOV)
        assert hh.length == want


class TestArena:
    @pytest.mark.parametrize("beta,parent_bytes", [(200, 1), (300, 2)])
    def test_arena_is_compact(self, beta, parent_bytes, monkeypatch):
        # parents in the smallest dtype holding beta - 1, symbols in the one
        # holding sigma - 1
        inst, _ = gen_uncorrelated(4, 5, 120, 2)
        walked = []
        walk = engine._walk_arena

        def recorded(instance, arena):
            walked.extend(arena)
            return walk(instance, arena)

        monkeypatch.setattr(engine, "_walk_arena", recorded)
        report = beam_search(inst, cfg(MINLEN, beta=beta))
        assert report.verified and len(walked) == report.levels > 0
        assert {parents.dtype.itemsize for parents, _ in walked} == {parent_bytes}
        assert {codes.dtype.itemsize for _, codes in walked} == {1}
        assert {parents.dtype.kind + codes.dtype.kind for parents, codes in walked} == {"uu"}


class TestHyperHeuristic:
    def test_tie_prefers_first(self):
        # identical heuristics force equal probes; the first must win
        inst, _ = gen_uncorrelated(4, 4, 60, 3)
        config = cfg(UNCORR, beta=20)
        report = hyper_heuristic(inst, config, UNCORR, UNCORR)
        assert report.probe_lengths[0] == report.probe_lengths[1]
        assert report.chosen_heuristic == UNCORR.kind.value

    def test_selection_rule_against_independent_probes(self):
        for seed in range(12):
            inst, _ = (
                gen_uncorrelated(4, 4, 70, seed)
                if seed % 2
                else gen_correlated(4, 4, 70, 0.2, seed)
            )
            config = cfg(UNCORR, beta=30)
            report = hyper_heuristic(inst, config, UNCORR, GCOV)
            p1 = beam_search(inst, cfg(UNCORR, beta=config.beta_h)).length
            p2 = beam_search(inst, cfg(GCOV, beta=config.beta_h)).length
            assert report.probe_lengths == (p1, p2)
            expected = UNCORR if p1 >= p2 else GCOV
            assert report.chosen_heuristic == expected.kind.value

    def test_report_echoes_config(self):
        inst, _ = gen_uncorrelated(4, 4, 40, 5)
        report = hyper_heuristic(inst, cfg(UNCORR, beta=10), UNCORR, GCOV)
        assert report.config["beta"] == 10
        assert "hyper_heuristics" in report.config
        assert report.config["heuristic"]["a"] == 1.8233

    def test_probe_wall_times(self):
        inst, _ = gen_uncorrelated(4, 4, 60, 3)
        report = hyper_heuristic(inst, cfg(UNCORR, beta=20), UNCORR, GCOV)
        assert len(report.probe_wall_times) == 2
        assert all(t > 0.0 for t in report.probe_wall_times)
        again = RunReport.from_dict(report.to_dict())
        assert again.probe_wall_times == report.probe_wall_times
        assert beam_search(inst, cfg(GCOV, beta=20)).probe_wall_times is None


class TestRunReport:
    def test_dict_round_trip(self):
        inst, _ = gen_uncorrelated(4, 3, 30, 1)
        report = hyper_heuristic(inst, cfg(UNCORR, beta=8), UNCORR, GCOV)
        d = report.to_dict()
        again = RunReport.from_dict(d).to_dict()
        assert d == again
