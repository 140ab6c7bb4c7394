"""Dataset format and generator tests.

SplitMix64 is pinned to its published reference outputs and the
generators to golden strings, so any platform or refactoring drift in
benchmark reproducibility fails loudly here."""

import pytest

from lcsbeam.datasets import (
    DatasetError,
    Family,
    ParseError,
    SplitMix64,
    dump_plain,
    gen_correlated,
    gen_uncorrelated,
    load_fasta,
    load_plain,
    save_plain,
)
from lcsbeam.instance import build_instance
from lcsbeam.probability import CapacityError

WORKED_FILE = "2 3\nABC\n8 BCABAABC\n8 CAACBBAA\n"


class TestPlainFormat:
    def test_worked_example(self, tmp_path):
        path = tmp_path / "worked.txt"
        path.write_text(WORKED_FILE)
        inst, desc = load_plain(path)
        assert inst.strings == ("BCABAABC", "CAACBBAA")
        assert inst.alphabet == "ABC"
        assert desc.sigma_size == 3
        assert desc.n_strings == 2
        assert desc.family is Family.UNKNOWN

    def test_whitespace_tolerant(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2  3 \n ABC\n\n8   BCABAABC\n8 CAACBBAA\n\n")
        inst, _ = load_plain(path)
        assert inst.strings == ("BCABAABC", "CAACBBAA")

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\nABC\n9 BCABAABC\n8 CAACBBAA\n")
        with pytest.raises(ParseError) as err:
            load_plain(path)
        assert err.value.line_no == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            load_plain(path)

    def test_undeclared_symbol(self, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text("2 2\nAB\n2 AB\n2 AX\n")
        with pytest.raises(ParseError) as err:
            load_plain(path)
        assert "X" in str(err.value)

    def test_wrong_string_count(self, tmp_path):
        path = tmp_path / "count.txt"
        path.write_text("3 2\nAB\n2 AB\n2 BA\n")
        with pytest.raises(ParseError):
            load_plain(path)

    def test_round_trip_bytes(self, tmp_path):
        src = tmp_path / "canon.txt"
        src.write_text(WORKED_FILE)
        inst, _ = load_plain(src)
        dst = tmp_path / "copy.txt"
        save_plain(inst, dst)
        assert dst.read_bytes() == src.read_bytes()

    def test_generated_round_trip(self, tmp_path):
        inst, _ = gen_uncorrelated(4, 3, 25, 99)
        path = tmp_path / "gen.txt"
        save_plain(inst, path)
        again, _ = load_plain(path)
        assert again.strings == inst.strings
        assert dump_plain(again) == dump_plain(inst)


    @pytest.mark.parametrize("alphabet", ["AB", "01", "0"])
    def test_empty_strings_round_trip(self, tmp_path, alphabet):
        # dump_plain writes an empty string as "0 ", also when '0' is a symbol
        inst = build_instance(alphabet, ["", alphabet, "", alphabet[0] * 3])
        path = tmp_path / "empties.txt"
        save_plain(inst, path)
        again, desc = load_plain(path)
        assert again.strings == inst.strings
        assert desc.lengths == (0, len(alphabet), 0, 3)
        assert dump_plain(again) == path.read_text()

    def test_one_field_zero_is_a_string(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("2 2\n01\n0\n1 0\n")
        inst, _ = load_plain(path)
        assert inst.strings == ("0", "0")

class TestFasta:
    def test_two_records(self, tmp_path):
        path = tmp_path / "a.fa"
        path.write_text(">one\nACGT\n>two\nAA\nCG\n")
        inst, desc = load_fasta(path, "ACGT")
        assert inst.strings == ("ACGT", "AACG")
        assert desc.n_strings == 2
        assert desc.generator["headers"] == ["one", "two"]

    def test_uppercasing(self, tmp_path):
        path = tmp_path / "b.fa"
        path.write_text(">x\nacgt\n>y\nacgg\n")
        inst, _ = load_fasta(path, "ACGT")
        assert inst.strings == ("ACGT", "ACGG")

    def test_rejects_foreign_symbol_naming_record(self, tmp_path):
        path = tmp_path / "c.fa"
        path.write_text(">ok\nACGT\n>holds-n\nACNT\n")
        with pytest.raises(DatasetError) as err:
            load_fasta(path, "ACGT")
        assert "holds-n" in str(err.value)

    def test_truncation(self, tmp_path):
        path = tmp_path / "d.fa"
        path.write_text(">x\nACGTACGTACGT\n>y\nGGGGCCCCAAAA\n")
        inst, desc = load_fasta(path, "ACGT", truncate=4)
        assert inst.strings == ("ACGT", "GGGG")
        assert desc.generator["truncate"] == 4

    def test_truncation_skips_later_garbage(self, tmp_path):
        # symbols beyond the cut line are never part of the instance
        path = tmp_path / "e.fa"
        path.write_text(">x\nACGTNNNN\n>y\nGGGGNNNN\n")
        inst, _ = load_fasta(path, "ACGT", truncate=4)
        assert inst.strings == ("ACGT", "GGGG")

    def test_negative_truncation_raises(self, tmp_path):
        path = tmp_path / "d.fa"
        path.write_text(">x\nACGTACGT\n>y\nGGGGCCCC\n")
        with pytest.raises(ValueError, match="truncate must be >= 0, got -2"):
            load_fasta(path, "ACGT", truncate=-2)
        assert load_fasta(path, "ACGT", truncate=0)[0].strings == ("", "")

    def test_data_before_header(self, tmp_path):
        path = tmp_path / "f.fa"
        path.write_text("ACGT\n>x\nACGT\n")
        with pytest.raises(ParseError):
            load_fasta(path, "ACGT")

    def test_empty(self, tmp_path):
        path = tmp_path / "g.fa"
        path.write_text("\n")
        with pytest.raises(ParseError):
            load_fasta(path, "ACGT")


class TestSplitMix64:
    def test_published_reference_vector(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_second_reference_seed(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_bounded_draws(self):
        rng = SplitMix64(5)
        draws = [rng.next_below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_unit_interval(self):
        rng = SplitMix64(9)
        xs = [rng.next_unit() for _ in range(200)]
        assert all(0.0 <= x < 1.0 for x in xs)


class TestGenerators:
    def test_uncorrelated_golden(self):
        inst, desc = gen_uncorrelated(4, 2, 16, 1)
        assert inst.strings == ("ABBDDDDABAACDDCC", "ACCABAACABDABADB")
        assert desc.family is Family.UNCORRELATED
        assert desc.generator == {
            "kind": "uncorr", "sigma": 4, "n": 2, "len": 16, "seed": 1,
        }

    def test_correlated_golden(self):
        inst, desc = gen_correlated(2, 3, 12, 0.5, 7)
        assert inst.strings == ("BBABAAABAABB", "BBABAABAAAAB", "BAABBAAAAAAB")
        assert desc.family is Family.CORRELATED

    def test_determinism(self):
        a, _ = gen_uncorrelated(4, 10, 600, 1)
        b, _ = gen_uncorrelated(4, 10, 600, 1)
        assert a.strings == b.strings
        c, _ = gen_correlated(3, 4, 100, 0.25, 11)
        d, _ = gen_correlated(3, 4, 100, 0.25, 11)
        assert c.strings == d.strings

    def test_seed_changes_output(self):
        a, _ = gen_uncorrelated(4, 2, 50, 1)
        b, _ = gen_uncorrelated(4, 2, 50, 2)
        assert a.strings != b.strings

    def test_zero_length_degenerate(self):
        inst, _ = gen_uncorrelated(4, 2, 0, 3)
        assert inst.strings == ("", "")

    def test_mutation_rate_zero_identical(self):
        inst, _ = gen_correlated(3, 2, 10, 0.0, 5)
        assert inst.strings[0] == inst.strings[1]

    def test_mutation_rate_one_decorrelates(self):
        inst, _ = gen_correlated(2, 2, 400, 1.0, 13)
        a, b = inst.strings
        diff = sum(x != y for x, y in zip(a, b)) / 400
        assert 0.3 < diff < 0.7  # iid pair disagrees about half the time

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_uncorrelated(4, 1, 10, 0)
        with pytest.raises(ValueError):
            gen_correlated(4, 2, 10, 1.5, 0)
        with pytest.raises(ValueError):
            gen_uncorrelated(100, 2, 10, 0)

    @pytest.mark.parametrize(
        "generate",
        [lambda: gen_uncorrelated(2, 10, 5000, 1), lambda: gen_correlated(2, 10, 5000, 0.1, 1)],
        ids=["uncorr", "corr"],
    )
    def test_budget_is_checked_before_any_draw(self, monkeypatch, generate):
        # the same refusal as `build_instance`, and not a single draw before it
        def no_draw(self):
            raise AssertionError("drew a symbol before the budget check")

        monkeypatch.setattr(SplitMix64, "next_u64", no_draw)
        monkeypatch.setenv("LCSBEAM_TABLE_BUDGET_MB", "0.3")
        with pytest.raises(
            CapacityError,
            match=r"instance tables for N=10, max_len=5000, sigma=2: 0\.7 MiB needed, "
            r"budget is 0\.3 MiB",
        ):
            generate()


class TestDescriptors:
    """Every entry point's `to_dict()`: name, family, shape, source and generator."""

    def test_uncorrelated(self):
        assert gen_uncorrelated(4, 2, 16, 1)[1].to_dict() == {
            "name": "uncorr-s4-n2-l16-seed1", "family": "uncorr", "sigma_size": 4,
            "n_strings": 2, "lengths": [16, 16], "source": "gen:seed=1",
            "generator": {"kind": "uncorr", "sigma": 4, "n": 2, "len": 16, "seed": 1},
        }

    @pytest.mark.parametrize("rate,name", [
        (0.0, "corr-s2-n3-l12-r0.0-seed7"),
        (0.1, "corr-s2-n3-l12-r0.1-seed7"),
        (1.0, "corr-s2-n3-l12-r1.0-seed7"),
    ])
    def test_correlated(self, rate, name):
        assert gen_correlated(2, 3, 12, rate, 7)[1].to_dict() == {
            "name": name, "family": "corr", "sigma_size": 2,
            "n_strings": 3, "lengths": [12, 12, 12], "source": "gen:seed=7",
            "generator": {"kind": "corr", "sigma": 2, "n": 3, "len": 12, "rate": rate, "seed": 7},
        }

    def test_plain(self, tmp_path):
        path = tmp_path / "worked.txt"
        path.write_text(WORKED_FILE)
        assert load_plain(path)[1].to_dict() == {
            "name": "worked", "family": "unknown", "sigma_size": 3, "n_strings": 2,
            "lengths": [8, 8], "source": str(path), "generator": None,
        }

    def test_fasta_truncated(self, tmp_path):
        path = tmp_path / "d.fa"
        path.write_text(">x\nACGTACGTACGT\n>y\nGGGGCCCCAAAA\n")
        assert load_fasta(path, "ACGT", truncate=4)[1].to_dict() == {
            "name": "d", "family": "unknown", "sigma_size": 4, "n_strings": 2,
            "lengths": [4, 4], "source": str(path),
            "generator": {"headers": ["x", "y"], "truncate": 4},
        }
