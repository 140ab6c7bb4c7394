"""Benchmark command line.

Subcommands:

    solve    solve one instance (file or generated) with one heuristic
    sweep    run heuristics across a dataset manifest, emit a CSV
    probe    dump probability / q values over a k range as CSV
    ksweep   beam lengths for a range of fixed k values as CSV
    timing   median solve times across a manifest as CSV
    oracle   exact LCS of a small instance (spot checks)

Exit codes: 0 success, 1 partial sweep failure, 2 flag/usage errors,
3 dataset errors and requests over a named limit: the memory budget, or
the oracle's work caps.  All generator-backed runs require an explicit
--seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import (
    DatasetDescriptor,
    DatasetError,
    Family,
    gen_correlated,
    gen_uncorrelated,
    load_fasta,
    load_plain,
    read_text,
)
from .engine import BeamConfig, RunReport, beam_search, hyper_heuristic
from .heuristics import HeuristicKind, HeuristicSpec
from .instance import Instance
from .oracle import exact_lcs2, exact_lcs3, exhaustive_lcs
from .probability import (
    AlphabetParams,
    CapacityError,
    DomainError,
    prob_beta_sum,
    prob_closed,
    prob_closed_product,
    q_value,
    table_column,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_DATASET = 3

SWEEP_COLUMNS = ["dataset", "sigma", "n", "len", "heuristic", "length", "ms", "seed"]

HEURISTIC_CHOICES = ["minlen", "kguess", "kanalytic", "gcov", "hh"]

# the keys a manifest `gen:` line may set; `rate` is read for `corr` only
GEN_KEYS = ("sigma", "n", "len", "seed", "rate")


class UsageError(Exception):
    pass


def resolve_heuristic(name: str, family: Family) -> HeuristicSpec:
    """Map a CLI heuristic name plus dataset family to a concrete spec.

    `kanalytic` picks the uncorrelated or correlated k rule from the
    family; unknown families default to the uncorrelated rule.
    """
    if name == "minlen":
        return HeuristicSpec(kind=HeuristicKind.MINLEN)
    if name == "kguess":
        return HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS)
    if name == "gcov":
        return HeuristicSpec(kind=HeuristicKind.GCOV)
    if name == "kanalytic":
        if family is Family.CORRELATED:
            return HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_CORR)
        return HeuristicSpec(kind=HeuristicKind.PROB_K_ANALYTIC_UNCORR)
    raise UsageError(f"unknown heuristic {name!r}")


def run_named_heuristic(
    instance: Instance, desc: DatasetDescriptor, name: str, config_kw: dict
) -> RunReport:
    if name == "hh":
        hf1 = resolve_heuristic("kanalytic", desc.family)
        hf2 = resolve_heuristic("gcov", desc.family)
        config = BeamConfig(heuristic=hf1, **config_kw)
        return hyper_heuristic(instance, config, hf1, hf2)
    spec = resolve_heuristic(name, desc.family)
    config = BeamConfig(heuristic=spec, **config_kw)
    return beam_search(instance, config)


# --------------------------------------------------------------------------
# dataset resolution shared by solve/oracle
# --------------------------------------------------------------------------


def _load_from_flags(args) -> tuple[Instance, DatasetDescriptor]:
    """The instance named by the dataset flags; --family overrides its family."""
    if args.input and args.gen:
        raise UsageError("--input and --gen are mutually exclusive")
    if not (args.input and args.format == "fasta"):
        for flag, given in (("--format fasta", args.format == "fasta"),
                            ("--alphabet", args.alphabet is not None),
                            ("--truncate", args.truncate is not None)):
            if given:
                raise UsageError(f"{flag} needs a FASTA input (--input FILE --format fasta)")
    if args.truncate is not None and args.truncate < 0:
        raise UsageError(f"--truncate must be >= 0, got {args.truncate}")
    if args.input:
        if args.format == "fasta":
            alphabet = "ACGT" if args.alphabet is None else args.alphabet
            inst, desc = load_fasta(args.input, alphabet, truncate=args.truncate)
        else:
            inst, desc = load_plain(args.input)
    elif args.gen:
        if args.seed is None:
            raise UsageError("generator-backed runs require an explicit --seed")
        if args.sigma is None or args.n is None or args.len is None:
            raise UsageError("--gen requires --sigma, --n and --len")
        try:
            inst, desc = _generate(args.gen, args.sigma, args.n, args.len, args.rate, args.seed)
        except ValueError as exc:
            raise UsageError(str(exc))
    else:
        raise UsageError("one of --input or --gen is required")
    if args.family:
        desc = replace(desc, family=Family(args.family))
    return inst, desc


def _generate(kind: str, sigma: int, n: int, length: int, rate: float | None, seed: int):
    """A generated instance; the generators raise ValueError on bad parameters."""
    if kind == "uncorr":
        return gen_uncorrelated(sigma, n, length, seed)
    return gen_correlated(sigma, n, length, rate, seed)


def _checked_search_kw(**kw) -> dict:
    """`kw` as BeamConfig keywords; widths it refuses are usage errors."""
    try:
        BeamConfig(heuristic=HeuristicSpec(kind=HeuristicKind.MINLEN), **kw)
    except ValueError as exc:
        raise UsageError(str(exc))
    return kw


def _search_kw(args) -> dict:
    """BeamConfig keywords from --beta, --beta-h and --dominance-filter."""
    return _checked_search_kw(
        beta=args.beta,
        beta_h=min(args.beta_h, args.beta),
        dominance_filter=args.dominance_filter,
    )


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def cmd_solve(args) -> int:
    inst, desc = _load_from_flags(args)
    if args.heuristic_config:
        text = read_text(args.heuristic_config, "heuristic config ")
        try:
            spec = HeuristicSpec.from_dict(json.loads(text))
        except (KeyError, ValueError, TypeError) as exc:
            raise UsageError(f"bad heuristic config: {exc}")
        report = beam_search(inst, BeamConfig(heuristic=spec, **_search_kw(args)))
    else:
        report = run_named_heuristic(inst, desc, args.heuristic, _search_kw(args))
    label = args.heuristic if not args.heuristic_config else report.config["heuristic"]["kind"]
    payload = report.to_dict()
    payload["dataset"] = desc.to_dict()
    payload["family"] = desc.family.value
    payload["heuristic_flag"] = label
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"dataset:    {desc.name}")
        print(f"heuristic:  {label} (family={desc.family.value})")
        if report.chosen_heuristic:
            probe_ms = tuple(round(t * 1000, 3) for t in report.probe_wall_times)
            print(
                f"chosen:     {report.chosen_heuristic} probes={report.probe_lengths}"
                f" probe_ms={probe_ms}"
            )
        print(f"length:     {report.length}")
        print(f"solution:   {report.solution}")
        print(f"levels:     {report.levels}")
        print(f"expanded:   {report.nodes_expanded}")
        print(f"wall_ms:    {report.wall_time * 1000:.3f}")
        print(f"verified:   {str(report.verified).lower()}")
    return EXIT_OK


# --------------------------------------------------------------------------
# manifest handling
# --------------------------------------------------------------------------


def parse_manifest(path) -> list[dict]:
    """Lines of `path family`, or `gen: kind key=value ...` for generators."""
    path = Path(path)
    entries = []
    for line_no, raw in enumerate(read_text(path, "manifest ").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gen:"):
            parts = line[4:].split()
            if not parts:
                raise DatasetError(f"{path}:{line_no}: empty gen: line")
            kind = parts[0]
            if kind not in ("uncorr", "corr"):
                raise DatasetError(f"{path}:{line_no}: unknown generator kind {kind!r}")
            kv = {}
            for item in parts[1:]:
                if "=" not in item:
                    raise DatasetError(f"{path}:{line_no}: expected key=value, got {item!r}")
                key, val = item.split("=", 1)
                if key not in GEN_KEYS:
                    raise DatasetError(f"{path}:{line_no}: unknown generator key {key!r}")
                kv[key] = val
            try:
                entry = {"gen": kind, **{k: int(kv[k]) for k in ("sigma", "n", "len", "seed")}}
                if kind == "corr":
                    entry["rate"] = float(kv.get("rate", 0.1))
            except KeyError as exc:
                raise DatasetError(f"{path}:{line_no}: missing generator key {exc}")
            except ValueError as exc:
                raise DatasetError(f"{path}:{line_no}: {exc}")
            entries.append(entry)
        else:
            parts = line.split()
            if len(parts) > 2:
                raise DatasetError(f"{path}:{line_no}: expected 'path family', got {line!r}")
            file_part, family = parts if len(parts) == 2 else (parts[0], "unknown")
            if family not in ("uncorr", "corr", "unknown"):
                raise DatasetError(f"{path}:{line_no}: unknown family {family!r}")
            # `/` keeps an absolute path and reads a relative one from the manifest's directory
            entries.append({"path": path.parent / file_part, "family": Family(family)})
    return entries


def _materialize(entry: dict) -> tuple[Instance, DatasetDescriptor]:
    if "gen" in entry:
        try:
            return _generate(
                entry["gen"], entry["sigma"], entry["n"], entry["len"],
                entry.get("rate"), entry["seed"],
            )
        except ValueError as exc:
            raise DatasetError(f"bad generator entry: {exc}")
    return load_plain(entry["path"], family=entry["family"])


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def _manifest_solves(args, repeats: int = 1):
    """Check the flags, read the --manifest, and return the lazy solves.

    The solves load each entry and solve it with each --heuristics name.
    They yield (entry, desc, load_error, outcomes) per entry.  `outcomes`
    holds one (name, reports, error) per heuristic, with `repeats` reports
    or the error that refused the solve.  An entry that cannot be loaded
    has desc None and every outcome carries its load error.
    """
    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    if not heuristics:
        raise UsageError(f"--heuristics names no heuristic: {args.heuristics!r}")
    for name in heuristics:
        if name not in HEURISTIC_CHOICES:
            raise UsageError(f"unknown heuristic {name!r} in --heuristics")
    search_kw = _search_kw(args)
    entries = parse_manifest(args.manifest)
    return _solve_entries(entries, heuristics, search_kw, repeats)


def _solve_entries(entries, heuristics, search_kw, repeats):
    for entry in entries:
        try:
            inst, desc = _materialize(entry)
        except (DatasetError, CapacityError) as exc:
            yield entry, None, exc, [(name, None, exc) for name in heuristics]
            continue
        outcomes = []
        for name in heuristics:
            try:
                reports = [
                    run_named_heuristic(inst, desc, name, search_kw)
                    for _ in range(repeats)
                ]
            except (CapacityError, DomainError) as exc:
                outcomes.append((name, None, exc))
            else:
                outcomes.append((name, reports, None))
        yield entry, desc, None, outcomes


def cmd_sweep(args) -> int:
    solves = _manifest_solves(args)
    with _output(args.out) as handle:
        rows = []
        any_failed = False
        per_heuristic: dict[str, list[RunReport]] = {}
        for entry, desc, _, outcomes in solves:
            for name, reports, error in outcomes:
                done = per_heuristic.setdefault(name, [])
                if error is not None:
                    any_failed = True
                    rows.append(_sweep_row(entry, desc, name, None, error=str(error)))
                    continue
                done.append(reports[0])
                rows.append(_sweep_row(entry, desc, name, reports[0]))
        for name, reports in per_heuristic.items():
            if not reports:
                continue
            rows.append(
                {
                    "dataset": "average",
                    "sigma": "",
                    "n": "",
                    "len": "",
                    "heuristic": name,
                    "length": repr(sum(r.length for r in reports) / len(reports)),
                    "ms": repr(sum(r.wall_time for r in reports) * 1000 / len(reports)),
                    "seed": "",
                    "status": "ok",
                }
            )
        _write_csv(handle, SWEEP_COLUMNS + ["status"], rows)
    return EXIT_PARTIAL if any_failed else EXIT_OK


def _sweep_row(entry, desc, heuristic, report, error=None) -> dict:
    if desc is not None:
        name = desc.name
        sigma, n = desc.sigma_size, desc.n_strings
        length_field = max(desc.lengths) if desc.lengths else 0
        seed = desc.generator.get("seed", "") if desc.generator else ""
    else:
        name = str(entry.get("path", entry))
        sigma = entry.get("sigma", "")
        n = entry.get("n", "")
        length_field = entry.get("len", "")
        seed = entry.get("seed", "")
    return {
        "dataset": name,
        "sigma": sigma,
        "n": n,
        "len": length_field,
        "heuristic": heuristic,
        "length": report.length if report else "",
        "ms": repr(report.wall_time * 1000) if report else "",
        "seed": seed,
        "status": "ok" if report else f"error: {error}",
    }


def _output(out):
    """The --out file opened for writing, or stdout without one.

    The commands that solve open it before their first solve, so a path
    that cannot be written is a usage error that costs no solve.
    """
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}")


def _write_csv(handle, columns, rows) -> None:
    writer = csv.DictWriter(handle, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)


# --------------------------------------------------------------------------
# probe
# --------------------------------------------------------------------------


def _parse_range(spec: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"expected a range like A:B, got {spec!r}")
    if lo > hi or lo < 0:
        raise UsageError(f"bad range {spec!r}")
    return lo, hi


def cmd_probe(args) -> int:
    lo, hi = _parse_range(args.k_range)
    params = AlphabetParams(args.sigma)
    rows = []
    column = None
    if not args.q and args.method == "table":
        column = table_column(args.sigma, args.n, hi)
    for k in range(lo, hi + 1):
        if args.q:
            value = q_value(k, args.n, params)
        elif args.method == "table":
            value = column[k]
        elif args.method == "closed":
            value = prob_closed(k, args.n, params)
        elif args.method == "closed2":
            value = prob_closed_product(k, args.n, params)
        else:
            value = prob_beta_sum(k, args.n, params)
        rows.append({"k": k, "value": repr(float(value))})
    with _output(args.out) as handle:
        _write_csv(handle, ["k", "value"], rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# ksweep
# --------------------------------------------------------------------------


def cmd_ksweep(args) -> int:
    inst, desc = _load_from_flags(args)
    lo, hi = _parse_range(args.k_range)
    if lo < 1:
        raise UsageError("k-sweep needs k >= 1")
    if args.k_step < 1:
        raise UsageError(f"--k-step must be >= 1, got {args.k_step}")
    search_kw = _checked_search_kw(beta=args.beta, dominance_filter=args.dominance_filter)
    with _output(args.out) as handle:
        rows = []
        for k in range(lo, hi + 1, args.k_step):
            spec = HeuristicSpec(kind=HeuristicKind.PROB_K_GUESS, fixed_k=k)
            report = beam_search(inst, BeamConfig(heuristic=spec, **search_kw))
            rows.append({"k": k, "length": report.length})
        _write_csv(handle, ["k", "length"], rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# timing
# --------------------------------------------------------------------------


def cmd_timing(args) -> int:
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    solves = _manifest_solves(args, args.repeats)
    with _output(args.out) as handle:
        rows = []
        any_failed = False
        for _, desc, load_error, outcomes in solves:
            if load_error is not None:
                print(f"warning: skipping entry: {load_error}", file=sys.stderr)
                any_failed = True
                continue
            for name, reports, error in outcomes:
                if error is not None:
                    print(f"warning: skipping {name} on {desc.name}: {error}", file=sys.stderr)
                    any_failed = True
                    continue
                times = [r.wall_time * 1000 for r in reports]
                rows.append(
                    {"n": desc.n_strings, "heuristic": name, "ms": repr(statistics.median(times))}
                )
        _write_csv(handle, ["n", "heuristic", "ms"], rows)
    return EXIT_PARTIAL if any_failed else EXIT_OK


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    inst, desc = _load_from_flags(args)
    strings = list(inst.strings)
    method = args.method
    if method == "auto":
        method = {2: "dp2", 3: "dp3"}.get(len(strings), "enum")
    if method == "dp2":
        if len(strings) != 2:
            raise UsageError("dp2 needs exactly 2 strings")
        length, witness = exact_lcs2(strings[0], strings[1])
        print(f"length: {length}")
        print(f"witness: {witness}")
    elif method == "dp3":
        if len(strings) != 3:
            raise UsageError("dp3 needs exactly 3 strings")
        length = exact_lcs3(strings[0], strings[1], strings[2])
        print(f"length: {length}")
    else:
        length = exhaustive_lcs(strings)
        print(f"length: {length}")
    print(f"dataset: {desc.name} method: {method}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="dataset file path")
    p.add_argument("--format", choices=["plain", "fasta"], default="plain")
    p.add_argument("--alphabet", help="alphabet for FASTA input (default ACGT)")
    p.add_argument("--truncate", type=int, help="FASTA prefix truncation length")
    p.add_argument("--gen", choices=["uncorr", "corr"], help="generate an instance")
    p.add_argument("--sigma", type=int, help="generator alphabet size")
    p.add_argument("--n", type=int, help="generator string count")
    p.add_argument("--len", type=int, help="generator string length")
    p.add_argument("--rate", type=float, default=0.1, help="correlated mutation rate")
    p.add_argument("--seed", type=int, help="generator seed (required for --gen)")
    p.add_argument("--family", choices=["uncorr", "corr"], help="k-rule family override")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=int, default=200, help="beam width")
    p.add_argument("--beta-h", dest="beta_h", type=int, default=60, help="probe width")
    p.add_argument(
        "--dominance-filter",
        dest="dominance_filter",
        action="store_true",
        help="merge duplicate cursor vectors, keeping the best score",
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals read like the CLI's other usage errors.

    Subcommand parsers are built with the same class, so theirs do too.
    """

    def error(self, message):
        self.exit(EXIT_USAGE, f"usage error: {message} (see '{self.prog} --help')\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcsbeam",
        description="Beam-search solver and benchmark harness for multiple-string LCS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_dataset_flags(p_solve)
    _add_search_flags(p_solve)
    p_solve.add_argument("--heuristic", choices=HEURISTIC_CHOICES, default="kanalytic")
    p_solve.add_argument(
        "--heuristic-config",
        dest="heuristic_config",
        help="JSON file defining the scoring spec (overrides --heuristic)",
    )
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run heuristics across a manifest")
    p_sweep.add_argument("--manifest", required=True)
    p_sweep.add_argument("--heuristics", required=True, help="comma-separated list")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    _add_search_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_probe = sub.add_parser("probe", help="probability kernel values as CSV")
    p_probe.add_argument("--sigma", type=int, required=True)
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--k-range", dest="k_range", required=True, help="inclusive A:B")
    p_probe.add_argument(
        "--method", choices=["table", "closed", "closed2", "beta"], default="closed"
    )
    p_probe.add_argument("--q", action="store_true", help="emit q(k, n) instead of p")
    p_probe.add_argument("--out", help="output CSV path (default stdout)")
    p_probe.set_defaults(func=cmd_probe)

    p_ksweep = sub.add_parser("ksweep", help="beam lengths over fixed k values")
    _add_dataset_flags(p_ksweep)
    p_ksweep.add_argument("--k-range", dest="k_range", required=True, help="inclusive A:B")
    p_ksweep.add_argument("--k-step", dest="k_step", type=int, default=1)
    p_ksweep.add_argument("--beta", type=int, default=200)
    p_ksweep.add_argument(
        "--dominance-filter", dest="dominance_filter", action="store_true"
    )
    p_ksweep.add_argument("--out", help="output CSV path (default stdout)")
    p_ksweep.set_defaults(func=cmd_ksweep)

    p_timing = sub.add_parser("timing", help="median solve times across a manifest")
    p_timing.add_argument("--manifest", required=True)
    p_timing.add_argument("--heuristics", required=True)
    p_timing.add_argument("--repeats", type=int, default=3)
    p_timing.add_argument("--out", help="output CSV path (default stdout)")
    _add_search_flags(p_timing)
    p_timing.set_defaults(func=cmd_timing)

    p_oracle = sub.add_parser("oracle", help="exact LCS for small instances")
    _add_dataset_flags(p_oracle)
    p_oracle.add_argument("--method", choices=["auto", "dp2", "dp3", "enum"], default="auto")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
