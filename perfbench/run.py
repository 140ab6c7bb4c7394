#!/usr/bin/env python3
"""lcsbeam benchmark: one workload, one seed, one closed-loop run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, default seeds
    python3 perfbench/run.py --self-test              # the harness on a tiny instance

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
pass and reports the per-layer metrics instead.  A table goes to standard
output first; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full record of the run (inputs'
fingerprint, every sample, the environment, the spans of a traced run) is
written under `.perfbench/results/`.

The package is imported from `src/` of the same checkout, in this process,
after the environment is pinned: `LCSBEAM_TABLE_BUDGET_MB` is removed so
that the default kernel budget applies, and the BLAS/OpenMP thread counts
are set to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def pin_environment() -> None:
    os.environ.pop("LCSBEAM_TABLE_BUDGET_MB", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="wide, long, corr-dedupe or all")
    p.add_argument("--seed", type=int, help="defaults to the workload's own seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--time-setup", metavar="INPUT", help=argparse.SUPPRESS)
    p.add_argument("--family", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def print_table(name: str, seed: int, result, env: dict) -> None:
    print(f"== {name} seed={seed} correct={result.correct} "
          f"attempted={result.attempted} failed={result.failed}")
    d = result.details
    failures = ", ".join(f"{k} x{v}" for k, v in d["failures"].items()) or "none"
    print(f"   failed_ratio={d['failed_ratio']:g} ({failures})")
    print("   fingerprints=" + " ".join(f[:16] for f in d["fingerprints"]))
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads"))
    for key, value in result.metrics.items():
        print(f"   {key:<40} {value:>16.6f} {result.units[key]}")


def run_one(args) -> int:
    import harness

    workload = harness.TINY if args.workload == "tiny" else harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = workload.seed if args.seed is None else args.seed
    measure = harness.measure_traced if args.trace else harness.measure
    result = measure(ROOT, workload, seed, args.seconds)
    env = environment()
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **result.line(), "details": result.details}
    out = RESULTS / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print_table(workload.name, seed, result, env)
    print(json.dumps(result.line()))
    return 0


def run_children(flag_sets) -> list[dict]:
    """Run each flag set in its own process; returns their result lines."""
    lines = []
    for flags in flag_sets:
        proc = subprocess.run([sys.executable, __file__, *flags], stdout=subprocess.PIPE,
                              text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {' '.join(flags)} exited {proc.returncode}")
        lines.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return lines


def run_all(args) -> int:
    from harness import WORKLOADS

    lines = run_children(
        ["--workload", n, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        + (["--seed", str(args.seed)] if args.seed is not None else [])
        for n in WORKLOADS
    )
    return 0 if all(line["correct"] for line in lines) else 1


def self_test() -> int:
    """Run `tiny` untraced and traced, then check names, units and lengths.

    Every metric BENCHMARK.json names must be emitted with its unit, both
    runs must be correct with no failed solve, their fingerprints must
    match, and every beam length must be at most the exact 3-string LCS.
    """
    from harness import TINY, input_path
    from lcsbeam import exact_lcs3, load_plain

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain, traced = run_children(
        ["--workload", "tiny", "--seconds", "0", "--trace", t] for t in ("0", "1")
    )
    problems = []
    for line, section in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if want != got:
            problems.append(f"{section}: names or units differ: {sorted(set(want) ^ set(got))}")
        if not line["correct"] or line["failed"]:
            problems.append(f"{section}: correct={line['correct']} failed={line['failed']}")
    seed = TINY.seed
    plain_d, traced_d = (
        json.loads((RESULTS / f"tiny-seed{seed}-trace{t}.json").read_text())["details"]
        for t in (0, 1)
    )
    if plain_d["fingerprints"][0] != traced_d["fingerprints"][0]:
        problems.append("traced fingerprint differs from untraced")
    lengths = []
    for inst_seed, records in zip(plain_d["instance_seeds"], plain_d["records"]):
        instance, _ = load_plain(input_path(ROOT, TINY, inst_seed))
        exact = exact_lcs3(*instance.strings)
        for heuristic, solution, *_ in records:
            lengths.append(f"{len(solution)}/{exact}")
            if len(solution) > exact:
                problems.append(f"seed {inst_seed} {heuristic}: length {len(solution)} > exact {exact}")
    for p in problems:
        print("self-test FAIL:", p)
    print(f"self-test {'FAIL' if problems else 'ok'}: beam/exact lengths {' '.join(lengths)}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "lcsbeam" / "__init__.py").is_file():
        print(f"perfbench: no lcsbeam sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lcsbeam

    if Path(lcsbeam.__file__).resolve().parent != SRC / "lcsbeam":
        print(f"perfbench: imported lcsbeam from {lcsbeam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.time_setup:
        import harness
        from lcsbeam import Family

        print(harness.setup(Path(args.time_setup), Family(args.family))[2])
        return 0
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
