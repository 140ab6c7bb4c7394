"""Workloads, inputs and measured passes of the lcsbeam benchmark.

One run is closed-loop and single-threaded: a round solves one instance
with each heuristic in turn, one solve at a time, and rounds go on while
the run's time is not used up.  The instances are generated from the
run's seed with the package's SplitMix64 generators, written with
`save_plain` outside the clock, and then driven through the public API
exactly as ``lcsbeam solve --input`` does: `load_plain`, `get_kernel`,
then `beam_search` or `hyper_heuristic`.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from lcsbeam import (
    BeamConfig,
    CapacityError,
    Family,
    HeuristicKind,
    HeuristicSpec,
    gen_correlated,
    gen_uncorrelated,
    get_kernel,
    load_plain,
    save_plain,
)
from lcsbeam import engine
from lcsbeam.datasets import SplitMix64

import tracing
from tracing import HEURISTICS, Tracer

BETA = 200  # beam width of every solve; the probe width stays the default
# Instances per untraced run.  hh's winner (so its time) and the solution
# length vary by instance; averaging four keeps a run's figures steady.
INSTANCES = 4
SETUP_REPEATS = 5  # set-ups per run: one in the run's process, the rest in fresh ones
# A solve that fails is charged this on top of its own time, so that a fix
# of a failing heuristic reads as a gain and never as a slowdown.
SOLVE_LIMIT_S = 60.0

RUN_PY = Path(__file__).with_name("run.py")


@dataclass(frozen=True)
class Workload:
    """One instance shape; `seed` is the default, `holdout_seed` is kept for
    confirming a later claim on an instance its change was not tuned on."""

    name: str
    family: Family
    sigma: int
    n: int
    length: int
    seed: int
    holdout_seed: int | None = None
    rate: float = 0.0
    dominance_filter: bool = False

    def generate(self, seed: int):
        if self.family is Family.CORRELATED:
            return gen_correlated(self.sigma, self.n, self.length, self.rate, seed)[0]
        return gen_uncorrelated(self.sigma, self.n, self.length, seed)[0]


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance criterion 8's instance: 200 cursor columns make _rank dominate
        Workload("wide", Family.UNCORRELATED, sigma=20, n=200, length=600,
                 seed=7, holdout_seed=107),
        # ~3000 levels of ~800 children: per-level expand overhead dominates, and
        # the 763 MiB kernel is refused at the default budget
        Workload("long", Family.UNCORRELATED, sigma=4, n=10, length=10_000,
                 seed=1, holdout_seed=101),
        # merging duplicates dominates the run and lifts the kanalytic length
        Workload("corr-dedupe", Family.CORRELATED, sigma=4, n=10, length=1000,
                 seed=1, holdout_seed=101, rate=0.1, dominance_filter=True),
    )
}
# the harness self-test instance, small enough for exact_lcs3
TINY = Workload("tiny", Family.UNCORRELATED, sigma=4, n=3, length=50, seed=1)

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"search_s.{h}": "s" for h in HEURISTICS},
    "length_mean": "symbols",
    "solved_ratio": "ratio",
    "peak_rss_mib": "MiB",
}


@dataclass
class Solve:
    heuristic: str
    seconds: float
    solution: str | None  # None when the solve raised
    levels: int = 0
    nodes_expanded: int = 0
    error: str | None = None  # exception class name
    correct: bool = True
    span: tracing.Span | None = None

    @property
    def ok(self) -> bool:
        return self.solution is not None and self.correct

    @property
    def length(self) -> int:
        return len(self.solution) if self.ok else 0

    def record(self) -> list:
        if self.solution is None:
            return [self.heuristic, "error", self.error]
        return [self.heuristic, self.solution, self.levels, self.nodes_expanded]


def input_path(root: Path, workload: Workload, seed: int) -> Path:
    return root / ".perfbench" / "inputs" / f"{workload.name}-seed{seed}.txt"


def prepare(root: Path, workload: Workload, seed: int) -> Path:
    """Generate the run's instance and save it; not timed."""
    path = input_path(root, workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_plain(workload.generate(seed), path)
    return path


def setup(path: Path, family: Family, tracer: Tracer | None = None):
    """Parse the input and build its kernel; returns (instance, kernel, seconds).

    A refused kernel is not an error here: the solves that need it hit the
    same refusal and count as failed.
    """
    call = tracer.call if tracer is not None else (lambda name, fn, *a: fn(*a))
    t0 = time.perf_counter()
    instance, _ = call("load_plain", load_plain, path, family)
    try:
        kernel = call("kernel", get_kernel, instance.sigma_size, instance.max_len)
    except CapacityError:
        kernel = None
    return instance, kernel, time.perf_counter() - t0


def setup_in_fresh_process(path: Path, family: Family) -> float:
    """One cold set-up in a new interpreter, so no cache of ours is warm."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--time-setup", str(path), "--family", family.value],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def solve(instance, workload: Workload, heuristic: str):
    """One solve through the public API, as `lcsbeam solve` runs it."""
    kanalytic = HeuristicSpec(
        kind=HeuristicKind.PROB_K_ANALYTIC_CORR
        if workload.family is Family.CORRELATED
        else HeuristicKind.PROB_K_ANALYTIC_UNCORR
    )
    gcov = HeuristicSpec(kind=HeuristicKind.GCOV)
    if heuristic == "hh":
        config = BeamConfig(heuristic=kanalytic, beta=BETA,
                            dominance_filter=workload.dominance_filter)
        return engine.hyper_heuristic(instance, config, kanalytic, gcov)
    spec = {"minlen": HeuristicSpec(kind=HeuristicKind.MINLEN),
            "kanalytic": kanalytic, "gcov": gcov}[heuristic]
    config = BeamConfig(heuristic=spec, beta=BETA, dominance_filter=workload.dominance_filter)
    return engine.beam_search(instance, config)


def is_subsequence(solution: str, string: str) -> bool:
    pos = 0
    for ch in solution:
        pos = string.find(ch, pos) + 1
        if pos == 0:
            return False
    return True


def solve_once(instance, workload: Workload, heuristic: str, tracer: Tracer | None = None) -> Solve:
    """Time one solve and check its solution with our own subsequence scan."""
    first_span = len(tracer.spans) if tracer is not None else 0
    report, error, crashed = None, None, False
    t0 = time.perf_counter()
    try:
        if tracer is None:
            report = solve(instance, workload, heuristic)
        else:
            tracer.label = heuristic
            report = tracer.call("solve", solve, instance, workload, heuristic)
    except CapacityError as exc:
        error = type(exc).__name__
    except Exception as exc:  # a crash of the solver is a wrong output, not a refusal
        traceback.print_exc()
        error, crashed = type(exc).__name__, True
    seconds = time.perf_counter() - t0
    if report is None:
        result = Solve(heuristic, seconds, None, error=error, correct=not crashed)
    else:
        sol = report.solution
        result = Solve(heuristic, seconds, sol, report.levels, report.nodes_expanded,
                       correct=len(sol) == report.length
                       and all(is_subsequence(sol, s) for s in instance.strings))
    if tracer is not None:
        result.span = tracer.spans[first_span]
    return result


def run_pass(instance, workload: Workload, tracer: Tracer | None = None) -> list[Solve]:
    return [solve_once(instance, workload, h, tracer) for h in HEURISTICS]


def fingerprint(solves: list[Solve]) -> str:
    """Digest of (heuristic, solution, levels, nodes_expanded) per solve."""
    blob = json.dumps([s.record() for s in solves], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    details: dict

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        }


def _tally(passes: list[tuple[int, list[Solve]]]) -> tuple[bool, int, int, dict]:
    """(correct, attempted, failed, failures by kind) over (instance, pass) pairs.

    Every pass must reproduce the fingerprint of the first pass on its instance.
    """
    first: dict[int, str] = {}
    correct = True
    kinds: dict[str, int] = {}
    for i, solves in passes:
        correct &= first.setdefault(i, fingerprint(solves)) == fingerprint(solves)
        for s in solves:
            correct &= s.correct
            if not s.ok:
                kind = s.error or "wrong solution"
                kinds[kind] = kinds.get(kind, 0) + 1
    attempted = sum(len(solves) for _, solves in passes)
    return correct, attempted, sum(kinds.values()), kinds


def instance_seeds(seed: int) -> list[int]:
    """The run's instances: `seed` itself, then seeds drawn from SplitMix64(seed)."""
    rng = SplitMix64(seed)
    return [seed] + [rng.next_u64() >> 32 for _ in range(INSTANCES - 1)]


def measure(root: Path, workload: Workload, seed: int, seconds: float) -> Result:
    """The untraced run: end-to-end metrics.

    Round r solves instance r mod INSTANCES with every heuristic; rounds go
    on until every instance had one and `seconds` are used up.  A
    heuristic's time is the mean over instances of its median there.
    """
    paths = [prepare(root, workload, s) for s in instance_seeds(seed)]
    instance, _, first_setup = setup(paths[0], workload.family)
    setups = [first_setup] + [
        setup_in_fresh_process(paths[0], workload.family) for _ in range(SETUP_REPEATS - 1)
    ]
    solve(instance, workload, "minlen")  # warm-up, not timed: the first solve runs slow
    passes: list[tuple[int, list[Solve]]] = []
    start = time.perf_counter()
    while len(passes) < len(paths) or time.perf_counter() - start < seconds:
        i = len(passes) % len(paths)
        if len(passes) > 0:
            instance = None  # free the last tables first, so peak RSS holds one set
            instance, _ = load_plain(paths[i], workload.family)  # not timed
        passes.append((i, run_pass(instance, workload)))
    correct, attempted, failed, kinds = _tally(passes)
    firsts = passes[: len(paths)]

    metrics = {"setup_s": statistics.median(setups)}
    for h in HEURISTICS:
        ok: dict[int, list[float]] = {}  # instance -> times of successful solves
        failed_s = []
        for i, solves in passes:
            for s in solves:
                if s.heuristic != h:
                    continue
                if s.ok:
                    ok.setdefault(i, []).append(s.seconds)
                else:
                    failed_s.append(s.seconds)
        metrics[f"search_s.{h}"] = (
            statistics.fmean(statistics.median(v) for v in ok.values()) if ok
            else SOLVE_LIMIT_S + statistics.median(failed_s)
        )
    metrics["length_mean"] = statistics.fmean(s.length for _, solves in firsts for s in solves)
    metrics["solved_ratio"] = (attempted - failed) / attempted
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details = {
        "instance_seeds": instance_seeds(seed),
        "fingerprints": [fingerprint(solves) for _, solves in firsts],
        "records": [[s.record() for s in solves] for _, solves in firsts],
        "passes": len(passes),
        "failed_ratio": failed / attempted,
        "failures": kinds,
        "setup_samples_s": setups,
        "solve_samples_s": [[i, s.heuristic, s.seconds] for i, solves in passes for s in solves],
    }
    return Result(correct, attempted, failed, metrics, END_TO_END_UNITS, details)


def measure_traced(root: Path, workload: Workload, seed: int, seconds: float) -> Result:
    """The traced run: per-layer metrics, medians over (plain, traced) pass pairs.

    Each pair runs one untraced pass and one traced pass.  The traced pass
    must reproduce the untraced fingerprint; its extra time is the tracing
    overhead, and the time its layer spans leave uncovered must stay
    within that overhead.
    """
    path = prepare(root, workload, seed)  # the run's first instance only
    tracer = Tracer()
    with tracer.installed():
        instance, kernel, _ = setup(path, workload.family, tracer)
    setup_layers = tracing.setup_metrics(tracer, instance, kernel)

    solve(instance, workload, "minlen")
    passes, samples, overheads, uncovered = [], [], [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        plain = run_pass(instance, workload)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(instance, workload, tracer)
        passes += [(0, plain), (0, traced)]
        overhead = sum(s.seconds for s in traced) - sum(s.seconds for s in plain)
        overheads.append(overhead)
        uncovered.append(sum(s.seconds - s.span.child for s in traced))
        sample = tracing.pass_metrics(tracer, traced)
        sample["trace.overhead_s"] = overhead
        samples.append(sample)
    correct, attempted, failed, kinds = _tally(passes)
    # 1 ms of slack per solve covers the timer reads around the root span
    slack = max(abs(o) for o in overheads) + 1e-3 * len(HEURISTICS)
    spans_add_up = max(uncovered) <= slack
    metrics = dict(setup_layers)
    metrics.update({k: statistics.median(s[k] for s in samples) for k in samples[0]})
    details = {
        "fingerprints": [fingerprint(passes[0][1])],
        "fingerprints_match": correct,
        "spans_add_up": spans_add_up,
        "uncovered_s": uncovered,
        "overhead_s": overheads,
        "pairs": len(samples),
        "failed_ratio": failed / attempted,
        "failures": kinds,
        "not_traced": tracer.missing,
        "spans": tracer.export(),
    }
    return Result(correct and spans_add_up, attempted, failed, metrics,
                  tracing.layer_units(), details)
