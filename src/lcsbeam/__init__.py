"""Beam-search solver and benchmark harness for multiple-string LCS."""

from .datasets import (
    DatasetDescriptor,
    DatasetError,
    Family,
    ParseError,
    gen_correlated,
    gen_uncorrelated,
    load_fasta,
    load_plain,
    save_plain,
)
from .engine import BeamConfig, RunReport, beam_search, hyper_heuristic, verify_solution
from .heuristics import HeuristicKind, HeuristicSpec, Score, select_k
from .instance import Instance, NodeState, build_instance, reconstruct_solution
from .oracle import exact_lcs2, exact_lcs3, exhaustive_lcs
from .probability import (
    AlphabetParams,
    CapacityError,
    DomainError,
    ProbKernel,
    build_log_table,
    build_table,
    cross_validate,
    exact_table,
    get_kernel,
    log_q_value,
    prob_beta_sum,
    prob_closed,
    prob_closed_exact,
    prob_closed_product,
    q_value,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetParams",
    "BeamConfig",
    "CapacityError",
    "DatasetDescriptor",
    "DatasetError",
    "DomainError",
    "Family",
    "HeuristicKind",
    "HeuristicSpec",
    "Instance",
    "NodeState",
    "ParseError",
    "ProbKernel",
    "RunReport",
    "Score",
    "beam_search",
    "build_instance",
    "build_log_table",
    "build_table",
    "cross_validate",
    "exact_lcs2",
    "exact_lcs3",
    "exact_table",
    "exhaustive_lcs",
    "gen_correlated",
    "gen_uncorrelated",
    "get_kernel",
    "hyper_heuristic",
    "load_fasta",
    "load_plain",
    "log_q_value",
    "prob_beta_sum",
    "prob_closed",
    "prob_closed_exact",
    "prob_closed_product",
    "q_value",
    "reconstruct_solution",
    "save_plain",
    "select_k",
    "verify_solution",
]
