"""Benchmark analysis: statistics, constant-overhead extraction, and the
competitive analysis of spin-then-block waiting."""

from repro.analysis.competitive import (
    EmpiricalEvaluation,
    balance_threshold_ns,
    best_threshold,
    competitive_ratio,
    evaluate_threshold,
    offline_optimum_ns,
    strategy_cost_ns,
    worst_case_ratio,
)
from repro.analysis.decompose import Decomposition, decompose_message
from repro.analysis.fit import OffsetFit, constant_offset, offset_flatness, ratio_series
from repro.analysis.stats import (
    Summary,
    confidence_interval_95,
    speedup,
    summarize,
    trimmed_mean,
)

__all__ = [
    "EmpiricalEvaluation",
    "balance_threshold_ns",
    "best_threshold",
    "competitive_ratio",
    "evaluate_threshold",
    "offline_optimum_ns",
    "strategy_cost_ns",
    "worst_case_ratio",
    "Decomposition",
    "decompose_message",
    "OffsetFit",
    "constant_offset",
    "offset_flatness",
    "ratio_series",
    "Summary",
    "confidence_interval_95",
    "speedup",
    "summarize",
    "trimmed_mean",
]
