"""Analyses: latency (Sec. IV) and TWCA for task chains (Sec. V)."""

from .busy_window import (
    BusyTimeBreakdown,
    busy_time,
    busy_times,
    criterion_load,
    criterion_loads,
    typical_busy_time,
)
from .combinations import (
    Combination,
    CombinationSearchResult,
    iter_combinations,
    overload_active_segments,
    search_combinations,
)
from .dmm import DeadlineMissModel, dominates
from .exceptions import AnalysisError, BusyWindowDivergence, NotAnalyzable
from .interference import (
    deferred_chains,
    interfering_chains,
    is_arbitrarily_interfering,
    is_deferred,
)
from .latency import LatencyResult, analyze_latency
from .paths import Path, PathResult, PathStage, analyze_path, path_dmm
from .segments import (
    ActiveSegment,
    Segment,
    active_segments,
    critical_segment,
    header_segment,
    segments,
)
from .stages import StageLatencyResult, analyze_stage_latencies
from .twca import ChainTwcaResult, GuaranteeStatus, analyze_all, analyze_twca

__all__ = [
    "AnalysisError",
    "BusyWindowDivergence",
    "NotAnalyzable",
    "is_deferred",
    "is_arbitrarily_interfering",
    "deferred_chains",
    "interfering_chains",
    "Segment",
    "ActiveSegment",
    "segments",
    "critical_segment",
    "header_segment",
    "active_segments",
    "BusyTimeBreakdown",
    "busy_time",
    "busy_times",
    "typical_busy_time",
    "criterion_load",
    "criterion_loads",
    "LatencyResult",
    "analyze_latency",
    "Combination",
    "CombinationSearchResult",
    "overload_active_segments",
    "iter_combinations",
    "search_combinations",
    "GuaranteeStatus",
    "ChainTwcaResult",
    "analyze_twca",
    "analyze_all",
    "DeadlineMissModel",
    "dominates",
    "Path",
    "PathStage",
    "PathResult",
    "analyze_path",
    "path_dmm",
    "StageLatencyResult",
    "analyze_stage_latencies",
]
