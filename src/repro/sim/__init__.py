"""Discrete-event SPP simulation of task chains (validation substrate)."""

from .activations import periodic_stream, random_stream, single_burst, worst_case_stream
from .engine import ExecutionSlice, InstanceRecord, SimulationResult, Simulator
from .export import (
    instance_records,
    instances_csv,
    schedule_csv,
    schedule_records,
    trace_json,
    write_trace,
)
from .gantt import render_gantt
from .stats import (
    LatencyStats,
    OvershootReport,
    latency_stats,
    max_settling_time,
    miss_streaks,
    overshoot_report,
    percentile,
)
from .metrics import (
    ValidationReport,
    busy_window_activation_counts,
    phase_swept_empirical_dmm,
    randomized_activations,
    simulate_worst_case,
    validate_against_analysis,
    worst_case_activations,
)

__all__ = [
    "Simulator",
    "SimulationResult",
    "InstanceRecord",
    "ExecutionSlice",
    "periodic_stream",
    "worst_case_stream",
    "random_stream",
    "single_burst",
    "render_gantt",
    "ValidationReport",
    "worst_case_activations",
    "randomized_activations",
    "simulate_worst_case",
    "validate_against_analysis",
    "busy_window_activation_counts",
    "phase_swept_empirical_dmm",
    "LatencyStats",
    "latency_stats",
    "percentile",
    "OvershootReport",
    "overshoot_report",
    "max_settling_time",
    "miss_streaks",
    "schedule_records",
    "instance_records",
    "schedule_csv",
    "instances_csv",
    "trace_json",
    "write_trace",
]
