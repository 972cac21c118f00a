"""Distributed extension: chains spanning multiple SPP resources.

Implements the paper's stated next step (Sec. VII) in the standard CPA
style: per-resource application of the uniprocessor analyses, output
event-model propagation between legs, a global convergence loop, and
end-to-end latency / deadline-miss composition.
"""

from .analysis import (
    ChainEndToEndResult,
    DistributedAnalysisResult,
    LegResult,
    analyze_distributed,
    distributed_dmm,
)
from .model import DistributedChain, DistributedSystem, MappedTask, on
from .propagation import PropagatedModel, jitter_of, propagate
from .sim import DistributedSimulator, worst_case_distributed_activations

__all__ = [
    "MappedTask",
    "on",
    "DistributedChain",
    "DistributedSystem",
    "PropagatedModel",
    "propagate",
    "jitter_of",
    "LegResult",
    "ChainEndToEndResult",
    "DistributedAnalysisResult",
    "analyze_distributed",
    "distributed_dmm",
    "DistributedSimulator",
    "worst_case_distributed_activations",
]
