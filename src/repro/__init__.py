"""repro: TWCA for task chains (DATE 2017 reproduction).

Bounding deadline misses in weakly-hard real-time systems with task
dependencies: end-to-end latency analysis and deadline miss models for
uniprocessor SPP systems of synchronous/asynchronous task chains.

Quickstart::

    from repro import (SystemBuilder, PeriodicModel, SporadicModel,
                       analyze_latency, analyze_twca)

    system = (SystemBuilder("demo")
              .chain("app", PeriodicModel(100), deadline=100)
              .task("sense", priority=3, wcet=10)
              .task("act", priority=1, wcet=20)
              .chain("isr", SporadicModel(500), overload=True)
              .task("irq", priority=4, wcet=30)
              .build())
    result = analyze_twca(system, system["app"])
    print(result.status, result.dmm(10))
"""

from .analysis import (ActiveSegment, AnalysisError, BusyWindowDivergence,
                       ChainTwcaResult, Combination, DeadlineMissModel,
                       GuaranteeStatus, LatencyResult, NotAnalyzable,
                       Segment, active_segments, analyze_all,
                       analyze_latency, analyze_twca, busy_time,
                       critical_segment, header_segment, is_deferred,
                       segments)
from .arrivals import (ArrivalCurve, EventModel, PeriodicModel,
                       SporadicBurstModel, SporadicModel, StaircaseKernel)
from .kernel import kernel_name
from .model import ChainKind, System, SystemBuilder, Task, TaskChain
from .model.serialization import load_system_file
from .runner import (AnalysisCache, AnalysisJob, BatchExecutionError,
                     BatchResult, BatchRunner, JobResult)
from .service import (AnalysisOptions, AnalysisRequest, AnalysisResponse,
                      AnalysisService, RequestError, ServiceClient,
                      ServiceError, UnknownSystemError)
from . import api

__version__ = "1.3.0"

__all__ = [
    "__version__",
    # the stable public API module
    "api",
    # model
    "Task", "TaskChain", "ChainKind", "System", "SystemBuilder",
    "load_system_file",
    # arrivals
    "EventModel", "PeriodicModel", "SporadicModel", "SporadicBurstModel",
    "ArrivalCurve", "StaircaseKernel",
    # numeric paths
    "kernel_name",
    # analysis
    "AnalysisError", "BusyWindowDivergence", "NotAnalyzable",
    "Segment", "ActiveSegment", "segments", "active_segments",
    "critical_segment", "header_segment", "is_deferred", "busy_time",
    "LatencyResult", "analyze_latency", "Combination",
    "GuaranteeStatus", "ChainTwcaResult", "analyze_twca", "analyze_all",
    "DeadlineMissModel",
    # runner
    "AnalysisCache", "AnalysisJob", "JobResult", "BatchRunner",
    "BatchResult", "BatchExecutionError",
    # service
    "AnalysisOptions", "AnalysisRequest", "AnalysisResponse",
    "AnalysisService", "RequestError", "ServiceClient", "ServiceError",
    "UnknownSystemError",
]
