"""The stable public API surface of :mod:`repro`.

Library users should import from here (or from :mod:`repro` itself,
which re-exports the same names) rather than from deep submodules —
submodule paths are implementation detail and may move between
releases; this module will not.

Quickstart::

    from repro.api import AnalysisRequest, AnalysisService, load_system_file

    service = AnalysisService()
    system = load_system_file("system.json")
    response = service.analyze(
        AnalysisRequest.from_system(system, chain="sigma_c", ks=(1, 10, 100))
    )
    print(response.to_json())
"""

from .analysis import (
    AnalysisError,
    ChainTwcaResult,
    DeadlineMissModel,
    GuaranteeStatus,
    LatencyResult,
    analyze_latency,
    analyze_twca,
)
from .model import System, SystemBuilder
from .model.serialization import (
    load_system_file,
    system_from_json,
    system_to_json,
)
from .runner import AnalysisCache, BatchResult, BatchRunner, JobResult
from .service import (
    AnalysisOptions,
    AnalysisRequest,
    AnalysisResponse,
    AnalysisService,
    RequestError,
    ServiceClient,
    ServiceError,
    serve_forever,
    start_server,
)

__all__ = [
    # model
    "System",
    "SystemBuilder",
    "load_system_file",
    "system_from_json",
    "system_to_json",
    # analysis
    "AnalysisError",
    "ChainTwcaResult",
    "DeadlineMissModel",
    "GuaranteeStatus",
    "LatencyResult",
    "analyze_latency",
    "analyze_twca",
    # batch runner
    "AnalysisCache",
    "BatchResult",
    "BatchRunner",
    "JobResult",
    # service
    "AnalysisOptions",
    "AnalysisRequest",
    "AnalysisResponse",
    "AnalysisService",
    "RequestError",
    "ServiceClient",
    "ServiceError",
    "serve_forever",
    "start_server",
]
