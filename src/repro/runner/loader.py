"""Worker-side system loading for the batch runner.

``repro batch --system a.json b.json ...`` used to read and parse every
system file serially in the parent before any analysis started.  A
:class:`SystemPathJob` instead ships only the *path* to the workers;
each worker reads and parses the file itself through a process-local
:class:`SystemLoader`, so parse I/O overlaps analysis across the pool
and the parent never touches the files at all.

The loader memoizes parsed systems per process, keyed by path plus the
SHA-256 of the file bytes, recomputed from the bytes on every load —
so a loader can never serve a stale system, with no mtime-granularity
blind spot.  A rewritten-but-identical file (``touch``, an atomic
re-deploy of the same corpus) revalidates by digest and skips the
reparse; only genuinely changed bytes pay for parsing, the dominant
cost being memoized.

One path job fans out into one :class:`~repro.runner.jobs.JobResult`
per analyzed chain (explicitly listed, or every typical chain with a
finite deadline), in deterministic file-then-chain order — the flat
result list of a path batch is byte-identical to loading the systems in
the parent and running regular jobs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..model import System
from ..model.serialization import system_from_json
from .cache import AnalysisCache
from .jobs import DEFAULT_KS, JobResult, default_chain_names, run_chain_job


@dataclass(frozen=True)
class SystemPathJob:
    """One system *file* to analyze: the worker-loaded counterpart of
    :class:`~repro.runner.jobs.AnalysisJob`.

    ``chains=None`` selects every typical chain with a finite deadline
    of the loaded system; ``label`` defaults to the path.
    """

    path: str
    chains: Optional[Tuple[str, ...]] = None
    ks: Tuple[int, ...] = DEFAULT_KS
    max_combinations: int = 100_000
    exact_criterion: bool = True
    enumeration: str = "pruned"
    label: str = ""

    @property
    def chain_name(self) -> str:
        """Display form of the chain selection (for error messages)."""
        return ", ".join(self.chains) if self.chains else "*"


@dataclass
class _LoadedSystem:
    """One memoized parse: the byte digest the entry was validated
    against, plus the parsed system."""

    file_digest: str
    system: System


class SystemLoader:
    """Process-local cache of parsed system files.

    Loading rereads and redigests the bytes every time (cheap, and
    immune to same-size rewrites inside one mtime tick) and reuses the
    memoized parse whenever the digest is unchanged.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _LoadedSystem] = {}
        self.parses = 0
        self.reuses = 0

    def load(self, path: str) -> System:
        """The parsed system for ``path`` (memoized per process)."""
        with open(path, "rb") as handle:
            raw = handle.read()
        digest = hashlib.sha256(raw).hexdigest()
        entry = self._entries.get(path)
        if entry is not None and entry.file_digest == digest:
            self.reuses += 1
            return entry.system
        system = system_from_json(raw.decode("utf-8"))
        self._entries[path] = _LoadedSystem(digest, system)
        self.parses += 1
        return system


def execute_path_job(
    job: SystemPathJob,
    cache: Optional[AnalysisCache] = None,
    loader: Optional[SystemLoader] = None,
) -> List[JobResult]:
    """Load ``job.path`` (through ``loader`` when given) and run one
    chain job per selected chain, in deterministic chain order.

    File-level failures — missing path, unreadable bytes, invalid
    system JSON — raise, like any other malformed batch input; analysis
    failures are per-chain ``status="error"`` results as usual.
    """
    loader = loader if loader is not None else SystemLoader()
    system = loader.load(job.path)
    names = job.chains if job.chains is not None else default_chain_names(system)
    label = job.label or job.path
    return [
        run_chain_job(
            system,
            name,
            ks=job.ks,
            max_combinations=job.max_combinations,
            exact_criterion=job.exact_criterion,
            enumeration=job.enumeration,
            label=label,
            cache=cache,
        )
        for name in names
    ]
