"""Seeded benchmark corpora: reproducible system populations at scale.

A :class:`CorpusSpec` pins everything that determines the population —
family (UUniFast chain systems or WATERS-profile automotive systems),
count, seed, utilization range, shape knobs — and
:func:`generate_corpus` streams the systems to disk with constant
memory: each system is generated, canonically serialized, written under
``<root>/systems/<group>/sys-<index>.json`` (grouped directories of
:data:`GROUP_SIZE` files, so ~10^6 systems stay navigable), and
recorded as one line of a JSONL manifest whose running SHA-256 becomes
the corpus identity.

Determinism is the contract: entry ``index`` is drawn from its own
``random.Random(f"{seed}:{index}")`` stream, so the same spec produces
byte-identical system files — and therefore the same
``manifest_digest`` — regardless of generation order, process count
or interruption/regeneration (the generators are pure Python).

:class:`CorpusManifest` reopens a generated corpus: iterate entries,
materialize systems, or :meth:`~CorpusManifest.verify` the whole tree
against the recorded digests.  ``repro corpus generate``/``verify`` are
the CLI fronts; ``repro batch --corpus`` feeds a corpus to the batch
runner or the shard coordinator.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..model import System
from ..model.serialization import canonical_system_json, system_from_json
from .automotive import AutomotiveConfig, generate_feasible_automotive
from .generator import GeneratorConfig, generate_feasible_system

#: System files per group directory.
GROUP_SIZE = 1000

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_FORMAT = 1

FAMILIES = ("uunifast", "waters")


class CorpusError(RuntimeError):
    """A corpus is malformed, inconsistent, or failed verification."""


@dataclass(frozen=True)
class CorpusSpec:
    """Everything that determines a corpus population.

    ``utilization`` is an inclusive range; each system draws its own
    target utilization uniformly from it (the UUniFast split then
    distributes that target over the chains).  ``chains`` and
    ``tasks_per_chain`` shape every system; family-specific knobs keep
    their generator defaults.
    """

    count: int
    seed: int = 0
    family: str = "uunifast"
    utilization: Tuple[float, float] = (0.5, 0.7)
    chains: int = 3
    tasks_per_chain: Tuple[int, int] = (2, 5)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown corpus family {self.family!r}; choose from {FAMILIES}"
            )
        low, high = self.utilization
        if not (0.0 < low <= high):
            raise ValueError(f"bad utilization range {self.utilization!r}")
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        lo, hi = self.tasks_per_chain
        if not (1 <= lo <= hi):
            raise ValueError(f"bad tasks_per_chain range {self.tasks_per_chain!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "seed": self.seed,
            "family": self.family,
            "utilization": list(self.utilization),
            "chains": self.chains,
            "tasks_per_chain": list(self.tasks_per_chain),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorpusSpec":
        known = {
            "count",
            "seed",
            "family",
            "utilization",
            "chains",
            "tasks_per_chain",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CorpusSpec fields: {sorted(unknown)}")
        if "count" not in data:
            raise ValueError("CorpusSpec requires 'count'")
        return cls(
            count=int(data["count"]),
            seed=int(data.get("seed", 0)),
            family=data.get("family", "uunifast"),
            utilization=tuple(data.get("utilization", (0.5, 0.7))),
            chains=int(data.get("chains", 3)),
            tasks_per_chain=tuple(data.get("tasks_per_chain", (2, 5))),
        )


def entry_id(index: int) -> str:
    """The stable id (and system name) of corpus entry ``index``."""
    return f"sys-{index:08d}"


def entry_relpath(index: int) -> str:
    """Path of entry ``index`` relative to the corpus root."""
    group = index // GROUP_SIZE
    return os.path.join("systems", f"{group:05d}", f"{entry_id(index)}.json")


def generate_entry(spec: CorpusSpec, index: int) -> System:
    """Generate corpus entry ``index`` — a pure function of
    ``(spec, index)``.

    The per-entry RNG is seeded with ``f"{seed}:{index}"`` (string
    seeding hashes through SHA-512, stable across processes and Python
    versions), so entries are independent: any subset can be generated
    in any order, on any host, with identical bytes.
    """
    rng = random.Random(f"{spec.seed}:{index}")
    target = rng.uniform(*spec.utilization)
    if spec.family == "uunifast":
        config = GeneratorConfig(
            chains=spec.chains,
            tasks_per_chain=spec.tasks_per_chain,
            utilization=target,
        )
        system = generate_feasible_system(rng, config)
    else:
        auto = AutomotiveConfig(
            chains=spec.chains,
            tasks_per_chain=spec.tasks_per_chain,
            utilization=target,
        )
        system = generate_feasible_automotive(rng, auto)
    system.name = entry_id(index)
    return system


@dataclass
class CorpusManifest:
    """A generated corpus on disk: spec, entry count, identity digest.

    ``manifest_digest`` is the SHA-256 over the raw bytes of every
    ``manifest.jsonl`` line in order — the single value two hosts
    compare to agree they generated the same corpus.
    """

    root: str
    spec: CorpusSpec
    count: int
    manifest_digest: str
    format: int = MANIFEST_FORMAT
    _entries: Optional[List[Dict[str, Any]]] = field(default=None, repr=False)

    @property
    def header_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    @property
    def lines_path(self) -> str:
        return os.path.join(self.root, "manifest.jsonl")

    @classmethod
    def load(cls, root: str) -> "CorpusManifest":
        header_path = os.path.join(str(root), "manifest.json")
        try:
            with open(header_path, "r", encoding="utf-8") as handle:
                header = json.load(handle)
        except FileNotFoundError:
            raise CorpusError(f"no corpus manifest at {header_path}") from None
        except json.JSONDecodeError as exc:
            raise CorpusError(f"corrupt corpus header {header_path}: {exc}") from exc
        if header.get("format") != MANIFEST_FORMAT:
            raise CorpusError(
                f"unsupported corpus format {header.get('format')!r} "
                f"(expected {MANIFEST_FORMAT})"
            )
        return cls(
            root=str(root),
            spec=CorpusSpec.from_dict(header["spec"]),
            count=int(header["count"]),
            manifest_digest=header["manifest_digest"],
            format=int(header["format"]),
        )

    def entries(self) -> Iterator[Dict[str, Any]]:
        """The manifest lines, in index order (streamed from disk)."""
        with open(self.lines_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)

    def paths(self, limit: Optional[int] = None) -> List[str]:
        """Absolute system-file paths of the first ``limit`` entries."""
        selected = []
        for entry in self.entries():
            if limit is not None and len(selected) >= limit:
                break
            selected.append(os.path.join(self.root, entry["path"]))
        return selected

    def systems(self, limit: Optional[int] = None) -> Iterator[System]:
        """Materialize entries as systems, in index order (streamed)."""
        for path in self.paths(limit):
            with open(path, "r", encoding="utf-8") as handle:
                yield system_from_json(handle.read())

    def verify(self, *, limit: Optional[int] = None) -> int:
        """Re-check the corpus against its recorded identity.

        Recomputes the manifest digest from the JSONL bytes and the
        SHA-256 of every referenced system file (the first ``limit``
        files when given — a sampled check for huge corpora).  Returns
        the number of files checked; raises :class:`CorpusError` on the
        first mismatch.
        """
        digest = hashlib.sha256()
        entries = 0
        with open(self.lines_path, "rb") as handle:
            for line in handle:
                digest.update(line)
                if line.strip():
                    entries += 1
        if entries != self.count:
            raise CorpusError(
                f"manifest lists {entries} entries, header says {self.count}"
            )
        if digest.hexdigest() != self.manifest_digest:
            raise CorpusError(
                f"manifest digest mismatch: recorded "
                f"{self.manifest_digest[:16]}..., recomputed "
                f"{digest.hexdigest()[:16]}..."
            )
        checked = 0
        for entry in self.entries():
            if limit is not None and checked >= limit:
                break
            path = os.path.join(self.root, entry["path"])
            try:
                with open(path, "rb") as handle:
                    actual = hashlib.sha256(handle.read()).hexdigest()
            except FileNotFoundError:
                raise CorpusError(f"missing system file {path}") from None
            if actual != entry["digest"]:
                raise CorpusError(
                    f"system file {path} digest mismatch "
                    f"(entry {entry['id']})"
                )
            checked += 1
        return checked


def generate_corpus(
    spec: CorpusSpec,
    root: str,
    *,
    progress: Optional[Any] = None,
    progress_every: int = 10_000,
) -> CorpusManifest:
    """Generate the corpus under ``root`` (created; must not already
    hold a manifest) and return its manifest.

    Streaming: one system in memory at a time, manifest lines appended
    as they are produced, the identity digest accumulated over the
    written bytes — generating 10^6 systems costs disk, not RAM.
    ``progress`` is an optional
    :class:`~repro.runner.progress.TaggedLog`-like object (``.line``)
    receiving a note every ``progress_every`` entries.
    """
    root = str(root)
    os.makedirs(root, exist_ok=True)
    header_path = os.path.join(root, "manifest.json")
    lines_path = os.path.join(root, "manifest.jsonl")
    if os.path.exists(header_path):
        raise CorpusError(f"corpus already exists at {root}")
    digest = hashlib.sha256()
    with open(lines_path, "w", encoding="utf-8", newline="\n") as manifest:
        for index in range(spec.count):
            system = generate_entry(spec, index)
            payload = canonical_system_json(system)
            relpath = entry_relpath(index)
            path = os.path.join(root, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            data = payload.encode("utf-8")
            with open(path, "wb") as handle:
                handle.write(data)
            entry = {
                "index": index,
                "id": entry_id(index),
                "path": relpath,
                "digest": hashlib.sha256(data).hexdigest(),
            }
            line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            manifest.write(line)
            digest.update(line.encode("utf-8"))
            if progress is not None and (index + 1) % progress_every == 0:
                progress.line(f"generated {index + 1}/{spec.count} systems")
    header = {
        "format": MANIFEST_FORMAT,
        "spec": spec.to_dict(),
        "count": spec.count,
        "manifest_digest": digest.hexdigest(),
    }
    with open(header_path, "w", encoding="utf-8") as handle:
        json.dump(header, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return CorpusManifest(
        root=root,
        spec=spec,
        count=spec.count,
        manifest_digest=digest.hexdigest(),
    )
