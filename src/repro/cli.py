"""Command-line interface.

Subcommands::

    repro analyze [--system FILE.json] [--chain NAME] [--k K ...]
        TWCA of one or all chains (default: the Fig. 4 case study).
    repro simulate [--system FILE.json] [--horizon T]
        Critical-instant simulation with an ASCII schedule.
    repro experiment {table1,table2,figure5} [--samples N] [--seed S]
        Regenerate a paper artifact on stdout.
    repro batch [--system FILE ...|--random N] [--workers W] [--json]
        Parallel TWCA over many (system, chain) jobs via the batch
        runner; the --json export is identical for any worker count.
    repro serve [--host H] [--port P] [--workers N]
        Long-lived analysis daemon (HTTP/JSON): keeps systems and
        caches hot across requests and runs up to N computes
        concurrently; see POST /analyze, POST /batch, POST /shard/run,
        GET /cache/stats, GET /healthz.
    repro shard-worker [--host H] [--port P] [--workers N]
        A shard-worker endpoint for `repro shard --worker URL`: the
        same daemon under its deployment name (the chunk route is
        POST /shard/run).
    repro shard [--corpus DIR|--system FILE ...|--random N] [--shards S]
        Sharded TWCA: partition the jobs over S local worker processes
        and/or remote --worker URLs with work-stealing and bounded
        retries; the merged --json export is byte-identical to
        --serial (and to `repro batch --json`).
    repro corpus {generate,verify}
        Seeded benchmark corpora: generate a reproducible population
        of systems (same seed, same manifest digest — on any host)
        or re-verify one against its manifest.
    repro cache DIR [--prune-older-than AGE]
        Report (and optionally prune by age) a persistent result
        cache directory.

    The shared analysis options are wired through
    :func:`add_analysis_options` into one
    :class:`~repro.service.AnalysisOptions`; each subcommand accepts
    only the ones it reads (see :data:`ANALYSIS_FLAGS`).  ``batch`` is
    a client of the same :class:`~repro.service.AnalysisService` facade
    the daemon runs — in-process by default, against a daemon with
    ``--server URL`` (as ``analyze --server URL`` is) — and its JSON
    export is byte-identical either way.

The module is intentionally thin: all logic lives in the library; the
CLI parses arguments, loads/creates systems and prints reports.
"""

from __future__ import annotations

import argparse
import random
import sys
import urllib.error
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import analyze_latency, analyze_twca
from .model.serialization import load_system_file
from .report.histogram import figure5_panel
from .report.tables import (
    dmm_table,
    format_packing_stats,
    format_table,
    twca_summary,
    wcl_table,
)
from .runner import (
    BatchResult,
    JobResult,
    RetryPolicy,
    ShardExecutionError,
    ShardLog,
    run_sharded,
)
from .runner.jobs import DEFAULT_KS
from .service import (
    AnalysisOptions,
    AnalysisRequest,
    AnalysisService,
    ServiceClient,
    ServiceError,
    serve_forever,
)
from .sim import render_gantt, simulate_worst_case
from .synth import figure4_system, labeled_random_systems, random_systems
from .synth.corpus import CorpusError, CorpusManifest, CorpusSpec, generate_corpus


#: The shared analysis flags, with their ``add_argument`` settings.
_ANALYSIS_FLAG_SPECS: Dict[str, Dict[str, Any]] = {
    "--exhaustive": dict(
        action="store_true",
        help="materialize and test every overload combination instead "
        "of the lazy dominance-pruned frontier search (reference "
        "path; exports are identical, only slower)",
    ),
    "--cache-dir": dict(
        metavar="DIR",
        help="persistent result cache shared by all workers and later "
        "runs (created on demand); warm runs analyze nothing",
    ),
    "--no-cache": dict(
        action="store_true",
        help="disable the result cache (escape hatch; results are "
        "identical, only slower); on analyze, for the --server request",
    ),
}

#: The shared analysis flags each subcommand reads (and so accepts).
ANALYSIS_FLAGS: Dict[str, Tuple[str, ...]] = {
    "analyze": ("--exhaustive", "--no-cache"),
    "experiment": ("--exhaustive",),
    "batch": ("--exhaustive", "--cache-dir", "--no-cache"),
    "shard": ("--exhaustive", "--cache-dir", "--no-cache"),
    "serve": ("--cache-dir", "--no-cache"),
    "shard-worker": ("--cache-dir", "--no-cache"),
}


def add_analysis_options(parser: argparse.ArgumentParser, command: str) -> None:
    """The shared analysis flags ``command`` reads, as one group."""
    group = parser.add_argument_group("analysis options")
    for flag in ANALYSIS_FLAGS[command]:
        group.add_argument(flag, **_ANALYSIS_FLAG_SPECS[flag])


def analysis_options(args: argparse.Namespace) -> AnalysisOptions:
    """The :class:`AnalysisOptions` carried by the shared flags (a
    flag the subcommand does not take keeps its default)."""
    return AnalysisOptions(
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
        exhaustive=getattr(args, "exhaustive", False),
    )


def at_least(minimum: int, what: str = "must be an integer") -> Callable[[str], int]:
    """The argparse type of an integer option with a floor: rejects
    text that is not an integer >= ``minimum`` with ``"{what} >=
    {minimum}, got {text!r}"``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} >= {minimum}, got {text!r}")
        return value

    return parse


#: The type of every ``--k`` option: a DMM window size.
window_size = at_least(1, "window sizes must be integers")


def _retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The retry policy carried by the shared ``--retries`` /
    ``--retry-delay`` flags (transport failures and 5xx only; see
    :class:`~repro.service.ServiceClient`)."""
    return RetryPolicy(attempts=args.retries, base_delay=args.retry_delay)


def _service_client(args: argparse.Namespace) -> ServiceClient:
    """A :class:`ServiceClient` for ``--server`` mode, honoring the
    shared ``--timeout``/``--retries``/``--retry-delay`` flags."""
    return ServiceClient(args.server, timeout=args.timeout, retry=_retry_policy(args))


def _load_system(path: Optional[str], calibrated: bool):
    if path is None:
        return figure4_system(calibrated=calibrated)
    return load_system_file(path)


def _jobs_summary(jobs: List[JobResult]) -> str:
    """One-screen table of job results (the server-mode ``analyze``
    report; mirrors the rows of :meth:`BatchResult.summary`)."""
    rows = []
    for job in jobs:
        dmm = ", ".join(f"dmm({k})={v}" for k, v in sorted(job.dmm.items()))
        wcl = "-" if job.wcl is None else f"{job.wcl:g}"
        rows.append((job.label, job.chain_name, job.status, wcl, dmm or "-"))
    return format_table(("job", "chain", "status", "WCL", "DMM"), rows)


def _cmd_analyze(args: argparse.Namespace) -> int:
    options = analysis_options(args)
    system = _load_system(args.system, args.calibrated)
    if args.server:
        request = AnalysisRequest.from_system(
            system,
            chain=args.chain,
            ks=tuple(args.k) if args.k else DEFAULT_KS,
            enumeration=options.enumeration,
            use_cache=options.use_cache,
        )
        payload = _service_client(args).analyze(request)
        jobs = [JobResult.from_dict(job) for job in payload["jobs"]]
        print(_jobs_summary(jobs))
        return 0
    names = (
        [args.chain]
        if args.chain
        else [c.name for c in system.typical_chains if c.has_deadline]
    )
    for name in names:
        result = analyze_twca(system, system[name], enumeration=options.enumeration)
        print(twca_summary(result))
        if args.k:
            print(dmm_table(result, args.k))
            stats = result.packing_stats()
            if stats:
                print(f"packing: {format_packing_stats(stats)}", file=sys.stderr)
        print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = _load_system(args.system, args.calibrated)
    try:
        result = simulate_worst_case(system, args.horizon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for chain in system.chains:
        finished = result.latencies(chain.name)
        if not finished:
            continue
        print(
            f"{chain.name}: {len(finished)} instances, "
            f"max latency {max(finished):g}, "
            f"misses {result.miss_count(chain.name)}"
        )
    print()
    print(
        render_gantt(
            result, until=min(args.horizon, args.gantt_until), width=args.width
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    enumeration = analysis_options(args).enumeration
    if args.which == "table1":
        system = figure4_system(calibrated=args.calibrated)
        results = {
            name: analyze_latency(system, system[name])
            for name in ("sigma_c", "sigma_d")
        }
        deadlines = {name: system[name].deadline for name in results}
        print("Table I: worst-case latencies of the case study")
        print(wcl_table(results, deadlines))
    elif args.which == "table2":
        for calibrated in (False, True):
            system = figure4_system(calibrated=calibrated)
            result = analyze_twca(system, system["sigma_c"], enumeration=enumeration)
            mode = "calibrated" if calibrated else "printed parameters"
            print(f"Table II ({mode}):")
            print(dmm_table(result, args.k or [3, 76, 250]))
            print()
    elif args.which == "figure5":
        rng = random.Random(args.seed)
        base = figure4_system(calibrated=args.calibrated)
        values = {"sigma_c": [], "sigma_d": []}
        for system in random_systems(base, args.samples, rng):
            for name in values:
                result = analyze_twca(system, system[name], enumeration=enumeration)
                values[name].append(0 if result.is_schedulable else result.dmm(10))
        for name in ("sigma_c", "sigma_d"):
            print(figure5_panel(values[name], name))
            print()
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.which)
    return 0


def _batch_stderr_report(batch, timings: bool) -> None:
    """Observability lines on stderr (stdout stays byte-reproducible).

    Per-job timing lines are emitted by the parent, in submission
    order, tagged with the job id — never interleaved from workers, so
    every line is attributable to its job for any worker count."""
    if timings:
        for index, job in enumerate(batch.jobs):
            print(
                f"[job {index:04d}] {job.label}/{job.chain_name}: "
                f"{job.elapsed:.3f}s",
                file=sys.stderr,
            )
    merged = ", ".join(
        f"{category} {stats.get('hits', 0)}h/{stats.get('misses', 0)}m"
        f"/{stats.get('disk_hits', 0)}d"
        for category, stats in sorted(batch.cache_stats.items())
    )
    print(
        f"{len(batch)} jobs in {batch.wall_time:.2f}s with "
        f"{batch.workers} worker(s), "
        f"cache hit rate {batch.cache_hit_rate:.0%}"
        + (f" [{merged}]" if merged else ""),
        file=sys.stderr,
    )
    packing: dict = {}
    for job in batch.jobs:
        for key, value in job.packing.items():
            packing[key] = packing.get(key, 0) + value
    if packing:
        print(f"packing: {format_packing_stats(packing)}", file=sys.stderr)


def _batch_requests(
    args: argparse.Namespace, options: AnalysisOptions
) -> List[AnalysisRequest]:
    """The service requests equivalent to one local batch invocation —
    same systems, labels and (file-then-chain) expansion order, so the
    daemon's export is byte-identical to the local one."""
    common: Dict[str, Any] = dict(
        ks=tuple(args.k) if args.k else DEFAULT_KS,
        enumeration=options.enumeration,
        use_cache=options.use_cache,
    )
    chains = args.chain or [None]
    requests = []
    if args.system:
        for path in args.system:
            system = load_system_file(path)
            requests.extend(
                AnalysisRequest.from_system(
                    system, chain=chain, label=str(path), **common
                )
                for chain in chains
            )
    else:
        base = figure4_system(calibrated=args.calibrated)
        for label, system in labeled_random_systems(base, args.random, args.seed):
            requests.extend(
                AnalysisRequest.from_system(system, chain=chain, label=label, **common)
                for chain in chains
            )
    return requests


def _cmd_batch(args: argparse.Namespace) -> int:
    options = analysis_options(args)
    if args.server:
        if args.timings:
            print(
                "error: --timings is local observability; it is not "
                "available with --server",
                file=sys.stderr,
            )
            return 2
        client = _service_client(args)
        text = client.batch_text(_batch_requests(args, options))
        if args.json:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                print(f"wrote {args.output}", file=sys.stderr)
            else:
                print(text)
        else:
            import json as _json

            payload = _json.loads(text)
            batch = BatchResult(
                jobs=[JobResult.from_dict(job) for job in payload["jobs"]]
            )
            print(batch.summary())
        return 0

    service = AnalysisService(options)
    runner = service.runner(
        workers=args.workers, ks=tuple(args.k) if args.k else DEFAULT_KS
    )
    if args.system:
        # System files are read and parsed here, before any job runs,
        # as ``repro shard --system`` does; --workers N then fans the
        # jobs out over N local shard workers.
        batch = runner.run_paths(args.system, args.chain or None)
    else:
        base = figure4_system(calibrated=args.calibrated)
        labeled = labeled_random_systems(base, args.random, args.seed)
        labels = [label for label, _ in labeled]
        systems = [system for _, system in labeled]
        batch = runner.run_systems(systems, args.chain or None, labels=labels)

    if args.json:
        text = batch.to_json(deterministic=not args.timings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        _batch_stderr_report(batch, args.timings)
    else:
        print(batch.summary())
        if args.timings:
            _batch_stderr_report(batch, True)
    return 1 if batch.errors and args.strict else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    return serve_forever(
        args.host, args.port, analysis_options(args), workers=args.workers
    )


def _shard_systems(args: argparse.Namespace):
    """The (systems, labels) of one ``repro shard`` invocation.

    Corpus entries are named ``sys-<index>`` by the generator, so the
    default labels are already stable; file inputs keep the batch
    convention of labeling by path."""
    if args.corpus:
        manifest = CorpusManifest.load(args.corpus)
        systems = list(manifest.systems(limit=args.limit))
        return systems, None
    if args.system:
        systems = [load_system_file(path) for path in args.system]
        return systems, [str(path) for path in args.system]
    base = figure4_system(calibrated=args.calibrated)
    labeled = labeled_random_systems(base, args.random, args.seed)
    return [system for _, system in labeled], [label for label, _ in labeled]


def _cmd_shard(args: argparse.Namespace) -> int:
    options = analysis_options(args)
    if args.shards < 0:
        print("error: --shards must be >= 0", file=sys.stderr)
        return 2
    if not args.serial and args.shards + len(args.worker) < 1:
        print(
            "error: need at least one shard: --shards N and/or --worker URL",
            file=sys.stderr,
        )
        return 2
    service = AnalysisService(options)
    runner = service.runner(ks=tuple(args.k) if args.k else DEFAULT_KS)
    systems, labels = _shard_systems(args)
    jobs = runner.jobs_for(systems, args.chain or None, labels=labels)
    if args.serial:
        # The single-process reference the merged export must be
        # byte-identical to (the CI smoke diffs the two).
        batch = runner.run(jobs)
    else:
        log = ShardLog(verbose=args.verbose)
        try:
            batch = run_sharded(
                jobs,
                shards=args.shards,
                worker_urls=args.worker,
                use_cache=options.use_cache,
                cache_dir=options.cache_dir,
                chunk_size=args.chunk_size,
                retry=_retry_policy(args),
                timeout=args.timeout,
                log=log,
            )
        except ShardExecutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        text = batch.to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        _batch_stderr_report(batch, False)
    else:
        print(batch.summary())
    return 1 if batch.errors and args.strict else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    try:
        if args.corpus_command == "generate":
            spec = CorpusSpec(
                count=args.count,
                seed=args.seed,
                family=args.family,
                utilization=tuple(args.utilization),
                chains=args.chains,
                tasks_per_chain=tuple(args.tasks_per_chain),
            )
            progress = (
                ShardLog(verbose=True).tag("corpus") if args.verbose else None
            )
            manifest = generate_corpus(
                spec,
                args.dir,
                progress=progress,
                progress_every=args.progress_every,
            )
            print(
                f"generated {manifest.count} systems under {args.dir} "
                f"(family {spec.family}, seed {spec.seed})\n"
                f"manifest digest: {manifest.manifest_digest}"
            )
        else:
            manifest = CorpusManifest.load(args.dir)
            checked = manifest.verify(limit=args.limit)
            scope = (
                "all system files"
                if args.limit is None
                else f"first {checked} system files"
            )
            print(
                f"corpus at {args.dir} verified: {manifest.count} entries, "
                f"{scope} match\nmanifest digest: {manifest.manifest_digest}"
            )
    except (CorpusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


#: Suffix multipliers of the ``--prune-older-than`` age syntax.
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age(text: str) -> float:
    """Parse an age like ``90d``, ``12h``, ``30m``, ``45s`` or plain
    seconds into seconds.  Raises ``ValueError`` on junk."""
    import math

    raw = text.strip().lower()
    if not raw:
        raise ValueError("empty age")
    unit = 1.0
    if raw[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[raw[-1]]
        raw = raw[:-1]
    value = float(raw)
    # float() happily accepts "nan"/"inf"; NaN passes every comparison
    # guard and would make an age-based prune delete *everything*.
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"age must be a non-negative number: {text!r}")
    return value * unit


def _format_bytes(size: float) -> str:
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or suffix == "GiB":
            return f"{size:.0f} {suffix}" if suffix == "B" else f"{size:.1f} {suffix}"
        size /= 1024
    return f"{size:.1f} GiB"  # pragma: no cover - unreachable


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from .runner.diskcache import DiskStore

    if not os.path.isdir(args.dir):
        print(f"no cache directory at {args.dir!r}", file=sys.stderr)
        return 2

    # Read-only handle: inspecting (or pruning) a directory must never
    # plant cache subdirectories in it.
    store = DiskStore(args.dir, create=False)
    if args.prune_older_than is not None:
        try:
            age = parse_age(args.prune_older_than)
        except ValueError as exc:
            print(f"bad --prune-older-than value: {exc}", file=sys.stderr)
            return 2
        removed = store.prune_older_than(age)
        print(
            f"pruned {removed['removed']} entries "
            f"({_format_bytes(removed['bytes'])}) older "
            f"than {args.prune_older_than}"
        )
    stats = store.category_stats()
    rows = []
    for category in sorted(stats):
        entry = stats[category]
        note = f"{entry['stale_tmp']} stale tmp" if entry["stale_tmp"] else ""
        rows.append(
            (category, entry["entries"], _format_bytes(entry["bytes"]), note)
        )
    print(format_table(("category", "entries", "size", "notes"), rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report.markdown import reproduction_report

    text = reproduction_report(samples=args.samples, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TWCA for task chains (DATE 2017 reproduction)"
    )
    parser.add_argument(
        "--calibrated",
        action="store_true",
        help="use the calibrated overload curves (reproduces Table II exactly)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_client_options(command) -> None:
        """Transport knobs shared by every command that talks HTTP:
        ``--server`` clients and the shard coordinator's remote
        workers (also reused as the coordinator's chunk retry
        budget)."""
        command.add_argument(
            "--timeout",
            type=float,
            default=600.0,
            metavar="SECONDS",
            help="per-call socket timeout for daemon requests "
            "(default 600; a hung daemon can no longer block forever)",
        )
        command.add_argument(
            "--retries",
            type=int,
            default=3,
            metavar="N",
            help="total attempts per call for transport failures and "
            "server 5xx errors (default 3; analysis requests are "
            "idempotent, so re-sending is always safe)",
        )
        command.add_argument(
            "--retry-delay",
            type=float,
            default=0.1,
            metavar="SECONDS",
            help="base backoff before the first retry, doubling per "
            "failure (default 0.1)",
        )

    def add_server_option(command) -> None:
        command.add_argument(
            "--server",
            metavar="URL",
            help="send the analysis to a running `repro serve` daemon "
            "instead of computing in-process (exports are "
            "byte-identical either way)",
        )
        add_client_options(command)

    analyze = sub.add_parser("analyze", help="TWCA of chains")
    analyze.add_argument("--system", help="system JSON file")
    analyze.add_argument("--chain", help="analyze only this chain")
    analyze.add_argument(
        "--k", type=window_size, nargs="*", help="window sizes for the DMM table"
    )
    add_analysis_options(analyze, "analyze")
    add_server_option(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="critical-instant simulation")
    simulate.add_argument("--system", help="system JSON file")
    simulate.add_argument("--horizon", type=float, default=2000.0)
    simulate.add_argument("--gantt-until", type=float, default=600.0)
    simulate.add_argument("--width", type=int, default=100)
    simulate.set_defaults(func=_cmd_simulate)

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("which", choices=("table1", "table2", "figure5"))
    experiment.add_argument("--samples", type=int, default=1000)
    experiment.add_argument("--seed", type=int, default=2017)
    experiment.add_argument("--k", type=window_size, nargs="*")
    add_analysis_options(experiment, "experiment")
    experiment.set_defaults(func=_cmd_experiment)

    batch = sub.add_parser(
        "batch", help="parallel TWCA over many (system, chain) jobs"
    )
    batch.add_argument(
        "--system",
        nargs="+",
        help="system JSON files (default: a random priority sweep of "
        "the case study); at least one file when given, so an "
        "empty shell glob fails loudly instead of silently "
        "analyzing the random sweep",
    )
    batch.add_argument(
        "--random",
        type=at_least(0),
        default=50,
        metavar="N",
        help="size of the random sweep when no --system files are "
        "given (default 50)",
    )
    batch.add_argument("--seed", type=int, default=2017)
    batch.add_argument(
        "--chain",
        nargs="*",
        help="chains to analyze (default: every typical chain with a "
        "finite deadline)",
    )
    batch.add_argument(
        "--workers",
        type=at_least(1),
        default=1,
        help="worker processes (1 = serial reference; ignored with "
        "--server, where the daemon owns execution)",
    )
    batch.add_argument(
        "--k", type=window_size, nargs="*", help="DMM window sizes (default 1 10 100)"
    )
    add_analysis_options(batch, "batch")
    add_server_option(batch)
    batch.add_argument(
        "--json",
        action="store_true",
        help="deterministic JSON on stdout (identical for any "
        "--workers value)",
    )
    batch.add_argument(
        "--timings",
        action="store_true",
        help="include timing/cache/packing fields in the JSON (no "
        "longer worker-count invariant)",
    )
    batch.add_argument("--output", help="write the JSON to a file")
    batch.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any job errored",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="long-lived analysis daemon keeping systems and caches "
        "hot across HTTP/JSON requests",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--workers",
        type=at_least(1),
        default=1,
        help="concurrently executing computes (bounded thread pool; "
        "1 = serialized, the pre-pool behavior)",
    )
    add_analysis_options(serve, "serve")
    serve.set_defaults(func=_cmd_serve)

    shard_worker = sub.add_parser(
        "shard-worker",
        help="a shard-worker endpoint for `repro shard --worker URL` "
        "(the analysis daemon under its deployment name; chunks "
        "arrive on POST /shard/run)",
    )
    shard_worker.add_argument("--host", default="127.0.0.1")
    shard_worker.add_argument("--port", type=int, default=8788)
    shard_worker.add_argument(
        "--workers",
        type=at_least(1),
        default=1,
        help="concurrently executing computes on this worker host "
        "(bounded thread pool)",
    )
    add_analysis_options(shard_worker, "shard-worker")
    shard_worker.set_defaults(func=_cmd_serve)

    shard = sub.add_parser(
        "shard",
        help="sharded TWCA: partition jobs over local worker processes "
        "and/or remote shard-worker endpoints with work-stealing "
        "and bounded retries",
    )
    shard.add_argument(
        "--corpus",
        metavar="DIR",
        help="analyze a generated corpus (see `repro corpus generate`)",
    )
    shard.add_argument(
        "--limit",
        type=at_least(0),
        default=None,
        metavar="N",
        help="only the first N corpus entries",
    )
    shard.add_argument(
        "--system",
        nargs="+",
        help="system JSON files (labels follow the batch convention: "
        "the file paths)",
    )
    shard.add_argument(
        "--random",
        type=at_least(0),
        default=50,
        metavar="N",
        help="size of the random sweep when neither --corpus nor "
        "--system is given (default 50)",
    )
    shard.add_argument("--seed", type=int, default=2017)
    shard.add_argument(
        "--chain",
        nargs="*",
        help="chains to analyze (default: every typical chain with a "
        "finite deadline)",
    )
    shard.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="S",
        help="local shard worker processes (default 2; 0 with "
        "--worker runs remote-only)",
    )
    shard.add_argument(
        "--worker",
        action="append",
        default=[],
        metavar="URL",
        help="remote `repro shard-worker` endpoint (repeatable; mixes "
        "freely with local --shards)",
    )
    shard.add_argument(
        "--chunk-size",
        type=at_least(1),
        default=None,
        metavar="N",
        help="jobs per dispatched chunk (default: about four chunks "
        "per worker)",
    )
    shard.add_argument(
        "--serial",
        action="store_true",
        help="run the single-process reference instead of sharding "
        "(the export the merged run is byte-identical to)",
    )
    shard.add_argument(
        "--k", type=window_size, nargs="*", help="DMM window sizes (default 1 10 100)"
    )
    shard.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="tagged per-chunk progress on stderr (line-buffered: "
        "lines never interleave, whatever the shard count)",
    )
    add_analysis_options(shard, "shard")
    add_client_options(shard)
    shard.add_argument(
        "--json",
        action="store_true",
        help="deterministic JSON on stdout (identical for any shard "
        "topology, and to --serial)",
    )
    shard.add_argument("--output", help="write the JSON to a file")
    shard.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any job errored",
    )
    shard.set_defaults(func=_cmd_shard)

    corpus = sub.add_parser(
        "corpus",
        help="generate or verify a seeded, reproducible benchmark "
        "corpus of systems",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_generate = corpus_sub.add_parser(
        "generate", help="generate a corpus under DIR (streamed to disk)"
    )
    corpus_generate.add_argument("dir", help="corpus root (must not exist yet)")
    corpus_generate.add_argument(
        "--count", type=int, required=True, metavar="N", help="number of systems"
    )
    corpus_generate.add_argument("--seed", type=int, default=2017)
    corpus_generate.add_argument(
        "--family",
        default="uunifast",
        choices=("uunifast", "waters"),
        help="generator family: UUniFast chain systems or "
        "WATERS-profile automotive systems",
    )
    corpus_generate.add_argument(
        "--utilization",
        type=float,
        nargs=2,
        default=(0.5, 0.7),
        metavar=("LOW", "HIGH"),
        help="per-system target utilization range (default 0.5 0.7)",
    )
    corpus_generate.add_argument(
        "--chains", type=int, default=3, help="typical chains per system"
    )
    corpus_generate.add_argument(
        "--tasks-per-chain",
        type=int,
        nargs=2,
        default=(2, 5),
        metavar=("LO", "HI"),
        help="inclusive chain-length range (default 2 5)",
    )
    corpus_generate.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="progress lines on stderr while generating",
    )
    corpus_generate.add_argument(
        "--progress-every",
        type=int,
        default=10_000,
        metavar="N",
        help="progress granularity with --verbose (default 10000)",
    )
    corpus_generate.set_defaults(func=_cmd_corpus)
    corpus_verify = corpus_sub.add_parser(
        "verify", help="re-check a corpus against its manifest digests"
    )
    corpus_verify.add_argument("dir", help="corpus root")
    corpus_verify.add_argument(
        "--limit",
        type=at_least(0),
        default=None,
        metavar="N",
        help="only re-hash the first N system files (manifest digest "
        "is always checked in full)",
    )
    corpus_verify.set_defaults(func=_cmd_corpus)

    cache = sub.add_parser("cache", help="inspect or prune a persistent result cache")
    cache.add_argument("dir", help="cache directory (the --cache-dir of batch runs)")
    cache.add_argument(
        "--prune-older-than",
        metavar="AGE",
        help="delete entries older than AGE (e.g. 90d, 12h, 30m, 45s, "
        "or plain seconds) before reporting",
    )
    cache.set_defaults(func=_cmd_cache)

    report = sub.add_parser("report", help="emit the markdown reproduction report")
    report.add_argument("--samples", type=int, default=200)
    report.add_argument("--seed", type=int, default=2017)
    report.add_argument("--output", help="write to a file instead of stdout")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, ConnectionError) as exc:
        # Transport failures the client layer did not wrap (or raised
        # outside ServiceClient): a clean message, not a traceback.
        server = getattr(args, "server", None)
        target = f" at {server}" if server else ""
        reason = getattr(exc, "reason", exc)
        print(f"error: cannot reach daemon{target}: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
