"""Command-line interface.

Subcommands::

    repro analyze [--system FILE.json] [--chain NAME] [--k K ...]
        TWCA of one or all chains (default: the Fig. 4 case study).
    repro simulate [--system FILE.json] [--horizon T]
        Critical-instant simulation with an ASCII schedule.
    repro experiment {table1,table2,figure5} [--samples N] [--seed S]
        Regenerate a paper artifact on stdout.
    repro batch [--corpus DIR|--system FILE ...|--random N]
                [--workers N] [--worker URL ...] [--json]
        TWCA over many (system, chain) jobs.  One local worker and no
        URL runs in-process (the serial reference); any other topology
        splits the jobs into chunks over N local worker processes
        and/or remote daemons, with bounded retries.  The --json export
        is byte-identical for every topology.  ``repro shard`` is an
        alias, and ``--shards``/``--server`` are second spellings of
        ``--workers``/``--worker``.
    repro serve [--host H] [--port P] [--workers N]
        Long-lived analysis daemon (HTTP/JSON): keeps its job cache
        hot across requests and runs up to N computes concurrently;
        each request carries its system inline.  See POST /analyze,
        POST /shard/run (the chunk route of ``batch --worker URL``),
        GET /cache/stats, GET /healthz.  ``repro shard-worker`` is an
        alias.
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
    only the ones it reads (see :data:`ANALYSIS_FLAGS`).

The module is intentionally thin: all logic lives in the library; the
CLI parses arguments, loads/creates systems and prints reports.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import urllib.error
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import AnalysisError, analyze_latency, analyze_twca
from .report.histogram import figure5_panel
from .report.tables import (
    dmm_table,
    format_packing_stats,
    format_table,
    twca_summary,
    wcl_table,
)
from .runner import (
    BatchExecutionError,
    BatchResult,
    BatchRunner,
    JobResult,
    RetryPolicy,
    ShardExecutionError,
    ShardLog,
    run_sharded,
)
from .runner.batch import load_systems
from .runner.jobs import DEFAULT_KS, default_chain_names
from .service import (
    AnalysisOptions,
    AnalysisRequest,
    ServiceClient,
    ServiceError,
    serve_forever,
)
from .sim import render_gantt, simulate_worst_case
from .synth import figure4_system, labeled_random_systems, random_systems
from .synth.corpus import CorpusError, CorpusManifest, CorpusSpec, generate_corpus


#: The shared analysis flags, with their ``add_argument`` settings.
_ANALYSIS_FLAG_SPECS: Dict[str, Dict[str, Any]] = {
    "--cache-dir": dict(
        metavar="DIR",
        help="persistent result cache shared by all workers and later "
        "runs (created on demand); warm runs analyze nothing",
    ),
    "--no-cache": dict(
        action="store_true",
        help="disable the result cache (escape hatch; results are "
        "identical, only slower); on analyze, for the --server request; "
        "remote batch workers leave the cache to their daemon",
    ),
}

#: The shared analysis flags each subcommand reads (and so accepts).
ANALYSIS_FLAGS: Dict[str, Tuple[str, ...]] = {
    "analyze": ("--no-cache",),
    "batch": ("--cache-dir", "--no-cache"),
    "serve": ("--cache-dir", "--no-cache"),
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


def finite_number(minimum: float, *, strict: bool) -> Callable[[str], float]:
    """The argparse type of a number option with a floor: rejects text
    that is not a finite number ``> minimum`` (``strict``) or ``>=
    minimum`` with ``"must be a finite number > {minimum}, got
    {text!r}"``."""
    relation = ">" if strict else ">="

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        above = value > minimum if strict else value >= minimum
        if not (above and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {relation} {minimum:g}, got {text!r}"
            )
        return value

    return parse


#: The client flags' values when not given: ``analyze`` parses them as
#: its defaults, ``batch`` resolves them (see :data:`WORKER_FLAGS`).
CLIENT_DEFAULTS = {"timeout": 600.0, "retries": 3, "retry_delay": 0.1}

#: ``repro batch`` flags that act only on the random sweep (without
#: ``--corpus`` and ``--system``), and flags that act only on worker
#: processes and URLs (not in-process), by dest, with their values when
#: not given.  On ``batch`` they parse as ``None``, so a flag given
#: where it cannot act is a usage error (exit 2), not silently dropped.
SWEEP_FLAGS = {"random": 50, "seed": 2017}
WORKER_FLAGS = {"chunk_size": None, "verbose": False, **CLIENT_DEFAULTS}


def _retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The retry policy carried by the shared ``--retries`` /
    ``--retry-delay`` flags: per call of ``analyze --server`` (see
    :class:`~repro.service.ServiceClient`), per chunk of ``batch``."""
    return RetryPolicy(attempts=args.retries, base_delay=args.retry_delay)


def _service_client(args: argparse.Namespace) -> ServiceClient:
    """A :class:`ServiceClient` for ``analyze --server``, honoring the
    shared ``--timeout``/``--retries``/``--retry-delay`` flags."""
    return ServiceClient(args.server, timeout=args.timeout, retry=_retry_policy(args))


def _load_system(path: Optional[str], calibrated: bool):
    if path is None:
        return figure4_system(calibrated=calibrated)
    # A file that does not load raises BatchExecutionError naming it.
    return load_systems([path])[0]


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
    if args.chain is not None and args.chain not in system:
        # The wording of the daemon's 400 for the same request.
        print(
            f"error: no chain named {args.chain!r} in system "
            f"{system.name!r}; have {sorted(c.name for c in system.chains)}",
            file=sys.stderr,
        )
        return 2
    if args.server:
        request = AnalysisRequest.from_system(
            system,
            chain=args.chain,
            ks=tuple(args.k) if args.k else DEFAULT_KS,
            use_cache=options.use_cache,
        )
        payload = _service_client(args).analyze(request)
        jobs = [JobResult.from_dict(job) for job in payload["jobs"]]
        errors = [job.error for job in jobs if job.status == "error"]
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        if errors:
            return 2
        print(_jobs_summary(jobs))
        return 0
    for name in [args.chain] if args.chain else default_chain_names(system):
        try:
            result = analyze_twca(system, system[name])
        except AnalysisError as exc:
            # A chain the analysis rejects (no finite deadline, an
            # overload chain) is bad input, like an unknown one.
            print(f"error: {exc}", file=sys.stderr)
            return 2
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
            result = analyze_twca(system, system["sigma_c"])
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
                result = analyze_twca(system, system[name])
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


def _emit_batch(args: argparse.Namespace, batch: BatchResult, timings: bool) -> int:
    """Print one batch as ``--json``/``--output`` ask (the summary
    table otherwise); exit 1 under ``--strict`` when a job errored."""
    if args.json:
        text = batch.to_json(deterministic=not timings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        _batch_stderr_report(batch, timings)
    else:
        print(batch.summary())
        if timings:
            _batch_stderr_report(batch, True)
    return 1 if batch.errors and args.strict else 0


def _batch_systems(args: argparse.Namespace):
    """The (systems, labels) of one ``repro batch`` invocation.

    Corpus entries are named ``sys-<index>`` by the generator, so the
    default labels are already stable; system files are read and
    parsed here, before any job runs, and labeled by path."""
    if args.corpus:
        manifest = CorpusManifest.load(args.corpus)
        systems = list(manifest.systems(limit=args.limit))
        return systems, None
    if args.system:
        return load_systems(args.system), [str(path) for path in args.system]
    base = figure4_system(calibrated=args.calibrated)
    labeled = labeled_random_systems(base, args.random, args.seed)
    return [system for _, system in labeled], [label for label, _ in labeled]


def _idle_batch_flag(args: argparse.Namespace, in_process: bool) -> Optional[str]:
    """Why a given ``repro batch`` flag cannot act on this input and
    topology, or ``None`` when every given flag acts."""
    if args.limit is not None and not args.corpus:
        return "--limit applies only to --corpus"
    for flags, idle, where in (
        (SWEEP_FLAGS, args.corpus or args.system, "without --corpus and --system"),
        # Only a URL's client has a timeout; local chunks have none.
        (("timeout",), not args.worker, "with a --worker URL"),
        (WORKER_FLAGS, in_process, "with --workers N > 1 or a --worker URL"),
    ):
        for dest in flags:
            if idle and getattr(args, dest) is not None:
                return f"--{dest.replace('_', '-')} applies only {where}"
    return None


def _cmd_batch(args: argparse.Namespace) -> int:
    options = analysis_options(args)
    urls = args.worker
    # --workers counts local processes: 1 by default, 0 with a URL.
    workers = args.workers if args.workers is not None else (0 if urls else 1)
    if workers + len(urls) < 1:
        print(
            "error: need at least one worker: --workers N and/or --worker URL",
            file=sys.stderr,
        )
        return 2
    in_process = workers == 1 and not urls
    idle = _idle_batch_flag(args, in_process)
    if idle is not None:
        print(f"error: {idle}", file=sys.stderr)
        return 2
    for dest, value in {**SWEEP_FLAGS, **WORKER_FLAGS}.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    runner = BatchRunner(
        ks=tuple(args.k) if args.k else DEFAULT_KS,
        # Only the in-process run reads the parent's cache: workers
        # build their own, and a daemon's cache policy is its own.
        use_cache=options.use_cache and in_process,
        cache_dir=options.cache_dir,
    )
    systems, labels = _batch_systems(args)
    jobs = runner.jobs_for(systems, args.chain or None, labels=labels)
    if in_process:
        # The serial reference every other topology's export equals.
        batch = runner.run(jobs)
    else:
        batch = run_sharded(
            jobs,
            shards=workers,
            worker_urls=urls,
            use_cache=options.use_cache,
            cache_dir=options.cache_dir,
            chunk_size=args.chunk_size,
            retry=_retry_policy(args),
            timeout=args.timeout,
            log=ShardLog(verbose=args.verbose),
        )
    return _emit_batch(args, batch, args.timings)


def _cmd_serve(args: argparse.Namespace) -> int:
    return serve_forever(
        args.host, args.port, analysis_options(args), workers=args.workers
    )


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

    def add_client_options(command, retries: str) -> None:
        """Transport knobs shared by every command that talks HTTP;
        ``retries`` says what ``--retries`` counts the attempts of."""
        command.add_argument(
            "--timeout",
            type=finite_number(0, strict=True),
            default=CLIENT_DEFAULTS["timeout"],
            metavar="SECONDS",
            help="per-call socket timeout for daemon requests "
            "(default 600; a hung daemon can no longer block forever)",
        )
        command.add_argument(
            "--retries",
            type=at_least(1),
            default=CLIENT_DEFAULTS["retries"],
            metavar="N",
            help=f"total attempts {retries} (default 3; analysis is "
            "idempotent, so re-running it is always safe)",
        )
        command.add_argument(
            "--retry-delay",
            type=finite_number(0, strict=False),
            default=CLIENT_DEFAULTS["retry_delay"],
            metavar="SECONDS",
            help="base backoff before the first retry, doubling per "
            "failure (default 0.1)",
        )

    analyze = sub.add_parser("analyze", help="TWCA of chains")
    analyze.add_argument("--system", help="system JSON file")
    analyze.add_argument("--chain", help="analyze only this chain")
    analyze.add_argument(
        "--k", type=window_size, nargs="*", help="window sizes for the DMM table"
    )
    add_analysis_options(analyze, "analyze")
    analyze.add_argument(
        "--server",
        metavar="URL",
        help="send the analysis to a running `repro serve` daemon "
        "instead of computing in-process (exports are "
        "byte-identical either way)",
    )
    add_client_options(
        analyze, "per call, for transport failures and server 5xx errors"
    )
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="critical-instant simulation")
    simulate.add_argument("--system", help="system JSON file")
    simulate.add_argument("--horizon", type=float, default=2000.0)
    simulate.add_argument("--gantt-until", type=float, default=600.0)
    simulate.add_argument("--width", type=int, default=100)
    simulate.set_defaults(func=_cmd_simulate)

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("which", choices=("table1", "table2", "figure5"))
    experiment.add_argument("--samples", type=at_least(1), default=1000)
    experiment.add_argument("--seed", type=int, default=2017)
    experiment.add_argument("--k", type=window_size, nargs="*")
    experiment.set_defaults(func=_cmd_experiment)

    batch = sub.add_parser(
        "batch",
        aliases=["shard"],
        help="TWCA over many (system, chain) jobs: in-process, or over "
        "local worker processes and/or remote daemons",
    )
    inputs = batch.add_mutually_exclusive_group()
    inputs.add_argument(
        "--corpus",
        metavar="DIR",
        help="analyze a generated corpus (see `repro corpus generate`)",
    )
    inputs.add_argument(
        "--system",
        nargs="+",
        help="system JSON files, labeled by path; at least one file "
        "when given, so an empty shell glob fails loudly instead of "
        "silently analyzing the random sweep",
    )
    batch.add_argument(
        "--limit",
        type=at_least(0),
        default=None,
        metavar="N",
        help="only the first N corpus entries (with --corpus only)",
    )
    batch.add_argument(
        "--random",
        type=at_least(0),
        metavar="N",
        help="size of the random priority sweep of the case study, the "
        "input when neither --corpus nor --system is given (default 50)",
    )
    batch.add_argument(
        "--seed", type=int, help="seed of the random sweep (default 2017)"
    )
    batch.add_argument(
        "--chain",
        nargs="*",
        help="chains to analyze (default: every typical chain with a "
        "finite deadline)",
    )
    batch.add_argument(
        "--workers",
        type=at_least(0),
        default=None,
        metavar="N",
        help="local worker processes (default 1, or 0 with --worker); "
        "1 and no --worker runs in-process, the serial reference",
    )
    batch.add_argument(
        "--shards",
        dest="workers",
        type=at_least(0),
        metavar="N",
        help="second spelling of --workers",
    )
    batch.add_argument(
        "--worker",
        action="append",
        default=[],
        metavar="URL",
        help="remote `repro serve` endpoint (repeatable; mixes freely "
        "with local --workers)",
    )
    batch.add_argument(
        "--server",
        dest="worker",
        action="append",
        metavar="URL",
        help="second spelling of --worker",
    )
    batch.add_argument(
        "--chunk-size",
        type=at_least(1),
        default=None,
        metavar="N",
        help="jobs per chunk sent to a worker (default: about four "
        "chunks per worker)",
    )
    batch.add_argument(
        "--k", type=window_size, nargs="*", help="DMM window sizes (default 1 10 100)"
    )
    batch.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="tagged per-chunk progress on stderr (line-buffered: "
        "lines never interleave, whatever the worker count)",
    )
    add_analysis_options(batch, "batch")
    add_client_options(
        batch, "per chunk whose worker died, was unreachable or answered 5xx"
    )
    # Not given, they read None: see SWEEP_FLAGS and WORKER_FLAGS.
    batch.set_defaults(**dict.fromkeys({**SWEEP_FLAGS, **WORKER_FLAGS}))
    batch.add_argument(
        "--json",
        action="store_true",
        help="deterministic JSON on stdout (identical for any worker "
        "topology)",
    )
    batch.add_argument(
        "--timings",
        action="store_true",
        help="include timing/cache/packing fields in the JSON (no "
        "longer topology invariant)",
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
        aliases=["shard-worker"],
        help="long-lived analysis daemon keeping its job cache hot "
        "across HTTP/JSON requests, each carrying its system inline "
        "(also the remote worker of `repro batch --worker URL`)",
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
    report.add_argument("--samples", type=at_least(1), default=200)
    report.add_argument("--seed", type=int, default=2017)
    report.add_argument("--output", help="write to a file instead of stdout")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BatchExecutionError, ShardExecutionError, ServiceError) as exc:
        # Bad input (a missing file, an unknown chain) or a worker that
        # kept failing: exit 2, apart from --strict's 1 for a job that
        # errored inside the analysis.
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
