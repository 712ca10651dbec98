"""Command-line interface: compile, run and evaluate automata on CAMA.

    python -m repro compile rules.anml            # compile + summary
    python -m repro compile rules.mnrl --optimize --timings
    python -m repro compile rules.regex --out rules.npz  # save artifact
    python -m repro compile rules.regex --incremental \
        --artifact-cache ~/.cache/repro --compile-workers 4
    python -m repro inspect rules.npz             # artifact manifest
    python -m repro run rules.anml input.bin      # reports to stdout
    python -m repro scan rules.anml input.bin \
        --chunk-size 65536 --shards 4 --workers 2 # streaming service scan
    python -m repro scan rules.anml input.bin \
        --artifact-cache ~/.cache/repro           # persistent compile cache
    python -m repro serve --port 8765 --shards 4  # network matching server
    python -m repro evaluate rules.anml input.bin # CAMA vs baselines
    python -m repro experiments --only table4     # paper tables/figures

Accepts ANML (.anml/.xml), MNRL (.mnrl/.json), or a newline-separated
regex list (.regex/.txt).  ``compile --out`` writes a serializable
compiled-ruleset artifact (:mod:`repro.compile.artifact`) that any
other process can load — or upload to a server — without recompiling.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api.config import CompileConfig, ScanConfig
from repro.arch.designs import ALL_DESIGNS, build_design
from repro.automata.nfa import Automaton
from repro.errors import ReproError
from repro.sim.backends import BACKEND_NAMES, DEFAULT_MAX_KEPT_REPORTS
from repro.sim.engine import Engine
from repro.utils.tables import format_table


def load_automaton(path: str) -> Automaton:
    """Load an automaton from ANML, MNRL or a regex-list file."""
    from repro.compile import load_source

    return load_source(path)


# -- args -> typed configs (parsed once, consumed everywhere) --------------


def compile_config_from_args(args: argparse.Namespace) -> CompileConfig:
    """The ``compile`` subcommand's flags as one validated config."""
    return CompileConfig(optimize=args.optimize, stride=args.stride)


def scan_config_from_args(args: argparse.Namespace) -> ScanConfig:
    """The service-shaped flags (``scan`` / ``serve``) as one validated
    config — the same :class:`ScanConfig` the library API takes, so the
    CLI cannot drift from it."""
    return ScanConfig(
        backend=args.backend,
        num_shards=args.shards,
        workers=args.workers,
        chunk_size=args.chunk_size,
        max_reports=args.max_kept_reports,
        on_truncation="error" if args.strict_reports else "warn",
        artifact_store=args.artifact_cache,
        hardware_ledger=getattr(args, "ledger", False),
        ledger_design=getattr(args, "ledger_design", "CAMA-E"),
        trace=getattr(args, "trace", False),
    )


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.compile import CompiledArtifact, compile_ruleset

    if args.incremental:
        return cmd_compile_incremental(args)
    compiled = compile_ruleset(args.automaton, compile_config_from_args(args))
    if compiled.optimization is not None:
        report = compiled.optimization
        print(
            f"optimized: {report.states_before} -> {report.states_after} "
            f"states ({report.reduction:.0%} reduction)"
        )
    if compiled.program is not None:
        rows = [[key, value] for key, value in compiled.program.summary().items()]
        print(format_table(["property", "value"], rows))
    elif compiled.strided is not None:
        print(
            f"2-strided {compiled.automaton.name}: "
            f"{len(compiled.automaton)} -> {len(compiled.strided)} states"
        )
    if args.timings:
        print(
            format_table(
                ["pass", "ms", "notes"],
                compiled.timing_rows(),
                title="pipeline pass timings",
            )
        )
    if args.out:
        artifact = CompiledArtifact.from_compiled(compiled)
        path = artifact.save(args.out)
        print(
            f"artifact: {path} ({path.stat().st_size} bytes, "
            f"key {artifact.key[:16]}...)"
        )
    return 0


def cmd_compile_incremental(args: argparse.Namespace) -> int:
    from repro.compile import IncrementalCompiler
    from repro.compile.store import ArtifactStore

    if args.out:
        raise ReproError(
            "--out writes a single monolithic artifact; an incremental "
            "compile stores per-component artifacts in --artifact-cache "
            "instead"
        )
    store = (
        ArtifactStore(args.artifact_cache) if args.artifact_cache else None
    )
    compiler = IncrementalCompiler(
        store=store, options=compile_config_from_args(args)
    )
    composed = compiler.compile(
        load_automaton(args.automaton), workers=args.compile_workers
    )
    rows = [
        ["states", len(composed.automaton)],
        ["components", len(composed.components)],
        ["reused", composed.reused_components],
        ["compiled", composed.compiled_components],
        ["ruleset key", composed.key[:16] + "..."],
        ["composition key", composed.composition_key[:16] + "..."],
    ]
    if composed.num_dropped_states:
        rows.insert(1, ["non-reporting states dropped", composed.num_dropped_states])
    print(format_table(["property", "value"], rows, title="incremental compile"))
    if store is not None:
        print(f"artifact cache: {store.root} ({len(store.keys())} artifacts)")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.compile import CompiledArtifact

    artifact = CompiledArtifact.load(args.artifact)
    if args.verify:
        artifact.verify()
    rows = [[key, value] for key, value in artifact.summary().items()]
    print(format_table(["property", "value"], rows))
    timings = artifact.manifest.get("timings") or []
    if timings:
        from repro.compile.ir import render_timing_rows

        print(
            format_table(
                ["pass", "ms", "notes"],
                render_timing_rows(timings),
                title="compiled with",
            )
        )
    if args.verify:
        print("content verified: fingerprint matches")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    automaton = load_automaton(args.automaton)
    data = Path(args.input).read_bytes()
    if args.limit:
        data = data[: args.limit]
    engine = Engine(
        automaton,
        backend=args.backend,
        max_kept_reports=args.max_kept_reports,
        on_truncation="error" if args.strict_reports else "warn",
    )
    result = engine.run(data)
    for report in result.reports[: args.max_reports]:
        code = f" code={report.code}" if report.code else ""
        print(f"cycle={report.cycle} state={report.state_id}{code}")
    print(
        f"# {result.stats.num_reports} reports over "
        f"{result.stats.num_cycles} cycles "
        f"(avg active states {result.stats.avg_active_states():.2f}, "
        f"backend {engine.backend_name})"
    )
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from repro.service import MatchingService

    automaton = load_automaton(args.automaton)
    data = Path(args.input).read_bytes()
    if args.limit:
        data = data[: args.limit]
    config = scan_config_from_args(args)
    service = MatchingService(config)
    # --max-kept-reports caps *recording* (via the service default);
    # --max-reports only caps what is printed, mirroring `repro run`.
    # Truncation messaging is handled below, not by the service policy.
    result = service.scan(automaton, data, on_truncation="ignore")
    if result.truncated:
        message = (
            f"scan hit the kept-reports cap ({config.max_reports}); "
            f"further reports were counted but not recorded"
        )
        if args.strict_reports:
            raise ReproError(message)
        print(f"warning: {message}", file=sys.stderr)
    for report in result.reports[: args.max_reports]:
        code = f" code={report.code}" if report.code else ""
        print(f"cycle={report.cycle} state={report.state_id}{code}")
    backends = ",".join(sorted(set(result.backends))) or config.backend
    print(
        f"# {result.num_reports} reports over {len(data)} bytes | "
        f"{result.num_shards} shard(s), {config.workers} worker(s), "
        f"chunk {config.chunk_size} B, backend {backends} | "
        f"{result.elapsed_s:.3f} s, {result.throughput_mbps:.2f} MB/s"
    )
    if result.ledger is not None:
        print(result.ledger.render())
    if result.trace is not None:
        print(result.trace.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import MatchingServer, MatchingService, run_server
    from repro.telemetry.log import configure as configure_logging
    from repro.telemetry.metrics import enable as enable_metrics

    configure_logging(args.log_level)
    if args.metrics:
        # force-enable even under REPRO_TELEMETRY=0 so the `metrics`
        # op serves live series when the operator asked for them
        enable_metrics()
    service = MatchingService(scan_config_from_args(args))
    server = MatchingServer(
        service,
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_bytes,
        max_inflight=args.max_inflight,
        executor_workers=args.executor_workers,
        allow_shutdown=not args.no_remote_shutdown,
    )
    run_server(server)
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.quotas import QuotaManager, TenantQuota
    from repro.cluster.router import ClusterRouter
    from repro.telemetry.log import configure as configure_logging
    from repro.telemetry.metrics import enable as enable_metrics

    configure_logging(args.log_level)
    if args.metrics:
        enable_metrics()
    quota = TenantQuota(
        bytes_per_s=args.tenant_bytes_per_s,
        requests_per_s=args.tenant_requests_per_s,
        max_open_sessions=args.tenant_max_sessions,
        compile_cost_per_window=args.tenant_compile_cost,
        window_s=args.quota_window,
    )
    router = ClusterRouter(
        args.node,
        replication=args.replication,
        quotas=None if quota.unlimited else QuotaManager(quota),
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_bytes,
        allow_shutdown=not args.no_remote_shutdown,
        health_interval_s=args.health_interval,
        node_timeout_s=args.node_timeout or None,
    )

    async def _main() -> None:
        await router.start()
        host, port = router.address
        print(
            f"routing {len(router.pool)} node(s) on {host}:{port} "
            f"(replication {router.replication})"
        )
        try:
            await router.serve_forever()
        finally:
            await router.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    automaton = load_automaton(args.automaton)
    data = Path(args.input).read_bytes()
    if args.limit:
        data = data[: args.limit]
    engine = Engine(automaton)
    rows = []
    for design in ALL_DESIGNS:
        build = build_design(design, automaton)
        stats = engine.run(data, placement=build.placement, max_reports=0).stats
        breakdown = build.energy(stats)
        rows.append(
            [
                design,
                round(build.area_mm2, 4),
                round(build.timing.throughput_gbps(), 2),
                round(breakdown.per_cycle_pj(), 2),
                round(build.power_w(stats), 4),
                round(build.compute_density_gbps_mm2(), 1),
            ]
        )
    print(
        format_table(
            ["design", "area mm2", "Gbps", "pJ/cycle", "W", "Gbps/mm2"],
            rows,
            title=f"{automaton.name}: {len(automaton)} states, {len(data)} bytes",
        )
    )
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import run_all

    run_all(
        scale=args.scale,
        stream_length=args.stream,
        out_dir=args.out,
        only=args.only,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an automaton to CAMA")
    p_compile.add_argument("automaton")
    p_compile.add_argument("--optimize", action="store_true")
    p_compile.add_argument(
        "--stride",
        type=int,
        choices=(1, 2),
        default=1,
        help="temporal stride (2 = one step per symbol pair)",
    )
    p_compile.add_argument(
        "--out",
        default=None,
        metavar="ARTIFACT.npz",
        help="save a serializable compiled-ruleset artifact",
    )
    p_compile.add_argument(
        "--timings",
        action="store_true",
        help="print per-pass pipeline timings",
    )
    p_compile.add_argument(
        "--incremental",
        action="store_true",
        help="compile per connected component, reusing cached component "
        "artifacts (requires stride 1, no --optimize)",
    )
    p_compile.add_argument(
        "--artifact-cache",
        default=None,
        metavar="DIR",
        help="persistent per-component artifact store for --incremental",
    )
    p_compile.add_argument(
        "--compile-workers",
        type=int,
        default=1,
        help="process-pool fan-out for missing components (--incremental)",
    )
    p_compile.set_defaults(fn=cmd_compile)

    p_inspect = sub.add_parser(
        "inspect", help="print a compiled artifact's manifest"
    )
    p_inspect.add_argument("artifact")
    p_inspect.add_argument(
        "--verify",
        action="store_true",
        help="recompute the content fingerprint and check it",
    )
    p_inspect.set_defaults(fn=cmd_inspect)

    def add_backend_options(p: argparse.ArgumentParser) -> None:
        # the flags behind ScanConfig's backend/max_reports/on_truncation
        # (and Engine's equivalents for `repro run`)
        p.add_argument(
            "--backend",
            choices=BACKEND_NAMES,
            default="auto",
            help="execution backend (auto picks per automaton/shard)",
        )
        p.add_argument(
            "--max-kept-reports",
            type=int,
            default=DEFAULT_MAX_KEPT_REPORTS,
            help="cap on recorded (not counted) reports per run",
        )
        p.add_argument(
            "--strict-reports",
            action="store_true",
            help="error (instead of warn) when the kept-reports cap truncates",
        )

    def add_scan_config_options(p: argparse.ArgumentParser) -> None:
        # one block for every service-shaped subcommand; the flags map
        # 1:1 onto ScanConfig fields via scan_config_from_args
        add_backend_options(p)
        p.add_argument("--chunk-size", type=int, default=65536)
        p.add_argument("--shards", type=int, default=1)
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="shard-scan processes per scan (1 = serial)",
        )
        p.add_argument(
            "--artifact-cache",
            default=None,
            metavar="DIR",
            help="persistent compiled-artifact cache directory (warm "
            "restarts skip compilation)",
        )
        p.add_argument(
            "--ledger",
            action="store_true",
            help="attach the modeled CAMA hardware ledger (energy pJ, "
            "cycle latency, tile occupancy) to every scan",
        )
        p.add_argument(
            "--ledger-design",
            choices=ALL_DESIGNS,
            default="CAMA-E",
            help="hardware design point the ledger models",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="record per-scan trace spans (compile passes, shard "
            "runs, kernel chunks) and print the span tree",
        )

    p_run = sub.add_parser("run", help="simulate an automaton on an input file")
    p_run.add_argument("automaton")
    p_run.add_argument("input")
    p_run.add_argument("--limit", type=int, default=0)
    p_run.add_argument("--max-reports", type=int, default=50)
    add_backend_options(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_scan = sub.add_parser(
        "scan", help="scan an input through the streaming matching service"
    )
    p_scan.add_argument("automaton")
    p_scan.add_argument("input")
    p_scan.add_argument("--limit", type=int, default=0)
    p_scan.add_argument("--max-reports", type=int, default=50)
    add_scan_config_options(p_scan)
    p_scan.set_defaults(fn=cmd_scan)

    p_serve = sub.add_parser(
        "serve", help="run the network matching server (NDJSON over TCP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--executor-workers",
        type=int,
        default=4,
        help="threads bridging the event loop to the matching engines",
    )
    p_serve.add_argument(
        "--max-frame-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="reject request/response frames larger than this",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="per-connection bound on queued frames (backpressure)",
    )
    p_serve.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="ignore client 'shutdown' frames",
    )
    p_serve.add_argument(
        "--log-level",
        default="info",
        help="JSON-lines log level for the 'repro' logger tree "
        "(debug|info|warning|error)",
    )
    p_serve.add_argument(
        "--metrics",
        action="store_true",
        help="force-enable the metrics registry (overrides "
        "REPRO_TELEMETRY=0); scrape via the 'metrics' op",
    )
    add_scan_config_options(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_route = sub.add_parser(
        "route",
        help="run the cluster router in front of serve nodes",
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument(
        "--port", type=int, default=8700, help="0 picks a free port"
    )
    p_route.add_argument(
        "--node",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="fleet node address (repeatable); more can join at "
        "runtime via the 'hello' op",
    )
    p_route.add_argument(
        "--replication",
        type=int,
        default=2,
        help="nodes per ruleset (>= 2 enables mid-stream failover)",
    )
    p_route.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="node liveness probe period",
    )
    p_route.add_argument(
        "--node-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request node round-trip budget; a hung node fails "
        "over like a dead one (0 = wait forever)",
    )
    p_route.add_argument(
        "--tenant-bytes-per-s",
        type=float,
        default=None,
        help="per-tenant sustained scan/feed byte rate (unset = no cap)",
    )
    p_route.add_argument(
        "--tenant-requests-per-s",
        type=float,
        default=None,
        help="per-tenant sustained scan/feed request rate",
    )
    p_route.add_argument(
        "--tenant-max-sessions",
        type=int,
        default=None,
        help="per-tenant cap on concurrently open sessions",
    )
    p_route.add_argument(
        "--tenant-compile-cost",
        type=int,
        default=None,
        help="per-tenant compile cost (pattern count) per quota window",
    )
    p_route.add_argument(
        "--quota-window",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="burst window of the rate quotas",
    )
    p_route.add_argument(
        "--max-frame-bytes", type=int, default=8 * 1024 * 1024
    )
    p_route.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="ignore client 'shutdown' frames",
    )
    p_route.add_argument("--log-level", default="info")
    p_route.add_argument(
        "--metrics",
        action="store_true",
        help="force-enable the metrics registry",
    )
    p_route.set_defaults(fn=cmd_route)

    p_eval = sub.add_parser("evaluate", help="compare designs on a workload")
    p_eval.add_argument("automaton")
    p_eval.add_argument("input")
    p_eval.add_argument("--limit", type=int, default=0)
    p_eval.set_defaults(fn=cmd_evaluate)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("--scale", type=float, default=1 / 16)
    p_exp.add_argument("--stream", type=int, default=10_000)
    p_exp.add_argument("--out", default="results")
    p_exp.add_argument("--only", nargs="*", default=None)
    p_exp.set_defaults(fn=cmd_experiments)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
