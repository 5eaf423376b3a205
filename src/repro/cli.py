"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-schemes``
    The registry with profile one-liners.
``table N`` / ``figure N``
    Regenerate one of the paper's artifacts (N in 1..4) and print it;
    ``--csv`` emits machine-readable CSV instead of the text table.
``demo mitm|dos|flood|starvation``
    Run a single attack scenario, optionally with ``--scheme SPEC``
    installed (a registry key or a '+'-joined stack such as
    ``dai+arpwatch``), and print what happened.
``campaign``
    Sweep an experiment over schemes × variants × seeds on a worker
    pool (``--jobs``), with on-disk result caching (``--cache-dir`` /
    ``--no-cache``), and print multi-trial aggregate statistics.
``run KIND``
    Run one experiment kind (any :data:`repro.core.api.KINDS` entry)
    through :func:`repro.core.api.run` and print its result as JSON.
    ``--set KEY=VALUE`` sets a kind parameter or a ``ScenarioConfig``
    field; ``--trace-out``, ``--metrics-out``, ``--profile-out`` and
    ``--telemetry-out`` trace, meter, profile and telemeter the run.
``replay``
    Stream a frame trace — a pcap capture (``--pcap``) or a seeded
    synthetic generator (``--synthetic``) — through a monitor-placed
    scheme's tap in bounded memory, and report frames, alerts, and
    sustained ingest throughput.
``top``
    Live per-worker progress view over the heartbeat files a campaign
    writes when the run-health watchdog is enabled.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

from repro._version import __version__
from repro.core import api, report
from repro.core.experiment import ScenarioConfig
from repro.errors import FaultError
from repro.faults import parse_fault_spec
from repro.schemes.registry import SCHEME_FACTORIES, all_profiles, validate_scheme_spec

__all__ = ["main", "build_parser"]


def _scheme_spec(value: str) -> str:
    """argparse type for ``--scheme``: a registry key or a '+'-stack."""
    if not validate_scheme_spec(value):
        raise argparse.ArgumentTypeError(
            f"unknown scheme {value!r}; known: {', '.join(sorted(SCHEME_FACTORIES))} "
            "(join with '+' to stack, e.g. dai+arpwatch)"
        )
    return value


def _fault_spec(value: str) -> Optional[str]:
    """argparse type for ``--faults``: a compact impairment spec or 'none'."""
    try:
        spec = parse_fault_spec(value)
    except FaultError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value if spec is not None else None


def _trace_spec(value: str) -> str:
    """argparse type for ``--traces``: a replay source spec string."""
    from repro.errors import ReplayError
    from repro.replay import open_source

    try:
        open_source(value)
    except ReplayError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_TABLES: Dict[int, Callable[[], "report.Artifact"]] = {
    1: report.table_1_criteria,
    2: report.table_2_effectiveness,
    3: report.table_3_false_positives,
    4: report.table_4_footprint,
}
_FIGURES: Dict[int, Callable[[], "report.Artifact"]] = {
    1: report.figure_1_detection_latency,
    2: report.figure_2_overhead,
    3: report.figure_3_resolution_latency,
    4: report.figure_4_interception,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Analysis on the Schemes for Detecting and "
            "Preventing ARP Cache Poisoning Attacks' (ICDCSW 2007)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-schemes", help="list the analyzed defense schemes")

    table = sub.add_parser("table", help="regenerate Table 1-4")
    table.add_argument("number", type=int, choices=sorted(_TABLES))
    table.add_argument("--csv", action="store_true", help="emit CSV")

    figure = sub.add_parser("figure", help="regenerate Figure 1-4")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))
    figure.add_argument("--csv", action="store_true", help="emit CSV")

    demo = sub.add_parser("demo", help="run one attack scenario")
    demo.add_argument(
        "attack", choices=["mitm", "dos", "flood", "starvation"]
    )
    demo.add_argument(
        "--scheme", default=None, type=_scheme_spec, metavar="SPEC",
        help="defense to install: a scheme key or a '+'-joined stack "
             "such as dai+arpwatch (default: none)",
    )
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--duration", type=float, default=30.0)
    demo.add_argument(
        "--faults", default=None, type=_fault_spec, metavar="SPEC",
        help="link/host impairments, e.g. loss=0.05,jitter=2ms "
             "(default: clean LAN)",
    )

    from repro.campaign.spec import EXPERIMENTS

    camp = sub.add_parser(
        "campaign",
        help="run a parallel multi-seed experiment sweep with caching",
    )
    camp.add_argument(
        "--experiment", default="effectiveness", choices=sorted(EXPERIMENTS),
        help="which measurement to sweep (default: effectiveness)",
    )
    camp.add_argument(
        "--schemes", "--scheme", default="all",
        help="comma-separated scheme specs — registry keys or '+'-joined "
             "stacks like dai+arpwatch; 'none' is the no-defense baseline, "
             "'all' sweeps the whole registry (default: all)",
    )
    camp.add_argument(
        "--techniques", default="reply",
        help="comma-separated poisoning techniques (effectiveness only)",
    )
    camp.add_argument(
        "--rates", default="1.0",
        help="comma-separated poison rates in pps (detection-latency only)",
    )
    camp.add_argument(
        "--fail-modes", default="open,closed",
        help="comma-separated controller fail modes to sweep "
             "(controller-failover only; default: open,closed)",
    )
    camp.add_argument("--seeds", type=int, default=5,
                      help="independent trials per grid cell")
    camp.add_argument("--root-seed", type=int, default=7)
    camp.add_argument("--jobs", type=int, default=1,
                      help="worker processes (1 = in-process serial)")
    camp.add_argument("--hosts", type=int, default=4,
                      help="LAN size of the sweep scenario")
    camp.add_argument("--duration", type=float, default=12.0,
                      help="attack/observation duration per trial (seconds)")
    camp.add_argument("--timeout", type=float, default=300.0,
                      help="per-task wall-clock budget (parallel mode)")
    camp.add_argument("--retries", type=int, default=1,
                      help="extra attempts after a task failure")
    camp.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache directory (default: .repro_cache)")
    camp.add_argument("--no-cache", action="store_true",
                      help="always recompute; do not read or write the cache")
    camp.add_argument(
        "--faults", action="append", default=None, type=_fault_spec,
        metavar="SPEC",
        help="add one fault level to the sweep grid (repeatable); each "
             "SPEC is a compact impairment spec like loss=0.05,jitter=2ms, "
             "or 'none' for the clean-LAN level — fault specs contain "
             "commas, hence one flag per level",
    )
    camp.add_argument(
        "--traces", action="append", default=None, type=_trace_spec,
        metavar="SPEC",
        help="add one trace to the sweep grid (replay experiment only, "
             "repeatable); each SPEC is a replay source spec like "
             "pcap:capture.pcap or synthetic:rate=50k,churn=0.2 — trace "
             "specs contain commas, hence one flag per trace",
    )
    camp.add_argument(
        "--variant", action="append", default=None, dest="variant_overrides",
        metavar="KEY=VALUE",
        help="override one variant-grid key across every cell (repeatable); "
             "numbers and true/false are parsed — e.g. for "
             "campus-churn: --variant hosts_per_leaf=50 --variant shards=2",
    )
    camp.add_argument("--csv", action="store_true", help="emit CSV")
    camp.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a Prometheus text dump (a JSON snapshot for a .json "
             "PATH) of the aggregated metrics (per-cell detection-latency "
             "histograms, alert totals, and worker perf counters)",
    )
    camp.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="stream a live JSONL time series (sim progress, per-window "
             "perf/metrics deltas) to PATH while the campaign runs",
    )
    camp.add_argument(
        "--telemetry-cadence", type=int, default=2000, metavar="N",
        help="snapshot every N simulator events (default: 2000)",
    )
    camp.add_argument(
        "--heartbeat-dir", default=None, metavar="DIR",
        help="enable the run-health watchdog: workers write heartbeat "
             "files to DIR, stalls are counted and reported (default: "
             "<cache-dir>/heartbeats when --jobs > 1 and caching is on, "
             "else off)",
    )
    camp.add_argument(
        "--stall-after", type=float, default=10.0, metavar="SECS",
        help="seconds of frozen heartbeat or sim-clock before a worker "
             "is graded stalled (default: 10)",
    )

    run = sub.add_parser(
        "run",
        help="run one experiment kind, optionally traced, metered, "
             "profiled and telemetered",
    )
    run.add_argument("kind", type=api.normalize_kind, choices=sorted(api.KINDS))
    run.add_argument(
        "--scheme", default=None, type=_scheme_spec, metavar="SPEC",
        help="defense to install: a scheme key or a '+'-joined stack "
             "such as dai+arpwatch (default: none)",
    )
    run.add_argument(
        "--faults", default=None, type=_fault_spec, metavar="SPEC",
        help="link/host impairments, e.g. loss=0.05,jitter=2ms "
             "(default: clean LAN)",
    )
    run.add_argument(
        "--set", action="append", default=None, dest="settings",
        metavar="KEY=VALUE",
        help="set one kind parameter or, failing that, one ScenarioConfig "
             "field (repeatable); numbers and true/false are parsed",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="trace the run: Chrome trace JSON (Perfetto), or one event "
             "per line for a .jsonl PATH",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="dump the metrics registry after the run: Prometheus text, "
             "or a JSON snapshot for a .json PATH",
    )
    run.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="sample the run with the wall-clock profiler and write "
             "collapsed stacks (flamegraph input)",
    )
    run.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="stream a live JSONL time series of the run to PATH",
    )

    top = sub.add_parser(
        "top",
        help="live per-worker progress view over campaign heartbeat files",
    )
    top.add_argument(
        "--heartbeat-dir", default=".repro_cache/heartbeats", metavar="DIR",
        help="directory the campaign writes heartbeats to "
             "(default: .repro_cache/heartbeats)",
    )
    top.add_argument(
        "--stall-after", type=float, default=10.0, metavar="SECS",
        help="grade a worker stalled after this long without progress",
    )
    top.add_argument(
        "--watch", type=float, default=None, metavar="SECS",
        help="refresh every SECS seconds instead of printing once",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="with --watch: stop after N refreshes (default: forever)",
    )

    rec = sub.add_parser(
        "recommend", help="rank schemes for a described deployment"
    )
    rec.add_argument("--static-addressing", action="store_true",
                     help="no DHCP on this network")
    rec.add_argument("--no-host-changes", action="store_true",
                     help="hosts cannot be modified (BYOD/guest)")
    rec.add_argument("--managed-switches", action="store_true")
    rec.add_argument("--infrastructure", action="store_true",
                     help="new servers/monitor stations can be deployed")
    rec.add_argument("--max-cost", default="high",
                     choices=["free", "low", "medium", "high"])
    rec.add_argument("--prevention", action="store_true",
                     help="require prevention, not just detection")

    analyze = sub.add_parser(
        "analyze", help="run the offline detection battery over a pcap file"
    )
    analyze.add_argument("pcap", help="path to an Ethernet pcap")
    analyze.add_argument(
        "--scan-threshold", type=int, default=16,
        help="distinct ARP targets per window that count as a sweep",
    )

    replay = sub.add_parser(
        "replay",
        help="stream a frame trace through a detection scheme's monitor tap",
    )
    replay_src = replay.add_mutually_exclusive_group(required=True)
    replay_src.add_argument(
        "--pcap", default=None, metavar="PATH",
        help="replay an Ethernet pcap capture from PATH",
    )
    replay_src.add_argument(
        "--synthetic", default=None, metavar="PARAMS", nargs="?", const="",
        help="replay a seeded synthetic trace; PARAMS is the source "
             "spec tail, e.g. rate=500k,frames=1m,churn=0.2 (omit for "
             "the default mix)",
    )
    replay.add_argument(
        "--rate", default=None, metavar="FPS",
        help="synthetic trace timestamp rate in frames/sec, with k/m "
             "suffixes (shorthand for rate= in --synthetic PARAMS)",
    )
    replay.add_argument(
        "--scheme", default=None, type=_scheme_spec, metavar="SPEC",
        help="defense to attach to the replay station — monitor-placed "
             "schemes only (default: none, measure raw ingest)",
    )
    replay.add_argument(
        "--window", type=int, default=1024, metavar="N",
        help="bounded in-flight window in frames; memory stays O(N) "
             "regardless of trace size (default: 1024; 1 forces the "
             "per-frame fidelity path)",
    )
    replay.add_argument(
        "--drain", type=float, default=0.0, metavar="SECS",
        help="run scheme timers SECS trace-seconds past the last frame",
    )
    replay.add_argument("--seed", type=int, default=7)
    replay.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a Prometheus text dump (a JSON snapshot for a .json "
             "PATH) of replay counters, ingest histograms and per-scheme "
             "alert totals",
    )
    replay.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="stream a live JSONL time series of the run to PATH",
    )
    replay.add_argument(
        "--telemetry-cadence", type=int, default=2000, metavar="N",
        help="snapshot every N ingested frames (default: 2000)",
    )

    bench = sub.add_parser(
        "bench", help="run the wire fast-path microbenchmarks"
    )
    bench.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if any benchmark regresses below the baseline",
    )
    bench.add_argument(
        "--update", action="store_true",
        help="write the current results as the new baseline",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="baseline JSON path (default: BENCH_wire.json at the repo root)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller iteration counts (CI smoke mode)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=None,
        help="fraction of baseline throughput that still passes (default 0.5)",
    )
    bench.add_argument(
        "--no-scale", action="store_true",
        help="skip the campus-scale suite when checking (scale baseline "
        "keys are then allowed missing)",
    )
    bench.add_argument(
        "--no-replay", action="store_true",
        help="skip the replay-ingest suite when checking (replay "
        "baseline keys are then allowed missing)",
    )

    scale = sub.add_parser(
        "scale", help="run the campus-scale (spine-leaf, sharded) benchmarks"
    )
    scale.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if any benchmark regresses below BENCH_scale.json",
    )
    scale.add_argument(
        "--update", action="store_true",
        help="write the current results as the new scale baseline",
    )
    scale.add_argument(
        "--baseline", default=None,
        help="baseline JSON path (default: BENCH_scale.json at the repo root)",
    )
    scale.add_argument(
        "--quick", action="store_true",
        help="1k-host cells only, short runs (CI smoke mode; the 10k-host "
        "cell is full-mode only)",
    )
    scale.add_argument(
        "--tolerance", type=float, default=None,
        help="fraction of baseline throughput that still passes (default 0.5)",
    )
    return parser


def _cmd_list_schemes(out) -> int:
    for profile in all_profiles():
        out.write(
            f"{profile.key:15s} {profile.kind:10s} @{profile.placement:12s} "
            f"{profile.display_name}\n"
        )
    return 0


def _cmd_artifact(args, out) -> int:
    registry = _TABLES if args.command == "table" else _FIGURES
    artifact = registry[args.number]()
    out.write((artifact.csv if args.csv else artifact.rendered) + "\n")
    return 0


def _campaign_grid(args):
    """Translate CLI flags into (schemes, variants, scenario overrides)."""
    from repro.campaign.spec import EXPERIMENTS

    kind = EXPERIMENTS[args.experiment]
    if args.schemes == "all":
        keys = list(SCHEME_FACTORIES)
        schemes = keys if kind.requires_scheme else [None] + keys
    else:
        schemes = [
            None if key == "none" else key
            for key in args.schemes.split(",")
            if key
        ]

    scenario = {}
    if args.experiment == "effectiveness":
        variants = [{"technique": t} for t in args.techniques.split(",") if t]
        scenario = {"n_hosts": args.hosts, "attack_duration": args.duration,
                    "warmup": 3.0, "cooldown": 2.0}
    elif args.experiment == "detection-latency":
        variants = [{"poison_rate": float(r)} for r in args.rates.split(",") if r]
        scenario = {"n_hosts": args.hosts, "attack_duration": args.duration,
                    "warmup": 3.0, "cooldown": 2.0}
    elif args.experiment == "false-positives":
        variants = [{"duration": max(args.duration, 60.0)}]
        scenario = {"n_hosts": args.hosts}
    elif args.experiment in ("overhead", "footprint"):
        variants = [{"n_hosts": args.hosts}]
    elif args.experiment == "controller-failover":
        variants = [{"fail_mode": m} for m in args.fail_modes.split(",") if m]
        scenario = {"n_hosts": args.hosts, "attack_duration": args.duration,
                    "cooldown": 2.0}
    elif args.experiment == "dhcp-starvation":
        variants = [{"duration": args.duration}]
        scenario = {"n_hosts": args.hosts}
    elif args.experiment == "replay":
        if args.schemes == "all":
            # Only monitor-placed schemes can attach to a replay station
            # (a trace has no switch fabric or protected hosts).
            schemes = [None] + [
                p.key for p in all_profiles() if p.placement == "monitor"
            ]
        # With a --traces sweep the axis supplies each cell's trace; the
        # default variant would collide with it (axis-vs-variant check).
        variants = [] if getattr(args, "traces", None) else list(
            kind.default_variants
        )
    else:  # resolution-latency, campus-churn
        variants = list(kind.default_variants)

    if getattr(args, "variant_overrides", None):
        overrides = dict(
            _parse_key_value(item, "--variant")
            for item in args.variant_overrides
        )
        unknown = set(overrides) - set(kind.variant_keys)
        if unknown:
            raise SystemExit(
                f"--variant keys {sorted(unknown)} not valid for "
                f"{args.experiment!r}; allowed: {sorted(kind.variant_keys)}"
            )
        variants = [{**dict(v), **overrides} for v in variants] or [overrides]
        # Overrides collapse cells that only differed on an overridden key.
        deduped = []
        for v in variants:
            if v not in deduped:
                deduped.append(v)
        variants = deduped
    return tuple(schemes), tuple(variants), scenario


def _parse_key_value(item: str, flag: str):
    """``key=value`` with int, float and true/false coercion
    (``shards=2`` -> 2, ``with_monitor=false`` -> False)."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise SystemExit(f"{flag} expects KEY=VALUE, got {item!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    return key, raw


@contextmanager
def _observe(args, out) -> Iterator[None]:
    """The one observer path for ``run``, ``campaign`` and ``replay``.

    Wraps the block in whichever of the tracer, the sampling profiler and
    a telemetry session the ``--*-out`` options ask for; afterwards
    writes each artifact and its ``# ...`` summary lines.
    """
    import json
    from contextlib import ExitStack
    from pathlib import Path

    from repro.obs import (
        REGISTRY,
        TRACER,
        SamplingProfiler,
        live,
        to_chrome_trace,
        to_jsonl,
        to_prometheus,
    )
    from repro.perf import PERF

    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    profile_out = getattr(args, "profile_out", None)
    telemetry_out = getattr(args, "telemetry_out", None)
    cadence = getattr(args, "telemetry_cadence", 2000)
    with ExitStack() as stack:
        if trace_out:
            TRACER.reset()
            TRACER.enable()
            stack.callback(TRACER.disable)
            capture_drops_before = PERF.trace_drops
        if telemetry_out:
            stack.enter_context(live.session(
                live.TelemetryRecorder(cadence_events=cadence, out=telemetry_out)
            ))
        if profile_out:
            profiler = stack.enter_context(SamplingProfiler())
        yield

    lines = []
    if trace_out:
        events = list(TRACER.events)
        provenance = TRACER.provenance
        alerts = [e for e in events if e.name == "scheme.alert"]
        resolved = 0
        for alert in alerts:
            fid = alert.attrs.get("frame")
            origin = provenance.origin_of(fid) if fid is not None else None
            if origin is not None and origin.startswith("attack:"):
                resolved += 1
        if trace_out.endswith(".jsonl"):
            text = to_jsonl(events)
        else:
            text = json.dumps(to_chrome_trace(events, provenance.frames))
        Path(trace_out).write_text(text)
        lines += [
            f"# written to {trace_out}",
            f"# trace: {len(events)} events ({TRACER.dropped} span-ring "
            f"dropped), {len(provenance)} frames tracked, "
            f"{PERF.trace_drops - capture_drops_before} frame-capture dropped "
            f"(PERF.trace_drops={PERF.trace_drops})",
            f"# alerts: {len(alerts)} raised, {resolved} with provenance "
            f"resolving to an attack injection",
        ]
    if profile_out:
        Path(profile_out).write_text(profiler.collapsed())
        attribution = ", ".join(
            f"{name} {share:.1%}"
            for name, share in profiler.attribution().items()
        )
        lines += [
            f"# written to {profile_out}",
            f"# profile: {profiler.sample_count} samples at "
            f"{profiler.interval * 1000:.1f}ms interval",
            f"# subsystems: {attribution or 'none'}",
            f"# attributed: {profiler.attributed_fraction():.1%} of samples "
            f"to named subsystems",
        ]
    if telemetry_out:
        # Count lines in the file: with campaign --jobs > 1, fork-workers
        # append their own series to the same path.
        path = Path(telemetry_out)
        snapshots = (
            sum(1 for line in path.read_text().splitlines() if line.strip())
            if path.exists()
            else 0
        )
        lines.append(
            f"# telemetry: {snapshots} snapshots in {telemetry_out} "
            f"(cadence {cadence} events)"
        )
    if metrics_out:
        snapshot = REGISTRY.snapshot()
        if metrics_out.endswith(".json"):
            text = json.dumps(snapshot, indent=2, sort_keys=True)
        else:
            text = to_prometheus(snapshot)
        Path(metrics_out).write_text(text)
        lines += [
            f"# written to {metrics_out}",
            f"# metrics: {len(snapshot['metrics'])} families, "
            f"{len(snapshot['collectors'])} collector blocks",
        ]
    out.write("".join(line + "\n" for line in lines))


def _cmd_campaign(args, out) -> int:
    from repro.campaign import CampaignSpec, ResultCache, run_campaign

    schemes, variants, scenario = _campaign_grid(args)
    spec = CampaignSpec(
        experiment=args.experiment,
        schemes=schemes,
        variants=variants,
        seeds=args.seeds,
        root_seed=args.root_seed,
        scenario=scenario,
        faults=tuple(args.faults) if args.faults else (None,),
        traces=tuple(args.traces) if getattr(args, "traces", None) else (None,),
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    # Parallel runs get the watchdog by default, living inside the cache
    # directory; --no-cache promises to leave no droppings behind, so
    # there heartbeats stay opt-in via an explicit --heartbeat-dir.
    heartbeat_dir = args.heartbeat_dir
    if heartbeat_dir is None and args.jobs > 1 and not args.no_cache:
        from pathlib import Path

        heartbeat_dir = str(Path(args.cache_dir) / "heartbeats")

    with _observe(args, out):
        campaign = run_campaign(
            spec,
            jobs=args.jobs,
            cache=cache,
            retries=args.retries,
            task_timeout=args.timeout,
            heartbeat_dir=heartbeat_dir,
            stall_after=args.stall_after,
        )
        if args.metrics_out:
            from repro.campaign.aggregate import publish_metrics

            publish_metrics(campaign)
        _report_campaign(campaign, args, out)
    return 1 if campaign.failures else 0


def _report_campaign(campaign, args, out) -> None:
    from repro.campaign import to_artifact

    artifact = to_artifact(campaign)
    out.write((artifact.csv if args.csv else artifact.rendered) + "\n")
    out.write(
        f"# campaign: {campaign.total_tasks} tasks, "
        f"{campaign.cache_hits} cache hits "
        f"({campaign.cache_hit_rate:.0%}), {campaign.executed} executed, "
        f"{len(campaign.failures)} failed, jobs={campaign.jobs}, "
        f"{campaign.elapsed:.2f}s\n"
    )
    from repro.perf import PERF

    # Worker counters are shipped back as _obs deltas and merged into the
    # parent registry (and PERF, via its merge hook) — so with --jobs > 1
    # this line now reflects the whole campaign, not just the coordinator.
    if campaign.worker_metrics_merged:
        scope = f"merged from {campaign.worker_metrics_merged} worker tasks"
    elif campaign.jobs == 1:
        scope = "in-process"
    else:
        scope = "coordinator only"
    out.write(f"# perf ({scope}): {PERF.summary()}\n")
    if campaign.heartbeat_dir is not None:
        from collections import Counter as _Counter

        states = _Counter(h.state for h in campaign.worker_health)
        state_text = (
            " ".join(f"{k}={v}" for k, v in sorted(states.items())) or "none"
        )
        out.write(
            f"# watchdog: {len(campaign.worker_health)} workers ({state_text}), "
            f"{campaign.worker_stalls} stall episodes "
            f"(watchdog_stalls_total), heartbeats in {campaign.heartbeat_dir}\n"
        )
    for failure in campaign.failures:
        out.write(
            f"# FAILED {failure.task.scheme_label} "
            f"{failure.task.cell[1]} trial={failure.task.trial} "
            f"after {failure.attempts} attempt(s): {failure.error}\n"
        )


def _route_settings(kind: "api.Kind", items) -> tuple:
    """Split ``--set KEY=VALUE`` items into the kind's parameters and
    ``ScenarioConfig`` overrides; a key in both goes to the kind."""
    from dataclasses import fields

    config_fields = sorted(f.name for f in fields(ScenarioConfig))
    params, overrides = {}, {}
    for item in items:
        key, value = _parse_key_value(item, "--set")
        if key in kind.params:
            params[key] = value
        elif key in config_fields:
            overrides[key] = value
        else:
            raise SystemExit(
                f"--set {key}: not a parameter of {kind.name!r} "
                f"{sorted(kind.params)} nor a ScenarioConfig field "
                f"{config_fields}"
            )
    return params, overrides


def _cmd_run(args, out) -> int:
    import json

    from repro.errors import ExperimentError, ReplayError, SchemeError

    params, overrides = _route_settings(api.KINDS[args.kind], args.settings or ())
    try:
        config = ScenarioConfig.from_dict(overrides) if overrides else None
        with _observe(args, out):
            result = api.run(
                args.kind, config, scheme=args.scheme, faults=args.faults,
                **params,
            )
            out.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    except (ExperimentError, ReplayError, SchemeError) as exc:
        raise SystemExit(f"run {args.kind}: {exc}") from None
    return 0


def _cmd_top(args, out) -> int:
    import time as _time
    from pathlib import Path

    from repro.obs.watchdog import Watchdog, render_health

    directory = Path(args.heartbeat_dir)
    watchdog = Watchdog(directory, stall_after=args.stall_after)
    iteration = 0
    while True:
        healths = watchdog.scan()
        if not directory.is_dir():
            out.write(f"# no heartbeat directory at {directory}\n")
            return 1
        out.write(render_health(healths) + "\n")
        out.write(
            f"# watchdog: {len(healths)} workers, "
            f"{watchdog.stall_episodes} stall episodes\n"
        )
        iteration += 1
        if args.watch is None:
            return 0
        if args.iterations is not None and iteration >= args.iterations:
            return 0
        _time.sleep(args.watch)
        out.write("\n")


def _cmd_bench(args, out) -> int:
    from pathlib import Path

    from repro.perf import PERF
    from repro.perf.bench import (
        DEFAULT_TOLERANCE,
        check,
        format_results,
        load_baseline,
        run_suite,
        write_baseline,
    )

    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:  # default: BENCH_wire.json next to the source tree
        baseline_path = Path(__file__).resolve().parents[2] / "BENCH_wire.json"

    PERF.reset()
    results = run_suite(quick=args.quick)

    baseline = load_baseline(baseline_path) if baseline_path.exists() else None
    out.write(format_results(results, baseline) + "\n")
    out.write(f"# perf: {PERF.summary()}\n")

    if args.update:
        write_baseline(baseline_path, results)
        out.write(f"# baseline written to {baseline_path}\n")
        return 0
    if args.check:
        if baseline is None:
            out.write(f"# no baseline at {baseline_path}; run with --update\n")
            return 1
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        allow_missing = frozenset()

        # Fold the campus-scale gate in: BENCH_scale.json keys join the
        # baseline, and whichever of them this run legitimately skips
        # (--no-scale; --quick: the 10k cell is full-mode only) joins the
        # allow-missing set.
        from repro.perf.scale import (
            DEFAULT_SCALE_BASELINE,
            SCALE_BENCHMARKS,
            SCALE_FULL_ONLY,
            run_scale_suite,
        )

        scale_path = baseline_path.parent / DEFAULT_SCALE_BASELINE
        if scale_path.exists():
            baseline = {**baseline, **load_baseline(scale_path)}
            if args.no_scale:
                allow_missing = allow_missing | SCALE_BENCHMARKS
            else:
                scale_results = run_scale_suite(quick=args.quick)
                out.write(format_results(scale_results, baseline) + "\n")
                results = {**results, **scale_results}
                if args.quick:
                    allow_missing = allow_missing | SCALE_FULL_ONLY

        # And the replay-ingest gate: same fold, BENCH_replay.json keys.
        from repro.perf.replay import (
            DEFAULT_REPLAY_BASELINE,
            REPLAY_BENCHMARKS,
            run_replay_suite,
        )

        replay_path = baseline_path.parent / DEFAULT_REPLAY_BASELINE
        if replay_path.exists():
            baseline = {**baseline, **load_baseline(replay_path)}
            if args.no_replay:
                allow_missing = allow_missing | REPLAY_BENCHMARKS
            else:
                replay_results = run_replay_suite(quick=args.quick)
                out.write(format_results(replay_results, baseline) + "\n")
                results = {**results, **replay_results}

        failures = check(results, baseline, tolerance, allow_missing)
        for failure in failures:
            out.write(f"# REGRESSION {failure}\n")
        if failures:
            return 1
        out.write(f"# bench check passed (tolerance {tolerance})\n")
    return 0


def _cmd_scale(args, out) -> int:
    from pathlib import Path

    from repro.perf import PERF
    from repro.perf.bench import (
        DEFAULT_TOLERANCE,
        check,
        format_results,
        load_baseline,
        write_baseline,
    )
    from repro.perf.scale import (
        DEFAULT_SCALE_BASELINE,
        SCALE_FULL_ONLY,
        run_scale_suite,
    )

    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = (
            Path(__file__).resolve().parents[2] / DEFAULT_SCALE_BASELINE
        )

    PERF.reset()
    results = run_scale_suite(quick=args.quick)

    baseline = load_baseline(baseline_path) if baseline_path.exists() else None
    out.write(format_results(results, baseline) + "\n")
    out.write(f"# perf: {PERF.summary()}\n")

    if args.update:
        if args.quick:
            out.write("# refusing --update with --quick: the baseline must "
                      "carry the 10k-host cell\n")
            return 2
        write_baseline(baseline_path, results)
        out.write(f"# baseline written to {baseline_path}\n")
        return 0
    if args.check:
        if baseline is None:
            out.write(f"# no baseline at {baseline_path}; run with --update\n")
            return 1
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        allow_missing = SCALE_FULL_ONLY if args.quick else frozenset()
        failures = check(results, baseline, tolerance, allow_missing)
        for failure in failures:
            out.write(f"# REGRESSION {failure}\n")
        if failures:
            return 1
        out.write(f"# scale check passed (tolerance {tolerance})\n")
    return 0


def _cmd_replay(args, out) -> int:
    from repro.errors import ReplayError, SchemeError

    if args.pcap is not None:
        if args.rate is not None:
            raise SystemExit("--rate only applies to --synthetic traces")
        spec = f"pcap:{args.pcap}"
    else:
        tail = args.synthetic or ""
        if args.rate is not None:
            if "rate=" in tail:
                raise SystemExit(
                    "give the rate either as --rate or as rate= inside "
                    "--synthetic PARAMS, not both"
                )
            tail = f"rate={args.rate}" + (f",{tail}" if tail else "")
        spec = f"synthetic:{tail}"

    try:
        with _observe(args, out):
            result = api.run(
                "replay",
                ScenarioConfig(seed=args.seed),
                scheme=args.scheme,
                source=spec,
                window=args.window,
                drain=args.drain,
            )
            label = result.scheme if result.scheme is not None else "none"
            out.write(
                f"replay: {result.frames} frames ({result.bytes} bytes) "
                f"from {result.source}\n"
                f"  scheme={label} alerts={result.alerts} "
                f"delivered={result.delivered} mode={result.mode} "
                f"window={result.window} "
                f"peak_in_flight={result.peak_in_flight}\n"
                f"  {result.frames_per_sec:,.0f} frames/sec "
                f"(wall {result.wall_seconds:.3f}s, "
                f"trace span {result.sim_seconds:.3f}s)\n"
            )
    except (ReplayError, SchemeError) as exc:
        raise SystemExit(f"replay: {exc}") from None
    return 0


def _cmd_demo(args, out) -> int:
    if args.attack == "mitm":
        return _demo_mitm(args, out)
    if args.attack == "dos":
        return _demo_dos(args, out)
    if args.attack == "flood":
        return _demo_flood(args, out)
    return _demo_starvation(args, out)


def _demo_mitm(args, out) -> int:
    config = ScenarioConfig(
        seed=args.seed, attack_duration=args.duration, fault_spec=args.faults
    )
    result = api.run(
        "effectiveness", config, scheme=args.scheme, technique="reply"
    )
    out.write(
        f"scheme={result.scheme} technique=reply outcome={result.outcome}\n"
        f"victim poisoned for {result.victim_poisoned_seconds:.1f}s; "
        f"{result.packets_intercepted} packets intercepted; "
        f"{result.tp_alerts} true alerts, {result.fp_alerts} false alerts\n"
    )
    return 0


def _demo_dos(args, out) -> int:
    from repro.attacks import BlackholeDos
    from repro.core.experiment import Scenario

    scenario = Scenario(ScenarioConfig(seed=args.seed))
    if args.scheme is not None:
        from repro.schemes.registry import make_defense

        make_defense(args.scheme).install(lan=scenario.lan,
                                         protected=scenario.protected_hosts())
    scenario.warm_caches()
    replies = []
    cancel = scenario.sim.call_every(
        0.5,
        lambda: scenario.victim.ping(
            scenario.gateway.ip, on_reply=lambda s, r: replies.append(s)
        ),
    )
    before = scenario.sim.now
    dos = BlackholeDos(
        scenario.attacker, [scenario.victim], target_ip=scenario.gateway.ip
    )
    dos.start()
    scenario.sim.run(until=before + args.duration)
    dos.stop()
    cancel()
    expected = int(args.duration / 0.5)
    out.write(
        f"blackhole DoS for {args.duration:.0f}s: victim got {len(replies)}"
        f"/{expected} gateway replies "
        f"({'service denied' if len(replies) < expected / 2 else 'service survived'})\n"
    )
    return 0


def _demo_flood(args, out) -> int:
    from repro.attacks import MacFlood
    from repro.core.experiment import Scenario

    scenario = Scenario(ScenarioConfig(seed=args.seed))
    if args.scheme is not None:
        from repro.schemes.registry import make_defense

        make_defense(args.scheme).install(lan=scenario.lan,
                                         protected=scenario.protected_hosts())
    flood = MacFlood(scenario.attacker)
    flood.start()
    scenario.sim.run(until=scenario.sim.now + min(args.duration, 5.0))
    flood.stop()
    switch = scenario.lan.switch
    out.write(
        f"sent {flood.frames_sent} flood frames; CAM {len(switch.cam)}/"
        f"{switch.cam.capacity} ({'FAIL-OPEN' if switch.is_fail_open() else 'holding'})\n"
    )
    return 0


def _demo_starvation(args, out) -> int:
    config = ScenarioConfig(seed=args.seed, fault_spec=args.faults)
    result = api.run(
        "dhcp-starvation",
        config,
        scheme=args.scheme,
        duration=min(args.duration, 30.0),
    )
    out.write(
        f"starvation: pool {result.pool_free}/{result.pool_size} free, "
        f"{result.leases_captured} leases captured "
        f"({'EXHAUSTED' if result.exhausted else 'surviving'})\n"
    )
    return 0


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list-schemes":
        return _cmd_list_schemes(out)
    if args.command in ("table", "figure"):
        return _cmd_artifact(args, out)
    if args.command == "demo":
        return _cmd_demo(args, out)
    if args.command == "campaign":
        return _cmd_campaign(args, out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "top":
        return _cmd_top(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "scale":
        return _cmd_scale(args, out)
    if args.command == "replay":
        return _cmd_replay(args, out)
    if args.command == "analyze":
        from repro.analysis.forensics import OfflineArpAnalyzer
        from repro.analysis.pcap import iter_pcap

        analyzer = OfflineArpAnalyzer()
        analyzer.scan_threshold = args.scan_threshold
        summary = analyzer.analyze(iter_pcap(args.pcap))
        out.write(summary.render() + "\n")
        return 0
    if args.command == "recommend":
        from repro.core.recommend import Deployment, recommend

        env = Deployment(
            uses_dhcp=not args.static_addressing,
            can_modify_hosts=not args.no_host_changes,
            has_managed_switches=args.managed_switches,
            can_run_infrastructure=args.infrastructure,
            max_cost=args.max_cost,
            want_prevention=args.prevention,
        )
        out.write(recommend(env).render() + "\n")
        return 0
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
