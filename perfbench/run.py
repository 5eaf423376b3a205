"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload campus-churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pcap-replay --seed 1 --trace 1
    python3 perfbench/run.py --report --seed 1      # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a few epochs untraced and then the same epochs with the
layer entry points wrapped (see ``layers.py``), checks that both passes
ended with the same ``PERF`` counters and simulated statistics, and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it name every metric with its unit, plus the run's seed,
platform, Python version and CPU count; the same record is written to
``.bench_build/perfbench/``.  README.md in this directory lists the
metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: ``setup_s`` is the median of at least this many set-ups per run.
MIN_SETUPS = 3

#: End-to-end metrics: name -> unit (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "success_ratio": "ratio",
    "op_p50_ms": "ms",
}

#: PERF counters the traced and untraced passes must end with equal.
PLANE_COUNTERS = ("batched_items", "batch_flushes", "nic_batch_filtered")


def _import_program():
    """Import the program from ``src/``; ``None`` when it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError:
        return None
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        return None
    import workloads

    return workloads


def _import_seconds(in_process: float) -> float:
    """Median import time over this process and two fresh interpreters."""
    code = (
        "import sys, time; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "start = time.perf_counter(); import repro, workloads; "
        "print(time.perf_counter() - start)"
    )
    samples = [in_process]
    for _ in range(MIN_SETUPS - 1):
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
        )
        samples.append(float(child.stdout))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _percentile(values, q: int) -> float:
    """The ``q``-th percentile (exclusive method, as ``statistics`` gives it)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _run_epoch(workload, ctx, totals, op_times) -> float:
    """Set up once and run one epoch's operations; returns set-up seconds."""
    start = perf_counter()
    state = workload.setup(ctx)
    setup_s = perf_counter() - start
    for operation in workload.operations(ctx, state):
        start = perf_counter()
        outcome = operation()
        op_times.append(perf_counter() - start)
        totals += outcome
    totals += workload.finish(ctx, state)
    return setup_s


def measure(workload, seed: int, seconds: float, import_s: float) -> dict:
    """Whole epochs until ``seconds`` of operations have been timed."""
    from workloads import Outcome

    ctx = workload.prepare(seed, SCRATCH)
    totals = Outcome()
    op_times: list = []
    setups: list = []
    epoch_walls: list = []
    epoch_rates: list = []
    try:
        while True:
            before = (totals.work, len(op_times))
            setups.append(_run_epoch(workload, ctx, totals, op_times))
            epoch_walls.append(sum(op_times[before[1]:]))
            epoch_rates.append((totals.work - before[0]) / epoch_walls[-1])
            gc.collect()
            if sum(op_times) >= seconds:
                break
        while len(setups) < MIN_SETUPS:
            start = perf_counter()
            workload.setup(ctx)
            setups.append(perf_counter() - start)
            gc.collect()
    finally:
        workload.close(ctx)
    peak_rss_mb = _peak_rss_mb()  # before the import-timing children run
    import_s = _import_seconds(import_s)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": statistics.median(epoch_rates),
        "success_ratio": 1.0 - totals.failed / totals.attempted,
        "op_p50_ms": 1e3 * statistics.median(op_times),
    }
    details = {
        workload.rate_name: metrics["work_per_s"],
        "op_p90_ms": 1e3 * _percentile(op_times, 90),
        "failed_ratio": totals.failed / totals.attempted,
        "wall_s": statistics.median(epoch_walls),
        "epoch_walls": [round(w, 3) for w in epoch_walls],
        "epochs": len(epoch_walls),
        "operations": len(op_times),
        "setups": len(setups),
        "import_s": import_s,
    }
    if workload.name == "paper-artifacts":
        details["cell_p50_ms"] = metrics["op_p50_ms"]
        details["cell_p90_ms"] = details["op_p90_ms"]
    return {
        # A crash is a failed operation; only a wrong output is incorrect.
        "correct": totals.wrong == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
        "details": details,
        "errors": ctx.get("errors", {}),
    }


def trace(workload, seed: int) -> dict:
    """An untraced and a traced pass of ``trace_epochs`` epochs each.

    Returns the per-layer metrics of the traced pass.
    """
    import layers
    from repro.obs.registry import REGISTRY
    from repro.perf import PERF
    from tracing import Tracer, retained_capture
    from workloads import Outcome

    ctx = workload.prepare(seed, SCRATCH)
    passes = []
    tracer = Tracer()
    try:
        for traced in (False, True):
            gc.collect()
            if traced:
                layers.install(tracer)
            perf_before = PERF.snapshot()
            registry_before = REGISTRY.snapshot()
            totals = Outcome()
            start = perf_counter()
            try:
                for epoch in range(workload.trace_epochs):
                    if epoch:
                        del state
                        gc.collect()
                    state = workload.setup(ctx)
                    for operation in workload.traced_operations(ctx, state):
                        totals += operation()
                    totals += workload.finish(ctx, state)
                wall = perf_counter() - start
            finally:
                tracer.uninstall()
            perf_after = PERF.snapshot()
            delta = {
                name: perf_after[name] - perf_before[name]
                for name in perf_after
                if isinstance(perf_after[name], int)
            }
            alerts = _registry_alerts(REGISTRY.delta(registry_before))
            # Capture rings die with the topology: measure them first.
            retained = retained_capture(tracer.recorders)
            passes.append(
                {
                    "wall": wall,
                    "totals": totals,
                    "perf": delta,
                    "digest": workload.digest(state),
                    "alerts": alerts,
                    "retained": retained,
                }
            )
            del state
    finally:
        workload.close(ctx)
    plain, traced = passes
    metrics = layers.layer_metrics(
        tracer, traced["perf"], traced["alerts"], traced["retained"]
    )
    layer_sum = sum(tracer.self_s.values())
    metrics["trace.wall_s"] = traced["wall"]
    metrics["trace.residual_s"] = traced["wall"] - tracer.top_s
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    same_plane = all(
        plain["perf"][name] == traced["perf"][name] for name in PLANE_COUNTERS
    )
    same_sim = plain["digest"] == traced["digest"] and plain["alerts"] == traced["alerts"]
    adds_up = abs(layer_sum + metrics["trace.residual_s"] - traced["wall"]) < 1e-6 * max(
        1.0, traced["wall"]
    )
    tracer.write_spans(SCRATCH / f"spans-{workload.name}-{seed}.jsonl")
    totals = plain["totals"]
    totals += traced["totals"]
    return {
        "correct": same_plane and same_sim and adds_up and totals.wrong == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
        "details": {
            "layer_self_s": dict(tracer.self_s),
            "spans": dict(tracer.spans_by_layer),
            "untraced_wall_s": plain["wall"],
            "perf_untraced": {n: plain["perf"][n] for n in PLANE_COUNTERS},
            "perf_traced": {n: traced["perf"][n] for n in PLANE_COUNTERS},
            "same_plane": same_plane,
            "same_sim": same_sim,
            "self_times_add_up": adds_up,
        },
        "errors": ctx.get("errors", {}),
    }


def _registry_alerts(delta) -> int:
    """``scheme_alerts_total`` summed over every label in a registry delta."""
    family = delta.get("metrics", {}).get("scheme_alerts_total")
    if not family:
        return 0
    return int(sum(sample["value"] for sample in family.get("samples", ())))


def record_golden(workloads) -> int:
    """Write the recorded value of every paper cell that completes."""
    golden = {}
    for cell in workloads.paper_cells():
        try:
            golden[workloads.cell_key(cell)] = workloads.run_cell(cell)
        except Exception as exc:  # recorded as missing, counted as failed
            print(f"# not recorded: {workloads.cell_key(cell)}: {exc!r}")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"# recorded {len(golden)} cells to {workloads.GOLDEN_PATH.name}")
    return 0


def report(seed: int, seconds: int, traced: int) -> int:
    """Run every workload in its own process and print one table."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(traced),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        for line in lines[:-1]:
            print(f"{name:16s} {line}")
    return status


def _describe(value: object) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record the paper cells' values (explain why in CHANGES.md)")
    args = parser.parse_args(argv)

    start = perf_counter()
    workloads = _import_program()
    import_s = perf_counter() - start
    if workloads is None:
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(workloads)
    if args.report:
        return report(args.seed, args.seconds, args.trace)
    workload = workloads.WORKLOADS.get(args.workload or "")
    if workload is None:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from layers import UNITS as units

        result = trace(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds, import_s)
        units = END_TO_END
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name} {_describe(value)} {units[name]}")
    for name, value in result["details"].items():
        print(f"# {name} {_describe(value) if not isinstance(value, dict) else json.dumps(value)}")
    for key, error in sorted(result["errors"].items()):
        print(f"# failed {key}: {error}")
    record = dict(result, meta=meta)
    out = SCRATCH / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
