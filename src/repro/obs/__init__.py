"""repro.obs — unified tracing, metrics, and frame provenance.

One import surface for the three observability primitives:

* :data:`REGISTRY` — the process-wide metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with labels,
  snapshot/merge for campaign fork-workers).  The legacy
  :data:`repro.perf.PERF` block is registered as the ``perf`` collector,
  with :meth:`~repro.perf.PerfCounters.absorb` as its merge hook — so a
  worker's wire-fast-path statistics survive the worker.
* :data:`TRACER` — the bounded structured event log (simulation-time
  spans and instants), off by default and zero-cost while off.
* ``TRACER.provenance`` — the frame-id table mapping live wire buffers
  back to the workload or attack that injected them.

Exporters (:func:`to_chrome_trace`, :func:`to_jsonl`,
:func:`to_prometheus` and their parsers) turn those into artifacts the
``--trace-out`` / ``--metrics-out`` options of ``repro run`` write out.

See ``docs/observability.md`` for the span taxonomy and overhead policy.
"""

from __future__ import annotations

from repro.obs.export import (
    parse_jsonl,
    parse_prometheus,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from repro.obs.live import BEACON, TelemetryRecorder
from repro.obs.profiler import SamplingProfiler
from repro.obs.provenance import FrameRecord, Provenance
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import DEFAULT_CAPACITY, TRACER, ObsEvent, Tracer
from repro.obs.watchdog import Heartbeat, Watchdog, WorkerHealth
from repro.perf import PERF

__all__ = [
    "BEACON",
    "REGISTRY",
    "TRACER",
    "Counter",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SamplingProfiler",
    "TelemetryRecorder",
    "Tracer",
    "ObsEvent",
    "Provenance",
    "FrameRecord",
    "Watchdog",
    "WorkerHealth",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "to_chrome_trace",
    "to_jsonl",
    "parse_jsonl",
    "to_prometheus",
    "parse_prometheus",
]

# Absorb the legacy perf block: snapshots of the registry include the
# wire-fast-path counters, and merging a worker snapshot folds its perf
# deltas into this process's PERF.  register_collector is idempotent.
REGISTRY.register_collector("perf", PERF.snapshot, PERF.absorb)

#: The PR 7 batch-plane counters, re-exported as one labeled counter
#: family so ``repro run --metrics-out`` emits them as
#: ``batch_plane_ops_total{op="cam_sweeps"}`` instead of burying them in
#: the flat perf collector block.
_BATCH_PLANE_OPS = (
    "batch_flushes",
    "batched_items",
    "cam_sweeps",
    "cam_sweep_skips",
    "nic_batch_filtered",
)


def _sync_batch_plane() -> None:
    """Mirror PERF's batch-plane attributes into a labeled family.

    Runs before every registry snapshot (see ``register_sync``).  Mirror
    semantics — child values are *set* from PERF, not incremented — keep
    the family correct even after a worker snapshot was merged twice
    (PERF.absorb already folded the worker delta; the next sync
    overwrites any double-add).
    """
    family = REGISTRY.counter(
        "batch_plane_ops_total",
        "Batched data-plane operations (mirrored from repro.perf.PERF)",
        labels=("op",),
    )
    for op in _BATCH_PLANE_OPS:
        family.labels(op=op).value = float(getattr(PERF, op))


REGISTRY.register_sync("batch_plane", _sync_batch_plane)
