"""Wire fast-path performance counters.

The hot path of the simulation is the L2 wire: every frame hop encodes,
carries, and decodes bytes.  The fast path introduced with this module
avoids most of that work — immutable packets memoize their serialization,
received frames are parsed lazily (header first, payload only on demand),
floods reuse a single encoded buffer, and hot addresses are interned.

:data:`PERF` is the process-global counter block those optimizations
report into.  It answers "did the fast path actually engage?" without a
profiler: encodes avoided, payload decodes skipped, flood buffers reused
and the address-intern hit rate.  Counters are plain attribute increments
so the instrumentation itself stays off the profile.

Counters are cumulative for the process; :meth:`PerfCounters.reset`
re-baselines everything (including the intern-cache statistics, which
live in :mod:`repro.net.addresses`).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["PerfCounters", "PERF"]


class PerfCounters:
    """Process-wide counters for the wire fast path."""

    #: Additive counters — plain ints a foreign snapshot can be folded
    #: into (see :meth:`absorb`); intern stats are derived, not additive.
    ADDITIVE = (
        "packet_encodes",
        "encodes_avoided",
        "lazy_frames",
        "payload_decodes",
        "eager_decodes",
        "flood_buffer_reuses",
        "trace_drops",
        "hook_errors",
        "dedup_evictions",
        "batch_flushes",
        "batched_items",
        "nic_batch_filtered",
        "arp_rx_skipped",
        "cam_sweeps",
        "cam_sweep_skips",
    )

    __slots__ = ADDITIVE + (
        "_intern_hits_base",
        "_intern_misses_base",
    )

    def __init__(self) -> None:
        self.packet_encodes = 0
        self.encodes_avoided = 0
        self.lazy_frames = 0
        self.payload_decodes = 0
        self.eager_decodes = 0
        self.flood_buffer_reuses = 0
        self.trace_drops = 0
        #: Hook exceptions isolated by the pipeline (repro.hooks).
        self.hook_errors = 0
        #: Alert-dedup LRU evictions (bounded Scheme._dedup_seen).
        self.dedup_evictions = 0
        #: Coalesced-batch flush events dispatched by the simulator.
        self.batch_flushes = 0
        #: Frames delivered through coalesced batches (vs one event each).
        self.batched_items = 0
        #: Foreign unicast frames dropped by the vectorized NIC filter
        #: without an event, a frame view, or a per-frame Python call.
        self.nic_batch_filtered = 0
        #: ARP requests a host counted and ignored from their wire bytes,
        #: without decoding them (the host's ARP early-out).
        self.arp_rx_skipped = 0
        #: CAM aging sweeps actually performed (full dict walks).
        self.cam_sweeps = 0
        #: CAM sweeps skipped by the next-expiry watermark.
        self.cam_sweep_skips = 0
        self._intern_hits_base = 0
        self._intern_misses_base = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter and re-baseline the intern statistics."""
        hits, misses = self._intern_totals()
        for name in self.ADDITIVE:
            setattr(self, name, 0)
        self._intern_hits_base = hits
        self._intern_misses_base = misses

    @staticmethod
    def _intern_totals() -> tuple[int, int]:
        from repro.net.addresses import intern_stats

        return intern_stats()

    # ------------------------------------------------------------------
    @property
    def lazy_decodes_skipped(self) -> int:
        """Lazy frame views whose payload was never materialized."""
        return max(0, self.lazy_frames - self.payload_decodes)

    @property
    def intern_hits(self) -> int:
        return self._intern_totals()[0] - self._intern_hits_base

    @property
    def intern_misses(self) -> int:
        return self._intern_totals()[1] - self._intern_misses_base

    @property
    def intern_hit_rate(self) -> float:
        hits, misses = self.intern_hits, self.intern_misses
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def encode_memo_rate(self) -> float:
        total = self.packet_encodes + self.encodes_avoided
        return self.encodes_avoided / total if total else 0.0

    @property
    def batch_coalesce_rate(self) -> float:
        """Fraction of batched frames that shared a flush event."""
        items = self.batched_items
        if not items:
            return 0.0
        return (items - self.batch_flushes) / items

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe point-in-time view of every counter."""
        return {
            "packet_encodes": self.packet_encodes,
            "encodes_avoided": self.encodes_avoided,
            "encode_memo_rate": round(self.encode_memo_rate, 4),
            "lazy_frames": self.lazy_frames,
            "payload_decodes": self.payload_decodes,
            "lazy_decodes_skipped": self.lazy_decodes_skipped,
            "eager_decodes": self.eager_decodes,
            "flood_buffer_reuses": self.flood_buffer_reuses,
            "trace_drops": self.trace_drops,
            "hook_errors": self.hook_errors,
            "dedup_evictions": self.dedup_evictions,
            "batch_flushes": self.batch_flushes,
            "batched_items": self.batched_items,
            "batch_coalesce_rate": round(self.batch_coalesce_rate, 4),
            "nic_batch_filtered": self.nic_batch_filtered,
            "arp_rx_skipped": self.arp_rx_skipped,
            "cam_sweeps": self.cam_sweeps,
            "cam_sweep_skips": self.cam_sweep_skips,
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "intern_hit_rate": round(self.intern_hit_rate, 4),
        }

    def delta_since(self, before: Dict[str, object]) -> Dict[str, int]:
        """Additive-counter deltas vs an earlier :meth:`snapshot`.

        Campaign fork-workers inherit the parent's counter values, so
        shipping absolute snapshots home would double-count everything
        accumulated before the fork; workers ship deltas instead.
        """
        return {
            name: getattr(self, name) - int(before.get(name, 0))
            for name in self.ADDITIVE
        }

    def absorb(self, delta: Dict[str, object]) -> None:
        """Fold a foreign additive snapshot/delta into this block.

        Registered with the metrics registry as the ``perf`` collector's
        merge hook; unknown and derived keys are ignored.
        """
        for name in self.ADDITIVE:
            value = delta.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                setattr(self, name, getattr(self, name) + int(value))

    def summary(self) -> str:
        """One-line human summary (used by campaign reports)."""
        drops = f", trace-drops={self.trace_drops}" if self.trace_drops else ""
        if self.hook_errors:
            drops += f", hook-errors={self.hook_errors}"
        batched = ""
        if self.batched_items:
            batched = (
                f", batched-frames={self.batched_items} "
                f"({self.batch_coalesce_rate:.0%} coalesced)"
            )
        return (
            f"encodes={self.packet_encodes} "
            f"avoided={self.encodes_avoided} ({self.encode_memo_rate:.0%} memoized), "
            f"lazy-views={self.lazy_frames} "
            f"payload-decodes-skipped={self.lazy_decodes_skipped}, "
            f"flood-buffer-reuses={self.flood_buffer_reuses}, "
            f"intern-hit-rate={self.intern_hit_rate:.0%}" + batched + drops
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCounters({self.snapshot()})"


#: The process-global counter block every fast-path site reports into.
PERF = PerfCounters()
