"""Campus-scale benchmarks and the ``BENCH_scale.json`` gate.

Companion to :mod:`repro.perf.bench` (which gates the single-LAN wire
fast path): this suite measures the partitioned engine on spine-leaf
topologies — topology build rate and aggregate batched-plane delivery
throughput, unsharded vs sharded — and gates them against a committed
``BENCH_scale.json`` with the same :func:`~repro.perf.bench.check`
machinery, via ``repro scale --check`` (and folded into ``repro bench
--check``).

Baseline keys the current run legitimately lacks go in the caller's
``allow_missing``: :data:`SCALE_FULL_ONLY` for ``--quick`` runs (the
10k-host cell only runs full), :data:`SCALE_BENCHMARKS` entirely when the
scale suite is skipped (``--no-scale``).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.scale import _run_campus_churn
from repro.l2.topology import Campus
from repro.sim import Simulator

__all__ = [
    "DEFAULT_SCALE_BASELINE",
    "SCALE_BENCHMARKS",
    "SCALE_FULL_ONLY",
    "run_scale_suite",
]

#: Committed baseline filename (repo root, next to BENCH_wire.json).
DEFAULT_SCALE_BASELINE = "BENCH_scale.json"

#: Every key the scale suite can produce.
SCALE_BENCHMARKS = frozenset(
    {
        "campus_build_hosts_per_sec",
        "campus_churn_deliveries",
        "campus_churn_sharded_deliveries",
        "campus_churn_10k_deliveries",
    }
)

#: Keys only a full (non ``--quick``) run produces.
SCALE_FULL_ONLY = frozenset({"campus_churn_10k_deliveries"})

#: The 1k-host cell both modes run: 4 buildings x 5 leaves x 50 hosts.
_CELL_1K = dict(buildings=4, leaves_per_building=5, hosts_per_leaf=50)
#: The 10k-host cell (full mode): 10 x 10 x 100.
_CELL_10K = dict(buildings=10, leaves_per_building=10, hosts_per_leaf=100)


def _bench_build(quick: bool) -> float:
    """Hosts wired per second of topology construction (O(n) build gate)."""
    cell = _CELL_1K
    best = 0.0
    for _ in range(2 if quick else 3):
        sim = Simulator(seed=7)
        start = time.perf_counter()
        campus = Campus(sim, **cell)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, campus.total_hosts / elapsed)
    return best


def _bench_churn(quick: bool, shards: int, cell: Dict[str, int]) -> float:
    """Aggregate batched-plane deliveries/sec for one churn cell."""
    result = _run_campus_churn(
        None,
        talkers=24 if quick else 64,
        duration=0.8 if quick else 1.5,
        shards=shards,
        **cell,
    )
    return result.deliveries_per_sec


def run_scale_suite(quick: bool = False) -> Dict[str, float]:
    """Run the scale benchmarks; returns ``{name: ops_per_sec}``."""
    results: Dict[str, float] = {}
    results["campus_build_hosts_per_sec"] = _bench_build(quick)
    results["campus_churn_deliveries"] = _bench_churn(quick, shards=0, cell=_CELL_1K)
    results["campus_churn_sharded_deliveries"] = _bench_churn(
        quick, shards=1, cell=_CELL_1K
    )
    if not quick:
        results["campus_churn_10k_deliveries"] = _bench_churn(
            quick, shards=1, cell=_CELL_10K
        )
    return results
