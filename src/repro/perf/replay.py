"""Replay-path benchmarks and the ``BENCH_replay.json`` gate.

Companion to :mod:`repro.perf.bench` and :mod:`repro.perf.scale`: this
suite measures the streaming-ingest path of :mod:`repro.replay` — raw
synthetic-source generation, pcap parsing out of :class:`PcapSource`,
the batched engine with no scheme installed, and the headline cell, a
full arpwatch replay — and gates
them against a committed ``BENCH_replay.json`` with the same
:func:`~repro.perf.bench.check` machinery, folded into ``repro bench
--check`` exactly like the scale suite.

The headline key ``replay_arpwatch_fps`` is the ISSUE target: a
synthetic trace replayed under arpwatch must sustain >500k frames/sec
through the batched monitor tap.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict

from repro.analysis.pcap import PcapWriter
from repro.replay.engine import _run_replay
from repro.replay.sources import FrameSource, PcapSource, SyntheticSource

__all__ = [
    "DEFAULT_REPLAY_BASELINE",
    "REPLAY_BENCHMARKS",
    "REPLAY_FULL_ONLY",
    "run_replay_suite",
]

#: Committed baseline filename (repo root, next to BENCH_wire.json).
DEFAULT_REPLAY_BASELINE = "BENCH_replay.json"

#: Every key the replay suite can produce.
REPLAY_BENCHMARKS = frozenset(
    {
        "replay_source_fps",
        "replay_pcap_source_fps",
        "replay_engine_fps",
        "replay_arpwatch_fps",
    }
)

#: Keys only a full (non ``--quick``) run produces (none today; the
#: suite just shrinks the trace under ``--quick``).
REPLAY_FULL_ONLY = frozenset()


def _trace(frames: int) -> SyntheticSource:
    """The canonical benchmark trace: default mix, fixed seed."""
    return SyntheticSource(frames=frames, seed=7)


def _bench_source(source: FrameSource, quick: bool) -> float:
    """Best rate (frames/sec) of iterating a re-iterable source to its end."""
    best = 0.0
    for _ in range(2 if quick else 3):
        start = time.perf_counter()
        n = sum(1 for _ in source)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, n / elapsed)
    return best


def _bench_pcap_source(frames: int, quick: bool) -> float:
    """pcap parse rate out of :class:`PcapSource`.

    The canonical trace is written to a temporary pcap once; only the
    reads are timed.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.pcap"
        with PcapWriter(path) as writer:
            for timestamp, frame in _trace(frames):
                writer.append_frame(timestamp, frame)
        return _bench_source(PcapSource(path), quick)


def _bench_engine(quick: bool, scheme: str | None) -> float:
    """Batched engine ingest rate (frames/sec), optionally under a scheme."""
    frames = 100_000 if quick else 300_000
    best = 0.0
    for _ in range(2 if quick else 3):
        result = _run_replay(scheme, source=_trace(frames))
        best = max(best, result.frames_per_sec)
    return best


def run_replay_suite(quick: bool = False) -> Dict[str, float]:
    """Run the replay benchmarks; returns ``{name: frames_per_sec}``."""
    results: Dict[str, float] = {}
    frames = 100_000 if quick else 200_000
    results["replay_source_fps"] = _bench_source(_trace(frames), quick)
    results["replay_pcap_source_fps"] = _bench_pcap_source(frames, quick)
    results["replay_engine_fps"] = _bench_engine(quick, scheme=None)
    results["replay_arpwatch_fps"] = _bench_engine(quick, scheme="arpwatch")
    return results


if __name__ == "__main__":  # regenerate the committed baseline
    import sys
    from pathlib import Path

    from repro.perf.bench import format_results, write_baseline

    results = run_replay_suite(quick="--quick" in sys.argv)
    print(format_results(results, None))
    if "--update" in sys.argv:
        path = Path(__file__).resolve().parents[3] / DEFAULT_REPLAY_BASELINE
        write_baseline(path, results)
        print(f"# baseline written to {path}")
