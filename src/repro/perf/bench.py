"""Wire fast-path microbenchmarks and the bench-regression gate.

Each benchmark measures one layer of the zero-copy wire path in
operations per second; :func:`run_suite` returns ``{name: ops_per_sec}``.
A committed baseline (``BENCH_wire.json`` at the repo root) plus
:func:`check` turn the suite into a regression gate: ``repro bench
--check`` fails when any benchmark drops below ``baseline * tolerance``.

The default tolerance is deliberately loose (0.5) because the suite runs
on shared CI machines; the gate exists to catch order-of-magnitude
regressions (an accidentally disabled memo cache, a quadratic decode),
not single-digit noise.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "BENCHMARKS",
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCE",
    "check",
    "expected_benchmark_names",
    "load_baseline",
    "run_suite",
    "write_baseline",
]

DEFAULT_BASELINE = "BENCH_wire.json"
DEFAULT_TOLERANCE = 0.5

#: Inner-loop iteration counts: full and --quick.
_ITERS = {"full": 20_000, "quick": 2_000}
_REPEATS = {"full": 5, "quick": 2}


# ----------------------------------------------------------------------
# Workload builders — each returns (callable, ops_per_call)
# ----------------------------------------------------------------------
def _sample_frame_bytes() -> bytes:
    from repro.net.addresses import MacAddress
    from repro.packets.ethernet import EtherType, EthernetFrame

    frame = EthernetFrame(
        dst=MacAddress("02:00:00:00:00:02"),
        src=MacAddress("02:00:00:00:00:01"),
        ethertype=EtherType.IPV4,
        payload=bytes(range(64)),
    )
    return frame.encode()


def _bench_encode_fresh() -> tuple:
    from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
    from repro.packets.arp import ArpOp, ArpPacket

    sha = MacAddress("02:00:00:00:00:01")
    spa = Ipv4Address("10.0.0.1")
    tpa = Ipv4Address("10.0.0.2")

    def work() -> None:
        ArpPacket(
            op=ArpOp.REQUEST, sha=sha, spa=spa, tha=BROADCAST_MAC, tpa=tpa
        ).encode()

    return work, 1


def _bench_encode_memoized() -> tuple:
    from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
    from repro.packets.arp import ArpOp, ArpPacket

    packet = ArpPacket(
        op=ArpOp.REQUEST,
        sha=MacAddress("02:00:00:00:00:01"),
        spa=Ipv4Address("10.0.0.1"),
        tha=BROADCAST_MAC,
        tpa=Ipv4Address("10.0.0.2"),
    )
    packet.encode()  # prime the memo

    def work() -> None:
        packet.encode()

    return work, 1


def _bench_decode_eager() -> tuple:
    from repro.packets.ethernet import EthernetFrame

    wire = _sample_frame_bytes()

    def work() -> None:
        EthernetFrame.decode(wire)

    return work, 1


def _bench_decode_lazy_header() -> tuple:
    from repro.packets.ethernet import EthernetFrame

    wire = _sample_frame_bytes()

    def work() -> None:
        EthernetFrame.lazy(wire)

    return work, 1


def _bench_checksum_odd() -> tuple:
    from repro.packets.base import internet_checksum

    data = bytes(range(256)) * 5 + b"\x7f"  # 1281 bytes, odd

    def work() -> None:
        internet_checksum(data)

    return work, 1


def _bench_intern_addresses() -> tuple:
    from repro.net.addresses import MacAddress

    packed = [bytes([2, 0, 0, 0, 0, i]) for i in range(16)]

    def work() -> None:
        for p in packed:
            MacAddress.from_wire(p)

    return work, len(packed)


def _bench_cam_lookup_batch() -> tuple:
    from repro.l2.cam import CamTable

    cam = CamTable(capacity=4096)
    packed = [bytes([2, 0, 0, 0, i >> 8, i & 0xFF]) for i in range(256)]
    for i, mac in enumerate(packed):
        cam.learn_wire(mac, i % 8, now=0.0)

    def work() -> None:
        cam.lookup_batch(packed, now=1.0)

    return work, len(packed)


def _bench_nic_batch_filter() -> tuple:
    from repro.net.addresses import MacAddress
    from repro.sim.simulator import Simulator
    from repro.stack.host import Host

    sim = Simulator(seed=3)
    host = Host(sim, "bench-host", mac=MacAddress("02:bb:00:00:00:01"))
    wire = _sample_frame_bytes()  # dst 02:00:00:00:00:02 — foreign unicast
    batch = [wire] * 64

    def work() -> None:
        host.on_frame_batch(host.nic, batch)

    return work, len(batch)


def _bench_broadcast_flood(quick: bool, batching: bool = True) -> float:
    """Headline number: end-to-end flood deliveries per second.

    One sender transmits unknown-unicast frames into a switched LAN; the
    switch floods each to every other port.  This exercises the whole
    stack — lazy decode at the switch, single-serialization flooding,
    the tuple-keyed event heap, coalesced batch dispatch (``batching``),
    and NIC-level filtering at the hosts.
    """
    from repro.l2.topology import Lan
    from repro.net.addresses import MacAddress
    from repro.packets.ethernet import EtherType, EthernetFrame
    from repro.packets.ipv4 import IpProto, Ipv4Packet
    from repro.sim.simulator import Simulator

    # Quick mode still needs wide-enough batches and a long-enough timed
    # region to sit within tolerance of the full-mode baseline; 8 hosts
    # puts the batched number at ~25% of it, 16 hosts at ~80%.
    n_hosts = 16 if quick else 24
    frames = 300 if quick else 400
    repeats = _REPEATS["quick" if quick else "full"]

    best = 0.0
    for _ in range(repeats):
        sim = Simulator(seed=11, batching=batching)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(n_hosts)]
        sender = hosts[0]
        sender.ping(hosts[1].ip)  # warm the CAM for the sender
        sim.run(until=1.0)
        phantom = MacAddress("02:de:ad:be:ef:01")  # unknown unicast -> flood
        packet = Ipv4Packet(
            src=sender.ip, dst=hosts[1].ip, proto=IpProto.UDP, payload=b"z" * 64
        )
        frame = EthernetFrame(
            dst=phantom, src=sender.mac, ethertype=EtherType.IPV4,
            payload=packet.encode(),
        )
        start = time.perf_counter()
        for _ in range(frames):
            sender.transmit_frame(frame)
        sim.run(until=sim.now + 5.0)
        elapsed = time.perf_counter() - start
        best = max(best, frames * (n_hosts - 1) / elapsed)
    return best


#: name -> builder returning (work, ops_per_call); the flood benchmark is
#: special-cased because it manages its own timing loop.
BENCHMARKS: Dict[str, Callable[[], tuple]] = {
    "encode_arp_fresh": _bench_encode_fresh,
    "encode_arp_memoized": _bench_encode_memoized,
    "decode_frame_eager": _bench_decode_eager,
    "decode_frame_lazy_header": _bench_decode_lazy_header,
    "checksum_odd_1281B": _bench_checksum_odd,
    "intern_mac_from_wire": _bench_intern_addresses,
    "cam_lookup_batch_wire": _bench_cam_lookup_batch,
    "nic_batch_filter": _bench_nic_batch_filter,
}

#: The flood keys run_suite adds beyond BENCHMARKS: the batched headline
#: and the batch-of-one plane (``Simulator(batching=False)``).
_FLOOD_BENCHMARKS = ("broadcast_flood_deliveries", "broadcast_flood_unbatched")


def expected_benchmark_names() -> frozenset:
    """Every key a full run of the suite produces.

    The committed baseline is validated against this set: a baseline key
    outside it means a benchmark was renamed or dropped without
    regenerating ``BENCH_wire.json`` — which :func:`check` then reports
    as "missing from current run" instead of silently ungating it.
    """
    return frozenset(BENCHMARKS) | frozenset(_FLOOD_BENCHMARKS)


def _time_ops(work: Callable[[], None], ops_per_call: int, quick: bool) -> float:
    mode = "quick" if quick else "full"
    iters = _ITERS[mode]
    best = 0.0
    for _ in range(_REPEATS[mode]):
        start = time.perf_counter()
        for _ in range(iters):
            work()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, iters * ops_per_call / elapsed)
    return best


def run_suite(quick: bool = False) -> Dict[str, float]:
    """Run every benchmark; returns ``{name: ops_per_sec}``.

    The flood runs twice: batched (the headline) and unbatched, which
    gates the batch-of-one delivery every traced run takes.
    """
    results: Dict[str, float] = {}
    for name, builder in BENCHMARKS.items():
        work, ops_per_call = builder()
        results[name] = _time_ops(work, ops_per_call, quick)
    results["broadcast_flood_unbatched"] = _bench_broadcast_flood(
        quick, batching=False
    )
    results["broadcast_flood_deliveries"] = _bench_broadcast_flood(
        quick, batching=True
    )
    return results


# ----------------------------------------------------------------------
# Baseline I/O and the gate
# ----------------------------------------------------------------------
def write_baseline(path: Path, results: Dict[str, float]) -> None:
    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "note": "ops/sec; regenerate with: repro bench --update",
        },
        "results": {name: round(ops, 1) for name, ops in results.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path) -> Dict[str, float]:
    payload = json.loads(path.read_text())
    return {name: float(ops) for name, ops in payload["results"].items()}


def check(
    results: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
    allow_missing: frozenset = frozenset(),
) -> List[str]:
    """Compare ``results`` to ``baseline``; returns failure messages.

    A benchmark fails when it is missing from ``results`` or its
    throughput fell below ``baseline * tolerance``.  Benchmarks present
    only in ``results`` (newly added, no baseline yet) pass.  Baseline
    keys in ``allow_missing`` may be absent from ``results`` without
    failing — how ``--no-scale`` / ``--quick`` runs skip what they do
    not measure.
    """
    failures: List[str] = []
    for name, base_ops in sorted(baseline.items()):
        current = results.get(name)
        if current is None:
            if name not in allow_missing:
                failures.append(f"{name}: missing from current run")
            continue
        floor = base_ops * tolerance
        if current < floor:
            failures.append(
                f"{name}: {current:,.0f} ops/s < floor {floor:,.0f} "
                f"(baseline {base_ops:,.0f} x tolerance {tolerance})"
            )
    return failures


def format_results(
    results: Dict[str, float], baseline: Optional[Dict[str, float]] = None
) -> str:
    lines = []
    width = max(len(n) for n in results)
    for name, ops in results.items():
        line = f"  {name:<{width}}  {ops:>14,.0f} ops/s"
        if baseline and name in baseline and baseline[name] > 0:
            line += f"  ({ops / baseline[name]:.2f}x baseline)"
        lines.append(line)
    return "\n".join(lines)
