"""The layer map: which program entry points the traced pass wraps.

Each layer is named after the repro module that implements it.  The
counts kept here are taken at the layer boundary from the arguments and
results of the wrapped call (frame bytes, batch lengths, returned
statistics), so ratios are measured where the work happens.  Counters
the program itself keeps are read only where the table in README.md says
so: the ``PERF`` block for ``packets``/``net`` and coalescing, and the
metrics registry for scheme alerts.
"""

from __future__ import annotations

from typing import Dict, Mapping

from tracing import BOOKKEEPING, Tracer

_ET_ARP = b"\x08\x06"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; undo with ``tracer.uninstall()``."""
    from repro.core import api
    from repro.crypto.keys import PrivateKey, PublicKey
    from repro.hooks import HookPoint
    from repro.l2.device import Link, Port
    from repro.l2.switch import Switch
    from repro.l2.topology import Campus, Lan
    from repro.net.addresses import Ipv4Address
    from repro.replay.engine import ReplayEngine
    from repro.replay.sources import PcapSource
    from repro.sim import ShardedSimulator, Simulator
    from repro.sim.partition import Boundary
    from repro.sim.trace import TraceRecorder
    from repro.stack.host import Host

    counts = tracer.counts
    wrap = tracer.wrap

    # -- sim: the event loop -------------------------------------------
    def sim_enter(args) -> None:
        counts["sim.events"] -= args[0].events_processed

    def sim_exit(args, _result) -> None:
        counts["sim.events"] += args[0].events_processed

    for cls, attr in (
        (Simulator, "run"),
        (Simulator, "step"),
        (Simulator, "advance_to"),
        (ShardedSimulator, "run"),
    ):
        wrap(cls, attr, "sim", sim_enter, sim_exit)

    # -- l2.link: links, partition boundaries and port delivery ---------
    def carry_one(_args) -> None:
        counts["l2.link.calls"] += 1
        counts["l2.link.frames"] += 1

    def carry_many(args) -> None:
        counts["l2.link.calls"] += 1
        counts["l2.link.frames"] += len(args[2])

    for cls in (Link, Boundary):
        wrap(cls, "carry", "l2.link", carry_one)
        wrap(cls, "carry_batch", "l2.link", carry_many)
    wrap(Port, "deliver", "l2.link")
    wrap(Port, "deliver_batch", "l2.link")

    # -- l2.switch: learning switch data plane + CAM ---------------------
    def switch_one(_args) -> None:
        counts["l2.switch.frames"] += 1

    def switch_many(args) -> None:
        counts["l2.switch.frames"] += len(args[2])

    def switch_per_frame(_args) -> None:
        counts["l2.switch.per_frame"] += 1

    wrap(Switch, "on_frame", "l2.switch", switch_one, on_call=switch_per_frame)
    wrap(Switch, "on_frame_batch", "l2.switch", switch_many)

    # -- stack: host NIC, ARP and IP ---------------------------------------
    def host_rx(host, datas) -> None:
        counts["stack.frames"] += len(datas)
        nic_filter = not host.frame_taps.hooks and not host.promiscuous
        mine = host.mac.packed
        own_ip = host.ip.packed if host.ip is not None else None
        filtered = arp = useful = 0
        for data in datas:
            if nic_filter and len(data) >= 14 and not data[0] & 1 and data[:6] != mine:
                filtered += 1
                continue
            if data[12:14] != _ET_ARP:
                continue
            arp += 1
            if len(data) < 42:
                continue
            if data[38:42] == own_ip:
                useful += 1
                continue
            sender = Ipv4Address(data[28:32])
            if sender in host.arp_cache or host.is_resolving(sender):
                useful += 1
        counts["stack.nic_filtered"] += filtered
        counts["stack.arp_frames"] += arp
        counts["stack.arp_useful"] += useful

    wrap(Host, "on_frame", "stack", lambda args: host_rx(args[0], (args[2],)))
    wrap(Host, "on_frame_batch", "stack", lambda args: host_rx(args[0], args[2]))
    wrap(Host, "ping", "stack")

    # -- capture: per-device frame capture rings ---------------------------
    def record(_args) -> None:
        counts["capture.records"] += 1

    wrap(TraceRecorder, "record", "capture", record)
    tracer.track_recorders(TraceRecorder)

    # -- schemes: hook points and the scheme code behind them -------------
    def hook(args) -> None:
        if args[0].hooks:
            counts["schemes.hook_calls"] += 1

    for attr in ("emit", "emit_batch", "verdict", "allow", "transform", "transform_batch"):
        wrap(HookPoint, attr, "schemes", hook)

    # -- crypto: S-ARP/TARP signatures ---------------------------------------
    def sign(_args) -> None:
        counts["crypto.signs"] += 1

    def verify(_args) -> None:
        counts["crypto.verifies"] += 1

    wrap(PrivateKey, "sign", "crypto", sign)
    wrap(PublicKey, "verify", "crypto", verify)

    # -- replay: trace source and engine -------------------------------------
    def source_item(item) -> None:
        counts["replay.source.frames"] += 1
        counts["replay.source.bytes"] += 16 + len(item[1])  # pcap record header

    def source_open() -> None:
        counts["replay.source.bytes"] += 24  # pcap global header

    tracer.wrap_iterator(PcapSource, "replay.source", source_item, source_open)

    def engine_exit(_args, stats) -> None:
        counts["replay.engine.frames"] += stats["frames"]
        counts["replay.engine.delivered"] += stats["delivered"]

    wrap(ReplayEngine, "run", "replay.engine", on_exit=engine_exit)

    # -- setup: topology construction; api: one experiment cell ------------
    for cls, attr in (
        (Lan, "__init__"),
        (Lan, "add_host"),
        (Lan, "add_dhcp_host"),
        (Lan, "add_monitor"),
        (Lan, "add_switch"),
        (Campus, "__init__"),
        (Campus, "add_monitor"),
    ):
        wrap(cls, attr, "setup")
    wrap(api, "run", "api")


#: Per-layer metrics, in report order, with their units.
UNITS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.items_per_flush": "frames",
    "l2.link.calls": "count",
    "l2.link.frames": "count",
    "l2.link.busy_s": "s",
    "l2.link.frames_per_call": "frames",
    "l2.switch.frames": "count",
    "l2.switch.busy_s": "s",
    "l2.switch.slow_path_ratio": "ratio",
    "stack.frames": "count",
    "stack.busy_s": "s",
    "stack.nic_filtered_ratio": "ratio",
    "stack.arp_frames": "count",
    "stack.arp_useful_ratio": "ratio",
    "capture.records": "count",
    "capture.busy_s": "s",
    "capture.retained": "count",
    "capture.retained_mb": "MB",
    "schemes.hook_calls": "count",
    "schemes.busy_s": "s",
    "schemes.alerts": "count",
    "replay.source.frames": "count",
    "replay.source.busy_s": "s",
    "replay.source.mb_read": "MB",
    "replay.engine.self_s": "s",
    "replay.prefilter_pass_ratio": "ratio",
    "packets.payload_decode_ratio": "ratio",
    "packets.encode_memo_rate": "ratio",
    "net.intern_hit_rate": "ratio",
    "crypto.signs": "count",
    "crypto.verifies": "count",
    "crypto.busy_s": "s",
    "setup.build_s": "s",
    "api.cell_self_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    perf_delta: Mapping[str, float],
    alerts: int,
    retained: tuple,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, by their reported names.

    ``retained`` is ``(records, bytes)`` held by capture rings at the end
    of the pass.
    """
    c = tracer.counts
    s = tracer.self_s
    records, retained_bytes = retained
    return {
        "sim.events": c["sim.events"],
        "sim.self_s": s["sim"],
        "sim.items_per_flush": _ratio(
            perf_delta["batched_items"], perf_delta["batch_flushes"]
        ),
        "l2.link.calls": c["l2.link.calls"],
        "l2.link.frames": c["l2.link.frames"],
        "l2.link.busy_s": s["l2.link"],
        "l2.link.frames_per_call": _ratio(c["l2.link.frames"], c["l2.link.calls"]),
        "l2.switch.frames": c["l2.switch.frames"],
        "l2.switch.busy_s": s["l2.switch"],
        "l2.switch.slow_path_ratio": _ratio(
            c["l2.switch.per_frame"], c["l2.switch.frames"]
        ),
        "stack.frames": c["stack.frames"],
        "stack.busy_s": s["stack"],
        "stack.nic_filtered_ratio": _ratio(c["stack.nic_filtered"], c["stack.frames"]),
        "stack.arp_frames": c["stack.arp_frames"],
        "stack.arp_useful_ratio": _ratio(c["stack.arp_useful"], c["stack.arp_frames"]),
        "capture.records": c["capture.records"],
        "capture.busy_s": s["capture"],
        "capture.retained": records,
        "capture.retained_mb": retained_bytes / 1e6,
        "schemes.hook_calls": c["schemes.hook_calls"],
        "schemes.busy_s": s["schemes"],
        "schemes.alerts": alerts,
        "replay.source.frames": c["replay.source.frames"],
        "replay.source.busy_s": s["replay.source"],
        "replay.source.mb_read": c["replay.source.bytes"] / 1e6,
        "replay.engine.self_s": s["replay.engine"],
        "replay.prefilter_pass_ratio": _ratio(
            c["replay.engine.delivered"], c["replay.engine.frames"]
        ),
        "packets.payload_decode_ratio": _ratio(
            perf_delta["payload_decodes"], perf_delta["lazy_frames"]
        ),
        "packets.encode_memo_rate": _ratio(
            perf_delta["encodes_avoided"],
            perf_delta["encodes_avoided"] + perf_delta["packet_encodes"],
        ),
        "net.intern_hit_rate": _ratio(
            perf_delta["intern_hits"],
            perf_delta["intern_hits"] + perf_delta["intern_misses"],
        ),
        "crypto.signs": c["crypto.signs"],
        "crypto.verifies": c["crypto.verifies"],
        "crypto.busy_s": s["crypto"],
        "setup.build_s": s["setup"],
        "api.cell_self_s": s["api"],
        "trace.bookkeeping_s": s[BOOKKEEPING],
    }
