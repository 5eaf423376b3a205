"""The benchmark's four workloads.

Every workload is driven the same way by ``run.py``: ``prepare(seed)``
generates the inputs once, then the run repeats *epochs*.  An epoch is
``setup()`` (timed on its own, the ``setup_s`` samples), the timed
``operations()`` and an untimed ``finish()`` that checks the epoch as a
whole.  Each epoch starts from a fresh topology and does the same work,
so memory and per-epoch checks do not depend on how many epochs fit in
the run.  Throughput counts come from the workload's own inputs and
outputs (answered pings, trace frames, frames x receivers, cells), never
from program counters.
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.analysis.pcap import PcapWriter
from repro.core import api
from repro.l2.topology import Campus, Lan
from repro.replay.sources import open_source
from repro.schemes import make_defense
from repro.sim import ShardedSimulator, Simulator

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_artifacts.json"


@dataclass
class Outcome:
    """What one timed operation (or one epoch check) produced."""

    work: int = 0
    attempted: int = 0
    failed: int = 0
    #: Failures that produced a wrong output (the rest raised an error).
    wrong: int = 0

    def __iadd__(self, other: "Outcome") -> "Outcome":
        self.work += other.work
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        return self


Operation = Callable[[], Outcome]


class Workload:
    """One seeded input set and how to drive it through the program."""

    name = ""
    #: Name of the throughput metric (work per wall second).
    rate_name = ""
    #: Epochs in each pass of a traced run.
    trace_epochs = 1

    def prepare(self, seed: int, scratch: Path) -> dict:
        return {"seed": seed}

    def setup(self, ctx: dict) -> dict:
        raise NotImplementedError

    def operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        raise NotImplementedError

    def traced_operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        """The epoch the traced pass runs (and its untraced twin)."""
        return self.operations(ctx, state)

    def finish(self, ctx: dict, state: dict) -> Outcome:
        """Check the finished epoch; the default checks nothing."""
        return Outcome()

    def digest(self, state: dict) -> dict:
        """Simulated statistics that must not change between passes."""
        return {}

    def close(self, ctx: dict) -> None:
        """Remove whatever ``prepare``/``setup`` left on disk."""


def _same_epoch(ctx: dict, digest: dict) -> Outcome:
    """Every epoch of one seed must end with the first epoch's digest."""
    differs = int(digest != ctx.setdefault("digest", digest))
    return Outcome(attempted=1, failed=differs, wrong=differs)


# ----------------------------------------------------------------------
class CampusChurn(Workload):
    """Pings from a fixed set of talkers to random peers on a 1k campus."""

    name = "campus-churn"
    rate_name = "pings_per_s"
    trace_epochs = 2
    SHAPE = dict(buildings=4, leaves_per_building=5, hosts_per_leaf=50)
    TALKERS = 64
    SLICES = 8
    PINGS_PER_SLICE = 4
    #: Simulated length of one slice and the part of it pings start in;
    #: the rest leaves every ARP + echo exchange time to complete.
    SLICE_S = 0.02
    SEND_S = 0.005

    def prepare(self, seed: int, scratch: Path) -> dict:
        """Per slice: ``(talker, peer, send offset)`` by station index."""
        stations = 1
        for size in self.SHAPE.values():
            stations *= size
        talkers = range(0, stations, stations // self.TALKERS)[: self.TALKERS]
        rng = random.Random(f"{seed}/campus-churn")
        plan = []
        for _ in range(self.SLICES):
            pings = []
            while len(pings) < self.PINGS_PER_SLICE:
                talker = talkers[rng.randrange(len(talkers))]
                peer = rng.randrange(stations)
                if peer != talker:
                    pings.append((talker, peer, rng.random() * self.SEND_S))
            plan.append(pings)
        return {"seed": seed, "plan": plan}

    def setup(self, ctx: dict) -> dict:
        fabric = ShardedSimulator(seed=ctx["seed"])
        campus = Campus(fabric, **self.SHAPE)
        campus.add_monitor()
        scheme = make_defense("arpwatch")
        scheme.install(campus)
        stations = [h for h in campus.hosts.values() if h is not campus.monitor]
        return {"fabric": fabric, "scheme": scheme, "stations": stations, "answered": 0}

    def operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        for index, pings in enumerate(ctx["plan"]):
            yield partial(self._slice, state, index, pings)

    def _slice(self, state: dict, index: int, pings: list) -> Outcome:
        # Slice bounds are computed from integers, so one slice's end is
        # bit-for-bit the next one's start.
        start = index * self.SLICE_S
        fabric = state["fabric"]
        stations = state["stations"]
        replies: List[bool] = []
        for talker_index, peer_index, offset in pings:
            talker, peer = stations[talker_index], stations[peer_index]

            def on_reply(src, _rtt, peer=peer) -> None:
                replies.append(src == peer.ip)

            talker.sim.schedule_at(
                start + offset, partial(talker.ping, peer.ip, on_reply=on_reply)
            )
        fabric.run(until=(index + 1) * self.SLICE_S)
        answered = sum(replies)
        state["answered"] += answered
        missed = len(pings) - answered
        return Outcome(work=answered, attempted=len(pings), failed=missed, wrong=missed)

    def digest(self, state: dict) -> dict:
        return {
            "events": state["fabric"].events_processed,
            "alerts": len(state["scheme"].alerts),
            "answered": state["answered"],
        }

    def finish(self, ctx: dict, state: dict) -> Outcome:
        return _same_epoch(ctx, self.digest(state))


# ----------------------------------------------------------------------
class PcapReplay(Workload):
    """arpwatch over a seeded synthetic trace written to a pcap file."""

    name = "pcap-replay"
    rate_name = "frames_per_s"
    trace_epochs = 3
    FRAMES = 50_000
    REPLAYS = 4

    def prepare(self, seed: int, scratch: Path) -> dict:
        # Default mix: 5% ARP, 10% churn, 32 stations.
        spec = f"synthetic:frames={self.FRAMES},seed={seed}"
        reference = api.run("replay", source=spec, scheme="arpwatch")
        return {
            "seed": seed,
            "spec": spec,
            "path": scratch / f"trace-{seed}.pcap",
            "delivered": reference.delivered,
            "alerts": reference.alerts,
        }

    def setup(self, ctx: dict) -> dict:
        source = open_source(ctx["spec"])
        with PcapWriter(ctx["path"]) as writer:
            for timestamp, frame in source:
                writer.append_frame(timestamp, frame)
        source.close()
        return {"results": []}

    def operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        for _ in range(self.REPLAYS):
            yield partial(self._replay, ctx, state)

    def _replay(self, ctx: dict, state: dict) -> Outcome:
        result = api.run("replay", source=f"pcap:{ctx['path']}", scheme="arpwatch")
        state["results"].append(result)
        ok = (
            result.frames == self.FRAMES
            and result.delivered == ctx["delivered"]
            and result.alerts == ctx["alerts"]
        )
        if not ok:
            return Outcome(attempted=1, failed=1, wrong=1)
        return Outcome(work=self.FRAMES, attempted=1)

    def digest(self, state: dict) -> dict:
        return {
            "replays": [
                (r.frames, r.delivered, r.alerts, r.mode) for r in state["results"]
            ]
        }

    def close(self, ctx: dict) -> None:
        ctx["path"].unlink(missing_ok=True)


# ----------------------------------------------------------------------
class LanFlood(Workload):
    """One sender floods unknown-unicast bursts through a 48-host switch."""

    name = "lan-flood"
    rate_name = "deliveries_per_s"
    trace_epochs = 3
    HOSTS = 48
    SLICES = 5
    BURSTS_PER_SLICE = 100
    BURST_FRAMES = 32
    #: Bursts start this far apart, wider than link latency plus
    #: serialization, so each burst is delivered before the next leaves.
    GAP_S = 0.001
    LENGTHS = (64, 128, 256, 512, 1024)
    SOURCE_MAC = bytes.fromhex("020000000001")

    def prepare(self, seed: int, scratch: Path) -> dict:
        rng = random.Random(f"{seed}/lan-flood")
        slices = []
        for _ in range(self.SLICES):
            bursts = []
            for _ in range(self.BURSTS_PER_SLICE):
                length = self.LENGTHS[rng.randrange(len(self.LENGTHS))]
                burst = []
                for _ in range(self.BURST_FRAMES):
                    # Locally administered unicast destinations no
                    # station owns, so the switch floods every frame.
                    dst = b"\x02" + rng.randbytes(5)
                    payload = rng.randbytes(length - 14)
                    burst.append(dst + self.SOURCE_MAC + b"\x08\x00" + payload)
                bursts.append(burst)
            slices.append(bursts)
        return {"seed": seed, "slices": slices}

    def setup(self, ctx: dict) -> dict:
        sim = Simulator(seed=ctx["seed"])
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(self.HOSTS)]
        sender = hosts[0]
        receivers = [
            port.peer
            for port in lan.switch.ports
            if port.peer is not None and port.peer.device is not sender
        ]
        return {"sim": sim, "sender": sender, "receivers": receivers}

    def operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        for index, bursts in enumerate(ctx["slices"]):
            yield partial(self._slice, state, index * len(bursts), bursts)

    def _slice(self, state: dict, first: int, bursts: list) -> Outcome:
        """Send bursts ``first, first + 1, ...``; burst ``i`` leaves at ``i * GAP_S``."""
        sim = state["sim"]
        nic = state["sender"].nic
        receivers = state["receivers"]
        before = [port.rx_frames for port in receivers]
        for index, burst in enumerate(bursts, first):
            sim.schedule_at(index * self.GAP_S, partial(_send_burst, nic, burst))
        sim.run(until=(first + len(bursts)) * self.GAP_S)
        sent = sum(map(len, bursts))
        missed = sum(
            abs(port.rx_frames - seen - sent) for port, seen in zip(receivers, before)
        )
        attempted = sent * len(receivers)
        return Outcome(
            work=attempted - missed, attempted=attempted, failed=missed, wrong=missed
        )

    def digest(self, state: dict) -> dict:
        return {
            "events": state["sim"].events_processed,
            "rx": [port.rx_frames for port in state["receivers"]],
        }

    def finish(self, ctx: dict, state: dict) -> Outcome:
        return _same_epoch(ctx, self.digest(state))


def _send_burst(nic, burst: List[bytes]) -> None:
    for frame in burst:
        nic.transmit(frame)


# ----------------------------------------------------------------------
def paper_cells() -> List[dict]:
    """Every ``api.run`` cell behind Tables 2-4 and Figures 1-4.

    Parameters are the CLI defaults of ``repro table N``/``repro figure N``
    (see ``repro.core.report``), including Figure 2's 64-host column.
    """
    from repro.attacks.arp_poison import POISON_TECHNIQUES
    from repro.core.report import DETECTOR_KEYS, LATENCY_KEYS
    from repro.schemes.registry import SCHEME_FACTORIES

    schemes = list(SCHEME_FACTORIES)
    cells: List[dict] = []

    def add(artifact: str, kind: str, scheme: Optional[str], **params) -> None:
        cells.append(
            {"artifact": artifact, "kind": kind, "scheme": scheme, "params": params}
        )

    for scheme in [None] + schemes:
        for technique in POISON_TECHNIQUES:
            add("T2", "effectiveness", scheme, technique=technique)
    for scheme in schemes:
        add("T3", "false-positives", scheme, duration=900.0)
    for scheme in schemes:
        for n_hosts in (8, 16, 32):
            add("T4", "footprint", scheme, n_hosts=n_hosts)
    for rate in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        for scheme in DETECTOR_KEYS:
            add("F1", "detection-latency", scheme, poison_rate=rate)
    for n_hosts in (8, 16, 32, 64):
        for scheme in (None, "s-arp", "tarp", "active-probe"):
            add("F2", "overhead", scheme, n_hosts=n_hosts)
    for scheme in LATENCY_KEYS:
        add("F3", "resolution-latency", scheme, n_resolutions=30)
    for scheme in (None, "anticap", "dai", "s-arp", "hybrid"):
        add("F4", "interception-timeline", scheme, duration=120.0, attack_at=30.0)
    return cells


def cell_key(cell: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(cell["params"].items()))
    return f"{cell['artifact']}|{cell['kind']}|{cell['scheme'] or 'none'}|{params}"


def run_cell(cell: dict) -> dict:
    """One cell's result, normalised to what its JSON record holds."""
    result = api.run(cell["kind"], scheme=cell["scheme"], **cell["params"])
    return json.loads(json.dumps(result.to_dict()))


class PaperArtifacts(Workload):
    """Every cell of Tables 2-4 and Figures 1-4, one ``api.run`` each."""

    name = "paper-artifacts"
    rate_name = "cells_per_s"

    def prepare(self, seed: int, scratch: Path) -> dict:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
        cells = paper_cells()
        random.Random(f"{seed}/paper-artifacts").shuffle(cells)
        return {"seed": seed, "cells": cells, "golden": golden}

    def setup(self, ctx: dict) -> dict:
        return {"errors": {}, "unverified": []}

    def operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        return self._isolated(ctx, state, ctx["cells"])

    def traced_operations(self, ctx: dict, state: dict) -> Iterator[Operation]:
        # Every other cell in artifact order: each artifact and scheme
        # still runs, and the untraced plus traced pass fit one run.
        return self._isolated(ctx, state, paper_cells()[::2])

    def _isolated(self, ctx: dict, state: dict, cells: List[dict]) -> Iterator[Operation]:
        for cell in cells:
            yield partial(self._cell, ctx, state, cell)
            # Between timed cells: collect the finished cell's topology so
            # no cell pays for, or peaks on top of, an earlier one's garbage.
            gc.collect()

    def _cell(self, ctx: dict, state: dict, cell: dict) -> Outcome:
        key = cell_key(cell)
        try:
            value = run_cell(cell)
        except Exception as exc:  # a crashing cell is a failed operation
            state["errors"][key] = f"{type(exc).__name__}: {exc}"
            return Outcome(attempted=1, failed=1)
        expected = ctx["golden"].get(key)
        if expected is None:
            # No recorded value (the cell crashed when the file was made).
            state["unverified"].append(key)
            return Outcome(work=1, attempted=1)
        if value != expected:
            state["errors"][key] = "output differs from the recorded value"
            return Outcome(attempted=1, failed=1, wrong=1)
        return Outcome(work=1, attempted=1)

    def digest(self, state: dict) -> dict:
        return {"errors": sorted(state["errors"])}

    def finish(self, ctx: dict, state: dict) -> Outcome:
        ctx.setdefault("errors", {}).update(state["errors"])
        return Outcome()


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (CampusChurn(), PcapReplay(), PaperArtifacts(), LanFlood())
}
