"""Devices, ports and links — the physical layer of the simulated LAN.

A :class:`Device` owns :class:`Port` objects; a :class:`Link` joins exactly
two ports and carries raw frame bytes between them with a configurable
propagation latency and serialization rate.

Capture is on demand.  A link or device records frames into a
:class:`~repro.sim.trace.TraceRecorder` only once one is attached: pass
``recorder=`` to a :class:`Link`, or call :meth:`Device.capture`.  Until
then its ``recorder`` is ``None`` and a frame costs one ``is None``
check, so an unobserved device holds no capture memory however much
traffic it carries.  Whatever reads a capture attaches it first: the
monitor station (``add_monitor``), the overhead experiment's switch
count, sniffers and tests.

Every frame takes one delivery path, built for batches: a port hands its
link a frame batch (:meth:`Port.transmit_batch`), the link hands each
frame to :meth:`Simulator.coalesce <repro.sim.simulator.Simulator.coalesce>`
at its arrival time, and the receiving port passes what arrives together
to :meth:`Device.on_frame_batch`.  The single-frame methods
(:meth:`Port.transmit`, :meth:`Link.carry`, :meth:`Port.deliver`) are
batches of one.  Whether same-instant frames share a delivery event is
the simulator's choice (``Simulator(batching=)``); fault-injection hooks
on :attr:`Link.faults` transform every frame individually, in wire order,
either way.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import PortError, TopologyError
from repro.hooks import HookPoint
from repro.sim.simulator import Simulator
from repro.sim.trace import Direction, TraceRecorder

__all__ = ["Device", "Port", "Link"]

#: Default one-way propagation latency for a LAN segment, seconds.
DEFAULT_LATENCY = 50e-6
#: Default link rate, bits per second (100 Mb/s FastEthernet).
DEFAULT_RATE_BPS = 100e6


class Port:
    """One attachment point on a device."""

    def __init__(self, device: "Device", index: int, name: str = "") -> None:
        self.device = device
        self.index = index
        self.name = name or f"{device.name}.eth{index}"
        self.link: Optional["Link"] = None
        self.peer: Optional["Port"] = None  # opposite end, set by Link
        self.up = True
        self.tx_frames = 0
        self.rx_frames = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    @property
    def attached(self) -> bool:
        return self.link is not None

    def transmit(self, data: bytes) -> None:
        """Send raw frame bytes out this port (no-op when down/unattached)."""
        self.transmit_batch((data,))

    def transmit_batch(self, datas: Sequence[bytes]) -> None:
        """Send frames out this port, in order (no-op when down/unattached)."""
        link = self.link
        if link is None or not self.up or not datas:
            return
        self.tx_frames += len(datas)
        self.tx_bytes += sum(map(len, datas))
        link.carry_batch(self, datas)

    def deliver(self, data: bytes) -> None:
        """Hand one frame arriving at this port to the device."""
        self.deliver_batch((data,))

    def deliver_batch(self, datas: Sequence[bytes]) -> None:
        """Delivery sink: a batch of frames arriving together.

        The whole batch shares one administrative state: a port that went
        down before the flush drops every frame in it, exactly as it
        would have dropped each frame arriving individually.
        """
        if not self.up:
            return
        self.rx_frames += len(datas)
        self.rx_bytes += sum(map(len, datas))
        self.device.on_frame_batch(self, datas)

    def shut(self) -> None:
        """Administratively disable the port (what port security does)."""
        self.up = False

    def no_shut(self) -> None:
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Port({self.name}, {state})"


class Link:
    """A full-duplex point-to-point segment between two ports."""

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        latency: float = DEFAULT_LATENCY,
        rate_bps: float = DEFAULT_RATE_BPS,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        if a is b:
            raise TopologyError("cannot link a port to itself")
        for port in (a, b):
            if port.attached:
                raise PortError(f"{port.name} is already attached")
        if latency < 0:
            raise TopologyError(f"negative latency: {latency}")
        if rate_bps <= 0:
            raise TopologyError(f"non-positive rate: {rate_bps}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.rate_bps = rate_bps
        self.recorder = recorder
        self._seconds_per_byte = 8.0 / rate_bps
        a.link = self
        b.link = self
        a.peer = b
        b.peer = a
        self.frames_carried = 0
        self.bytes_carried = 0
        #: Fault-injection surface (``repro.faults``): transform hooks
        #: rewrite the delivery plan ``((extra_delay, payload), ...)``.
        self.faults: HookPoint = HookPoint(
            "link.faults", node=f"{a.name}|{b.name}", fallback_label="faults"
        )

    def other_end(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise PortError(f"{port.name} is not an endpoint of this link")

    def carry(self, sender: Port, data: bytes) -> None:
        """Propagate ``data`` from ``sender`` to the opposite port."""
        self.carry_batch(sender, (data,))

    def carry_batch(self, sender: Port, datas: Sequence[bytes]) -> None:
        """Propagate a frame batch from ``sender`` to the opposite port.

        Counters and capture are updated per frame (a sniffer on the link
        sees exactly the per-frame trace), faults transform each frame in
        batch (== wire) order with unchanged RNG draw order, and each
        frame is handed to the simulator at its own arrival time — frames
        of equal length arrive together.
        """
        receiver = sender.peer
        if receiver is None:
            receiver = self.other_end(sender)  # defensive; peers are set on link-up
        sim = self.sim
        now = sim.now
        self.frames_carried += len(datas)
        self.bytes_carried += sum(map(len, datas))
        if self.recorder is not None:
            record = self.recorder.record
            name = sender.name
            for data in datas:
                record(now, name, Direction.TX, data)
        latency = self.latency
        spb = self._seconds_per_byte
        coalesce = sim.coalesce
        if self.faults.hooks:
            # Impairment hooks rewrite each frame's delivery plan: every
            # entry is (extra_delay, payload); an empty plan means the
            # frame is lost.
            plans = self.faults.transform_batch(
                [((0.0, data),) for data in datas], self, sender
            )
            for plan in plans:
                for extra, payload in plan:
                    when = now + (latency + len(payload) * spb + extra)
                    coalesce(when, receiver, (payload,))
            return
        if len(datas) == 1:  # host egress and batches of one: no grouping
            coalesce(now + (latency + len(datas[0]) * spb), receiver, datas)
            return
        # Group by frame length (== by arrival time): the common flood
        # batch is uniform, so this is one accumulator probe for the lot.
        by_len: dict = {}
        for data in datas:
            group = by_len.get(len(data))
            if group is None:
                by_len[len(data)] = [data]
            else:
                group.append(data)
        for length, group in by_len.items():
            coalesce(now + (latency + length * spb), receiver, group)

    def disconnect(self) -> None:
        """Tear the link down (cable pull)."""
        self.a.link = None
        self.b.link = None
        self.a.peer = None
        self.b.peer = None

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name})"


class Device:
    """Base class for anything with ports (hosts, switches, hubs)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        #: Frame capture, attached by :meth:`capture`; ``None`` records nothing.
        self.recorder: Optional[TraceRecorder] = None

    def capture(self) -> TraceRecorder:
        """Start capturing this device's frames; returns the recorder.

        The first call attaches a :class:`TraceRecorder`; later calls
        return that same recorder.  Frames seen before the first call
        are not in it.
        """
        if self.recorder is None:
            self.recorder = TraceRecorder()
        return self.recorder

    def add_port(self, name: str = "") -> Port:
        port = Port(self, index=len(self.ports), name=name)
        self.ports.append(port)
        return port

    def on_frame(self, port: Port, data: bytes) -> None:
        """Handle a frame arriving on ``port``.  Subclasses override."""
        raise NotImplementedError

    def on_frame_batch(self, port: Port, datas: Sequence[bytes]) -> None:
        """Handle a batch of frames arriving together on ``port``.

        Every delivery lands here.  The default unrolls to
        :meth:`on_frame` in batch (== wire) order, so devices without a
        batch receive path behave exactly as if each frame had arrived on
        its own event.  The switch and host override this with their one
        receive path, and make :meth:`on_frame` a batch of one.
        """
        on_frame = self.on_frame
        for data in datas:
            on_frame(port, data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, ports={len(self.ports)})"
