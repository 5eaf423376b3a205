"""Observe on demand: capture only where something reads it, and the
host's ARP early-out.

Devices record frames only after :meth:`Device.capture` attaches a
recorder; the monitor station is the one reader the topologies attach.
A host that nothing observes counts a useless broadcast ARP request from
its wire bytes and skips the decode; the property below pins that this
early-out leaves every piece of host state exactly as the full receive
path leaves it.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.l2.device import Link
from repro.l2.hub import Hub
from repro.l2.topology import Campus, Lan
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, Ipv4Network, MacAddress
from repro.obs.trace import TRACER
from repro.packets.arp import SARP_MAGIC, TARP_MAGIC
from repro.perf import PERF
from repro.sim import Simulator
from repro.sim.trace import Direction, TraceRecorder
from repro.stack.host import Host
from repro.stack.os_profiles import PROFILES

# ----------------------------------------------------------------------
# Capture on demand
# ----------------------------------------------------------------------


class TestCaptureOnDemand:
    def test_unobserved_hosts_and_switches_hold_no_recorder(self):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(4)]
        hosts[0].ping(hosts[1].ip)
        hosts[2].announce()
        sim.run(until=2.0)
        assert hosts[0].counters["icmp_reply_rx"] == 1  # traffic flowed
        assert all(host.recorder is None for host in lan.hosts.values())
        assert lan.switch.recorder is None

    def test_unobserved_hub_holds_no_recorder(self):
        sim = Simulator(seed=3)
        hub = Hub(sim, "hub", num_ports=3)
        net = Ipv4Network("10.9.0.0/24")
        hosts = [
            Host(sim, f"h{i}", mac=MacAddress(0x02_00_00_00_09_00 + i),
                 ip=net.host(i + 1), network=net)
            for i in range(2)
        ]
        for host, port in zip(hosts, hub.ports):
            Link(sim, host.nic, port)
        hosts[0].ping(hosts[1].ip)
        sim.run(until=1.0)
        assert hub.repeated_frames > 0
        assert hub.recorder is None
        assert all(host.recorder is None for host in hosts)

    def test_capture_is_idempotent_and_starts_at_the_first_call(self):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        a, b = lan.add_host("a"), lan.add_host("b")
        a.ping(b.ip)
        sim.run(until=1.0)
        recorder = b.capture()
        assert isinstance(recorder, TraceRecorder)
        assert b.capture() is recorder
        assert b.recorder is recorder
        assert len(recorder) == 0  # earlier frames are not in it
        switch = lan.switch.capture()
        assert lan.switch.capture() is switch
        a.ping(b.ip)
        sim.run(until=2.0)
        assert [r.direction for r in recorder] == [Direction.RX, Direction.TX]
        assert len(switch) == 2  # echo request and reply, on their ingress ports

    def test_lan_monitor_captures(self):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        monitor = lan.add_monitor()
        a, b = lan.add_host("a"), lan.add_host("b")
        a.ping(b.ip)
        sim.run(until=1.0)
        assert monitor.recorder is not None
        assert len(monitor.recorder) > 0
        assert a.recorder is None and lan.switch.recorder is None

    def test_campus_monitor_captures(self):
        campus = Campus(
            Simulator(seed=3), buildings=1, leaves_per_building=2, hosts_per_leaf=3
        )
        monitor = campus.add_monitor()
        stations = [h for h in campus.hosts.values() if h is not monitor]
        stations[0].ping(stations[1].ip)
        campus.fabric.run(until=1.0)
        assert len(monitor.capture()) > 0
        assert all(h.recorder is None for h in stations)
        assert all(s.recorder is None for s in campus.switches.values())


# ----------------------------------------------------------------------
# The ARP early-out
# ----------------------------------------------------------------------

OWN_MAC = MacAddress("02:aa:00:00:00:01")
OWN_IP = Ipv4Address("10.5.0.1")
#: Senders the hosts have cached, are resolving, or have never seen.
CACHED = [Ipv4Address("10.5.0.10"), Ipv4Address("10.5.0.11")]
PENDING = [Ipv4Address("10.5.0.20")]
UNKNOWN = [Ipv4Address("10.5.0.30"), Ipv4Address("10.5.0.31")]
ZERO_IP = Ipv4Address("0.0.0.0")

_BODY = struct.Struct("!HHBBH6s4s6s4s")
_DSTS = {
    "broadcast": BROADCAST_MAC.packed,
    "own": OWN_MAC.packed,
    "multicast": bytes.fromhex("01005e000001"),
    "foreign": bytes.fromhex("02cc00000099"),
}
_TRAILERS = {
    "none": b"",
    "padding": b"\x00" * 18,
    "sarp": SARP_MAGIC + b"\x00\x04" + b"sig!",
    "tarp": TARP_MAGIC + b"\x00\x02" + b"tk",
    "sarp-truncated": SARP_MAGIC + b"\x00\x40" + b"short",
    "garbage": b"\x01\x02\x03\x04\x05\x06\x07\x08",
}


#: Named addresses the generated frames draw their spa/tpa from.
_IPS = {
    "cached": CACHED[0], "cached2": CACHED[1], "pending": PENDING[0],
    "unknown": UNKNOWN[0], "unknown2": UNKNOWN[1], "own": OWN_IP, "zero": ZERO_IP,
}


def _wire(dst, op, htype, plen, sha, spa, tpa, same, trailer, cut) -> bytes:
    """One ARP frame; ``same`` makes it gratuitous (tpa = spa)."""
    sender = _IPS[spa]
    target = sender if same else _IPS[tpa]
    body = _BODY.pack(
        htype, 0x0800, 6, plen, op,
        MacAddress(sha).packed, sender.packed, b"\x00" * 6, target.packed,
    )
    data = _DSTS[dst] + MacAddress(sha).packed + b"\x08\x06" + body
    data += _TRAILERS[trailer]
    return data[:cut] if cut is not None else data


#: Well-formed requests dominate, so every early-out condition is often
#: one field away from holding; the rest covers replies, bad op/htype/
#: plen, S-ARP/TARP trailers and truncation at and around the 42- and
#: 48-byte boundaries.
arp_frames = st.builds(
    _wire,
    dst=st.sampled_from(sorted(_DSTS)),
    op=st.sampled_from([1, 1, 1, 1, 2, 3]),
    htype=st.sampled_from([1, 1, 1, 1, 6]),
    plen=st.sampled_from([4, 4, 4, 4, 6]),
    sha=st.sampled_from(["02:cc:00:00:00:01", "02:cc:00:00:00:02"]),
    spa=st.sampled_from(sorted(_IPS)),
    tpa=st.sampled_from(["own", "unknown", "cached", "zero"]),
    same=st.sampled_from([False, False, False, True]),
    trailer=st.sampled_from(
        ["none", "none", "padding", "padding"] + sorted(_TRAILERS)
    ),
    cut=st.sampled_from([None] * 8 + [14, 28, 41, 42, 46, 47, 48, 49]),
)


def _host(profile_name: str, guarded: bool):
    """A host with cached and pending senders; ``guarded`` adds one
    abstaining ARP guard, which forces the full receive path."""
    sim = Simulator(seed=5)
    host = Host(sim, "h", mac=OWN_MAC, ip=OWN_IP, profile=PROFILES[profile_name])
    host.capture()
    for index, ip in enumerate(CACHED):
        host.arp_cache.put(ip, MacAddress(0x02_dd_00_00_00_00 + index), now=0.0,
                           source="static-config")
    for ip in PENDING:
        host.resolve(ip, on_resolved=lambda mac: None)
    if guarded:
        host.add_arp_guard(lambda h, arp, frame: None)
    return sim, host


def _state(host: Host):
    return (
        dict(host.counters),
        sorted((str(e.ip), str(e.mac), e.source, e.expires_at) for e in host.arp_cache),
        list(host.arp_cache.history),
        {str(ip): (p.attempts, len(p.waiters)) for ip, p in host._pending_arp.items()},
        [r.frame for r in host.recorder if r.direction == Direction.TX],
    )


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(arp_frames, min_size=1, max_size=12),
    profile=st.sampled_from(sorted(PROFILES)),
    promiscuous=st.booleans(),
)
def test_early_out_leaves_host_state_as_the_full_path_does(frames, profile, promiscuous):
    fast_sim, fast = _host(profile, guarded=False)
    full_sim, full = _host(profile, guarded=True)
    fast.promiscuous = full.promiscuous = promiscuous
    skipped = PERF.arp_rx_skipped
    for data in frames:
        full.on_frame_batch(full.nic, (data,))
    assert PERF.arp_rx_skipped == skipped  # the guard forces the full path
    for data in frames:
        fast.on_frame_batch(fast.nic, (data,))
    fast_sim.run(until=5.0)
    full_sim.run(until=5.0)
    assert _state(fast) == _state(full)


def _request(spa: str = "unknown2", tpa: str = "unknown") -> bytes:
    """A classic broadcast ARP request; the defaults are a useless one."""
    return _wire("broadcast", 1, 1, 4, "02:cc:00:00:00:01", spa, tpa, False, "none", None)


class TestEarlyOut:
    def test_useless_request_is_counted_without_a_decode(self):
        _, host = _host("linux", guarded=False)
        skipped, lazy = PERF.arp_rx_skipped, PERF.lazy_frames
        host.on_frame(host.nic, _request())
        assert host.counters["arp_rx"] == 1
        assert PERF.arp_rx_skipped - skipped == 1
        assert PERF.lazy_frames == lazy  # no frame view was built

    def test_request_for_own_ip_takes_the_full_path(self):
        _, host = _host("linux", guarded=False)
        skipped = PERF.arp_rx_skipped
        host.on_frame(host.nic, _request(tpa="own"))
        assert PERF.arp_rx_skipped == skipped
        assert host.counters["arp_replies_sent"] == 1

    def test_known_sender_takes_the_full_path(self):
        _, host = _host("linux", guarded=False)
        skipped = PERF.arp_rx_skipped
        host.on_frame(host.nic, _request(spa="cached"))
        host.on_frame(host.nic, _request(spa="pending"))
        assert PERF.arp_rx_skipped == skipped
        assert host.counters["arp_rx"] == 2

    def test_observers_disable_the_early_out(self):
        observers = {
            "frame tap": lambda h: h.frame_taps.append(lambda frame, data: None),
            "arp guard": lambda h: h.add_arp_guard(lambda host, arp, frame: None),
            "arp_rx_cost": lambda h: setattr(h, "arp_rx_cost", lambda arp: 0.0),
        }
        for name, attach in observers.items():
            _, host = _host("linux", guarded=False)
            attach(host)
            skipped = PERF.arp_rx_skipped
            host.on_frame(host.nic, _request())
            assert PERF.arp_rx_skipped == skipped, name
            assert host.counters["arp_rx"] == 1, name

    def test_tracing_disables_the_early_out(self):
        _, host = _host("linux", guarded=False)
        skipped = PERF.arp_rx_skipped
        TRACER.reset()
        TRACER.enable()
        try:
            host.on_frame(host.nic, _request())
        finally:
            TRACER.disable()
            TRACER.reset()
        assert PERF.arp_rx_skipped == skipped
        assert host.counters["arp_rx"] == 1
