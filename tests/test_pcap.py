"""Tests for pcap export/import."""

from __future__ import annotations

import io
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.forensics import OfflineArpAnalyzer
from repro.analysis.pcap import (
    MAX_SNAPLEN,
    PCAP_MAGIC,
    READ_BUFFER,
    PcapWriter,
    iter_pcap,
    iter_pcap_frames,
)
from repro.attacks.mitm import MitmAttack
from repro.errors import CodecError, PcapError
from repro.l2.topology import Lan
from repro.replay.sources import PcapSource
from repro.sim.trace import Direction, TraceRecord
from repro.stack.os_profiles import WINDOWS_XP


def make_records():
    return [
        TraceRecord(time=1.5, location="a", direction=Direction.RX, frame=b"\xaa" * 60),
        TraceRecord(time=0.25, location="b", direction=Direction.TX, frame=b"\xbb" * 80),
        TraceRecord(time=2.000001, location="c", direction=Direction.RX, frame=b"\xcc" * 64),
    ]


def write_records(records, path, snaplen=65535):
    """Stream ``records`` to ``path`` in call order; returns the count."""
    with PcapWriter(path, snaplen=snaplen) as writer:
        for record in records:
            writer.append(record)
        return writer.count


def read_records(path):
    return list(iter_pcap(path))


class TestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "capture.pcap"
        count = write_records(
            sorted(make_records(), key=lambda r: r.time), path
        )
        assert count == 3
        back = read_records(path)
        assert len(back) == 3
        assert back[0].frame == b"\xbb" * 80

    def test_global_header_fields(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_records(make_records(), path)
        raw = path.read_bytes()
        magic, major, minor, _, _, snaplen, linktype = struct.unpack(
            "<IHHiIII", raw[:24]
        )
        assert magic == PCAP_MAGIC
        assert (major, minor) == (2, 4)
        assert linktype == 1  # Ethernet

    def test_snaplen_truncation(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_records(make_records(), path, snaplen=32)
        back = read_records(path)
        assert all(len(r.frame) == 32 for r in back)

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        assert write_records([], path) == 0
        assert read_records(path) == []

    def test_big_endian_read(self, tmp_path):
        path = tmp_path / "be.pcap"
        header = struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        body = struct.pack(">IIII", 3, 500000, 4, 4) + b"abcd"
        path.write_bytes(header + body)
        back = read_records(path)
        assert len(back) == 1
        assert back[0].time == pytest.approx(3.5)


class TestStreamingPrimitives:
    def test_iter_pcap_is_a_generator(self, tmp_path):
        path = tmp_path / "capture.pcap"
        with PcapWriter(path) as writer:
            for record in sorted(make_records(), key=lambda r: r.time):
                writer.append(record)
        stream = iter_pcap(path)
        assert iter(stream) is stream  # generator, not a list
        first = next(stream)
        assert first.frame == b"\xbb" * 80
        assert first.location == "pcap[0]"
        assert [r.location for r in stream] == ["pcap[1]", "pcap[2]"]

    def test_writer_append_frame_and_count(self, tmp_path):
        path = tmp_path / "raw.pcap"
        with PcapWriter(path) as writer:
            writer.append_frame(0.5, b"\x01" * 60)
            writer.append_frame(1.25, b"\x02" * 64)
            assert writer.count == 2
        back = list(iter_pcap(path))
        assert [r.time for r in back] == [pytest.approx(0.5), pytest.approx(1.25)]

    def test_writer_wraps_open_file_without_closing_it(self, tmp_path):
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            writer.append_frame(0.0, b"\x03" * 60)
        assert not buf.closed  # caller-owned handle stays open
        buf.seek(0)
        assert len(list(iter_pcap(buf))) == 1
        assert not buf.closed  # same for the reader

    def test_microsecond_rounding_carry(self, tmp_path):
        path = tmp_path / "carry.pcap"
        with PcapWriter(path) as writer:
            writer.append_frame(1.9999999, b"\x04" * 60)  # rounds to 2.0s
        (record,) = iter_pcap(path)
        assert record.time == pytest.approx(2.0)


class TestHypothesisRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.floats(
                    min_value=0.0, max_value=2**31 - 1,
                    allow_nan=False, allow_infinity=False,
                ),
                st.binary(min_size=1, max_size=256),
            ),
            max_size=20,
        )
    )
    def test_writer_reader_frames_byte_identical(self, frames):
        """frames -> PcapWriter -> iter_pcap -> byte-identical payloads."""
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            for ts, raw in frames:
                writer.append_frame(ts, raw)
        buf.seek(0)
        back = list(iter_pcap(buf))
        assert [r.frame for r in back] == [raw for _, raw in frames]
        # Timestamps survive to pcap's microsecond quantization.
        for (ts, _), record in zip(frames, back):
            assert record.time == pytest.approx(ts, abs=1e-6)


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(CodecError):
            read_records(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(CodecError):
            read_records(path)

    def test_non_ethernet_rejected(self, tmp_path):
        path = tmp_path / "wifi.pcap"
        path.write_bytes(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 105))
        with pytest.raises(CodecError):
            read_records(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        path.write_bytes(header + struct.pack("<IIII", 0, 0, 100, 100) + b"xy")
        with pytest.raises(CodecError):
            read_records(path)

    def test_truncated_body_names_byte_offset(self, tmp_path):
        """A capture ending mid-frame is an error naming where — never a
        silently short read."""
        path = tmp_path / "trunc_body.pcap"
        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        # One good 4-byte record, then a record promising 100 bytes but
        # delivering 2: the body starts at offset 24 + 16 + 4 + 16 = 60.
        good = struct.pack("<IIII", 0, 0, 4, 4) + b"abcd"
        bad = struct.pack("<IIII", 1, 0, 100, 100) + b"xy"
        path.write_bytes(header + good + bad)
        with pytest.raises(PcapError, match=r"byte offset 60.*record 1"):
            list(iter_pcap(path))

    def test_truncated_header_names_byte_offset(self, tmp_path):
        path = tmp_path / "trunc_header.pcap"
        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        good = struct.pack("<IIII", 0, 0, 4, 4) + b"abcd"
        path.write_bytes(header + good + b"\x00" * 7)  # 7 of 16 header bytes
        with pytest.raises(PcapError, match=r"byte offset 44.*record 1"):
            list(iter_pcap(path))

    def test_pcap_error_is_a_codec_error(self):
        assert issubclass(PcapError, CodecError)


def reference_iter_pcap(reader):
    """The record-by-record reader the block parser replaced.

    Two ``read()`` calls per record; kept verbatim as the reference the
    block parser must match pair for pair and error for error.
    """
    head = reader.read(24)
    if len(head) < 24:
        raise PcapError("pcap: file shorter than the global header")
    magic_le = struct.unpack("<I", head[:4])[0]
    if magic_le == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack(">I", head[:4])[0] == PCAP_MAGIC:
        endian = ">"
    else:
        raise PcapError(f"pcap: unrecognized magic 0x{magic_le:08x}")
    header = struct.Struct(endian + "IHHiIII")
    record_header = struct.Struct(endian + "IIII")
    (_, _, _, _, _, _, linktype) = header.unpack(head)
    if linktype != 1:
        raise PcapError(f"pcap: linktype {linktype} is not Ethernet")
    offset = header.size
    index = 0
    while True:
        raw_header = reader.read(record_header.size)
        if not raw_header:
            return
        if len(raw_header) < record_header.size:
            raise PcapError(
                f"pcap: truncated record header at byte offset {offset} "
                f"(record {index}: got {len(raw_header)} of "
                f"{record_header.size} header bytes)"
            )
        seconds, micros, caplen, _origlen = record_header.unpack(raw_header)
        offset += record_header.size
        frame = reader.read(caplen)
        if len(frame) < caplen:
            raise PcapError(
                f"pcap: truncated record body at byte offset {offset} "
                f"(record {index}: got {len(frame)} of {caplen} bytes)"
            )
        offset += caplen
        yield TraceRecord(
            time=seconds + micros / 1_000_000,
            location=f"pcap[{index}]",
            direction=Direction.RX,
            frame=frame,
        )
        index += 1


def pcap_bytes(records, endian):
    """A classic pcap in byte order ``endian`` of ``(sec, usec, frame)``."""
    out = [struct.pack(endian + "IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)]
    for seconds, micros, frame in records:
        out.append(struct.pack(endian + "IIII", seconds, micros, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


def drain(stream):
    """Items up to the first error, and that error's text (or None)."""
    items = []
    try:
        for item in stream:
            items.append(item)
    except PcapError as exc:
        return items, str(exc)
    return items, None


def pcap_records(max_size):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=999_999),
            st.binary(max_size=64),  # zero-length frames included
        ),
        max_size=max_size,
    )


buffer_sizes = st.sampled_from([1, 15, 16, 17, 1000, READ_BUFFER])
byte_orders = st.sampled_from(["<", ">"])


class TestBlockParserEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(records=pcap_records(12), buffer_size=buffer_sizes, endian=byte_orders)
    def test_parser_matches_record_reader(self, records, buffer_size, endian):
        data = pcap_bytes(records, endian)
        expected = list(reference_iter_pcap(io.BytesIO(data)))
        pairs = list(iter_pcap_frames(io.BytesIO(data), buffer_size))
        assert pairs == [(r.time, r.frame) for r in expected]
        assert all(type(frame) is bytes for _, frame in pairs)
        views = list(iter_pcap(io.BytesIO(data), buffer_size))
        assert [(r.time, r.location, r.frame) for r in views] == [
            (r.time, r.location, r.frame) for r in expected
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        records=pcap_records(6),
        buffer_size=buffer_sizes,
        endian=byte_orders,
    )
    def test_every_cut_raises_the_same_error(self, records, buffer_size, endian):
        data = pcap_bytes(records, endian)
        for cut in range(len(data)):
            expected, expected_error = drain(reference_iter_pcap(io.BytesIO(data[:cut])))
            pairs, error = drain(iter_pcap_frames(io.BytesIO(data[:cut]), buffer_size))
            assert error == expected_error, cut
            assert pairs == [(r.time, r.frame) for r in expected], cut

    def test_pcap_source_yields_the_parser_pairs(self, tmp_path):
        path = tmp_path / "s.pcap"
        records = [(i, i * 7, bytes([i]) * (i % 5 * 20)) for i in range(50)]
        path.write_bytes(pcap_bytes(records, "<"))
        source = PcapSource(path)
        assert list(source) == list(iter_pcap_frames(path))
        assert source.frames_read == 50
        assert source.bytes_read == sum(len(frame) for _, _, frame in records)


class TestRobustness:
    # The last case rounds up to 2**32 seconds through the microsecond carry.
    @pytest.mark.parametrize("timestamp", [-0.5, 2**32 + 1.0, math.nextafter(2.0**32, 0)])
    def test_unrepresentable_timestamp_rejected(self, timestamp):
        buf = io.BytesIO()
        with PcapWriter(buf) as writer:
            writer.append_frame(1.0, b"\x01" * 60)
            size = buf.tell()
            with pytest.raises(PcapError) as info:
                writer.append_frame(timestamp, b"\x02" * 60)
            assert repr(timestamp) in str(info.value)
            assert "0 to 4294967295.999999 seconds" in str(info.value)
            assert buf.tell() == size  # nothing written for that record
            assert writer.count == 1
        buf.seek(0)
        assert [r.frame for r in iter_pcap(buf)] == [b"\x01" * 60]

    def test_impossible_caplen_rejected_before_buffering(self):
        """A corrupt ``caplen`` fails at once, naming where, instead of
        buffering the rest of the capture as the record body."""

        class CountingReader(io.BytesIO):
            taken = 0

            def read(self, size=-1):
                chunk = super().read(size)
                self.taken += len(chunk)
                return chunk

        header = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
        good = struct.pack("<IIII", 0, 0, 4, 4) + b"abcd"
        bad = struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 0xFFFFFFF0)
        reader = CountingReader(header + good + bad + b"\x00" * (4 * READ_BUFFER))
        with pytest.raises(PcapError, match=r"record 1 at byte offset 44.*4294967280"):
            list(iter_pcap_frames(reader))
        assert reader.taken <= READ_BUFFER

    def test_max_snaplen_record_accepted(self):
        frame = b"\x05" * MAX_SNAPLEN
        pairs = list(iter_pcap_frames(io.BytesIO(pcap_bytes([(1, 0, frame)], ">"))))
        assert pairs == [(1.0, frame)]


class TestEndToEnd:
    def test_capture_export_analyze(self, sim, tmp_path):
        """Simulate an attack, export the mirror capture to pcap, read it
        back, and find the attack offline — the full forensics loop."""
        lan = Lan(sim)
        monitor = lan.add_monitor()
        victim = lan.add_host("victim", profile=WINDOWS_XP)
        mallory = lan.add_host("mallory")
        victim.ping(lan.gateway.ip)
        sim.run(until=3.0)
        mitm = MitmAttack(mallory, victim, lan.gateway)
        mitm.start()
        sim.run(until=12.0)
        mitm.stop()

        path = tmp_path / "incident.pcap"
        count = write_records(monitor.recorder.records, path)
        assert count == len(monitor.recorder.records)
        replayed = read_records(path)
        summary = OfflineArpAnalyzer(
            known_bindings=lan.true_bindings()
        ).analyze(replayed)
        violations = summary.findings_of("known-binding-violation")
        assert violations and all(f.mac == mallory.mac for f in violations)
