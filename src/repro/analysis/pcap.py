"""pcap import/export for trace captures — streaming-first.

Writes classic libpcap format (magic ``0xa1b2c3d4``, microsecond
timestamps, LINKTYPE_ETHERNET), so a simulated capture opens directly in
Wireshark/tcpdump — and real captures of Ethernet traffic can be pulled
back in and fed to the offline analyzer or the replay engine.

The primitives are streaming.  :func:`iter_pcap_frames` reads the file
in fixed :data:`READ_BUFFER` blocks and parses every record in a block
before reading the next, so its memory is one block plus one record
(a record cut by a block boundary is carried over; no record may claim
more than :data:`MAX_SNAPLEN` bytes) however large the capture.
:func:`iter_pcap` is a :class:`TraceRecord` view over it, and
:class:`PcapWriter` is a context manager with incremental ``append()``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Tuple, Union

from repro.errors import PcapError
from repro.sim.trace import Direction, TraceRecord

__all__ = [
    "MAX_SNAPLEN",
    "PCAP_MAGIC",
    "PcapWriter",
    "iter_pcap",
    "iter_pcap_frames",
]

PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Block size for :func:`iter_pcap_frames` (bytes).  The reader never
#: holds more than one block plus one record in memory.
READ_BUFFER = 1 << 16

#: Largest captured length a record may claim: libpcap's
#: ``MAXIMUM_SNAPLEN``.  A longer one means a corrupt header, and the
#: reader rejects it before buffering the body.
MAX_SNAPLEN = 262144

#: Classic pcap stores timestamp seconds as an unsigned 32-bit number.
_MAX_SECONDS = 0xFFFFFFFF


class PcapWriter:
    """Incremental classic-pcap writer.

    Context manager: opens ``destination`` (or wraps an already-open
    binary file object), writes the global header immediately, and
    appends one record per :meth:`append` call — nothing is buffered
    beyond the OS file buffer, so arbitrarily long captures stream out
    in O(1) memory.

    Records are written in call order; callers feeding live taps already
    append in timestamp order.
    """

    def __init__(
        self,
        destination: Union[str, Path, BinaryIO],
        snaplen: int = 65535,
    ) -> None:
        self.snaplen = snaplen
        self.count = 0
        self._owns_file = not hasattr(destination, "write")
        if self._owns_file:
            self._fh: BinaryIO = Path(destination).open("wb")
        else:
            self._fh = destination  # type: ignore[assignment]
        self._fh.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                2,  # version major
                4,  # version minor
                0,  # thiszone
                0,  # sigfigs
                snaplen,
                _LINKTYPE_ETHERNET,
            )
        )

    def append(self, record: TraceRecord) -> None:
        """Write one record; frames longer than ``snaplen`` are truncated
        with the original length preserved in the header, like a real
        capture."""
        self.append_frame(record.time, record.frame)

    def append_frame(self, timestamp: float, frame: bytes) -> None:
        """Write one raw ``(timestamp, frame)`` pair (replay-source shape).

        A timestamp classic pcap cannot hold, one that does not round to
        0 to 4294967295.999999 seconds, raises
        :class:`~repro.errors.PcapError` and writes nothing.
        """
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # carry from rounding
            seconds += 1
            micros -= 1_000_000
        if micros < 0 or not 0 <= seconds <= _MAX_SECONDS:
            raise PcapError(
                f"pcap: timestamp {timestamp!r} is outside classic pcap's "
                f"range of 0 to {_MAX_SECONDS}.999999 seconds"
            )
        captured = frame[: self.snaplen]
        self._fh.write(_RECORD_HEADER.pack(seconds, micros, len(captured), len(frame)))
        self._fh.write(captured)
        self.count += 1

    def close(self) -> None:
        if self._owns_file and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open_reader(source: Union[str, Path, BinaryIO]) -> tuple:
    """Return ``(fh, owns)`` for a path or already-open binary stream.

    Owned files are opened unbuffered: :func:`iter_pcap_frames` reads
    whole blocks itself, so a second buffer would only copy them.
    """
    if hasattr(source, "read"):
        return source, False
    return Path(source).open("rb", buffering=0), True


def iter_pcap_frames(
    source: Union[str, Path, BinaryIO],
    buffer_size: int = READ_BUFFER,
) -> Iterator[Tuple[float, bytes]]:
    """Stream an Ethernet pcap as ``(timestamp, frame)`` pairs.

    Reads ``buffer_size`` blocks and walks each one record header at a
    time; a record cut by a block boundary is carried into the next
    block, so memory stays one block plus one record.  Every frame is
    sliced out as its own ``bytes`` object and never pins its block.
    Handles both byte orders; rejects nanosecond-format and
    non-Ethernet captures, and any record longer than
    :data:`MAX_SNAPLEN` before buffering its body; a capture that ends
    mid-record raises :class:`~repro.errors.PcapError` naming the byte
    offset of the short record instead of silently truncating.
    Caller-owned streams are left open.
    """
    reader, owns = _open_reader(source)
    try:
        read = reader.read
        buf = b""
        while len(buf) < _GLOBAL_HEADER.size:
            block = read(buffer_size)
            if not block:
                raise PcapError("pcap: file shorter than the global header")
            buf += block
        magic_le = struct.unpack_from("<I", buf)[0]
        if magic_le == PCAP_MAGIC:
            endian = "<"
        elif struct.unpack_from(">I", buf)[0] == PCAP_MAGIC:
            endian = ">"
        else:
            raise PcapError(f"pcap: unrecognized magic 0x{magic_le:08x}")
        linktype = struct.unpack_from(endian + "IHHiIII", buf)[6]
        if linktype != _LINKTYPE_ETHERNET:
            raise PcapError(f"pcap: linktype {linktype} is not Ethernet")
        unpack_from = struct.Struct(endian + "IIII").unpack_from
        head = _RECORD_HEADER.size
        pos = _GLOBAL_HEADER.size  # next record's start within buf
        base = 0  # file offset of buf[0]
        index = 0
        while True:
            end = len(buf)
            last = end - head  # the last offset a whole header starts at
            while pos <= last:
                seconds, micros, caplen, _origlen = unpack_from(buf, pos)
                if caplen > MAX_SNAPLEN:
                    raise PcapError(
                        f"pcap: record {index} at byte offset {base + pos} "
                        f"claims {caplen} captured bytes, above the "
                        f"{MAX_SNAPLEN}-byte maximum snaplen"
                    )
                body = pos + head
                stop = body + caplen
                if stop > end:
                    break
                yield seconds + micros / 1_000_000, buf[body:stop]
                pos = stop
                index += 1
            block = read(buffer_size)
            if not block:
                break
            base += pos
            buf = buf[pos:] + block
            pos = 0
        left = end - pos
        if left == 0:
            return
        if left < head:
            raise PcapError(
                f"pcap: truncated record header at byte offset {base + pos} "
                f"(record {index}: got {left} of {head} header bytes)"
            )
        raise PcapError(
            f"pcap: truncated record body at byte offset {base + pos + head} "
            f"(record {index}: got {left - head} of {caplen} bytes)"
        )
    finally:
        if owns:
            reader.close()


def iter_pcap(
    source: Union[str, Path, BinaryIO],
    buffer_size: int = READ_BUFFER,
) -> Iterator[TraceRecord]:
    """Stream an Ethernet pcap as :class:`TraceRecord` objects.

    A view over :func:`iter_pcap_frames` (same memory bound, same
    errors) that labels the ``i``-th record ``pcap[i]``, for the
    offline analyzer.
    """
    for index, (time, frame) in enumerate(iter_pcap_frames(source, buffer_size)):
        yield TraceRecord(
            time=time,
            location=f"pcap[{index}]",
            direction=Direction.RX,
            frame=frame,
        )
