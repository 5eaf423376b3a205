"""pcap import/export for trace captures — streaming-first.

Writes classic libpcap format (magic ``0xa1b2c3d4``, microsecond
timestamps, LINKTYPE_ETHERNET), so a simulated capture opens directly in
Wireshark/tcpdump — and real captures of Ethernet traffic can be pulled
back in and fed to the offline analyzer or the replay engine.

The primitives are streaming: :func:`iter_pcap` is a generator over a
fixed-size read buffer (a multi-GB capture is never materialized), and
:class:`PcapWriter` is a context manager with incremental ``append()``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from repro.errors import PcapError
from repro.sim.trace import Direction, TraceRecord

__all__ = [
    "PCAP_MAGIC",
    "PcapWriter",
    "iter_pcap",
]

PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Fixed read-buffer size for :func:`iter_pcap` (bytes).  The reader never
#: holds more than roughly this much file data plus one frame in memory.
READ_BUFFER = 1 << 16


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
        """Write one raw ``(timestamp, frame)`` pair (replay-source shape)."""
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # carry from rounding
            seconds += 1
            micros -= 1_000_000
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


def _open_reader(source: Union[str, Path, BinaryIO], buffer_size: int) -> tuple:
    """Return ``(fh, owns)`` for a path or already-open binary stream."""
    if hasattr(source, "read"):
        return source, False
    return Path(source).open("rb", buffering=buffer_size), True


def iter_pcap(
    source: Union[str, Path, BinaryIO],
    buffer_size: int = READ_BUFFER,
) -> Iterator[TraceRecord]:
    """Stream an Ethernet pcap as :class:`TraceRecord` objects.

    Generator over a fixed-size read buffer — the file is never
    materialized, so multi-GB captures replay in O(``buffer_size``)
    memory.  Handles both byte orders; rejects nanosecond-format and
    non-Ethernet captures; a capture that ends mid-record raises
    :class:`~repro.errors.PcapError` naming the byte offset of the
    short record instead of silently truncating.
    """
    reader, owns = _open_reader(source, buffer_size)
    try:
        head = reader.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
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
        if linktype != _LINKTYPE_ETHERNET:
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
    finally:
        if owns:
            reader.close()

