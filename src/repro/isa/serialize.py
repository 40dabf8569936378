"""Trace serialisation: save generated traces, reload them later.

Trace generation (running the functional workload) usually dominates the
cost of an experiment, and the same trace is replayed on many machine
configurations.  The format is a small JSON header plus a compact binary
body, so traces from the million-instruction range load in milliseconds
and remain portable (no pickling).

The format, **RPTR2**, stores the trace's columnar form
(:class:`~repro.isa.columns.TraceColumns`) as four contiguous sections —
one ``array.tobytes`` blob per column — so loading is four
``frombytes`` calls and zero per-instruction Python work::

    magic   b"RPTR2\\n"
    u32     header length
    bytes   JSON header {"count": N, "metas": [...]}   (meta string table)
    N x u8  opcode column
    N x u16 size column          (little endian)
    N x u16 meta-index column    (little endian; 0 = None)
    N x i64 address column       (little endian)

Every file ends in an **integrity footer** — ``b"RPC2"`` plus the
little-endian CRC-32 of every preceding byte (magic, header, and all
four column sections).  The footer turns silent bit rot into a
detectable :class:`TraceFormatError`: a flipped byte anywhere in the
container never deserialises into a *different but plausible* trace,
it fails the checksum and the cache layer drops the entry
(``docs/RESILIENCE.md``).  The footer is required: a file without one
(or in any other container format) is rejected the same way.  Loads
produce a column-backed :class:`~repro.isa.trace.Trace` without
materialising ``Instr`` objects.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, Union

from repro.isa.columns import MAX_METAS, TraceColumns
from repro.isa.trace import Trace

_MAGIC_V2 = b"RPTR2\n"

#: Integrity footer of RPTR2 containers: marker + CRC-32 of every byte
#: before the footer.
_FOOTER_MAGIC = b"RPC2"
_FOOTER = struct.Struct("<4sI")

#: (attribute, array typecode) for each RPTR2 section, in file order.
_SECTIONS = (("ops", "B"), ("sizes", "H"), ("meta_idx", "H"), ("addrs", "q"))

_BIG_ENDIAN = sys.byteorder == "big"

_MAX_OP = 11  # highest Op value; validated on load


class TraceFormatError(ValueError):
    """The bytes are not a serialised trace (or a newer/older version)."""


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def dump_trace(trace: Trace, target: Union[str, Path, BinaryIO]) -> int:
    """Write *trace* (RPTR2) to a path or binary file object; returns
    bytes written."""
    if isinstance(target, (str, Path)):
        with open(target, "wb") as handle:
            return dump_trace(trace, handle)
    columns = trace.columns()
    header = json.dumps(
        {"count": len(columns), "metas": columns.metas[1:]}
    ).encode()
    crc = 0
    written = 0

    def _emit(blob: bytes) -> None:
        nonlocal crc, written
        crc = zlib.crc32(blob, crc)
        written += target.write(blob)

    _emit(_MAGIC_V2)
    _emit(struct.pack("<I", len(header)))
    _emit(header)
    for attr, _typecode in _SECTIONS:
        column: array = getattr(columns, attr)
        if _BIG_ENDIAN:  # pragma: no cover - canonical format is LE
            column = array(column.typecode, column)
            column.byteswap()
        _emit(column.tobytes())
    written += target.write(_FOOTER.pack(_FOOTER_MAGIC, crc))
    return written


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _read_header(source: BinaryIO) -> tuple:
    length_bytes = source.read(4)
    if len(length_bytes) != 4:
        raise TraceFormatError("truncated header length")
    (header_len,) = struct.unpack("<I", length_bytes)
    header_bytes = source.read(header_len)
    if len(header_bytes) != header_len:
        raise TraceFormatError("truncated header")
    try:
        header = json.loads(header_bytes)
        count = int(header["count"])
        metas = [None] + list(header["metas"])
    except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"bad header: {exc}") from None
    if count < 0 or len(metas) - 1 > MAX_METAS:
        raise TraceFormatError("bad header counts")
    return count, metas, length_bytes + header_bytes


def _validate(columns: TraceColumns) -> TraceColumns:
    if len(columns) and max(columns.ops) > _MAX_OP:
        raise TraceFormatError(f"op value out of range (max {_MAX_OP})")
    if len(columns) and max(columns.meta_idx) >= len(columns.metas):
        raise TraceFormatError("meta index out of range")
    return columns


def _load_v2(source: BinaryIO) -> Trace:
    count, metas, header_raw = _read_header(source)
    crc = zlib.crc32(header_raw, zlib.crc32(_MAGIC_V2))
    loaded = {}
    for attr, typecode in _SECTIONS:
        column = array(typecode)
        expected = count * column.itemsize
        blob = source.read(expected)
        if len(blob) != expected:
            raise TraceFormatError(
                f"truncated body: {attr} column has {len(blob)} of "
                f"{expected} bytes"
            )
        crc = zlib.crc32(blob, crc)
        column.frombytes(blob)
        if _BIG_ENDIAN:  # pragma: no cover - canonical format is LE
            column.byteswap()
        loaded[attr] = column
    trailer = source.read()
    if len(trailer) != _FOOTER.size or trailer[:4] != _FOOTER_MAGIC:
        raise TraceFormatError("missing or corrupt integrity footer")
    (_, stored_crc) = _FOOTER.unpack(trailer)
    if stored_crc != crc:
        raise TraceFormatError(
            f"checksum mismatch: footer {stored_crc:#010x}, "
            f"computed {crc:#010x}"
        )
    columns = TraceColumns(
        loaded["ops"], loaded["addrs"], loaded["sizes"], loaded["meta_idx"], metas
    )
    return Trace.from_columns(_validate(columns))


def load_trace(source: Union[str, Path, BinaryIO]) -> Trace:
    """Read a trace previously written by :func:`dump_trace`, verifying
    its footer; the result is column-backed, materialising no ``Instr``."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return load_trace(handle)
    magic = source.read(len(_MAGIC_V2))
    if magic != _MAGIC_V2:
        raise TraceFormatError(f"bad magic {magic!r}")
    return _load_v2(source)
