"""MSFR binary persistence for recordings and fused datasets.

Recording file, little-endian throughout:

    magic    4s   "MSFR"
    version  u16  1
    modality u8   0 thermal, 1 optronic, 2 radar (3 marks a fused dataset)
    id_len   u16  followed by the UTF-8 recording id
    ndims    u8   followed by one u32 per dimension (per-sample feature shape)
    count    u32
    count packed records of ``data.recording_dtype(shape)``: timestamp f64,
    label u8 (1 UAV, 0 false alarm), features as f32 values, row-major

Fused dataset file: same framing with modality byte 3, then a modality
count u8 (1, 2 or 3), the provenance string in the id slot, and TWO shape
blocks (stacked tensor, then radar vector; the radar block is ndims=1 with
dim 0 when the dataset carries no radar channel). The records are
``data.fused_dtype(stacked_shape, radar_len)``: both payloads back to back.

The body of a file is the bytes of the in-memory recarray, so a read is one
``np.frombuffer`` and a write streams the array with one ``tofile``.

A dataset directory holds MSFR files plus ``manifest.tsv``: one record per
line, tab-separated ``filename<TAB>kind<TAB>sample_count``, where the file
name is a plain name in that directory.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .data import (
    FusedDataset,
    Modality,
    ModalitySet,
    Recording,
    fused_payloads,
    record_dtype,
    record_size,
)
from .errors import CorruptionError, FormatError, ValidationError

MAGIC = b"MSFR"
VERSION = 1
FUSED_MODALITY_BYTE = 3
MANIFEST_NAME = "manifest.tsv"


def shape_block(shape: tuple[int, ...]) -> bytes:
    """A shape as MSFR and MSFW files store it: ndims u8, then one u32 per dimension."""
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)


def _id_block(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValidationError(f"recording id of {len(raw)} bytes exceeds the u16 limit")
    return struct.pack("<H", len(raw)) + raw


class BinaryReader:
    """Offset-tracked parser of the MSFR and MSFW formats.

    Any short read is corruption, and so is undecodable text or a
    non-finite float payload.
    """

    def __init__(self, buf):
        self.buf = buf  # bytes, or a uint8 array: records viewing it stay writable
        self.pos = 0

    def skip(self, n: int) -> int:
        """Advance past ``n`` bytes; return the offset they start at."""
        if self.pos + n > len(self.buf):
            raise CorruptionError(
                f"file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return bytes(self.buf[self.skip(n) : self.pos])

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def shape(self) -> tuple[int, ...]:
        (ndims,) = self.unpack("<B")
        return tuple(self.unpack(f"<{ndims}I")) if ndims else ()

    def text(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"text field is not UTF-8: {exc}") from None

    def modality_set(self) -> ModalitySet:
        (count,) = self.unpack("<B")
        try:
            return ModalitySet.from_count(count)
        except ValueError as exc:
            raise CorruptionError(str(exc)) from None

    def records(self, **payloads: tuple[int, ...]) -> np.recarray:
        """A u32 count, then that many ``record_dtype(**payloads)`` records viewing the buffer.

        The body size is checked in Python ints before numpy sees a stored
        shape, which it may reject.
        """
        (count,) = self.unpack("<I")
        start = self.skip(count * record_size(**payloads))
        try:
            records = np.frombuffer(self.buf, record_dtype(**payloads), count, start)
            return records.view(np.recarray)
        except ValueError as exc:
            raise CorruptionError(f"payload shapes {payloads} form no record: {exc}") from None

    def floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next little-endian f32 array of ``shape``; ``what`` names it in errors."""
        # a Python int: exact where an int64 product of stored dims would wrap
        count = math.prod(shape)
        values = np.frombuffer(self.take(4 * count), dtype="<f4").astype(np.float32)
        if not np.isfinite(values).all():
            raise CorruptionError(f"{what} holds non-finite values")
        return values.reshape(shape)

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise CorruptionError(
                f"{len(self.buf) - self.pos} trailing bytes after declared payload"
            )


def _check_header(reader: BinaryReader, expect_fused: bool) -> int:
    """Check magic, version and modality byte; return the modality byte."""
    magic = reader.take(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = reader.unpack("<H")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}")
    (modality_byte,) = reader.unpack("<B")
    if expect_fused:
        if modality_byte != FUSED_MODALITY_BYTE:
            raise FormatError(
                f"modality byte {modality_byte} is a plain recording, not a fused dataset"
            )
    elif modality_byte == FUSED_MODALITY_BYTE:
        raise FormatError("modality byte 3 marks a fused dataset, not a plain recording")
    elif modality_byte not in (0, 1, 2):
        raise FormatError(f"modality byte {modality_byte} is not a recording modality")
    return modality_byte


def _write(destination, header: list[bytes], samples: np.ndarray) -> int:
    """Write the header and the sample count, then stream the records; return the byte count."""
    with open(destination, "wb") as f:
        f.write(b"".join([*header, struct.pack("<I", len(samples))]))
        samples.tofile(f)
        return f.tell()


def write_recording(recording: Recording, destination) -> int:
    """Serialize one recording; returns the byte count written."""
    recording.validate()
    header = [MAGIC, struct.pack("<HB", VERSION, int(recording.modality)),
              _id_block(recording.recording_id), shape_block(recording.feature_shape)]
    return _write(destination, header, recording.samples)


def read_recording(source) -> Recording:
    """Parse and validate one recording file (exact inverse of write_recording)."""
    reader = BinaryReader(np.fromfile(source, np.uint8))
    modality_byte = _check_header(reader, expect_fused=False)
    recording_id = reader.text()
    samples = reader.records(features=reader.shape())
    reader.done()
    recording = Recording(Modality(modality_byte), recording_id, samples)
    recording.validate(source)
    return recording


def write_fused(dataset: FusedDataset, destination) -> int:
    """Serialize a fused dataset; returns the byte count written."""
    dataset.validate()
    header = [
        MAGIC,
        struct.pack("<HBB", VERSION, FUSED_MODALITY_BYTE, dataset.modality_set.count),
        _id_block(",".join(dataset.provenance)),
        shape_block(dataset.stacked_shape),
        shape_block((dataset.radar_len,)),
    ]
    return _write(destination, header, dataset.samples)


def read_fused(source) -> FusedDataset:
    """Parse and validate one fused dataset file."""
    reader = BinaryReader(np.fromfile(source, np.uint8))
    _check_header(reader, expect_fused=True)
    modality_set = reader.modality_set()
    provenance_text = reader.text()
    stacked_shape, radar_shape = reader.shape(), reader.shape()
    # a Python int: exact where an int64 product of stored dims would wrap
    radar_len = math.prod(radar_shape) if radar_shape else 0
    samples = reader.records(**fused_payloads(stacked_shape, radar_len))
    reader.done()
    provenance = provenance_text.split(",") if provenance_text else []
    dataset = FusedDataset(modality_set, samples, provenance)
    dataset.validate(source)
    return dataset


def write_manifest(directory, entries: list[tuple[str, str, int]]) -> Path:
    """Write manifest.tsv: one ``filename<TAB>kind<TAB>count`` line per file."""
    path = Path(directory) / MANIFEST_NAME
    lines = [f"{name}\t{kind}\t{count}\n" for name, kind, count in entries]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def read_manifest(directory) -> list[tuple[str, str, int]]:
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise FormatError(f"no {MANIFEST_NAME} in {directory}")
    entries = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"manifest line {lineno}: expected 3 tab-separated fields")
        if fields[0] in ("", ".", "..") or Path(fields[0]).name != fields[0]:
            raise FormatError(f"manifest line {lineno}: {fields[0]!r} is not a plain file name")
        try:
            count = int(fields[2])
        except ValueError:
            raise FormatError(
                f"manifest line {lineno}: count {fields[2]!r} is not an integer"
            ) from None
        entries.append((fields[0], fields[1], count))
    return entries
