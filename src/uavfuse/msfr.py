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
The stacked block must be (H, W, C), and the radar dim non-zero exactly
when the modality count includes radar.

The body of a file is the bytes of the in-memory recarray, so a read is one
``np.frombuffer`` and a write streams the array with one ``tofile``.

A dataset directory holds MSFR files plus ``manifest.tsv``: one record per
line, tab-separated ``filename<TAB>kind<TAB>sample_count``, where the file
name is a plain name in that directory.
"""

from __future__ import annotations

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


def _id_block(text: str, what: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValidationError(f"{what} of {len(raw)} bytes exceeds the u16 limit")
    return struct.pack("<H", len(raw)) + raw


def provenance_block(dataset: FusedDataset) -> bytes:
    """A fused file's id block: the provenance, its recording ids joined by commas.

    An id must be non-empty and free of commas, or it would read back as other ids.
    """
    for rec_id in dataset.provenance:
        if not rec_id or "," in rec_id:
            raise ValidationError(f"provenance id {rec_id!r} is empty or holds a comma")
    return _id_block(",".join(dataset.provenance), "provenance")


class BinaryReader:
    """Offset-tracked parser of the MSFR and MSFW formats.

    Any short read is corruption, and so is undecodable text or a
    non-finite float payload. Given the ``source`` path, every error it
    raises starts with that path.
    """

    def __init__(self, buf, source=None):
        self.buf = buf  # bytes, or a uint8 array: records viewing it stay writable
        self.pos = 0
        self.where = "" if source is None else f"{source}: "

    def skip(self, n: int) -> int:
        """Advance past ``n`` bytes; return the offset they start at."""
        if self.pos + n > len(self.buf):
            raise CorruptionError(
                f"{self.where}file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return bytes(self.buf[self.skip(n) : self.pos])

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def header(self, magic: bytes, version: int) -> None:
        """The 4-byte magic and u16 version every MSFR and MSFW file starts with."""
        got = self.take(4)
        if got != magic:
            raise FormatError(f"{self.where}bad magic {got!r}, expected {magic!r}")
        (got,) = self.unpack("<H")
        if got != version:
            raise FormatError(f"{self.where}unsupported version {got}, expected {version}")

    def shape(self) -> tuple[int, ...]:
        (ndims,) = self.unpack("<B")
        return tuple(self.unpack(f"<{ndims}I")) if ndims else ()

    def text(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"{self.where}text field is not UTF-8: {exc}") from None

    def modality_set(self) -> ModalitySet:
        (count,) = self.unpack("<B")
        try:
            return ModalitySet.from_count(count)
        except ValueError as exc:
            raise CorruptionError(f"{self.where}{exc}") from None

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
            raise CorruptionError(
                f"{self.where}payload shapes {payloads} form no record: {exc}"
            ) from None

    def floats_into(self, out: np.ndarray, start: int, what: str) -> None:
        """Copy the little-endian f32 values at offset ``start`` into ``out``; ``what`` names them.

        The caller has checked with ``skip`` that the buffer holds them. A
        float64 sum of float32 values cannot overflow, so it is finite
        exactly when every value is, and it needs no full-size mask.
        """
        np.copyto(out, np.frombuffer(self.buf, "<f4", out.size, start).reshape(out.shape))
        if not np.isfinite(out.sum(dtype=np.float64)):
            raise CorruptionError(f"{self.where}{what} holds non-finite values")

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise CorruptionError(
                f"{self.where}{len(self.buf) - self.pos} trailing bytes after declared payload"
            )


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
              _id_block(recording.recording_id, "recording id"),
              shape_block(recording.feature_shape)]
    return _write(destination, header, recording.samples)


def read_recording(source) -> Recording:
    """Parse and validate one recording file (exact inverse of write_recording)."""
    reader = BinaryReader(np.fromfile(source, np.uint8), source)
    reader.header(MAGIC, VERSION)
    (modality_byte,) = reader.unpack("<B")
    if modality_byte == FUSED_MODALITY_BYTE:
        raise FormatError(f"{source}: modality byte 3 marks a fused dataset, not a plain recording")
    if modality_byte not in (0, 1, 2):
        raise FormatError(f"{source}: modality byte {modality_byte} is not a recording modality")
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
        provenance_block(dataset),
        shape_block(dataset.stacked_shape),
        shape_block((dataset.radar_len,)),
    ]
    return _write(destination, header, dataset.samples)


def read_fused(source, buf=None) -> FusedDataset:
    """Parse and validate one fused dataset file.

    ``buf``, if given, holds the file's bytes already read (a uint8 array);
    the records then view it.
    """
    reader = BinaryReader(np.fromfile(source, np.uint8) if buf is None else buf, source)
    reader.header(MAGIC, VERSION)
    (modality_byte,) = reader.unpack("<B")
    if modality_byte != FUSED_MODALITY_BYTE:
        raise FormatError(
            f"{source}: modality byte {modality_byte} is a plain recording, not a fused dataset"
        )
    modality_set = reader.modality_set()
    provenance_text = reader.text()
    stacked_shape, radar_shape = reader.shape(), reader.shape()
    if len(radar_shape) != 1:
        raise CorruptionError(f"{source}: radar block {radar_shape} is not one dimension")
    samples = reader.records(**fused_payloads(stacked_shape, radar_shape[0]))
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
