"""Domain types: modalities, shape profiles, and the packed sample records of
recordings and fused datasets (the MSFR file layout, held in memory as recarrays)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptionError, ShapeError, ValidationError


class Modality(enum.IntEnum):
    """Sensor stream identifiers; values are the on-disk modality bytes."""

    THERMAL = 0
    OPTRONIC = 1
    RADAR = 2


class Label(enum.IntEnum):
    """Binary class; values are the on-disk label bytes."""

    FALSE_ALARM = 0
    UAV = 1


class ModalitySet(enum.Enum):
    """Which sensors contribute to a fused dataset."""

    THERMAL = "one"
    THERMAL_OPTRONIC = "two"
    THERMAL_OPTRONIC_RADAR = "three"

    @classmethod
    def from_count(cls, count: int) -> "ModalitySet":
        if not 1 <= count <= len(cls):
            raise ValueError(f"modality count must be 1..{len(cls)}, got {count}")
        return list(cls)[count - 1]

    @property
    def count(self) -> int:
        return list(ModalitySet).index(self) + 1

    @property
    def modalities(self) -> tuple[Modality, ...]:
        """The fused sensors: the first ``count`` of thermal, optronic, radar."""
        return tuple(Modality)[: self.count]

    @property
    def has_optronic(self) -> bool:
        return Modality.OPTRONIC in self.modalities

    @property
    def has_radar(self) -> bool:
        return Modality.RADAR in self.modalities


def network_input(modality_set: ModalitySet, thermal, optronic, radar) -> tuple[tuple, int]:
    """The fusion network's input for per-modality feature shapes: (stacked_shape, radar_len).

    The one-modality set takes the thermal map alone; the others stack the
    thermal and optronic (H, W, C) maps along the channel axis, thermal
    first; the three-modality set adds the flattened radar vector. A shape
    the set does not use may be None.
    """
    if not modality_set.has_optronic:
        return tuple(thermal), 0
    if len(thermal) != 3 or len(optronic) != 3 or thermal[:2] != optronic[:2]:
        raise ShapeError(f"cannot stack thermal {thermal} and optronic {optronic} maps")
    stacked = tuple(thermal[:2]) + (thermal[2] + optronic[2],)
    radar_len = math.prod(radar) if modality_set.has_radar else 0
    if modality_set.has_radar and not radar_len:
        raise ShapeError(f"radar features {tuple(radar)} are empty")
    return stacked, radar_len


@dataclass(frozen=True)
class ShapeProfile:
    """Per-modality feature tensor shapes, fixed for a whole dataset."""

    NAMES = ("paper", "reduced")  # the profiles, each a constructor below

    name: str
    thermal: tuple[int, ...]
    optronic: tuple[int, ...]
    radar: tuple[int, ...]

    @classmethod
    def paper(cls) -> "ShapeProfile":
        """Full-scale shapes produced by the upstream detectors."""
        return cls("paper", (7, 7, 1024), (7, 7, 512), (1664,))

    @classmethod
    def reduced(cls) -> "ShapeProfile":
        """Channel-shrunk shapes for fast tests and CI."""
        return cls("reduced", (7, 7, 32), (7, 7, 16), (64,))

    @classmethod
    def named(cls, name: str) -> "ShapeProfile":
        if name in cls.NAMES:
            return getattr(cls, name)()
        raise ValueError(f"profile must be {' or '.join(cls.NAMES)}, got {name!r}")

    def shape_for(self, modality: Modality) -> tuple[int, ...]:
        return getattr(self, modality.name.lower())

    def network_input(self, modality_set: ModalitySet) -> tuple[tuple[int, ...], int]:
        """``network_input`` for this profile's shapes."""
        return network_input(modality_set, self.thermal, self.optronic, self.radar)


_HEAD = np.dtype([("timestamp", "<f8"), ("label", "u1")])


def record_dtype(**payloads: tuple[int, ...]) -> np.dtype:
    """A packed MSFR record: f8 timestamp, u1 label, then one f4 array per payload shape."""
    fields = [(name, "<f4", tuple(shape)) for name, shape in payloads.items()]
    return np.dtype(_HEAD.descr + fields)


def record_size(**payloads: tuple[int, ...]) -> int:
    """``record_dtype(**payloads).itemsize`` in Python ints, exact for any stored shape."""
    return _HEAD.itemsize + 4 * sum(math.prod(shape) for shape in payloads.values())


def recording_dtype(shape: tuple[int, ...]) -> np.dtype:
    """One recording sample: timestamp, label, features[shape]."""
    return record_dtype(features=shape)


def fused_payloads(stacked_shape: tuple[int, ...], radar_len: int) -> dict:
    """A fused sample's payload shapes: stacked, then radar only when radar_len > 0."""
    return {"stacked": tuple(stacked_shape), **({"radar": (radar_len,)} if radar_len else {})}


def fused_dtype(stacked_shape: tuple[int, ...], radar_len: int) -> np.dtype:
    """One fused sample: timestamp, label, stacked[shape], then radar[radar_len] if any."""
    return record_dtype(**fused_payloads(stacked_shape, radar_len))


def check_records(samples: np.ndarray, dtype: np.dtype, ordered: bool, source=None) -> None:
    """Raise naming the first sample with a bad timestamp, label or payload.

    ``samples`` must have exactly ``dtype``. Timestamps must be finite,
    non-negative and, when ``ordered``, non-decreasing; labels must be 0 or
    1; payloads must be finite. In a file (``source`` given) a bad label or
    payload is corruption.
    """
    where = "" if source is None else f"{source}: "
    if samples.dtype != dtype:
        raise ValidationError(f"{where}{samples.dtype} is not the file layout {dtype}")
    fault = ValidationError if source is None else CorruptionError
    t, labels = samples["timestamp"], samples["label"]
    checks = [
        (~np.isfinite(t) | (t < 0), ValidationError,
         "timestamp {t} must be finite and non-negative"),
        (np.r_[False, t[1:] < t[:-1]] & ordered, ValidationError,
         "timestamp {t} out of order (previous {prev})"),
        (labels > 1, fault, "label byte must be 0 or 1, got {label}"),
    ]
    for name in dtype.names[2:]:
        finite = np.isfinite(samples[name]).all(axis=tuple(range(1, samples[name].ndim)))
        checks.append((~finite, fault, f"{name} payload holds non-finite values"))
    for bad, error, message in checks:
        if bad.any():
            i = int(np.argmax(bad))
            message = message.format(t=t[i], prev=t[i - 1], label=labels[i])
            raise error(f"{where}sample {i} {message}")


@dataclass
class Recording:
    """Time-ordered detection samples of one modality from one session.

    ``samples`` is a recarray of ``recording_dtype(feature_shape)``: the
    in-memory layout is the MSFR file's record layout.
    """

    modality: Modality
    recording_id: str
    samples: np.recarray

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.samples.dtype["features"].shape

    def validate(self, source=None) -> None:
        check_records(self.samples, recording_dtype(self.feature_shape), True, source)


@dataclass
class FusedDataset:
    """Temporally registered samples for one modality set.

    ``samples`` is a recarray of ``fused_dtype``, the file's record layout;
    a sample's timestamp is its thermal contributor's. ``audit`` holds one
    ``registration.AUDIT_DTYPE`` row per sample (source indices and |dt|
    values) when ``fuse_dataset`` built the set; a read gives None.
    ``set_counts`` is registration accounting: for each modality set the
    source recordings can form, the sample count the same matching pass
    gives it. Neither is persisted.
    """

    modality_set: ModalitySet
    samples: np.recarray
    provenance: list[str]
    set_counts: dict[ModalitySet, int] = field(default_factory=dict)
    audit: np.ndarray | None = None

    @property
    def stacked_shape(self) -> tuple[int, ...]:
        return self.samples.dtype["stacked"].shape

    @property
    def radar_len(self) -> int:
        names = self.samples.dtype.names
        return self.samples.dtype["radar"].shape[0] if "radar" in names else 0

    def validate(self, source=None) -> None:
        """Check the payload shapes against the modality set, then the records.

        The stacked maps must be (H, W, C), and radar features must be
        present exactly when the set has radar. In a file (``source``
        given) a breach is corruption.
        """
        stacked, radar_len, name = self.stacked_shape, self.radar_len, self.modality_set.value
        fault = None
        if len(stacked) != 3:
            fault = f"stacked shape {stacked} is not (H, W, C)"
        elif self.modality_set.has_radar != (radar_len > 0):
            fault = f"radar length {radar_len} does not fit the {name}-modality set"
        if fault:
            raise ValidationError(fault) if source is None else CorruptionError(f"{source}: {fault}")
        check_records(self.samples, fused_dtype(stacked, radar_len), False, source)
