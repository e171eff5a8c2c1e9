"""Domain types: modalities, labeled feature-map samples, recordings, fused samples."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError


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
    def from_word(cls, word: str) -> "ModalitySet":
        for member in cls:
            if member.value == word:
                return member
        raise ValueError(f"modality set must be one|two|three, got {word!r}")

    @classmethod
    def from_count(cls, count: int) -> "ModalitySet":
        for member in cls:
            if member.count == count:
                return member
        raise ValueError(f"modality count must be 1..3, got {count}")

    @property
    def count(self) -> int:
        return {"one": 1, "two": 2, "three": 3}[self.value]

    @property
    def has_optronic(self) -> bool:
        return self.count >= 2

    @property
    def has_radar(self) -> bool:
        return self.count >= 3


@dataclass(frozen=True)
class ShapeProfile:
    """Per-modality feature tensor shapes, fixed for a whole dataset."""

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
        if name == "paper":
            return cls.paper()
        if name == "reduced":
            return cls.reduced()
        raise ValueError(f"profile must be paper or reduced, got {name!r}")

    def shape_for(self, modality: Modality) -> tuple[int, ...]:
        return {
            Modality.THERMAL: self.thermal,
            Modality.OPTRONIC: self.optronic,
            Modality.RADAR: self.radar,
        }[modality]

    @property
    def stacked(self) -> tuple[int, ...]:
        """Thermal and optronic stacked along the channel axis."""
        if self.thermal[:2] != self.optronic[:2]:
            raise ShapeError(
                f"thermal spatial dims {self.thermal[:2]} != optronic {self.optronic[:2]}"
            )
        return self.thermal[:2] + (self.thermal[2] + self.optronic[2],)

    def input_shape(self, modality_set: ModalitySet) -> tuple[int, ...]:
        return self.thermal if modality_set is ModalitySet.THERMAL else self.stacked

    def radar_len(self, modality_set: ModalitySet) -> int:
        return int(np.prod(self.radar)) if modality_set.has_radar else 0


@dataclass
class DetectionSample:
    """One timestamped, labeled feature map emitted by one modality."""

    timestamp: float
    label: Label
    features: np.ndarray


@dataclass
class Recording:
    """Time-ordered detection samples of one modality from one session."""

    modality: Modality
    recording_id: str
    samples: list[DetectionSample]
    feature_shape: tuple[int, ...]

    def validate(self) -> None:
        prev = -math.inf
        for i, sample in enumerate(self.samples):
            if not math.isfinite(sample.timestamp) or sample.timestamp < 0:
                raise ValidationError(
                    f"sample {i}: timestamp {sample.timestamp} must be finite and non-negative"
                )
            if sample.timestamp < prev:
                raise ValidationError(
                    f"sample {i}: timestamp {sample.timestamp} out of order (previous {prev})"
                )
            prev = sample.timestamp
            if tuple(sample.features.shape) != tuple(self.feature_shape):
                raise ValidationError(
                    f"sample {i}: feature shape {sample.features.shape} "
                    f"!= recording shape {tuple(self.feature_shape)}"
                )


@dataclass
class FusedSample:
    """One registered training/evaluation instance.

    ``stacked`` is the thermal tensor (single-modality set) or the
    thermal-then-optronic channel stack; ``radar`` is present only in
    three-modality datasets. Timestamps, per-pair |dt| values and source
    sample indices are kept for audits and are not persisted.
    """

    stacked: np.ndarray
    radar: np.ndarray | None
    label: Label
    timestamps: dict[str, float] = field(default_factory=dict)
    deltas: dict[str, float] = field(default_factory=dict)
    source_indices: dict = field(default_factory=dict)


@dataclass
class FusedDataset:
    """Temporally registered samples for one modality set.

    ``set_counts`` is registration accounting: for each modality set the
    source recordings can form, the sample count the same matching pass
    gives it. ``fuse_dataset`` fills it; it is not persisted.
    """

    modality_set: ModalitySet
    samples: list[FusedSample]
    provenance: list[str]
    stacked_shape: tuple[int, ...]
    radar_len: int
    set_counts: dict[ModalitySet, int] = field(default_factory=dict)

    def validate(self) -> None:
        for i, sample in enumerate(self.samples):
            if tuple(sample.stacked.shape) != tuple(self.stacked_shape):
                raise ValidationError(
                    f"sample {i}: stacked shape {sample.stacked.shape} "
                    f"!= dataset shape {tuple(self.stacked_shape)}"
                )
            got = 0 if sample.radar is None else sample.radar.size
            if got != self.radar_len:
                raise ValidationError(
                    f"sample {i}: radar length {got} != dataset radar length {self.radar_len}"
                )
