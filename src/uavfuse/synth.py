"""Seeded synthetic stand-in for the upstream detectors' labeled feature maps.

Each recording is a sequence of detection events. Event k of class y gets,
in every modality m that does not drop it, the feature tensor

    sep_m * s(y) * u_m + sigma * n        s(UAV) = +1, s(false alarm) = -1

where u_m is a fixed unit-norm pattern per modality (seeded once per
dataset) and n is independent unit Gaussian noise per element and per
modality. No claim of sensor realism is made; the point is controllable
separability:

* projecting a modality onto its pattern gives N(+-sep_m, sigma^2), so with
  equal separations d the optimal single-modality accuracy at balanced
  priors is Phi(d / sigma);
* with k modalities of independent noise the combined statistic has
  separation sqrt(k) * d / sigma, hence accuracy Phi(sqrt(k) * d / sigma) -
  fusing more sensors is strictly better. Pick sigma = d / Phi^{-1}(target)
  to aim a single-modality accuracy. (Unbalanced priors shift the optimal
  threshold but keep the ordering.)

Thermal and optronic samples of one event are frame-locked: they share a
timestamp (base frame time plus one shared jitter). Radar samples snap to
the radar-rate grid and get independent jitter. Everything is a pure
function of the seed; recordings use per-index derived seeds so they can be
generated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Modality, Recording, ShapeProfile, recording_dtype
from .errors import ConfigError, ValidationError, check_finite_fields
from .rng import Rng

# feature values per block of rows written into a recording
_BLOCK_VALUES = 1 << 15


@dataclass
class SynthConfig:
    recordings_per_modality: int = 4
    samples_per_recording: int = 60
    uav_fraction: float = 1045 / 3209  # class prior mirroring the field data imbalance
    thermal_separation: float = 1.0
    optronic_separation: float = 1.0
    radar_separation: float = 1.0
    # default tuned so a trained single-modality model lands near 0.87 test F1
    # at the reduced profile (see the separability note above)
    noise_sigma: float = 0.5
    frame_rate: float = 2.0
    radar_rate: float = 3.0
    timestamp_jitter: float = 0.05
    thermal_dropout: float = 0.1
    optronic_dropout: float = 0.1
    radar_dropout: float = 0.1
    seed: int = 0
    shape_profile: ShapeProfile = field(default_factory=ShapeProfile.paper)

    def validate(self) -> None:
        check_finite_fields(self)
        if self.recordings_per_modality < 0:
            raise ConfigError("recordings_per_modality must be non-negative")
        # zero samples would make empty recordings, however many of them
        if self.samples_per_recording < 1:
            raise ConfigError(
                f"samples_per_recording must be positive, got {self.samples_per_recording}"
            )
        if not 0 <= self.uav_fraction <= 1:
            raise ConfigError(f"uav_fraction must be in [0, 1], got {self.uav_fraction}")
        for name in ("thermal_separation", "optronic_separation", "radar_separation"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.frame_rate <= 0 or self.radar_rate <= 0:
            raise ConfigError("frame_rate and radar_rate must be positive")
        if self.timestamp_jitter < 0:
            raise ConfigError("timestamp_jitter must be non-negative")
        for name in ("thermal_dropout", "optronic_dropout", "radar_dropout"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1]")


def _pattern(root: Rng, modality: Modality, shape: tuple[int, ...]) -> np.ndarray:
    u = root.spawn(f"pattern/{modality.name.lower()}").normal(shape)
    return u / np.linalg.norm(u)


# An overflow shows as a non-finite timestamp or feature, which the recording
# check below reports; numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic_dataset(config: SynthConfig) -> dict[Modality, list[Recording]]:
    """One recording per modality per recording index, fully seed-determined.

    A config whose values make a recording that cannot be stored (say, a
    timestamp or feature that overflows) raises ConfigError naming it.
    """
    config.validate()
    root = Rng(config.seed)
    profile = config.shape_profile
    patterns = {m: _pattern(root, m, profile.shape_for(m)) for m in Modality}

    out: dict[Modality, list[Recording]] = {m: [] for m in Modality}
    for r in range(config.recordings_per_modality):
        rng = root.spawn(f"recording/{r:04d}")
        n = config.samples_per_recording
        # fixed draw order: classes, jitters, dropouts, then per-modality noise
        is_uav = rng.uniform(n) < config.uav_fraction
        frame_jitter = (rng.uniform(n) * 2 - 1) * config.timestamp_jitter
        radar_jitter = (rng.uniform(n) * 2 - 1) * config.timestamp_jitter
        dropped = {
            m: rng.uniform(n) < getattr(config, f"{m.name.lower()}_dropout") for m in Modality
        }

        base = np.arange(n, dtype=np.float64) / config.frame_rate
        frame_t = np.clip(base + frame_jitter, 0.0, None)
        radar_t = np.clip(
            np.round(base * config.radar_rate) / config.radar_rate + radar_jitter,
            0.0,
            None,
        )
        signs = np.where(is_uav, 1.0, -1.0)

        rec_id = f"rec{r:03d}"
        for modality in Modality:
            shape = profile.shape_for(modality)
            times = radar_t if modality is Modality.RADAR else frame_t
            keep = np.flatnonzero(~dropped[modality])
            order = keep[np.argsort(times[keep], kind="stable")]
            mean = getattr(config, f"{modality.name.lower()}_separation") * patterns[modality]
            noise = rng.normal((n,) + shape)
            samples = np.recarray(len(order), recording_dtype(shape))
            samples.timestamp = times[order]
            samples.label = is_uav[order]
            # sigma * noise + sign * mean for the kept events, a block of rows at a
            # time, in place: IEEE products and sums commute, so the bits are the
            # same; the field assignment rounds them to f32
            step = max(1, _BLOCK_VALUES // max(1, math.prod(shape)))
            for lo in range(0, len(order), step):
                rows = order[lo : lo + step]
                block = noise[rows]
                block *= config.noise_sigma
                block += signs[rows].reshape((-1,) + (1,) * len(shape)) * mean
                samples.features[lo : lo + step] = block
            recording = Recording(modality, rec_id, samples)
            try:
                recording.validate()
            except ValidationError as exc:
                what = f"{modality.name.lower()} recording {rec_id}"
                raise ConfigError(f"the config makes an invalid {what}: {exc}") from None
            out[modality].append(recording)
    return out
