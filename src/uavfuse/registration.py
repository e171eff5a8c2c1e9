"""Temporal registration of modality streams and channel-axis stacking.

Thermal and optronic detections are frame-locked, so they pair under a
tight tolerance; the resulting stacked stream is then matched against the
radar stream inside a wider window. Matching is greedy nearest-first and,
by default, one-to-one without replacement: reusing a radar sample for
several stacked instances would duplicate its features across training
rows. Each recording is matched once per ``fuse_dataset`` call, and that
one pass gives both the dataset of the requested modality set and the
sample count of every set.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .data import FusedDataset, FusedSample, ModalitySet, Recording
from .errors import ConfigError, ShapeError, ValidationError, check_finite_fields

log = logging.getLogger(__name__)


@dataclass
class MatchConfig:
    frame_tolerance: float = 0.1  # thermal vs optronic; frames share capture times
    radar_tolerance: float = 0.5  # +-0.5 s window around each stacked instance
    label_constrained: bool = True
    one_to_one: bool = True

    def validate(self) -> None:
        check_finite_fields(self)
        if self.frame_tolerance < 0 or self.radar_tolerance < 0:
            raise ConfigError("tolerances must be non-negative")


def _check_sorted(samples, name: str) -> list[float]:
    times = [s.timestamp for s in samples]
    for i in range(1, len(times)):
        if times[i] < times[i - 1]:
            raise ValidationError(f"stream {name}: sample {i} out of order")
    return times


def match_streams(
    a,
    b,
    tolerance: float,
    label_constrained: bool = True,
    one_to_one: bool = True,
) -> list[tuple[int, int]]:
    """Pair samples of two time-sorted streams by timestamp proximity.

    Candidate pairs (i, j) with |t_a[i] - t_b[j]| <= tolerance (and equal
    labels when constrained) are visited by ascending |dt|, ties broken by
    smaller t_a, then smaller j; a pair is accepted iff both endpoints are
    still unmatched. With one_to_one off, every a-sample instead takes its
    closest eligible b-sample, allowing reuse. Returns index pairs sorted
    by the a-index.
    """
    ta = _check_sorted(a, "a")
    tb = _check_sorted(b, "b")
    candidates = []
    for i, t in enumerate(ta):
        lo = bisect_left(tb, t - tolerance)
        hi = bisect_right(tb, t + tolerance)
        for j in range(lo, hi):
            if label_constrained and a[i].label != b[j].label:
                continue
            candidates.append((abs(t - tb[j]), t, j, i))

    if not one_to_one:
        best: dict[int, tuple] = {}
        for key in candidates:
            i = key[3]
            if i not in best or (key[0], key[2]) < (best[i][0], best[i][2]):
                best[i] = key
        return sorted((i, key[2]) for i, key in best.items())

    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    matches = []
    for _, _, j, i in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matches.append((i, j))
    matches.sort()
    return matches


def stack_features(thermal: np.ndarray, optronic: np.ndarray) -> np.ndarray:
    """Concatenate two spatially aligned maps along the channel axis, thermal first."""
    if thermal.ndim != 3 or optronic.ndim != 3:
        raise ShapeError(
            f"stacking needs (H, W, C) maps, got {thermal.shape} and {optronic.shape}"
        )
    if thermal.shape[0] != optronic.shape[0]:
        raise ShapeError(
            f"height mismatch: {thermal.shape[0]} != {optronic.shape[0]}"
        )
    if thermal.shape[1] != optronic.shape[1]:
        raise ShapeError(f"width mismatch: {thermal.shape[1]} != {optronic.shape[1]}")
    return np.concatenate([thermal, optronic], axis=2)


def _by_id(recordings) -> dict[str, Recording]:
    return {rec.recording_id: rec for rec in recordings or []}


def fuse_dataset(
    thermal,
    optronic,
    radar,
    modality_set: ModalitySet,
    cfg: MatchConfig | None = None,
) -> FusedDataset:
    """Register recordings (paired by recording_id) into one fused dataset.

    One matching pass per recording: thermal and optronic are matched under
    frame_tolerance, then the matched pairs (timestamped at the thermal
    contributor) are matched against radar under radar_tolerance. The pass
    counts the samples of every modality set the recordings can form into
    ``set_counts``; only the samples of ``modality_set`` are stacked. The
    three-modality set drops pairs without a radar match. Recordings
    without a counterpart are skipped with a warning. Sample counts obey
    |three| <= |two| <= |one|.
    """
    cfg = cfg or MatchConfig()
    cfg.validate()
    thermal_by_id = _by_id(thermal)
    optronic_by_id = _by_id(optronic)
    radar_by_id = _by_id(radar)
    if not thermal_by_id:
        raise ValidationError("no thermal recordings to fuse")

    first_thermal = next(iter(thermal_by_id.values()))
    if modality_set is ModalitySet.THERMAL:
        stacked_shape = tuple(first_thermal.feature_shape)
    else:
        if not optronic_by_id:
            raise ValidationError("no optronic recordings to fuse")
        opt_shape = tuple(next(iter(optronic_by_id.values())).feature_shape)
        th_shape = tuple(first_thermal.feature_shape)
        stacked_shape = th_shape[:2] + (th_shape[2] + opt_shape[2],)
    radar_len = 0
    if modality_set.has_radar and radar_by_id:
        radar_len = int(np.prod(next(iter(radar_by_id.values())).feature_shape))

    two, three = ModalitySet.THERMAL_OPTRONIC, ModalitySet.THERMAL_OPTRONIC_RADAR
    counts = {ModalitySet.THERMAL: 0}
    if optronic_by_id:
        counts[two] = 0
        if radar_by_id:
            counts[three] = 0
    samples: list[FusedSample] = []
    provenance: list[str] = []
    for rec_id in sorted(thermal_by_id):
        t_rec = thermal_by_id[rec_id]
        counts[ModalitySet.THERMAL] += len(t_rec.samples)
        if modality_set is ModalitySet.THERMAL:
            provenance.append(rec_id)
            for i, s in enumerate(t_rec.samples):
                samples.append(
                    FusedSample(
                        stacked=s.features,
                        radar=None,
                        label=s.label,
                        timestamps={"thermal": s.timestamp},
                        source_indices={"recording": rec_id, "thermal": i},
                    )
                )

        o_rec = optronic_by_id.get(rec_id)
        if o_rec is None:
            if modality_set.has_optronic:
                log.warning("recording %s: no optronic counterpart, skipped", rec_id)
            continue
        pairs = match_streams(
            t_rec.samples,
            o_rec.samples,
            cfg.frame_tolerance,
            cfg.label_constrained,
            cfg.one_to_one,
        )
        counts[two] += len(pairs)

        r_rec = radar_by_id.get(rec_id)
        if r_rec is not None:
            radar_pairs = match_streams(
                [t_rec.samples[i] for i, _ in pairs],
                r_rec.samples,
                cfg.radar_tolerance,
                cfg.label_constrained,
                cfg.one_to_one,
            )
            counts[three] += len(radar_pairs)
        elif modality_set.has_radar:
            log.warning("recording %s: no radar counterpart, skipped", rec_id)
            continue

        if modality_set is two:
            kept = [(i, j, None) for i, j in pairs]
        elif modality_set is three:
            kept = [pairs[k] + (m,) for k, m in radar_pairs]
        else:
            continue
        for i, j, m in kept:
            tsamp, osamp = t_rec.samples[i], o_rec.samples[j]
            sample = FusedSample(
                stacked=stack_features(tsamp.features, osamp.features),
                radar=None,
                label=tsamp.label,
                timestamps={"thermal": tsamp.timestamp, "optronic": osamp.timestamp},
                deltas={"thermal_optronic": abs(tsamp.timestamp - osamp.timestamp)},
                source_indices={"recording": rec_id, "thermal": i, "optronic": j},
            )
            if m is not None:
                rs = r_rec.samples[m]
                sample.radar = rs.features.reshape(-1)
                sample.timestamps["radar"] = rs.timestamp
                sample.deltas["stacked_radar"] = abs(tsamp.timestamp - rs.timestamp)
                sample.source_indices["radar"] = m
            samples.append(sample)
        provenance.append(rec_id)

    dataset = FusedDataset(
        modality_set, samples, provenance, stacked_shape, radar_len, counts
    )
    dataset.validate()
    return dataset


def audit_fused_dataset(
    dataset: FusedDataset,
    cfg: MatchConfig,
    thermal=None,
    optronic=None,
    radar=None,
) -> None:
    """Re-verify construction guarantees; raises ValidationError on any breach.

    Checks recorded |dt| values against the tolerances and, per recording,
    that no source sample index was consumed twice. When the source
    recordings are supplied, contributor labels and timestamps are re-read
    and compared against the fused samples.
    """
    sources = {"thermal": _by_id(thermal), "optronic": _by_id(optronic), "radar": _by_id(radar)}
    used: dict[tuple, set[int]] = {}
    for n, sample in enumerate(dataset.samples):
        if sample.deltas.get("thermal_optronic", 0.0) > cfg.frame_tolerance:
            raise ValidationError(f"fused sample {n}: frame delta exceeds tolerance")
        if sample.deltas.get("stacked_radar", 0.0) > cfg.radar_tolerance:
            raise ValidationError(f"fused sample {n}: radar delta exceeds tolerance")
        rec_id = sample.source_indices.get("recording")
        for modality in ("thermal", "optronic", "radar"):
            idx = sample.source_indices.get(modality)
            if idx is None:
                continue
            slot = used.setdefault((rec_id, modality), set())
            if idx in slot:
                raise ValidationError(
                    f"fused sample {n}: {modality} sample {idx} of {rec_id} used twice"
                )
            slot.add(idx)
            rec = sources[modality].get(rec_id)
            if rec is not None:
                src = rec.samples[idx]
                if src.label != sample.label:
                    raise ValidationError(
                        f"fused sample {n}: {modality} contributor label disagrees"
                    )
                if src.timestamp != sample.timestamps.get(modality):
                    raise ValidationError(
                        f"fused sample {n}: {modality} contributor timestamp disagrees"
                    )
