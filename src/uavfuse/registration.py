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
from dataclasses import dataclass

import numpy as np

from .data import FusedDataset, Modality, ModalitySet, Recording, fused_dtype, network_input
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


AUDIT_DTYPE = np.dtype(
    [
        ("recording", "<i8"),  # index into the dataset's provenance
        ("thermal", "<i8"),  # source sample index per modality; -1 if it does not contribute
        ("optronic", "<i8"),
        ("radar", "<i8"),
        ("optronic_dt", "<f8"),  # |dt| to the thermal contributor; 0 if absent
        ("radar_dt", "<f8"),
    ]
)


def _check_sorted(times: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(times[1:] < times[:-1])
    if bad.size:
        raise ValidationError(f"stream {name}: sample {bad[0] + 1} out of order")


def match_streams(
    a,
    b,
    tolerance: float,
    label_constrained: bool = True,
    one_to_one: bool = True,
) -> np.ndarray:
    """Pair samples of two time-sorted streams by timestamp proximity.

    ``a`` and ``b`` are record arrays with ``timestamp`` and ``label``
    fields. Candidate pairs (i, j) with |t_a[i] - t_b[j]| <= tolerance (and
    equal labels when constrained) are visited by ascending |dt|, ties
    broken by smaller t_a, then smaller j, then smaller i; a pair is
    accepted iff both endpoints are still unmatched. With one_to_one off,
    every a-sample instead takes its closest eligible b-sample (ties to the
    smaller j), allowing reuse. Returns a (k, 2) array of (i, j) index
    pairs sorted by i.
    """
    ta, tb = a["timestamp"], b["timestamp"]
    _check_sorted(ta, "a")
    _check_sorted(tb, "b")
    # t_a ± tolerance is rounded; two ulps wider, the window holds every |dt| <= tolerance
    reach = tolerance + 2 * np.spacing(np.abs(ta) + tolerance)
    lo = np.searchsorted(tb, ta - reach, side="left")
    hi = np.searchsorted(tb, ta + reach, side="right")
    width = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(len(ta)), width)
    j = np.arange(len(i)) - np.repeat(np.cumsum(width) - width - lo, width)
    dt = np.abs(ta[i] - tb[j])
    keep = dt <= tolerance
    if label_constrained:
        keep &= a["label"][i] == b["label"][j]
    i, j, dt = i[keep], j[keep], dt[keep]

    if not one_to_one:
        order = np.lexsort((j, dt, i))
        order = order[np.diff(i[order], prepend=-1) != 0]  # the first candidate of each i
        return np.stack([i[order], j[order]], axis=1)

    used_a, used_b = bytearray(len(ta)), bytearray(len(tb))
    accepted = []
    order = np.lexsort((i, j, ta[i], dt))
    for k, ik, jk in zip(order.tolist(), i[order].tolist(), j[order].tolist()):
        if not (used_a[ik] or used_b[jk]):
            used_a[ik] = used_b[jk] = 1
            accepted.append(k)
    order = np.array(accepted, dtype=np.intp)
    order = order[np.argsort(i[order], kind="stable")]
    return np.stack([i[order], j[order]], axis=1)


def stack_features(
    thermal: np.ndarray, optronic: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Concatenate spatially aligned maps along the channel axis, thermal first.

    Takes two (H, W, C) maps or two (n, H, W, C) blocks of n maps each, and
    writes them into ``out`` (a new array when None), which must have the
    stacked shape; ``fuse_dataset`` passes its records' stacked column.
    """
    if thermal.ndim not in (3, 4) or optronic.ndim != thermal.ndim:
        raise ShapeError(
            f"stacking needs (H, W, C) maps or (n, H, W, C) blocks, "
            f"got {thermal.shape} and {optronic.shape}"
        )
    if thermal.shape[:-3] != optronic.shape[:-3]:
        raise ShapeError(f"block size mismatch: {thermal.shape[0]} != {optronic.shape[0]}")
    for axis, name in ((-3, "height"), (-2, "width")):
        if thermal.shape[axis] != optronic.shape[axis]:
            got = (thermal.shape[axis], optronic.shape[axis])
            raise ShapeError(f"{name} mismatch: {got[0]} != {got[1]}")
    c = thermal.shape[-1]
    shape = thermal.shape[:-1] + (c + optronic.shape[-1],)
    if out is None:
        out = np.empty(shape, np.result_type(thermal, optronic))
    elif out.shape != shape:
        raise ShapeError(f"output shape {out.shape} != stacked shape {shape}")
    out[..., :c] = thermal
    out[..., c:] = optronic
    return out


def _by_id(recordings, name: str) -> dict[str, Recording]:
    """A modality's recordings by id; two recordings with one id are rejected."""
    by_id = {}
    for rec in recordings or []:
        if rec.recording_id in by_id:
            raise ValidationError(f"two {name} recordings have the id {rec.recording_id!r}")
        by_id[rec.recording_id] = rec
    return by_id


def _feature_shape(by_id: dict[str, Recording], name: str) -> tuple[int, ...] | None:
    """The one feature shape of a modality's recordings; None when there are none."""
    shapes = {rec.feature_shape for rec in by_id.values()}
    if len(shapes) > 1:
        raise ValidationError(f"{name} recordings disagree on feature shape: {sorted(shapes)}")
    return shapes.pop() if shapes else None


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
    without a counterpart are skipped with a warning. A fused modality
    without recordings, two recordings of one modality with the same id and
    maps that cannot stack are rejected. Sample counts obey
    |three| <= |two| <= |one|.
    """
    cfg = cfg or MatchConfig()
    cfg.validate()
    by_id, shapes = [], []
    for modality, recordings in zip(Modality, (thermal, optronic, radar)):
        name = modality.name.lower()
        by_id.append(_by_id(recordings, name))
        shapes.append(_feature_shape(by_id[-1], name))
        if shapes[-1] is None and modality in modality_set.modalities:
            unmatched = ", ".join(sorted(by_id[0]))
            ids = f"; unmatched recording ids: {unmatched}" if unmatched else ""
            raise ValidationError(f"no {name} recordings to fuse{ids}")
    thermal_by_id, optronic_by_id, radar_by_id = by_id
    try:
        stacked_shape, radar_len = network_input(modality_set, *shapes)
    except ShapeError as exc:  # the shapes came from the recordings: invalid data
        raise ValidationError(str(exc)) from None

    two, three = ModalitySet.THERMAL_OPTRONIC, ModalitySet.THERMAL_OPTRONIC_RADAR
    # the sets the recordings can form: thermal, then with optronic, then with radar
    formable = 1 + bool(optronic_by_id) * (1 + bool(radar_by_id))
    counts = dict.fromkeys(list(ModalitySet)[:formable], 0)
    # per contributing recording: its id, its thermal, optronic and radar records
    # (None where a modality does not contribute) and the source rows of each sample
    kept = []
    for rec_id in sorted(thermal_by_id):
        t = thermal_by_id[rec_id].samples
        counts[ModalitySet.THERMAL] += len(t)
        if modality_set is ModalitySet.THERMAL:
            kept.append((rec_id, t, None, None, np.arange(len(t)), None, None))

        o_rec = optronic_by_id.get(rec_id)
        if o_rec is None:
            if modality_set.has_optronic:
                log.warning("recording %s: no optronic counterpart, skipped", rec_id)
            continue
        o = o_rec.samples
        pairs = match_streams(t, o, cfg.frame_tolerance, cfg.label_constrained, cfg.one_to_one)
        counts[two] += len(pairs)

        r_rec = radar_by_id.get(rec_id)
        if r_rec is not None:
            # the matched pairs, keyed by their thermal timestamp and label
            keys = np.rec.fromarrays(
                [t.timestamp[pairs[:, 0]], t.label[pairs[:, 0]]], names="timestamp,label"
            )
            radar_pairs = match_streams(
                keys, r_rec.samples, cfg.radar_tolerance, cfg.label_constrained, cfg.one_to_one
            )
            counts[three] += len(radar_pairs)
        elif modality_set.has_radar:
            log.warning("recording %s: no radar counterpart, skipped", rec_id)
            continue

        if modality_set is two:
            kept.append((rec_id, t, o, None, pairs[:, 0], pairs[:, 1], None))
        elif modality_set is three:
            k, m = radar_pairs[:, 0], radar_pairs[:, 1]
            kept.append((rec_id, t, o, r_rec.samples, pairs[k, 0], pairs[k, 1], m))

    n = sum(len(part[4]) for part in kept)
    samples = np.recarray(n, fused_dtype(stacked_shape, radar_len))
    audit = np.zeros(n, AUDIT_DTYPE)
    lo = 0
    for recording, (_, t, o, r, i, j, m) in enumerate(kept):
        rows = slice(lo, lo + len(i))
        lo = rows.stop
        samples.timestamp[rows], samples.label[rows] = t.timestamp[i], t.label[i]
        if o is None:
            samples.stacked[rows] = t.features[i]
        else:  # each map's gathered rows go straight into their channels of the records
            stack_features(t.features[i], o.features[j], samples.stacked[rows])
        if r is not None:
            samples.radar[rows] = r.features[m].reshape(len(m), radar_len)
        part = audit[rows]
        part["recording"], part["thermal"] = recording, i
        for name, src, idx in (("optronic", o, j), ("radar", r, m)):
            if src is None:
                part[name] = -1
            else:
                part[name] = idx
                part[f"{name}_dt"] = np.abs(t.timestamp[i] - src.timestamp[idx])

    provenance = [rec_id for rec_id, *_ in kept]
    return FusedDataset(modality_set, samples, provenance, counts, audit)


def audit_fused_dataset(
    dataset: FusedDataset,
    cfg: MatchConfig,
    thermal=None,
    optronic=None,
    radar=None,
) -> None:
    """Re-verify construction guarantees; raises ValidationError on any breach.

    Checks the audit's |dt| columns against the tolerances and, per
    recording, that no source sample index was consumed twice. When the
    source recordings are supplied, contributor labels and timestamps are
    re-read and compared against the fused samples. A dataset read from a
    file has no audit columns and passes.
    """
    audit = dataset.audit
    if audit is None:
        return
    rows = np.arange(len(audit))
    _breach(rows, audit["optronic_dt"] > cfg.frame_tolerance, "frame delta exceeds tolerance")
    _breach(rows, audit["radar_dt"] > cfg.radar_tolerance, "radar delta exceeds tolerance")
    fused_t, fused_labels = dataset.samples.timestamp, dataset.samples.label
    recording = audit["recording"]
    for modality, recs in (("thermal", thermal), ("optronic", optronic), ("radar", radar)):
        idx = audit[modality]
        rows = np.flatnonzero(idx >= 0)
        keys = np.stack([recording[rows], idx[rows]], axis=1)
        _, first = np.unique(keys, axis=0, return_index=True)
        reused = np.setdiff1d(np.arange(len(rows)), first)
        if reused.size:
            n = rows[reused[0]]
            where = f"{modality} sample {idx[n]} of {dataset.provenance[recording[n]]}"
            raise ValidationError(f"fused sample {n}: {where} used twice")
        for k, rec in enumerate(map(_by_id(recs, modality).get, dataset.provenance)):
            if rec is None:
                continue
            mine = rows[recording[rows] == k]
            src_t, src_labels = rec.samples.timestamp[idx[mine]], rec.samples.label[idx[mine]]
            dt = 0.0 if modality == "thermal" else audit[f"{modality}_dt"][mine]
            what = f"{modality} contributor"
            _breach(mine, src_labels != fused_labels[mine], f"{what} label disagrees")
            _breach(mine, np.abs(fused_t[mine] - src_t) != dt, f"{what} timestamp disagrees")


def _breach(rows: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise naming the first of the fused samples ``rows`` that ``bad`` flags."""
    if bad.any():
        raise ValidationError(f"fused sample {rows[np.argmax(bad)]}: {what}")
