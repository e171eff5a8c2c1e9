"""Command-line pipeline: generate, register, train, evaluate.

Every command reads an optional ``key = value`` config file, applies flag
overrides, echoes the resolved configuration into the output directory,
and exits 0 on success. Exit codes: 2 config error, 3 missing or invalid
data, 4 training precondition failure, 5 model/data incompatibility,
1 unexpected fault or out of memory, reported in one line.

A command reads, checks and computes everything before it writes, so a
failure leaves no output directory; ``RunConfig.write_resolved`` makes it.
``train`` checks the model spec first, then writes each repeat's weights
and report as that repeat finishes: the first makes the directory, and a
later failure keeps the earlier repeats' files.

``evaluate`` writes ``evaluation.txt``, a machine-readable ``key = value``
document: ``dataset_digest``, ``dataset_samples``, ``modality_set``,
``models``, ``per_seed_f1`` (comma-separated), ``mean_f1``, then one
``[<weights file>]`` block per model with ``weights_digest``, the confusion
counts ``tn``/``fp``/``fn``/``tp``, ``fa_precision``/``fa_recall``/``fa_f1``,
``uav_precision``/``uav_recall``/``uav_f1``, ``weighted_precision``,
``weighted_recall``, ``weighted_f1``, ``accuracy`` and ``auc``. Training
reports use the same style plus a tab-separated per-epoch series.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .data import Modality, ModalitySet, ShapeProfile
from .errors import (
    CompatibilityError,
    ConfigError,
    DataError,
    TrainingError,
    UavFuseError,
    ValidationError,
)
from .metrics import (
    classification_report,
    confusion_at_threshold,
    render_confusion,
    render_report,
    roc_csv,
    roc_curve,
)
from .model import build_model, load_weights, record_maps, save_weights, weights_digest
from .msfr import (
    provenance_block,
    read_fused,
    read_manifest,
    read_recording,
    write_fused,
    write_manifest,
    write_recording,
)
from .registration import fuse_dataset
from .rng import Rng
from .synth import generate_synthetic_dataset
from .text import format_value, key_value_lines
from .training import evaluate_probabilities, train

log = logging.getLogger("uavfuse")


def cmd_generate(cfg: RunConfig, out_dir: Path) -> int:
    data = generate_synthetic_dataset(cfg.synth_config())
    cfg.write_resolved(out_dir)
    entries = []
    for modality in Modality:
        for rec in data[modality]:
            name = f"{rec.recording_id}_{modality.kind}.msfr"
            write_recording(rec, out_dir / name)
            entries.append((name, modality.kind, len(rec.samples)))
    entries.sort()
    write_manifest(out_dir, entries)
    total = sum(count for _, _, count in entries)
    print(
        f"wrote {cfg.synth.recordings_per_modality} recording(s) per modality, "
        f"{total} samples total, to {out_dir}"
    )
    return 0


def _load_recordings(data_dir: Path) -> dict[Modality, list]:
    recordings = {m: [] for m in Modality}
    for name, kind, count in read_manifest(data_dir):
        rec = read_recording(data_dir / name)
        if rec.modality.kind != kind:  # also rejects a kind that names no modality
            raise ValidationError(
                f"{name}: the manifest lists kind {kind!r}, but the file is {rec.modality.kind}"
            )
        if len(rec.samples) != count:
            raise ValidationError(
                f"{name}: {len(rec.samples)} samples, but the manifest lists {count}"
            )
        recordings[rec.modality].append(rec)
    return recordings


def cmd_register(cfg: RunConfig, data_dir: Path, out_dir: Path) -> int:
    recordings = _load_recordings(data_dir)
    holdout = cfg.holdout_recordings
    ids = sorted({r.recording_id for r in recordings[Modality.THERMAL]})
    if holdout >= len(ids) and holdout > 0:
        raise DataError(
            f"holdout_recordings={holdout} leaves no training recordings (have {len(ids)})"
        )
    # each split: its directory and the recording ids it fuses
    every = {r.recording_id for recs in recordings.values() for r in recs}
    splits = {"all": (out_dir, every)} if holdout == 0 else {
        "train": (out_dir / "train", set(ids[:-holdout])),
        "test": (out_dir / "test", set(ids[-holdout:])),
    }
    fused = {}
    for split, (split_dir, chosen) in splits.items():
        parts = ([r for r in recordings[m] if r.recording_id in chosen] for m in Modality)
        dataset = fuse_dataset(*parts, cfg.modality_set, cfg.match)
        try:
            provenance_block(dataset)  # its u16 length, checked before any output
        except ValidationError as exc:
            raise ValidationError(f"split {split!r}: {exc}") from None
        fused[split] = split_dir, dataset

    cfg.write_resolved(out_dir)
    name = _fused_name(cfg)
    for split, (split_dir, dataset) in fused.items():
        cfg.write_resolved(split_dir)
        write_fused(dataset, split_dir / name)
        write_manifest(split_dir, [(name, "fused", len(dataset.samples))])
        counts = " ".join(f"{s.value}={n}" for s, n in dataset.set_counts.items())
        print(f"counts[{split}]: {counts}")
        print(f"wrote {name} to {split_dir}")
    return 0


def _fused_name(cfg: RunConfig) -> str:
    return f"fused_{cfg.modalities}.msfr"


def _fused_path(data: Path, cfg: RunConfig) -> Path:
    if data.is_file():
        return data
    candidate = data / _fused_name(cfg)
    if candidate.is_file():
        return candidate
    raise DataError(f"no fused dataset at {data} (looked for {candidate.name})")


def _training_report_text(seed: int, report) -> str:
    head = key_value_lines(
        {
            "seed": seed,
            "stopped_epoch": report.stopped_epoch,
            "best_epoch": report.best_epoch,
            "weights_digest": report.weights_digest,
            "val_weighted_f1": report.val_weighted_f1,
        }
    )
    series = (report.train_loss, report.train_accuracy, report.val_loss, report.val_accuracy)
    rows = ["epoch\ttrain_loss\ttrain_accuracy\tval_loss\tval_accuracy"]
    rows += ["\t".join(map(format_value, (e, *row))) for e, row in enumerate(zip(*series), 1)]
    return head + "\n".join(rows) + "\n"


def cmd_train(cfg: RunConfig, data: Path, out_dir: Path) -> int:
    dataset = read_fused(_fused_path(data, cfg))
    spec = cfg.model_spec(dataset.modality_set, dataset.stacked_shape, dataset.radar_len)
    spec.validate()
    f1s = []
    for r in range(cfg.repeats):
        seed = cfg.seed + r
        model = build_model(spec, Rng(seed).spawn("init"))
        trained, report = train(model, dataset, cfg.train_config(seed))
        f1s.append(report.val_weighted_f1)
        if r == 0:  # the first finished repeat makes the directory
            cfg.write_resolved(out_dir)
        save_weights(trained, out_dir / f"model_{r:03d}.msfw")
        (out_dir / f"report_{r:03d}.txt").write_text(
            _training_report_text(seed, report), encoding="utf-8"
        )
        print(
            f"repeat {r} (seed {seed}): stopped at epoch {report.stopped_epoch}, "
            f"best epoch {report.best_epoch}, validation weighted F1 {format_value(f1s[-1])}"
        )
    mean_f1 = format_value(float(np.mean(f1s)))
    print(f"mean validation weighted F1 over {cfg.repeats} run(s): {mean_f1}")
    return 0


def cmd_evaluate(cfg: RunConfig, model_path: Path, data: Path, out_dir: Path) -> int:
    # each input is read once: the digests describe the bytes evaluated
    fused_file = _fused_path(data, cfg)
    fused_bytes = np.fromfile(fused_file, np.uint8)
    dataset = read_fused(fused_file, fused_bytes)
    if len(dataset.samples) == 0:
        raise DataError(f"fused dataset {fused_file} is empty")
    if model_path.is_dir():
        model_files = sorted(model_path.glob("*.msfw"))
        if not model_files:
            raise DataError(f"no .msfw weights files in {model_path}")
    else:
        model_files = [model_path]

    # the maps are read from the records in place; the labels are the one copy
    x, r = record_maps(dataset.samples)
    y = np.array(dataset.samples["label"], np.float32)
    scored, f1s = [], []
    for path in model_files:
        model = load_weights(path)
        p = evaluate_probabilities(model, x, r, cfg.train.batch_size)
        cm = confusion_at_threshold(y, p)
        report = classification_report(cm)
        scored.append((path, weights_digest(model), cm, report, roc_curve(y, p)))
        f1s.append(report.weighted_f1)
    doc = {
        "dataset_digest": hashlib.sha256(fused_bytes).hexdigest(),
        "dataset_samples": len(dataset.samples),
        "modality_set": dataset.modality_set.value,
        "models": [f.name for f in model_files],
        "per_seed_f1": f1s,
        "mean_f1": float(np.mean(f1s)),
    }

    cfg.write_resolved(out_dir)
    blocks = []
    for path, digest, cm, report, curve in scored:
        (out_dir / f"roc_{path.stem}.csv").write_text(roc_csv(curve), encoding="utf-8")
        block = {
            "weights_digest": digest,
            "tn": cm.tn,
            "fp": cm.fp,
            "fn": cm.fn,
            "tp": cm.tp,
            "fa_precision": report.false_alarm.precision,
            "fa_recall": report.false_alarm.recall,
            "fa_f1": report.false_alarm.f1,
            "uav_precision": report.uav.precision,
            "uav_recall": report.uav.recall,
            "uav_f1": report.uav.f1,
            "weighted_precision": report.weighted_precision,
            "weighted_recall": report.weighted_recall,
            "weighted_f1": report.weighted_f1,
            "accuracy": report.accuracy,
            "auc": curve.auc,
        }
        blocks.append(f"[{path.name}]\n" + key_value_lines(block))
        print(f"== {path.name} ==")
        print(render_confusion(cm))
        print(render_report(report))
        print(f"AUC: {format_value(curve.auc)}")

    text = key_value_lines(doc) + "".join(blocks)
    (out_dir / "evaluation.txt").write_text(text, encoding="utf-8")
    print(f"mean weighted F1 over {len(f1s)} model(s): {format_value(doc['mean_f1'])}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavfuse",
        description="UAV vs. false-alarm late-fusion pipeline over per-sensor feature maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="key = value configuration file")
        p.add_argument("--seed", type=int)
        p.add_argument("--profile", choices=ShapeProfile.NAMES)
        p.add_argument("--modalities", choices=[s.value for s in ModalitySet])
        p.add_argument("--repeats", type=int)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("generate", help="synthesize per-modality recordings")
    common(p)

    p = sub.add_parser("register", help="temporally register recordings into fused datasets")
    common(p)
    p.add_argument("--data", type=Path, required=True, help="directory of recordings")
    p.add_argument("--holdout", type=int, help="recordings held out as the test split")

    p = sub.add_parser("train", help="train fusion models on a fused dataset")
    common(p)
    p.add_argument("--data", type=Path, required=True, help="fused dataset file or directory")

    p = sub.add_parser("evaluate", help="evaluate weights on a fused test dataset")
    common(p)
    p.add_argument("--model", type=Path, required=True, help="weights file or directory")
    p.add_argument("--data", type=Path, required=True, help="fused dataset file or directory")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "profile": args.profile,
        "modalities": args.modalities,
        "repeats": args.repeats,
    }
    if getattr(args, "holdout", None) is not None:
        overrides["holdout_recordings"] = args.holdout
    try:
        cfg = load_run_config(args.config, overrides)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "register":
            return cmd_register(cfg, args.data, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.data, args.out)
        return cmd_evaluate(cfg, args.model, args.data, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4
    except CompatibilityError as exc:
        print(f"incompatible model/data: {exc}", file=sys.stderr)
        return 5
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except UavFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
