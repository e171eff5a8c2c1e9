"""Deterministic mini-batch training with RMSprop and early stopping.

One optimizer step per mini-batch with a step counter shared by every
parameter tensor; validation loss is monitored after each epoch and
training stops once it has gone `patience` consecutive epochs without a
strict improvement. All shuffling, splitting and dropout randomness flows
from the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import FusedDataset, fused_dtype
from .errors import (
    CompatibilityError, ConfigError, NumericFault, TrainingError, check_finite_fields
)
from .metrics import classification_report, confusion_at_threshold
from .model import Model, weights_digest, workspace, _check_batch, _forward
from .ops import RmspropUpdate, bce_loss
from .rng import Rng


@dataclass
class TrainConfig:
    lr0: float = 1e-4
    decay: float = 1e-7
    batch_size: int = 12
    max_epochs: int = 160
    patience: int = 10
    val_fraction: float = 0.2
    seed: int = 0
    restore_best: bool = True

    def validate(self) -> None:
        check_finite_fields(self)
        if not 0 < self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.patience < 1:
            raise ConfigError(f"patience must be positive, got {self.patience}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be positive")
        if self.lr0 < 0 or self.decay < 0:
            raise ConfigError("lr0 and decay must be non-negative")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    stopped_epoch: int = 0
    best_epoch: int = 0
    weights_digest: str = ""
    val_weighted_f1: float = 0.0  # of the returned model, on the validation split


def split_sizes(n: int, val_fraction: float) -> tuple[int, int]:
    """Training split size is floor((1 - val_fraction) * n); the rest validates."""
    train_n = math.floor((1.0 - val_fraction) * n)
    return train_n, n - train_n


def evaluate_probabilities(model: Model, x, r, batch_size: int = 64) -> np.ndarray:
    """Eval-mode UAV probabilities of a (stacked, radar-or-None) batch.

    The package's one inference entry point: deterministic, no dropout,
    computed in the model's dtype, in chunks of ``batch_size``. ``x`` and
    ``r`` may be the unaligned fields of fused records (``record_maps``):
    each chunk is copied into the workspace (the maps at float32), and the
    input is never copied whole. Chunks run in the eval workspace set that
    the model keeps for its life (``model.workspace``), one per row count,
    all on the buffers of the largest (at the paper profile 115 MB for 64
    rows; the short last chunk and single samples add nothing beside it).
    Calls on one model take turns on its lock, so each gets its own results.
    Pair it with ``classify_probability`` for hard labels. At the paper
    profile, with BLAS on one thread, each chunk's conv product (and for 3
    rows or more its dense1 product) runs in two halves on two CPUs
    (``model.TrainStep``), with the same bits.
    """
    if x.shape[0] == 0:
        raise CompatibilityError("empty batch")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    _check_batch(model, x, r)
    out = np.empty(x.shape[0], model.theta.dtype)
    with model._lock:
        for s in range(0, x.shape[0], batch_size):
            rb = None if r is None else r[s : s + batch_size]
            out[s : s + batch_size] = _forward(model, x[s : s + batch_size], rb)
    return out


def train(model: Model, dataset: FusedDataset, cfg: TrainConfig) -> tuple[Model, TrainReport]:
    """Train a copy of ``model`` on the dataset; the input model is untouched.

    Shuffles with the config seed, splits off the validation fraction,
    iterates mini-batches (the final short batch is trained on), applies one
    RMSprop step per batch, and early-stops on non-improving validation
    loss. With restore_best the returned parameters are the best-validation
    epoch's, otherwise the last epoch's; the report's val_weighted_f1 is
    that epoch's.

    Batches and validation chunks are gathered from the dataset's records,
    in the model's layout and made C-contiguous once, by row number, into
    one train-mode workspace set (``model.workspace``); a batch's labels
    come with its records, and a chunk, given no rng, runs the eval
    forward. The validation labels are the only per-sample copy, and one
    confusion matrix per epoch gives its validation accuracy. Besides the
    caller's model it holds four vectors of theta's size (the clone, its
    gradient, the mean square and the best epoch's copy) and the set's
    buffers for the largest row count; the returned model caches no
    workspace.
    """
    cfg.validate()
    samples = dataset.samples
    if len(samples) == 0:
        raise TrainingError("dataset is empty")
    layout = fused_dtype(model.spec.stacked_shape, model.spec.radar_len)
    if samples.dtype != layout:
        raise CompatibilityError(f"records {samples.dtype} are not the model's layout {layout}")
    # take copies a strided input whole on every call
    records = np.ascontiguousarray(samples)
    labels = records["label"]

    rng = Rng(cfg.seed)
    train_n, val_n = split_sizes(len(records), cfg.val_fraction)
    if train_n < 1 or val_n < 1:
        raise TrainingError(
            f"{len(records)} samples leave an empty split at val_fraction={cfg.val_fraction}"
        )
    perm = rng.spawn("split").permutation(len(records))
    train_idx, val_idx = perm[:train_n], perm[train_n:]
    if len(np.unique(labels[train_idx])) < 2:
        raise TrainingError("training split contains a single class")

    shuffle_rng = rng.spawn("shuffle")
    dropout_rng = rng.spawn("dropout")

    # The model's tensors view its one flat vector, so one in-place RMSprop
    # pass per step updates all of them; its operands are checked here, once.
    # Batches and validation chunks share one train-mode workspace set.
    model = model.clone()
    theta = model.theta
    grad = np.empty_like(theta)
    update = RmspropUpdate(theta, grad, np.zeros_like(theta))
    best_theta = np.empty_like(theta)
    steps = {}
    step = 0

    y_val = labels[val_idx].astype(theta.dtype)
    p_val = np.empty(val_n, theta.dtype)

    report = TrainReport()
    best_val = math.inf
    best_epoch = 0
    stopped = cfg.max_epochs

    for epoch in range(1, cfg.max_epochs + 1):
        order = train_idx[shuffle_rng.permutation(train_n)]
        loss_sum = 0.0
        correct = 0
        for s in range(0, train_n, cfg.batch_size):
            idx = order[s : s + cfg.batch_size]
            ws = workspace(steps, model, len(idx), grad)
            ws.gather(records, idx, dropout_rng)
            loss, hits = ws.loss()
            if not math.isfinite(loss):
                raise NumericFault(f"non-finite training loss at epoch {epoch}")
            ws.backward()
            update(cfg.lr0 / (1.0 + cfg.decay * step))
            step += 1
            loss_sum += loss * len(idx)
            correct += hits

        # evaluate_probabilities' chunks and bits, from the records in place
        for s in range(0, val_n, cfg.batch_size):
            idx = val_idx[s : s + cfg.batch_size]
            p_val[s : s + len(idx)] = workspace(steps, model, len(idx), grad).gather(records, idx)
        val_loss, _ = bce_loss(p_val, y_val)
        if not math.isfinite(val_loss):
            raise NumericFault(f"non-finite validation loss at epoch {epoch}")

        report.train_loss.append(loss_sum / train_n)
        report.train_accuracy.append(correct / train_n)
        report.val_loss.append(val_loss)
        scores = classification_report(confusion_at_threshold(y_val, p_val))
        report.val_accuracy.append(scores.accuracy)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            np.copyto(best_theta, theta)
            best_scores = scores
        elif epoch - best_epoch == cfg.patience:
            stopped = epoch
            break

    if cfg.restore_best:
        theta[:] = best_theta
        scores = best_scores

    report.stopped_epoch = stopped
    report.best_epoch = best_epoch
    report.weights_digest = weights_digest(model)
    report.val_weighted_f1 = scores.weighted_f1
    return model, report
