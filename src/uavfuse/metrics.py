"""Binary classification metrics with UAV as the positive class.

Confusion matrix at a decision threshold, per-class and support-weighted
precision/recall/F1, accuracy, and the ROC curve swept over grouped score
thresholds with trapezoidal AUC. Degenerate 0/0 ratios are defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .text import format_value


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def uav_support(self) -> int:
        return self.tp + self.fn

    @property
    def fa_support(self) -> int:
        return self.tn + self.fp


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ClassificationReport:
    uav: ClassMetrics
    false_alarm: ClassMetrics
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    accuracy: float
    total: int


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]  # (fpr, tpr) from (0,0) to (1,1)
    auc: float


def confusion_at_threshold(labels, probabilities, threshold: float = 0.5) -> ConfusionMatrix:
    """Counts with prediction UAV iff p > threshold (strictly)."""
    y = np.asarray(labels).astype(bool)
    p = np.asarray(probabilities, dtype=np.float64)
    if y.shape != p.shape:
        raise ShapeError(f"labels shape {y.shape} != probabilities shape {p.shape}")
    pred = p > threshold
    return ConfusionMatrix(
        tp=int(np.sum(pred & y)),
        fp=int(np.sum(pred & ~y)),
        fn=int(np.sum(~pred & y)),
        tn=int(np.sum(~pred & ~y)),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _f1(precision: float, recall: float) -> float:
    s = precision + recall
    return 2.0 * precision * recall / s if s else 0.0


def classification_report(cm: ConfusionMatrix) -> ClassificationReport:
    """Per-class and support-weighted metrics from one confusion matrix."""
    if cm.total == 0:
        raise ValidationError("empty confusion matrix")
    uav_p = _ratio(cm.tp, cm.tp + cm.fp)
    uav_r = _ratio(cm.tp, cm.tp + cm.fn)
    fa_p = _ratio(cm.tn, cm.tn + cm.fn)
    fa_r = _ratio(cm.tn, cm.tn + cm.fp)
    uav = ClassMetrics(uav_p, uav_r, _f1(uav_p, uav_r), cm.uav_support)
    fa = ClassMetrics(fa_p, fa_r, _f1(fa_p, fa_r), cm.fa_support)

    def weighted(get):
        return (get(uav) * uav.support + get(fa) * fa.support) / cm.total

    return ClassificationReport(
        uav=uav,
        false_alarm=fa,
        weighted_precision=weighted(lambda m: m.precision),
        weighted_recall=weighted(lambda m: m.recall),
        weighted_f1=weighted(lambda m: m.f1),
        accuracy=(cm.tp + cm.tn) / cm.total,
        total=cm.total,
    )


def roc_curve(labels, probabilities) -> RocCurve:
    """Threshold sweep over distinct scores, ties flipping together.

    Points run from (0, 0) to exactly (1, 1); the area uses the trapezoidal
    rule. Both classes must be present, or a rate is undefined, and every
    score must be finite: a NaN never equals itself, so it cannot be ranked.
    """
    y = np.asarray(labels).astype(bool)
    p = np.asarray(probabilities, dtype=np.float64)
    if y.shape != p.shape:
        raise ShapeError(f"labels shape {y.shape} != probabilities shape {p.shape}")
    non_finite = int(np.count_nonzero(~np.isfinite(p)))
    if non_finite:
        raise ValidationError(f"roc_curve got {non_finite} non-finite probabilities")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_curve needs both classes present")

    order = np.argsort(-p, kind="stable")
    ps = p[order]
    ys = y[order]
    # one point after each group of tied scores, with the counts up to its end
    ends = np.flatnonzero(np.append(ps[1:] != ps[:-1], True))
    cum_tp = np.cumsum(ys)[ends]
    cum_fp = ends + 1 - cum_tp
    # the last group ends with every sample counted: exactly (1, 1)
    points = [(0.0, 0.0), *zip((cum_fp / n_neg).tolist(), (cum_tp / n_pos).tolist())]

    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return RocCurve(tuple(points), auc)


def _table(rows) -> str:
    """Right-aligned columns, two spaces apart."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def render_confusion(cm: ConfusionMatrix) -> str:
    """Two-by-two count table, true classes as rows."""
    return _table(
        [
            ("", "pred FA (0)", "pred UAV (1)"),
            ("true FA (0)", str(cm.tn), str(cm.fp)),
            ("true UAV (1)", str(cm.fn), str(cm.tp)),
        ]
    )


def render_report(report: ClassificationReport) -> str:
    """Aligned per-class table with weighted averages and accuracy."""
    rows = [("", "precision", "recall", "f1-score", "support")]
    for name, m in (("FA (0)", report.false_alarm), ("UAV (1)", report.uav)):
        rows.append((name, f"{m.precision:.2f}", f"{m.recall:.2f}", f"{m.f1:.2f}", str(m.support)))
    weighted = (report.weighted_precision, report.weighted_recall, report.weighted_f1)
    rows.append(("weighted avg", *(f"{v:.2f}" for v in weighted), str(report.total)))
    rows.append(("accuracy", "", "", f"{report.accuracy:.2f}", str(report.total)))
    return _table(rows)


def roc_csv(curve: RocCurve) -> str:
    """CSV export: header ``fpr,tpr``, then one point per line in the document value format."""
    return "fpr,tpr\n" + "".join(f"{format_value(point)}\n" for point in curve.points)
