"""Metric math against hand oracles and the published count table."""

import numpy as np
import pytest

from uavfuse.errors import ShapeError, ValidationError
from uavfuse.metrics import (
    ConfusionMatrix,
    classification_report,
    confusion_at_threshold,
    render_confusion,
    render_report,
    roc_csv,
    roc_curve,
)
from uavfuse.rng import Rng

# confusion counts of the deployed three-modality system's test set
FIELD_CM = ConfusionMatrix(tp=422, fp=92, fn=13, tn=1429)


class TestConfusion:
    def test_perfect_predictions(self):
        y = np.array([1, 0, 1, 1, 0])
        cm = confusion_at_threshold(y, y.astype(float))
        assert cm.fp == 0 and cm.fn == 0
        assert cm.tp == 3 and cm.tn == 2

    def test_half_probability_counts_as_negative_prediction(self):
        cm = confusion_at_threshold(np.array([1]), np.array([0.5]))
        assert cm.fn == 1 and cm.tp == 0

    def test_hand_case(self):
        cm = confusion_at_threshold(
            np.array([1, 1, 0, 0]), np.array([0.9, 0.3, 0.6, 0.1])
        )
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion_at_threshold(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_is_counted_by_no_class(self, bad):
        with pytest.raises(ValidationError, match="1 non-finite"):
            confusion_at_threshold(np.array([1, 0, 1]), np.array([bad, 0.2, 0.9]))

    def test_total_matches_sample_count(self):
        rng = Rng(1)
        y = (rng.uniform(500) < 0.3).astype(int)
        p = rng.uniform(500)
        assert confusion_at_threshold(y, p).total == 500


class TestClassificationReport:
    def test_field_counts_reproduce_published_table(self):
        r = classification_report(FIELD_CM)
        assert round(r.uav.precision, 2) == 0.82
        assert round(r.uav.recall, 2) == 0.97
        assert round(r.uav.f1, 2) == 0.89
        assert round(r.false_alarm.precision, 2) == 0.99
        assert round(r.false_alarm.recall, 2) == 0.94
        assert round(r.false_alarm.f1, 2) == 0.96
        assert r.uav.support == 435 and r.false_alarm.support == 1521

    def test_field_counts_weighted_averages(self):
        r = classification_report(FIELD_CM)
        assert abs(r.weighted_f1 - 0.95) <= 0.005
        # recomputed from the counts; two printed decimals hide the third
        assert abs(r.weighted_precision - 0.9532) <= 0.0005
        assert abs(r.accuracy - (1429 + 422) / 1956) < 1e-12

    def test_degenerate_single_class_counts(self):
        r = classification_report(ConfusionMatrix(tp=0, fp=0, fn=0, tn=17))
        assert r.uav.precision == 0.0 and r.uav.recall == 0.0 and r.uav.f1 == 0.0
        assert r.accuracy == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            classification_report(ConfusionMatrix(0, 0, 0, 0))

    def test_weighted_recall_equals_accuracy(self):
        rng = Rng(2)
        for _ in range(25):
            counts = [int(rng.uniform() * 40) for _ in range(4)]
            if sum(counts) == 0:
                continue
            cm = ConfusionMatrix(*counts)
            r = classification_report(cm)
            assert abs(r.weighted_recall - r.accuracy) < 1e-12

    def test_f1_is_harmonic_mean(self):
        rng = Rng(3)
        for _ in range(25):
            counts = [1 + int(rng.uniform() * 40) for _ in range(4)]
            r = classification_report(ConfusionMatrix(*counts))
            for m in (r.uav, r.false_alarm):
                if m.precision + m.recall > 0:
                    want = 2 * m.precision * m.recall / (m.precision + m.recall)
                    assert abs(m.f1 - want) < 1e-12

    def test_all_values_in_unit_interval(self):
        rng = Rng(4)
        for _ in range(25):
            counts = [int(rng.uniform() * 40) for _ in range(4)]
            if sum(counts) == 0:
                continue
            r = classification_report(ConfusionMatrix(*counts))
            for v in (
                r.uav.precision, r.uav.recall, r.uav.f1,
                r.false_alarm.precision, r.false_alarm.recall, r.false_alarm.f1,
                r.weighted_precision, r.weighted_recall, r.weighted_f1, r.accuracy,
            ):
                assert 0.0 <= v <= 1.0


def _loop_roc(labels, probabilities):
    """The tie-group sweep as one Python loop: the vectorized sweep's oracle."""
    y = np.asarray(labels).astype(bool)
    p = np.asarray(probabilities, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    order = np.argsort(-p, kind="stable")
    ps, ys = p[order], y[order]
    points = [(0.0, 0.0)]
    cum_tp = cum_fp = 0
    i = 0
    while i < ps.size:
        j = i
        while j < ps.size and ps[j] == ps[i]:
            j += 1
        cum_tp += int(ys[i:j].sum())
        cum_fp += (j - i) - int(ys[i:j].sum())
        points.append((cum_fp / n_neg, cum_tp / n_pos))
        i = j
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return tuple(points), auc


class TestRoc:
    def test_matches_the_loop_oracle_bit_for_bit(self):
        gen = np.random.default_rng(11)
        for _ in range(500):
            n = int(gen.integers(2, 60))
            y = gen.integers(0, 2, n)
            y[:2] = (0, 1)  # both classes present
            # few distinct levels give heavy ties; some cases have none
            levels = int(gen.integers(1, 2 * n))
            p = gen.integers(0, levels, n) / levels
            curve = roc_curve(y, p)
            points, auc = _loop_roc(y, p)
            assert curve.points == points
            assert all(type(v) is float for point in curve.points for v in point)
            assert np.float64(curve.auc).tobytes() == np.float64(auc).tobytes()

    def test_hand_sweep(self):
        curve = roc_curve(np.array([1, 0, 1, 0]), np.array([0.8, 0.7, 0.6, 0.1]))
        assert curve.points == ((0, 0), (0, 0.5), (0.5, 0.5), (0.5, 1), (1, 1))
        assert curve.auc == 0.75

    def test_perfect_ranking(self):
        y = np.array([0] * 50 + [1] * 30)
        p = np.concatenate([np.linspace(0.0, 0.4, 50), np.linspace(0.6, 1.0, 30)])
        assert roc_curve(y, p).auc == 1.0

    def test_inverted_ranking(self):
        y = np.array([1] * 50 + [0] * 30)
        p = np.concatenate([np.linspace(0.0, 0.4, 50), np.linspace(0.6, 1.0, 30)])
        assert roc_curve(y, p).auc == 0.0

    def test_label_independent_scores_near_half(self):
        rng = Rng(5)
        y = (rng.uniform(10_000) < 0.4).astype(int)
        p = rng.uniform(10_000)
        assert 0.45 <= roc_curve(y, p).auc <= 0.55

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected_with_count(self, bad):
        y = np.array([1, 0, 1, 0, 1])
        p = np.array([0.9, bad, 0.4, bad, 0.2])
        with pytest.raises(ValidationError, match="2 non-finite"):
            roc_curve(y, p)

    def test_ties_flip_together(self):
        y = np.array([1, 0, 1, 0])
        p = np.array([0.7, 0.7, 0.7, 0.1])
        curve = roc_curve(y, p)
        # one group of three equal scores, then the last sample
        assert curve.points == ((0, 0), (0.5, 1.0), (1.0, 1.0))

    def test_monotone_transform_invariance(self):
        rng = Rng(6)
        y = (rng.uniform(300) < 0.35).astype(int)
        p = rng.uniform(300)
        a = roc_curve(y, p)
        b = roc_curve(y, p ** 3)  # strictly monotone, tie structure preserved
        assert a.points == b.points
        assert a.auc == b.auc

    def test_points_monotone_and_endpoints_exact(self):
        rng = Rng(7)
        y = (rng.uniform(400) < 0.5).astype(int)
        p = np.round(rng.uniform(400), 2)  # heavy ties
        curve = roc_curve(y, p)
        assert curve.points[0] == (0.0, 1.0) or curve.points[0] == (0.0, 0.0)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_curve(np.ones(5), np.linspace(0, 1, 5))


class TestRendering:
    def test_confusion_table_contains_counts(self):
        text = render_confusion(FIELD_CM)
        for value in ("1429", "92", "13", "422"):
            assert value in text

    def test_report_table_layout(self):
        text = render_report(classification_report(FIELD_CM))
        assert "FA (0)" in text and "UAV (1)" in text and "weighted avg" in text
        assert "0.82" in text and "0.97" in text and "0.89" in text
        assert "0.95" in text  # weighted f1 to two decimals

    def test_roc_csv_format(self):
        curve = roc_curve(np.array([1, 0, 1, 0]), np.array([0.8, 0.7, 0.6, 0.1]))
        text = roc_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 1 + len(curve.points)
        assert lines[2] == "0,0.5"
        # nine significant digits on an awkward fraction
        awkward = roc_curve(np.array([1, 0, 0, 0]), np.array([0.9, 0.5, 0.4, 0.3]))
        assert "0.333333333" in roc_csv(awkward)
