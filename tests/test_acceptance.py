"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The fusion-benefit
ordering criterion trains 15 models plus a full-scale smoke model and
dominates the runtime (several minutes); everything else is fast.
"""

import math
import time

import numpy as np

from test_registration import brute_force_match, pairs, stream

from uavfuse.cli import main
from uavfuse.data import Label, Modality, ModalitySet, Recording, ShapeProfile
from uavfuse.metrics import (
    ConfusionMatrix,
    classification_report,
    confusion_at_threshold,
    roc_curve,
)
from uavfuse.model import (
    ModelSpec,
    backward_pass,
    batch_arrays,
    build_model,
    count_parameters,
    load_weights,
    save_weights,
    weights_digest,
    _forward,
)
from uavfuse.msfr import read_fused, read_recording, write_fused, write_recording
from uavfuse.ops import (
    ConvParams,
    DenseParams,
    bce_loss,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    grad_check,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)
from uavfuse.registration import (
    MatchConfig,
    audit_fused_dataset,
    fuse_dataset,
    match_streams,
)
from uavfuse.rng import Rng
from uavfuse.synth import SynthConfig, generate_synthetic_dataset
from uavfuse.training import TrainConfig, evaluate_probabilities, train

GRAD_PROFILE = ShapeProfile("grad", (4, 4, 2), (4, 4, 1), (8,))


def _pass(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_metric_oracle():
    """Published confusion counts reproduce the published per-class table."""
    cm = ConfusionMatrix(tp=422, fp=92, fn=13, tn=1429)
    r = classification_report(cm)
    assert round(r.uav.precision, 2) == 0.82
    assert round(r.uav.recall, 2) == 0.97
    assert round(r.uav.f1, 2) == 0.89
    assert round(r.false_alarm.precision, 2) == 0.99
    assert round(r.false_alarm.recall, 2) == 0.94
    assert round(r.false_alarm.f1, 2) == 0.96
    assert abs(r.weighted_f1 - 0.95) <= 0.005
    assert abs(r.weighted_precision - 0.9532) <= 0.0005
    _pass(1, "metric oracle")


def test_criterion_2_gradient_suite():
    """Layer backward passes < 1e-5 and the full network < 1e-4, 20 seeds."""
    t0 = time.time()
    for seed in range(20):
        rng = Rng(3000 + seed)

        x = rng.normal((5, 5, 2))
        params = ConvParams(rng.normal((3, 3, 2, 3)), rng.normal(3))
        proj = rng.normal((3, 3, 3))
        gx, gk, gb = conv2d_backward(x, params, proj)
        for value, grad, f in (
            (x, gx, lambda v: float(np.sum(conv2d_forward(v, params) * proj))),
            (
                params.kernels,
                gk,
                lambda v: float(np.sum(conv2d_forward(x, ConvParams(v, params.bias)) * proj)),
            ),
            (
                params.bias,
                gb,
                lambda v: float(np.sum(conv2d_forward(x, ConvParams(params.kernels, v)) * proj)),
            ),
        ):
            assert grad_check(f, value.copy(), grad) < 1e-5

        xd = rng.normal(7)
        dparams = DenseParams(rng.normal((7, 4)), rng.normal(4))
        dproj = rng.normal(4)
        gxd, gwd, gbd = dense_backward(xd, dparams, dproj)
        assert grad_check(lambda v: float(dense_forward(v, dparams) @ dproj), xd, gxd) < 1e-5
        assert (
            grad_check(
                lambda v: float(dense_forward(xd, DenseParams(v, dparams.bias)) @ dproj),
                dparams.weights.copy(),
                gwd,
            )
            < 1e-5
        )
        assert (
            grad_check(
                lambda v: float(dense_forward(xd, DenseParams(dparams.weights, v)) @ dproj),
                dparams.bias.copy(),
                gbd,
            )
            < 1e-5
        )

        xa = rng.normal(9)
        pa = rng.normal(9)
        assert grad_check(lambda v: float(relu(v) @ pa), xa, relu_backward(pa, xa)) < 1e-5
        s = sigmoid(xa)
        assert grad_check(lambda v: float(sigmoid(v) @ pa), xa, sigmoid_backward(pa, s)) < 1e-5

        pb = sigmoid(rng.normal(6))
        yb = (rng.uniform(6) < 0.5).astype(np.float64)
        _, gp = bce_loss(pb, yb)
        assert grad_check(lambda v: bce_loss(v, yb)[0], pb, gp) < 1e-5

        # full three-modality network, run by the TrainStep workspace that training
        # uses; dropout masks held fixed per evaluation
        spec = ModelSpec.for_profile(
            ModalitySet.THERMAL_OPTRONIC_RADAR, GRAD_PROFILE, conv_filters=2,
            dense_units=8, dropout_rate=0.5,
        )
        model = build_model(spec, rng, dtype=np.float64)
        xb = rng.normal((3,) + spec.stacked_shape)
        rb = rng.normal((3, spec.radar_len))
        yb = np.array([1.0, 0.0, 1.0])

        def net_loss(m):
            p, cache = _forward(m, xb, rb, "train", Rng(777 + seed))
            loss, grad_p = bce_loss(p, yb)
            return loss, cache, grad_p

        _, cache, grad_p = net_loss(model)
        grads = backward_pass(model, cache, grad_p)
        for name, value in model.params().items():
            def f(v, _name=name):
                m = model.clone()
                vals = m.params()
                vals[_name] = v
                m.set_params(vals)
                return net_loss(m)[0]

            assert grad_check(f, value.copy(), grads[name]) < 1e-4, name
    elapsed = time.time() - t0
    assert elapsed < 30, f"gradient suite took {elapsed:.1f}s"
    _pass(2, f"gradient suite, {elapsed:.1f}s")


def test_criterion_4_registration_correctness():
    """Oracle equivalence, construction audits, and count monotonicity."""
    rng = Rng(4096)

    for trial in range(200):
        na, nb = int(rng.uniform() * 12), int(rng.uniform() * 12)

        def mk(n):
            drawn = sorted(
                (
                    (
                        round(float(rng.uniform()) * 12) * 0.25,
                        Label.UAV if rng.uniform() < 0.5 else Label.FALSE_ALARM,
                    )
                    for _ in range(n)
                ),
                key=lambda s: s[0],
            )
            return stream([t for t, _ in drawn], [label for _, label in drawn])

        a, b = mk(na), mk(nb)
        assert pairs(match_streams(a, b, 0.5)) == brute_force_match(a, b, 0.5), trial

    tiny = ShapeProfile("tiny", (2, 2, 2), (2, 2, 1), (3,))
    match_cfg = MatchConfig()
    for seed in (1, 2, 3):
        data = generate_synthetic_dataset(
            SynthConfig(
                recordings_per_modality=3,
                samples_per_recording=120,
                shape_profile=tiny,
                seed=seed,
            )
        )
        t, o, r = data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR]
        counts = {}
        for mset in ModalitySet:
            fused = fuse_dataset(t, o, r, mset, match_cfg)
            audit_fused_dataset(fused, match_cfg, thermal=t, optronic=o, radar=r)
            counts[mset] = len(fused.samples)
        assert (
            counts[ModalitySet.THERMAL_OPTRONIC_RADAR]
            <= counts[ModalitySet.THERMAL_OPTRONIC]
            <= counts[ModalitySet.THERMAL]
        )
    _pass(4, "registration correctness")


def test_criterion_5_architecture_arithmetic():
    """Parameter count equals the layer-size closed form exactly."""
    spec = ModelSpec.for_profile(ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.paper())
    model = build_model(spec, Rng(0))
    closed_form = 3 * 3 * 1536 * 512 + 512 + 14464 * 512 + 512 + 512 + 1
    assert count_parameters(model) == closed_form
    assert closed_form == 14_484_993
    _pass(5, "architecture arithmetic")


def test_criterion_6_determinism(tmp_path):
    """Two identical end-to-end runs produce byte-identical artifacts."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "profile = reduced\nrecordings_per_modality = 2\nsamples_per_recording = 40\n"
        "lr0 = 0.001\nmax_epochs = 8\npatience = 8\nrepeats = 2\n",
        encoding="utf-8",
    )

    def run(root):
        data, fused, models, ev = root / "d", root / "f", root / "m", root / "e"
        for args in (
            ["generate", "--config", str(cfg), "--out", str(data)],
            ["register", "--config", str(cfg), "--data", str(data), "--out", str(fused)],
            ["train", "--config", str(cfg), "--data", str(fused), "--out", str(models)],
            ["evaluate", "--config", str(cfg), "--model", str(models),
             "--data", str(fused), "--out", str(ev)],
        ):
            assert main(args) == 0, args
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    assert run(tmp_path / "run1") == run(tmp_path / "run2")
    _pass(6, "determinism")


def test_criterion_7_format_round_trips(tmp_path):
    """write -> read -> write is byte-identical for every format."""
    rng = Rng(77)
    recordings = [
        Recording(Modality.RADAR, "empty", stream([], [], np.zeros((0, 3)))),
        Recording(
            Modality.THERMAL,
            "r0",
            stream(
                0.5 * np.arange(6),
                [Label.UAV if i % 2 else Label.FALSE_ALARM for i in range(6)],
                np.stack([rng.normal((2, 2, 2)) for _ in range(6)]),
            ),
        ),
    ]
    for k, rec in enumerate(recordings):
        p1, p2 = tmp_path / f"r{k}a.msfr", tmp_path / f"r{k}b.msfr"
        write_recording(rec, p1)
        write_recording(read_recording(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    tiny = ShapeProfile("tiny", (2, 2, 2), (2, 2, 1), (3,))
    data = generate_synthetic_dataset(
        SynthConfig(recordings_per_modality=2, samples_per_recording=30,
                    shape_profile=tiny, seed=5)
    )
    for mset in ModalitySet:
        fused = fuse_dataset(
            data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR], mset
        )
        p1, p2 = tmp_path / f"f{mset.value}a.msfr", tmp_path / f"f{mset.value}b.msfr"
        write_fused(fused, p1)
        write_fused(read_fused(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, GRAD_PROFILE, conv_filters=2, dense_units=4
    )
    model = build_model(spec, Rng(8))
    w1, w2 = tmp_path / "wa.msfw", tmp_path / "wb.msfw"
    save_weights(model, w1)
    save_weights(load_weights(w1), w2)
    assert w1.read_bytes() == w2.read_bytes()
    _pass(7, "format round trips")


def _tiny_training_dataset():
    data = generate_synthetic_dataset(
        SynthConfig(
            recordings_per_modality=2,
            samples_per_recording=60,
            shape_profile=GRAD_PROFILE,
            thermal_dropout=0.0,
            optronic_dropout=0.0,
            radar_dropout=0.0,
            seed=5,
        )
    )
    return fuse_dataset(
        data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR],
        ModalitySet.THERMAL_OPTRONIC_RADAR,
    )


def test_criterion_8_early_stopping():
    """Non-improving validation loss stops at patience+1 and restores the best."""
    dataset = _tiny_training_dataset()
    spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, GRAD_PROFILE, conv_filters=2, dense_units=8
    )
    model = build_model(spec, Rng(41))
    cfg = TrainConfig(lr0=0.0, max_epochs=160, patience=10, seed=2)
    trained, report = train(model, dataset, cfg)
    assert report.stopped_epoch == 11 == cfg.patience + 1
    assert report.best_epoch == 1
    assert report.stopped_epoch - report.best_epoch == cfg.patience
    assert report.weights_digest == weights_digest(model)  # best epoch = initial weights
    assert min(report.val_loss) == report.val_loss[report.best_epoch - 1]
    _pass(8, "early stopping")


def test_criterion_9_roc_sanity():
    """Perfect ranking, null scores, and the hand-swept curve."""
    y = np.array([0] * 60 + [1] * 40)
    p = np.concatenate([np.linspace(0, 0.45, 60), np.linspace(0.55, 1, 40)])
    assert roc_curve(y, p).auc == 1.0

    rng = Rng(99)
    y_null = (rng.uniform(10_000) < 0.5).astype(int)
    p_null = rng.uniform(10_000)
    assert 0.45 <= roc_curve(y_null, p_null).auc <= 0.55

    hand = roc_curve(np.array([1, 0, 1, 0]), np.array([0.8, 0.7, 0.6, 0.1]))
    assert hand.auc == 0.75
    assert hand.points == ((0, 0), (0, 0.5), (0.5, 0.5), (0.5, 1), (1, 1))
    _pass(9, "ROC sanity")


def test_criterion_3_fusion_benefit_ordering():
    """More modalities give strictly better mean test F1 under the full protocol.

    Default generator (equal separations, independent noise, default sigma),
    five seeds per variant, the standard training configuration, reduced
    shape profile; then a one-epoch full-scale smoke run.
    """
    t0 = time.time()
    profile = ShapeProfile.reduced()
    synth = SynthConfig(
        recordings_per_modality=8,
        samples_per_recording=450,
        shape_profile=profile,
        seed=42,
    )
    data = generate_synthetic_dataset(synth)

    def split(recs):
        return recs[:6], recs[6:]

    mean_f1 = {}
    for mset in ModalitySet:
        tr_parts = [split(data[m])[0] for m in Modality]
        te_parts = [split(data[m])[1] for m in Modality]
        train_ds = fuse_dataset(*tr_parts, mset)
        test_ds = fuse_dataset(*te_parts, mset)
        spec = ModelSpec.for_profile(mset, profile, conv_filters=16, dense_units=32)
        xs, rs, ys = batch_arrays(test_ds.samples)
        f1s = []
        for s in range(5):
            model = build_model(spec, Rng(100 + s).spawn("init"))
            trained, _ = train(model, train_ds, TrainConfig(seed=100 + s))
            p = evaluate_probabilities(trained, xs, rs)
            f1s.append(classification_report(confusion_at_threshold(ys, p)).weighted_f1)
        mean_f1[mset] = float(np.mean(f1s))

    one = mean_f1[ModalitySet.THERMAL]
    two = mean_f1[ModalitySet.THERMAL_OPTRONIC]
    three = mean_f1[ModalitySet.THERMAL_OPTRONIC_RADAR]
    assert 0.85 <= one <= 0.92, f"single-modality mean F1 {one:.4f} outside band"
    assert two - one >= 0.005, f"two-vs-one gap {two - one:.4f}"
    assert three - two >= 0.005, f"three-vs-two gap {three - two:.4f}"

    # full-scale smoke run: one epoch at the full input and filter sizes
    smoke_data = generate_synthetic_dataset(
        SynthConfig(
            recordings_per_modality=1,
            samples_per_recording=30,
            shape_profile=ShapeProfile.paper(),
            seed=1,
        )
    )
    smoke_ds = fuse_dataset(
        smoke_data[Modality.THERMAL],
        smoke_data[Modality.OPTRONIC],
        smoke_data[Modality.RADAR],
        ModalitySet.THERMAL_OPTRONIC_RADAR,
    )
    smoke_spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.paper()
    )
    smoke_model = build_model(smoke_spec, Rng(7).spawn("init"))
    _, smoke_report = train(
        smoke_model, smoke_ds, TrainConfig(max_epochs=1, patience=1, seed=7)
    )
    assert len(smoke_report.train_loss) == 1
    assert math.isfinite(smoke_report.train_loss[0])
    assert math.isfinite(smoke_report.val_loss[0])

    elapsed = time.time() - t0
    assert elapsed < 600, f"fusion-benefit criterion took {elapsed:.0f}s"
    _pass(
        3,
        f"fusion-benefit ordering: one={one:.4f} two={two:.4f} three={three:.4f}, "
        f"{elapsed:.0f}s",
    )
