"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps package functions by name. A rename it does
not know about would make its per-layer metrics read 0 instead of failing,
so this test fails instead.
"""

from pathlib import Path

import numpy as np

import uavfuse.registration

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = uavfuse.registration.fuse_dataset
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == {}
        assert uavfuse.registration.fuse_dataset is not original
    finally:
        t.uninstall()
    assert uavfuse.registration.fuse_dataset is original


def test_data_layer_hooks_see_the_calls(monkeypatch, tmp_path):
    # A hook that breaks on the sample layout, or a span no longer called,
    # would read 0 in the benchmark instead of failing; here it fails.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    import uavfuse as uf

    tiny = uf.ShapeProfile("tiny", (3, 3, 2), (3, 3, 1), (4,))
    three = uf.ModalitySet.THERMAL_OPTRONIC_RADAR
    with tracer.Tracer() as t:
        data = uf.generate_synthetic_dataset(
            uf.SynthConfig(recordings_per_modality=2, samples_per_recording=30,
                           shape_profile=tiny, seed=1)
        )
        uf.write_recording(data[uf.Modality.RADAR][0], tmp_path / "r.msfr")
        uf.read_recording(tmp_path / "r.msfr")
        fused = uf.fuse_dataset(*(data[m] for m in uf.Modality), three)
        uf.write_fused(fused, tmp_path / "f.msfr")
        uf.model.batch_arrays(uf.read_fused(tmp_path / "f.msfr").samples)
    metrics = t.metrics()
    for span in (
        "synth.generate_synthetic_dataset",
        "msfr.write_recording",
        "msfr.read_recording",
        "registration.fuse_dataset",
        "msfr.write_fused",
        "msfr.read_fused",
        "model.batch_arrays",
        "registration.match_streams",
        "registration.stack_features",
    ):
        assert t.spans[span].calls > 0, span
    # synthesis draws: a pattern per modality, then per recording six uniforms
    # and a noise draw per modality
    assert t.spans["rng.normal"].calls == 3 + 2 * 3
    assert t.spans["rng.uniform"].calls == 2 * 6
    feature_bytes = sum(rec.samples.features.nbytes for recs in data.values() for rec in recs)
    assert metrics["synth.generate_synthetic_dataset.mb"] == feature_bytes / 1e6 > 0
    assert 0 < metrics["registration.match_ratio"] <= 1
    errors = {name: value for name, value in metrics.items() if name.endswith(".errors")}
    assert set(errors.values()) == {0}, errors


def test_model_and_optimizer_hooks_see_the_calls(monkeypatch):
    # rmsprop_step, conv2d_backward and backward_pass were reworked: their
    # hooks must still read each call, or the rates below would read 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    import uavfuse as uf

    tiny = uf.ShapeProfile("tiny", (4, 4, 2), (4, 4, 1), (8,))
    spec = uf.ModelSpec.for_profile(
        uf.ModalitySet.THERMAL_OPTRONIC_RADAR, tiny, conv_filters=2, dense_units=8
    )
    model = uf.build_model(spec, uf.Rng(1))
    rng = uf.Rng(2)
    x = rng.normal((3, *spec.stacked_shape)).astype(np.float32)
    r = rng.normal((3, spec.radar_len)).astype(np.float32)
    ws = uf.model.TrainStep(model, 3, np.empty_like(model.theta))
    p = ws.forward(x, r, None, rng)
    theta = model.theta
    with tracer.Tracer() as t:
        state = uf.ops.RmspropState(np.zeros_like(theta))
        uf.ops.rmsprop_step(theta, np.ones_like(theta), state, 1e-3, 0)
        uf.ops.conv2d_backward(x, model.conv, np.ones((3, *spec.conv_out_shape), np.float32))
        uf.model.backward_pass(ws, np.ones_like(p))
    for span in ("ops.rmsprop_step", "ops.conv2d_backward", "model.backward"):
        assert t.spans[span].calls == 1, span
    metrics = t.metrics()
    assert metrics["ops.rmsprop_step.gb_per_s"] > 0
    assert metrics["ops.conv2d.gflop_per_s"] > 0
    assert metrics["training.steps"] == 1
