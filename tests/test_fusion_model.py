"""Fusion network construction, forward/backward, persistence, and training."""

import gc
import hashlib
import math
import struct
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import environment, fused_rows, grad_check, rmsprop_oracle
from test_memory import MIB, traced_peak

from uavfuse import worker
from uavfuse.data import FusedDataset, Label, Modality, ModalitySet, ShapeProfile
from uavfuse.errors import (
    CompatibilityError,
    ConfigError,
    CorruptionError,
    FormatError,
    NumericFault,
    ShapeError,
    TrainingError,
)
from uavfuse.metrics import classification_report, confusion_at_threshold
from uavfuse.model import (
    PARAM_ORDER,
    _BLOCK,
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    Model,
    ModelSpec,
    TrainStep,
    backward_pass,
    batch_arrays,
    build_model,
    classify_probability,
    load_weights,
    record_maps,
    record_rows,
    save_weights,
    weights_digest,
    _spec_bytes,
)
from uavfuse import ops
from uavfuse.msfr import shape_block
from uavfuse.ops import (
    BCE_EPS,
    bce_loss,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_apply,
    dropout_backward,
    relu,
    relu_backward,
    RmspropUpdate,
    sigmoid,
    sigmoid_backward,
)
from uavfuse.registration import fuse_dataset
from uavfuse.rng import Rng
from uavfuse.synth import SynthConfig, generate_synthetic_dataset
from uavfuse.training import TrainConfig, evaluate_probabilities, split_sizes, train

TINY = ShapeProfile("tiny", (4, 4, 2), (4, 4, 1), (8,))


def tiny_spec(modality_set=ModalitySet.THERMAL_OPTRONIC_RADAR, dropout=0.5):
    return ModelSpec.for_profile(
        modality_set, TINY, conv_filters=2, dense_units=8, dropout_rate=dropout
    )


def tiny_dataset(modality_set=ModalitySet.THERMAL_OPTRONIC_RADAR, **synth_kw):
    kw = dict(
        recordings_per_modality=2,
        samples_per_recording=60,
        shape_profile=TINY,
        thermal_dropout=0.0,
        optronic_dropout=0.0,
        radar_dropout=0.0,
        seed=5,
    )
    kw.update(synth_kw)
    data = generate_synthetic_dataset(SynthConfig(**kw))
    return fuse_dataset(
        data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR], modality_set
    )


# dense1_weights of exactly two init blocks, and of five blocks and part of a sixth
TWO_BLOCKS = ModelSpec(ModalitySet.THERMAL, (3, 3, 1), 0, conv_filters=64, dense_units=1024)


def six_blocks(modality_set=ModalitySet.THERMAL_OPTRONIC_RADAR):
    return ModelSpec.for_profile(
        modality_set, ShapeProfile.reduced(), conv_filters=4, dense_units=1000
    )


def one_draw_per_tensor(spec, rng, dtype):
    """build_model with one whole-tensor draw per tensor: the oracle of its blocked draws."""
    model = Model(spec, np.zeros(spec.param_count, dtype))
    kh, kw = spec.kernel
    fans = (kh * kw * spec.stacked_shape[2], spec.dense1_in, spec.dense_units + 1)
    for out, fan in zip((model.conv.kernels, model.dense1.weights, model.output.weights), fans):
        out[...] = (rng.uniform(out.shape) * 2 - 1) * np.sqrt(6.0 / fan)
    return model


def serialize_oracle(model):
    """The MSFW bytes built from whole-tensor float32 copies."""
    parts = [WEIGHTS_MAGIC, struct.pack("<H", WEIGHTS_VERSION), _spec_bytes(model.spec)]
    for arr in model.params().values():
        parts += [shape_block(arr.shape), np.ascontiguousarray(arr, dtype="<f4").tobytes()]
    return b"".join(parts)


class TestBuild:
    def test_paper_three_modality_widths(self):
        spec = ModelSpec.for_profile(ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.paper())
        assert spec.stacked_shape == (7, 7, 1536)
        assert spec.conv_out_shape == (5, 5, 512)
        assert spec.dense1_in == 5 * 5 * 512 + 1664 == 14464

    def test_paper_single_modality_widths(self):
        spec = ModelSpec.for_profile(ModalitySet.THERMAL, ShapeProfile.paper())
        assert spec.stacked_shape == (7, 7, 1024)
        assert spec.radar_len == 0
        assert spec.dense1_in == 5 * 5 * 512 == 12800

    def test_same_seed_bit_identical_parameters(self):
        spec = tiny_spec()
        a = build_model(spec, Rng(9))
        b = build_model(spec, Rng(9))
        for name, v in a.params().items():
            assert np.array_equal(v, b.params()[name]), name
        assert weights_digest(a) == weights_digest(b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", [TWO_BLOCKS, six_blocks()], ids=["two", "six"])
    def test_blocked_draws_match_one_draw_per_tensor(self, spec, dtype):
        assert math.prod(spec.param_shapes["dense1_weights"]) >= 2 * _BLOCK
        model = build_model(spec, Rng(31), dtype)
        want = one_draw_per_tensor(spec, Rng(31), dtype)
        assert model.theta.dtype == dtype
        assert model.theta.tobytes() == want.theta.tobytes()

    def test_invalid_spec_rejected(self):
        spec = tiny_spec()
        spec.conv_filters = 0
        with pytest.raises(ConfigError):
            build_model(spec, Rng(0))
        bad_radar = tiny_spec()
        bad_radar.radar_len = 0
        with pytest.raises(ConfigError):
            build_model(bad_radar, Rng(0))


class TestCountParameters:
    def test_paper_three_modality_closed_form(self):
        spec = ModelSpec.for_profile(ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.paper())
        model = build_model(spec, Rng(0))
        want = 3 * 3 * 1536 * 512 + 512 + 14464 * 512 + 512 + 512 + 1
        assert spec.param_count == model.theta.size == want == 14_484_993

    def test_toy_hand_count(self):
        spec = ModelSpec(
            ModalitySet.THERMAL_OPTRONIC_RADAR,
            stacked_shape=(4, 4, 3),
            radar_len=8,
            conv_filters=1,
            dense_units=1,
        )
        model = build_model(spec, Rng(0))
        # conv 3*3*3*1 + 1, dense (2*2*1 + 8)*1 + 1, output 1*1 + 1
        assert spec.param_count == model.theta.size == 27 + 1 + 12 + 1 + 1 + 1


class TestFlatLayout:
    """Every model holds its parameters as views of one flat vector."""

    @staticmethod
    def assert_views_of_theta(model):
        offset = 0
        for name, shape in model.spec.param_shapes.items():
            value = model.params()[name]
            assert value.shape == shape, name
            assert np.shares_memory(value, model.theta), name
            assert np.array_equal(value.reshape(-1), model.theta[offset : offset + value.size])
            offset += value.size
        assert offset == model.theta.size == model.spec.param_count

    def test_param_shapes_follow_param_order(self):
        assert tuple(tiny_spec().param_shapes) == PARAM_ORDER

    def test_built_loaded_cloned_and_trained_models_view_theta(self, tmp_path):
        model = build_model(tiny_spec(), Rng(3))
        self.assert_views_of_theta(model)
        path = tmp_path / "m.msfw"
        save_weights(model, path)
        self.assert_views_of_theta(load_weights(path))
        clone = model.clone()
        self.assert_views_of_theta(clone)
        assert not np.shares_memory(clone.theta, model.theta)
        trained, _ = train(model, tiny_dataset(), TrainConfig(max_epochs=1, patience=1, seed=1))
        self.assert_views_of_theta(trained)

    def test_writes_through_the_params_views_reach_theta(self):
        model = build_model(tiny_spec(), Rng(4))
        for view in model.params().values():
            view[...] = 0.25
        assert np.all(model.theta == np.float32(0.25))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_theta_of_the_wrong_size_rejected(self, delta):
        spec = tiny_spec()
        with pytest.raises(ShapeError, match=str(spec.param_count)):
            Model(spec, np.zeros(spec.param_count + delta, dtype=np.float32))

    def test_two_dimensional_theta_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ShapeError):
            Model(spec, np.zeros((1, spec.param_count), dtype=np.float32))


def eval_probabilities(model, samples, batch_size=64):
    x, r, _ = batch_arrays(samples)
    return evaluate_probabilities(model, x, r, batch_size)


def test_batch_arrays_copies_the_record_columns():
    ds = tiny_dataset()
    x, r, y = batch_arrays(ds.samples[:7])
    for array in (x, r, y):
        assert array.flags.aligned and array.flags.c_contiguous
        assert not np.shares_memory(array, ds.samples)
    assert np.array_equal(x, ds.samples.stacked[:7])
    assert np.array_equal(r, ds.samples.radar[:7])
    assert np.array_equal(y, ds.samples.label[:7])
    x1, r1, _ = batch_arrays(tiny_dataset(ModalitySet.THERMAL).samples[:3])
    assert x1.shape == (3, 4, 4, 2) and r1 is None


class TestForward:
    def test_eval_is_deterministic(self):
        model = build_model(tiny_spec(), Rng(1))
        ds = tiny_dataset()
        batch = ds.samples[:8]
        p1 = eval_probabilities(model, batch)
        p2 = eval_probabilities(model, batch)
        assert np.array_equal(p1, p2)

    def test_empty_batch_is_incompatible(self):
        model = build_model(tiny_spec(), Rng(1))
        x, r, _ = batch_arrays(tiny_dataset().samples[:3])
        with pytest.raises(CompatibilityError, match="empty batch"):
            evaluate_probabilities(model, x[:0], r[:0])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_a_config_error(self, batch_size):
        model = build_model(tiny_spec(), Rng(1))
        x, r, _ = batch_arrays(tiny_dataset().samples[:3])
        with pytest.raises(ConfigError, match="batch_size must be positive"):
            evaluate_probabilities(model, x, r, batch_size)

    def test_zero_weights_give_half_probability(self):
        model = build_model(tiny_spec(), Rng(1))
        model.theta[...] = 0
        p = eval_probabilities(model, tiny_dataset().samples[:5])
        assert np.all(p == 0.5)

    def test_batching_invariance(self):
        model = build_model(tiny_spec(), Rng(2))
        samples = tiny_dataset().samples[:6]
        batched = eval_probabilities(model, samples)
        assert np.array_equal(eval_probabilities(model, samples, batch_size=4), batched)
        for k in range(len(samples)):
            single = eval_probabilities(model, samples[k : k + 1])[0]
            assert abs(single - batched[k]) < 1e-6

    def test_probabilities_strictly_inside_unit_interval(self):
        model = build_model(tiny_spec(), Rng(3))
        p = eval_probabilities(model, tiny_dataset().samples[:20])
        assert np.all(p > 0) and np.all(p < 1)

    def test_train_mode_reproducible_given_seed(self):
        model = build_model(tiny_spec(), Rng(4))
        rows, idx = record_rows(tiny_dataset().samples), np.arange(6)
        p1 = TrainStep(model, 6, np.empty_like(model.theta)).gather(rows, idx, Rng(55))
        p2 = TrainStep(model, 6, np.empty_like(model.theta)).gather(rows, idx, Rng(55))
        assert np.array_equal(p1, p2)

    def test_shape_mismatch_rejected(self):
        model = build_model(tiny_spec(ModalitySet.THERMAL_OPTRONIC), Rng(5))
        ds = tiny_dataset()  # three-modality samples
        with pytest.raises(CompatibilityError):
            eval_probabilities(model, ds.samples[:2])

    @pytest.mark.parametrize("radar_rows", [1, 6])
    def test_radar_rows_must_match_stacked_rows(self, radar_rows):
        model = build_model(tiny_spec(), Rng(5))
        x, r, _ = batch_arrays(tiny_dataset().samples[:6])
        with pytest.raises(CompatibilityError, match=f"{radar_rows} radar rows for 5 stacked"):
            evaluate_probabilities(model, x[:5], r[:radar_rows])


class TestClassification:
    def test_exact_half_is_false_alarm(self):
        assert classify_probability(0.5) is Label.FALSE_ALARM

    def test_one_ulp_above_half_is_uav(self):
        assert classify_probability(float(np.nextafter(0.5, 1.0))) is Label.UAV

    def test_zero_model_classifies_everything_false_alarm(self):
        model = build_model(tiny_spec(), Rng(1))
        model.theta[...] = 0
        for p in eval_probabilities(model, tiny_dataset().samples[:5], batch_size=1):
            assert p == 0.5 and classify_probability(p) is Label.FALSE_ALARM


class TestPersistence:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = build_model(tiny_spec(), Rng(7))
        p1, p2 = tmp_path / "a.msfw", tmp_path / "b.msfw"
        save_weights(model, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_forward_is_bitwise_equal(self, tmp_path):
        model = build_model(tiny_spec(), Rng(8))
        path = tmp_path / "m.msfw"
        save_weights(model, path)
        loaded = load_weights(path)
        samples = tiny_dataset().samples[:6]
        assert np.array_equal(
            eval_probabilities(model, samples), eval_probabilities(loaded, samples)
        )

    def test_truncated_weights_rejected(self, tmp_path):
        model = build_model(tiny_spec(), Rng(9))
        path = tmp_path / "m.msfw"
        save_weights(model, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptionError):
            load_weights(path)

    def test_huge_declared_model_without_payload_rejected(self, tmp_path):
        # a header that declares about 10**18 parameters and stops: the loader
        # must report the missing payload, not try to allocate the vector
        spec = tiny_spec()
        spec.conv_filters = spec.dense_units = 2**30
        path = tmp_path / "m.msfw"
        path.write_bytes(WEIGHTS_MAGIC + struct.pack("<H", WEIGHTS_VERSION) + _spec_bytes(spec))

        def load():
            with pytest.raises(CorruptionError, match="truncated"):
                load_weights(path)

        _, peak = traced_peak(load)
        assert peak < path.stat().st_size + MIB

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.msfw"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_weights(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, bad):
        model = build_model(tiny_spec(), Rng(10))
        model.dense1.weights[3, 1] = bad
        path = tmp_path / "m.msfw"
        save_weights(model, path)
        with pytest.raises(CorruptionError, match="dense1_weights holds non-finite"):
            load_weights(path)

    def test_a_recording_file_is_not_a_weights_file(self, tmp_path):
        path = tmp_path / "m.msfw"
        path.write_bytes(b"MSFR" + bytes(40))
        with pytest.raises(FormatError) as info:
            load_weights(path)
        assert str(info.value) == f"{path}: bad magic b'MSFR', expected b'MSFW'"

    def test_wrong_version_rejected(self, tmp_path):
        model = build_model(tiny_spec(), Rng(10))
        path = tmp_path / "m.msfw"
        save_weights(model, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 42)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_weights(path)

    @pytest.mark.parametrize("field,value", [("dropout_rate", np.nan), ("conv_filters", 0)])
    def test_out_of_range_stored_spec_is_corruption(self, tmp_path, field, value):
        # the loader validates the stored spec: a bad value is a fault of the
        # file, not of the run's configuration
        model = build_model(tiny_spec(), Rng(11))
        setattr(model.spec, field, value)
        path = tmp_path / "m.msfw"
        save_weights(model, path)
        with pytest.raises(CorruptionError, match=f"m.msfw: stored spec is out of range: {field}"):
            load_weights(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_digest_serialization_and_file_agree(self, tmp_path, modality_set, dtype):
        model = build_model(six_blocks(modality_set), Rng(12), dtype)
        path, again = tmp_path / "a.msfw", tmp_path / "b.msfw"
        assert save_weights(model, path) == path.stat().st_size
        blob = path.read_bytes()
        assert blob == serialize_oracle(model)
        assert weights_digest(model) == hashlib.sha256(blob).hexdigest()
        save_weights(load_weights(path), again)
        assert again.read_bytes() == blob

    def test_digest_tracks_content(self):
        a = build_model(tiny_spec(), Rng(1))
        b = build_model(tiny_spec(), Rng(2))
        assert weights_digest(a) != weights_digest(b)
        assert weights_digest(a) == weights_digest(a.clone())


class TestEndToEndGradient:
    def test_full_network_matches_finite_differences(self):
        spec = tiny_spec(dropout=0.5)
        model = build_model(spec, Rng(11), dtype=np.float64)
        ds = tiny_dataset()
        x, r, y = batch_arrays(ds.samples[:4], dtype=np.float64)
        rows = fused_rows(x, r, y)

        def loss_with(m):
            # fresh Rng per evaluation so the dropout masks repeat exactly
            ws = TrainStep(m, len(x), np.empty_like(m.theta))
            loss, grad_p = bce_loss(ws.gather(rows, np.arange(len(x)), Rng(321)), y)
            return loss, ws, grad_p

        loss, ws, grad_p = loss_with(model)
        grads = backward_pass(ws, grad_p)

        def param_loss(name):
            def f(value):
                m = model.clone()
                m.params()[name][...] = value
                return loss_with(m)[0]

            return f

        for name, value in model.params().items():
            err = grad_check(param_loss(name), value.copy(), grads[name])
            assert err < 1e-4, f"{name}: {err}"


class TestTraining:
    def test_noiseless_separable_data_reaches_full_accuracy(self):
        ds = tiny_dataset(noise_sigma=0.0)
        model = build_model(tiny_spec(dropout=0.0), Rng(13))
        cfg = TrainConfig(lr0=1e-3, max_epochs=60, patience=60, seed=3)
        trained, report = train(model, ds, cfg)
        assert max(report.train_accuracy) == 1.0
        assert report.stopped_epoch <= 60

    def test_constant_validation_loss_stops_at_patience_plus_one(self):
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(14))
        cfg = TrainConfig(lr0=0.0, max_epochs=160, patience=10, seed=1)
        trained, report = train(model, ds, cfg)
        assert report.stopped_epoch == 11
        assert report.best_epoch == 1
        assert report.stopped_epoch - report.best_epoch == cfg.patience
        # lr 0 means nothing moved; restored best equals the initial weights
        assert report.weights_digest == weights_digest(model)

    def test_same_seed_gives_identical_report_and_digest(self):
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(15))
        cfg = TrainConfig(max_epochs=5, patience=5, seed=7)
        _, r1 = train(model, ds, cfg)
        _, r2 = train(model, ds, cfg)
        assert r1 == r2

    def test_restore_best_returns_min_validation_loss_weights(self):
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(16))
        cfg = TrainConfig(lr0=5e-4, max_epochs=25, patience=5, seed=2)
        trained, report = train(model, ds, cfg)
        assert report.best_epoch == int(np.argmin(report.val_loss)) + 1
        assert report.best_epoch <= report.stopped_epoch <= cfg.max_epochs
        assert len(report.val_loss) == report.stopped_epoch
        if report.stopped_epoch < cfg.max_epochs:
            assert report.stopped_epoch - report.best_epoch == cfg.patience
        # re-evaluate the returned model on the validation split
        x, r, y = batch_arrays(ds.samples)
        perm = Rng(cfg.seed).spawn("split").permutation(len(y))
        train_n, _ = split_sizes(len(y), cfg.val_fraction)
        val_idx = perm[train_n:]
        rv = None if r is None else r[val_idx]
        p = evaluate_probabilities(trained, x[val_idx], rv, cfg.batch_size)
        val_loss, _ = bce_loss(p, y[val_idx])
        assert abs(val_loss - min(report.val_loss)) < 1e-9

    def test_val_weighted_f1_is_the_returned_models_on_the_validation_split(self):
        # Oracle: rebuild the seed's validation split and score the returned
        # model on it. The run early-stops after its best epoch, and the best
        # and last epochs score differently, so restore_best true and false
        # must each report the F1 of the weights they return.
        ds = tiny_dataset(noise_sigma=3.0)
        model = build_model(tiny_spec(), Rng(16))
        f1s = []
        for restore_best in (True, False):
            cfg = TrainConfig(lr0=1e-2, max_epochs=25, patience=2, seed=1, restore_best=restore_best)
            trained, report = train(model, ds, cfg)
            assert report.best_epoch < report.stopped_epoch < cfg.max_epochs
            x, r, y = batch_arrays(ds.samples)
            perm = Rng(cfg.seed).spawn("split").permutation(len(y))
            train_n, _ = split_sizes(len(y), cfg.val_fraction)
            val_idx = perm[train_n:]
            rv = None if r is None else r[val_idx]
            p = evaluate_probabilities(trained, x[val_idx], rv, cfg.batch_size)
            want = classification_report(confusion_at_threshold(y[val_idx], p)).weighted_f1
            assert report.val_weighted_f1 == want
            f1s.append(want)
        assert f1s[0] != f1s[1]

    def test_training_loss_non_increasing_early_on_separable_data(self):
        ds = tiny_dataset(noise_sigma=0.1)
        model = build_model(tiny_spec(dropout=0.0), Rng(17))
        cfg = TrainConfig(lr0=1e-3, max_epochs=5, patience=5, seed=4)
        _, report = train(model, ds, cfg)
        violations = sum(
            1
            for a, b in zip(report.train_loss, report.train_loss[1:])
            if b > a
        )
        assert violations <= 1

    def test_single_class_split_rejected(self):
        ds = tiny_dataset(uav_fraction=0.0)
        model = build_model(tiny_spec(), Rng(18))
        with pytest.raises(TrainingError, match="single class"):
            train(model, ds, TrainConfig(seed=1))

    def test_nan_parameters_fault(self):
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(19))
        model.conv.kernels[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericFault):
            train(model, ds, TrainConfig(max_epochs=2, patience=2, seed=1))

    def test_split_rule_is_floor_of_train_fraction(self):
        assert split_sizes(17633, 0.2) == (14106, 3527)
        assert split_sizes(10, 0.2) == (8, 2)
        assert sum(split_sizes(17633, 0.2)) == 17633

    def test_golden_weights_digest(self):
        # Pinned output of a short reduced-profile run whose dense1 tensor
        # spans several optimizer blocks; a speed or refactor change that
        # alters any trained bit changes this digest.
        data = generate_synthetic_dataset(
            SynthConfig(
                recordings_per_modality=2,
                samples_per_recording=60,
                shape_profile=ShapeProfile.reduced(),
                seed=21,
            )
        )
        ds = fuse_dataset(
            data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR],
            ModalitySet.THERMAL_OPTRONIC_RADAR,
        )
        spec = ModelSpec.for_profile(
            ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(),
            conv_filters=32, dense_units=64,
        )
        model = build_model(spec, Rng(22))
        _, report = train(model, ds, TrainConfig(lr0=1e-3, max_epochs=4, patience=4, seed=23))
        assert report.stopped_epoch == 4
        assert report.weights_digest == (
            "4e0c91ce3b95c838b26011de7d238c60e2d5ed7276121d39e4f8460a8a421826"
        ), environment()

    def test_input_model_is_not_mutated(self):
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(20))
        before = weights_digest(model)
        train(model, ds, TrainConfig(max_epochs=2, patience=2, seed=1))
        assert weights_digest(model) == before

    def test_returned_model_shares_no_memory_with_the_input(self):
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(24))
        before = weights_digest(model)
        trained, report = train(model, ds, TrainConfig(max_epochs=3, patience=3, seed=2))
        assert weights_digest(model) == before
        assert report.weights_digest == weights_digest(trained) != before
        for name, value in model.params().items():
            for other in trained.params().values():
                assert not np.shares_memory(value, other), name

    @pytest.mark.parametrize(
        "model_set, data_set",
        [
            (ModalitySet.THERMAL_OPTRONIC_RADAR, ModalitySet.THERMAL_OPTRONIC),
            (ModalitySet.THERMAL_OPTRONIC, ModalitySet.THERMAL_OPTRONIC_RADAR),
            (ModalitySet.THERMAL, ModalitySet.THERMAL_OPTRONIC),
        ],
    )
    def test_dataset_that_does_not_fit_the_model_rejected(self, model_set, data_set):
        model = build_model(tiny_spec(model_set), Rng(26))
        with pytest.raises(CompatibilityError):
            train(model, tiny_dataset(data_set), TrainConfig(max_epochs=1, patience=1))

    @pytest.mark.parametrize("layout", ["big-endian payloads", "reordered fields"])
    def test_records_in_another_layout_are_rejected_before_any_step(self, layout, monkeypatch):
        # The same values in another layout: evaluation reads them by field,
        # but a training step copies record bytes into the model's layout.
        ds = tiny_dataset()
        f4 = ">f4" if layout == "big-endian payloads" else "<f4"
        payloads = [(name, f4, ds.samples.dtype[name].shape) for name in ("stacked", "radar")]
        if layout == "reordered fields":
            payloads.reverse()
        samples = np.recarray(len(ds.samples), [("timestamp", "<f8"), ("label", "u1"), *payloads])
        for name in samples.dtype.names:
            samples[name] = ds.samples[name]
        model = build_model(tiny_spec(), Rng(27))
        assert _bits(evaluate_probabilities(model, *record_maps(samples))) == _bits(
            evaluate_probabilities(model, *record_maps(ds.samples))
        )

        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(TrainStep, "gather", no_step)
        with pytest.raises(CompatibilityError, match="not the model's layout"):
            train(model, FusedDataset(ds.modality_set, samples, ds.provenance), TrainConfig())

    def test_non_finite_gradient_faults_and_leaves_the_input_alone(self, monkeypatch):
        # a finite loss with an infinite gradient in the last tensor, so the
        # fault comes from the optimizer's own check
        backward = TrainStep.backward

        def inf_backward(self):
            backward(self)
            self.grads.output.bias[...] = np.inf

        monkeypatch.setattr(TrainStep, "backward", inf_backward)
        ds = tiny_dataset()
        model = build_model(tiny_spec(), Rng(25))
        before = weights_digest(model)
        with pytest.raises(NumericFault, match="gradient"):
            train(model, ds, TrainConfig(max_epochs=2, patience=2, seed=1))
        assert weights_digest(model) == before


def _bits(a):
    return np.asarray(a).tobytes()


def oracle_forward(model, x, r, mode, rng):
    """The network as an allocating composition of the ``ops`` layer functions."""
    rate = model.spec.dropout_rate
    z1 = conv2d_forward(x, model.conv)
    a1 = relu(z1)
    flat = a1.reshape(x.shape[0], -1)
    d1, m1 = dropout_apply(flat, rate, mode, rng)
    h = np.concatenate([d1, r], axis=1) if r is not None else d1
    z2 = dense_forward(h, model.dense1)
    a2 = relu(z2)
    d2, m2 = dropout_apply(a2, rate, mode, rng)
    z3 = dense_forward(d2, model.output)
    p = sigmoid(z3)[:, 0]
    cache = (x, z1, m1, h, z2, m2, d2, p)
    return p, cache


def oracle_backward(model, cache, grad_p):
    """Gradients of the loss wrt every parameter through the ``ops`` backward functions."""
    x, z1, m1, h, z2, m2, d2, p = cache
    rate = model.spec.dropout_rate
    dz3 = sigmoid_backward(grad_p.reshape(-1, 1), p.reshape(-1, 1))
    dd2, g_out_w, g_out_b = dense_backward(d2, model.output, dz3)
    da2 = dropout_backward(dd2, m2, rate)
    dz2 = relu_backward(da2, z2)
    dh, g_d1_w, g_d1_b = dense_backward(h, model.dense1, dz2)
    dflat = dh[:, : model.spec.flatten_width]  # radar slice gets no gradient path
    dflat = dropout_backward(dflat, m1, rate)
    dz1 = relu_backward(dflat.reshape(z1.shape), z1)
    g_c_k, g_c_b = conv2d_backward(x, model.conv, dz1)[1:]
    return dict(zip(PARAM_ORDER, (g_c_k, g_c_b, g_d1_w, g_d1_b, g_out_w, g_out_b)))


def oracle_probabilities(model, x, r, batch_size):
    """The oracle's eval-mode probabilities, chunk by chunk: gemm bits depend on the row count."""
    out = []
    for s in range(0, len(x), batch_size):
        rb = None if r is None else r[s : s + batch_size]
        out.append(oracle_forward(model, x[s : s + batch_size], rb, "eval", None)[0])
    return np.concatenate(out)


class TestTrainStep:
    """The workspace against the allocating ``ops`` composition, in train and eval mode."""

    @staticmethod
    def _oracle_step(model, x, r, y, idx, rng):
        rb = None if r is None else r[idx]
        p, cache = oracle_forward(model, x[idx], rb, "train", rng)
        loss, grad_p = bce_loss(p, y[idx])
        grads = oracle_backward(model, cache, grad_p)
        return p, loss, np.concatenate([grads[name].reshape(-1) for name in PARAM_ORDER])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("batch_size", [1, 7, 12])
    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_bit_identical_to_forward_and_backward_pass(
        self, modality_set, batch_size, dropout, dtype
    ):
        ds = tiny_dataset(modality_set)
        x, r, y = batch_arrays(ds.samples, dtype=dtype)
        assert (r is not None) == modality_set.has_radar
        rows = fused_rows(x, r, y)
        oracle = build_model(tiny_spec(modality_set, dropout), Rng(30), dtype)
        model = oracle.clone()
        grad = np.empty_like(model.theta)
        ms_oracle = np.zeros_like(grad)
        update = RmspropUpdate(model.theta, grad, np.zeros_like(grad))
        rng_oracle, rng = Rng(31), Rng(31)
        # 31 samples: batch 7 and 12 end on a short batch, 4 and 7 samples long
        order = Rng(32).permutation(len(y))[:31]
        workspaces = {}
        for _ in range(2):
            for s in range(0, len(order), batch_size):
                idx = order[s : s + batch_size]
                p_o, loss_o, grad_o = self._oracle_step(oracle, x, r, y, idx, rng_oracle)
                if len(idx) not in workspaces:
                    workspaces[len(idx)] = TrainStep(model, len(idx), grad)
                ws = workspaces[len(idx)]
                p = ws.gather(rows, idx, rng)
                loss, correct = ws.loss(y, idx)
                ws.backward()
                assert _bits(p) == _bits(p_o)
                assert loss == loss_o
                assert correct == int(np.sum((p_o > 0.5) == (y[idx] > 0.5)))
                assert _bits(grad) == _bits(grad_o)
                oracle.theta[...], ms_oracle = rmsprop_oracle(
                    oracle.theta, grad_o, ms_oracle, 0, 1e-2, 0
                )
                update(1e-2)
                assert _bits(model.theta) == _bits(oracle.theta)
        assert sorted(workspaces) == sorted({batch_size, 31 % batch_size} - {0})
        assert _bits(rng.u64(5)) == _bits(rng_oracle.u64(5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size", [1, 5, 12, 64])
    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_evaluate_probabilities_bit_identical_to_the_oracle(
        self, modality_set, batch_size, dtype
    ):
        # 67 rows: chunks 5, 12 and 64 end on a short chunk of 2, 7 and 3 rows
        x, r, _ = batch_arrays(tiny_dataset(modality_set).samples[:67], dtype=dtype)
        model = build_model(tiny_spec(modality_set), Rng(33), dtype)
        p = evaluate_probabilities(model, x, r, batch_size)
        assert p.dtype == dtype
        assert _bits(p) == _bits(oracle_probabilities(model, x, r, batch_size))


class TestSharedWorkspaces:
    """Workspaces on the leading rows of a 12-row set against separate buffers and the oracle."""

    dataset, spec = staticmethod(tiny_dataset), staticmethod(tiny_spec)

    class Run:
        """A model, its gradient, its optimizer and its dropout stream, stepped in workspaces."""

        def __init__(self, model, base_rows):
            self.model, self.grad = model, np.empty_like(model.theta)
            self.update = RmspropUpdate(model.theta, self.grad, np.zeros_like(self.grad))
            self.rng = Rng(51)
            self.base = None if base_rows is None else TrainStep(model, base_rows, self.grad)
            self.steps = {}

        def step(self, rows, y, idx):
            n = len(idx)
            if n not in self.steps:
                self.steps[n] = TrainStep(self.model, n, self.grad, self.base)
            ws = self.steps[n]
            p = ws.gather(rows, idx, self.rng).copy()
            loss, _ = ws.loss(y, idx)
            ws.backward()
            self.update(1e-2)
            return p, loss, self.grad.copy(), self.model.theta.copy()

        def evaluate(self, x, r, rows, idx):
            """Eval-mode probabilities of the batch idx: (copied in, gathered from rows)."""
            ws = TrainStep(self.model, len(idx), base=self.base)
            copied = ws.forward(x[idx], None if r is None else r[idx]).copy()
            return copied, ws.gather(rows, idx).copy()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_bit_identical_to_separate_buffers_and_the_oracle(self, modality_set, dropout, dtype):
        ds = self.dataset(modality_set)
        x, r, y = batch_arrays(ds.samples, dtype=dtype)
        rows = record_rows(ds.samples)
        assert np.shares_memory(rows, ds.samples)
        oracle = build_model(self.spec(modality_set, dropout), Rng(50), dtype)
        shared, separate = self.Run(oracle.clone(), 12), self.Run(oracle.clone(), None)
        ms_oracle, rng_oracle = np.zeros_like(oracle.theta), Rng(51)
        order = Rng(52).permutation(len(y))
        s = 0
        for n in (7, 1, 5, 12, 5, 1, 7):
            idx = order[s : s + n]
            s += n
            p_o, loss_o, grad_o = TestTrainStep._oracle_step(oracle, x, r, y, idx, rng_oracle)
            oracle.theta[...], ms_oracle = rmsprop_oracle(
                oracle.theta, grad_o, ms_oracle, 0, 1e-2, 0
            )
            for run in (shared, separate):
                p, loss, grad, theta = run.step(rows, y, idx)
                assert _bits(p) == _bits(p_o)
                assert loss == loss_o
                assert _bits(grad) == _bits(grad_o)
                assert _bits(theta) == _bits(oracle.theta)
        for n, ws in shared.steps.items():
            assert np.shares_memory(ws.x, shared.base.x), n
            assert not np.shares_memory(separate.steps[n].x, shared.base.x)
        want = rng_oracle.u64(5)
        assert _bits(shared.rng.u64(5)) == _bits(want) == _bits(separate.rng.u64(5))
        # eval mode on the same buffers: 1, 5 and 7 rows, and 7 shuffled, against the oracle
        for idx in (np.arange(1), np.arange(3, 8), np.arange(10, 17), order[40:47]):
            rb = None if r is None else r[idx]
            p_o = oracle_forward(oracle, x[idx], rb, "eval", None)[0]
            copied, gathered = shared.evaluate(x, r, rows, idx)
            assert _bits(copied) == _bits(p_o) == _bits(gathered)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_an_eval_forward_between_steps_changes_nothing(self, modality_set, dropout, dtype):
        ds = self.dataset(modality_set)
        x, r, y = batch_arrays(ds.samples, dtype=dtype)
        rows = record_rows(ds.samples)
        model = build_model(self.spec(modality_set, dropout), Rng(53), dtype)
        plain, interleaved = self.Run(model.clone(), 12), self.Run(model.clone(), 12)
        order = Rng(54).permutation(len(y))
        first, second = order[:7], order[7:12]
        plain.step(rows, y, first)
        interleaved.step(rows, y, first)
        interleaved.evaluate(x, r, rows, np.arange(20, 32))
        got, want = interleaved.step(rows, y, second), plain.step(rows, y, second)
        for a, b in zip(got, want):
            assert _bits(a) == _bits(b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_a_batch_gathered_from_the_records_has_the_arrays_bits(self, modality_set, dtype):
        # the dataset's own records, in a workspace on a shared base, against
        # records packed from its column arrays, in a workspace of its own
        ds = self.dataset(modality_set)
        x, r, y = batch_arrays(ds.samples, dtype=dtype)
        records, arrays = record_rows(ds.samples), fused_rows(x, r, y)
        model = build_model(self.spec(modality_set), Rng(55), dtype)
        base = TrainStep(model, 12, np.empty_like(model.theta))
        from_records = TrainStep(model, 7, base.grads.theta, base)
        from_arrays = TrainStep(model, 7, np.empty_like(model.theta))
        for idx in np.split(Rng(56).permutation(len(y))[:21], 3):
            p = from_records.gather(records, idx, Rng(57))
            assert _bits(p) == _bits(from_arrays.gather(arrays, idx, Rng(57)))
            assert from_records.loss(y, idx) == from_arrays.loss(y, idx)
            from_records.backward()
            from_arrays.backward()
            assert _bits(from_records.grads.theta) == _bits(from_arrays.grads.theta)


# Products that pass worker.SPLIT_MACS from 5 rows (the conv forward and kernel
# gradient of the stacked maps) and at 12 rows (all five), at widths that
# split (32 filters, 2048 units, 864 or 800 dense inputs), and 30 RMSprop blocks
SPLIT = ShapeProfile("split", (7, 7, 256), (7, 7, 256), (64,))
SPLIT_PRODUCTS = ("_conv_forward", "_dense1_forward", "_dense1_dh", "_dense1_dw", "_conv_dk")


def split_spec(modality_set=ModalitySet.THERMAL_OPTRONIC_RADAR, dropout=0.5):
    return ModelSpec.for_profile(
        modality_set, SPLIT, conv_filters=32, dense_units=2048, dropout_rate=dropout
    )


class TestSplitWorkspaces(TestSharedWorkspaces):
    """TestSharedWorkspaces' cases with the gate on, so the large products and RMSprop split.

    The threshold stays as it is: below it, OpenBLAS picks kernels for small
    sizes that can give a half other bits than the whole product.
    """

    spec = staticmethod(split_spec)

    @staticmethod
    def dataset(modality_set):
        return tiny_dataset(modality_set, shape_profile=SPLIT)

    @pytest.fixture(autouse=True)
    def split_on(self, monkeypatch):
        monkeypatch.setattr(worker, "_gate", True)

    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_the_large_products_and_the_update_split(self, modality_set):
        model = build_model(self.spec(modality_set), Rng(58))
        grad = np.empty_like(model.theta)
        split = {}
        for n in (1, 5, 12):
            ws = TrainStep(model, n, grad)
            split[n] = {name for name in SPLIT_PRODUCTS
                        if getattr(ws, name).func is worker.run_halves}
        conv = set() if modality_set is ModalitySet.THERMAL else {"_conv_forward", "_conv_dk"}
        assert split == {1: set(), 5: conv, 12: set(SPLIT_PRODUCTS)}
        assert TrainStep(model, 12)._conv_forward.func is worker.run_halves
        update = RmspropUpdate(model.theta, grad, np.zeros_like(grad))
        first, second = update._halves
        assert 13 <= len(first) == (len(first) + len(second)) // 2


@pytest.fixture(scope="module")
def paper_smoke_dataset():
    """The data of acceptance criterion 3's full-scale smoke fit: 23 paper-profile samples."""
    data = generate_synthetic_dataset(
        SynthConfig(
            recordings_per_modality=1, samples_per_recording=30,
            shape_profile=ShapeProfile.paper(), seed=1,
        )
    )
    return fuse_dataset(
        data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR],
        ModalitySet.THERMAL_OPTRONIC_RADAR,
    )


@pytest.mark.parametrize("gate", [False, True], ids=["whole", "split"])
def test_golden_paper_profile_fit_and_probabilities(paper_smoke_dataset, monkeypatch, gate):
    # Pinned output of criterion 3's smoke fit, one epoch of the 14,484,993-parameter
    # network, with the large products and RMSprop split or whole: the same bits.
    monkeypatch.setattr(worker, "_gate", gate)
    spec = ModelSpec.for_profile(ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.paper())
    trained, report = train(
        build_model(spec, Rng(7).spawn("init")), paper_smoke_dataset,
        TrainConfig(max_epochs=1, patience=1, seed=7),
    )
    assert report.weights_digest == (
        "53fdf856ffc47e2ce09ced8c6a7dff5cbb865799e9a68a520e531288be09c9d1"
    ), environment()
    x, r = record_maps(paper_smoke_dataset.samples)
    assert hashlib.sha256(evaluate_probabilities(trained, x[:1], r[:1])).hexdigest() == (
        "60729c6445b3b3ae93afd93c258132014dd6c7ac8a7c94bfa07dd61c949b6688"
    ), environment()
    assert hashlib.sha256(evaluate_probabilities(trained, x, r)).hexdigest() == (
        "b45125d7a0222fb4a4bf0fd961619e4c30241c99bcaf4e48ba9b7c3e6980ce81"
    ), environment()
    split = trained._eval_steps[len(x)]._conv_forward.func is worker.run_halves
    assert split == gate


def test_golden_weights_digest_with_the_update_split(monkeypatch):
    # The reduced golden's products stay below the threshold; its 69,281
    # parameters make two RMSprop blocks, which split at a lowered count.
    monkeypatch.setattr(worker, "_gate", True)
    monkeypatch.setattr(ops, "_SPLIT_BLOCKS", 2)
    calls = []

    def counted(first, second):
        calls.append(1)
        worker.run_halves(first, second)

    monkeypatch.setattr(ops, "run_halves", counted)
    TestTraining().test_golden_weights_digest()
    assert calls


def _first_logit_reaching(target, dtype):
    """(z, the next float above z): sigmoid(z) < target <= sigmoid(next), by bisection."""
    lo, hi = dtype(-40), dtype(40)
    while np.nextafter(lo, hi) != hi:
        mid = dtype((lo + hi) / 2)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        if sigmoid(np.array([mid]))[0] >= target:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _special_logits(dtype):
    """Signed zeros, subnormals, extremes, non-finite values and the logits at the clamp edges."""
    info = np.finfo(dtype)
    eps = dtype(BCE_EPS)
    edges = [*_first_logit_reaching(eps, dtype), *_first_logit_reaching(1 - eps, dtype)]
    values = [0.0, -0.0, info.tiny / 4, -info.tiny / 4, info.tiny, info.max, -info.max,
              np.inf, -np.inf, np.nan, 0.5, -0.5, *edges]
    return [dtype(v) for v in values]


def _logits(dtype):
    width = np.finfo(dtype).bits
    return st.one_of(st.sampled_from(_special_logits(dtype)), st.floats(width=width))


class TestWorkspaceHead:
    """The workspace's sigmoid, loss, dz3 and correct count against the ``ops`` oracles."""

    @staticmethod
    def _workspace(dtype, batch_size):
        model = build_model(tiny_spec(), Rng(40), dtype)
        return TrainStep(model, batch_size, np.empty_like(model.theta))

    def _check(self, ws, p_want, y):
        loss, correct = ws.loss(y, np.arange(len(y)))
        loss_want, grad_p = bce_loss(p_want, y)
        assert loss == loss_want or not (math.isfinite(loss) or math.isfinite(loss_want))
        dz3_want = sigmoid_backward(grad_p.reshape(-1, 1), p_want.reshape(-1, 1))
        assert _bits(ws.dz3) == _bits(dz3_want)
        assert correct == int(np.sum((p_want > 0.5) == (y > 0.5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size", [1, 7, 12])
    @given(data=st.data())
    def test_head_matches_the_oracles(self, dtype, batch_size, data):
        ws = self._workspace(dtype, batch_size)
        rows = st.lists(_logits(dtype), min_size=batch_size, max_size=batch_size)
        labels = st.lists(st.sampled_from([0.0, 1.0]), min_size=batch_size, max_size=batch_size)
        ws.z3[:, 0] = data.draw(rows)
        y = np.array(data.draw(labels), dtype)
        ws._sigmoid()
        p_want = sigmoid(ws.z3)[:, 0]
        assert _bits(ws.p) == _bits(p_want)
        self._check(ws, p_want, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_at_the_clamp_edges(self, dtype):
        # p exactly on each clamp bound and one ulp to either side of it
        eps = dtype(BCE_EPS)
        p = np.array([np.nextafter(e, d) for e in (eps, 1 - eps) for d in (0, e, 1)])
        ws = self._workspace(dtype, len(p))
        for y in (np.zeros(len(p), dtype), np.ones(len(p), dtype)):
            ws.p[...] = p
            self._check(ws, p, y)


class TestEvalWorkspaces:
    """The eval workspaces a model caches between evaluate_probabilities calls."""

    def test_a_result_is_not_overwritten_by_the_next_call(self):
        model = build_model(tiny_spec(), Rng(34))
        x, r, _ = batch_arrays(tiny_dataset().samples[:10])
        for rows in (slice(0, 5), slice(5, 10)), (slice(0, 1), slice(1, 2)):
            p = evaluate_probabilities(model, x[rows[0]], r[rows[0]])
            kept = p.copy()
            evaluate_probabilities(model, x[rows[1]], r[rows[1]])
            assert _bits(p) == _bits(kept)

    def test_new_parameters_reach_the_cached_workspaces(self):
        model, other = build_model(tiny_spec(), Rng(35)), build_model(tiny_spec(), Rng(36))
        x, r, _ = batch_arrays(tiny_dataset().samples[:20])
        before = evaluate_probabilities(model, x, r, 12)
        model.theta[...] = other.theta
        after = evaluate_probabilities(model, x, r, 12)
        assert _bits(after) == _bits(evaluate_probabilities(other, x, r, 12))
        assert _bits(after) != _bits(before)

    def test_each_larger_row_count_replaces_the_cache(self):
        model = build_model(tiny_spec(), Rng(37))
        x, r, _ = batch_arrays(tiny_dataset().samples[:10])
        for n in range(1, 11):
            evaluate_probabilities(model, x[:n], r[:n])
            assert sorted(model._eval_steps) == [n]

    def test_overlapping_calls_on_one_model_take_turns(self):
        # Three threads, more than two CPUs' worth, serve one model with one
        # row count, so every call uses one workspace; each result must be
        # its own batch's single-thread bits.
        spec = ModelSpec.for_profile(
            ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(),
            conv_filters=16, dense_units=32,
        )
        model, rng = build_model(spec, Rng(42)), Rng(43)
        batches = [
            (rng.normal((64, *spec.stacked_shape)).astype(np.float32),
             rng.normal((64, spec.radar_len)).astype(np.float32))
            for _ in range(3)
        ]
        want = [_bits(evaluate_probabilities(model, x, r)) for x, r in batches]
        barrier = threading.Barrier(len(batches))

        def serve(k):
            x, r = batches[k]
            barrier.wait(timeout=60)
            return sum(_bits(evaluate_probabilities(model, x, r)) != want[k] for _ in range(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(batches)) as pool:
                wrong = list(pool.map(serve, range(len(batches)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [0] * len(batches)

    def test_smaller_row_counts_view_the_largest_workspace(self):
        model = build_model(tiny_spec(), Rng(41))
        x, r, _ = batch_arrays(tiny_dataset().samples[:12])
        evaluate_probabilities(model, x[:7], r[:7], 5)
        evaluate_probabilities(model, x[:1], r[:1])
        p = evaluate_probabilities(model, x[:3], r[:3])
        steps = model._eval_steps
        assert sorted(steps) == [1, 2, 3, 5]
        for n in (1, 2, 3):
            assert np.shares_memory(steps[n].x, steps[5].x)
            assert np.shares_memory(steps[n].patches, steps[5].patches)
        assert _bits(p) == _bits(oracle_probabilities(model, x[:3], r[:3], 64))
        # a larger one replaces them all
        p = evaluate_probabilities(model, x, r)
        assert list(steps) == [12]
        assert _bits(p) == _bits(oracle_probabilities(model, x, r, 64))

    def test_workspaces_are_freed_with_the_model(self):
        model = build_model(tiny_spec(), Rng(38))
        x, r, _ = batch_arrays(tiny_dataset().samples[:7])
        evaluate_probabilities(model, x, r, 5)
        refs = [weakref.ref(ws) for ws in model._eval_steps.values()]
        assert len(refs) == 2
        gc.disable()  # freed by reference counting alone: no cycle holds them
        try:
            del model
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_a_clone_starts_with_no_workspaces(self):
        model = build_model(tiny_spec(), Rng(39))
        x, r, _ = batch_arrays(tiny_dataset().samples[:3])
        evaluate_probabilities(model, x, r)
        assert model._eval_steps and model.clone()._eval_steps == {}
