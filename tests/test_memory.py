"""Memory contract of the weight operations, training and evaluation, measured with tracemalloc.

Beside the caller's model, training holds four vectors of theta's size (the
clone, its gradient, RMSprop's mean square and the best epoch's copy) and
one set of workspace buffers for its largest row count. It reads the
records in place, so it holds no copy of the data, and the model it
returns holds theta alone. Evaluation holds one set of workspace buffers
per model, for its largest row count. Init, digest and save add nothing of
theta's size, and load adds one file buffer.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from uavfuse.data import FusedDataset, Modality, ModalitySet, ShapeProfile
from uavfuse.model import (
    ModelSpec, TrainStep, build_model, load_weights, save_weights, weights_digest
)
from uavfuse.registration import fuse_dataset
from uavfuse.rng import Rng
from uavfuse.synth import SynthConfig, generate_synthetic_dataset
from uavfuse.training import TrainConfig, evaluate_probabilities, train

MIB = 1 << 20

# theta of 1,915,665 float32 values (7.66 MB): one more copy of it would show
SPEC = ModelSpec.for_profile(
    ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(), conv_filters=16, dense_units=4096
)
# a model small enough that its workspaces and theta do not hide a copy of the data
SMALL = ModelSpec.for_profile(
    ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(), conv_filters=4, dense_units=16
)


def traced(fn):
    """(fn(), the peak in bytes of what it allocated and held at once, what it still holds)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - base, held - base
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_peak(fn):
    """(fn(), the peak in bytes of what it allocated and held at once)."""
    return traced(fn)[:2]


def test_init_writes_its_draws_straight_into_theta():
    model, peak = traced_peak(lambda: build_model(SPEC, Rng(1)))
    assert peak <= model.theta.nbytes + MIB


def test_digest_and_save_copy_nothing_of_theta_size(tmp_path):
    model = build_model(SPEC, Rng(2))
    _, peak = traced_peak(lambda: weights_digest(model))
    assert peak < MIB
    _, peak = traced_peak(lambda: save_weights(model, tmp_path / "m.msfw"))
    assert peak < MIB


def test_load_holds_the_file_and_theta_only(tmp_path):
    path = tmp_path / "m.msfw"
    save_weights(build_model(SPEC, Rng(3)), path)
    model, peak = traced_peak(lambda: load_weights(path))
    assert peak <= 2.1 * model.theta.nbytes


@pytest.fixture(scope="module")
def reduced_set():
    data = generate_synthetic_dataset(
        SynthConfig(
            recordings_per_modality=2,
            samples_per_recording=46,
            shape_profile=ShapeProfile.reduced(),
            thermal_dropout=0.0,
            optronic_dropout=0.0,
            radar_dropout=0.0,
            seed=5,
        )
    )
    ds = fuse_dataset(
        data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR],
        ModalitySet.THERMAL_OPTRONIC_RADAR,
    )
    assert len(ds.samples) == 92
    return ds


@pytest.fixture(scope="module")
def three_epochs(reduced_set):
    """(the caller's model, train()'s model and report, its traced peak, what it still holds)."""
    # first-call allocations
    train(build_model(SMALL, Rng(4)), reduced_set, TrainConfig(max_epochs=1))
    model = build_model(SPEC, Rng(4))
    # three epochs, each better than the last: the best-epoch copy is made three times
    (trained, report), peak, held = traced(
        lambda: train(model, reduced_set, TrainConfig(max_epochs=3, seed=3))
    )
    assert report.best_epoch == 3
    return model, trained, peak, held


def test_training_holds_four_vectors_of_theta_size(three_epochs):
    # 4.37 theta: four vectors and one 12-row workspace set (4.71 with a copy
    # of the data and separate buffers per row count)
    model, _, peak, _ = three_epochs
    assert peak < 4.5 * model.theta.nbytes


def test_the_trained_model_holds_theta_alone(three_epochs):
    _, trained, _, held = three_epochs
    assert trained._eval_steps == {}
    assert held <= trained.theta.nbytes + MIB


def _tiled(ds, times):
    samples = np.concatenate([ds.samples] * times).view(np.recarray)
    return FusedDataset(ds.modality_set, samples, ds.provenance)


def test_training_memory_does_not_grow_with_the_data(reduced_set):
    # 368 and 736 records of 9,673 bytes: a copy of the added ones would be 3.4 MiB
    model, cfg = build_model(SMALL, Rng(6)), TrainConfig(max_epochs=1, seed=7)
    train(model, _tiled(reduced_set, 1), cfg)  # first-call allocations
    smaller, larger = _tiled(reduced_set, 4), _tiled(reduced_set, 8)
    _, peak_smaller = traced_peak(lambda: train(model, smaller, cfg))
    _, peak_larger = traced_peak(lambda: train(model, larger, cfg))
    added = len(larger.samples) - len(smaller.samples)
    # per added record: a label and the split, shuffle and np.unique index vectors
    vectors = added * (model.theta.itemsize + 3 * 8)
    assert peak_larger - peak_smaller < MIB + vectors


def test_a_training_step_gathers_the_batch_alone(reduced_set):
    samples = reduced_set.samples
    model = build_model(SMALL, Rng(8))
    ws = TrainStep(model, 12, np.empty_like(model.theta))
    idx, rng = Rng(9).permutation(len(samples))[:12], Rng(10)

    def step():
        ws.gather(samples, idx, rng)
        ws.loss()
        ws.backward()

    step()  # first-call allocations
    # a take on a record field would copy all 92 records' maps first (0.83 MiB)
    _, peak = traced_peak(step)
    assert peak < 2 * len(idx) * samples.itemsize


def test_evaluation_holds_one_workspace_set():
    # a 64-row set of 25 MiB: a separate 8-row one would add 3.1 MiB
    wide = ShapeProfile("wide", (16, 16, 32), (16, 16, 16), (64,))
    spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, wide, conv_filters=4, dense_units=16
    )
    rng = Rng(11)
    x = rng.normal((64, *spec.stacked_shape)).astype(np.float32)
    r = rng.normal((64, spec.radar_len)).astype(np.float32)
    model, other = build_model(spec, Rng(12)), build_model(spec, Rng(12))
    _, alone = traced_peak(lambda: evaluate_probabilities(other, x, r))

    def serve():
        for n in (64, 8, 1):
            evaluate_probabilities(model, x[:n], r[:n])

    _, peak = traced_peak(serve)
    assert peak < alone + MIB
