"""Memory contract of the weight operations and of training, measured with tracemalloc.

Beside the caller's model, training holds four vectors of theta's size: the
clone, its gradient, RMSprop's mean square and the best epoch's copy. Init,
digest and save add nothing of that size, and load adds one file buffer.
"""

import gc
import tracemalloc

from uavfuse.data import Modality, ModalitySet, ShapeProfile
from uavfuse.model import ModelSpec, build_model, load_weights, save_weights, weights_digest
from uavfuse.registration import fuse_dataset
from uavfuse.rng import Rng
from uavfuse.synth import SynthConfig, generate_synthetic_dataset
from uavfuse.training import TrainConfig, train

MIB = 1 << 20

# theta of 1,914,465 float32 values (7.66 MB): one more copy of it would show
SPEC = ModelSpec.for_profile(
    ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(), conv_filters=16, dense_units=4096
)


def traced_peak(fn):
    """(fn(), the peak in bytes of what it allocated and held at once)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


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


def test_training_holds_four_vectors_of_theta_size():
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
    model = build_model(SPEC, Rng(4))
    # three epochs, each better than the last: the best-epoch copy is made three times
    (_, report), peak = traced_peak(lambda: train(model, ds, TrainConfig(max_epochs=3, seed=3)))
    assert report.best_epoch == 3
    assert peak < 5 * model.theta.nbytes
