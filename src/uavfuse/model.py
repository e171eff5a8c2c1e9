"""The one-, two- and three-modality fusion networks.

Three-modality graph: stacked thermal+optronic input -> 3x3 valid conv ->
ReLU -> flatten -> dropout -> concatenate radar vector -> dense -> ReLU ->
dropout -> dense(1) -> sigmoid. The two-modality variant removes the radar
concatenation; the single-modality variant feeds the thermal map alone.
A probability strictly above 0.5 is classified as UAV, 0.5 or below as
false alarm.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Label, ModalitySet, ShapeProfile
from .errors import CompatibilityError, ConfigError, CorruptionError, FormatError, ShapeError
from .msfr import BinaryReader, shape_block
from .ops import (
    TRAIN_DTYPE,
    ConvParams,
    DenseParams,
    conv2d_forward,
    conv2d_param_grads,
    conv_windows,
    dense_backward,
    dense_forward,
    dropout_apply,
    dropout_backward,
    dropout_keep,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)
from .rng import Rng

WEIGHTS_MAGIC = b"MSFW"
WEIGHTS_VERSION = 1
# spec fields after the modality count and stacked shape: radar_len,
# conv_filters, kernel height, kernel width, dense_units, dropout_rate
SPEC_TAIL = "<IIIIId"

PARAM_ORDER = (
    "conv_kernels",
    "conv_bias",
    "dense1_weights",
    "dense1_bias",
    "output_weights",
    "output_bias",
)


@dataclass
class ModelSpec:
    modality_set: ModalitySet
    stacked_shape: tuple[int, ...]
    radar_len: int
    conv_filters: int = 512
    kernel: tuple[int, int] = (3, 3)
    dense_units: int = 512
    dropout_rate: float = 0.5

    @classmethod
    def for_profile(cls, modality_set: ModalitySet, profile: ShapeProfile, **sizes) -> "ModelSpec":
        """A spec for the profile's input shapes; ``sizes`` override the layer-size defaults."""
        return cls(modality_set, *profile.network_input(modality_set), **sizes)

    def validate(self) -> None:
        if self.conv_filters < 1 or self.dense_units < 1:
            raise ConfigError("conv_filters and dense_units must be positive")
        if min(self.kernel) < 1:
            raise ConfigError(f"kernel dims must be positive, got {self.kernel}")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if len(self.stacked_shape) != 3:
            raise ConfigError(f"stacked input must be 3-d, got {self.stacked_shape}")
        kh, kw = self.kernel
        if self.stacked_shape[0] < kh or self.stacked_shape[1] < kw:
            raise ConfigError(
                f"input {self.stacked_shape} smaller than kernel {self.kernel}"
            )
        if self.modality_set.has_radar and self.radar_len < 1:
            raise ConfigError("three-modality spec needs a positive radar length")
        if not self.modality_set.has_radar and self.radar_len != 0:
            raise ConfigError("radar length must be 0 without the radar modality")

    @property
    def conv_out_shape(self) -> tuple[int, int, int]:
        h, w, _ = self.stacked_shape
        kh, kw = self.kernel
        return (h - kh + 1, w - kw + 1, self.conv_filters)

    @property
    def flatten_width(self) -> int:
        return int(np.prod(self.conv_out_shape))

    @property
    def dense1_in(self) -> int:
        return self.flatten_width + self.radar_len

    @property
    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter tensor's shape, in PARAM_ORDER."""
        kh, kw = self.kernel
        shapes = (
            (kh, kw, self.stacked_shape[2], self.conv_filters),
            (self.conv_filters,),
            (self.dense1_in, self.dense_units),
            (self.dense_units,),
            (self.dense_units, 1),
            (1,),
        )
        return dict(zip(PARAM_ORDER, shapes))

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes.values())


class Model:
    """The network's parameters: one flat vector ``theta``, laid out by the spec.

    ``conv``, ``dense1`` and ``output`` hold views of ``theta`` in
    PARAM_ORDER, so an in-place update of the vector updates every layer.
    """

    def __init__(self, spec: ModelSpec, theta: np.ndarray):
        if theta.shape != (spec.param_count,):
            raise ShapeError(
                f"parameter vector of shape {theta.shape} != ({spec.param_count},) for the spec"
            )
        views, lo = {}, 0
        for name, shape in spec.param_shapes.items():
            size = math.prod(shape)
            views[name] = theta[lo : lo + size].reshape(shape)
            lo += size
        self.spec = spec
        self.theta = theta
        self.conv = ConvParams(views["conv_kernels"], views["conv_bias"])
        self.dense1 = DenseParams(views["dense1_weights"], views["dense1_bias"])
        self.output = DenseParams(views["output_weights"], views["output_bias"])

    def params(self) -> dict[str, np.ndarray]:
        """Every parameter tensor by name, in PARAM_ORDER; each views ``theta``."""
        tensors = (self.conv.kernels, self.conv.bias, self.dense1.weights, self.dense1.bias,
                   self.output.weights, self.output.bias)
        return dict(zip(PARAM_ORDER, tensors))

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        """Copy each named tensor into its view of ``theta``."""
        for name, view in self.params().items():
            view[...] = values[name]

    def clone(self) -> "Model":
        return Model(replace(self.spec), self.theta.copy())


def _uniform_into(rng: Rng, out: np.ndarray, fan: int) -> None:
    """Fill ``out`` from U(-limit, limit), limit = sqrt(6 / fan)."""
    limit = np.sqrt(6.0 / fan)
    out[...] = (rng.uniform(out.shape) * 2 - 1) * limit


def build_model(spec: ModelSpec, rng: Rng, dtype=TRAIN_DTYPE) -> Model:
    """Initialize parameters: He-uniform into ReLU layers, Glorot at the output.

    Draw order is fixed (conv kernels, dense weights, output weights; biases
    start at zero), so a seed determines the parameters bit for bit. Pass
    float64 for gradient-verification builds.
    """
    spec.validate()
    model = Model(spec, np.zeros(spec.param_count, dtype=dtype))
    kh, kw = spec.kernel
    _uniform_into(rng, model.conv.kernels, kh * kw * spec.stacked_shape[2])
    _uniform_into(rng, model.dense1.weights, spec.dense1_in)
    _uniform_into(rng, model.output.weights, spec.dense_units + 1)  # Glorot: fan in + out
    return model


def count_parameters(model: Model) -> int:
    """Total element count across all weight and bias tensors."""
    return model.theta.size


def batch_arrays(
    samples: np.ndarray, dtype=np.float32
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Aligned, C-contiguous (stacked, radar-or-None, labels) copies of fused records' columns.

    The record fields are unaligned views of the packed records, so each is
    copied explicitly rather than cast in place.
    """
    if len(samples) == 0:
        raise CompatibilityError("empty batch")
    stacked = np.array(samples["stacked"], dtype=dtype, order="C")
    has_radar = "radar" in samples.dtype.names
    radar = np.array(samples["radar"], dtype=dtype, order="C") if has_radar else None
    labels = np.array(samples["label"], dtype=dtype)
    return stacked, radar, labels


def _check_batch(model: Model, x: np.ndarray, r: np.ndarray | None) -> None:
    spec = model.spec
    if x.shape[1:] != tuple(spec.stacked_shape):
        raise CompatibilityError(
            f"batch stacked shape {x.shape[1:]} != model input {tuple(spec.stacked_shape)}"
        )
    if spec.radar_len:
        if r is None or r.shape[1:] != (spec.radar_len,):
            got = None if r is None else r.shape[1:]
            raise CompatibilityError(
                f"batch radar shape {got} != model radar length {spec.radar_len}"
            )
    elif r is not None:
        raise CompatibilityError("model takes no radar input but the batch has one")


def _forward(model: Model, x, r, mode: str, rng: Rng | None):
    _check_batch(model, x, r)
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


def backward_pass(model: Model, cache, grad_p: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the scalar loss wrt every parameter, given dL/dp."""
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
    g_c_k, g_c_b = conv2d_param_grads(x, model.conv, dz1)
    return dict(zip(PARAM_ORDER, (g_c_k, g_c_b, g_d1_w, g_d1_b, g_out_w, g_out_b)))


class TrainStep:
    """Preallocated buffers for train-mode steps of one model at one batch size.

    ``forward`` gathers a batch and runs the network with dropout;
    ``backward`` then writes the loss gradient into ``grad``, a flat vector
    laid out like ``theta`` (``grads`` holds its per-tensor views). Each
    product is the one ``_forward`` and ``backward_pass`` make, on the same
    operand shapes, written into a buffer instead of a new array, so a step
    gives their bits for the same generator state. The patch matrix is built
    once per step and read by the conv forward and its kernel gradient.
    Shapes are checked by the caller, once per run.
    """

    def __init__(self, model: Model, batch_size: int, grad: np.ndarray):
        spec, dt = model.spec, model.theta.dtype
        b, flat, c_out = batch_size, spec.flatten_width, spec.conv_filters
        self.model, self.grads = model, Model(spec, grad)
        self.rate = spec.dropout_rate
        self.scale = dt.type(1.0 / (1.0 - self.rate))
        self.x = np.empty((b, *spec.stacked_shape), dt)
        self._windows = conv_windows(self.x, *spec.kernel)
        self.patches = np.empty(self._windows.shape, dt)
        self.z1 = np.empty((b, *spec.conv_out_shape), dt)  # ReLU'd in place
        self.h = np.empty((b, spec.dense1_in), dt)  # dropped-out conv features, then radar
        self.z2 = np.empty((b, spec.dense_units), dt)  # ReLU'd in place
        self.d2 = np.empty_like(self.z2) if self.rate else self.z2  # rate 0: the identity
        self.z3 = np.empty((b, 1), dt)
        # dropout scales (1/(1-rate) where kept, 0 where dropped); keep flags, then ReLU masks
        self.s1, self.s2 = np.empty((b, flat), dt), np.empty_like(self.z2)
        self.flags1, self.flags2 = np.empty((b, flat), bool), np.empty(self.z2.shape, bool)
        self.dh = np.empty_like(self.h)
        self.dz2 = np.empty_like(self.z2)
        self.dz1 = np.empty_like(self.z1)
        self.p = None
        # 2-D views for the products and the per-layer element-wise steps
        self._k = model.conv.kernels.reshape(-1, c_out)
        self._gk = self.grads.conv.kernels.reshape(-1, c_out)
        self._p = self.patches.reshape(-1, len(self._k))
        self._z1, self._a1 = self.z1.reshape(-1, c_out), self.z1.reshape(b, flat)
        self._dz1, self._dflat = self.dz1.reshape(-1, c_out), self.dz1.reshape(b, flat)
        self._h1, self._hr = self.h[:, :flat], self.h[:, flat:]
        self._dh1 = self.dh[:, :flat]  # the radar columns get no gradient path

    def forward(self, x: np.ndarray, r: np.ndarray | None, idx: np.ndarray, rng: Rng) -> np.ndarray:
        """Train-mode UAV probabilities of the batch ``x[idx]``, ``r[idx]``."""
        m = self.model
        # idx holds row numbers of x (train() takes them from a permutation),
        # so "clip" never clamps; "raise" would gather through a temporary
        np.take(x, idx, axis=0, out=self.x, mode="clip")
        np.copyto(self.patches, self._windows)
        np.dot(self._p, self._k, out=self._z1)
        np.add(self._z1, m.conv.bias, out=self._z1)
        np.maximum(self._z1, 0, out=self._z1)
        self._dropout(rng, self._a1, self.flags1, self.s1, self._h1)
        if r is not None:
            np.take(r, idx, axis=0, out=self._hr, mode="clip")
        np.matmul(self.h, m.dense1.weights, out=self.z2)
        np.add(self.z2, m.dense1.bias, out=self.z2)
        np.maximum(self.z2, 0, out=self.z2)
        self._dropout(rng, self.z2, self.flags2, self.s2, self.d2)
        np.matmul(self.d2, m.output.weights, out=self.z3)
        np.add(self.z3, m.output.bias, out=self.z3)
        self.p = sigmoid(self.z3)[:, 0]
        return self.p

    def backward(self, grad_p: np.ndarray) -> None:
        """Write dL/dtheta into ``grad``, given dL/dp for the last forward batch."""
        m, g = self.model, self.grads
        dz3 = sigmoid_backward(grad_p.reshape(-1, 1), self.p.reshape(-1, 1))
        np.matmul(dz3, m.output.weights.T, out=self.dz2)
        np.matmul(self.d2.T, dz3, out=g.output.weights)
        np.sum(dz3, axis=0, out=g.output.bias)
        self._dropout_relu_backward(self.dz2, self.s2, self.z2, self.flags2, self.dz2)
        np.matmul(self.dz2, m.dense1.weights.T, out=self.dh)
        np.matmul(self.h.T, self.dz2, out=g.dense1.weights)
        np.sum(self.dz2, axis=0, out=g.dense1.bias)
        self._dropout_relu_backward(self._dh1, self.s1, self._a1, self.flags1, self._dflat)
        np.sum(self.dz1, axis=(0, 1, 2), out=g.conv.bias)
        np.dot(self._p.T, self._dz1, out=self._gk)

    def _dropout(self, rng, a, flags, scale, out) -> None:
        if not self.rate:
            if out is not a:
                np.copyto(out, a)
            return
        dropout_keep(rng, self.rate, flags)
        np.multiply(flags, self.scale, out=scale)
        np.multiply(a, scale, out=out)

    def _dropout_relu_backward(self, upstream, scale, a, flags, out) -> None:
        """out = upstream * scale * (a > 0), in that order; a > 0 exactly where z > 0."""
        if self.rate:
            np.multiply(upstream, scale, out=out)
        elif out is not upstream:
            np.copyto(out, upstream)
        np.greater(a, 0, out=flags)
        np.multiply(out, flags, out=out)


def classify_probability(p: float) -> Label:
    """UAV iff p > 0.5 strictly; exactly 0.5 is a false alarm."""
    return Label.UAV if p > 0.5 else Label.FALSE_ALARM


def _spec_bytes(spec: ModelSpec) -> bytes:
    tail = (spec.radar_len, spec.conv_filters, *spec.kernel, spec.dense_units, spec.dropout_rate)
    return (
        struct.pack("<B", spec.modality_set.count)
        + shape_block(spec.stacked_shape)
        + struct.pack(SPEC_TAIL, *tail)
    )


def serialize_model(model: Model) -> bytes:
    """MSFW bytes: magic, version, spec fields, then tensors in fixed order."""
    parts = [WEIGHTS_MAGIC, struct.pack("<H", WEIGHTS_VERSION), _spec_bytes(model.spec)]
    for arr in model.params().values():
        parts.append(shape_block(arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def save_weights(model: Model, destination) -> int:
    blob = serialize_model(model)
    Path(destination).write_bytes(blob)
    return len(blob)


def load_weights(source) -> Model:
    reader = BinaryReader(Path(source).read_bytes())
    if reader.take(4) != WEIGHTS_MAGIC:
        raise FormatError(f"not a weights file: bad magic in {source}")
    (version,) = reader.unpack("<H")
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version}")
    modality_set = reader.modality_set()
    stacked_shape = reader.shape()
    radar_len, conv_filters, kh, kw, dense_units, dropout_rate = reader.unpack(SPEC_TAIL)
    spec = ModelSpec(
        modality_set, stacked_shape, radar_len, conv_filters, (kh, kw),
        dense_units, dropout_rate,
    )
    try:
        spec.validate()
    except ConfigError as exc:
        raise CorruptionError(f"{source}: stored spec is out of range: {exc}") from None
    # Read every tensor before the vector is allocated: a hostile spec with
    # huge dimensions then fails on the short payload, not on the allocation.
    tensors = []
    for name, want in spec.param_shapes.items():
        shape = reader.shape()
        if shape != want:
            raise CorruptionError(f"{name}: stored shape {shape} != spec shape {want}")
        tensors.append(reader.floats(shape, f"{source}: tensor {name}").reshape(-1))
    reader.done()
    return Model(spec, np.concatenate(tensors))


def weights_digest(model: Model) -> str:
    """SHA-256 of the serialized weights; stable across identical models."""
    return hashlib.sha256(serialize_model(model)).hexdigest()
