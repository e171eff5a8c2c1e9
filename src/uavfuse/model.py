"""The one-, two- and three-modality fusion networks.

Three-modality graph: stacked thermal+optronic input -> 3x3 valid conv ->
ReLU -> flatten -> dropout -> concatenate radar vector -> dense -> ReLU ->
dropout -> dense(1) -> sigmoid. The two-modality variant removes the radar
concatenation; the single-modality variant feeds the thermal map alone.
A probability strictly above 0.5 is classified as UAV, 0.5 or below as
false alarm.

``TrainStep`` is the one implementation, and packed fused records are its
one input layout. Training gathers its batches into them in train mode,
and so do the gradient checks, which give ``backward_pass`` an outside
dL/dp; evaluation copies its maps in through ``_forward`` in eval mode,
one call per model at a time.
"""

from __future__ import annotations

import _thread
import hashlib
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Label, ModalitySet, ShapeProfile, fused_dtype
from .errors import CompatibilityError, ConfigError, CorruptionError, ShapeError
from .msfr import BinaryReader, shape_block
from .ops import BCE_EPS, TRAIN_DTYPE, ConvParams, DenseParams, conv_windows, dropout_keep
# perfbench/tests/test_helpers.py::test_uninstall_restores_the_real_package reads this name
from .ops import conv2d_forward  # noqa: F401
from .rng import Rng
from .worker import product

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

# values per block of the initial draws and of the float32 conversion in serialization
_BLOCK = 1 << 15


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
    PARAM_ORDER, so an in-place update of the vector updates every layer
    and the eval workspaces cached in ``_eval_steps``, which calls use in
    turn under ``_lock`` (a clone has its own).
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
        self._eval_steps: dict[int, TrainStep] = {}
        self._lock = _thread.allocate_lock()

    def params(self) -> dict[str, np.ndarray]:
        """Every parameter tensor by name, in PARAM_ORDER; each views ``theta``."""
        tensors = (self.conv.kernels, self.conv.bias, self.dense1.weights, self.dense1.bias,
                   self.output.weights, self.output.bias)
        return dict(zip(PARAM_ORDER, tensors))

    def clone(self) -> "Model":
        return Model(replace(self.spec), self.theta.copy())


def _uniform_into(rng: Rng, out: np.ndarray, fan: int) -> None:
    """Fill ``out`` from U(-limit, limit), limit = sqrt(6 / fan).

    The draws run in blocks of ``_BLOCK`` values, each written straight into
    ``out``: the stream and every value's float ops are those of one
    whole-tensor draw, and the temporaries stay in the CPU cache.
    """
    limit = np.sqrt(6.0 / fan)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo : lo + _BLOCK]
        block[...] = (rng.uniform(block.size) * 2 - 1) * limit


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


def record_maps(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The (stacked, radar-or-None) fields of fused records: unaligned views, not copies."""
    radar = samples["radar"] if "radar" in samples.dtype.names else None
    return samples["stacked"], radar


def batch_arrays(
    samples: np.ndarray, dtype=np.float32
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Aligned, C-contiguous (stacked, radar-or-None, labels) copies of fused records' columns.

    The record fields are unaligned views of the packed records, so each is
    copied explicitly rather than cast in place.
    """
    if len(samples) == 0:
        raise CompatibilityError("empty batch")
    x, r = record_maps(samples)
    stacked = np.array(x, dtype=dtype, order="C")
    radar = None if r is None else np.array(r, dtype=dtype, order="C")
    labels = np.array(samples["label"], dtype=dtype)
    return stacked, radar, labels


def record_rows(samples: np.ndarray) -> np.ndarray:
    """Packed records as a (records, record bytes) uint8 array; a view when they are contiguous."""
    records = np.ascontiguousarray(samples)
    return records.view(np.uint8).reshape(len(records), records.itemsize)


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
        if len(r) != len(x):
            raise CompatibilityError(f"batch has {len(r)} radar rows for {len(x)} stacked rows")
    elif r is not None:
        raise CompatibilityError("model takes no radar input but the batch has one")


def _forward(model: Model, x, r) -> np.ndarray:
    """Eval-mode UAV probabilities of a checked batch, in the model's workspace for its row count.

    The model caches one workspace per row count, since gemm bits depend on
    it. Each views the buffers of the largest, so the cache holds one set of
    buffers; a larger row count replaces them all. The result is that
    workspace's ``p`` buffer, which the next call on any row count may
    overwrite. The caller holds the model's ``_lock``.
    """
    steps, n = model._eval_steps, len(x)
    ws = steps.get(n)
    if ws is None:
        largest = max(steps, default=0)
        base = steps[largest] if n < largest else None
        if base is None:
            steps.clear()
        ws = steps[n] = TrainStep(model, n, base=base)
    return ws.forward(x, r)


def backward_pass(ws: TrainStep, grad_p: np.ndarray) -> dict[str, np.ndarray]:
    """Every parameter's loss gradient, given dL/dp of a train-mode workspace's last batch."""
    ws._head_backward(grad_p.reshape(-1))
    ws.backward()
    return ws.grads.params()


class TrainStep:
    """Preallocated buffers for the network on a fixed number of rows.

    The input buffer ``records`` holds whole records of the spec's
    ``data.fused_dtype``, and the conv windows read their float32 stacked
    field ``x``, so a float64 model (the gradient checks') reads its maps
    at float32 precision.

    Train mode (with ``grad``): ``gather`` runs the network with dropout,
    drawing the keep flags of both dropout layers in one call; ``loss``
    takes the batch's labels, returns the loss and writes its gradient
    through the sigmoid into ``dz3``; ``backward`` then writes the loss
    gradient into ``grad``, a flat vector laid out like ``theta`` (``grads``
    holds its per-tensor views), reusing the patch matrix of the conv
    forward. Eval mode (no ``grad``) holds the forward buffers alone and
    drops nothing. Each product is the one the allocating ``ops`` layer
    functions make, on the same operand shapes, and each element-wise step
    runs their float ops in their order, so the bits are theirs.

    Given ``base``, a workspace of at least as many rows (in train mode if
    this one is, with the same ``grad``), every buffer views the leading
    rows of the base's, so workspaces for several row counts hold one set
    of buffers. The bits are those of separate buffers, but the workspaces
    take turns: a forward overwrites what the others hold, so a train
    step's forward, loss and backward run with no other workspace between
    them.

    The five large products (the conv forward and kernel gradient, and the
    dense1 forward and its two gradient products) are bound once, here, by
    ``worker.product``. With BLAS on one thread and two CPUs, each one of
    at least ``worker.SPLIT_MACS`` multiply-adds (at the paper profile the
    conv products from one row, all five from three) runs as two column
    halves, one on a thread that lives for the call, with the bits of the
    whole product; every other product is the plain numpy call.

    A workspace holds the model's layers, not the model, so a model can
    cache it without a reference cycle. The caller checks shapes.
    """

    def __init__(self, model: Model, batch_size: int, grad: np.ndarray | None = None,
                 base: "TrainStep | None" = None):
        spec, dt = model.spec, model.theta.dtype
        b, flat, c_out = batch_size, spec.flatten_width, spec.conv_filters
        self.conv, self.dense1, self.output = model.conv, model.dense1, model.output
        self.rate = 0.0 if grad is None else spec.dropout_rate

        def const(value):
            """A 0-d array: a ufunc takes it faster than the scalar it holds, to the same bits."""
            return np.array(value, dt)

        def buf(name, shape, dtype=dt):
            """A new buffer, or the leading rows (1-D: values) of the base's buffer ``name``."""
            return np.empty(shape, dtype) if base is None else getattr(base, name)[: shape[0]]

        def vectors(name, count, dtype=dt):
            """``count`` new 1-D buffers of b values, or the leading values of the base's."""
            if base is None:
                return tuple(np.empty((count, b), dtype))
            return tuple(row[:b] for row in getattr(base, name))

        self.scale = const(1.0 / (1.0 - self.rate))
        self._zero, self._one = const(0), const(1)
        self._tiny = const(np.finfo(dt).tiny)
        self._below_one = const(np.nextafter(dt.type(1), dt.type(0)))
        records = fused_dtype(spec.stacked_shape, spec.radar_len)
        self.records = buf("records", (b, records.itemsize), np.uint8)
        self.x, self._radar = record_maps(self.records.view(records)[:, 0])
        self._windows = conv_windows(self.x, *spec.kernel)
        self.patches = buf("patches", self._windows.shape)
        self.z1 = buf("z1", (b, *spec.conv_out_shape))  # ReLU'd in place
        self.h = buf("h", (b, spec.dense1_in))  # dropped-out conv features, then radar
        self.z2 = buf("z2", (b, spec.dense_units))  # ReLU'd in place
        self.d2 = buf("d2", self.z2.shape) if self.rate else self.z2  # rate 0: the identity
        self.z3 = buf("z3", (b, 1))
        self.p = buf("p", (b,))
        # 2-D views for the products and the per-layer element-wise steps
        self._k = self.conv.kernels.reshape(-1, c_out)
        self._p = self.patches.reshape(-1, len(self._k))
        self._z1, self._a1 = self.z1.reshape(-1, c_out), self.z1.reshape(b, flat)
        self._h1, self._hr = self.h[:, :flat], self.h[:, flat:]
        # the large products, each bound once (worker.product): whole, or in two halves
        self._conv_forward = product(np.dot, self._p, self._k, self._z1)
        self._dense1_forward = product(np.matmul, self.h, self.dense1.weights, self.z2)
        # the output head runs on 1-D views of z3 and dz3, four temporary rows
        # and (train mode) two mask rows, unpacked from tuples without making views each step
        self._z3 = self.z3.reshape(b)
        self._tmp = vectors("_tmp", 4)
        if grad is None:
            return
        self._masks = vectors("_masks", 2, bool)
        self.grads = Model(spec, grad)
        # dropout scales (1/(1-rate) where kept, 0 where dropped) and keep flags of
        # both layers, each in one buffer so that a step draws its flags at once;
        # backward overwrites the flags with the ReLU masks
        n1 = b * flat
        self._scales = buf("_scales", (n1 + self.z2.size,))
        self._keep = buf("_keep", self._scales.shape, bool)
        self.s1 = self._scales[:n1].reshape(b, flat)
        self.s2 = self._scales[n1:].reshape(self.z2.shape)
        self.flags1 = self._keep[:n1].reshape(b, flat)
        self.flags2 = self._keep[n1:].reshape(self.z2.shape)
        self.y = buf("y", (b,))  # the batch's labels
        self.dz3 = buf("dz3", self.z3.shape)
        self.dh = buf("dh", self.h.shape)
        self.dz2 = buf("dz2", self.z2.shape)
        self.dz1 = buf("dz1", self.z1.shape)
        self._dz3 = self.dz3.reshape(b)
        self._gk = self.grads.conv.kernels.reshape(-1, c_out)
        self._dz1, self._dflat = self.dz1.reshape(-1, c_out), self.dz1.reshape(b, flat)
        self._dh1 = self.dh[:, :flat]  # the radar columns get no gradient path
        self._dense1_dh = product(np.matmul, self.dz2, self.dense1.weights.T, self.dh)
        self._dense1_dw = product(np.matmul, self.h.T, self.dz2, self.grads.dense1.weights)
        self._conv_dk = product(np.dot, self._p.T, self._dz1, self._gk)
        self._eps, self._half, self._n = const(BCE_EPS), const(0.5), const(b)
        self._one_minus_eps = const(1 - dt.type(BCE_EPS))

    def forward(self, x: np.ndarray, r: np.ndarray | None) -> np.ndarray:
        """Eval-mode UAV probabilities of a checked batch, copied in: ``x`` into ``self.x``.

        ``r`` goes straight into the radar columns of ``h``. The result is the
        workspace's ``p`` buffer, which the next call overwrites.
        """
        np.copyto(self.x, x)
        if r is not None:
            np.copyto(self._hr, r)
        return self._run(None)

    def gather(self, rows: np.ndarray, idx: np.ndarray, rng=None) -> np.ndarray:
        """UAV probabilities of the records ``idx`` of ``rows`` (``record_rows``).

        ``take`` on a record field would copy the whole input first, since the
        field is an unaligned view; so one ``take`` copies the batch's whole
        records into the record buffer, and the conv windows read its field.
        """
        # idx holds row numbers of rows, so "clip" never clamps; "raise" takes via a temporary
        rows.take(idx, 0, self.records, "clip")
        if self._radar is not None:
            np.copyto(self._hr, self._radar)
        return self._run(rng)

    def _run(self, rng) -> np.ndarray:
        np.copyto(self.patches, self._windows)
        self._conv_forward()
        np.add(self._z1, self.conv.bias, out=self._z1)
        np.maximum(self._z1, self._zero, out=self._z1)
        if self.rate:
            # the words of flags1 then flags2, in the order of two separate draws
            dropout_keep(rng, self.rate, self._keep)
            np.multiply(self._keep, self.scale, out=self._scales)
            np.multiply(self._a1, self.s1, out=self._h1)
        else:
            np.copyto(self._h1, self._a1)
        self._dense1_forward()
        np.add(self.z2, self.dense1.bias, out=self.z2)
        np.maximum(self.z2, self._zero, out=self.z2)
        if self.rate:  # at rate 0, d2 is z2
            np.multiply(self.z2, self.s2, out=self.d2)
        np.matmul(self.d2, self.output.weights, out=self.z3)
        np.add(self.z3, self.output.bias, out=self.z3)
        self._sigmoid()
        return self.p

    def _sigmoid(self) -> None:
        """p = ops.sigmoid(z3): the same float ops per element, without its scatter.

        With e = exp(-|z|) (exp(z) where z is NaN) and d = 1 + e, p is 1/d
        where z >= 0 and e/d elsewhere, then clamped into (0, 1). The
        numerator max(e, z >= 0) is 1 where z >= 0, since there e <= 1, and
        e elsewhere, since e >= 0 or is NaN; minimum and maximum return a
        NaN operand itself.
        """
        z, p = self._z3, self.p
        e, d, num, _ = self._tmp
        np.negative(z, out=e)
        np.minimum(z, e, out=e)  # -|z|
        np.exp(e, out=e)
        np.add(e, self._one, out=d)
        np.greater_equal(z, self._zero, out=num)
        np.maximum(e, num, out=num)
        np.divide(num, d, out=p)
        np.maximum(p, self._tiny, out=p)  # np.clip's order: max with the low bound first
        np.minimum(p, self._below_one, out=p)

    def loss(self, y: np.ndarray, idx: np.ndarray) -> tuple[float, int]:
        """(Loss, correct count) of the last forward batch against the labels ``y[idx]``.

        The loss is ``ops.bce_loss``'s, by its expression in its order; its
        gradient, through the sigmoid, goes into ``dz3`` for ``backward``. A
        prediction is correct when p > 0.5 and y > 0.5 agree.
        """
        p, yb, (m1, m2) = self.p, self.y, self._masks
        a, c, phat, v = self._tmp
        y.take(idx, 0, yb, "clip")  # as in gather
        np.maximum(p, self._eps, out=phat)  # np.clip(p, eps, 1 - eps)
        np.minimum(phat, self._one_minus_eps, out=phat)
        # mean(-(y * log(phat) + (1 - y) * log1p(-phat)))
        np.log(phat, out=a)
        np.multiply(yb, a, out=a)
        np.subtract(self._one, yb, out=c)
        np.negative(phat, out=v)
        np.log1p(v, out=v)
        np.multiply(c, v, out=v)
        np.add(a, v, out=a)
        np.negative(a, out=a)
        # np.mean's bits: its float32 or float64 sum divided by the count (for
        # float32 a float64 quotient rounded to float32, which is the float32
        # quotient since 53 >= 2 * 24 + 2)
        loss = float(np.add.reduce(a) / self._n)
        # dL/dp = (phat - y) / (phat * (1 - phat)) / n where eps <= p <= 1 - eps, else 0;
        # p is outside exactly where the clamp changed it or p is NaN: phat != p
        np.subtract(phat, yb, out=a)
        np.subtract(self._one, phat, out=c)
        np.multiply(phat, c, out=c)
        np.divide(a, c, out=a)
        np.not_equal(phat, p, out=m1)
        np.copyto(a, self._zero, where=m1)
        np.divide(a, self._n, out=a)
        self._head_backward(a)
        np.greater(p, self._half, out=m1)
        np.greater(yb, self._half, out=m2)
        np.equal(m1, m2, out=m1)
        return loss, int(np.count_nonzero(m1))

    def _head_backward(self, grad_p: np.ndarray) -> None:
        """dz3 = ops.sigmoid_backward(dL/dp, p): grad_p * p * (1 - p), in that order."""
        t = self._tmp[3]
        np.multiply(grad_p, self.p, out=self._dz3)
        np.subtract(self._one, self.p, out=t)
        np.multiply(self._dz3, t, out=self._dz3)

    def backward(self) -> None:
        """Write dL/dtheta into ``grad``, given ``dz3`` for the last forward batch.

        The bias gradients are np.sum's reductions, called as np.add.reduce.
        """
        g, dz3 = self.grads, self.dz3
        np.matmul(dz3, self.output.weights.T, out=self.dz2)
        np.matmul(self.d2.T, dz3, out=g.output.weights)
        np.add.reduce(dz3, axis=0, out=g.output.bias)
        self._dropout_relu_backward(self.dz2, self.s2, self.z2, self.flags2, self.dz2)
        self._dense1_dh()
        self._dense1_dw()
        np.add.reduce(self.dz2, axis=0, out=g.dense1.bias)
        self._dropout_relu_backward(self._dh1, self.s1, self._a1, self.flags1, self._dflat)
        np.add.reduce(self.dz1, axis=(0, 1, 2), out=g.conv.bias)
        self._conv_dk()

    def _dropout_relu_backward(self, upstream, scale, a, flags, out) -> None:
        """out = upstream * scale * (a > 0), in that order; a > 0 exactly where z > 0."""
        if self.rate:
            np.multiply(upstream, scale, out=out)
        elif out is not upstream:
            np.copyto(out, upstream)
        np.greater(a, self._zero, out=flags)
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


def _weight_chunks(model: Model):
    """The MSFW bytes of ``model`` in pieces: the header, then each tensor's shape block and values.

    A float32 tensor's values are views of ``theta``; any other dtype is
    converted to little-endian f32 one block at a time, so no piece is a
    copy of the whole model.
    """
    yield WEIGHTS_MAGIC + struct.pack("<H", WEIGHTS_VERSION) + _spec_bytes(model.spec)
    for arr in model.params().values():
        yield shape_block(arr.shape)
        flat = arr.reshape(-1)
        for lo in range(0, flat.size, _BLOCK):
            yield np.ascontiguousarray(flat[lo : lo + _BLOCK], dtype="<f4")


def save_weights(model: Model, destination) -> int:
    """Write the MSFW bytes of ``model`` piece by piece; returns the byte count written."""
    with open(destination, "wb") as f:
        f.writelines(_weight_chunks(model))
        return f.tell()


def load_weights(source) -> Model:
    reader = BinaryReader(Path(source).read_bytes(), source)
    reader.header(WEIGHTS_MAGIC, WEIGHTS_VERSION)
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
    # Find every tensor before the vector is allocated: a hostile spec with
    # huge dimensions then fails on the short payload, not on the allocation.
    starts = []
    for name, want in spec.param_shapes.items():
        shape = reader.shape()
        if shape != want:
            raise CorruptionError(f"{source}: {name}: stored shape {shape} != spec shape {want}")
        starts.append(reader.skip(4 * math.prod(shape)))
    reader.done()
    model = Model(spec, np.empty(spec.param_count, np.float32))
    for (name, tensor), start in zip(model.params().items(), starts):
        reader.floats_into(tensor, start, f"tensor {name}")
    return model


def weights_digest(model: Model) -> str:
    """SHA-256 of the serialized weights, hashed piece by piece; stable across identical models."""
    h = hashlib.sha256()
    for chunk in _weight_chunks(model):
        h.update(chunk)
    return h.hexdigest()
