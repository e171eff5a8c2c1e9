"""Dense-array kernels for the fusion networks.

Valid 2-D convolution, fully connected layers, ReLU, sigmoid, inverted
dropout and binary cross entropy, each with an exact analytic backward
pass. These allocate their results, never mutate their inputs, and are
the test oracle of model.TrainStep, which runs the network in
preallocated buffers. dropout_keep fills the bool array it is given.
RmspropUpdate, which training builds once and calls every step, updates a
parameter and a mean-square array in place; rmsprop_step is its pure
form. Identical inputs (including generator state) give bit-identical
outputs.

Layout conventions: feature maps are (H, W, C) row-major, kernels are
(kh, kw, C_in, C_out), dense weights are (n_in, n_out). Spatial functions
also accept a leading batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, NumericFault, ShapeError
from .rng import Rng
from .worker import run_halves, split_gate

TRAIN_DTYPE = np.float32

BCE_EPS = 1e-7

# RMSprop's decay of the mean square and the term that keeps its root off zero
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-7

# Elements per RMSprop pass: 256 KB of float32 per operand, so the five
# operands of one block (1.25 MB) stay in a 2 MB L2.
_RMSPROP_BLOCK = 65536
# Blocks from which the pass splits in two halves, one on the package's
# worker thread (``worker.split_gate``): the paper model has 221, the
# reduced benchmark model 1.
_SPLIT_BLOCKS = 8


@dataclass
class ConvParams:
    """Kernels (kh, kw, c_in, c_out) and a bias per output channel."""

    kernels: np.ndarray
    bias: np.ndarray


@dataclass
class DenseParams:
    """Weights (n_in, n_out) and a bias per output unit."""

    weights: np.ndarray
    bias: np.ndarray


@dataclass
class RmspropState:
    """Running mean of squared gradients plus the shared step counter."""

    mean_square: np.ndarray
    step_count: int = 0


def _check_conv_shapes(x: np.ndarray, params: ConvParams) -> None:
    k = params.kernels
    if k.ndim != 4:
        raise ShapeError(f"kernels must be 4-d (kh, kw, c_in, c_out), got {k.shape}")
    if params.bias.shape != (k.shape[3],):
        raise ShapeError(
            f"bias length {params.bias.shape} does not match c_out={k.shape[3]}"
        )
    if x.ndim not in (3, 4):
        raise ShapeError(f"input must be (H, W, C) or (B, H, W, C), got {x.shape}")
    h, w, c = x.shape[-3], x.shape[-2], x.shape[-1]
    kh, kw, c_in = k.shape[0], k.shape[1], k.shape[2]
    if c != c_in:
        raise ShapeError(f"input channel count {c} does not match kernel c_in={c_in}")
    if h < kh:
        raise ShapeError(f"input height {h} smaller than kernel height {kh}")
    if w < kw:
        raise ShapeError(f"input width {w} smaller than kernel width {kw}")


def conv_windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Read-only view of the sliding valid windows, shape (..., H', W', kh, kw, C)."""
    *lead, h, w, c = x.shape
    # a window step moves one row or column, exactly as an output step does
    return as_strided(
        x, (*lead, h - kh + 1, w - kw + 1, kh, kw, c), x.strides[:-1] + x.strides[-3:],
        writeable=False,
    )


def _patches(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The sliding valid windows as a C-contiguous copy."""
    return np.ascontiguousarray(conv_windows(x, kh, kw))


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Valid convolution, stride 1: out[i,j,f] = b[f] + sum x[i+a,j+b,c]*k[a,b,c,f]."""
    _check_conv_shapes(x, params)
    kh, kw, c_in, c_out = params.kernels.shape
    patches = _patches(x, kh, kw)
    # the same BLAS call tensordot(patches, kernels, axes=3) makes, so the
    # same bits, without tensordot's per-call overhead
    out = np.dot(patches.reshape(-1, kh * kw * c_in), params.kernels.reshape(-1, c_out))
    return out.reshape(patches.shape[:-3] + (c_out,)) + params.bias


def conv2d_backward(
    x: np.ndarray, params: ConvParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All analytic gradients of conv2d_forward: (grad_input, grad_kernels, grad_bias)."""
    _check_conv_shapes(x, params)
    kh, kw, _, c_out = params.kernels.shape
    expect = x.shape[:-3] + (x.shape[-3] - kh + 1, x.shape[-2] - kw + 1, c_out)
    if upstream_grad.shape != expect:
        raise ShapeError(
            f"upstream_grad shape {upstream_grad.shape} does not match forward output {expect}"
        )
    grad_bias = upstream_grad.sum(axis=tuple(range(upstream_grad.ndim - 1)))
    # patches^T @ upstream over all windows; BLAS reads the transpose in place.
    patches = _patches(x, kh, kw).reshape(-1, kh * kw * x.shape[-1])
    grad_kernels = np.dot(patches.T, upstream_grad.reshape(-1, c_out))
    # grad wrt input is the full correlation of the padded upstream gradient
    # with the spatially flipped kernels, channels transposed.
    pad = [(0, 0)] * (upstream_grad.ndim - 3) + [(kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)]
    g_pad = np.pad(upstream_grad, pad)
    flipped = params.kernels[::-1, ::-1].transpose(0, 1, 3, 2)
    grad_input = np.tensordot(_patches(g_pad, kh, kw), flipped, axes=3)
    return grad_input, grad_kernels.reshape(params.kernels.shape), grad_bias


def dense_forward(x: np.ndarray, params: DenseParams) -> np.ndarray:
    """Affine map out[j] = b[j] + sum_i x[i] * w[i,j]; accepts (n,) or (B, n)."""
    n_in = params.weights.shape[0]
    if x.shape[-1] != n_in:
        raise ShapeError(f"input length {x.shape[-1]} does not match n_in={n_in}")
    if params.bias.shape != (params.weights.shape[1],):
        raise ShapeError(
            f"bias length {params.bias.shape} does not match n_out={params.weights.shape[1]}"
        )
    return x @ params.weights + params.bias


def dense_backward(
    x: np.ndarray, params: DenseParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of dense_forward: (grad_x, grad_weights, grad_bias)."""
    expect = x.shape[:-1] + (params.weights.shape[1],)
    if upstream_grad.shape != expect:
        raise ShapeError(
            f"upstream_grad shape {upstream_grad.shape} does not match output shape {expect}"
        )
    grad_x = upstream_grad @ params.weights.T
    if x.ndim == 1:
        grad_w = np.outer(x, upstream_grad)
        grad_b = upstream_grad.copy()
    else:
        grad_w = x.reshape(-1, x.shape[-1]).T @ upstream_grad.reshape(-1, expect[-1])
        grad_b = upstream_grad.reshape(-1, expect[-1]).sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise max(0, x)."""
    return np.maximum(x, 0)


def relu_backward(upstream_grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pass-through where x > 0; the subgradient at exactly 0 is 0."""
    return upstream_grad * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Element-wise 1/(1+exp(-x)), computed stably, output strictly in (0, 1)."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    info = np.finfo(x.dtype)
    return np.clip(out, info.tiny, np.nextafter(x.dtype.type(1), x.dtype.type(0)))


def sigmoid_backward(upstream_grad: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Chain rule through sigmoid given its forward output."""
    return upstream_grad * sig * (1 - sig)


def dropout_apply(
    x: np.ndarray, rate: float, mode: str, rng: Rng | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns (output, keep_mask) for the backward pass.

    Eval mode is the exact identity (mask None). In train mode each element
    is zeroed independently with probability ``rate`` and survivors are
    scaled by 1/(1-rate), so no rescaling is needed at evaluation time.
    """
    if not 0 <= rate < 1:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        return x, None
    if rate == 0:
        return x, np.ones(x.shape, dtype=bool)
    if rng is None:
        raise ConfigError("train-mode dropout requires an Rng")
    keep = np.empty(x.shape, dtype=bool)
    dropout_keep(rng, rate, keep)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return x * (keep.astype(x.dtype) * scale), keep


def dropout_keep(rng: Rng, rate: float, out: np.ndarray) -> None:
    """Fill the C-contiguous bool array ``out`` with train-mode dropout's keep flags.

    A flag is rng.uniform() >= rate, taken on the raw words: a uniform is
    m * 2^-53 for the 53-bit integer m = word >> 11, so it is >= rate exactly
    when m >= T = ceil(rate * 2^53), that is when word >= T << 11, which fits
    64 bits since T < 2^53 for rate < 1. Same words, same order, no float
    conversion.
    """
    threshold = np.uint64(math.ceil(float(rate) * 2.0**53) << 11)
    np.greater_equal(rng.u64(out.size), threshold, out=out.reshape(-1))


def dropout_backward(
    upstream_grad: np.ndarray, mask: np.ndarray | None, rate: float
) -> np.ndarray:
    """Route gradients through the recorded keep mask with the same scaling."""
    if mask is None:
        return upstream_grad
    scale = upstream_grad.dtype.type(1.0 / (1.0 - rate))
    return upstream_grad * (mask.astype(upstream_grad.dtype) * scale)


def bce_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy over the batch and its gradient wrt p.

    Probabilities are clamped to [BCE_EPS, 1-BCE_EPS] before the logs, so the
    loss is finite for any input; the gradient is the exact gradient of the
    clamped mean (zero where the clamp is active).
    """
    p = np.asarray(p)
    y = np.asarray(y)
    if p.shape != y.shape:
        raise ShapeError(f"probabilities shape {p.shape} != labels shape {y.shape}")
    yf = y.astype(p.dtype)
    eps = p.dtype.type(BCE_EPS)
    phat = np.clip(p, eps, 1 - eps)
    loss = float(np.mean(-(yf * np.log(phat) + (1 - yf) * np.log1p(-phat))))
    inside = (p >= eps) & (p <= 1 - eps)
    grad = np.where(inside, (phat - yf) / (phat * (1 - phat)), p.dtype.type(0))
    return loss, grad / p.dtype.type(p.size)


class RmspropUpdate:
    """RMSprop in place on fixed ``param``, ``grad`` and ``mean_square`` arrays.

    E <- rho*E + (1-rho)*g^2, then theta <- theta - lr * g / (sqrt(E)+eps),
    with RMSPROP_RHO and RMSPROP_EPS. The constructor checks once that the
    three arrays are C-contiguous and share a shape, and holds views of
    them, so each call reads the current ``grad`` with no further check.
    """

    def __init__(self, param, grad, mean_square):
        if grad.shape != param.shape:
            raise ShapeError(f"grad shape {grad.shape} != param shape {param.shape}")
        if mean_square.shape != param.shape:
            raise ShapeError(
                f"mean_square shape {mean_square.shape} != param shape {param.shape}"
            )
        if not (param.flags.c_contiguous and mean_square.flags.c_contiguous):
            raise ShapeError("param and mean_square must be C-contiguous to update in place")
        if not grad.flags.c_contiguous:
            raise ShapeError("grad must be C-contiguous to be read through a view")
        p_all, g_all, e_all = param.reshape(-1), grad.reshape(-1), mean_square.reshape(-1)
        count = -(-param.size // _RMSPROP_BLOCK)
        mid = (count // 2 if count >= _SPLIT_BLOCKS and split_gate() else count) * _RMSPROP_BLOCK
        # each half gets its own temporary rows; unsplit, the second is empty
        first = _rmsprop_blocks(p_all[:mid], g_all[:mid], e_all[:mid])
        second = _rmsprop_blocks(p_all[mid:], g_all[mid:], e_all[mid:])
        self._halves = first, second

    def __call__(self, lr: float) -> None:
        """One update with learning rate ``lr``.

        Raises NumericFault at the first block whose gradient holds a
        non-finite element; the blocks before it are already updated. With
        the pass split in two halves, each half stops at its own first such
        block, and blocks of the other half may already be updated too.
        """
        first, second = self._halves
        if second:
            run_halves(partial(_rmsprop_pass, first, lr), partial(_rmsprop_pass, second, lr))
        else:
            _rmsprop_pass(first, lr)


def _rmsprop_blocks(param, grad, mean_square) -> list[tuple[np.ndarray, ...]]:
    """(grad, mean square, param, denominator, delta, finite) views per block of the vectors.

    The last three are temporary rows that every block of the list shares.
    """
    n = min(param.size, _RMSPROP_BLOCK)
    denom, delta, finite = np.empty(n, param.dtype), np.empty(n, param.dtype), np.empty(n, bool)
    blocks = []
    for lo in range(0, param.size, _RMSPROP_BLOCK):
        hi = min(lo + _RMSPROP_BLOCK, param.size)
        k = hi - lo
        blocks.append(
            (grad[lo:hi], mean_square[lo:hi], param[lo:hi], denom[:k], delta[:k], finite[:k])
        )
    return blocks


def _rmsprop_pass(blocks, lr: float) -> None:
    """RmspropUpdate's pass over ``blocks``; NumericFault at the first non-finite gradient block."""
    rho, eps, fresh = RMSPROP_RHO, RMSPROP_EPS, 1.0 - RMSPROP_RHO
    # One pass per block of _RMSPROP_BLOCK elements keeps every operand in
    # cache. Each block runs the ops of rho*E + (1-rho)*g*g and
    # theta - lr*g / (sqrt(E)+eps) in their left-to-right order, so when
    # param, grad and mean_square share one dtype (as in training) the
    # result is bit-identical to evaluating those expressions on whole tensors.
    for g, e, p, t, u, finite in blocks:
        np.isfinite(g, out=finite)
        if not finite.all():
            raise NumericFault("non-finite gradient element in rmsprop_step")
        np.multiply(e, rho, out=e)
        np.multiply(g, fresh, out=t)
        np.multiply(t, g, out=t)
        np.add(e, t, out=e)
        np.sqrt(e, out=t)
        np.add(t, eps, out=t)
        np.multiply(g, lr, out=u)
        np.divide(u, t, out=u)
        np.subtract(p, u, out=p)


def rmsprop_step(
    param: np.ndarray, grad: np.ndarray, state: RmspropState, lr0: float, decay: float
) -> tuple[np.ndarray, RmspropState]:
    """One RmspropUpdate on copies of one tensor's arrays, returning the new ones.

    lr_t = lr0 / (1 + decay*t), t being the step count before the update;
    the caller keeps one step counter per model. A strided ``grad`` is copied.
    """
    lr = lr0 / (1.0 + decay * state.step_count)
    dtype = np.result_type(param, grad, state.mean_square)
    new_param = param.astype(dtype, order="C")
    mean_square = state.mean_square.astype(dtype, order="C")
    RmspropUpdate(new_param, np.ascontiguousarray(grad), mean_square)(lr)
    return new_param, RmspropState(mean_square, state.step_count + 1)

