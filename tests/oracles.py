"""Independent reference expressions, and a record-packing helper, shared by the test modules."""

import numpy as np

from uavfuse.data import fused_dtype
from uavfuse.model import record_rows


def rmsprop_oracle(param, grad, mean_square, step, lr0, decay, rho=0.9, eps=1e-7):
    """RMSprop as whole-tensor expressions: (new param, new mean square).

    The optimizer's blocked in-place passes must match it bit for bit.
    """
    mean_square = rho * mean_square + (1.0 - rho) * grad * grad
    lr = lr0 / (1.0 + decay * step)
    return param - lr * grad / (np.sqrt(mean_square) + eps), mean_square


def grad_check(f, x: np.ndarray, analytic_grad: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error of an analytic gradient against central differences.

    ``f`` maps an array like ``x`` to a scalar; x should be float64. The
    relative error per component is |a-n| / max(|a|, |n|, 1e-12).
    """
    worst = 0.0
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        numeric = (f(xp) - f(xm)) / (2.0 * eps)
        a = float(analytic_grad[idx])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst


def fused_rows(x, r, y):
    """Maps ``x``, radar-or-None ``r`` and labels ``y`` packed into fused records.

    The (records, record bytes) rows that ``TrainStep.gather`` takes, as
    ``record_rows`` gives them; the payloads are stored as float32.
    """
    samples = np.zeros(len(x), fused_dtype(x.shape[1:], 0 if r is None else r.shape[1]))
    samples["stacked"], samples["label"] = x, y
    if r is not None:
        samples["radar"] = r
    return record_rows(samples)
