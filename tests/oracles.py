"""Independent reference expressions shared by the test modules."""

import numpy as np


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
