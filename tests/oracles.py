"""Independent reference expressions shared by the test modules."""

import numpy as np


def rmsprop_oracle(param, grad, mean_square, step, lr0, decay, rho=0.9, eps=1e-7):
    """RMSprop as whole-tensor expressions: (new param, new mean square).

    The optimizer's blocked in-place passes must match it bit for bit.
    """
    mean_square = rho * mean_square + (1.0 - rho) * grad * grad
    lr = lr0 / (1.0 + decay * step)
    return param - lr * grad / (np.sqrt(mean_square) + eps), mean_square
