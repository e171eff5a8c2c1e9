"""A second CPU for the paper-scale products and the RMSprop pass.

``run_halves(first, second)`` starts one thread that runs ``second`` while
the caller runs ``first``, and returns when both are done. The halves
write disjoint outputs and read nothing the other writes. A half that
splits its own work starts a thread of its own.
``product`` splits a matrix product by its output columns. Within its
size and width rules, each element is then still the same BLAS dot
product over the same K, in the same order, so the bits are those of the
whole product. ``ops.RmspropUpdate`` splits its pass by blocks, whose
element-wise ops are exact anywhere.

Work splits only where the handoff (about 30 us) is small beside it and
the CPUs are not already busy: a product of at least ``SPLIT_MACS``
multiply-adds, and only when ``split_gate()`` holds, that is when the
process may run on two or more CPUs and numpy's OpenBLAS runs one thread
with the kernels of the core the rule was measured on. With OpenBLAS's own
threads on, a split oversubscribes the CPUs and slows the product down.
A split's thread exits with its half, so importing the package starts
none and a forked child inherits none.
"""

from __future__ import annotations

import _thread
import os
from functools import partial
from pathlib import Path

import numpy as np

# Multiply-adds from which a product splits: about 0.4 ms of one core's
# sgemm, some 13 times the handoff. Every product of the reduced profile
# (at most 11.1M at 64 rows, 16 filters) and the paper dense1 forward at
# 1 row (7.4M, a gemv that runs slower split) stay whole. It is also a
# floor for the bits: OpenBLAS picks its kernels by size, so a small half
# can differ from the whole in the last bit. Random shapes with aligned
# halves differed up to 1.2M multiply-adds; none of 1,000 with halves of
# 2^23 or more did, in float32 or float64 (OpenBLAS 0.3.31, Sapphire Rapids).
SPLIT_MACS = 1 << 24
# Columns per half are a multiple of this, so both halves tile their
# columns as the whole does; with the column tail elsewhere, about half of
# the float64 shapes tried changed bits.
_COLUMNS = 16

# numpy's bundled OpenBLAS, and its thread-count and core-name queries
_BLAS_LIBS = Path(np.__file__).parent.parent / "numpy.libs"
_BLAS_GLOB = "libscipy_openblas*.so*"
_BLAS_THREADS = "scipy_openblas_get_num_threads64_"
_BLAS_CORE = "scipy_openblas_get_corename64_"
# The OpenBLAS core whose kernels the size and width rules were measured on
# (OpenBLAS 0.3.31 picks them per CPU family at run time); on any other core
# every product runs whole.
_CORE = "SkylakeX"

_gate: bool | None = None  # split_gate's answer, once asked


def split_gate() -> bool:
    """Whether work may split: two or more usable CPUs, and OpenBLAS on ``_CORE`` and one thread."""
    global _gate
    if _gate is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        _gate = cpus >= 2 and _blas() == (1, _CORE)
    return _gate


def _blas() -> tuple[int, str]:
    """(Thread count, core name) of numpy's bundled OpenBLAS; (0, "") if it is not found."""
    import ctypes

    for lib in sorted(_BLAS_LIBS.glob(_BLAS_GLOB)):
        try:
            blas = ctypes.CDLL(str(lib))
            core = blas[_BLAS_CORE]
            core.restype = ctypes.c_char_p
            return blas[_BLAS_THREADS](), core().decode()
        except (OSError, AttributeError):
            pass
    return 0, ""


def product(call, a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """``call(a, b, out)`` bound once, for a product a @ b into ``out``.

    It splits when it has at least ``SPLIT_MACS`` multiply-adds, two or
    more rows (one row is a gemv) and a multiple of 2 * ``_COLUMNS``
    columns, and the gate is on. Then it runs two ``np.matmul`` calls on
    column views, ``b[:, :h]`` into ``out[:, :h]`` and ``b[:, h:]`` into
    ``out[:, h:]``, which BLAS reads and writes in place with the full row
    stride. Otherwise it is exactly ``call(a, b, out)``.
    """
    (m, k), n = a.shape, b.shape[1]
    if m < 2 or n % (2 * _COLUMNS) or m * k * n < SPLIT_MACS or not split_gate():
        return partial(call, a, b, out)
    h = n // 2
    return partial(
        run_halves,
        partial(np.matmul, a, b[:, :h], out[:, :h]),
        partial(np.matmul, a, b[:, h:], out[:, h:]),
    )


def run_halves(first, second) -> None:
    """Run ``second`` on a thread of its own and ``first`` here; return when both are done.

    The thread exits with its half, and a half may split its own work on
    further threads. An exception of either half is raised here once both
    are done (the caller's own first), so no half still writes when the
    caller goes on.
    """
    done = _thread.allocate_lock()
    done.acquire()
    # the thread pops its half: its start arguments live until it exits, maybe after this returns
    job = [second]
    _thread.start_new_thread(_serve, (job, done))
    try:
        first()
    finally:
        done.acquire()
    if job:
        raise job.pop()  # popped: this frame, kept by the traceback, keeps no cycle


def _serve(job, done) -> None:
    work = job.pop()
    try:
        work()
    except BaseException as exc:  # raised in the caller, which waits on ``done``
        job.append(exc)
    # keep nothing of a finished job: its views may hold the buffers of a freed model
    del work, job
    done.release()
