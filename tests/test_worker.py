"""The package's worker thread: when work splits, and its life across imports and forks.

Each lifecycle test runs in a fresh interpreter, since the worker and the
gate live for the life of a process.
"""

import gc
import os
import subprocess
import sys
import textwrap
import weakref
from functools import partial

import numpy as np
import pytest

from uavfuse import worker

TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def run_python(code, timeout=60, **env):
    """Run ``code`` in a fresh interpreter with ``env`` added; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, **env), capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# forces the split on for every product that may split, of any size; the
# operands hold small integers, so every order of the sums gives the same bits
FORCED = """
import numpy as np
from uavfuse import worker
worker._gate, worker.SPLIT_MACS = True, 1
a, b = np.arange(12.0).reshape(3, 4), np.arange(128.0).reshape(4, 32)
def split_product():
    out = np.empty((3, 32))
    run = worker.product(np.matmul, a, b, out)
    assert run.func is worker.run_halves
    run()
    assert np.array_equal(out, a @ b)
"""


def test_importing_the_cli_starts_no_thread_and_no_pool_module():
    out = run_python("""
        import sys, threading
        threads, before = threading.active_count(), set(sys.modules)
        import uavfuse.cli
        added = set(sys.modules) - before
        print(threading.active_count() - threads, "queue" in added, "concurrent.futures" in added)
    """)
    assert out.split() == ["0", "False", "False"]


@pytest.mark.parametrize("threads, gate", [("1", TWO_CPUS), ("2", False)])
def test_the_gate_is_on_only_with_one_blas_thread_and_two_cpus(threads, gate):
    out = run_python(
        "from uavfuse import worker; print(worker.split_gate())",
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
    )
    assert out.split() == [str(gate)]


@pytest.mark.parametrize("patch", [
    "worker._BLAS_LIBS = worker.Path('/no/such/directory')",
    "worker._BLAS_THREADS = 'no_such_symbol'",
    "worker._BLAS_CORE = 'no_such_symbol'",
    "worker._CORE = 'Haswell'",  # a core the exactness rule was not measured on
])
def test_the_gate_is_off_without_the_blas_query(patch):
    out = run_python(f"""
        from uavfuse import worker
        {patch}
        print(worker.split_gate())
    """, OPENBLAS_NUM_THREADS="1")
    assert out.split() == ["False"]


def test_a_forked_child_starts_its_own_worker():
    out = run_python(FORCED + """
import os, signal, threading
split_product()
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child that hangs ends itself, and the parent reports it
    split_product()  # queued to the parent's worker, this would wait forever
    os._exit(0 if threading.active_count() == 2 else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status), threading.active_count())
""", timeout=30)
    assert out.split() == ["0", "2"]


def test_an_exception_of_the_workers_half_reaches_the_caller_after_both_halves():
    out = run_python(FORCED + """
import threading, time
ran = []
def slow():
    time.sleep(0.05)
    ran.append("first")
def fail():
    ran.append(threading.current_thread().name)
    raise KeyError("second half")
try:
    worker.run_halves(slow, fail)
except KeyError as exc:
    print(exc, *ran)
split_product()  # the worker still serves
""")
    assert out.split() == ["'second", "half'", "uavfuse-worker", "first"]


def test_the_callers_exception_wins_and_waits_for_the_worker():
    done = []

    def fail():
        raise ValueError("first half")

    with pytest.raises(ValueError, match="first half"):
        worker.run_halves(fail, lambda: done.append(1))
    assert done == [1]


@pytest.mark.parametrize("fails", [False, True])
def test_nothing_of_a_finished_job_stays_alive(fails):
    # a model's last buffers must go with it, not with the worker's last job
    class Buffer:
        pass

    def second(buffer):
        if fails:
            raise ValueError("second half")

    buffer = Buffer()
    ref = weakref.ref(buffer)
    gc.disable()  # freed by reference counting alone
    try:
        try:
            worker.run_halves(lambda: None, partial(second, buffer))
        except ValueError:
            assert fails
        del buffer
        assert ref() is None
    finally:
        gc.enable()


def test_only_products_past_the_threshold_and_of_aligned_width_split(monkeypatch):
    monkeypatch.setattr(worker, "_gate", True)
    a, b = np.ones((4, 8)), np.ones((8, 64))
    macs = 4 * 8 * 64

    def func(a, b):
        return worker.product(np.dot, a, b, np.empty((len(a), b.shape[1]))).func

    monkeypatch.setattr(worker, "SPLIT_MACS", macs + 1)
    out = np.empty((4, 64))
    whole = worker.product(np.dot, a, b, out)
    assert (whole.func, whole.args, whole.keywords) == (np.dot, (a, b, out), {})
    monkeypatch.setattr(worker, "SPLIT_MACS", macs)
    assert func(a, b) is worker.run_halves
    assert func(a[:1], b) is np.dot  # one row: a gemv
    assert func(a, b[:, :48]) is np.dot  # halves of 24 columns
    monkeypatch.setattr(worker, "_gate", False)
    assert func(a, b) is np.dot


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape", [(25, 2304, 320), (12, 864, 2048), (864, 12, 2048), (4608, 125, 32), (37, 1001, 480)]
)
def test_a_split_product_has_the_bits_of_the_whole_one(monkeypatch, shape, dtype):
    monkeypatch.setattr(worker, "_gate", True)
    m, k, n = shape
    rng = np.random.default_rng(sum(shape))
    a, b = rng.standard_normal((m, k)).astype(dtype), rng.standard_normal((k, n)).astype(dtype)
    # C-ordered and Fortran-ordered (BLAS-transposed) operands, as in the network's products
    for x, y in [(x, y) for x in (a, np.asfortranarray(a)) for y in (b, np.asfortranarray(b))]:
        want = np.dot(x, y)
        out = np.full_like(want, np.nan)
        run = worker.product(np.dot, x, y, out)
        assert run.func is worker.run_halves
        run()
        assert out.tobytes() == want.tobytes()
