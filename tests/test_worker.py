"""The split's second thread: when work splits, and a thread's life across one call.

Each lifecycle test runs in a fresh interpreter, since the gate lives for
the life of a process and the tests count its threads.
"""

import gc
import os
import platform
import subprocess
import sys
import textwrap
import weakref
from functools import partial

import numpy as np
import pytest

from oracles import force_split

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
    run = worker.product(a, b, out)
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


GATE = "from uavfuse import worker; print(worker.split_gate()); print(worker._blas()[1])"


@pytest.mark.parametrize("threads, gate", [("1", TWO_CPUS), ("2", False)])
def test_the_gate_is_on_only_with_one_blas_thread_and_two_cpus(threads, gate):
    # on a core other than the one the split's rule was measured on it is off
    on, core = run_python(GATE, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads).splitlines()
    assert on == str(gate and core == worker._CORE)


@pytest.mark.skipif(platform.machine() != "x86_64", reason="an x86-64 OpenBLAS core")
def test_the_gate_is_off_on_another_core():
    # OpenBLAS 0.3.31 reports the Prescott kernels as Katmai
    on, core = run_python(GATE, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE="Prescott").splitlines()
    assert on == "False" and core != worker._CORE


@pytest.mark.parametrize("patch", [
    "worker._BLAS_LIBS = worker.Path('/no/such/directory')",
    "worker._BLAS_THREADS = 'no_such_symbol'",
    "worker._BLAS_CORE = 'no_such_symbol'",
    "worker._CORE = 'NoSuchCore'",  # a core that OpenBLAS does not report
])
def test_the_gate_is_off_without_the_blas_query(patch):
    out = run_python(f"""
        from uavfuse import worker
        {patch}
        print(worker.split_gate())
    """, OPENBLAS_NUM_THREADS="1")
    assert out.split() == ["False"]


def test_a_forked_child_runs_a_split():
    out = run_python(FORCED + """
import os, signal
split_product()
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child that hangs ends itself, and the parent reports it
    split_product()
    os._exit(0)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
""", timeout=30)
    assert out.split() == ["0"]


def test_an_exception_of_the_workers_half_reaches_the_caller_after_both_halves():
    out = run_python(FORCED + """
import _thread, time
caller, ran = _thread.get_ident(), []
def slow():
    time.sleep(0.05)
    ran.append("first")
def fail():
    ran.append("elsewhere" if _thread.get_ident() != caller else "caller")
    raise KeyError("second half")
try:
    worker.run_halves(slow, fail)
except KeyError as exc:
    print(exc, *ran)
split_product()  # a split still runs after a failed one
""")
    assert out.split() == ["'second", "half'", "elsewhere", "first"]


def test_a_half_that_splits_its_own_work_completes():
    # each product checks its own bits; a single resident worker deadlocked here
    out = run_python(FORCED + """
worker.run_halves(split_product, split_product)
print("done")
""", timeout=20)
    assert out.split() == ["done"]


@pytest.mark.parametrize("fails", [False, True])
def test_no_thread_outlives_a_split(fails):
    out = run_python(FORCED + f"""
import _thread, time
def second():
    if {fails}:
        raise KeyError("second half")
before = _thread._count()
try:
    worker.run_halves(lambda: None, second)
except KeyError:
    pass
deadline = time.monotonic() + 1
while _thread._count() != before and time.monotonic() < deadline:
    time.sleep(0.001)
print(_thread._count() - before)
""")
    assert out.split() == ["0"]


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


def test_nothing_of_a_finished_job_stays_alive_at_short_switch_intervals():
    # A thread's start arguments live until it exits, which can be after the
    # call returns. With 1 us switches, a half passed in them outlived the
    # call in 1 to 3 of 20,000 calls.
    class Buffer:
        pass

    kept, interval = 0, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    gc.disable()
    try:
        for _ in range(20000):
            buffer = Buffer()
            ref = weakref.ref(buffer)
            worker.run_halves(lambda: None, partial(id, buffer))
            del buffer
            kept += ref() is not None
    finally:
        gc.enable()
        sys.setswitchinterval(interval)
    assert kept == 0


def test_only_products_past_the_threshold_and_of_aligned_width_split(monkeypatch):
    monkeypatch.setattr(worker, "_gate", True)
    a, b = np.ones((4, 8)), np.ones((8, 64))
    macs = 4 * 8 * 64

    def func(a, b):
        return worker.product(a, b, np.empty((len(a), b.shape[1]))).func

    monkeypatch.setattr(worker, "SPLIT_MACS", macs + 1)
    out = np.empty((4, 64))
    whole = worker.product(a, b, out)
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
    split = force_split(monkeypatch)
    m, k, n = shape
    rng = np.random.default_rng(sum(shape))
    a, b = rng.standard_normal((m, k)).astype(dtype), rng.standard_normal((k, n)).astype(dtype)
    # C-ordered and Fortran-ordered (BLAS-transposed) operands, as in the network's products
    for x, y in [(x, y) for x in (a, np.asfortranarray(a)) for y in (b, np.asfortranarray(b))]:
        want = np.dot(x, y)
        out = np.full_like(want, np.nan)
        run = worker.product(x, y, out)
        assert (run.func is worker.run_halves) == split
        run()
        assert out.tobytes() == want.tobytes()
