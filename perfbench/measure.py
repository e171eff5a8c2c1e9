"""Measurement helpers: percentiles, operation accounting, the run record.

Nothing here imports numpy or the package under test, so the helpers can
be used (and tested) before the BLAS thread count is fixed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

# Percentiles the latency helper may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def _rank(p: float, n: int) -> int:
    # rounding first keeps 90% of 100 at rank 90, not 91
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def highest_percentile(values) -> tuple[float, float, int]:
    """(p, value, n) for the highest percentile with >= MIN_TAIL samples beyond it."""
    n = len(values)
    best = None
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_TAIL:
            best = p
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_TAIL} beyond the median")
    return best, percentile(values, best), n


def median(values) -> float:
    return statistics.median(values)


class WorkloadFailure(Exception):
    """An operation failed and the workload cannot go on."""


class Ops:
    """Counts attempted and failed operations and the output checks on them.

    An operation is a ``train()`` call, a classify call or a CLI stage. It
    fails if it raises or if an output check on it fails.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and return ``(result, wall seconds)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{name} raised {type(exc).__name__}: {exc}")
            raise WorkloadFailure(name) from exc
        return result, time.perf_counter() - start

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.fail(f"check {name} failed{': ' + detail if detail else ''}")
        return ok

    def fail(self, message: str) -> None:
        self.failed = min(self.failed + 1, max(self.attempted, 1))
        if len(self.failures) < 20:
            self.failures.append(message)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (10^6 bytes); Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def source_digest(src: Path) -> str:
    """SHA-256 over the Python sources under ``src``: identifies the code that ran."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(np) -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    import ctypes

    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_record(np, root: Path, bench: Path, blas_threads: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads_requested": blas_threads,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src" / "uavfuse"),
        "bench_sha256": source_digest(bench),
    }


def ledger_mismatch(path: Path, key: str, digests: dict) -> str | None:
    """Compare output digests with an earlier run under ``key``, or record them.

    The ledger keeps one entry per key across runs in one checkout. The key
    names the workload, the package and benchmark sources and, where the
    outputs depend on it, the seed: every run under one key must produce the
    same digests. Returns a description of a mismatch, or None.
    """
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    known = book.get(key)
    if known is not None:
        return None if known == digests else (
            f"digests differ from an earlier run of {key}: {known} != {digests}"
        )
    book[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None
