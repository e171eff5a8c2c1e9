"""uavfuse benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/uavfuse``. Workloads are
listed in BENCHMARK.json and defined in ``workloads.py``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``). The line before it is the run record:
machine, versions, set-up repetitions, output digests and, for a traced
run, its own end-to-end metrics and the raw span table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# scratch space and the digest ledger; inside the checkout and ignored by git
RUNS = ROOT / ".perfbench_runs"
# One BLAS thread for every workload. On a 2-CPU VM, a second thread made the
# reduced profile's tiny GEMMs slower (a fit: 15-18 s against 13.6-14.9 s)
# and exposed every workload to load on the other CPU.
BLAS_THREADS = 1
WORKLOADS = ("paper_train", "reduced_fit", "cli_pipeline")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import uavfuse from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "uavfuse" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {src / 'uavfuse'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import uavfuse

    if Path(uavfuse.__file__).resolve().parent != (src / "uavfuse").resolve():
        raise SystemExit(f"benchmark: imported uavfuse from {uavfuse.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_package()
    import numpy as np

    import measure
    import tracer
    import workloads

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=RUNS))
    ctx = workloads.Context(args.seed, args.seconds, ROOT, work, traced=bool(args.trace))
    try:
        # the tracer restores every wrapped name on exit; untraced runs never wrap
        with tracer.Tracer() if args.trace else contextlib.nullcontext() as trace:
            outcome = workloads.WORKLOADS[args.workload](ctx)
    except measure.WorkloadFailure as exc:
        print(f"benchmark: {args.workload} stopped: operation {exc} failed", file=sys.stderr)
        for line in ctx.ops.failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = ctx.ops
    machine = measure.machine_record(np, ROOT, HERE, BLAS_THREADS)
    # the code measured and the benchmark's own code; the seed only where outputs depend on it
    seed = "" if outcome.seed_free else f"/seed={args.seed}"
    key = f"{args.workload}{seed}/src={machine['src_sha256'][:16]}/bench={machine['bench_sha256'][:16]}"
    mismatch = measure.ledger_mismatch(RUNS / "ledger.json", key, outcome.digests)
    if mismatch:
        ops.fail(mismatch)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine,
        "digests": outcome.digests,
        "failures": ops.failures,
        **outcome.details,
    }
    if trace is None:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit, _ in workloads.E2E}
    else:
        record["traced_end_to_end"] = outcome.metrics
        record["spans"] = trace.table()
        values = trace.metrics()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.LAYER_METRICS}
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
