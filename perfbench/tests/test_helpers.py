"""Tests of the benchmark's own helpers: percentiles, span self time, restoring wrapped names.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

import measure
import tracer

BENCH = Path(__file__).resolve().parent.parent


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, p",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, p):
    values = [float(v) for v in range(n)]
    got_p, value, count = measure.highest_percentile(values)
    assert (got_p, count) == (p, n)
    assert value == measure.percentile(values, p)
    assert sum(v > value for v in values) >= measure.MIN_TAIL


def test_highest_percentile_needs_ten_beyond_the_median():
    with pytest.raises(ValueError):
        measure.highest_percentile([1.0] * 19)


def test_failures_never_exceed_attempts():
    ops = measure.Ops()
    ops.run("op", lambda: None)
    ops.check("a", False)
    ops.check("b", False)
    assert (ops.attempted, ops.failed) == (1, 1)
    with pytest.raises(measure.WorkloadFailure):
        ops.run("boom", lambda: 1 / 0)
    assert (ops.attempted, ops.failed) == (2, 2)


def test_ledger_records_then_compares(tmp_path):
    ledger = tmp_path / "ledger.json"
    assert measure.ledger_mismatch(ledger, "w/src=a", {"d": 1}) is None
    assert measure.ledger_mismatch(ledger, "w/src=a", {"d": 1}) is None
    assert "differ" in measure.ledger_mismatch(ledger, "w/src=a", {"d": 2})
    assert measure.ledger_mismatch(ledger, "w/src=b", {"d": 2}) is None


def test_source_digest_follows_the_sources(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    first = measure.source_digest(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert measure.source_digest(tmp_path) != first


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A two-layer package: upper.outer calls lower.leaf through an imported name."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .upper import outer\nfrom .lower import Counter\n")
    (pkg / "lower.py").write_text(textwrap.dedent("""
        def leaf(n):
            return sum(range(n))

        def boom():
            raise ValueError("boom")

        class Counter:
            def bump(self, n):
                return leaf(n)
    """))
    (pkg / "upper.py").write_text(textwrap.dedent("""
        from .lower import boom, leaf

        def outer(n):
            total = leaf(n) + leaf(n)
            return total + sum(range(n))

        def fails():
            boom()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    yield fakepkg
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


TARGETS = (
    ("upper.outer", "upper", "outer", None),
    ("lower.leaf", "lower", "leaf", None),
    ("lower.boom", "lower", "boom", None),
    ("lower.bump", "lower", "Counter.bump", None),
    ("lower.gone", "lower", "removed_by_a_refactor", None),
)


def test_self_time_subtracts_direct_children(fakepkg):
    with tracer.Tracer(TARGETS, package="fakepkg") as t:
        assert fakepkg.outer(20000) == 3 * sum(range(20000))
    outer, leaf = t.spans["upper.outer"], t.spans["lower.leaf"]
    assert (outer.calls, leaf.calls) == (1, 2)
    assert leaf.self_ns == leaf.total_ns  # a leaf has no children
    assert 0 < outer.self_ns < outer.total_ns
    assert outer.self_ns + leaf.total_ns == outer.total_ns


def test_class_methods_are_wrapped(fakepkg):
    with tracer.Tracer(TARGETS, package="fakepkg") as t:
        assert fakepkg.Counter().bump(10) == 45
    bump, leaf = t.spans["lower.bump"], t.spans["lower.leaf"]
    assert (bump.calls, leaf.calls) == (1, 1)
    assert bump.self_ns + leaf.total_ns == bump.total_ns


def test_errors_are_counted_and_reraised(fakepkg):
    with tracer.Tracer(TARGETS, package="fakepkg") as t:
        with pytest.raises(ValueError):
            fakepkg.upper.fails()
    assert t.spans["lower.boom"].errors == 1


def test_uninstall_restores_every_wrapped_name(fakepkg):
    before = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "fakepkg" or name.startswith("fakepkg.")
    }
    bump = vars(fakepkg.Counter)["bump"]
    t = tracer.Tracer(TARGETS, package="fakepkg")
    t.install()
    assert fakepkg.upper.leaf is not before["fakepkg.upper"]["leaf"]
    assert fakepkg.outer is not before["fakepkg"]["outer"]
    assert vars(fakepkg.Counter)["bump"] is not bump
    t.uninstall()
    for name, namespace in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in namespace.items()), name
    assert vars(fakepkg.Counter)["bump"] is bump


def test_missing_target_is_reported_not_raised(fakepkg):
    with tracer.Tracer(TARGETS, package="fakepkg") as t:
        fakepkg.outer(10)
    assert set(t.missing) == {"lower.gone"}


def test_uninstall_restores_the_real_package():
    import uavfuse.cli  # noqa: F401

    def snapshot():
        return {
            name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "uavfuse" or name.startswith("uavfuse.")
        }

    before = snapshot()
    rng_methods = dict(vars(sys.modules["uavfuse.rng"].Rng))
    with tracer.Tracer() as t:
        assert not t.missing
        assert sys.modules["uavfuse.model"].conv2d_forward is not before["uavfuse.model"]["conv2d_forward"]
    after = snapshot()
    assert before.keys() == after.keys()
    for name in before:
        assert all(after[name][k] is v for k, v in before[name].items()), name
    assert dict(vars(sys.modules["uavfuse.rng"].Rng)) == rng_methods


def test_benchmark_json_lists_what_the_code_reports():
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(workloads.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]
