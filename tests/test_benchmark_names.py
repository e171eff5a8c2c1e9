"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps package functions by name. A rename it does
not know about would make its per-layer metrics read 0 instead of failing,
so this test fails instead.
"""

from pathlib import Path

import uavfuse.registration

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = uavfuse.registration.fuse_dataset
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == {}
        assert uavfuse.registration.fuse_dataset is not original
    finally:
        t.uninstall()
    assert uavfuse.registration.fuse_dataset is original
