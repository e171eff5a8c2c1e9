"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
each test's name rather than drawn at random, there is no per-example
deadline (timings on a shared machine vary too much to be a test), and the
example count is bounded so the suite's run time stays predictable.

Every run ends with one line naming the compute environment that the
digest goldens depend on (``oracles.environment``), and one with the line
counts of the package and of the tests.
"""

from pathlib import Path

from hypothesis import settings

settings.register_profile("uavfuse", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("uavfuse")


def _lines(pattern: str) -> int:
    """Newline bytes in the repository's files matching ``pattern``, as ``cat ... | wc -l`` counts."""
    root = Path(__file__).resolve().parent.parent
    return sum(path.read_bytes().count(b"\n") for path in root.glob(pattern))


def pytest_terminal_summary(terminalreporter):
    from oracles import environment

    terminalreporter.write_line(f"compute environment: {environment()}")
    counts = ", ".join(f"{p} {_lines(p)}" for p in ("src/uavfuse/*.py", "tests/*.py"))
    terminalreporter.write_line(f"line counts: {counts}")
