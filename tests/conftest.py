"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
each test's name rather than drawn at random, there is no per-example
deadline (timings on a shared machine vary too much to be a test), and the
example count is bounded so the suite's run time stays predictable.

Every run ends with one line naming the compute environment that the
digest goldens depend on (``oracles.environment``).
"""

from hypothesis import settings

settings.register_profile("uavfuse", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("uavfuse")


def pytest_terminal_summary(terminalreporter):
    from oracles import environment

    terminalreporter.write_line(f"compute environment: {environment()}")
