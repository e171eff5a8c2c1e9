"""The Python demos run to completion against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # demos write into mkdtemp directories
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_pipeline_demo_exits_0(tmp_path):
    # demo 05 calls the console script; a shim on PATH runs this checkout's CLI
    shim = tmp_path / "bin" / "uavfuse"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m uavfuse.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PATH"] = os.pathsep.join([str(shim.parent), os.environ["PATH"]])
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "05_cli_pipeline.sh")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    (run,) = tmp_path.glob("uavfuse-demo-*")  # the demo honours TMPDIR
    assert (run / "eval" / "evaluation.txt").is_file()
