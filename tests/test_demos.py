"""Every narrative script under demos/ runs to completion with warnings as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

import finedrop

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(finedrop.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    # -W error: a warning fails a demo as it fails the rest of the suite
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
