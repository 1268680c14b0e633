"""Shared test utilities."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np


def grad_close(analytic, numeric, rtol=1e-4, atol=1e-9):
    """Norm-based relative agreement between gradient arrays."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.linalg.norm(analytic - numeric)
    return err <= rtol * np.linalg.norm(numeric) + atol


def assert_grads_close(analytic_list, numeric_list, rtol=1e-4, atol=1e-9):
    assert len(analytic_list) == len(numeric_list)
    for a, f in zip(analytic_list, numeric_list):
        assert grad_close(a, f, rtol=rtol, atol=atol), (
            f"gradient mismatch: rel err "
            f"{np.linalg.norm(np.asarray(a) - np.asarray(f)) / max(np.linalg.norm(f), 1e-12):.3e}"
        )


_WATCH = """
import functools, importlib, json, os, sys
module = importlib.import_module({module!r})
inner, caller = getattr(module, {name!r}), os.getpid()

@functools.wraps(inner)  # a pool pickles the wrapper by the wrapped function's name
def watched(*args, **kwargs):
    before = set(sys.modules)
    result = inner(*args, **kwargs)
    imported = sorted(set(sys.modules) - before)
    if os.getpid() != caller:
        with open({log!r}, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([bool(result), imported]) + "\\n")
    return result

setattr(module, {name!r}, watched)
"""


def pool_worker_imports(module: str, name: str, code: str, log) -> list:
    """Run code in a fresh interpreter with module.name wrapped, and return one
    [returned something, modules imported during the call] pair per call of it
    in a process forked from that interpreter. The test process has imported
    much more than code needs, so only a fresh interpreter shows what a forked
    worker still has to import."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = _WATCH.format(module=module, name=name, log=str(log)) + code
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    log = pathlib.Path(log)
    return [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
