"""Golden outputs: sha256 of a small sweep, its report and one fine-tune run.

The sweep covers every recipe form (`erm`, `dropout90`, `headlr10`,
`dropout90+headlr10`) with `--pool-seeds`; the fine-tune run sets both
`--dropout` and `--head-lr-mult`. The digests pin the output bytes, so a
refactor that changes any number, label or file layout fails here. Two more
digests pin the library paths the CLI does not take: a standalone
`protocol.finetune` record (its `ood_acc` comes from `evaluate`, not from a
sweep's arm predictions) and a `pretrain_trajectory` trace with its
checkpoint.

Bit-exact outputs depend on the numpy version and the OpenBLAS kernel, so
the digests are checked only under the build they were recorded with
(GOLDEN_ENV); under any other build the digest test is skipped and says so,
and the structural test still runs. Re-record, only in a change that alters
output bytes on purpose, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from finedrop.cli import main
from finedrop.datasets import leave_one_out_splits, load_dataset
from finedrop.models import load_checkpoint
from finedrop.protocol import FineTuneConfig, OptimizerSettings, finetune, pretrain_trajectory

RECIPES = ("erm", "dropout90", "headlr10", "dropout90+headlr10")
SEEDS = (1, 2)
GRID = ((1e-2, 1e-4), (5e-3, 1e-4))
SPLITS = 3

GOLDEN_ENV = {
    "numpy": "2.4.6",
    "blas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
}
DIGESTS = {
    "api/finetune": "6b5602f7039132f5e52eef2d271327afb4004eedfd0f7d3dbf0b2d4e3d429754",
    "api/pretrain_trajectory": "586bec1cd8314483472e55424bec09218b14e7a16a45c863ec8d0c5a22bc406b",
    "ft/best.ckpt": "96555efd638726b8006f002bae03e0994dfda5d444b2c02bf104c30f6177338b",
    "ft/runs.jsonl": "42bb1854792e7bab7e006b4f2d203100dd1e9faf529a4e6e661364dce1457a18",
    "ft/summary.json": "da243f0cdc23df1ebd37d86b84d780ff959d38c363b364646a38b8207f7cba8a",
    "report/methods_0.csv": "9f19641c90e32d264240994995d9425ed970bcd8af56e638715e0899b1ed8b35",
    "report/quartiles.csv": "70b90a09aa0c07d0bf8162735fca572f4d07430e8fb9b17e360d2e1f345600b7",
    "report/rate_curve_0.csv": "d7e1b1c228588f83408b7f6f803a4a254e895f081256fe96b9f0d30c27c776ab",
    "report/report.md": "34ce4ecc5b6a1da7a1abf765fb191dc641d3ae6248a20fcab8506e57a1710887",
    "sweep/runs.jsonl": "cefd2f0dd5546ceadd64f685e8f42f9ca5a097475556b6bbf7de2d77a63d63e8",
    "sweep/summary.json": "dcc2dad50565c0e866cc897bbe7879042c454a188af81e873a12d7328afe1869",
}


def _blas_config():
    """The runtime OpenBLAS config string, which names the CPU kernel in use."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, f"finedrop {' '.join(map(str, argv))} exited with {code}"


def produce(root):
    """Run the golden pipeline under root; returns {relative path: sha256}."""
    data, corpus, ckpt = root / "task", root / "corpus", root / "trunk.ckpt"
    _run("gen-data", "--task", "multienv", "--envs", SPLITS, "--n-core", 3, "--n-inert", 1,
         "--n-spurious", 2, "--n-per-env", 60, "--seed", 9, "--out", data)
    _run("gen-data", "--task", "redundant", "--n-features", 6, "--n-samples", 300, "--seed", 4,
         "--out", corpus)
    _run("pretrain", "--data", corpus, "--out", ckpt, "--width", 8, "--depth", 1,
         "--iterations", 40, "--batch-size", 16, "--seed", 3)
    _run("sweep", "--data", data, "--start", ckpt, "--out", root / "sweep",
         "--recipes", ",".join(RECIPES), "--lrs", ",".join(str(lr) for lr, _ in GRID),
         "--wds", "1e-4", "--seeds", ",".join(map(str, SEEDS)), "--splits", "all",
         "--iterations", 60, "--batch-size", 16, "--checkpoint-interval", 20, "--pool-seeds")
    _run("report", "--results", root / "sweep", "--out", root / "report")
    _run("finetune", "--data", data, "--start", ckpt, "--test-env", 2, "--dropout", 0.9,
         "--head-lr-mult", 10, "--lr", 1e-2, "--iterations", 60, "--batch-size", 16,
         "--checkpoint-interval", 20, "--seed", 1, "--out", root / "ft")
    digests = {}
    for sub in ("sweep", "report", "ft"):
        for path in sorted((root / sub).iterdir()):
            digests[f"{sub}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    digests.update(_api_digests(data, corpus, ckpt))
    return digests


def _digest(summary, params) -> str:
    """sha256 of a JSON summary (floats in repr) followed by a parameter vector's bytes."""
    return hashlib.sha256(json.dumps(summary).encode() + params.tobytes()).hexdigest()


def _api_digests(data, corpus, ckpt) -> dict:
    """One standalone fine-tune and one traced pretrain, from the pipeline's own data and trunk."""
    split = leave_one_out_splits(load_dataset(data))[1]
    cfg = FineTuneConfig(dropout_rate=0.9, lr=1e-2, weight_decay=1e-4, total_iterations=60, batch_size=16,
                         checkpoint_interval=20, seed=2)
    record = finetune(load_checkpoint(ckpt), split, cfg)
    ft = {"trail": [[p.iteration, p.iid_val_acc] for p in record.trail],
          "best_iteration": record.best.iteration, "ood_acc": record.ood_acc}
    # 60 steps at snapshot_every=20: the last step is also a snapshot point
    final, trace = pretrain_trajectory({"width": 8, "depth": 1}, load_dataset(corpus),
                                       OptimizerSettings(iterations=60, batch_size=16), seed=5, snapshot_every=20)
    pt = {"trace": trace, "iteration": final.iteration, "run_id": final.run_id}
    return {"api/finetune": _digest(ft, record.best.checkpoint.params),
            "api/pretrain_trajectory": _digest(pt, final.params)}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, produce(root)


def _runs(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_golden_outputs_structure(golden):
    root, digests = golden
    assert sorted(digests) == sorted(DIGESTS)
    runs = _runs(root / "sweep" / "runs.jsonl")
    assert len(runs) == len(RECIPES) * len(GRID) * len(SEEDS) * SPLITS
    expected = {"erm": (0.0, 1.0), "dropout90": (0.9, 1.0), "headlr10": (0.0, 10.0),
                "dropout90+headlr10": (0.9, 10.0)}
    for run in runs:
        assert run["status"] == "ok"
        assert (run["dropout_rate"], run["head_lr_mult"]) == expected[run["recipe"]]
        assert 0.0 <= run["ood_acc"] <= 1.0
    summary = json.loads((root / "sweep" / "summary.json").read_text())
    assert summary["meta"]["recipes"] == list(RECIPES)
    assert all(set(summary["multi_run"][r][str(s)]) == {"pooled"}
               for r in RECIPES for s in range(SPLITS))
    rates = (root / "report" / "rate_curve_0.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in rates[1:]] == ["0.0", "0.9"]
    (ft,) = _runs(root / "ft" / "runs.jsonl")
    assert (ft["recipe"], ft["dropout_rate"], ft["head_lr_mult"]) == ("dropout90+headlr10", 0.9, 10.0)
    assert (root / "ft" / "best.ckpt").stat().st_size > 0


def test_golden_output_digests(golden):
    build = {"numpy": np.__version__, "blas": _blas_config()}
    if build != GOLDEN_ENV:
        pytest.skip(f"digests recorded under {GOLDEN_ENV}, this build is {build}; "
                    "structural checks only")
    _, digests = golden
    assert digests == DIGESTS


if __name__ == "__main__":
    import pathlib

    with tempfile.TemporaryDirectory() as tmp:
        recorded = produce(pathlib.Path(tmp))
    print(json.dumps({"numpy": np.__version__, "blas": _blas_config()}, indent=4), file=sys.stderr)
    print(json.dumps(recorded, indent=4, sort_keys=True))
