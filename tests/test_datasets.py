import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from finedrop import datasets
from finedrop.datasets import (
    gen_xor_task,
    EnvDataset,
    EnvSplit,
    gen_multienv_task,
    gen_pretrain_corpus,
    gen_redundant_features,
    leave_one_out_splits,
    load_dataset,
    make_missing_feature_env,
    save_dataset,
)
from finedrop.errors import FormatError, RunError, ValidationError
from helpers import pool_worker_imports


def _dir_checksum(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_redundant_each_feature_alone_is_perfect():
    ds = gen_redundant_features(8, 500, label_noise=0.0, seed=1)
    signs = 2 * ds.labels - 1
    for j in range(8):
        acc = np.mean(np.sign(ds.features[:, j]) == signs)
        assert acc == 1.0


def test_redundant_label_noise_level_error():
    ds = gen_redundant_features(4, 4000, label_noise=0.1, seed=2)
    signs = 2 * ds.labels - 1
    acc = np.mean(np.sign(ds.features[:, 0]) == signs)
    assert acc == pytest.approx(0.9, abs=0.02)


def test_redundant_seed_determinism_on_disk(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_dataset(gen_redundant_features(6, 100, 0.0, seed=7), d1)
    save_dataset(gen_redundant_features(6, 100, 0.0, seed=7), d2)
    assert _dir_checksum(d1) == _dir_checksum(d2)


def test_redundant_linearly_separable_by_perceptron():
    # oracle: the classic perceptron must converge to zero mistakes
    ds = gen_redundant_features(8, 1000, label_noise=0.0, seed=3)
    X = np.hstack([ds.features, np.ones((1000, 1))])
    y = 2 * ds.labels - 1
    w = np.zeros(9)
    for _ in range(100):
        mistakes = 0
        for i in range(1000):
            if y[i] * (w @ X[i]) <= 0:
                w += y[i] * X[i]
                mistakes += 1
        if mistakes == 0:
            break
    assert np.all(y * (X @ w) > 0), "perceptron failed to reach 100% train accuracy"


def test_redundant_validates_args():
    with pytest.raises(ValidationError):
        gen_redundant_features(1, 100, 0.0, seed=0)
    with pytest.raises(ValidationError):
        gen_redundant_features(4, 100, 0.7, seed=0)


def test_missing_env_requires_nonempty_proper_subset():
    ds = gen_redundant_features(4, 50, 0.0, seed=4)
    with pytest.raises(ValidationError):
        make_missing_feature_env(ds, [])
    with pytest.raises(ValidationError):
        make_missing_feature_env(ds, [0, 1, 2, 3])
    with pytest.raises(ValidationError):
        make_missing_feature_env(ds, [9])


def test_missing_env_zeroes_columns_and_records_manifest():
    ds = gen_redundant_features(4, 50, 0.0, seed=5)
    both = make_missing_feature_env(ds, [0, 2])
    new_env = both.manifest["environments"][-1]
    assert new_env["params"]["missing_features"] == [0, 2]
    shifted, labels = both.env_arrays(new_env["id"])
    assert np.all(shifted[:, [0, 2]] == 0.0)
    np.testing.assert_array_equal(shifted[:, 1], ds.features[:, 1])
    np.testing.assert_array_equal(labels, ds.labels)
    # the original rows come first and keep their environment and values
    assert both.environment_ids == [0, new_env["id"]]
    np.testing.assert_array_equal(both.env_ids, np.repeat([0, new_env["id"]], 50))
    np.testing.assert_array_equal(both.features[:50], ds.features)


def test_missing_env_single_feature_classifier_drops_to_tie_rule():
    ds = gen_redundant_features(4, 400, 0.0, seed=6)
    x_ood, y_ood = make_missing_feature_env(ds, [1]).env_arrays(1)
    # a classifier reading only feature 1 now outputs a constant; under the
    # lowest-class tie rule it predicts class 0 everywhere
    margins = x_ood[:, 1]
    preds = np.where(margins > 0, 1, 0)  # argmax([-m, m]) with ties to class 0
    acc = np.mean(preds == y_ood)
    assert acc == pytest.approx(np.mean(y_ood == 0), abs=1e-12)
    assert 0.4 < acc < 0.6


def test_missing_env_uniform_classifier_retains_perfect_accuracy():
    ds = gen_redundant_features(8, 300, 0.0, seed=7)
    x_ood, y_ood = make_missing_feature_env(ds, [0, 1, 2]).env_arrays(1)
    margins = x_ood.sum(axis=1)
    acc = np.mean(np.sign(margins) == 2 * y_ood - 1)
    assert acc == 1.0


def test_multienv_flip_zero_is_identically_distributed():
    ds = gen_multienv_task(4, 4, 4, spurious_flip_per_env=0.0, n_per_env=500, seed=8, n_inert=0)
    coeffs = [env["params"]["spurious_coeff"] for env in ds.manifest["environments"]]
    assert all(c == coeffs[0] for c in coeffs)
    # all-feature uniform classifier: held-out accuracy matches in-env accuracy
    accs = []
    for e in ds.environment_ids:
        X, y = ds.env_arrays(e)
        accs.append(np.mean(np.sign(X.sum(axis=1)) == 2 * y - 1))
    assert max(accs) - min(accs) < 0.02


def test_multienv_core_only_classifier_is_env_invariant():
    ds = gen_multienv_task(4, 8, 4, spurious_flip_per_env=1.0, n_per_env=2000, seed=9, n_inert=0)
    n_core = ds.manifest["params"]["n_core"]
    accs = []
    for e in ds.environment_ids:
        X, y = ds.env_arrays(e)
        margins = X[:, :n_core].sum(axis=1)
        accs.append(np.mean(np.sign(margins) == 2 * y - 1))
    assert min(accs) > 0.98
    assert max(accs) - min(accs) < 0.01


def test_multienv_spurious_group_reverses_in_last_environment():
    ds = gen_multienv_task(4, 2, 4, spurious_flip_per_env=1.0, n_per_env=100, seed=10, n_inert=0)
    for env in ds.manifest["environments"]:
        coeff = env["params"]["spurious_coeff"]
        expected = -3.0 if env["id"] == 3 else 3.0
        assert all(c == expected for c in coeff)


def test_multienv_validates():
    with pytest.raises(ValidationError):
        gen_multienv_task(1, 4, 2, 0.5, 100, seed=0, n_inert=0)
    with pytest.raises(ValidationError):
        gen_multienv_task(4, 0, 2, 0.5, 100, seed=0, n_inert=0)


def test_pretrain_corpus_shapes_and_partition():
    ds = gen_pretrain_corpus(rich=True, size=400, seed=11)
    assert ds.num_classes == 8
    assert ds.n_features == 18
    assert set(np.unique(ds.labels)) <= set(range(8))


def test_pretrain_plain_is_narrow_member_of_rich_family():
    rich = gen_pretrain_corpus(rich=True, size=50, seed=12)
    plain = gen_pretrain_corpus(rich=False, size=50, seed=12)
    fam_rich = rich.manifest["params"]["transformation_family"]
    fam_plain = plain.manifest["params"]["transformation_family"]
    assert fam_rich["kind"] == fam_plain["kind"]
    assert fam_plain["mask_prob"] == 0.0 and fam_rich["mask_prob"] > 0.0
    # plain corpus never zeroes core columns; rich does
    assert not np.any(plain.features[:, :14] == 0.0)
    assert np.any(rich.features[:, :14] == 0.0)


def test_pretrain_corpus_determinism():
    a = gen_pretrain_corpus(rich=True, size=100, seed=13)
    b = gen_pretrain_corpus(rich=True, size=100, seed=13)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_save_load_roundtrip_exact(tmp_path):
    ds = gen_multienv_task(3, 4, 3, 0.8, n_per_env=40, seed=14, n_inert=0)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.env_ids, ds.env_ids)
    assert back.manifest == ds.manifest
    assert back.counts_per_env() == ds.counts_per_env()


def test_load_missing_env_file_names_it(tmp_path):
    ds = gen_multienv_task(3, 4, 3, 0.8, n_per_env=10, seed=15, n_inert=0)
    save_dataset(ds, tmp_path / "ds")
    (tmp_path / "ds" / "env_1.csv").unlink()
    with pytest.raises(FormatError) as exc:
        load_dataset(tmp_path / "ds")
    assert "env_1.csv" in str(exc.value)


def test_load_handwritten_csv(tmp_path):
    d = tmp_path / "tiny"
    d.mkdir()
    manifest = {
        "schema_version": 1,
        "task": "handwritten",
        "seed": 0,
        "n_features": 2,
        "num_classes": 2,
        "environments": [{"id": 0, "name": "only", "params": {}}],
    }
    (d / "manifest.json").write_text(json.dumps(manifest))
    (d / "env_0.csv").write_text("f0,f1,label,env_id\n0.5,-1.25,1,0\n-3,0.75,0,0\n")
    ds = load_dataset(d)
    np.testing.assert_array_equal(ds.features, [[0.5, -1.25], [-3.0, 0.75]])
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_env_dataset_rejects_undeclared_env_ids():
    with pytest.raises(ValidationError, match=r"^env ids \[5, 7\] missing from manifest$"):
        EnvDataset(
            np.ones((4, 2)),
            np.zeros(4, dtype=int),
            np.array([7, 0, 5, 7]),
            {"environments": [{"id": 0, "name": "a", "params": {}}], "n_features": 2},
        )


def test_loading_a_dataset_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 1 MiB of every process that loads a dataset
    save_dataset(gen_multienv_task(3, 4, 2, 1.0, n_per_env=50, seed=3, n_inert=0), tmp_path / "ds")
    code = ("import sys; from finedrop.datasets import load_dataset; "
            f"load_dataset({str(tmp_path / 'ds')!r}); print('numpy.ma' in sys.modules)")
    src = str(pathlib.Path(datasets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_env_split_validation():
    ds = gen_multienv_task(3, 4, 3, 0.8, n_per_env=10, seed=16, n_inert=0)
    with pytest.raises(ValidationError):
        EnvSplit(ds, (0, 1), 1)
    with pytest.raises(ValidationError):
        EnvSplit(ds, (0, 1), 9)
    with pytest.raises(ValidationError):
        EnvSplit(ds, (0, 1), 2, holdout_fraction=0.0)


def test_split_refuses_a_test_env_with_no_rows():
    ds = gen_multienv_task(3, 2, 2, 1.0, n_per_env=5, seed=19, n_inert=0)
    keep = ds.env_ids != 1
    ds = EnvDataset(ds.features[keep], ds.labels[keep], ds.env_ids[keep], ds.manifest)
    with pytest.raises(ValidationError, match="test env 1 has no rows"):
        EnvSplit(ds, (0, 2), 1)
    with pytest.raises(ValidationError, match="test env 1 has no rows"):
        leave_one_out_splits(ds)
    assert EnvSplit(ds, (0, 1), 2).test_env == 2  # an empty training environment is allowed


def test_leave_one_out_splits_cover_every_env():
    ds = gen_multienv_task(4, 4, 4, 1.0, n_per_env=10, seed=17, n_inert=0)
    splits = leave_one_out_splits(ds)
    assert [s.test_env for s in splits] == [0, 1, 2, 3]
    for s in splits:
        assert s.test_env not in s.train_envs
        assert len(s.train_envs) == 3


def test_xor_task_is_not_linearly_separable_but_parity_solves_it():
    ds = gen_xor_task(4, 500, seed=21)
    X, y = ds.env_arrays(0)
    s = 2 * y - 1
    # no single column correlates with the parity label
    corr = np.abs([(np.sign(X[:, j]) == s).mean() - 0.5 for j in range(ds.n_features)])
    assert np.max(corr) < 0.08
    # the product of the two block means recovers it (up to carrier noise)
    pairs = ds.manifest["params"]["n_pairs"]
    recovered = np.sign(X[:, :pairs].mean(axis=1) * X[:, pairs:].mean(axis=1))
    assert np.mean(recovered == s) > 0.95
    # last environment is the noisier, shifted one
    mults = [e["params"]["noise_mult"] for e in ds.manifest["environments"]]
    assert mults[-1] > 1.0 and all(m == 1.0 for m in mults[:-1])


# ---------------------------------------------------------------------------
# CSV persistence: exactness against the per-value writer, malformed files
# ---------------------------------------------------------------------------


def _per_value_save(dataset, directory):
    """The writer save_dataset replaced, one f-string per value: the byte oracle."""
    directory.mkdir()
    with open(directory / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataset.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    d = dataset.n_features
    header = ",".join([f"f{i}" for i in range(d)] + ["label", "env_id"])
    for env_id in dataset.environment_ids:
        with open(directory / f"env_{env_id}.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for i in dataset.env_indices(env_id):
                row = [f"{v:.17g}" for v in dataset.features[i]]
                row += [str(int(dataset.labels[i])), str(int(dataset.env_ids[i]))]
                fh.write(",".join(row) + "\n")


_EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e23, 3.0, -7.0, 1e16]


def _edge_dataset(tiles=1):
    values = np.tile(_EDGE_VALUES, tiles)
    features = np.stack([values, -values[::-1], values * 1e-300, np.roll(values, 4)], axis=1)
    n = features.shape[0]
    manifest = {
        "n_features": 4,
        "num_classes": 3,
        "environments": [{"id": 0, "name": "a", "params": {}}, {"id": 2, "name": "b", "params": {}}],
    }
    env_ids = np.where(np.arange(n) % 3 == 1, 2, 0)
    return EnvDataset(features, np.arange(n) % 3, env_ids, manifest)


_SAVE_CASES = {
    "multienv": lambda: gen_multienv_task(4, 4, 3, 1.0, n_per_env=60, seed=18, n_inert=2),
    "multi-block": lambda: gen_redundant_features(3, 9000, 0.1, seed=21),  # one env over three write blocks
    "edge-values": _edge_dataset,
    # above the pool threshold: formatted by worker processes
    "pooled-multienv": lambda: gen_multienv_task(3, 4, 3, 1.0, n_per_env=4500, seed=22, n_inert=2),
    "pooled-edge-values": lambda: _edge_dataset(tiles=datasets._POOL_MIN_ROWS // len(_EDGE_VALUES) + 1),
}


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a dataset at or below the pool threshold started a process pool")


@pytest.mark.parametrize("case", list(_SAVE_CASES))
def test_save_matches_per_value_writer_bytes_and_round_trips_bitwise(tmp_path, monkeypatch, case):
    ds = _SAVE_CASES[case]()
    if case.startswith("pooled"):
        assert ds.labels.size > datasets._POOL_MIN_ROWS
        assert all(ds.env_indices(e).size > datasets._BLOCK_ROWS for e in ds.environment_ids)
        monkeypatch.setattr(datasets, "_cpus", lambda: 2)  # workers format the blocks on a 1-CPU host too
    else:  # formatted inline: no process starts
        assert ds.labels.size <= datasets._POOL_MIN_ROWS
        monkeypatch.setattr(datasets, "ProcessPoolExecutor", _refuse_pool)
    save_dataset(ds, tmp_path / "new")
    _per_value_save(ds, tmp_path / "oracle")
    names = sorted(p.name for p in (tmp_path / "oracle").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes(), name
    back = load_dataset(tmp_path / "new")
    order = np.concatenate([ds.env_indices(e) for e in ds.environment_ids])
    np.testing.assert_array_equal(back.features.view(np.int64), ds.features[order].view(np.int64))
    np.testing.assert_array_equal(back.labels, ds.labels[order])
    np.testing.assert_array_equal(back.env_ids, ds.env_ids[order])
    assert back.features.flags.c_contiguous


def test_save_pool_has_one_worker_per_usable_cpu(tmp_path, monkeypatch):
    started = []
    real = datasets.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(datasets, "ProcessPoolExecutor", recording)
    ds = _SAVE_CASES["pooled-multienv"]()
    for cpus in (3, 1):
        monkeypatch.setattr(datasets, "_cpus", lambda cpus=cpus: cpus)
        save_dataset(ds, tmp_path / str(cpus))
    assert started == [3]  # one CPU formats inline
    assert _dir_checksum(tmp_path / "3") == _dir_checksum(tmp_path / "1")


def test_save_pool_workers_import_no_module(tmp_path):
    # a fresh interpreter loads a dataset above the pool threshold and saves it through its pool
    save_dataset(_SAVE_CASES["pooled-multienv"](), tmp_path / "ds")
    code = ("datasets = sys.modules['finedrop.datasets']; datasets._cpus = lambda: 2; "
            f"datasets.save_dataset(datasets.load_dataset({str(tmp_path / 'ds')!r}), {str(tmp_path / 'new')!r})")
    calls = pool_worker_imports("finedrop.datasets", "_format_pooled_block", code, tmp_path / "log")
    assert len(calls) == 3 * 2  # three environments of 4500 rows, two blocks each
    assert all(ran for ran, _ in calls)
    assert [imported for _, imported in calls] == [[]] * len(calls)


def test_save_pool_worker_that_dies_raises_run_error(tmp_path, monkeypatch):
    caller, format_block = os.getpid(), datasets._format_block

    def dies_in_a_worker(*args):
        if os.getpid() != caller:
            os._exit(1)
        return format_block(*args)

    monkeypatch.setattr(datasets, "_format_block", dies_in_a_worker)
    monkeypatch.setattr(datasets, "_cpus", lambda: 2)
    with pytest.raises(RunError, match="^a save pool worker died: "):
        save_dataset(_SAVE_CASES["pooled-multienv"](), tmp_path / "ds")


def test_header_only_env_file_loads_as_empty_environment(tmp_path):
    ds = gen_multienv_task(3, 2, 2, 1.0, n_per_env=5, seed=19, n_inert=0)
    save_dataset(ds, tmp_path / "ds")
    header = (tmp_path / "ds" / "env_1.csv").read_text().splitlines()[0]
    (tmp_path / "ds" / "env_1.csv").write_text(header + "\n")
    back = load_dataset(tmp_path / "ds")  # filterwarnings=error: a loadtxt warning would fail here
    assert back.counts_per_env() == {0: 5, 1: 0, 2: 5}
    assert back.features.shape == (10, 4)


def _write_tiny(directory, rows, n_features=2):
    directory.mkdir()
    manifest = {"n_features": n_features, "num_classes": 2,
                "environments": [{"id": 0, "name": "only", "params": {}}]}
    (directory / "manifest.json").write_text(json.dumps(manifest))
    (directory / "env_0.csv").write_text("f0,f1,label,env_id\n" + "".join(r + "\n" for r in rows))


@pytest.mark.parametrize("bad_row, needle", [
    ("0.5,1", "columns"),
    ("0.5,1,1,0,7", "columns"),
    ("0.5,abc,1,0", "abc"),
    ("0.5,1,1.0,0", "1.0"),
    ("0.5,1,1,x", "'x'"),
    ("", "empty line"),
], ids=["short-row", "long-row", "non-numeric-feature", "non-integer-label", "non-integer-env-id",
        "empty-line"])
def test_malformed_row_raises_format_error_naming_file(tmp_path, bad_row, needle):
    _write_tiny(tmp_path / "ds", [bad_row, "-3,0.75,0,0"])
    with pytest.raises(FormatError) as exc:
        load_dataset(tmp_path / "ds")
    assert "env_0.csv" in str(exc.value)
    assert needle in str(exc.value)


@pytest.mark.parametrize("n_features", [-1, "abc", 2.5, True])
def test_bad_manifest_feature_count_raises_format_error(tmp_path, n_features):
    _write_tiny(tmp_path / "ds", ["0.5,1,1,0"], n_features)
    with pytest.raises(FormatError, match="n_features"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("entry", [{"name": "a"}, {"id": "0"}, {"id": True}, {"id": 0.0}, 0, None],
                         ids=["no-id", "string-id", "bool-id", "float-id", "not-an-object", "null"])
def test_manifest_environment_without_integer_id_raises_format_error(tmp_path, entry):
    _write_tiny(tmp_path / "ds", ["0.5,1,1,0"])
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    manifest["environments"].append(entry)
    (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="manifest.json: environment .* needs an integer 'id'"):
        load_dataset(tmp_path / "ds")


def test_manifest_listing_an_environment_twice_raises_format_error(tmp_path):
    _write_tiny(tmp_path / "ds", ["0.5,1,1,0"])
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    manifest["environments"] *= 2
    (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="manifest.json: environment id 0 is listed twice"):
        load_dataset(tmp_path / "ds")


def test_env_id_from_another_file_raises_format_error(tmp_path):
    ds = gen_multienv_task(2, 2, 2, 1.0, n_per_env=4, seed=20, n_inert=0)
    save_dataset(ds, tmp_path / "ds")
    path = tmp_path / "ds" / "env_1.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        load_dataset(tmp_path / "ds")
    assert "env_1.csv" in str(exc.value)
    assert "data row 3 has env_id 0, expected 1" in str(exc.value)


# ---------------------------------------------------------------------------
# Block-wise loading: memory, block offsets, edge lines
# ---------------------------------------------------------------------------


def test_load_peaks_at_the_arrays_plus_about_one_block(tmp_path):
    ds = gen_multienv_task(3, 12, 4, 1.0, n_per_env=5000, seed=23, n_inert=2)  # two blocks per env file
    save_dataset(ds, tmp_path / "ds")
    load_dataset(tmp_path / "ds")  # first calls import and cache what they need; that is not the data
    tracemalloc.start()
    try:
        back = load_dataset(tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = back.features.nbytes + back.labels.nbytes + back.env_ids.nbytes
    block = datasets._BLOCK_ROWS * (ds.n_features + 2) * 8  # one block of loadtxt's row records
    assert data == 15000 * 20 * 8
    assert peak < data + 1.5 * block, (peak, data, block)  # a whole-file parse plus copy peaks at about 2x


def _long_env_dir(tmp_path):
    """A two-env dataset whose env_1.csv spans two load blocks, and env_1.csv's lines (header first)."""
    ds = gen_multienv_task(2, 2, 2, 1.0, n_per_env=datasets._BLOCK_ROWS + 1000, seed=24, n_inert=0)
    save_dataset(ds, tmp_path / "ds")
    return ds, tmp_path / "ds" / "env_1.csv", (tmp_path / "ds" / "env_1.csv").read_text().splitlines()


# data row 4500 sits in the second block; every row error names the file's 1-based data row
@pytest.mark.parametrize("edit, where", [
    (lambda row: "abc," + row.split(",", 1)[1],
     "data row 4500, column 1: could not convert string 'abc' to float64"),
    (lambda row: row.rsplit(",", 1)[0], "data row 4500 has 5 columns, expected 6"),
], ids=["non-numeric-feature", "short-row"])
def test_malformed_row_past_the_first_block_names_its_file_row(tmp_path, edit, where):
    _, path, lines = _long_env_dir(tmp_path)
    lines[4500] = edit(lines[4500])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        load_dataset(tmp_path / "ds")
    assert str(exc.value) == f"{path}: {where}"


@pytest.mark.parametrize("bad_row, where", [
    ("0.5,abc,1,0", "data row 2, column 2: could not convert string 'abc' to float64"),
    ("0.5,1,1.5,0", "data row 2, column 3: could not convert string '1.5' to int64"),
    ("0.5,1", "data row 2 has 2 columns, expected 4"),
    ("0.5,1,1,0,7", "data row 2 has 5 columns, expected 4"),
    ("0.5,1,1,1", "data row 2 has env_id 1, expected 0"),
], ids=["non-numeric-feature", "non-integer-label", "short-row", "long-row", "stray-env-id"])
def test_every_row_error_counts_data_rows_from_one(tmp_path, bad_row, where):
    # a blank line is not a data row, so the bad row is data row 2 of any kind of error
    _write_tiny(tmp_path / "ds", ["-3,0.75,0,0", "", bad_row, "1,2,1,0"])
    with pytest.raises(FormatError) as exc:
        load_dataset(tmp_path / "ds")
    assert str(exc.value) == f"{tmp_path / 'ds' / 'env_0.csv'}: {where}"


def test_an_unrecognized_row_error_names_its_block():
    # a loadtxt message of neither known form passes through, saying where its block's rows start
    assert datasets._row_error("bad line at row 403", 4096) == (
        "bad line at row 403 (rows counted within the block from data row 4097)")


def test_env_id_past_the_first_block_names_its_file_row(tmp_path):
    _, path, lines = _long_env_dir(tmp_path)
    lines[4500] = lines[4500].rsplit(",", 1)[0] + ",0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        load_dataset(tmp_path / "ds")
    assert str(exc.value) == f"{path}: data row 4500 has env_id 0, expected 1"


@pytest.mark.parametrize("text", [
    lambda lines: "\n".join(lines[:9] + ["", ""] + lines[9:]) + "\n",
    lambda lines: "\n".join(lines[:datasets._BLOCK_ROWS + 1] + [""] + lines[datasets._BLOCK_ROWS + 1:]) + "\n",
    lambda lines: "\n".join(lines) + "\n\n\n\n",
    lambda lines: "\n".join(lines),
], ids=["blank-lines-mid-file", "blank-line-at-a-block-edge", "blank-lines-at-the-end", "no-final-newline"])
def test_edge_lines_load_as_the_plain_file_does(tmp_path, text):
    ds, path, lines = _long_env_dir(tmp_path)
    path.write_text(text(lines))
    back = load_dataset(tmp_path / "ds")  # filterwarnings=error: loadtxt's max_rows warning would fail here
    np.testing.assert_array_equal(back.features.view(np.int64), ds.features.view(np.int64))
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.env_ids, ds.env_ids)
