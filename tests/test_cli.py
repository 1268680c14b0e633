import hashlib
import json
import os

import pytest

from finedrop.cli import main, parse_config_file
from finedrop.errors import ValidationError


def _checksum_tree(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """A tiny end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "task"
    corpus = root / "corpus"
    ckpt = root / "trunk.ckpt"
    assert main([
        "gen-data", "--task", "multienv", "--envs", "3", "--n-core", "4", "--n-inert", "0",
        "--n-spurious", "2", "--flip", "1.0", "--n-per-env", "90", "--seed", "5",
        "--out", str(data),
    ]) == 0
    assert main([
        "gen-data", "--task", "pretrain", "--rich", "--size", "1500", "--seed", "5",
        "--out", str(corpus),
    ]) == 0
    # corpus has 18 features vs task's 6, so pretrain a matching tiny trunk
    small_corpus = root / "corpus6"
    assert main([
        "gen-data", "--task", "redundant", "--n-features", "6", "--n-samples", "400",
        "--seed", "2", "--out", str(small_corpus),
    ]) == 0
    assert main([
        "pretrain", "--data", str(small_corpus), "--out", str(ckpt), "--width", "8",
        "--depth", "1", "--iterations", "60", "--batch-size", "16", "--seed", "3",
    ]) == 0
    return {"root": root, "data": data, "corpus": corpus, "ckpt": ckpt}


def test_gen_data_is_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        assert main([
            "gen-data", "--task", "redundant", "--n-features", "8", "--seed", "7",
            "--n-samples", "50", "--out", str(tmp_path / name),
        ]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    sum_a = out[0].split()[1]
    sum_b = out[1].split()[1]
    assert sum_a == sum_b
    assert _checksum_tree(tmp_path / "a") == _checksum_tree(tmp_path / "b")


def test_gen_data_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--task", "redundant"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_gen_data_multienv_has_env_csvs(tmp_path):
    assert main([
        "gen-data", "--task", "multienv", "--envs", "4", "--n-per-env", "30",
        "--out", str(tmp_path / "envs"),
    ]) == 0
    files = sorted(os.listdir(tmp_path / "envs"))
    assert files == ["env_0.csv", "env_1.csv", "env_2.csv", "env_3.csv", "manifest.json"]


def test_finetune_dropout_one_rejected(pipeline_dirs, tmp_path, capsys):
    code = main([
        "finetune", "--data", str(pipeline_dirs["data"]), "--scratch", "--width", "8",
        "--depth", "1", "--test-env", "2", "--dropout", "1.0", "--iterations", "40",
        "--out", str(tmp_path / "ft"),
    ])
    assert code == 2
    assert "dropout" in capsys.readouterr().err


def test_finetune_rate_zero_reports_erm_recipe(pipeline_dirs, tmp_path, capsys):
    code = main([
        "finetune", "--data", str(pipeline_dirs["data"]), "--scratch", "--width", "8",
        "--depth", "1", "--test-env", "2", "--dropout", "0.0", "--iterations", "40",
        "--batch-size", "16", "--checkpoint-interval", "20", "--seed", "1",
        "--out", str(tmp_path / "ft"),
    ])
    assert code == 0
    assert "recipe=erm" in capsys.readouterr().out
    runs = (tmp_path / "ft" / "runs.jsonl").read_text().strip().splitlines()
    assert len(runs) == 1
    payload = json.loads(runs[0])
    assert payload["recipe"] == "erm" and payload["dropout_rate"] == 0.0
    assert (tmp_path / "ft" / "best.ckpt").exists()


def _sweep_args(pipeline_dirs, out, extra=()):
    tiny_task = pipeline_dirs["root"] / "tinytask"
    if not tiny_task.exists():
        assert main([
            "gen-data", "--task", "multienv", "--envs", "3", "--n-core", "3",
            "--n-inert", "1", "--n-spurious", "2", "--flip", "1.0", "--n-per-env", "60",
            "--seed", "9", "--out", str(tiny_task),
        ]) == 0
        ckpt6 = pipeline_dirs["root"] / "trunk6.ckpt"
        corpus6 = pipeline_dirs["root"] / "smallcorpus6"
        assert main([
            "gen-data", "--task", "redundant", "--n-features", "6", "--n-samples", "300",
            "--seed", "4", "--out", str(corpus6),
        ]) == 0
        assert main([
            "pretrain", "--data", str(corpus6), "--out", str(ckpt6), "--width", "8",
            "--depth", "1", "--iterations", "40", "--batch-size", "16", "--seed", "3",
        ]) == 0
    return [
        "sweep", "--data", str(tiny_task), "--start", str(pipeline_dirs["root"] / "trunk6.ckpt"),
        "--out", str(out), "--recipes", "erm,dropout90", "--lrs", "1e-2,5e-3",
        "--wds", "1e-4,5e-5,1e-5", "--seeds", "1", "--splits", "0", "--iterations", "60",
        "--batch-size", "16", "--checkpoint-interval", "20", *extra,
    ]


def test_sweep_grid_is_two_by_three(pipeline_dirs, tmp_path):
    out = tmp_path / "sweep"
    assert main(_sweep_args(pipeline_dirs, out)) == 0
    runs = [json.loads(l) for l in (out / "runs.jsonl").read_text().strip().splitlines()]
    assert len(runs) == 12  # 6 grid points x 2 recipes x 1 split x 1 seed
    per_recipe = {r: sorted(x["grid_index"] for x in runs if x["recipe"] == r)
                  for r in ("erm", "dropout90")}
    assert per_recipe["erm"] == per_recipe["dropout90"] == [0, 1, 2, 3, 4, 5]


def test_sweep_rerun_and_parallel_are_byte_identical(pipeline_dirs, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    assert main(_sweep_args(pipeline_dirs, out1, ["--parallel", "1"])) == 0
    assert main(_sweep_args(pipeline_dirs, out2, ["--parallel", "1"])) == 0
    assert main(_sweep_args(pipeline_dirs, out3, ["--parallel", "4"])) == 0
    assert _checksum_tree(out1) == _checksum_tree(out2) == _checksum_tree(out3)


def test_sweep_config_file_with_flag_override(pipeline_dirs, tmp_path):
    out_flag = tmp_path / "viaflag"
    out_file = tmp_path / "viafile"
    cfg = tmp_path / "sweep.cfg"
    tiny_task = pipeline_dirs["root"] / "tinytask"
    cfg.write_text(
        "# sweep config\n"
        f"data = {tiny_task}\n"
        f"start = {pipeline_dirs['root'] / 'trunk6.ckpt'}\n"
        f"out = {out_file}\n"
        "recipes = erm\n"
        "lrs = 1e-2\n"
        "wds = 1e-4\n"
        "seeds = 1\n"
        "splits = 0\n"
        "iterations = 60\n"
        "batch_size = 16\n"
        "checkpoint_interval = 20\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out_flag)]) == 0
    assert (out_file / "runs.jsonl").read_text() == (out_flag / "runs.jsonl").read_text()


def test_finetune_trains_at_exact_flag_values(pipeline_dirs, tmp_path, capsys):
    code = main([
        "finetune", "--data", str(pipeline_dirs["data"]), "--scratch", "--width", "8",
        "--depth", "1", "--test-env", "2", "--dropout", "0.123456789",
        "--head-lr-mult", "1.23456789", "--iterations", "40", "--batch-size", "16",
        "--checkpoint-interval", "20", "--out", str(tmp_path / "ft"),
    ])
    assert code == 0
    (line,) = (tmp_path / "ft" / "runs.jsonl").read_text().splitlines()
    payload = json.loads(line)
    assert payload["dropout_rate"] == 0.123456789
    assert payload["head_lr_mult"] == 1.23456789
    assert payload["recipe"] == "dropout12.3456789+headlr1.23456789"


def test_sweep_head_lr_mult_reaches_runs_via_flag_and_config(pipeline_dirs, tmp_path):
    knobs = ["--recipes", "erm,dropout90,dropout90+headlr2", "--lrs", "1e-2", "--wds", "1e-4"]
    assert main(_sweep_args(pipeline_dirs, tmp_path / "flag", knobs + ["--head-lr-mult", "10"])) == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("head_lr_mult = 10\n")
    assert main(_sweep_args(pipeline_dirs, tmp_path / "file", knobs + ["--config", str(cfg)])) == 0
    for out in ("flag", "file"):
        runs = [json.loads(l) for l in (tmp_path / out / "runs.jsonl").read_text().splitlines()]
        mults = {r["recipe"]: r["head_lr_mult"] for r in runs}
        assert mults == {"erm": 10.0, "dropout90": 10.0, "dropout90+headlr2": 2.0}
    assert (tmp_path / "flag" / "runs.jsonl").read_bytes() == (tmp_path / "file" / "runs.jsonl").read_bytes()


@pytest.mark.parametrize("extra, needle", [
    (["--splits", "9"], "out of range"),
    (["--splits", "-1"], "out of range"),
    (["--splits", "0,0"], "repeat"),
    (["--seeds", "1,1"], "repeat"),
    (["--recipes", "erm,dropout0"], "repeat"),
    (["--lrs", "abc"], "lrs"),
    (["--lrs", "1e-2,0"], "lr must be positive"),
    (["--seeds", "1.5"], "seeds"),
    (["--recipes", "erm,headlrnan"], "headlrnan"),
    (["--parallel", "0"], "parallel"),
])
def test_sweep_rejects_bad_knobs(pipeline_dirs, tmp_path, capsys, extra, needle):
    out = tmp_path / "bad"
    assert main(_sweep_args(pipeline_dirs, out, extra)) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "iterations = abc", "lrs = abc", "head_lr_mult = ten", "pool_seeds = maybe",
])
def test_sweep_config_file_bad_values_exit_2(pipeline_dirs, tmp_path, capsys, line):
    _sweep_args(pipeline_dirs, tmp_path)  # makes the tiny task and trunk
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data = {pipeline_dirs['root'] / 'tinytask'}\n"
                   f"start = {pipeline_dirs['root'] / 'trunk6.ckpt'}\n" + line + "\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert line.split()[0] in err and "Traceback" not in err


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(ValidationError) as exc:
        parse_config_file(str(cfg))
    assert "nonsense" in str(exc.value)


def test_report_from_sweep_results(pipeline_dirs, tmp_path, capsys):
    out = tmp_path / "sweepres"
    assert main(_sweep_args(pipeline_dirs, out)) == 0
    report_dir = tmp_path / "report"
    assert main(["report", "--results", str(out), "--out", str(report_dir)]) == 0
    text = (report_dir / "report.md").read_text()
    assert "| split |" in text and "dropout" in text
    assert (report_dir / "quartiles.csv").exists()
    # byte-identical on re-run
    report_dir2 = tmp_path / "report2"
    assert main(["report", "--results", str(out), "--out", str(report_dir2)]) == 0
    assert _checksum_tree(report_dir) == _checksum_tree(report_dir2)


def test_report_empty_dir_exits_2(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path), "--out", str(tmp_path / "r")]) == 2
    assert "error" in capsys.readouterr().err


def test_output_root_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FINEDROP_OUTPUT_ROOT", str(tmp_path))
    assert main([
        "gen-data", "--task", "redundant", "--n-features", "4", "--n-samples", "20",
        "--seed", "1", "--out", "nested/data",
    ]) == 0
    assert (tmp_path / "nested" / "data" / "manifest.json").exists()


def test_malformed_dataset_value_exits_2_naming_file(tmp_path, capsys):
    data = tmp_path / "task"
    assert main(["gen-data", "--task", "redundant", "--n-features", "4", "--n-samples", "20",
                 "--seed", "1", "--out", str(data)]) == 0
    path = data / "env_0.csv"
    lines = path.read_text().splitlines()
    lines[5] = "abc" + lines[5][lines[5].index(","):]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
                 "--iterations", "5", "--width", "4", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "env_0.csv" in err and "'abc'" in err
    assert "Traceback" not in err
