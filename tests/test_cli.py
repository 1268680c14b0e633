import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from finedrop.cli import build_parser, main, parse_config_file
from finedrop.datasets import HOLDOUT_FRACTION, N_CORE, N_GIVEAWAY, N_SPURIOUS, load_dataset
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


@pytest.mark.parametrize("key, value, flag", [
    ("holdout", "0.3", ["--holdout", "0.3"]),
    ("pool_seeds", "true", ["--pool-seeds"]),
    ("splits", "1", ["--splits", "1"]),
    ("parallel", "2", ["--parallel", "2"]),
    ("checkpoint_interval", "30", ["--checkpoint-interval", "30"]),
])
def test_sweep_config_file_value_equals_its_flag(pipeline_dirs, tmp_path, key, value, flag):
    _sweep_args(pipeline_dirs, tmp_path)  # makes the tiny task and trunk
    root, shared = pipeline_dirs["root"], {"splits": "0", "checkpoint_interval": "20", "wds": "1e-4"}
    for how, lines, extra in (("flag", shared, flag), ("file", {**shared, key: value}, [])):
        cfg = tmp_path / f"{how}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["sweep", "--config", str(cfg), "--data", str(root / "tinytask"),
                     "--start", str(root / "trunk6.ckpt"), "--out", str(tmp_path / how),
                     "--recipes", "dropout90", "--lrs", "1e-2,5e-3", "--seeds", "1,2",
                     "--iterations", "60", "--batch-size", "16", *extra]) == 0
    for name in ("runs.jsonl", "summary.json"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


def test_config_keys_are_the_sweep_option_dests(tmp_path):
    defaults = vars(build_parser().parse_args(["sweep"]))
    dests = set(defaults) - {"command", "func", "config"}
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(f"{k} = {7 if defaults[k] is None else defaults[k]}\n" for k in sorted(dests)))
    parsed = parse_config_file(str(cfg))
    assert set(parsed) == dests
    # each value is converted by its option's type, so a file of the defaults parses back to them
    assert {k: v for k, v in parsed.items() if defaults[k] is not None} == {
        k: defaults[k] for k in dests if defaults[k] is not None}
    cfg.write_text("config = other.cfg\n")
    with pytest.raises(ValidationError, match="unknown key 'config'"):
        parse_config_file(str(cfg))


@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_help_shows_the_run_option_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "rows per step (default: 32)" in text and "(default: 0.2)" in text


def test_layout_and_holdout_defaults_are_the_datasets_constants(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gen-data", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag, what, value in (("N_CORE", "invariant feature count", N_CORE),
                              ("N_INERT", "label-free columns", N_GIVEAWAY),
                              ("N_SPURIOUS", "shortcut feature count", N_SPURIOUS)):
        assert f"{flag} multienv: {what} (default: {value})" in text
    parser = build_parser()
    assert parser.parse_args(["sweep"]).holdout == HOLDOUT_FRACTION
    assert parser.parse_args(["finetune", "--data", "d", "--test-env", "0", "--out", "o"]).holdout == HOLDOUT_FRACTION
    # a default-layout task lives in the rich corpus's feature space
    for task, extra in (("multienv", ["--n-per-env", "5"]), ("pretrain", ["--rich", "--size", "5"])):
        assert main(["gen-data", "--task", task, *extra, "--out", str(tmp_path / task)]) == 0
        assert load_dataset(tmp_path / task).n_features == N_CORE + N_GIVEAWAY + N_SPURIOUS == 18


@pytest.mark.parametrize("task, extra, flag", [
    ("multienv", ["--n-features", "99", "--rich", "--size", "5", "--label-noise", "0.3",
                  "--missing", "0,1"], "--n-features"),
    ("xor", ["--size", "50000"], "--size"),  # refused even at its default
    ("pretrain", ["--envs", "2"], "--envs"),
    ("redundant", ["--rich"], "--rich"),
    ("xor", ["--n-core", "3"], "--n-core"),
])
def test_gen_data_refuses_flags_of_other_tasks(tmp_path, capsys, task, extra, flag):
    out = tmp_path / "data"
    assert main(["gen-data", "--task", task, "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert flag in err and f"--task {task}" in err and "Traceback" not in err
    assert not out.exists()
    # flags shared by two tasks are read by both
    assert main(["gen-data", "--task", "xor", "--envs", "2", "--n-per-env", "10", "--out", str(out)]) == 0


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


@pytest.mark.parametrize("environments, needle", [
    ([{"name": "a"}], "needs an integer 'id'"),
    ([{"id": 0}, {"id": 0}], "environment id 0 is listed twice"),
], ids=["missing-id", "duplicate-id"])
def test_bad_manifest_environment_exits_2_naming_manifest(tmp_path, capsys, environments, needle):
    data = tmp_path / "task"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"n_features": 2, "environments": environments}))
    (data / "env_0.csv").write_text("f0,f1,label,env_id\n0.5,1,1,0\n")
    code = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "t.ckpt"),
                 "--iterations", "5", "--width", "4", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "manifest.json" in err and needle in err
    assert "Traceback" not in err


def test_finetune_from_non_finite_checkpoint_exits_2_before_training(pipeline_dirs, tmp_path, capsys,
                                                                     monkeypatch):
    from finedrop import protocol

    raw = pipeline_dirs["ckpt"].read_bytes()
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    monkeypatch.setattr(protocol, "_train", lambda *args: pytest.fail("training started"))
    capsys.readouterr()
    code = main(["finetune", "--data", str(pipeline_dirs["data"]), "--start", str(bad),
                 "--test-env", "2", "--iterations", "40", "--batch-size", "16",
                 "--checkpoint-interval", "20", "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(bad) in err and "not finite" in err


def _total_one_short(header, body):
    header["total"] -= 1
    return body[:-8]


def _total_not_an_integer(header, body):
    header["total"] = "abc"
    return body


def _arch_without_width(header, body):
    del header["arch"]["width"]
    return body


def _width_a_float(header, body):
    header["arch"]["width"] = 8.0
    return body


@pytest.mark.parametrize("edit, needle", [
    (_total_one_short, "manifest total"),
    (_total_not_an_integer, "manifest total 'abc'"),
    (_arch_without_width, "manifest arch width must be an integer, got None"),
    (_width_a_float, "manifest arch width must be an integer, got 8.0"),
], ids=["total-one-short", "total-abc", "no-width", "width-float"])
def test_finetune_from_inconsistent_manifest_exits_2_before_training(pipeline_dirs, tmp_path, capsys,
                                                                     monkeypatch, edit, needle):
    line, body = pipeline_dirs["ckpt"].read_bytes().split(b"\n", 1)
    header = json.loads(line)
    body = edit(header, body)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    _no_training(monkeypatch)
    capsys.readouterr()
    code = main(["finetune", "--data", str(pipeline_dirs["data"]), "--start", str(bad),
                 "--test-env", "2", "--iterations", "40", "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err and "Traceback" not in err


def _no_training(monkeypatch):
    from finedrop import protocol

    monkeypatch.setattr(protocol, "_train", lambda *args: pytest.fail("training started"))


@pytest.mark.parametrize("extra, needle", [
    (["--scratch", "--block-hidden", "0"], "block_hidden must be >= 1"),
    (["--start", "CKPT", "--width", "64"], "apply only with --scratch"),
    (["--start", "CKPT", "--block-hidden", "4"], "apply only with --scratch"),
    (["--start", "CKPT", "--scratch"], "exactly one of --start CKPT and --scratch"),
], ids=["scratch-block-hidden-0", "start-width", "start-block-hidden", "start-scratch"])
def test_finetune_architecture_flags_that_cannot_apply_exit_2_before_training(
        pipeline_dirs, tmp_path, capsys, monkeypatch, extra, needle):
    _no_training(monkeypatch)
    extra = [str(pipeline_dirs["ckpt"]) if a == "CKPT" else a for a in extra]
    capsys.readouterr()
    code = main(["finetune", "--data", str(pipeline_dirs["data"]), "--test-env", "2",
                 "--iterations", "40", "--out", str(tmp_path / "ft"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert not (tmp_path / "ft").exists()


def test_finetune_scratch_architecture_defaults_are_pretrains(pipeline_dirs, tmp_path):
    pretrain = build_parser().parse_args(["pretrain", "--data", "D", "--out", "O"])
    assert main(["finetune", "--data", str(pipeline_dirs["data"]), "--scratch", "--test-env", "2",
                 "--iterations", "4", "--checkpoint-interval", "2", "--out", str(tmp_path / "ft")]) == 0
    with open(tmp_path / "ft" / "best.ckpt", "rb") as fh:
        arch = json.loads(fh.readline())["arch"]
    assert (arch["width"], arch["depth"]) == (pretrain.width, pretrain.depth)


def test_finetune_on_a_test_env_with_no_rows_exits_2_before_training(pipeline_dirs, tmp_path, capsys,
                                                                     monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(pipeline_dirs["data"], data)
    header = (data / "env_2.csv").read_text().splitlines()[0]
    (data / "env_2.csv").write_text(header + "\n")
    _no_training(monkeypatch)
    capsys.readouterr()
    code = main(["finetune", "--data", str(data), "--start", str(pipeline_dirs["ckpt"]),
                 "--test-env", "2", "--iterations", "40", "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "test env 2 has no rows" in err
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("extra, needle", [
    (["--block-hidden", "0"], "block_hidden must be >= 1"),
    (["--batch-size", "0"], "batch_size must be >= 1"),
], ids=["block-hidden-0", "batch-size-0"])
def test_pretrain_bad_settings_exit_2_before_training(pipeline_dirs, tmp_path, capsys, monkeypatch,
                                                      extra, needle):
    _no_training(monkeypatch)
    capsys.readouterr()
    code = main(["pretrain", "--data", str(pipeline_dirs["root"] / "corpus6"), "--out",
                 str(tmp_path / "t.ckpt"), "--width", "8", "--depth", "1", "--iterations", "5", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert not (tmp_path / "t.ckpt").exists()

