import json

import pytest

from finedrop.errors import ValidationError
from finedrop.report import METHOD_COLUMNS, build_report, load_results, render_markdown, write_report


def _run(recipe, split, grid, seed, iid, ood, variants=None):
    return {
        "schema_version": 1,
        "run_id": f"s{split}-{recipe}-g{grid}-seed{seed}",
        "recipe": recipe,
        "split_index": split,
        "test_env": split,
        "train_envs": [e for e in range(2) if e != split],
        "grid_index": grid,
        "lr": 0.01,
        "weight_decay": 0.0,
        "dropout_rate": 0.9 if "dropout" in recipe else 0.0,
        "head_lr_mult": 1.0,
        "iterations": 100,
        "batch_size": 16,
        "checkpoint_interval": 50,
        "seed": seed,
        "status": "ok",
        "error": None,
        "error_iteration": None,
        "trail": [{"iteration": 50, "iid_val_acc": iid}],
        "best_iteration": 50,
        "best_iid_val_acc": iid,
        "ood_acc": ood,
        "variants": variants or {},
    }


def _sweep_dir(tmp_path, name, runs, summary):
    d = tmp_path / name
    d.mkdir()
    with open(d / "runs.jsonl", "w") as fh:
        for r in runs:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    with open(d / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True)
    return d


@pytest.fixture
def toy_results(tmp_path):
    variants_a = {"wa_single": {"iid": 0.91, "ood": 0.81}, "ensemble_single": {"iid": 0.92, "ood": 0.82}}
    variants_b = {"wa_single": {"iid": 0.95, "ood": 0.85}, "ensemble_single": {"iid": 0.90, "ood": 0.80}}
    runs = [
        _run("erm", 0, 0, 1, iid=0.90, ood=0.70, variants=variants_a),
        _run("erm", 0, 1, 1, iid=0.95, ood=0.60, variants=variants_b),
        _run("dropout90", 0, 0, 1, iid=0.97, ood=0.90),
        _run("dropout90", 0, 1, 1, iid=0.96, ood=0.88),
    ]
    summary = {
        "schema_version": 1,
        "meta": {
            "provenance": "pretrained-rich",
            "recipes": ["erm", "dropout90"],
            "grid": [[0.01, 0.0], [0.005, 0.0]],
            "seeds": [1],
            "pool_seeds": False,
            "splits": [{"index": 0, "test_env": 0, "train_envs": [1]}],
            "base_config": {"total_iterations": 100, "batch_size": 16, "holdout_fraction": 0.2},
        },
        "selected": {
            "erm": {"0": {"run_id": runs[1]["run_id"], "iid": 0.95, "ood": 0.60, "variants": variants_b}},
            "dropout90": {"0": {"run_id": runs[2]["run_id"], "iid": 0.97, "ood": 0.90, "variants": {}}},
        },
        "aggregate_ood": {"erm": 0.60, "dropout90": 0.90},
        "quartiles": {},
        "multi_run": {
            "erm": {"0": {"1": {"wa": {"iid": 0.9, "ood": 0.75}, "ensemble": {"iid": 0.9, "ood": 0.77}}}},
            "dropout90": {},
        },
    }
    _sweep_dir(tmp_path, "sweepA", runs, summary)
    return tmp_path


def test_load_results_requires_files(tmp_path):
    with pytest.raises(ValidationError):
        load_results(tmp_path)


def test_method_table_column_order_and_selection(toy_results):
    bundle = build_report(load_results(toy_results))
    assert len(bundle.method_tables) == 1
    rows = bundle.method_tables[0]["rows"]
    assert list(rows[0].keys()) == ["split"] + METHOD_COLUMNS
    row0 = rows[0]
    assert row0["erm"] == 0.60  # the selected run's ood
    # wa_single picks the grid point with the best wa_single iid (0.95 -> ood 0.85)
    assert row0["wa_single"] == 0.85
    # ensemble_single picks its own best iid (0.92 -> ood 0.82)
    assert row0["ensemble_single"] == 0.82
    assert row0["dropout"] == 0.90
    assert row0["wa_multi"] == 0.75
    assert row0["ensemble_multi"] == 0.77


def test_single_run_arm_columns_break_ties_as_select_best(toy_results):
    # every run's arms tie on iid, so the arm columns fall to the tie rule:
    # lowest grid index, then lowest seed, as select_best breaks a tie
    from types import SimpleNamespace

    from finedrop.protocol import select_best

    sweep = load_results(toy_results)[0]
    sweep["runs"] = [
        _run("erm", 0, grid, seed, iid=iid, ood=0.5,
             variants={arm: {"iid": 0.9, "ood": ood} for arm in ("wa_single", "ensemble_single")})
        for grid, seed, iid, ood in [(1, 0, 0.99, 0.11), (0, 2, 0.98, 0.22), (0, 1, 0.97, 0.33), (1, 1, 0.96, 0.44)]
    ]
    row0 = build_report([sweep]).method_tables[0]["rows"][0]
    for arm in ("wa_single", "ensemble_single"):
        chosen = select_best(SimpleNamespace(best_iid_val_acc=r["variants"][arm]["iid"], grid_index=r["grid_index"],
                                             seed=r["seed"], ood=r["variants"][arm]["ood"]) for r in sweep["runs"])
        assert (chosen.grid_index, chosen.seed) == (0, 1)
        assert row0[arm] == chosen.ood == 0.33


def test_rate_table_orders_rates(toy_results):
    bundle = build_report(load_results(toy_results))
    assert len(bundle.rate_tables) == 1
    rates = [r["rate"] for r in bundle.rate_tables[0]["rows"]]
    assert rates == [0.0, 0.9]
    # not a scratch sweep, so no scratch curve
    assert bundle.scratch_curves == []


def test_quartiles_recomputed_from_runs(toy_results):
    bundle = build_report(load_results(toy_results))
    erm_rows = [r for r in bundle.quartile_rows if r["recipe"] == "erm"]
    assert len(erm_rows) == 1
    # grid means are 0.70 and 0.60
    assert erm_rows[0]["min"] == 0.60 and erm_rows[0]["max"] == 0.70
    assert erm_rows[0]["median"] == pytest.approx(0.65)
    assert "seed1" in erm_rows[0]["run_ids"]


def test_markdown_has_fixed_method_header(toy_results):
    bundle = build_report(load_results(toy_results))
    text = render_markdown(bundle)
    assert "| split | erm | wa_single | ensemble_single | dropout | wa_multi | ensemble_multi |" in text


def test_write_report_emits_quartile_csv(toy_results, tmp_path):
    bundle = build_report(load_results(toy_results))
    out = tmp_path / "out"
    written = write_report(bundle, out)
    names = {p.split("/")[-1] for p in map(str, written)}
    assert "report.md" in names and "quartiles.csv" in names
    header = (out / "quartiles.csv").read_text().splitlines()[0]
    assert header == "sweep,recipe,min,q25,median,q75,max,run_ids"


class _Unprintable:
    def __str__(self):
        raise RuntimeError("unprintable cell")


def test_write_report_replaces_each_file_whole(toy_results, tmp_path):
    # a CSV write that fails after its header and first rows leaves the
    # earlier file as it was and no temporary file behind
    bundle = build_report(load_results(toy_results))
    out = tmp_path / "out"
    write_report(bundle, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(bundle.quartile_rows) > 1
    bundle.quartile_rows[-1]["run_ids"] = _Unprintable()
    with pytest.raises(RuntimeError, match="unprintable cell"):
        write_report(bundle, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _recipe_sweep(tmp_path, name, recipes):
    runs = [_run(r, 0, 0, 1, iid=0.9, ood=0.5 + 0.01 * i) for i, r in enumerate(recipes)]
    summary = {
        "schema_version": 1,
        "meta": {
            "provenance": "pretrained-rich",
            "recipes": list(recipes),
            "grid": [[0.01, 0.0]],
            "seeds": [1],
            "pool_seeds": False,
            "splits": [{"index": 0, "test_env": 0, "train_envs": [1]}],
            "base_config": {"total_iterations": 100, "batch_size": 16, "holdout_fraction": 0.2},
        },
        "selected": {
            r["recipe"]: {"0": {"run_id": r["run_id"], "iid": 0.9, "ood": r["ood_acc"], "variants": {}}}
            for r in runs
        },
        "aggregate_ood": {r["recipe"]: r["ood_acc"] for r in runs},
        "quartiles": {},
        "multi_run": {},
    }
    _sweep_dir(tmp_path, name, runs, summary)
    return {r["recipe"]: r["ood_acc"] for r in runs}


@pytest.mark.parametrize("recipes, curve, column", [
    # headlrN recipes change more than the rate: in neither the curve nor the column
    (["erm", "dropout0", "headlr10", "dropout90+headlr10"], ["erm", "dropout0"], None),
    (["erm", "dropout50", "headlr10", "dropout90+headlr10"], ["erm", "dropout50"], "dropout50"),
    (["erm", "dropout50", "dropout90", "dropout90+headlr10"], ["erm", "dropout50", "dropout90"],
     "dropout90"),
])
def test_rate_curve_and_dropout_column_recipes(tmp_path, recipes, curve, column):
    ood = _recipe_sweep(tmp_path, "sweep", recipes)
    bundle = build_report(load_results(tmp_path))
    assert [r["recipe"] for r in bundle.rate_tables[0]["rows"]] == curve
    assert bundle.method_tables[0]["rows"][0]["dropout"] == (ood[column] if column else None)
