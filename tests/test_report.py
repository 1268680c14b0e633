import json
import os

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


def test_rate_table_orders_rates(toy_results, tmp_path):
    bundle = build_report(load_results(toy_results))
    assert len(bundle.rate_tables) == 1
    rates = [r["rate"] for r in bundle.rate_tables[0]["rows"]]
    assert rates == [0.0, 0.9]
    # not a scratch sweep, so no scratch curve
    write_report(bundle, tmp_path / "out")
    assert (tmp_path / "out" / "rate_curve_0.csv").exists()
    assert not (tmp_path / "out" / "scratch_curve.csv").exists()


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


def _pin_sweep(tmp_path, name, provenance, recipes, n_splits, runs, multi_run):
    """A sweep directory whose summary is derived from `runs` as a sweep derives it,
    except that a recipe with no ok run on a split has no selected entry there."""
    ok = [r for r in runs if r["status"] == "ok"]
    selected = {}
    for recipe in recipes:
        selected[recipe] = {}
        for split in range(n_splits):
            cands = [r for r in ok if r["recipe"] == recipe and r["split_index"] == split]
            if cands:
                best = max(cands, key=lambda r: (r["best_iid_val_acc"], -r["grid_index"], -r["seed"]))
                selected[recipe][str(split)] = {"run_id": best["run_id"], "iid": best["best_iid_val_acc"],
                                                "ood": best["ood_acc"], "variants": best["variants"]}
    summary = {
        "schema_version": 1,
        "meta": {
            "provenance": provenance,
            "recipes": list(recipes),
            "grid": [[0.01, 0.0], [0.005, 0.0]],
            "seeds": [1],
            "pool_seeds": False,
            "splits": [{"index": s, "test_env": s, "train_envs": [1 - s]} for s in range(n_splits)],
            "base_config": {"total_iterations": 100, "batch_size": 16, "holdout_fraction": 0.2},
        },
        "selected": selected,
        "aggregate_ood": {
            recipe: sum(e["ood"] for e in entries.values()) / len(entries)
            for recipe, entries in selected.items() if entries
        },
        "quartiles": {},
        "multi_run": multi_run,
    }
    _sweep_dir(tmp_path, name, runs, summary)


def _arms(wa_iid, wa_ood, ens_iid, ens_ood):
    return {"wa_single": {"iid": wa_iid, "ood": wa_ood}, "ensemble_single": {"iid": ens_iid, "ood": ens_ood}}


@pytest.fixture
def pin_results(tmp_path):
    """Two scratch sweeps and one from a pretrained trunk, with empty cells: dropout90
    has no ok run on sweep `a_scratch`'s split 1, erm's split 1 has no multi-run entry,
    and dropout50 has no ok run at all in sweep `b_scratch`."""
    root = tmp_path / "results"
    root.mkdir()
    failed = _run("dropout90", 1, 1, 1, iid=0.0, ood=0.0)
    failed.update(status="failed", error="loss is not finite (iteration 40)", error_iteration=40)
    _pin_sweep(root, "a_scratch", "scratch", ["erm", "dropout50", "dropout90", "dropout90+headlr10"], 2, [
        _run("erm", 0, 0, 1, iid=0.90, ood=0.70, variants=_arms(0.91, 0.72, 0.93, 0.74)),
        _run("erm", 0, 1, 1, iid=0.88, ood=0.66, variants=_arms(0.94, 0.68, 0.89, 0.71)),
        _run("erm", 1, 0, 1, iid=0.85, ood=0.40, variants=_arms(0.86, 0.45, 0.87, 0.43)),
        _run("erm", 1, 1, 1, iid=0.87, ood=0.35),
        _run("dropout50", 0, 0, 1, iid=0.92, ood=0.75, variants=_arms(0.92, 0.76, 0.95, 0.77)),
        _run("dropout50", 1, 0, 1, iid=0.86, ood=0.50),
        _run("dropout90", 0, 0, 1, iid=0.93, ood=0.81),
        _run("dropout90", 0, 1, 1, iid=0.93, ood=0.79),
        failed,
        _run("dropout90+headlr10", 0, 0, 1, iid=0.94, ood=0.83),
        _run("dropout90+headlr10", 1, 0, 1, iid=0.84, ood=0.55),
    ], {
        "erm": {"0": {"1": {"wa": {"iid": 0.9, "ood": 0.73}, "ensemble": {"iid": 0.91, "ood": 0.71}}}},
        "dropout90": {"0": {"1": {"wa": {"iid": 0.92, "ood": 0.8}}}},
    })
    never_ok = _run("dropout50", 0, 0, 1, iid=0.0, ood=0.0)
    never_ok.update(status="failed", error="loss is not finite (iteration 10)", error_iteration=10)
    _pin_sweep(root, "b_scratch", "scratch", ["dropout90", "erm", "dropout50"], 1, [
        _run("dropout90", 0, 0, 1, iid=0.97, ood=0.9),
        _run("erm", 0, 1, 1, iid=0.95, ood=0.6, variants=_arms(0.95, 0.85, 0.9, 0.8)),
        never_ok,
    ], {})
    _pin_sweep(root, "c_rich", "pretrained-rich", ["erm", "dropout90"], 1, [
        _run("erm", 0, 0, 1, iid=0.9, ood=0.7, variants=_arms(0.91, 0.81, 0.92, 0.82)),
        _run("dropout90", 0, 1, 1, iid=0.96, ood=0.88),
    ], {"erm": {"0": {"1": {"wa": {"iid": 0.9, "ood": 0.75}, "ensemble": {"iid": 0.9, "ood": 0.77}}}}})
    return root


# The report of `pin_results`, every file as the report wrote it before its
# tables, arm columns and cell rules were each written once.
PINNED_REPORT = {
    "report.md": """\
# Sweep report

## Methods (sweep `a_scratch`, trunk scratch)

| split | erm | wa_single | ensemble_single | dropout | wa_multi | ensemble_multi |
|---|---|---|---|---|---|---|
| 0 | 0.7000 | 0.6800 | 0.7400 | 0.8100 | 0.7300 | 0.7100 |
| 1 | 0.3500 | 0.4500 | 0.4300 | - | - | - |
| mean | 0.5250 | 0.5650 | 0.5850 | 0.8100 | 0.7300 | 0.7100 |

## Methods (sweep `b_scratch`, trunk scratch)

| split | erm | wa_single | ensemble_single | dropout | wa_multi | ensemble_multi |
|---|---|---|---|---|---|---|
| 0 | 0.6000 | 0.8500 | 0.8000 | 0.9000 | - | - |
| mean | 0.6000 | 0.8500 | 0.8000 | 0.9000 | - | - |

## Methods (sweep `c_rich`, trunk pretrained-rich)

| split | erm | wa_single | ensemble_single | dropout | wa_multi | ensemble_multi |
|---|---|---|---|---|---|---|
| 0 | 0.7000 | 0.8100 | 0.8200 | 0.8800 | 0.7500 | 0.7700 |
| mean | 0.7000 | 0.8100 | 0.8200 | 0.8800 | 0.7500 | 0.7700 |

## Dropout-rate sweep (sweep `a_scratch`, trunk scratch)

| rate | mean_iid | mean_ood |
|---|---|---|
| 0.00 | 0.8850 | 0.5250 |
| 0.50 | 0.8900 | 0.6250 |
| 0.90 | 0.9300 | 0.8100 |

## Dropout-rate sweep (sweep `b_scratch`, trunk scratch)

| rate | mean_iid | mean_ood |
|---|---|---|
| 0.00 | 0.9500 | 0.6000 |
| 0.50 | - | - |
| 0.90 | 0.9700 | 0.9000 |

## Dropout-rate sweep (sweep `c_rich`, trunk pretrained-rich)

| rate | mean_iid | mean_ood |
|---|---|---|
| 0.00 | 0.9000 | 0.7000 |
| 0.90 | 0.9600 | 0.8800 |

## Recipe compositions (sweep `a_scratch`)

| arm | mean_ood |
|---|---|
| erm | 0.5250 |
| erm+wa_single | 0.5650 |
| erm+ensemble_single | 0.5850 |
| erm+wa_multi | 0.7300 |
| erm+ensemble_multi | 0.7100 |
| dropout50 | 0.6250 |
| dropout50+wa_single | 0.7600 |
| dropout50+ensemble_single | 0.7700 |
| dropout90 | 0.8100 |
| dropout90+wa_multi | 0.8000 |
| dropout90+headlr10 | 0.6900 |

## Recipe compositions (sweep `b_scratch`)

| arm | mean_ood |
|---|---|
| dropout90 | 0.9000 |
| erm | 0.6000 |
| erm+wa_single | 0.8500 |
| erm+ensemble_single | 0.8000 |
| dropout50 | - |

## Recipe compositions (sweep `c_rich`)

| arm | mean_ood |
|---|---|
| erm | 0.7000 |
| erm+wa_single | 0.8100 |
| erm+ensemble_single | 0.8200 |
| erm+wa_multi | 0.7500 |
| erm+ensemble_multi | 0.7700 |
| dropout90 | 0.8800 |

## Hyperparameter-robustness quartiles (ood over grid points)

| sweep | recipe | min | q25 | median | q75 | max |
|---|---|---|---|---|---|---|
| a_scratch | erm | 0.5050 | 0.5162 | 0.5275 | 0.5388 | 0.5500 |
| a_scratch | dropout50 | 0.6250 | 0.6250 | 0.6250 | 0.6250 | 0.6250 |
| a_scratch | dropout90 | 0.7900 | 0.7950 | 0.8000 | 0.8050 | 0.8100 |
| a_scratch | dropout90+headlr10 | 0.6900 | 0.6900 | 0.6900 | 0.6900 | 0.6900 |
| b_scratch | dropout90 | 0.9000 | 0.9000 | 0.9000 | 0.9000 | 0.9000 |
| b_scratch | erm | 0.6000 | 0.6000 | 0.6000 | 0.6000 | 0.6000 |
| c_rich | erm | 0.7000 | 0.7000 | 0.7000 | 0.7000 | 0.7000 |
| c_rich | dropout90 | 0.8800 | 0.8800 | 0.8800 | 0.8800 | 0.8800 |

""",
    "quartiles.csv": """\
sweep,recipe,min,q25,median,q75,max,run_ids
a_scratch,erm,0.505,0.51625,0.5275000000000001,0.5387500000000001,0.55,s0-erm-g0-seed1;s0-erm-g1-seed1;s1-erm-g0-seed1;s1-erm-g1-seed1
a_scratch,dropout50,0.625,0.625,0.625,0.625,0.625,s0-dropout50-g0-seed1;s1-dropout50-g0-seed1
a_scratch,dropout90,0.79,0.795,0.8,0.805,0.81,s0-dropout90-g0-seed1;s0-dropout90-g1-seed1
a_scratch,dropout90+headlr10,0.69,0.69,0.69,0.69,0.69,s0-dropout90+headlr10-g0-seed1;s1-dropout90+headlr10-g0-seed1
b_scratch,dropout90,0.9,0.9,0.9,0.9,0.9,s0-dropout90-g0-seed1
b_scratch,erm,0.6,0.6,0.6,0.6,0.6,s0-erm-g1-seed1
c_rich,erm,0.7,0.7,0.7,0.7,0.7,s0-erm-g0-seed1
c_rich,dropout90,0.88,0.88,0.88,0.88,0.88,s0-dropout90-g1-seed1
""",
    "methods_0.csv": """\
split,erm,wa_single,ensemble_single,dropout,wa_multi,ensemble_multi
0,0.7,0.68,0.74,0.81,0.73,0.71
1,0.35,0.45,0.43,,,
mean,0.5249999999999999,0.5650000000000001,0.585,0.81,0.73,0.71
""",
    "methods_1.csv": """\
split,erm,wa_single,ensemble_single,dropout,wa_multi,ensemble_multi
0,0.6,0.85,0.8,0.9,,
mean,0.6,0.85,0.8,0.9,,
""",
    "methods_2.csv": """\
split,erm,wa_single,ensemble_single,dropout,wa_multi,ensemble_multi
0,0.7,0.81,0.82,0.88,0.75,0.77
mean,0.7,0.81,0.82,0.88,0.75,0.77
""",
    "rate_curve_0.csv": """\
rate,mean_iid,mean_ood,provenance
0.0,0.885,0.5249999999999999,scratch
0.5,0.89,0.625,scratch
0.9,0.93,0.81,scratch
""",
    "rate_curve_1.csv": """\
rate,mean_iid,mean_ood,provenance
0.0,0.95,0.6,scratch
0.5,,,scratch
0.9,0.97,0.9,scratch
""",
    "rate_curve_2.csv": """\
rate,mean_iid,mean_ood,provenance
0.0,0.9,0.7,pretrained-rich
0.9,0.96,0.88,pretrained-rich
""",
    "scratch_curve.csv": """\
rate,mean_iid,mean_ood,sweep
0.0,0.885,0.5249999999999999,a_scratch
0.5,0.89,0.625,a_scratch
0.9,0.93,0.81,a_scratch
0.0,0.95,0.6,b_scratch
0.5,,,b_scratch
0.9,0.97,0.9,b_scratch
""",
}


def test_report_files_match_the_pinned_text(pin_results, tmp_path):
    out = tmp_path / "out"
    written = write_report(build_report(load_results(pin_results)), out)
    assert [os.path.basename(p) for p in written] == list(PINNED_REPORT)
    assert sorted(os.listdir(out)) == sorted(PINNED_REPORT)
    assert {name: (out / name).read_bytes().decode() for name in PINNED_REPORT} == PINNED_REPORT
