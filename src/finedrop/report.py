"""Turn sweep result files into tables: the data-level analog of box plots.

Reports are a pure function of the runs.jsonl / summary.json files a sweep
writes, so a report can always be re-derived and re-checked. The selected
runs' cells (the methods table's erm and dropout columns, the rate curve,
each recipe's composition row) and the multi-run arm values are read from
summary.json. The single-run arm cells and the quartiles, with the run ids
behind them, are recomputed from the records in runs.jsonl. Output is
Markdown for eyes plus CSV for tooling; there is deliberately no plotting
dependency, the quartile CSV *is* the box plot.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError
from .protocol import Recipe, _replacing, _selection_key
from .stats import five_number_summary

__all__ = ["ReportBundle", "load_results", "build_report", "write_report"]

# Column order of the main comparison table.
METHOD_COLUMNS = ["erm", "wa_single", "ensemble_single", "dropout", "wa_multi", "ensemble_multi"]
_QUARTILE_COLUMNS = ["min", "q25", "median", "q75", "max"]
_RATE_COLUMNS = ["rate", "mean_iid", "mean_ood"]
# Columns whose cells are names, written as they are; every other cell is a number or None.
_TEXT_COLUMNS = {"split", "sweep", "provenance", "recipe", "arm", "run_ids"}


class ReportBundle:
    """All tables derived from one results directory tree."""

    def __init__(self):
        self.method_tables: list[dict] = []  # one per sweep: per-split rows + mean
        self.rate_tables: list[dict] = []  # dropout-rate sweeps
        self.composition_tables: list[dict] = []  # recipe compositions
        self.quartile_rows: list[dict] = []  # per (sweep, recipe) five-number summaries


def load_results(directory) -> list[dict]:
    """Read every sweep (runs.jsonl + summary.json pair) under a directory."""
    sweeps = []
    for root, _dirs, files in sorted(os.walk(directory)):
        if "summary.json" in files and "runs.jsonl" in files:
            with open(os.path.join(root, "summary.json"), "r", encoding="utf-8") as fh:
                summary = json.load(fh)
            runs = []
            with open(os.path.join(root, "runs.jsonl"), "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        runs.append(json.loads(line))
            sweeps.append({"dir": os.path.relpath(root, directory), "summary": summary, "runs": runs})
    if not sweeps:
        raise ValidationError(f"no sweep results (runs.jsonl + summary.json) under {directory}")
    return sweeps


def _mean(values) -> float | None:
    """Mean of the values that are not None; None when there are none."""
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _selected(summary: dict, recipe: str | None, split: str, key: str) -> float | None:
    entry = summary.get("selected", {}).get(recipe, {}).get(split)
    return None if entry is None else entry[key]


def _variant_ood(runs: list[dict], recipe: str, split: str, arm: str) -> float | None:
    """Single-run arm value for a split: the run chosen by the arm's own iid, ties as `select_best` breaks them."""
    candidates = [
        r
        for r in runs
        if r["recipe"] == recipe
        and str(r["split_index"]) == split
        and r["status"] == "ok"
        and arm in r.get("variants", {})
    ]
    if not candidates:
        return None
    chosen = max(candidates, key=lambda r: _selection_key(r["variants"][arm]["iid"], r["grid_index"], r["seed"]))
    return chosen["variants"][arm]["ood"]


def _multi_ood(summary: dict, recipe: str, split: str, kind: str) -> float | None:
    groups = summary.get("multi_run", {}).get(recipe, {}).get(split, {})
    return _mean(entry[kind]["ood"] for entry in groups.values() if kind in entry)


# The arm columns, in table order: erm's in the methods table, and every
# recipe's "+column" rows in the composition table. Each reads one recipe's
# value on one split of a sweep.
_ARM_COLUMNS = {
    "wa_single": lambda sweep, recipe, split: _variant_ood(sweep["runs"], recipe, split, "wa_single"),
    "ensemble_single": lambda sweep, recipe, split: _variant_ood(sweep["runs"], recipe, split, "ensemble_single"),
    "wa_multi": lambda sweep, recipe, split: _multi_ood(sweep["summary"], recipe, split, "wa"),
    "ensemble_multi": lambda sweep, recipe, split: _multi_ood(sweep["summary"], recipe, split, "ensemble"),
}


def _rate_recipes(recipes: list[str]) -> dict[str, float]:
    """Recipes that only set a dropout rate ("erm", "dropoutNN"), with their rates.

    A headlrN token changes more than the rate, so those recipes are left out.
    """
    parsed = {name: Recipe.parse(name) for name in recipes}
    return {name: r.dropout_rate for name, r in parsed.items() if r.head_lr_mult is None}


def _dropout_recipe(rates: dict[str, float]) -> str | None:
    """The recipe behind the methods table's dropout column; 0.9 when swept."""
    named = [name for name, rate in rates.items() if rate > 0]
    if not named:
        return None
    return next((name for name in named if rates[name] == 0.9), named[0])


def build_report(sweeps: list[dict]) -> ReportBundle:
    bundle = ReportBundle()
    for sweep in sweeps:
        summary, runs = sweep["summary"], sweep["runs"]
        meta = summary["meta"]
        recipes = meta["recipes"]
        splits = [str(s["index"]) for s in meta["splits"]]
        head = {"sweep": sweep["dir"], "provenance": meta.get("provenance", "scratch")}
        rates = _rate_recipes(recipes)
        dropout_recipe = _dropout_recipe(rates)

        # Main comparison table, column order fixed by METHOD_COLUMNS; None where a cell has no value.
        if "erm" in recipes:
            rows = []
            for split in splits:
                row = {col: read(sweep, "erm", split) for col, read in _ARM_COLUMNS.items()}
                row["erm"] = _selected(summary, "erm", split, "ood")
                row["dropout"] = _selected(summary, dropout_recipe, split, "ood")
                rows.append({"split": split, **{col: row[col] for col in METHOD_COLUMNS}})
            rows.append({"split": "mean", **{col: _mean(r[col] for r in rows) for col in METHOD_COLUMNS}})
            bundle.method_tables.append({**head, "rows": rows})

        # Dropout-rate curve over every dropout-rate-style recipe present.
        rate_rows = [
            {"rate": rate, "recipe": recipe, "mean_iid": _mean(_selected(summary, recipe, s, "iid") for s in splits),
             "mean_ood": summary["aggregate_ood"].get(recipe)}
            for recipe, rate in rates.items()
        ]
        if len(rate_rows) >= 2:
            bundle.rate_tables.append({**head, "rows": sorted(rate_rows, key=lambda r: r["rate"])})

        # Recipe-composition table: every recipe's selected mean plus arm add-ons.
        comp_rows = []
        for recipe in recipes:
            comp_rows.append({"arm": recipe, "mean_ood": summary["aggregate_ood"].get(recipe)})
            for col, read in _ARM_COLUMNS.items():
                mean = _mean(read(sweep, recipe, s) for s in splits)
                if mean is not None:
                    comp_rows.append({"arm": f"{recipe}+{col}", "mean_ood": mean})
        bundle.composition_tables.append({**head, "rows": comp_rows})

        # Quartile summaries over grid points, recomputed from the per-run records.
        for recipe in recipes:
            ok = [r for r in runs if r["recipe"] == recipe and r["status"] == "ok"]
            grid_values, run_ids = [], []
            for g in range(len(meta["grid"])):
                members = [r for r in ok if r["grid_index"] == g]
                if members:
                    grid_values.append(float(np.mean([r["ood_acc"] for r in members])))
                    run_ids.extend(r["run_id"] for r in members)
            if grid_values:
                bundle.quartile_rows.append({"sweep": sweep["dir"], "recipe": recipe,
                                             **five_number_summary(grid_values), "run_ids": ";".join(sorted(run_ids))})
    return bundle


def _markdown_cell(col: str, v) -> str:
    if col in _TEXT_COLUMNS:
        return str(v)
    if v is None:
        return "-"
    return f"{v:.2f}" if col == "rate" else f"{v:.4f}"


def _csv_cell(col: str, v) -> str:
    """Names as they are, numbers at full precision, an empty cell for None."""
    if col in _TEXT_COLUMNS:
        return str(v)
    return "" if v is None else repr(v)


def _markdown_table(cols: list[str], rows: list[dict]) -> str:
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_markdown_cell(c, row[c]) for c in cols) + " |")
    return "\n".join(lines)


def render_markdown(bundle: ReportBundle) -> str:
    sections = [(f"Methods (sweep `{t['sweep']}`, trunk {t['provenance']})", ["split"] + METHOD_COLUMNS, t["rows"])
                for t in bundle.method_tables]
    sections += [(f"Dropout-rate sweep (sweep `{t['sweep']}`, trunk {t['provenance']})", _RATE_COLUMNS, t["rows"])
                 for t in bundle.rate_tables]
    sections += [(f"Recipe compositions (sweep `{t['sweep']}`)", ["arm", "mean_ood"], t["rows"])
                 for t in bundle.composition_tables]
    if bundle.quartile_rows:
        sections.append(("Hyperparameter-robustness quartiles (ood over grid points)",
                         ["sweep", "recipe"] + _QUARTILE_COLUMNS, bundle.quartile_rows))
    parts = ["# Sweep report", ""]
    for title, cols, rows in sections:
        parts += [f"## {title}", "", _markdown_table(cols, rows), ""]
    return "\n".join(parts)


def write_report(bundle: ReportBundle, directory) -> list[str]:
    """Write report.md plus the CSV tables, each replacing its old file whole; returns the files written.

    A CSV whose table has no rows is not written: quartiles.csv when no recipe
    has an ok run, scratch_curve.csv when no sweep started from a scratch trunk.
    """
    os.makedirs(directory, exist_ok=True)
    csvs = [("quartiles.csv", ["sweep", "recipe"] + _QUARTILE_COLUMNS + ["run_ids"], bundle.quartile_rows)]
    csvs += [(f"methods_{i}.csv", ["split"] + METHOD_COLUMNS, t["rows"]) for i, t in enumerate(bundle.method_tables)]
    csvs += [(f"rate_curve_{i}.csv", _RATE_COLUMNS + ["provenance"],
              [dict(r, provenance=t["provenance"]) for r in t["rows"]]) for i, t in enumerate(bundle.rate_tables)]
    csvs.append(("scratch_curve.csv", _RATE_COLUMNS + ["sweep"], [
        dict(r, sweep=t["sweep"]) for t in bundle.rate_tables if t["provenance"] == "scratch" for r in t["rows"]
    ]))

    written = [os.path.join(directory, "report.md")]
    with _replacing(written[0]) as fh:
        fh.write(render_markdown(bundle) + "\n")
    for name, cols, rows in csvs:
        if rows:
            written.append(os.path.join(directory, name))
            with _replacing(written[-1]) as fh:
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(_csv_cell(c, row[c]) for c in cols) + "\n")
    return written
