"""Turn sweep result files into tables: the data-level analog of box plots.

Reports are a pure function of the runs.jsonl / summary.json files a sweep
writes: every cell is recomputed from those records (and carries the run
ids behind it), so a report can always be re-derived and re-checked. Output
is Markdown for eyes plus CSV for tooling; there is deliberately no
plotting dependency, the quartile CSV *is* the box plot.
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


class ReportBundle:
    """All tables derived from one results directory tree."""

    def __init__(self):
        self.method_tables: list[dict] = []  # one per sweep: per-split rows + mean
        self.rate_tables: list[dict] = []  # dropout-rate sweeps
        self.composition_tables: list[dict] = []  # recipe compositions
        self.quartile_rows: list[dict] = []  # per (sweep, recipe) five-number summaries
        self.scratch_curves: list[dict] = []  # rate vs iid/ood for scratch sweeps


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


def _selected_ood(summary: dict, recipe: str, split: str) -> float | None:
    entry = summary.get("selected", {}).get(recipe, {}).get(split)
    return None if entry is None else entry["ood"]


def _variant_ood(summary: dict, runs: list[dict], recipe: str, split: str, arm: str) -> float | None:
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
    vals = [entry[kind]["ood"] for entry in groups.values() if kind in entry]
    return float(np.mean(vals)) if vals else None


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
        provenance = meta.get("provenance", "scratch")
        rates = _rate_recipes(recipes)
        dropout_recipe = _dropout_recipe(rates)

        # Main comparison table, column order fixed by METHOD_COLUMNS.
        if "erm" in recipes:
            rows = []
            for split in splits:
                row = {"split": split}
                row["erm"] = _selected_ood(summary, "erm", split)
                row["wa_single"] = _variant_ood(summary, runs, "erm", split, "wa_single")
                row["ensemble_single"] = _variant_ood(summary, runs, "erm", split, "ensemble_single")
                row["dropout"] = (
                    _selected_ood(summary, dropout_recipe, split) if dropout_recipe else None
                )
                row["wa_multi"] = _multi_ood(summary, "erm", split, "wa")
                row["ensemble_multi"] = _multi_ood(summary, "erm", split, "ensemble")
                rows.append(row)
            mean_row = {"split": "mean"}
            for col in METHOD_COLUMNS:
                vals = [r[col] for r in rows if r[col] is not None]
                mean_row[col] = float(np.mean(vals)) if vals else None
            bundle.method_tables.append(
                {"sweep": sweep["dir"], "provenance": provenance, "rows": rows + [mean_row]}
            )

        # Dropout-rate curve over every dropout-rate-style recipe present.
        rate_rows = []
        for recipe, rate in rates.items():
            ood = summary["aggregate_ood"].get(recipe)
            iids = [
                summary["selected"][recipe][s]["iid"]
                for s in splits
                if s in summary["selected"].get(recipe, {})
            ]
            rate_rows.append(
                {
                    "rate": rate,
                    "recipe": recipe,
                    "mean_iid": float(np.mean(iids)) if iids else None,
                    "mean_ood": ood,
                }
            )
        rate_rows.sort(key=lambda r: r["rate"])
        if len(rate_rows) >= 2:
            table = {"sweep": sweep["dir"], "provenance": provenance, "rows": rate_rows}
            bundle.rate_tables.append(table)
            if provenance == "scratch":
                bundle.scratch_curves.append(table)

        # Recipe-composition table: every recipe's selected mean plus arm add-ons.
        comp_rows = []
        for recipe in recipes:
            comp_rows.append({"arm": recipe, "mean_ood": summary["aggregate_ood"].get(recipe)})
            for arm, label in (("wa_single", "+wa_single"), ("ensemble_single", "+ensemble_single")):
                vals = [_variant_ood(summary, runs, recipe, s, arm) for s in splits]
                vals = [v for v in vals if v is not None]
                if vals:
                    comp_rows.append({"arm": recipe + label, "mean_ood": float(np.mean(vals))})
            for kind, label in (("wa", "+wa_multi"), ("ensemble", "+ensemble_multi")):
                vals = [_multi_ood(summary, recipe, s, kind) for s in splits]
                vals = [v for v in vals if v is not None]
                if vals:
                    comp_rows.append({"arm": recipe + label, "mean_ood": float(np.mean(vals))})
        bundle.composition_tables.append(
            {"sweep": sweep["dir"], "provenance": provenance, "rows": comp_rows}
        )

        # Quartile summaries, recomputed from the per-run records.
        for recipe in recipes:
            grid_values = []
            run_ids = []
            n_grid = len(meta["grid"])
            for g in range(n_grid):
                vals = [
                    r["ood_acc"]
                    for r in runs
                    if r["recipe"] == recipe and r["grid_index"] == g and r["status"] == "ok"
                ]
                ids = [
                    r["run_id"]
                    for r in runs
                    if r["recipe"] == recipe and r["grid_index"] == g and r["status"] == "ok"
                ]
                if vals:
                    grid_values.append(float(np.mean(vals)))
                    run_ids.extend(ids)
            if grid_values:
                row = {"sweep": sweep["dir"], "recipe": recipe}
                row.update(five_number_summary(grid_values))
                row["run_ids"] = ";".join(sorted(run_ids))
                bundle.quartile_rows.append(row)
    return bundle


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.4f}"


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_markdown(bundle: ReportBundle) -> str:
    parts = ["# Sweep report", ""]
    for table in bundle.method_tables:
        parts.append(f"## Methods (sweep `{table['sweep']}`, trunk {table['provenance']})")
        parts.append("")
        headers = ["split"] + METHOD_COLUMNS
        rows = [[str(r["split"])] + [_fmt(r[c]) for c in METHOD_COLUMNS] for r in table["rows"]]
        parts.append(_markdown_table(headers, rows))
        parts.append("")
    for table in bundle.rate_tables:
        parts.append(f"## Dropout-rate sweep (sweep `{table['sweep']}`, trunk {table['provenance']})")
        parts.append("")
        headers = ["rate", "mean_iid", "mean_ood"]
        rows = [[f"{r['rate']:.2f}", _fmt(r["mean_iid"]), _fmt(r["mean_ood"])] for r in table["rows"]]
        parts.append(_markdown_table(headers, rows))
        parts.append("")
    for table in bundle.composition_tables:
        parts.append(f"## Recipe compositions (sweep `{table['sweep']}`)")
        parts.append("")
        rows = [[r["arm"], _fmt(r["mean_ood"])] for r in table["rows"]]
        parts.append(_markdown_table(["arm", "mean_ood"], rows))
        parts.append("")
    if bundle.quartile_rows:
        parts.append("## Hyperparameter-robustness quartiles (ood over grid points)")
        parts.append("")
        headers = ["sweep", "recipe", "min", "q25", "median", "q75", "max"]
        rows = [
            [r["sweep"], r["recipe"]] + [_fmt(r[k]) for k in ("min", "q25", "median", "q75", "max")]
            for r in bundle.quartile_rows
        ]
        parts.append(_markdown_table(headers, rows))
        parts.append("")
    return "\n".join(parts)


def _write_csv(path: str, headers: list[str], rows: list[list]) -> None:
    with _replacing(path) as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def write_report(bundle: ReportBundle, directory) -> list[str]:
    """Write report.md plus the CSV tables, each replacing its old file whole; returns the files written."""
    os.makedirs(directory, exist_ok=True)
    written = []

    md_path = os.path.join(directory, "report.md")
    with _replacing(md_path) as fh:
        fh.write(render_markdown(bundle))
        fh.write("\n")
    written.append(md_path)

    if bundle.quartile_rows:
        path = os.path.join(directory, "quartiles.csv")
        headers = ["sweep", "recipe", "min", "q25", "median", "q75", "max", "run_ids"]
        rows = [
            [r["sweep"], r["recipe"], repr(r["min"]), repr(r["q25"]), repr(r["median"]),
             repr(r["q75"]), repr(r["max"]), r["run_ids"]]
            for r in bundle.quartile_rows
        ]
        _write_csv(path, headers, rows)
        written.append(path)

    for i, table in enumerate(bundle.method_tables):
        path = os.path.join(directory, f"methods_{i}.csv")
        headers = ["split"] + METHOD_COLUMNS
        rows = [
            [r["split"]] + [("" if r[c] is None else repr(r[c])) for c in METHOD_COLUMNS]
            for r in table["rows"]
        ]
        _write_csv(path, headers, rows)
        written.append(path)

    for i, table in enumerate(bundle.rate_tables):
        path = os.path.join(directory, f"rate_curve_{i}.csv")
        rows = [
            [repr(r["rate"]), ("" if r["mean_iid"] is None else repr(r["mean_iid"])),
             ("" if r["mean_ood"] is None else repr(r["mean_ood"])), table["provenance"]]
            for r in table["rows"]
        ]
        _write_csv(path, ["rate", "mean_iid", "mean_ood", "provenance"], rows)
        written.append(path)

    if bundle.scratch_curves:
        path = os.path.join(directory, "scratch_curve.csv")
        rows = []
        for table in bundle.scratch_curves:
            for r in table["rows"]:
                rows.append(
                    [repr(r["rate"]), ("" if r["mean_iid"] is None else repr(r["mean_iid"])),
                     ("" if r["mean_ood"] is None else repr(r["mean_ood"])), table["sweep"]]
                )
        _write_csv(path, ["rate", "mean_iid", "mean_ood", "sweep"], rows)
        written.append(path)
    return written
