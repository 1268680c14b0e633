"""A miniature hyperparameter sweep with selection, quartiles, and a report.

run_sweep executes the (split x recipe x grid x seed) product, selects per
split by iid validation accuracy, and aggregates. The written files are the
single source every report cell is recomputed from.
"""

import pathlib
import tempfile

from finedrop.datasets import (N_CORE, N_GIVEAWAY, N_SPURIOUS, gen_multienv_task, gen_pretrain_corpus,
                               leave_one_out_splits)
from finedrop.protocol import FineTuneConfig, OptimizerSettings, pretrain, run_sweep
from finedrop.report import build_report, load_results, render_markdown

task = gen_multienv_task(4, N_CORE, N_SPURIOUS, 1.0, n_per_env=800, seed=500, n_inert=N_GIVEAWAY)
splits = leave_one_out_splits(task)[2:]  # two splits keep the demo quick

corpus = gen_pretrain_corpus(rich=True, size=20_000, seed=901)
trunk = pretrain({"width": 16, "depth": 2, "block_hidden": 16, "input_dim": corpus.n_features},
                 corpus, OptimizerSettings(lr=0.01, weight_decay=1e-5,
                                           iterations=2000, batch_size=64), seed=1)

result = run_sweep(
    trunk,
    splits,
    grid=[(1e-3, 1e-4), (5e-4, 1e-4)],
    recipes=["erm", "dropout50", "dropout90"],
    seeds=[0, 1],
    base_cfg=FineTuneConfig(total_iterations=600, batch_size=32),
    parallel=2,
)

print("mean shifted-test accuracy of the iid-selected run, per recipe:")
for recipe, value in result.aggregate_ood.items():
    print(f"  {recipe:>10}: {value:.4f}")
print("\nquartiles over grid points (the box plot, as numbers):")
for recipe, q in result.quartiles.items():
    print(f"  {recipe:>10}: min {q['min']:.3f}  q25 {q['q25']:.3f}  "
          f"median {q['median']:.3f}  q75 {q['q75']:.3f}  max {q['max']:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp) / "sweep"
    result.save(out)
    bundle = build_report(load_results(out))
    print("\n" + render_markdown(bundle))
