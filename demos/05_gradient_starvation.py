"""Gradient starvation, and dropout undoing it, on the redundant-features task.

Eight features each predict the label perfectly, but feature 0 is four
times stronger, so plain training rides it and leaves the rest near their
random initialization. The shifted test environment zeroes every feature
except the weakest one: whatever the model learned about that feature is
all it has left.
"""

import numpy as np

from finedrop.datasets import EnvSplit, gen_redundant_features, make_missing_feature_env
from finedrop.models import checkpoint_from_model, model_from_checkpoint, new_residual_model
from finedrop.protocol import FineTuneConfig, finetune
from finedrop.stats import normalized_entropy

MISSING = [0, 1, 2, 3, 4, 5, 6]  # keep only feature 7 at test time


def task(seed):
    return make_missing_feature_env(gen_redundant_features(8, 2000, label_noise=0.0, seed=seed), MISSING)


# the features are the representation: identity trunk, trained head only
start_model = new_residual_model(8, 8, 0, 2, seed=0)
start_model.proj_w.data[...] = np.eye(8)
start_model.proj_b.data[...] = np.zeros(8)
start = checkpoint_from_model(start_model, 0, "identity")

print(f"{'seed':>4} {'arm':>8} {'iid':>6} {'ood':>6} {'weight entropy':>15}")
for seed in range(3):
    split = EnvSplit(task(100 + seed), (0,), 1)
    for name, rate in (("plain", 0.0), ("drop90", 0.9)):
        cfg = FineTuneConfig(dropout_rate=rate, lr=0.01, weight_decay=0.0,
                             total_iterations=1000, batch_size=32, seed=seed,
                             freeze_trunk=True)
        rec = finetune(start, split, cfg)
        head = model_from_checkpoint(rec.best.checkpoint).head_w.data
        profile = np.abs(head[:, 1] - head[:, 0])
        ent = normalized_entropy(profile)
        print(f"{seed:>4} {name:>8} {rec.best_iid_val_acc:6.3f} {rec.ood_acc:6.3f} {ent:15.3f}")

print("\nplain training: low-entropy weights, coin-flip ood once the strong features vanish.")
print("rate-0.9 dropout: spread weights, intact ood through the one surviving feature.")
