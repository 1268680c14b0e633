"""finedrop: fine-tuning residual MLPs with very large penultimate dropout.

A desk-scale numerical toolkit for studying out-of-distribution
generalization in the pretrain / fine-tune / shifted-test setting. Ships a
small reverse-mode engine, residual MLPs whose penultimate representation
decomposes exactly into block contributions, inverted dropout at rates up
to 0.95+, SGD with momentum and per-group learning rates, synthetic
multi-environment data generators, and the full sweep / selection /
ensemble / weight-averaging protocol with deterministic reports.
"""

from . import autodiff, datasets, models, optim, protocol, regularizers, report, stats
from .autodiff import Tensor, backward, finite_diff_grad, reset_grads
from .datasets import (
    EnvDataset,
    EnvSplit,
    gen_multienv_task,
    gen_pretrain_corpus,
    gen_redundant_features,
    gen_xor_task,
    leave_one_out_splits,
    load_dataset,
    make_missing_feature_env,
    save_dataset,
)
from .errors import (
    CapacityError,
    FinedropError,
    FormatError,
    RunError,
    ShapeError,
    UsageError,
    ValidationError,
)
from .models import (
    Checkpoint,
    ResidualModel,
    block_contributions,
    forward,
    load_checkpoint,
    model_from_checkpoint,
    new_residual_model,
    reinit_head,
)
from .optim import SgdOptimizer
from .protocol import (
    EnsemblePredictor,
    FineTuneConfig,
    OptimizerSettings,
    Recipe,
    RunRecord,
    SweepResult,
    build_variants,
    ensemble_predict,
    evaluate,
    finetune,
    pretrain,
    run_sweep,
    weight_average,
)
from .regularizers import (
    DropoutSpec,
    apply_inverted_dropout,
    dropout_mask,
    expected_dropout_loss_closed_form,
    expected_dropout_loss_enumerated,
    feature_bagging_ensemble,
)

__version__ = "0.1.0"
