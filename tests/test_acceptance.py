"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The directional experiments (criteria 6-10) use the
synthetic multi-environment tasks; every seed below is fixed, so the whole
suite is deterministic.
"""

import time

import numpy as np
import pytest

from finedrop import autodiff as ad
from finedrop.cli import main as cli_main
from finedrop.datasets import (
    N_CORE,
    N_GIVEAWAY,
    N_SPURIOUS,
    EnvSplit,
    gen_multienv_task,
    gen_pretrain_corpus,
    gen_redundant_features,
    gen_xor_task,
    leave_one_out_splits,
    make_missing_feature_env,
)
from finedrop.models import (
    Checkpoint,
    block_contributions,
    checkpoint_from_model,
    forward,
    model_from_checkpoint,
    new_residual_model,
)
from finedrop.protocol import (
    FineTuneConfig,
    OptimizerSettings,
    build_variants,
    ensemble_predict,
    evaluate,
    finetune,
    pretrain,
    weight_average,
)
from finedrop.regularizers import (
    DropoutSpec,
    apply_inverted_dropout,
    dropout_mask,
    expected_dropout_loss_closed_form,
    expected_dropout_loss_enumerated,
)
from finedrop.stats import normalized_entropy, sign_test_p

from helpers import grad_close

# Exact binomial quantiles (CDF summation oracle): central 99.99% interval
# for the zero count of 1e5 Bernoulli(0.9) draws.
ZERO_INTERVAL = (89629, 90367)

RATES = (0.0, 0.5, 0.9, 0.95)
MULTIENV_SEED = 500
ARCH = {"width": 16, "depth": 2, "block_hidden": 16, "input_dim": N_CORE + N_GIVEAWAY + N_SPURIOUS}
FT = dict(lr=1e-3, weight_decay=1e-4, total_iterations=1000, batch_size=32)
PRETRAIN_OPT = OptimizerSettings(lr=0.01, weight_decay=1e-5, momentum=0.9,
                                 iterations=3000, batch_size=64)


def _finish(num, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s / limit {limit:.0f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s exceeds {limit}s"


def _random_model(rng):
    model = new_residual_model(
        int(rng.integers(3, 7)),
        int(rng.integers(4, 13)),
        int(rng.integers(0, 4)),
        int(rng.integers(2, 4)),
        seed=int(rng.integers(0, 10_000)),
    )
    for blk in model.blocks:
        blk.w2.data[...] = rng.normal(size=blk.w2.shape) * 0.4
        blk.b1.data[...] = rng.normal(size=blk.b1.shape) * 0.1
        blk.b2.data[...] = rng.normal(size=blk.b2.shape) * 0.1
    return model


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    ok = True
    for _ in range(20):
        model = _random_model(rng)
        x = rng.normal(size=(3, model.input_dim))
        labels = rng.integers(0, model.num_classes, size=3)
        logits, _ = forward(model, x)
        loss = ad.softmax_cross_entropy(logits, labels)
        ad.backward(loss)
        params = model.parameters()
        arrays = [p.data.copy() for p in params]

        def f(vals):
            trial = model_from_checkpoint(
                Checkpoint(np.concatenate([v.reshape(-1) for v in vals]),
                           checkpoint_from_model(model).manifest, 0, "fd"))
            lg, _ = forward(trial, x)
            return ad.softmax_cross_entropy(lg, labels).item()

        fd = ad.finite_diff_grad(f, arrays, eps=1e-5)
        for p, g in zip(params, fd):
            err = np.linalg.norm(p.grad - g) / max(np.linalg.norm(g), 1e-9)
            worst = max(worst, err)
            ok = ok and grad_close(p.grad, g, rtol=1e-4, atol=1e-9)
        ad.reset_grads(params)
    _finish(1, ok, time.perf_counter() - t0, 60,
            f"20 random models, worst per-tensor rel grad err {worst:.2e} (< 1e-4)")


def test_criterion_02_telescoping_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    exact = True
    for _ in range(1000):
        model = _random_model(rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), model.input_dim))
        _, phi = forward(model, x)
        terms = block_contributions(model, x)
        total = terms[0].data
        for t in terms[1:]:
            total = total + t.data
        exact = exact and np.array_equal(total, phi.data)
    _finish(2, exact, time.perf_counter() - t0, 10,
            "1000 random (model, input) pairs: sum(contributions) == phi bit-for-bit")


def test_criterion_03_inverted_dropout_properties():
    t0 = time.perf_counter()
    rng_phi = np.random.default_rng(33)
    phi = rng_phi.normal(size=(64, 10))
    checks = []

    # rate 0 in train mode: bit-exact identity, no rng use
    spec0 = DropoutSpec.seeded(0.0, seed=1)
    checks.append(apply_inverted_dropout(phi, spec0) is phi)

    # eval mode identity for large rates
    for rate in (0.5, 0.9, 0.95):
        checks.append(apply_inverted_dropout(phi, DropoutSpec(rate, "eval")) is phi)

    # empirical zero rate within the exact binomial 99.99% interval
    mask = dropout_mask(100_000, 0.9, np.random.default_rng(123))
    zeros = int(100_000 - mask.sum())
    checks.append(ZERO_INTERVAL[0] <= zeros <= ZERO_INTERVAL[1])

    # unbiasedness within 3 sigma coordinatewise over 20k samples
    devs = {}
    for rate in (0.5, 0.9, 0.95):
        spec = DropoutSpec.seeded(rate, seed=2024)
        out = apply_inverted_dropout(np.ones((20_000, 5)), spec)
        three_sigma = 3.0 * np.sqrt(rate / ((1.0 - rate) * 20_000))
        dev = float(np.max(np.abs(out.mean(axis=0) - 1.0)))
        devs[rate] = (dev, three_sigma)
        checks.append(dev < three_sigma)

    detail = "; ".join(f"rate {r}: dev {d:.4f} < {s:.4f}" for r, (d, s) in devs.items())
    _finish(3, all(checks), time.perf_counter() - t0, 30,
            f"identities bit-exact, zero count {zeros} in {ZERO_INTERVAL}, {detail}")


def test_criterion_04_linear_equivalence_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        w = rng.normal(size=n)
        x = rng.normal(size=n)
        y = float(rng.normal())
        rate = float(rng.choice([0.1, 0.5, 0.9]))
        enum = expected_dropout_loss_enumerated(w, x, y, rate)
        closed = expected_dropout_loss_closed_form(w, x, y, rate)
        worst = max(worst, abs(enum - closed) / max(abs(enum), 1e-30))
    _finish(4, worst < 1e-10, time.perf_counter() - t0, 60,
            f"200 instances (n <= 12): worst enumeration-vs-closed-form rel err {worst:.2e}")


@pytest.fixture(scope="module")
def redundant_checkpoint():
    """A fine-tuned checkpoint on a small task, reused by criterion 5."""
    task = gen_multienv_task(3, 4, 2, 1.0, n_per_env=150, seed=42, n_inert=0)
    split = leave_one_out_splits(task)[0]
    start = checkpoint_from_model(new_residual_model(6, 8, 1, 2, seed=0), 0, "c5")
    cfg = FineTuneConfig(dropout_rate=0.0, lr=0.01, weight_decay=0.0, total_iterations=120,
                         batch_size=16, checkpoint_interval=60, seed=1)
    record = finetune(start, split, cfg)
    return record.best.checkpoint, task.features[:64]


def test_criterion_05_wa_ensemble_second_order(redundant_checkpoint):
    t0 = time.perf_counter()
    theta, x = redundant_checkpoint
    rng = np.random.default_rng(55)
    eps = 0.002  # small enough that no direction straddles a relu kink
    ratios = []
    ok = True
    for _ in range(10):
        delta = rng.normal(size=theta.params.size)
        delta /= np.linalg.norm(delta)

        def discrepancy(e):
            plus = model_from_checkpoint(Checkpoint(theta.params + e * delta, theta.manifest, 0, "p"))
            minus = model_from_checkpoint(Checkpoint(theta.params - e * delta, theta.manifest, 0, "m"))
            ens = ensemble_predict([plus, minus], x)
            wa = weight_average([checkpoint_from_model(plus), checkpoint_from_model(minus)])
            return float(np.max(np.abs(ens - wa.predict_proba(x))))

        d1, d2 = discrepancy(eps), discrepancy(2 * eps)
        ok = ok and d1 > 100 * 1e-12
        ratios.append(d2 / d1)
        ok = ok and 3.0 <= d2 / d1 <= 5.0
    _finish(5, ok, time.perf_counter() - t0, 60,
            f"10 directions at eps {eps}: discrepancy ratios in [{min(ratios):.2f}, {max(ratios):.2f}]")


# ---------------------------------------------------------------------------
# Directional experiments
# ---------------------------------------------------------------------------


def _identity_feature_start(n_features):
    model = new_residual_model(n_features, n_features, 0, 2, seed=0)
    model.proj_w.data[...] = np.eye(n_features)
    model.proj_b.data[...] = np.zeros(n_features)
    return checkpoint_from_model(model, 0, "identity-features")


def _starvation_dataset(seed, missing):
    return make_missing_feature_env(gen_redundant_features(8, 2000, label_noise=0.0, seed=seed), missing)


def test_criterion_06_gradient_starvation_direction():
    t0 = time.perf_counter()
    missing = [0, 1, 2, 3, 4, 5, 6]  # strong feature plus all but the last weak one
    entropy = {"erm": [], "dropout": []}
    ood = {"erm": [], "dropout": [], "wa": [], "ensemble": []}
    start = _identity_feature_start(8)
    for seed in range(10):
        ds = _starvation_dataset(100 + seed, missing)
        split = EnvSplit(ds, (0,), 1)
        for name, rate in (("erm", 0.0), ("dropout", 0.9)):
            cfg = FineTuneConfig(dropout_rate=rate, lr=0.01, weight_decay=0.0,
                                 total_iterations=1000, batch_size=32, seed=seed,
                                 freeze_trunk=True)
            record = finetune(start, split, cfg)
            best = model_from_checkpoint(record.best.checkpoint)
            w = best.head_w.data
            entropy[name].append(normalized_entropy(np.abs(w[:, 1] - w[:, 0])))
            ood[name].append(record.ood_acc)
            if name == "erm":
                arms = build_variants([p.checkpoint for p in record.trail])  # single-run arms
                x_t, y_t = ds.env_arrays(1)
                ood["wa"].append(evaluate(arms["wa"], x_t, y_t))
                ood["ensemble"].append(evaluate(arms["ensemble"], x_t, y_t))

    wins = sum(d > e for d, e in zip(entropy["dropout"], entropy["erm"]))
    ties = sum(d == e for d, e in zip(entropy["dropout"], entropy["erm"]))
    p = sign_test_p(wins, 10 - ties)
    means = {k: float(np.mean(v)) for k, v in ood.items()}
    gap = means["dropout"] - means["erm"]
    ok = (
        p < 0.05
        and means["dropout"] > max(means["erm"], means["wa"], means["ensemble"])
        and gap > 0.02
    )
    _finish(6, ok, time.perf_counter() - t0, 600,
            f"entropy wins {wins}/10 (sign test p={p:.4f}); mean ood erm={means['erm']:.3f} "
            f"wa={means['wa']:.3f} ens={means['ensemble']:.3f} dropout={means['dropout']:.3f} "
            f"(gap {gap * 100:.1f}pp > 2pp)")


@pytest.fixture(scope="module")
def multienv_task():
    return gen_multienv_task(4, N_CORE, N_SPURIOUS, 1.0, n_per_env=2000, seed=MULTIENV_SEED, n_inert=N_GIVEAWAY)


@pytest.fixture(scope="module")
def rate_sweep(multienv_task):
    """Shared runs for criteria 7 and 9: 4 splits x 5 seeds x 5 arms."""
    t0 = time.perf_counter()
    splits = leave_one_out_splits(multienv_task)
    arms = {rate: {} for rate in RATES}
    arms["head10"] = {}
    for seed in range(5):
        corpus = gen_pretrain_corpus(True, 50_000, 900 + seed)
        ck = pretrain(ARCH, corpus, PRETRAIN_OPT, seed=seed)
        for si, split in enumerate(splits):
            for rate in RATES:
                cfg = FineTuneConfig(dropout_rate=rate, seed=seed, **FT)
                arms[rate][(seed, si)] = finetune(ck, split, cfg).ood_acc
            cfg = FineTuneConfig(dropout_rate=0.9, head_lr_mult=10.0, seed=seed, **FT)
            arms["head10"][(seed, si)] = finetune(ck, split, cfg).ood_acc
    arms["build_seconds"] = time.perf_counter() - t0
    return arms


def test_criterion_07_dropout_rate_curve(rate_sweep):
    t0 = time.perf_counter() - rate_sweep["build_seconds"]
    means = {rate: float(np.mean(list(rate_sweep[rate].values()))) for rate in RATES}
    per_seed = {
        rate: [np.mean([rate_sweep[rate][(s, si)] for si in range(4)]) for s in range(5)]
        for rate in RATES
    }
    sems = {rate: float(np.std(v, ddof=1) / np.sqrt(len(v))) for rate, v in per_seed.items()}
    band = 2.0 * max(sems.values())

    curve = [means[r] for r in RATES]
    peak = int(np.argmax(curve))
    argmax_ok = RATES[peak] in (0.9, 0.95)
    unimodal = all(curve[i + 1] >= curve[i] - band for i in range(peak)) and all(
        curve[i + 1] <= curve[i] + band for i in range(peak, len(curve) - 1)
    )
    detail = " ".join(f"{r}:{means[r]:.4f}" for r in RATES)
    _finish(7, argmax_ok and unimodal, time.perf_counter() - t0, 1800,
            f"mean ood by rate {detail}; argmax {RATES[peak]}; unimodal within band {band:.4f}")


def test_criterion_08_scratch_large_dropout_hurts():
    t0 = time.perf_counter()
    task = gen_xor_task(4, 2000, seed=700)
    split = leave_one_out_splits(task)[3]  # the noisier shifted environment
    res = {0.0: {"iid": [], "ood": []}, 0.9: {"iid": [], "ood": []}}
    for seed in range(5):
        start = checkpoint_from_model(
            new_residual_model(task.n_features, 16, 2, 2, seed=1000 + seed), 0, "scratch")
        for rate in (0.0, 0.9):
            cfg = FineTuneConfig(dropout_rate=rate, lr=0.01, weight_decay=1e-4,
                                 total_iterations=1000, batch_size=32, seed=seed)
            record = finetune(start, split, cfg)
            res[rate]["iid"].append(record.best_iid_val_acc)
            res[rate]["ood"].append(record.ood_acc)
    iid_gap = float(np.mean(res[0.0]["iid"]) - np.mean(res[0.9]["iid"]))
    ood_gap = float(np.mean(res[0.0]["ood"]) - np.mean(res[0.9]["ood"]))
    ok = iid_gap > 0.02 and ood_gap > 0.02
    _finish(8, ok, time.perf_counter() - t0, 600,
            f"scratch rate 0 vs 0.9: iid {np.mean(res[0.0]['iid']):.3f} vs "
            f"{np.mean(res[0.9]['iid']):.3f} (gap {iid_gap * 100:.1f}pp), "
            f"ood {np.mean(res[0.0]['ood']):.3f} vs {np.mean(res[0.9]['ood']):.3f} "
            f"(gap {ood_gap * 100:.1f}pp); both > 2pp")


def test_criterion_09_head_lr_is_minor_next_to_dropout(rate_sweep):
    t0 = time.perf_counter()
    erm = float(np.mean(list(rate_sweep[0.0].values())))
    drop = float(np.mean(list(rate_sweep[0.9].values())))
    fast = float(np.mean(list(rate_sweep["head10"].values())))
    head_effect = abs(fast - drop)
    dropout_gap = drop - erm
    ok = head_effect < dropout_gap
    _finish(9, ok, time.perf_counter() - t0, 60,
            f"|ood(dropout90+headlr10) - ood(dropout90)| = {head_effect:.4f} < "
            f"dropout-vs-erm gap {dropout_gap:.4f} (shares criterion 7 runs)")


def test_criterion_10_rich_pretraining_amplifies_gain(multienv_task):
    t0 = time.perf_counter()
    crash = leave_one_out_splits(multienv_task)[3]
    opt = OptimizerSettings(lr=0.01, weight_decay=1e-5, momentum=0.9,
                            iterations=6000, batch_size=64)
    gains = {"rich": [], "plain": []}
    for unit in range(10):
        for kind in ("rich", "plain"):
            corpus = gen_pretrain_corpus(kind == "rich", 50_000, 900 + unit)
            ck = pretrain(ARCH, corpus, opt, seed=unit)
            per_ft = []
            for ft_seed in (3 * unit, 3 * unit + 1, 3 * unit + 2):
                accs = {}
                for rate in (0.0, 0.9):
                    cfg = FineTuneConfig(dropout_rate=rate, seed=ft_seed, **FT)
                    accs[rate] = finetune(ck, crash, cfg).ood_acc
                per_ft.append(accs[0.9] - accs[0.0])
            gains[kind].append(float(np.mean(per_ft)))
    wins = sum(r > p for r, p in zip(gains["rich"], gains["plain"]))
    ties = sum(r == p for r, p in zip(gains["rich"], gains["plain"]))
    p_value = sign_test_p(wins, 10 - ties)
    ok = p_value < 0.05
    _finish(10, ok, time.perf_counter() - t0, 1200,
            f"dropout gain rich={np.mean(gains['rich']):.3f} vs plain={np.mean(gains['plain']):.3f}; "
            f"rich wins {wins}/{10 - ties} pairs (sign test p={p_value:.4f} < 0.05)")


def test_criterion_11_sweep_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "task"
    corpus = tmp_path / "corpus"
    ckpt = tmp_path / "trunk.ckpt"
    assert cli_main(["gen-data", "--task", "multienv", "--envs", "3", "--n-core", "4",
                     "--n-inert", "0", "--n-spurious", "2", "--n-per-env", "120",
                     "--seed", "5", "--out", str(data)]) == 0
    assert cli_main(["gen-data", "--task", "redundant", "--n-features", "6",
                     "--n-samples", "400", "--seed", "2", "--out", str(corpus)]) == 0
    assert cli_main(["pretrain", "--data", str(corpus), "--out", str(ckpt), "--width", "8",
                     "--depth", "1", "--iterations", "80", "--batch-size", "16",
                     "--seed", "3"]) == 0

    def sweep(out, parallel):
        assert cli_main([
            "sweep", "--data", str(data), "--start", str(ckpt), "--out", str(out),
            "--recipes", "erm,dropout90", "--lrs", "1e-2,5e-3", "--wds", "1e-4,1e-5",
            "--seeds", "1,2", "--splits", "all", "--iterations", "80",
            "--batch-size", "16", "--checkpoint-interval", "20",
            "--parallel", str(parallel),
        ]) == 0
        assert cli_main(["report", "--results", str(out), "--out", str(out / "report")]) == 0

    outs = [tmp_path / f"s{i}" for i in range(3)]
    sweep(outs[0], 1)
    sweep(outs[1], 1)
    sweep(outs[2], 4)

    def read_all(root):
        blobs = {}
        for sub in ("runs.jsonl", "summary.json"):
            blobs[sub] = (root / sub).read_bytes()
        for f in sorted((root / "report").iterdir()):
            blobs[f"report/{f.name}"] = f.read_bytes()
        return blobs

    b0, b1, b2 = map(read_all, outs)
    identical = b0 == b1 == b2
    _finish(11, identical, time.perf_counter() - t0, 600,
            f"serial rerun and --parallel 4 byte-identical across {len(b0)} files "
            "(runs.jsonl, summary.json, report)")
