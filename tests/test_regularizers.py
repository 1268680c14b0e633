import numpy as np
import pytest

from finedrop.errors import CapacityError, ValidationError
from finedrop.regularizers import (
    DropoutSpec,
    apply_inverted_dropout,
    batch_dropout_mask,
    dropout_mask,
    expected_dropout_loss_closed_form,
    expected_dropout_loss_enumerated,
    feature_bagging_ensemble,
)

# Central 99.99% interval for the zero count of 1e5 Bernoulli(0.9) draws,
# computed by exact binomial CDF summation.
ZERO_COUNT_9999_INTERVAL = (89629, 90367)


def test_mask_rate_zero_is_all_ones():
    rng = np.random.default_rng(1)
    np.testing.assert_array_equal(dropout_mask(64, 0.0, rng), np.ones(64))


def test_mask_same_seed_identical():
    m1 = dropout_mask(128, 0.9, np.random.default_rng(7))
    m2 = dropout_mask(128, 0.9, np.random.default_rng(7))
    np.testing.assert_array_equal(m1, m2)


def test_mask_zero_count_in_binomial_interval():
    rng = np.random.default_rng(123)
    mask = dropout_mask(100_000, 0.9, rng)
    zeros = int(100_000 - mask.sum())
    lo, hi = ZERO_COUNT_9999_INTERVAL
    assert lo <= zeros <= hi


def test_mask_consumes_exactly_dim_draws_in_order():
    # two successive masks must equal one 2*dim draw split in half
    rng = np.random.default_rng(11)
    m1 = dropout_mask(50, 0.7, rng)
    m2 = dropout_mask(50, 0.7, rng)
    u = np.random.default_rng(11).random(100)
    np.testing.assert_array_equal(m1, (u[:50] >= 0.7).astype(float))
    np.testing.assert_array_equal(m2, (u[50:] >= 0.7).astype(float))


def test_batch_mask_is_per_example_row_major():
    rng = np.random.default_rng(5)
    batch = batch_dropout_mask(4, 8, 0.5, rng)
    seq = np.random.default_rng(5)
    rows = [dropout_mask(8, 0.5, seq) for _ in range(4)]
    np.testing.assert_array_equal(batch, np.stack(rows))


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9, 0.95])
def test_batch_mask_into_out_equals_allocating_call(rate):
    # same 0/1 values, same draws consumed, over several masks into one
    # buffer, as the allocating call and the mask's definition
    fresh, alloc, into = (np.random.default_rng(12) for _ in range(3))
    out = np.full((16, 7), np.nan)
    for _ in range(3):
        want = (fresh.random((16, 7)) >= rate).astype(np.float64)
        allocated = batch_dropout_mask(16, 7, rate, alloc)
        assert batch_dropout_mask(16, 7, rate, into, out=out) is out
        for got, rng in ((allocated, alloc), (out, into)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == fresh.bit_generator.state


def test_batch_mask_out_must_fit():
    rng = np.random.default_rng(13)
    for out in (np.empty((4, 9)), np.empty((4, 8), dtype=np.float32), np.empty((8, 4)).T):
        with pytest.raises(ValidationError, match="out must be"):
            batch_dropout_mask(4, 8, 0.5, rng, out=out)
    assert rng.bit_generator.state == np.random.default_rng(13).bit_generator.state  # nothing drawn


def test_rate_one_rejected():
    with pytest.raises(ValidationError):
        dropout_mask(4, 1.0, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        DropoutSpec(1.0, "train", np.random.default_rng(0))


def test_apply_matches_mask_semantics():
    # rate 0.5 with first draws keep/drop gives [2,4] -> [4,0]
    spec = DropoutSpec.seeded(0.5, seed=0)
    out = apply_inverted_dropout(np.array([2.0, 4.0]), spec)
    np.testing.assert_array_equal(out, [4.0, 0.0])


def test_apply_eval_mode_is_bit_exact_identity():
    phi = np.random.default_rng(3).normal(size=(6, 9))
    for rate in (0.5, 0.9, 0.95):
        spec = DropoutSpec(rate, "eval")
        out = apply_inverted_dropout(phi, spec)
        assert out is phi  # literally the same array, no copy, no draws


def test_apply_rate_zero_skips_rng_entirely():
    spec = DropoutSpec.seeded(0.0, seed=9)
    phi = np.arange(12.0).reshape(3, 4)
    out = apply_inverted_dropout(phi, spec)
    assert out is phi
    # stream untouched: next draw equals a fresh stream's first draw
    assert spec.rng.random() == np.random.default_rng(9).random()


@pytest.mark.parametrize("rate,three_sigma", [(0.5, 0.0213), (0.9, 0.0637), (0.95, 0.0925)])
def test_apply_is_unbiased(rate, three_sigma):
    # coordinate std of the mean of N rescaled masks is sqrt(rate/((1-rate)N))
    spec = DropoutSpec.seeded(rate, seed=2024)
    phi = np.ones((20_000, 5))
    out = apply_inverted_dropout(phi, spec)
    mean = out.mean(axis=0)
    assert np.all(np.abs(mean - 1.0) < three_sigma)


def test_apply_sample_mean_tight_tolerance():
    spec = DropoutSpec.seeded(0.9, seed=77)
    out = apply_inverted_dropout(np.ones((20_000, 4)), spec)
    assert np.all(np.abs(out.mean(axis=0) - 1.0) < 0.05)


def test_enumerated_loss_rate_zero_is_squared_loss():
    w, x, y = np.array([0.5, -1.0]), np.array([2.0, 1.0]), 0.7
    expected = (y - float(w @ x)) ** 2
    assert expected_dropout_loss_enumerated(w, x, y, 0.0) == pytest.approx(expected, rel=1e-15)


def test_enumerated_loss_single_feature_case():
    # masks: drop (P=.5, pred 0) and keep (P=.5, pred 2); loss = .5*0 + .5*4 = 2
    assert expected_dropout_loss_enumerated([1.0], [1.0], 0.0, 0.5) == pytest.approx(2.0, rel=1e-15)
    assert expected_dropout_loss_closed_form([1.0], [1.0], 0.0, 0.5) == pytest.approx(2.0, rel=1e-15)


def test_enumerated_loss_zero_x_is_y_squared():
    w = np.array([3.0, -2.0, 0.5])
    assert expected_dropout_loss_enumerated(w, np.zeros(3), 1.5, 0.9) == pytest.approx(2.25, rel=1e-12)


def test_enumerated_capacity_cap():
    with pytest.raises(CapacityError):
        expected_dropout_loss_enumerated(np.ones(21), np.ones(21), 0.0, 0.5)


def test_closed_form_matches_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        w = rng.normal(size=n)
        x = rng.normal(size=n)
        y = float(rng.normal())
        rate = float(rng.choice([0.1, 0.5, 0.9]))
        enum = expected_dropout_loss_enumerated(w, x, y, rate)
        closed = expected_dropout_loss_closed_form(w, x, y, rate)
        assert abs(enum - closed) <= 1e-10 * max(abs(enum), 1.0)


def _ridge_train_fn(features, labels, ridge=1e-6):
    def fit(masked):
        gram = masked.T @ masked + ridge * np.eye(masked.shape[1])
        return np.linalg.solve(gram, masked.T @ labels)

    return fit


def test_bagging_full_bag_single_member_equals_plain_training():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.01 * rng.normal(size=40)
    fit = _ridge_train_fn(X, y)
    ens = feature_bagging_ensemble(fit, X, bag_size=3, num_bags=1, rng=np.random.default_rng(0))
    np.testing.assert_allclose(ens.aggregate_weights, fit(X), rtol=1e-12)
    np.testing.assert_allclose(ens.predict(X), X @ fit(X), rtol=1e-12)


def test_bagging_spreads_weight_over_redundant_features():
    # two perfectly redundant features; plain training may pick either, but
    # single-feature bags force both to carry weight
    rng = np.random.default_rng(8)
    z = rng.normal(size=200)
    X = np.stack([z, z], axis=1)
    y = z.copy()
    fit = _ridge_train_fn(X, y)
    ens = feature_bagging_ensemble(fit, X, bag_size=1, num_bags=50, rng=np.random.default_rng(3))
    agg = np.abs(ens.aggregate_weights)
    assert agg.min() > 0.1 * agg.max()


def test_bagging_validation_errors():
    X = np.ones((5, 2))
    fit = lambda m: np.zeros(2)
    with pytest.raises(ValidationError):
        feature_bagging_ensemble(fit, X, bag_size=0, num_bags=1, rng=np.random.default_rng(0))
    with pytest.raises(ValidationError):
        feature_bagging_ensemble(fit, X, bag_size=3, num_bags=1, rng=np.random.default_rng(0))
    with pytest.raises(ValidationError):
        feature_bagging_ensemble(fit, X, bag_size=1, num_bags=0, rng=np.random.default_rng(0))
