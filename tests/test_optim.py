"""Optimizer rules and the deterministic trainer."""

import numpy as np
import pytest

from gradutils import params_to_vector
from reloop.features import Dataset, FeatureSchema, FieldSpec
from reloop.losses import LossConfig, LossInputError
from reloop.metrics import logloss
from reloop.models import Grads, ModelConfig, init_params, predict_batch
from reloop.optim import (
    OptimizerState,
    TrainConfig,
    apply_update,
    epoch_permutation,
    train_epochs,
)


def lr_grads(params, bias=0.0, table=None):
    """Compact LR grads: ``table`` maps feature row -> linear gradient."""
    rows = np.array(sorted(table or {}), dtype=np.int64)
    return Grads(
        bias=bias,
        linear=np.array([table[r] for r in rows], dtype=np.float64),
        emb=None,
        mlp=[],
        cross=[],
        head=None,
        rows=rows,
    )


@pytest.fixture
def lr_params():
    schema = FeatureSchema([FieldSpec("a", buckets=4)])
    return init_params(schema, ModelConfig("lr"), seed=0)


class TestSgd:
    def test_scalar_update(self, lr_params):
        lr_params.bias = 1.0
        state = OptimizerState(kind="sgd", lr=0.1)
        apply_update(state, lr_params, lr_grads(lr_params, bias=2.0))
        assert lr_params.bias == pytest.approx(0.8, abs=1e-15)
        assert state.step_count == 1

    def test_table_rows_only(self, lr_params):
        lr_params.linear[:] = 1.0
        state = OptimizerState(kind="sgd", lr=0.1)
        apply_update(state, lr_params, lr_grads(lr_params, table={1: 2.0, 3: -1.0}))
        assert lr_params.linear.tolist() == [1.0, 1.0 - 0.1 * 2.0, 1.0, 1.0 + 0.1]


class TestAdam:
    def test_first_step_is_minus_lr(self, lr_params):
        cfg = TrainConfig(optimizer="adam", lr=0.01)
        state = OptimizerState.for_params(cfg, lr_params)
        apply_update(state, lr_params, lr_grads(lr_params, bias=1.0))
        # bias-corrected first step: m_hat = v_hat = 1 -> delta = -lr/(1+eps)
        assert lr_params.bias == pytest.approx(-0.01, rel=1e-7)

    def test_three_steps_match_reference_recurrence(self, lr_params):
        lr, b1, b2, eps, g = 0.005, 0.9, 0.999, 1e-8, 0.7
        cfg = TrainConfig(optimizer="adam", lr=lr, beta1=b1, beta2=b2, eps=eps)
        state = OptimizerState.for_params(cfg, lr_params)
        theta_ref, m, v = 0.0, 0.0, 0.0
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
            apply_update(state, lr_params, lr_grads(lr_params, bias=g))
        assert lr_params.bias == pytest.approx(theta_ref, abs=1e-12)
        assert state.step_count == 3

    def test_lazy_rows_keep_stale_moments(self, lr_params):
        cfg = TrainConfig(optimizer="adam", lr=0.01)
        state = OptimizerState.for_params(cfg, lr_params)
        apply_update(state, lr_params, lr_grads(lr_params, table={0: 1.0}))
        m_before = state.m.linear[1]
        apply_update(state, lr_params, lr_grads(lr_params, table={1: 1.0}))
        # row 0 untouched by the second step: neither decayed nor updated
        assert state.m.linear[0] == pytest.approx(0.1, abs=1e-15)
        assert m_before == 0.0
        assert lr_params.linear[2] == 0.0


def separable_dataset(n=400):
    """One binary field fully determines the label."""
    schema = FeatureSchema([FieldSpec("bit", buckets=2), FieldSpec("noise", buckets=8)])
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    idx_neg = schema.hash_feature("bit", "zero")
    # find a token landing in the other bucket; hashing may collide otherwise
    other = next(t for t in range(64) if schema.hash_feature("bit", str(t)) != idx_neg)
    idx_pos = schema.hash_feature("bit", str(other))
    bit = np.where(labels == 1, idx_pos, idx_neg)
    noise = np.array([schema.hash_feature("noise", str(t)) for t in rng.integers(0, 8, n)])
    indices = np.stack([bit, noise], axis=1)
    ds = Dataset(schema, labels, indices, np.ones_like(indices, float), np.arange(n))
    return ds, idx_pos, idx_neg


class TestTrainEpochs:
    def test_zero_epochs_returns_unchanged(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("fm", embed_dim=3), seed=1)
        before = params_to_vector(p).copy()
        p, log = train_epochs(p, tiny_dataset, TrainConfig(epochs=0))
        assert log == []
        assert np.array_equal(params_to_vector(p), before)

    def test_bitwise_determinism(self, tiny_dataset):
        cfg = TrainConfig(epochs=3, seed=5, loss=LossConfig("ce"))
        runs = []
        for _ in range(2):
            p = init_params(tiny_dataset.schema, ModelConfig("deepfm", embed_dim=3, mlp_widths=(5,)), seed=2)
            p, log = train_epochs(p, tiny_dataset, cfg)
            runs.append((params_to_vector(p), log))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_reloop_alpha_zero_bitwise_equals_ce(self, tiny_dataset):
        scored = tiny_dataset.with_y_last(np.full(len(tiny_dataset), 0.4))
        vecs = []
        for loss in (LossConfig("ce"), LossConfig("reloop", alpha=0.0)):
            p = init_params(scored.schema, ModelConfig("fm", embed_dim=3), seed=3)
            p, _ = train_epochs(p, scored, TrainConfig(epochs=3, seed=3, loss=loss))
            vecs.append(params_to_vector(p))
        assert np.array_equal(vecs[0], vecs[1])

    def test_loss_kinds_all_train(self, tiny_dataset):
        scored = tiny_dataset.with_y_last(np.full(len(tiny_dataset), 0.5))
        for kind in ("ce", "reloop", "kd"):
            p = init_params(scored.schema, ModelConfig("lr"), seed=0)
            p, log = train_epochs(
                p, scored, TrainConfig(epochs=2, seed=0, loss=LossConfig(kind, alpha=0.3))
            )
            assert len(log) == 2 and np.isfinite(log).all()

    def test_missing_y_last_errors_with_row(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("lr"), seed=0)
        with pytest.raises(LossInputError, match="row_id 0"):
            train_epochs(p, tiny_dataset, TrainConfig(loss=LossConfig("reloop", alpha=0.5)))

    def test_separable_oracle_then_training(self):
        ds, idx_pos, idx_neg = separable_dataset()
        # oracle: a known weight vector achieves logloss below 0.05
        oracle = np.zeros(ds.schema.n_features)
        oracle[idx_pos], oracle[idx_neg] = 8.0, -8.0
        scores = 1 / (1 + np.exp(-(oracle[ds.indices].sum(axis=1))))
        assert logloss(ds.labels, scores) < 0.05
        p = init_params(ds.schema, ModelConfig("lr"), seed=1)
        cfg = TrainConfig(epochs=50, seed=1, lr=2e-2, batch_size=32, loss=LossConfig("ce"))
        p, log = train_epochs(p, ds, cfg)
        assert log[-1] < 0.1

    def test_ce_loss_nonincreasing_small_lr(self):
        ds, _, _ = separable_dataset()
        p = init_params(ds.schema, ModelConfig("lr"), seed=2)
        cfg = TrainConfig(epochs=10, seed=2, optimizer="sgd", lr=1e-3, loss=LossConfig("ce"))
        p, log = train_epochs(p, ds, cfg)
        assert all(b <= a + 1e-12 for a, b in zip(log, log[1:]))

    def test_params_stay_finite(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("dcn", embed_dim=3, mlp_widths=(5,)), seed=4)
        p, _ = train_epochs(p, tiny_dataset, TrainConfig(epochs=3, seed=4, lr=0.05))
        assert p.all_finite()

    def test_training_improves_on_planted_signal(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("lr"), seed=0)
        before = logloss(tiny_dataset.labels, predict_batch(p, tiny_dataset))
        p, _ = train_epochs(p, tiny_dataset, TrainConfig(epochs=10, seed=0, lr=1e-2))
        after = logloss(tiny_dataset.labels, predict_batch(p, tiny_dataset))
        assert after < before


class TestShuffle:
    def test_permutation_pure_function(self):
        a = epoch_permutation(9, 2, 100)
        b = epoch_permutation(9, 2, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, epoch_permutation(9, 3, 100))
        assert not np.array_equal(a, epoch_permutation(8, 2, 100))
        assert sorted(a.tolist()) == list(range(100))

    def test_no_shuffle_preserves_order(self, tiny_dataset):
        cfg = TrainConfig(epochs=1, shuffle=False, batch_size=32)
        p = init_params(tiny_dataset.schema, ModelConfig("lr"), seed=0)
        p2, log = train_epochs(p, tiny_dataset, cfg)
        assert len(log) == 1
