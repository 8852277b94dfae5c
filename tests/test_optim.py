"""Optimizer rules and the deterministic trainer."""

from dataclasses import replace

import numpy as np
import pytest

from gradutils import params_to_vector
from hashutils import feature_index
from reloop.features import Dataset, FeatureSchema, FieldSpec
from reloop.losses import LossConfig, LossInputError, combined_vec, grad_z_vec
from reloop.metrics import logloss
import reloop.optim
from reloop.models import (
    MODEL_KINDS,
    DimensionError,
    Grads,
    ModelConfig,
    backward_batch,
    forward_batch,
    held_rows,
    hold_rows,
    init_params,
    predict_batch,
)
from reloop.optim import (
    OPTIMIZER_KINDS,
    DivergenceError,
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


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_lr_not_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            TrainConfig(lr=lr)


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
        cfg = TrainConfig(optimizer="adam", lr=lr)
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
        _, (m_linear, _) = state.moments
        apply_update(state, lr_params, lr_grads(lr_params, table={0: 1.0}))
        m_before = m_linear[1]
        apply_update(state, lr_params, lr_grads(lr_params, table={1: 1.0}))
        # row 0 untouched by the second step: neither decayed nor updated
        assert m_linear[0] == pytest.approx(0.1, abs=1e-15)
        assert m_before == 0.0
        assert lr_params.linear[2] == 0.0


def random_grads(params, rng, rows=(1, 4, 6)):
    """Grads with random dense blocks and compact table rows ``rows``."""
    rows = np.array(rows, dtype=np.int64)
    k = params.embed_dim
    return Grads(
        bias=float(rng.normal()),
        linear=None if params.linear is None else rng.normal(size=rows.shape[0]),
        emb=None if params.emb is None else rng.normal(size=(rows.shape[0], k)),
        mlp=[(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in params.mlp],
        cross=[(rng.normal(size=w.shape), rng.normal(size=b.shape))
               for w, b in params.cross],
        head=None if params.head is None else rng.normal(size=params.head.shape),
        rows=rows,
    )


def reference_dense_adam(cfg, theta, grads_seq):
    """One dense block through the per-block Adam recurrence, step by step."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t, g in enumerate(grads_seq, start=1):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        theta -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return theta, m, v


def split_dense(flat, params):
    """A dense moment vector cut into blocks shaped like
    ``params.dense_blocks()``; the last slot, the bias's, is left off."""
    out, lo = [], 0
    for a in params.dense_blocks():
        out.append(flat[lo : lo + a.size].reshape(a.shape))
        lo += a.size
    assert lo == flat.size - 1
    return out


class TestFlatDenseAdam:
    @pytest.mark.parametrize("kind", ["deepfm", "mlp", "dcn"])
    def test_bitwise_equal_to_per_block_recurrence(self, small_schema, kind):
        params = init_params(small_schema, ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4)),
                             seed=1)
        before = params.copy()
        cfg = TrainConfig(optimizer="adam", lr=0.01)
        state = OptimizerState.for_params(cfg, params)
        rng = np.random.default_rng(2)
        seq = [random_grads(params, rng) for _ in range(3)]
        for g in seq:
            apply_update(state, params, g)
        (m, v), *_ = state.moments
        blocks = zip(params.dense_blocks(), before.dense_blocks(),
                     split_dense(m, params), split_dense(v, params), strict=True)
        assert params.dense_blocks()
        for i, (got, init, got_m, got_v) in enumerate(blocks):
            theta, want_m, want_v = reference_dense_adam(
                cfg, init.copy(), [g.dense_blocks()[i] for g in seq])
            assert got.tobytes() == theta.tobytes(), i
            assert got_m.tobytes() == want_m.tobytes(), i
            assert got_v.tobytes() == want_v.tobytes(), i

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_one_moment_pair_per_step_group(self, small_schema, kind):
        params = init_params(small_schema, ModelConfig(kind, embed_dim=3, mlp_widths=(5,)),
                             seed=1)
        state = OptimizerState.for_params(TrainConfig(optimizer="adam"), params)
        # the dense blocks and the bias slot, then each table the kind holds
        n_dense = sum(a.size for a in params.dense_blocks())
        tables = [t for t in (params.linear, params.emb) if t is not None]
        shapes = [(n_dense + 1,)] + [t.shape for t in tables]
        assert [m.shape for m, _ in state.moments] == shapes
        assert [v.shape for _, v in state.moments] == shapes
        for m, v in state.moments:
            assert not m.any() and not v.any()
            assert not np.shares_memory(m, v)
        sgd = OptimizerState.for_params(TrainConfig(optimizer="sgd"), params)
        assert sgd.moments == []


class TestMisbuiltState:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer 'bogus'"):
            OptimizerState(kind="bogus", lr=0.1)

    # no pairs; two pairs for three step groups; three pairs, the dense one
    # sized for another model
    @pytest.mark.parametrize("built_for", [None, "lr", "deepfm"])
    def test_adam_moments_that_do_not_fit_rejected(self, small_schema, built_for):
        params = init_params(small_schema, ModelConfig("fm", embed_dim=3), seed=1)
        if built_for is None:
            state = OptimizerState(kind="adam", lr=0.1)
        else:
            other = init_params(small_schema, ModelConfig(built_for, embed_dim=3), seed=1)
            state = OptimizerState.for_params(TrainConfig(optimizer="adam"), other)
        before = params.copy()
        grads = random_grads(params, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"OptimizerState\.for_params"):
            apply_update(state, params, grads)
        assert state.step_count == 0 and params.bias == before.bias
        for (name, a), (_, b) in zip(params.blocks(), before.blocks(), strict=True):
            assert a.tobytes() == b.tobytes(), name

    # the gradients, not a state built for the params, are at fault
    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_gradients_of_another_dense_size_rejected(self, small_schema, kind):
        params = init_params(small_schema, ModelConfig("fm", embed_dim=3), seed=1)
        other = init_params(small_schema, ModelConfig("deepfm", embed_dim=3), seed=1)
        state = OptimizerState.for_params(TrainConfig(optimizer=kind), params)
        grads = random_grads(other, np.random.default_rng(0))
        with pytest.raises(ValueError, match="gradient shape does not match parameters"):
            apply_update(state, params, grads)
        assert state.step_count == 0


def reference_steps(cfg, params, grads_seq):
    """``grads_seq`` applied to ``params`` through one rule per block kind,
    step by step: the bias as a Python scalar, each table over its rows with
    gathers, each dense block in place. Returns the params and Adam's
    moments as {name: array}, the bias under "bias"."""
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.lr
    tables = [n for n in ("linear", "emb") if getattr(params, n) is not None]
    dense = params.dense_blocks()
    m = {n: np.zeros_like(getattr(params, n)) for n in tables}
    v = {n: np.zeros_like(getattr(params, n)) for n in tables}
    md, vd = [np.zeros_like(a) for a in dense], [np.zeros_like(a) for a in dense]
    mb = vb = 0.0
    for t, g in enumerate(grads_seq, start=1):
        rows = g.rows
        if cfg.optimizer == "sgd":
            params.bias -= lr * g.bias
            for n in tables:
                getattr(params, n)[rows] -= lr * getattr(g, n)
            for theta, gb in zip(dense, g.dense_blocks()):
                theta -= lr * gb
            continue
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        mb = b1 * mb + (1.0 - b1) * g.bias
        vb = b2 * vb + (1.0 - b2) * (g.bias * g.bias)
        params.bias -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        for n in tables:
            theta, gr = getattr(params, n), getattr(g, n)
            mr = b1 * np.take(m[n], rows, axis=0) + (1.0 - b1) * gr
            vr = b2 * np.take(v[n], rows, axis=0) + (1.0 - b2) * (gr * gr)
            m[n][rows] = mr
            v[n][rows] = vr
            theta[rows] = np.take(theta, rows, axis=0) - lr * (mr / c1) / (
                np.sqrt(vr / c2) + eps)
        for theta, gb, mi, vi in zip(dense, g.dense_blocks(), md, vd):
            mi *= b1
            mi += (1.0 - b1) * gb
            vi *= b2
            vi += (1.0 - b2) * (gb * gb)
            theta -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
    for i, (mi, vi) in enumerate(zip(md, vd)):
        m[f"dense[{i}]"], v[f"dense[{i}]"] = mi, vi
    m["bias"], v["bias"] = np.float64(mb), np.float64(vb)
    return params, m, v


def _moments(state, params):
    """Adam's moments by the names ``reference_steps`` gives them."""
    tables = [n for n in ("linear", "emb") if getattr(params, n) is not None]
    dense, *table_pairs = state.moments
    out = []
    for j, flat in enumerate(dense):
        d = {n: pair[j] for n, pair in zip(tables, table_pairs, strict=True)}
        for i, a in enumerate(split_dense(flat, params)):
            d[f"dense[{i}]"] = a
        d["bias"] = flat[-1]
        out.append(d)
    return out


class TestOneRule:
    """``apply_update`` against ``reference_steps``, bit for bit; table rows
    0, 4 and 23 sit out later steps."""

    ROWS = [(1, 4, 6), (0, 1, 6), (1, 4, 6, 23), (6,)]

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["lr", "fm", "mlp", "deepfm", "dcn"])
    def test_bitwise_equal_to_per_block_rules(self, small_schema, kind, optimizer):
        params = init_params(small_schema, ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4)),
                             seed=1)
        params.bias = 0.25
        ref = params.copy()
        cfg = TrainConfig(optimizer=optimizer, lr=0.01)
        state = OptimizerState.for_params(cfg, params)
        rng = np.random.default_rng(3)
        seq = [random_grads(params, rng, rows) for rows in self.ROWS]
        for g in seq:
            apply_update(state, params, g)
        ref, m, v = reference_steps(cfg, ref, seq)
        assert np.float64(params.bias).tobytes() == np.float64(ref.bias).tobytes()
        for (name, a), (_, b) in zip(params.blocks(), ref.blocks(), strict=True):
            assert a.tobytes() == b.tobytes(), name
        if optimizer == "sgd":
            assert state.moments == []
            return
        for got, want in zip(_moments(state, params), (m, v)):
            assert got.keys() == want.keys()
            for name in want:
                assert np.asarray(got[name]).tobytes() == want[name].tobytes(), name

    def test_bias_is_squared_by_multiplication(self, lr_params):
        # g ** 2 goes through libm's pow, which rounds this square one ulp
        # away from the correctly rounded g * g that every block uses
        g = 0.3624182010806754
        state = OptimizerState.for_params(TrainConfig(optimizer="adam"), lr_params)
        apply_update(state, lr_params, lr_grads(lr_params, bias=g))
        (_, v_dense), _ = state.moments
        assert v_dense[-1] == (1.0 - 0.999) * (g * g)


def per_batch_train(params, dataset, cfg):
    """Training as a loop over the full table that gathers every mini-batch
    from the dataset. Like ``train_epochs`` it stops after the first epoch
    whose mean loss is not finite, with that epoch's steps taken."""
    state = OptimizerState.for_params(cfg, params)
    log = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = epoch_permutation(cfg.seed, epoch, len(dataset))
            total = 0.0
            for lo in range(0, len(dataset), cfg.batch_size):
                sel = order[lo : lo + cfg.batch_size]
                y = dataset.labels[sel]
                y_last = None if dataset.y_last is None else dataset.y_last[sel]
                _, p, trace = forward_batch(params, dataset.indices[sel])
                total += float(combined_vec(cfg.loss, y, p, y_last).sum())
                dl_dz = grad_z_vec(cfg.loss, y, p, y_last) / sel.shape[0]
                apply_update(state, params, backward_batch(params, trace, dl_dz))
            log.append(total / len(dataset))
            if not np.isfinite(log[-1]):
                break
    return params, log


class TestContiguousBatches:
    @pytest.mark.parametrize("loss", ["ce", "reloop"])
    def test_bitwise_equal_to_per_batch_gathers(self, tiny_dataset, loss):
        ds = tiny_dataset
        if loss == "reloop":
            ds = ds.with_y_last(np.linspace(0.1, 0.9, len(ds)))
        cfg = TrainConfig(epochs=3, seed=4, batch_size=37, loss=LossConfig(loss, alpha=0.3))
        model = ModelConfig("deepfm", embed_dim=3, mlp_widths=(5,))
        runs = []
        for train in (train_epochs, per_batch_train):
            p, log = train(init_params(ds.schema, model, seed=2), ds, cfg)
            runs.append((params_to_vector(p).tobytes(), log))
        assert runs[0] == runs[1]


def separable_dataset(n=400):
    """One binary field fully determines the label."""
    schema = FeatureSchema([FieldSpec("bit", buckets=2), FieldSpec("noise", buckets=8)])
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    idx_neg = feature_index(schema, "bit", "zero")
    # find a token landing in the other bucket; hashing may collide otherwise
    other = next(t for t in range(64) if feature_index(schema, "bit", str(t)) != idx_neg)
    idx_pos = feature_index(schema, "bit", str(other))
    bit = np.where(labels == 1, idx_pos, idx_neg)
    noise = np.array([feature_index(schema, "noise", str(t)) for t in rng.integers(0, 8, n)])
    indices = np.stack([bit, noise], axis=1)
    ds = Dataset(schema, labels, indices, np.arange(n))
    return ds, idx_pos, idx_neg


@pytest.fixture
def sparse_dataset():
    """400 scored rows over 4 fields x 64 buckets that touch < 25% of the rows."""
    schema = FeatureSchema([FieldSpec(f"f{i}", "categorical", 64) for i in range(4)])
    rng = np.random.default_rng(12)
    tokens = rng.integers(0, 10, size=(400, 4))
    indices = np.array([[feature_index(schema, f"f{f}", str(t)) for f, t in enumerate(row)]
                        for row in tokens])
    assert np.unique(indices).size < 0.25 * schema.n_features
    labels = (rng.random(400) < 0.4).astype(np.float64)
    return Dataset(schema, labels, indices, np.arange(400), y_last=rng.uniform(0.05, 0.95, 400))


_SUB_CASES = [(kind, opt) for kind in ("fm", "deepfm") for opt in ("adam", "sgd")]


def _sub_setup(ds, kind, optimizer, lr=0.05):
    p = init_params(ds.schema, ModelConfig(kind, embed_dim=3, mlp_widths=(5,)), seed=6)
    p.linear[:] = np.random.default_rng(1).normal(size=p.linear.shape)  # init is zero
    cfg = TrainConfig(epochs=3, seed=8, batch_size=37, optimizer=optimizer, lr=lr,
                      loss=LossConfig("reloop", alpha=0.4))
    return p, cfg


class TestSubTable:
    """train_epochs trains the rows the data touches as a sub-table."""

    @pytest.mark.parametrize("kind, optimizer", _SUB_CASES)
    def test_bitwise_equal_to_full_table_loop(self, sparse_dataset, kind, optimizer):
        runs = []
        for train in (train_epochs, per_batch_train):
            p, cfg = _sub_setup(sparse_dataset, kind, optimizer)
            p, log = train(p, sparse_dataset, cfg)
            runs.append((params_to_vector(p).tobytes(), log))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind, optimizer", _SUB_CASES)
    def test_untouched_rows_keep_init_bytes(self, sparse_dataset, kind, optimizer):
        p, cfg = _sub_setup(sparse_dataset, kind, optimizer)
        init = p.copy()
        train_epochs(p, sparse_dataset, cfg)
        off = np.setdiff1d(np.arange(p.n_features), sparse_dataset.indices)
        assert p.linear[off].tobytes() == init.linear[off].tobytes()
        assert p.emb[off].tobytes() == init.emb[off].tobytes()
        on = np.unique(sparse_dataset.indices)
        assert (p.emb[on] != init.emb[on]).any(axis=1).all()

    @pytest.mark.parametrize("kind", ["fm", "deepfm"])
    def test_moments_have_one_row_per_used_row(self, sparse_dataset, kind, monkeypatch):
        states = []
        real = OptimizerState.for_params.__func__

        def spy(cls, cfg, params):
            states.append(real(cls, cfg, params))
            return states[-1]

        monkeypatch.setattr(OptimizerState, "for_params", classmethod(spy))
        p, cfg = _sub_setup(sparse_dataset, kind, "adam")
        train_epochs(p, sparse_dataset, cfg)
        used = np.unique(sparse_dataset.indices).size
        (state,) = states
        _, linear, emb = state.moments
        assert [a.shape for a in linear] == [(used,)] * 2
        assert [a.shape for a in emb] == [(used, 3)] * 2
        assert p.emb.shape == (64 * 4, 3)  # the caller's table keeps its size

    # sgd diverges in epoch 2, adam in epoch 1; whole tables, held rows that
    # are the rows in use (cold, trained in place), held rows beyond them
    # (warm, gathered and written back through the map)
    @pytest.mark.parametrize("held, optimizer, lr", [
        pytest.param(held, optimizer, lr, id="-".join(([held] if held else [])
                                                      + [optimizer, str(lr)]))
        for held in (None, "cold", "warm")
        for optimizer, lr in (("sgd", 1e10), ("adam", 1e155))
    ])
    def test_divergence_leaves_the_full_loop_state(self, sparse_dataset, monkeypatch,
                                                   held, optimizer, lr):
        """After the DivergenceError, the params moved to every row are the
        whole-table loop's, bit for bit."""
        p, cfg = _sub_setup(sparse_dataset, "fm", optimizer, lr=lr)
        every = np.arange(p.n_features)
        used = held_rows(p.n_features, [sparse_dataset.indices])
        if held:
            p = hold_rows(p, used if held == "cold" else np.union1d(used, every[::5]))
        q = hold_rows(p, every)
        maps = []
        real = reloop.optim.table_rows
        monkeypatch.setattr(reloop.optim, "table_rows",
                            lambda params: maps.append(params) or real(params))
        with pytest.raises(DivergenceError):
            train_epochs(p, sparse_dataset, cfg)
        assert len(maps) == (held != "cold")  # a cold version builds no map
        _, log = per_batch_train(q, sparse_dataset, cfg)
        assert not np.isfinite(log[-1])
        assert params_to_vector(hold_rows(p, every)).tobytes() == params_to_vector(q).tobytes()

    def test_index_out_of_range_raises_before_any_step(self, sparse_dataset):
        p, cfg = _sub_setup(sparse_dataset, "fm", "adam")
        before = params_to_vector(p).tobytes()
        bad = sparse_dataset.indices.copy()
        bad[-1, 0] = p.n_features
        ds = Dataset(sparse_dataset.schema, sparse_dataset.labels, bad,
                     sparse_dataset.row_ids, sparse_dataset.y_last)
        with pytest.raises(DimensionError, match="out of range"):
            train_epochs(p, ds, cfg)
        assert params_to_vector(p).tobytes() == before


class TestLossColumns:
    """An epoch shuffles only the columns its loss reads."""

    @pytest.mark.parametrize("kind", ["fm", "deepfm"])
    def test_ce_bitwise_equal_with_and_without_y_last(self, sparse_dataset, kind):
        ds = sparse_dataset
        runs = []
        for data in (ds, Dataset(ds.schema, ds.labels, ds.indices, ds.row_ids)):
            p, cfg = _sub_setup(data, kind, "adam")
            p, log = train_epochs(p, data, replace(cfg, loss=LossConfig("ce")))
            runs.append((params_to_vector(p).tobytes(), log))
        assert runs[0] == runs[1]

    def test_only_reloop_and_kd_gather_y_last(self, sparse_dataset):
        """A y_last column too short to gather never reaches a ce epoch."""
        ds = sparse_dataset
        ds.y_last = np.empty(0)
        p, cfg = _sub_setup(ds, "fm", "adam")
        _, log = train_epochs(p, ds, replace(cfg, loss=LossConfig("ce")))
        assert len(log) == cfg.epochs
        for kind in ("reloop", "kd"):
            with pytest.raises(ValueError):
                train_epochs(p, ds, replace(cfg, loss=LossConfig(kind)))


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
        assert p.nonfinite_block() is None

    def test_non_finite_epoch_loss_raises(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("fm", embed_dim=3), seed=0)
        cfg = TrainConfig(epochs=3, seed=0, optimizer="sgd", lr=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 1 of 3 .* not finite"):
                train_epochs(p, tiny_dataset, cfg)

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
