"""Model zoo: forward formulas, reductions, init, and exact gradients."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gradutils import (
    EncodedInstance,
    backward,
    combined_loss,
    dense_table,
    forward,
    grads_to_vector,
    loss_grad_z,
    params_to_vector,
    relative_errors,
    set_params_from_vector,
)
from hashutils import feature_index
from reloop.features import Dataset, FeatureSchema, FieldSpec
from reloop.losses import LossConfig
from reloop.rng import philox
from reloop.models import (
    MODEL_KINDS,
    DimensionError,
    ModelConfig,
    ModelConfigError,
    backward_batch,
    build_params,
    forward_batch,
    init_params,
    predict_batch,
    sigmoid,
    unique_rows,
)


@pytest.fixture
def schema():
    return FeatureSchema([FieldSpec(f"f{i}", "categorical", 6) for i in range(4)])


def random_instance(schema, rng):
    idx = np.array(
        [schema.index_base[f] + rng.integers(0, schema.fields[f].buckets)
         for f in range(schema.n_fields)],
        dtype=np.int64,
    )
    return EncodedInstance(1, idx, 0)


def randomized_params(schema, cfg, seed):
    p = init_params(schema, cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    vec = rng.normal(0.0, 0.5, size=params_to_vector(p).shape)
    set_params_from_vector(p, vec)
    return p


class TestForward:
    def test_zero_lr_predicts_half(self, schema):
        p = init_params(schema, ModelConfig("lr"), seed=0)
        inst = random_instance(schema, np.random.default_rng(0))
        z, prob, _ = forward(p, inst)
        assert z == 0.0 and prob == 0.5

    def test_fm_single_pairwise_term(self):
        schema = FeatureSchema([FieldSpec("a", buckets=2), FieldSpec("b", buckets=2)])
        p = init_params(schema, ModelConfig("fm", embed_dim=1), seed=0)
        p.emb[:] = 0.0
        ia = feature_index(schema, "a", "u")
        ib = feature_index(schema, "b", "v")
        p.emb[ia, 0], p.emb[ib, 0] = 0.5, 0.4
        inst = EncodedInstance(1, np.array([ia, ib]), 0)
        z, _, _ = forward(p, inst)
        assert z == pytest.approx(0.2, abs=1e-15)

    def test_fm_efficient_formula_matches_brute_force(self, schema):
        rng = np.random.default_rng(2)
        p = randomized_params(schema, ModelConfig("fm", embed_dim=4), seed=2)
        for _ in range(20):
            inst = random_instance(schema, rng)
            z, _, _ = forward(p, inst)
            brute = p.bias + sum(p.linear[i] for i in inst.indices)
            f = len(inst.indices)
            for i in range(f):
                for j in range(i + 1, f):
                    brute += float(np.dot(p.emb[inst.indices[i]], p.emb[inst.indices[j]]))
            assert abs(z - brute) <= 1e-10

    def test_deepfm_is_fm_plus_mlp_with_shared_embeddings(self, schema):
        rng = np.random.default_rng(3)
        cfg = ModelConfig("deepfm", embed_dim=3, mlp_widths=(5, 4))
        dfm = randomized_params(schema, cfg, seed=3)

        fm = init_params(schema, ModelConfig("fm", embed_dim=3), seed=0)
        fm.bias, fm.linear[:], fm.emb[:] = dfm.bias, dfm.linear, dfm.emb
        mlp = init_params(schema, ModelConfig("mlp", embed_dim=3, mlp_widths=(5, 4)), seed=0)
        mlp.bias = 0.0
        mlp.emb[:] = dfm.emb
        for (w, b), (sw, sb) in zip(mlp.mlp, dfm.mlp):
            w[:], b[:] = sw, sb
        for _ in range(10):
            inst = random_instance(schema, rng)
            za, _, _ = forward(dfm, inst)
            zf, _, _ = forward(fm, inst)
            zm, _, _ = forward(mlp, inst)
            assert za == pytest.approx(zf + zm, abs=1e-12)

    def test_dcn_with_no_cross_layers_reduces_to_mlp(self, schema):
        rng = np.random.default_rng(4)
        mlp = randomized_params(schema, ModelConfig("mlp", embed_dim=3, mlp_widths=(5, 4)), seed=5)
        dcn = init_params(schema, ModelConfig("dcn", embed_dim=3, mlp_widths=(5, 4), n_cross_layers=0), seed=9)
        dcn.emb[:] = mlp.emb
        for i in range(2):
            dcn.mlp[i][0][:] = mlp.mlp[i][0]
            dcn.mlp[i][1][:] = mlp.mlp[i][1]
        d = schema.n_fields * 3
        dcn.head[:] = 0.0
        dcn.head[d:] = mlp.mlp[2][0][0]  # the scalar head of the plain mlp
        dcn.bias = mlp.bias + mlp.mlp[2][1][0]
        for _ in range(10):
            inst = random_instance(schema, rng)
            z1, _, _ = forward(mlp, inst)
            z2, _, _ = forward(dcn, inst)
            assert z1 == pytest.approx(z2, abs=1e-12)

    def test_forward_deterministic_and_pure(self, schema):
        for kind in MODEL_KINDS:
            p = randomized_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4)), seed=6)
            before = params_to_vector(p).copy()
            inst = random_instance(schema, np.random.default_rng(7))
            z1, _, _ = forward(p, inst)
            z2, _, _ = forward(p, inst)
            assert z1 == z2  # trace replay is bitwise
            assert np.array_equal(params_to_vector(p), before)

    def test_dimension_mismatch_rejected(self, schema):
        p = init_params(schema, ModelConfig("lr"), seed=0)
        with pytest.raises(DimensionError):
            forward_batch(p, np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(DimensionError):
            forward_batch(p, np.array([[0, 1, 2, 99]]))

    def test_float_indices_refused_not_floored(self, schema):
        p = init_params(schema, ModelConfig("lr"), seed=0)
        for bad in (np.array([[0.9, 1.0, 2.0, 3.7]]), np.zeros((1, 4)), np.ones((1, 4), bool)):
            with pytest.raises(DimensionError, match="must be integers"):
                forward_batch(p, bad)


class TestSigmoid:
    @staticmethod
    def two_branch(z):
        """1 / (1 + e^-z) where z >= 0, else e^z / (1 + e^z), element by element."""
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_bitwise_equal_to_two_branch_formula(self):
        rng = np.random.default_rng(11)
        mag = 10.0 ** rng.uniform(-8, 5, size=200_000)
        z = np.concatenate([mag * rng.choice([-1.0, 1.0], size=mag.size),
                            [0.0, -0.0, np.inf, -np.inf, 709.0, -745.0, 1e300, -1e300]])
        assert sigmoid(z).tobytes() == self.two_branch(z).tobytes()
        assert sigmoid(-3.0).shape == ()


class TestInit:
    def test_same_seed_bitwise_identical(self, schema):
        for kind in MODEL_KINDS:
            cfg = ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4))
            a = init_params(schema, cfg, seed=11)
            b = init_params(schema, cfg, seed=11)
            assert np.array_equal(params_to_vector(a), params_to_vector(b))
            c = init_params(schema, cfg, seed=12)
            if kind != "lr":
                assert not np.array_equal(params_to_vector(a), params_to_vector(c))

    def test_lr_inits_to_zero(self, schema):
        p = init_params(schema, ModelConfig("lr"), seed=1)
        assert p.bias == 0.0 and np.all(p.linear == 0.0)

    def test_glorot_bound_for_first_layer(self):
        # 4 fields x embed 2 -> fan_in 8 into a width-4 layer
        schema = FeatureSchema([FieldSpec(f"f{i}", buckets=3) for i in range(4)])
        p = init_params(schema, ModelConfig("mlp", embed_dim=2, mlp_widths=(4,)), seed=2)
        bound = np.sqrt(6.0 / (8 + 4))
        w = p.mlp[0][0]
        assert w.shape == (4, 8)
        assert np.all(np.abs(w) < bound)
        assert np.all(p.mlp[0][1] == 0.0)

    def test_invalid_hyper_rejected(self):
        with pytest.raises(ModelConfigError):
            ModelConfig("mlp", mlp_widths=(0,))
        with pytest.raises(ModelConfigError):
            ModelConfig("fm", embed_dim=0)
        with pytest.raises(ModelConfigError):
            ModelConfig("rnn")


class TestLayout:
    """One block order: blocks(), dense_blocks() and build_params agree on it."""

    @pytest.mark.parametrize("kind, names", [
        ("lr", ["linear"]),
        ("fm", ["linear", "emb"]),
        ("mlp", ["emb", "mlp[0].W", "mlp[0].b", "mlp[1].W", "mlp[1].b"]),
        ("deepfm", ["linear", "emb", "mlp[0].W", "mlp[0].b", "mlp[1].W", "mlp[1].b"]),
        ("dcn", ["emb", "mlp[0].W", "mlp[0].b", "cross[0].w", "cross[0].b",
                 "cross[1].w", "cross[1].b", "head"]),
    ])
    def test_walks_and_builder_share_one_order(self, schema, kind, names):
        p = init_params(schema, ModelConfig(kind, embed_dim=2, mlp_widths=(3,)), seed=0)
        assert [name for name, _ in p.blocks()] == names
        arrays = [a for _, a in p.blocks()]
        n_tables = sum(name in ("linear", "emb") for name in names)
        dense = p.dense_blocks()
        assert len(dense) == len(arrays) - n_tables
        assert all(a is b for a, b in zip(dense, arrays[n_tables:]))

        made = []
        q = build_params(p.kind, p.n_fields, p.n_features, p.embed_dim, p.schema_digest,
                         p.mlp_widths, len(p.cross),
                         lambda name, shape: made.append((name, shape)) or np.ones(shape))
        assert made == [(name, a.shape) for name, a in p.blocks()]
        assert [name for name, _ in q.blocks()] == names

        _, _, trace = forward_batch(p, random_instance(schema, np.random.default_rng(0))
                                    .indices[None, :])
        g = backward_batch(p, trace, np.ones(1))
        assert [name for name, _ in g.blocks()] == names
        assert all(a is b for a, b in zip(g.dense_blocks(), [a for _, a in g.blocks()][n_tables:]))

    def test_weights_drawn_in_layout_order(self, schema):
        """Glorot draws, in order, for emb, each mlp W, each cross w and head;
        the linear table and every bias stay zero."""
        p = init_params(schema, ModelConfig("dcn", embed_dim=2, mlp_widths=(3,),
                                            n_cross_layers=2), seed=5)
        rng = philox(5, 100)

        def glorot(shape, fans):
            s = np.sqrt(6.0 / fans)
            return rng.uniform(-s, s, size=shape)

        m, d = schema.n_features, schema.n_fields * 2
        assert p.emb.tobytes() == glorot((m, 2), m + 2).tobytes()
        assert p.mlp[0][0].tobytes() == glorot((3, d), d + 3).tobytes()
        for w, b in p.cross:
            assert w.tobytes() == glorot((d,), d + 1).tobytes()
            assert not b.any()
        assert p.head.tobytes() == glorot((d + 3,), d + 4).tobytes()
        assert not p.mlp[0][1].any()

    @pytest.mark.parametrize("kind, embed_dim, n_fields, widths, n_cross", [
        ("lr", 1, 2, [], 0),
        ("lr", 0, 2, [], 1),
        ("fm", 0, 2, [], 0),
        ("fm", 2, 2, [1], 0),
        ("fm", 2, 2, [], 1),
        ("mlp", 2, 2, [3], 0),
        ("deepfm", 2, 2, [], 0),
        ("deepfm", 2, 2, [3, 1], 1),
        ("dcn", 2, 2, [0], 1),
        ("dcn", 2, 0, [], 1),
        ("rnn", 2, 2, [], 0),
    ])
    def test_builder_refuses_layouts_init_never_builds(self, kind, embed_dim, n_fields,
                                                       widths, n_cross):
        made = []
        with pytest.raises(ValueError, match="no .* model has"):
            build_params(kind, n_fields, 5, embed_dim, 0, widths, n_cross,
                         lambda name, shape: made.append(name))
        assert made == []


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, schema):
        for kind in MODEL_KINDS:
            p = randomized_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4)), seed=8)
            inst = random_instance(schema, np.random.default_rng(8))
            _, _, tr = forward(p, inst)
            g = backward(p, tr, 0.0)
            assert np.all(grads_to_vector(g, p) == 0.0)

    def test_lr_gradient_is_value(self, schema):
        p = init_params(schema, ModelConfig("lr"), seed=0)
        inst = random_instance(schema, np.random.default_rng(1))
        _, _, tr = forward(p, inst)
        g = backward(p, tr, 1.0)
        assert g.bias == 1.0
        assert np.array_equal(g.rows, np.unique(inst.indices))
        assert np.all(dense_table(g.linear, g.rows, p.linear)[inst.indices] == 1.0)

    def test_untouched_rows_zero_and_touched_reported(self, schema):
        p = randomized_params(schema, ModelConfig("fm", embed_dim=3), seed=9)
        inst = random_instance(schema, np.random.default_rng(2))
        _, _, tr = forward(p, inst)
        g = backward(p, tr, 0.7)
        assert np.array_equal(g.rows, np.unique(inst.indices))
        assert g.linear.shape == (len(g.rows),)
        assert g.emb.shape == (len(g.rows), 3)
        mask = np.ones(p.n_features, dtype=bool)
        mask[inst.indices] = False
        assert np.all(dense_table(g.emb, g.rows, p.emb)[mask] == 0.0)
        assert np.all(dense_table(g.linear, g.rows, p.linear)[mask] == 0.0)

    def test_batch_grads_sum_per_instance_grads(self, schema):
        p = randomized_params(schema, ModelConfig("dcn", embed_dim=3, mlp_widths=(5,)), seed=10)
        rng = np.random.default_rng(3)
        insts = [random_instance(schema, rng) for _ in range(4)]
        dl = rng.normal(size=4)
        idx = np.stack([i.indices for i in insts])
        _, _, tr = forward_batch(p, idx)
        batch = grads_to_vector(backward_batch(p, tr, dl), p)
        single = np.zeros_like(batch)
        for inst, d in zip(insts, dl):
            _, _, t1 = forward(p, inst)
            single += grads_to_vector(backward(p, t1, float(d)), p)
        assert np.allclose(batch, single, atol=1e-12)


def _split_tables(p, idx):
    """Copy of p where cell (b, f) owns table row b * F + f, holding p's row idx[b, f].

    Forward activations are bitwise those of p, and every row is touched
    once, so the split model's compact table gradients are the per-cell
    contributions before any reduction.
    """
    q = p.copy()
    q.n_features = idx.size
    if p.linear is not None:
        q.linear = p.linear[idx].ravel()
    if p.emb is not None:
        q.emb = p.emb[idx].reshape(idx.size, -1)
    return q, np.arange(idx.size, dtype=np.int64).reshape(idx.shape)


class TestUniqueRows:
    @pytest.mark.parametrize("n_features", [512, 2**17])
    def test_rows_and_inverse_equal_np_unique(self, n_features):
        rng = np.random.default_rng(n_features)
        for b in (1, 7, 256):
            # repeats within and across instances, and rows spread over the table
            idx = rng.choice(rng.integers(0, n_features, size=64), size=(b, 8))
            rows, slot = unique_rows(idx, n_features)
            ref_rows, ref_inv = np.unique(idx.ravel(), return_inverse=True)
            assert rows.dtype == ref_rows.dtype and np.array_equal(rows, ref_rows)
            assert np.array_equal(slot[idx.ravel()], ref_inv)

    @pytest.mark.parametrize("n_features", [512, 2**17])
    def test_backward_rows_are_np_unique(self, n_features):
        schema = FeatureSchema([FieldSpec(f"f{i}", "categorical", n_features // 8)
                                for i in range(8)])
        p = init_params(schema, ModelConfig("fm", embed_dim=2), seed=1)
        rng = np.random.default_rng(5)
        idx = rng.integers(0, n_features, size=(256, 8))
        _, _, tr = forward_batch(p, idx)
        g = backward_batch(p, tr, rng.normal(size=256))
        assert np.array_equal(g.rows, np.unique(idx))


class TestCompactGrads:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bitwise_equal_to_add_at_reference(self, schema, kind):
        """Repeated rows sum in batch order, exactly like np.add.at into zeros."""
        cfg = ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4), n_cross_layers=2)
        p = randomized_params(schema, cfg, seed=40)
        rng = np.random.default_rng(41)
        b = 48
        # a pool of 5 rows shared by every field: rows repeat within an
        # instance and across instances
        idx = rng.choice(np.array([0, 3, 7, 8, 20]), size=(b, schema.n_fields))
        assert any(len(set(r)) < len(r) for r in idx)
        dl = rng.normal(size=b)
        _, _, tr = forward_batch(p, idx)
        g = backward_batch(p, tr, dl)
        assert np.array_equal(g.rows, np.unique(idx))

        q, q_idx = _split_tables(p, idx)
        _, _, q_tr = forward_batch(q, q_idx)
        cells = backward_batch(q, q_tr, dl)
        assert np.array_equal(q_tr.z, tr.z)
        if p.linear is not None:
            ref = np.zeros_like(p.linear)
            np.add.at(ref, idx.ravel(), np.repeat(dl, idx.shape[1]))
            assert np.array_equal(dense_table(g.linear, g.rows, p.linear), ref)
        if p.emb is not None:
            ref = np.zeros_like(p.emb)
            np.add.at(ref, idx.ravel(), cells.emb)
            assert np.array_equal(dense_table(g.emb, g.rows, p.emb), ref)
        q_dense = [a for pair in cells.mlp + cells.cross for a in pair]
        dense = [a for pair in g.mlp + g.cross for a in pair]
        if g.head is not None:
            q_dense.append(cells.head)
            dense.append(g.head)
        assert g.bias == cells.bias
        assert all(np.array_equal(x, y) for x, y in zip(dense, q_dense))


class TestFiniteDifference:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_small_sweep(self, schema, kind):
        """Smoke-level gradient check; the full sweep runs in acceptance."""
        cfg = ModelConfig(kind, embed_dim=3, mlp_widths=(5, 4), n_cross_layers=2)
        loss_cfg = LossConfig("reloop", alpha=0.5)
        rng = np.random.default_rng(20)
        h = 1e-6
        for trial in range(3):
            p = randomized_params(schema, cfg, seed=30 + trial)
            inst = random_instance(schema, rng)
            y = float(rng.integers(0, 2))
            t = float(rng.uniform(0.05, 0.95))
            z, prob, tr = forward(p, inst)
            if abs(prob - t) <= 1e-3 or abs(z) > 8.0:
                continue
            an = grads_to_vector(backward(p, tr, loss_grad_z(loss_cfg, y, prob, t)), p)
            base = params_to_vector(p)
            fd = np.empty_like(base)
            for j in range(base.size):
                up = base.copy()
                up[j] += h
                set_params_from_vector(p, up)
                _, pp, _ = forward(p, inst)
                down = base.copy()
                down[j] -= h
                set_params_from_vector(p, down)
                _, pm, _ = forward(p, inst)
                fd[j] = (combined_loss(loss_cfg, y, pp, t) - combined_loss(loss_cfg, y, pm, t)) / (2 * h)
            set_params_from_vector(p, base)
            assert relative_errors(fd, an).max() <= 1e-4


# One block; one block with a 1-row remainder; three blocks, the last 1044
# rows; and the sizes whose former 8192-row chunks ended in a 20-row chunk.
SCORING_SIZES = (1000, 1025, 3092, 8212, 16404)
_TESTS = Path(__file__).resolve().parent


def scoring_case(kind, n_rows):
    """Default-dims params of ``kind`` and ``n_rows`` rows of 8 fields x 64 buckets."""
    schema = FeatureSchema([FieldSpec(f"f{i}", "categorical", 64) for i in range(8)])
    rng = np.random.default_rng(0)
    indices = rng.integers(0, 64, size=(n_rows, 8)) + np.arange(8) * 64
    data = Dataset(schema, np.zeros(n_rows), indices, np.arange(n_rows))
    return init_params(schema, ModelConfig(kind), seed=3), data


def save_whole_array_scores(path):
    """Write one whole-array ``forward_batch`` pass per kind and size to ``path``."""
    scores = {}
    for kind in MODEL_KINDS:
        params, data = scoring_case(kind, max(SCORING_SIZES))
        for n in SCORING_SIZES:
            scores[f"{kind}-{n}"] = forward_batch(params, data.indices[:n])[1]
    np.savez(path, **scores)


class TestScoringBlocks:
    def test_predict_batch_equals_one_thread_whole_array_pass(self, tmp_path):
        """The scoring contract: predict_batch, here at whatever BLAS thread
        count this process has, equals a whole-array forward_batch run in a
        child process with BLAS on one thread, bit for bit."""
        path = tmp_path / "whole.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(_TESTS), str(_TESTS.parent / "src")])
        code = f"import test_models; test_models.save_whole_array_scores({str(path)!r})"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)
        whole = np.load(path)
        differ = []
        for kind in MODEL_KINDS:
            params, data = scoring_case(kind, max(SCORING_SIZES))
            for n in SCORING_SIZES:
                got = predict_batch(params, data.head(n))
                if got.tobytes() != whole[f"{kind}-{n}"].tobytes():
                    differ.append((kind, n))
        assert differ == []

    def test_index_dtype_leaves_scores_bitwise(self):
        """int32 and int64 copies of the same indices give the same bits; at
        1500 rows predict_batch scores one block, a whole-array pass."""
        for kind in MODEL_KINDS:
            params, data = scoring_case(kind, 1500)
            assert data.indices.dtype == np.int32
            z32, p32, _ = forward_batch(params, data.indices)
            z64, p64, _ = forward_batch(params, data.indices.astype(np.int64))
            assert z32.tobytes() == z64.tobytes()
            assert p32.tobytes() == p64.tobytes()
            assert predict_batch(params, data).tobytes() == p64.tobytes()

    def test_predict_batch_memory_follows_the_block(self):
        peaks = []
        for n in (4096, 32768):
            params, data = scoring_case("deepfm", n)
            tracemalloc.start()
            try:
                predict_batch(params, data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
