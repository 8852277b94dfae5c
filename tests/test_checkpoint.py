"""Checkpoint format: bitwise round trips and distinct corruption errors."""

import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradutils import params_to_vector, set_params_from_vector
from reloop.checkpoint import (
    MAGIC,
    BadMagicError,
    CheckpointError,
    FormatVersionError,
    NonFiniteCheckpointError,
    SchemaDigestError,
    TruncatedCheckpointError,
    check_schema,
    checkpoint_nbytes,
    load_checkpoint,
    save_checkpoint,
)
import reloop.models
from reloop.features import ROW_BLOCK, Dataset, FeatureSchema, FieldSpec
from reloop.models import (MODEL_KINDS, DimensionError, ModelConfig, forward_batch,
                           held_rows, hold_rows, init_params, predict_batch, table_rows)
from reloop.optim import TrainConfig, train_epochs
from reloop.rng import philox


@pytest.fixture
def schema():
    return FeatureSchema([FieldSpec(f"f{i}", "categorical", 5) for i in range(3)])


def randomized(schema, kind, seed=4):
    p = init_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=(4, 2)), seed=seed)
    rng = np.random.default_rng(seed)
    p.bias = float(rng.normal())
    if p.linear is not None:
        p.linear[:] = rng.normal(size=p.linear.shape)
    return p


class TestRoundTrip:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bitwise(self, tmp_path, schema, kind):
        p = randomized(schema, kind)
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.kind == p.kind
        assert q.schema_digest == p.schema_digest
        assert q.n_fields == p.n_fields and q.n_features == p.n_features
        assert np.array_equal(params_to_vector(p), params_to_vector(q))

    def test_dcn_without_mlp_branch(self, tmp_path, schema):
        p = init_params(schema, ModelConfig("dcn", embed_dim=2, mlp_widths=(), n_cross_layers=1), seed=1)
        save_checkpoint(p, tmp_path / "c.ckpt")
        q = load_checkpoint(tmp_path / "c.ckpt")
        assert np.array_equal(params_to_vector(p), params_to_vector(q))

    def test_save_twice_identical_bytes(self, tmp_path, schema):
        p = randomized(schema, "deepfm")
        save_checkpoint(p, tmp_path / "a.ckpt")
        save_checkpoint(p, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def held_schema():
    """2085 features: two whole init-draw blocks of ROW_BLOCK rows and a
    partial third."""
    schema = FeatureSchema([FieldSpec("a", buckets=1000), FieldSpec("b", buckets=1000),
                            FieldSpec("c", buckets=85)])
    assert schema.n_features > 2 * ROW_BLOCK and schema.n_features % ROW_BLOCK
    return schema


# an odd embed_dim, a perceptron branch and two cross layers
HELD_CFG = dict(embed_dim=3, mlp_widths=(5,), n_cross_layers=2)


def held_case_data(schema, n, seed):
    rng = np.random.default_rng(seed)
    idx = np.stack([schema.index_base[f] + rng.integers(0, spec.buckets, n)
                    for f, spec in enumerate(schema.fields)], axis=1)
    return Dataset(schema, (rng.random(n) < 0.4).astype(np.float64), idx, np.arange(n))


def saved(params, path):
    save_checkpoint(params, path)
    return path.read_bytes()


def every_row(params):
    """``params`` moved to every feature row."""
    return hold_rows(params, np.arange(params.n_features))


class TestHeldRows:
    """A model holding only some table rows draws, trains, scores and saves
    what the whole-table model does, bit for bit: its checkpoint stores the
    held rows, and those moved to every row are the whole model."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_init_and_save_equal_the_whole_tables(self, tmp_path, kind):
        schema = held_schema()
        cfg = ModelConfig(kind, **HELD_CFG)
        whole = init_params(schema, cfg, seed=6)
        rng = philox(6, 100)  # the whole-table draw, then the first dense block
        if whole.emb is not None:
            s = np.sqrt(6.0 / (schema.n_features + 3))
            assert whole.emb.tobytes() == rng.uniform(-s, s, size=whole.emb.shape).tobytes()
        if whole.mlp:
            w = whole.mlp[0][0]
            s = np.sqrt(6.0 / sum(w.shape))
            assert w.tobytes() == rng.uniform(-s, s, size=w.shape).tobytes()
        rows = held_rows(schema.n_features, [held_case_data(schema, 40, 1).indices])
        assert rows[-1] >= 2 * ROW_BLOCK and rows.size < schema.n_features
        held = init_params(schema, cfg, seed=6, rows=rows)
        assert [name for name, _ in held.blocks()] == [name for name, _ in whole.blocks()]
        for (name, w), (_, h) in zip(whole.blocks(), held.blocks()):
            want = w[rows] if name in ("linear", "emb") else w
            assert h.tobytes() == want.tobytes(), name
        save_checkpoint(held, tmp_path / "h.ckpt")
        loaded = load_checkpoint(tmp_path / "h.ckpt")
        assert loaded.rows.tobytes() == rows.tobytes() and loaded.init_seed == 6
        assert params_to_vector(loaded).tobytes() == params_to_vector(held).tobytes()
        widened = every_row(loaded)
        assert params_to_vector(widened).tobytes() == params_to_vector(whole).tobytes()
        # every row stored is a whole-table file
        assert saved(widened, tmp_path / "h.ckpt") == saved(whole, tmp_path / "w.ckpt")
        assert load_checkpoint(tmp_path / "h.ckpt").rows is None

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_warm_chain_of_growing_rows_saves_the_whole_bytes(self, tmp_path, kind):
        """Each version's checkpoint, loaded and moved to every row, saves
        the whole-table version's bytes."""
        schema = held_schema()
        cfg = ModelConfig(kind, **HELD_CFG)
        train_cfg = TrainConfig(epochs=2, batch_size=32, seed=3)
        windows = [held_case_data(schema, 120, seed) for seed in (1, 2, 3)]
        whole = init_params(schema, cfg, seed=6)
        held = init_params(schema, cfg, seed=6,
                           rows=held_rows(schema.n_features, [windows[0].indices]))
        for t, window in enumerate(windows):
            if t:
                grown = hold_rows(held, held_rows(schema.n_features,
                                                  [held.rows, window.indices]))
                assert grown.rows.size > held.rows.size
                held, whole = grown, whole.copy()
            train_epochs(whole, window, train_cfg)
            train_epochs(held, window, train_cfg)
            assert predict_batch(held, window).tobytes() == predict_batch(whole, window).tobytes()
            save_checkpoint(held, tmp_path / f"h{t}.ckpt")
            loaded = load_checkpoint(tmp_path / f"h{t}.ckpt")
            assert loaded.rows.tobytes() == held.rows.tobytes()
            assert (saved(every_row(loaded), tmp_path / f"h{t}.ckpt")
                    == saved(whole, tmp_path / f"w{t}.ckpt")), t
        assert held.rows.size < schema.n_features

    def test_a_row_not_held_is_refused(self):
        schema = held_schema()
        data = held_case_data(schema, 10, 1)
        rows = held_rows(schema.n_features, [data.indices])
        held = init_params(schema, ModelConfig("fm", embed_dim=3), seed=6, rows=rows)
        missing = np.setdiff1d(np.arange(schema.n_features), rows)[0]
        idx = data.indices[:2].copy()
        idx[1, 0] = missing
        with pytest.raises(DimensionError, match=rf"^feature row {missing} is not among the "
                                                 rf"{rows.size} rows this model holds"):
            forward_batch(held, idx)
        bad = Dataset(schema, np.array([0.0, 1.0]), idx, np.arange(2))
        before = held.copy()
        with pytest.raises(DimensionError, match="is not among"):
            train_epochs(held, bad, TrainConfig(epochs=1))
        assert held.emb.tobytes() == before.emb.tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_over_three_blocks_equals_the_whole_tables(self, kind):
        """At 8 x 2048 buckets, a held-rows model maps each of three row
        blocks through its lookup and scores what the whole tables score."""
        schema = FeatureSchema([FieldSpec(f"f{i}", buckets=2048) for i in range(8)])
        data = held_case_data(schema, 3 * ROW_BLOCK + 100, 3)
        whole = init_params(schema, ModelConfig(kind, **HELD_CFG), seed=6)
        if whole.linear is not None:  # the init is zero; make each row count
            whole.linear[:] = philox(8, 1).normal(size=whole.linear.shape)
        rows = held_rows(schema.n_features, [data.indices])
        held = hold_rows(whole, rows)
        assert held.rows is not None and rows.size < schema.n_features
        assert predict_batch(held, data).tobytes() == predict_batch(whole, data).tobytes()

    def test_predict_refuses_a_row_not_held_with_table_rows_text(self):
        """A row not held, in the second of three blocks, raises the
        DimensionError ``table_rows`` raises for it."""
        schema = held_schema()
        data = held_case_data(schema, 3 * ROW_BLOCK, 4)
        bad = data.indices.copy()
        rows = held_rows(schema.n_features, [bad[: ROW_BLOCK + 5], bad[ROW_BLOCK + 6 :]])
        held = init_params(schema, ModelConfig("deepfm", **HELD_CFG), seed=6, rows=rows)
        not_held = np.setdiff1d(np.arange(schema.n_features), rows)
        bad[ROW_BLOCK + 5] = not_held[[0, -1, 1]]
        with pytest.raises(DimensionError) as expected:
            table_rows(held)(bad)
        assert f"feature row {not_held[0]} is not among" in str(expected.value)
        bad = Dataset(schema, data.labels, bad, data.row_ids)
        with pytest.raises(DimensionError, match=rf"^{re.escape(str(expected.value))}$"):
            predict_batch(held, bad)

    @pytest.mark.parametrize("rows", [
        [0, ROW_BLOCK - 1, ROW_BLOCK, 2084],  # block edges, the last row
        [],
        [2 * ROW_BLOCK + 20],  # one row, in the partial last block
        list(range(0, 2085, 7)),
    ])
    def test_gather_gives_the_whole_draws_rows(self, rows):
        """Over 2085 rows (two whole blocks and a partial third), the rows
        gathered from the init draw's blocks are those of the whole draw."""
        shape = (held_schema().n_features, 3)
        whole = reloop.models._gather(
            reloop.models._draw_blocks(philox(6, 100), shape), shape, None)
        rows = np.array(rows, dtype=np.intp)
        got = reloop.models._gather(reloop.models._draw_blocks(philox(6, 100), shape),
                                    shape, rows)
        assert got.shape == (rows.size, 3)
        assert got.tobytes() == whole[rows].tobytes()
        s = np.sqrt(6.0 / sum(shape))
        assert whole.tobytes() == philox(6, 100).uniform(-s, s, size=shape).tobytes()

    def test_table_rows_are_the_positions_a_lookup_gives(self):
        """``table_rows``' map gives each held row what a lookup array over
        the feature space gives, in the lookup's int32, and names the first
        row not held in C order."""
        schema = held_schema()
        data = held_case_data(schema, 300, 2)
        rows = held_rows(schema.n_features, [data.indices])
        held = init_params(schema, ModelConfig("fm", embed_dim=3), seed=6, rows=rows)
        lookup = np.full(schema.n_features, -1, dtype=np.intp)
        lookup[rows] = np.arange(rows.size)
        at_rows = table_rows(held)
        for idx in (data.indices, data.indices.astype(np.int64), rows[::-1]):
            at = at_rows(idx)
            assert at.dtype == np.int32 and np.array_equal(at, lookup[idx])
        assert at_rows(data.indices[:0]).shape == (0, 3)
        not_held = np.setdiff1d(np.arange(schema.n_features), rows)
        idx = data.indices[:3].copy()
        idx[1, 2], idx[2, 0] = not_held[-1], not_held[0]  # the last row after every held one
        with pytest.raises(DimensionError, match=rf"^feature row {not_held[-1]} is not among "
                                                 rf"the {rows.size} rows this model holds of "
                                                 rf"{schema.n_features}$"):
            at_rows(idx)

    @pytest.mark.parametrize("rows", [
        [9, 3, 3, 12],
        [9, 3],
        [3, 3],
        [-1, 3],
        [3, 2085],
        list(range(2084, -1, -1)),  # every row, reversed
    ])
    def test_rows_out_of_order_are_refused(self, rows):
        """Held rows must be strictly increasing in [0, n_features), as a
        checkpoint stores them: anything else would save a file the loader
        refuses, or gather the wrong draw rows."""
        schema = held_schema()
        cfg = ModelConfig("fm", embed_dim=3)
        rows = np.array(rows)
        ok = held_rows(schema.n_features, [held_case_data(schema, 40, 1).indices])
        for params in (init_params(schema, cfg, seed=6),
                       init_params(schema, cfg, seed=6, rows=ok)):
            with pytest.raises(ValueError, match=r"^rows are not strictly increasing "
                                                 r"in \[0, 2085\)$"):
                hold_rows(params, rows)
        with pytest.raises(ValueError, match="not strictly increasing"):
            init_params(schema, cfg, seed=6, rows=rows)
        for fine in (ok, ok[:0], np.arange(schema.n_features)):
            assert init_params(schema, cfg, seed=6, rows=fine).emb.shape[0] == fine.size

    @pytest.mark.parametrize("kind", ["lr", "mlp", "dcn"])
    def test_hold_rows_draws_only_for_rows_not_held(self, monkeypatch, kind):
        schema = held_schema()
        cfg = ModelConfig(kind, **HELD_CFG)
        whole = init_params(schema, cfg, seed=6)
        rows = held_rows(schema.n_features, [held_case_data(schema, 40, 1).indices])
        held = init_params(schema, cfg, seed=6, rows=rows)
        draws = []
        real = reloop.models._init_table
        monkeypatch.setattr(reloop.models, "_init_table",
                            lambda name, *a: draws.append(name) or real(name, *a))
        tables = [name for name, _ in whole.blocks() if name in ("linear", "emb")]
        every = np.arange(schema.n_features)
        # a model holding every row is kept whole
        odd = rows[1::2]
        for params, want, kept in ((held, odd, odd), (held, rows, rows),
                                   (whole, rows, rows), (whole, every, None)):
            moved = hold_rows(params, want)
            assert draws == [] and moved.rows is kept
            expect = hold_rows(whole, want)
            assert params_to_vector(moved).tobytes() == params_to_vector(expect).tobytes()
        grown = np.union1d(rows, [0, schema.n_features - 1])
        moved = hold_rows(held, grown)
        assert draws == tables
        assert (params_to_vector(moved).tobytes()
                == params_to_vector(hold_rows(whole, grown)).tobytes())
        moved = hold_rows(held, every)
        assert draws == tables * 2 and moved.rows is None
        assert params_to_vector(moved).tobytes() == params_to_vector(whole).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_nbytes_is_the_file_size(self, tmp_path, kind):
        schema = held_schema()
        cfg = ModelConfig(kind, **HELD_CFG)
        path = tmp_path / "m.ckpt"
        rows = held_rows(schema.n_features, [held_case_data(schema, 40, 1).indices])
        for held in (None, rows, np.arange(schema.n_features)):
            save_checkpoint(init_params(schema, cfg, seed=1, rows=held), path)
            n_rows = schema.n_features if held is None else held.size
            assert checkpoint_nbytes(schema, cfg, n_rows) == path.stat().st_size


class TestNonFinite:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_refused_and_nothing_written(self, tmp_path, schema, kind):
        p = randomized(schema, kind)
        block, arr = ("linear", p.linear) if p.linear is not None else ("emb", p.emb)
        arr.flat[1] = np.nan
        path = tmp_path / "m.ckpt"
        with pytest.raises(NonFiniteCheckpointError, match=rf"block {block} "):
            save_checkpoint(p, path)
        assert list(tmp_path.iterdir()) == []

    def test_names_dense_block(self, tmp_path, schema):
        p = randomized(schema, "dcn")
        p.cross[1][0][0] = -np.inf
        with pytest.raises(NonFiniteCheckpointError, match=r"cross\[1\]\.w"):
            save_checkpoint(p, tmp_path / "m.ckpt")

    def test_existing_file_kept(self, tmp_path, schema):
        path = tmp_path / "m.ckpt"
        save_checkpoint(randomized(schema, "fm"), path)
        before = path.read_bytes()
        p = randomized(schema, "fm")
        p.bias = float("nan")
        with pytest.raises(NonFiniteCheckpointError, match="block bias "):
            save_checkpoint(p, path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("where", ["bias", "last"])
    def test_load_refuses_non_finite_file(self, tmp_path, schema, kind, value, where):
        """A file holding NaN or inf, which save never writes, does not load."""
        p = randomized(schema, kind)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        raw = bytearray(path.read_bytes())
        body = sum(8 * a.size for _, a in p.blocks())
        at = len(raw) - body - 8 if where == "bias" else len(raw) - 8
        raw[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(raw)
        block = "bias" if where == "bias" else p.blocks()[-1][0]
        with pytest.raises(NonFiniteCheckpointError,
                           match=rf"^{re.escape(str(path))}: parameter block "
                                 rf"{re.escape(block)} is not finite$"):
            load_checkpoint(path)


class TestCorruption:
    def _saved(self, tmp_path, schema):
        p = randomized(schema, "fm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        return path, path.read_bytes()

    def test_bad_magic(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(b"X" + raw[1:])
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_bad_magic_shown_as_bytes(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(b"X" + raw[1:])
        with pytest.raises(BadMagicError, match=r"magic b'XLPCKPT1'"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(MAGIC + struct.pack("<I", 99) + raw[12:])
        with pytest.raises(FormatVersionError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(TruncatedCheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_schema_digest_mismatch(self, tmp_path, schema):
        path, _ = self._saved(tmp_path, schema)
        params = load_checkpoint(path)
        other = FeatureSchema([FieldSpec(f"f{i}", "categorical", 5) for i in range(4)])
        with pytest.raises(SchemaDigestError):
            check_schema(params, other)
        check_schema(params, schema)  # the matching schema passes

    def test_feature_count_mismatch(self, tmp_path, schema):
        """A header whose feature count its schema digest does not give is
        refused before a caller draws or marks rows over that count."""
        p = randomized(schema, "fm")
        p.rows, p.n_features = np.arange(schema.n_features), 2**64 - 1
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        params = load_checkpoint(path)
        assert params.n_features == 2**64 - 1 and params.rows is not None
        with pytest.raises(SchemaDigestError, match=f"over {2**64 - 1} features does not "
                                                    f"match .* over {schema.n_features}$"):
            check_schema(params, schema)

    def test_unknown_kind_code(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(raw[:12] + b"\x7f" + raw[13:])
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)


@st.composite
def any_params(draw):
    """Params of any kind and small shape, every value a random finite float64."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    n_fields = draw(st.integers(1, 3))
    schema = FeatureSchema([FieldSpec(f"f{i}", "categorical", draw(st.integers(1, 3)))
                            for i in range(n_fields)])
    cfg = ModelConfig(kind, embed_dim=draw(st.integers(1, 3)),
                      mlp_widths=tuple(draw(st.lists(st.integers(1, 3), max_size=2))),
                      n_cross_layers=draw(st.integers(0, 2)))
    # whole tables, or a held-rows model of any rows, none included
    keep = draw(st.none() | st.lists(st.booleans(), min_size=schema.n_features,
                                     max_size=schema.n_features))
    rows = None if keep is None else np.flatnonzero(keep)
    p = init_params(schema, cfg, seed=draw(st.integers(0, 2**64 - 1)), rows=rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = params_to_vector(p).size
    values = np.frombuffer(rng.bytes(8 * size), dtype="<f8").copy()  # any bit pattern
    values[~np.isfinite(values)] = -0.0
    set_params_from_vector(p, values)
    return p


def _layout(p):
    blocks = [p.linear, p.emb, p.head] + [a for pair in p.mlp + p.cross for a in pair]
    rows = None if p.rows is None or p.rows.size == p.n_features else p.rows.tolist()
    return (p.kind, p.n_fields, p.n_features, p.embed_dim, p.schema_digest, p.init_seed,
            rows, [None if a is None else a.shape for a in blocks])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(any_params())
def test_round_trip_is_bitwise_for_any_params(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
    assert _layout(q) == _layout(p)
    assert params_to_vector(q).tobytes() == params_to_vector(p).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(any_params(), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255))
def test_truncated_or_flipped_file_loads_or_raises_checkpoint_error(p, where, mask):
    """A strict prefix of a valid file, or the file with one byte XORed with
    ``mask``, either loads or raises a CheckpointError subclass; ``where``
    picks the cut and the byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.ckpt"
        save_checkpoint(p, path)
        raw = path.read_bytes()
        i = int(where * len(raw))
        for data in (raw[:i], raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]):
            path.write_bytes(data)
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass


def test_load_peaks_at_one_copy_of_the_file(tmp_path):
    """Peak memory of a load: the parameters, each block read straight into
    its array; no copy of the file's bytes, no table-sized finiteness mask."""
    schema = FeatureSchema([FieldSpec("f0", buckets=2**15)])
    path = tmp_path / "fm.ckpt"
    save_checkpoint(init_params(schema, ModelConfig("fm", embed_dim=16), seed=0), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size, peak / size


_KIND_CODES = {"lr": 0, "fm": 1, "mlp": 2, "deepfm": 3, "dcn": 4}


def _header(kind_code, digest, embed_dim, n_fields, widths, n_cross, n_features, bias,
            init_seed=0, n_rows=None, version=2):
    """The header bytes as the module docstring lays them out, bias included;
    ``n_rows`` None stores every row."""
    return MAGIC + struct.pack(
        f"<IBQIII{len(widths)}IIQQQd", version, kind_code, digest, embed_dim, n_fields,
        len(widths), *widths, n_cross, n_features, init_seed,
        n_features if n_rows is None else n_rows, bias,
    )


@pytest.mark.parametrize("kind, widths", [(k, (4, 2)) for k in MODEL_KINDS] + [("dcn", ())],
                         ids=list(MODEL_KINDS) + ["dcn-no-mlp"])
def test_bytes_are_header_bias_then_each_block(tmp_path, schema, kind, widths):
    p = init_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=widths), seed=4)
    p.bias = 0.375
    path = tmp_path / "m.ckpt"
    save_checkpoint(p, path)
    expected = _header(_KIND_CODES[kind], p.schema_digest, p.embed_dim, p.n_fields,
                       p.mlp_widths, len(p.cross), p.n_features, p.bias, init_seed=4)
    expected += b"".join(a.astype("<f8").tobytes() for _, a in p.blocks())
    assert path.read_bytes() == expected


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_held_rows_bytes_are_header_bias_indices_then_each_block(tmp_path, schema, kind):
    rows = np.array([0, 3, 4, 14])
    p = init_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=(2,)), seed=-1,
                    rows=rows)
    path = tmp_path / "m.ckpt"
    save_checkpoint(p, path)
    expected = _header(_KIND_CODES[kind], p.schema_digest, p.embed_dim, p.n_fields,
                       p.mlp_widths, len(p.cross), p.n_features, p.bias,
                       init_seed=2**64 - 1, n_rows=4)
    expected += rows.astype("<i8").tobytes()
    expected += b"".join(a.astype("<f8").tobytes() for _, a in p.blocks())
    assert path.read_bytes() == expected
    assert p.linear is None or p.linear.shape == (4,)


def test_version_one_file_refused(tmp_path, schema):
    """A file in the whole-table format this one replaced does not load."""
    p = init_params(schema, ModelConfig("lr"), seed=0)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IBQIII0IIQd", 1, 0, p.schema_digest, 0, 3, 0, 0,
                                         15, 0.0) + bytes(8 * 15))
    with pytest.raises(FormatVersionError, match=r"version 1 \(expected 2\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("n_rows, index, match", [
    (16, [], "stores 16 table rows of 15"),
    (2**64 - 1, [], "stores 18446744073709551615 table rows of 15"),
    (3, [0, 5, 5], "not strictly increasing"),
    (3, [4, 2, 9], "not strictly increasing"),
    (2, [-1, 3], "not strictly increasing"),
    (2, [3, 15], r"not strictly increasing in \[0, 15\)"),
])
def test_bad_stored_rows_refused_before_any_table(tmp_path, schema, n_rows, index, match):
    """A row count past the feature space, or indices that are not strictly
    increasing in it, raise CheckpointError; the fm tables the header then
    claims (2^30 embedding rows of the file's length) are never allocated."""
    path = tmp_path / "bad.ckpt"
    raw = _header(1, schema.digest(), 2**30, schema.n_fields, (), 0, schema.n_features,
                  0.0, n_rows=n_rows)
    path.write_bytes(raw + np.array(index, dtype="<i8").tobytes() + bytes(2**16))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


_U32 = st.sampled_from([1, 0, 2, 2**32 - 1])


_INDEX = st.lists(st.sampled_from([0, 1, 2, 3, 2**63 - 1, -1]), max_size=4).map(
    lambda rows: np.array(rows, dtype="<i8").tobytes())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind_code=st.integers(0, 5), embed_dim=_U32, n_fields=_U32,
       widths=st.lists(_U32, max_size=2), n_cross=_U32,
       n_features=st.sampled_from([1, 0, 2, 2**64 - 1]),
       n_rows=st.sampled_from([None, 0, 1, 2, 3, 2**64 - 1]), index=_INDEX,
       body=st.one_of(st.binary(max_size=256), st.integers(0, 40).map(lambda n: bytes(8 * n))))
@example(kind_code=0, embed_dim=0, n_fields=1, widths=[], n_cross=2**32 - 1,
         n_features=1, n_rows=None, index=b"", body=bytes(8))
@example(kind_code=4, embed_dim=1, n_fields=1, widths=[1], n_cross=2**32 - 1,
         n_features=1, n_rows=None, index=b"", body=bytes(64))
@example(kind_code=1, embed_dim=2**32 - 1, n_fields=2**32 - 1, widths=[], n_cross=0,
         n_features=2**64 - 1, n_rows=None, index=b"", body=bytes(16))
@example(kind_code=1, embed_dim=2**32 - 1, n_fields=1, widths=[], n_cross=0,
         n_features=2**64 - 1, n_rows=2, index=np.array([1, 3], "<i8").tobytes(),
         body=bytes(64))
def test_any_header_over_a_short_body_loads_or_raises_checkpoint_error(
        kind_code, embed_dim, n_fields, widths, n_cross, n_features, n_rows, index, body):
    """Header fields that describe no model, stored rows the feature space
    does not hold, or more blocks than the body holds, raise a
    CheckpointError subclass before anything near their size is allocated.
    ``index`` is a run of row indices, some out of order or out of range."""
    raw = _header(kind_code, 0, embed_dim, n_fields, widths, n_cross, n_features, 0.0,
                  n_rows=n_rows) + index + body
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.ckpt"
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 64 * 1024 + 4 * len(raw), peak
