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
from reloop.features import ROW_BLOCK, Dataset, FeatureSchema, FieldSpec
from reloop.models import (MODEL_KINDS, DimensionError, ModelConfig, forward_batch,
                           held_rows, hold_rows, init_params, predict_batch)
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


class TestHeldRows:
    """A model holding only some table rows draws, trains, scores and saves
    what the whole-table model does, bit for bit."""

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
        assert saved(held, tmp_path / "h.ckpt") == saved(whole, tmp_path / "w.ckpt")

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_warm_chain_of_growing_rows_saves_the_whole_bytes(self, tmp_path, kind):
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
            assert (saved(held, tmp_path / f"h{t}.ckpt")
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
    def test_nbytes_is_the_file_size(self, tmp_path, kind):
        schema = held_schema()
        cfg = ModelConfig(kind, **HELD_CFG)
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(schema, cfg, seed=1), path)
        assert checkpoint_nbytes(schema, cfg) == path.stat().st_size


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
    p = init_params(schema, cfg, seed=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = params_to_vector(p).size
    values = np.frombuffer(rng.bytes(8 * size), dtype="<f8").copy()  # any bit pattern
    values[~np.isfinite(values)] = -0.0
    set_params_from_vector(p, values)
    return p


def _layout(p):
    blocks = [p.linear, p.emb, p.head] + [a for pair in p.mlp + p.cross for a in pair]
    return (p.kind, p.n_fields, p.n_features, p.embed_dim, p.schema_digest,
            [None if a is None else a.shape for a in blocks])


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


def _header(kind_code, digest, embed_dim, n_fields, widths, n_cross, n_features, bias):
    """The header bytes as the module docstring lays them out, bias included."""
    return MAGIC + struct.pack(
        f"<IBQIII{len(widths)}IIQd", 1, kind_code, digest, embed_dim, n_fields,
        len(widths), *widths, n_cross, n_features, bias,
    )


@pytest.mark.parametrize("kind, widths", [(k, (4, 2)) for k in MODEL_KINDS] + [("dcn", ())],
                         ids=list(MODEL_KINDS) + ["dcn-no-mlp"])
def test_bytes_are_header_bias_then_each_block(tmp_path, schema, kind, widths):
    p = init_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=widths), seed=4)
    p.bias = 0.375
    path = tmp_path / "m.ckpt"
    save_checkpoint(p, path)
    expected = _header(_KIND_CODES[kind], p.schema_digest, p.embed_dim, p.n_fields,
                       p.mlp_widths, len(p.cross), p.n_features, p.bias)
    expected += b"".join(a.astype("<f8").tobytes() for _, a in p.blocks())
    assert path.read_bytes() == expected


_U32 = st.sampled_from([1, 0, 2, 2**32 - 1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind_code=st.integers(0, 5), embed_dim=_U32, n_fields=_U32,
       widths=st.lists(_U32, max_size=2), n_cross=_U32,
       n_features=st.sampled_from([1, 0, 2, 2**64 - 1]),
       body=st.one_of(st.binary(max_size=256), st.integers(0, 40).map(lambda n: bytes(8 * n))))
@example(kind_code=0, embed_dim=0, n_fields=1, widths=[], n_cross=2**32 - 1,
         n_features=1, body=bytes(8))
@example(kind_code=4, embed_dim=1, n_fields=1, widths=[1], n_cross=2**32 - 1,
         n_features=1, body=bytes(64))
@example(kind_code=1, embed_dim=2**32 - 1, n_fields=2**32 - 1, widths=[], n_cross=0,
         n_features=2**64 - 1, body=bytes(16))
def test_any_header_over_a_short_body_loads_or_raises_checkpoint_error(
        kind_code, embed_dim, n_fields, widths, n_cross, n_features, body):
    """Header fields that describe no model, or more blocks than the body
    holds, raise a CheckpointError subclass before anything near their size
    is allocated."""
    raw = _header(kind_code, 0, embed_dim, n_fields, widths, n_cross, n_features, 0.0) + body
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
