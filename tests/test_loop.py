"""Loop driver: protocols, provenance, scoring, and degeneracies."""

import multiprocessing
import os
import shutil
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reloop.loop

from gradutils import params_to_vector
from reloop.checkpoint import SchemaDigestError, checkpoint_nbytes, load_checkpoint
from reloop.features import (
    ROW_BLOCK,
    DataError,
    Dataset,
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    generate_synthetic,
)
from reloop.loop import (
    LoopConfig,
    NotAScoreLogError,
    ScoreLog,
    infer_scores,
    mean_report_metrics,
    reloop_losses,
    run_continual,
    run_continual_arms,
    run_static_arms,
    run_static_prior,
    write_loop_report,
)
from reloop.losses import LossConfig, clip_prob
from reloop.metrics import evaluate
from reloop.models import ModelConfig, held_rows, hold_rows, init_params, predict_batch
from reloop.optim import DivergenceError, TrainConfig, train_epochs
from reloop.rng import derive_seed


def small_windows(n_windows=3, rows=600, seed=13):
    spec = SyntheticSpec(
        n_fields=4, buckets_per_field=12, latent_dim=3,
        n_rows=rows, seed=seed, n_windows=n_windows, drift_rate=0.25,
    )
    return generate_synthetic(spec)


def splits(rows=1500, seed=17):
    spec = SyntheticSpec(n_fields=4, buckets_per_field=12, latent_dim=3,
                         n_rows=rows, seed=seed)
    (ds,) = generate_synthetic(spec)
    n_train, n_valid = round(rows * 0.8), round(rows * 0.1)
    return (
        ds.head(n_train),
        ds.take(slice(n_train, n_train + n_valid)),
        ds.take(slice(n_train + n_valid, rows)),
    )


def loop_config(mode, loss, seed=3, **kw):
    return LoopConfig(
        mode=mode,
        model=ModelConfig("fm", embed_dim=3),
        train=TrainConfig(epochs=2, seed=seed, loss=loss, batch_size=128),
        **kw,
    )


def _live_tables_at_training_start(monkeypatch) -> list[list[int]]:
    """Spy on ``_train_version``: the returned list gets, at each version's
    start, the indices (in training order) of the model versions whose emb
    table is still alive. Every phase runs in this process, where the spy
    sees it."""
    tables = []  # a weak reference to each model version's emb, in order
    live_at_start = []
    real_version = reloop.loop._train_version

    def version(*args, **kwargs):
        live_at_start.append([i for i, ref in enumerate(tables) if ref() is not None])
        params, record = real_version(*args, **kwargs)
        tables.append(weakref.ref(params.emb))
        return params, record

    monkeypatch.setattr(reloop.loop, "_train_version", version)
    monkeypatch.setattr(reloop.loop, "phase_processes", lambda n: 1)
    return live_at_start


class TestInferScores:
    def test_zero_lr_scores_half(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("lr"), seed=0)
        log = infer_scores(p, tiny_dataset)
        assert np.all(log.scores == 0.5)
        assert np.array_equal(log.row_ids, tiny_dataset.row_ids)

    def test_deterministic(self, tiny_dataset):
        p = init_params(tiny_dataset.schema, ModelConfig("fm", embed_dim=3), seed=2)
        a = infer_scores(p, tiny_dataset)
        b = infer_scores(p, tiny_dataset)
        assert np.array_equal(a.scores, b.scores)

    def test_schema_digest_guard(self, tiny_dataset, tmp_path):
        other = FeatureSchema([FieldSpec("x", buckets=3)])
        p = init_params(other, ModelConfig("lr"), seed=0)
        with pytest.raises(SchemaDigestError):
            infer_scores(p, tiny_dataset)

    def test_score_log_file_round_trip(self, tiny_dataset, tmp_path):
        p = init_params(tiny_dataset.schema, ModelConfig("fm", embed_dim=3), seed=2)
        log = infer_scores(p, tiny_dataset)
        path = tmp_path / "scores.csv"
        log.save(path)
        back = ScoreLog.load(path)
        assert np.array_equal(back.row_ids, log.row_ids)
        assert np.max(np.abs(back.scores - log.scores)) <= 1e-9
        aligned = back.aligned_to(tiny_dataset)
        assert np.max(np.abs(aligned - log.scores)) <= 1e-9

    @pytest.mark.parametrize(
        "body, message",
        [
            ("5\n", r":2: expected 2 cells .*got 1"),
            ("\n", r":2: expected 2 cells .*got 0"),
            ("5,0.5,1\n", r":2: expected 2 cells .*got 3"),
            ("x,0.5\n", r":2: cannot parse"),
            ("5,nan\n", r":2: y_last must lie in \[0, 1\]"),
            ("5,1.5\n", r":2: y_last must lie in \[0, 1\]"),
            ("5,0.5\n6,0.1\n5,0.2\n", r":4: row_id 5 repeats line 2"),
        ],
    )
    def test_score_log_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "scores.csv"
        path.write_text("row_id,y_last\n" + body)
        with pytest.raises(DataError, match=message):
            ScoreLog.load(path)

    def test_score_log_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score\n0.5\n")
        with pytest.raises(NotAScoreLogError):
            ScoreLog.load(path)

    def test_aligned_to_missing_row(self, tiny_dataset):
        log = ScoreLog(np.array([999_999]), np.array([0.5]))
        with pytest.raises(DataError, match="row_id"):
            log.aligned_to(tiny_dataset)

    @staticmethod
    def aligned_by_loop(log, dataset):
        """Reference: a dict from row_id to its log position, the last one winning."""
        lookup = {int(r): i for i, r in enumerate(log.row_ids)}
        out = np.empty(len(dataset))
        for i, rid in enumerate(dataset.row_ids):
            if int(rid) not in lookup:
                raise DataError(f"no prior score for row_id {int(rid)}")
            out[i] = log.scores[lookup[int(rid)]]
        return out

    def test_aligned_to_permuted_log_equals_loop(self, tiny_dataset):
        rng = np.random.default_rng(4)
        n = len(tiny_dataset)
        log = ScoreLog(rng.permutation(np.arange(-5, n + 5)), rng.random(n + 10))
        data = tiny_dataset.take(rng.permutation(n))
        got = log.aligned_to(data)
        assert got.dtype == np.float64
        assert got.tobytes() == self.aligned_by_loop(log, data).tobytes()

    def test_aligned_to_repeated_row_id_takes_the_last_score(self, tiny_dataset):
        ids = np.arange(len(tiny_dataset))
        log = ScoreLog(np.concatenate([ids, [7, 3, 7]]),
                       np.concatenate([np.full(ids.size, 0.5), [0.1, 0.2, 0.3]]))
        got = log.aligned_to(tiny_dataset)
        assert (got[3], got[7]) == (0.2, 0.3)
        assert got.tobytes() == self.aligned_by_loop(log, tiny_dataset).tobytes()

    def test_aligned_to_names_first_missing_row_in_dataset_order(self, tiny_dataset):
        data = tiny_dataset.take(slice(None, None, -1))  # row_ids n-1 .. 0
        keep = ~np.isin(data.row_ids, [5, 17])
        log = ScoreLog(data.row_ids[keep], np.full(int(keep.sum()), 0.5))
        with pytest.raises(DataError, match=r"^no prior score for row_id 17$"):
            log.aligned_to(data)


class TestStaticPrior:
    def test_prior_sees_exactly_first_fraction(self):
        train, valid, test = splits()
        cfg = loop_config("static_prior", LossConfig("reloop", alpha=0.3), prior_fraction=0.9)
        state = run_static_prior(cfg, train, valid, test)
        n_prior = round(0.9 * len(train))
        assert state.versions[0].n_train_rows == n_prior
        assert np.array_equal(state.prior_row_ids, train.row_ids[:n_prior])

    def test_full_y_last_coverage(self):
        train, valid, test = splits()
        cfg = loop_config("static_prior", LossConfig("reloop", alpha=0.3))
        state = run_static_prior(cfg, train, valid, test)
        current = state.versions[1]
        assert current.n_with_y_last == len(train)
        assert current.y_last_source == 0
        assert (0, 0) in state.score_logs
        assert len(state.score_logs[(0, 0)].scores) == len(train)

    def test_report_phases_present(self):
        train, valid, test = splits()
        cfg = loop_config("static_prior", LossConfig("ce"))
        state = run_static_prior(cfg, train, valid, test)
        phases = {r.phase for r in state.reports}
        assert {"prior", "baseline", "current"} <= phases
        assert {"prior_valid", "baseline_valid", "current_valid"} <= phases

    def test_ce_current_equals_baseline_bitwise(self, tmp_path):
        train, valid, test = splits()
        cfg = loop_config("static_prior", LossConfig("ce"), checkpoint_dir=tmp_path)
        state = run_static_prior(cfg, train, valid, test)
        cur = load_checkpoint(tmp_path / "current.ckpt")
        base = load_checkpoint(tmp_path / "baseline.ckpt")
        assert np.array_equal(params_to_vector(cur), params_to_vector(base))
        by_phase = {r.phase: r.report for r in state.reports}
        assert by_phase["current"] == by_phase["baseline"]

    def test_reloop_alpha_zero_matches_ce_run(self, tmp_path):
        train, valid, test = splits()
        vecs = []
        for sub, loss in (("a", LossConfig("ce")), ("b", LossConfig("reloop", alpha=0.0))):
            cfg = loop_config("static_prior", loss, checkpoint_dir=tmp_path / sub)
            run_static_prior(cfg, train, valid, test)
            vecs.append((tmp_path / sub / "current.ckpt").read_bytes())
        assert vecs[0] == vecs[1]

    def test_empty_split_rejected(self):
        train, valid, test = splits()
        cfg = loop_config("static_prior", LossConfig("ce"))
        with pytest.raises(DataError, match="empty"):
            run_static_prior(cfg, train.head(0), valid, test)

    def test_mode_guard(self):
        train, valid, test = splits()
        cfg = loop_config("continual", LossConfig("ce"))
        with pytest.raises(ValueError):
            run_static_prior(cfg, train, valid, test)


def _one_class(ds: Dataset) -> Dataset:
    return ds.take(ds.labels == 1.0)


def _positives_last(ds: Dataset) -> Dataset:
    return ds.take(np.argsort(ds.labels, kind="stable"))


@pytest.mark.parametrize("split", ["static-test", "static-valid", "sweep-test",
                                   "continual-window-2", "continual-holdout-tail"])
def test_one_class_evaluation_split_rejected_before_training(tmp_path, monkeypatch, split):
    """A split an AUC is taken on that holds one class fails before anything
    trains or is written."""
    monkeypatch.setattr(reloop.loop, "train_epochs", None)  # training would raise TypeError
    ckpt = tmp_path / "ckpt"
    train, valid, test = splits()
    windows = small_windows(3)
    if split == "continual-window-2":
        windows[1] = _one_class(windows[1])
    elif split == "continual-holdout-tail":  # the last fifth of window 3 is all positives
        windows[2] = _positives_last(windows[2])
        assert windows[2].labels.sum() > 0.2 * len(windows[2])
    elif split == "static-valid":
        valid = _one_class(valid)
    else:
        test = _one_class(test)
    static_cfg = loop_config("static_prior", LossConfig(), checkpoint_dir=ckpt)
    with pytest.raises(DataError, match="holds one class only, so its AUC is undefined"):
        if split.startswith("continual"):
            run_continual(loop_config("continual", LossConfig(), holdout_fraction=0.2,
                                      checkpoint_dir=ckpt), windows)
        elif split == "sweep-test":
            run_static_arms(static_cfg, train, [test], [(LossConfig(), "current")])
        else:
            run_static_prior(static_cfg, train, valid, test)
    assert not ckpt.exists()


class TestContinual:
    def test_version_count_and_phases(self):
        windows = small_windows(4)
        cfg = loop_config("continual", LossConfig("reloop", alpha=0.2))
        state = run_continual(cfg, windows)
        assert len(state.versions) == 4
        assert [r.phase for r in state.reports] == [
            "next_window", "next_window", "next_window", "holdout_tail",
        ]
        assert [r.window for r in state.reports] == [2, 3, 4, 4]

    @pytest.mark.parametrize("mode", ["static_prior", "continual"])
    def test_cross_entropy_first_version_counts_no_y_last(self, mode):
        """A y_last column in the data does not count for the version that
        trains with cross-entropy, the static prior or continual version 1."""
        cfg = loop_config(mode, LossConfig("reloop", alpha=0.2))
        if mode == "static_prior":
            train, valid, test = splits()
            train = train.with_y_last(np.full(len(train), 0.5))
            first, later = run_static_prior(cfg, train, valid, test).versions
        else:
            windows = [w.with_y_last(np.full(len(w), 0.5)) for w in small_windows(2)]
            first, later = run_continual(cfg, windows).versions
        assert first.loss_kind == "ce" and first.y_last_source is None
        assert first.n_with_y_last == 0
        assert later.n_with_y_last == later.n_train_rows > 0

    def test_causality_provenance(self):
        windows = small_windows(4)
        cfg = loop_config("continual", LossConfig("reloop", alpha=0.2))
        state = run_continual(cfg, windows)
        assert state.versions[0].y_last_source is None
        assert state.versions[0].loss_kind == "ce"
        for rec in state.versions[1:]:
            assert rec.y_last_source == rec.version - 1
            assert rec.loss_kind == "reloop"
            assert rec.n_with_y_last == rec.n_train_rows
        for (producer, window), log in state.score_logs.items():
            assert window == producer + 1  # scores flow one window forward

    def test_final_version_holds_out_tail(self):
        windows = small_windows(3, rows=1000)
        cfg = loop_config("continual", LossConfig("ce"), holdout_fraction=0.2)
        state = run_continual(cfg, windows)
        assert state.versions[-1].n_train_rows == 800

    def test_two_windows_equals_manual_incremental(self):
        windows = small_windows(2)
        cfg = loop_config("continual", LossConfig("ce"), warm_start=True, holdout_fraction=0.2)
        state = run_continual(cfg, windows)

        seed = cfg.train.seed
        p = init_params(windows[0].schema, cfg.model, derive_seed(seed, "init", 1))
        p, _ = train_epochs(
            p, windows[0],
            TrainConfig(epochs=2, batch_size=128, seed=derive_seed(seed, "train", 1)),
        )
        n_tail = round(0.2 * len(windows[1]))
        head = windows[1].head(len(windows[1]) - n_tail)
        p, _ = train_epochs(
            p, head,
            TrainConfig(epochs=2, batch_size=128, seed=derive_seed(seed, "train", 2)),
        )
        from reloop.models import predict_batch
        from reloop.metrics import evaluate

        tail = windows[1].tail(n_tail)
        manual = evaluate(tail.labels, predict_batch(p, tail))
        assert state.reports[-1].report == manual

    def test_warm_and_cold_both_complete(self):
        windows = small_windows(3)
        for warm in (False, True):
            cfg = loop_config("continual", LossConfig("ce"), warm_start=warm)
            state = run_continual(cfg, windows)
            assert len(state.versions) == 3
            assert all(np.isfinite(r.report.auc) for r in state.reports)
        assert state.versions[1].warm_started

    def test_reloop_alpha_zero_matches_ce_per_version(self, tmp_path):
        windows = small_windows(3)
        outs = []
        for sub, loss in (("a", LossConfig("ce")), ("b", LossConfig("reloop", alpha=0.0))):
            cfg = loop_config("continual", loss, checkpoint_dir=tmp_path / sub)
            run_continual(cfg, windows)
            outs.append([(tmp_path / sub / f"v{t:03d}.ckpt").read_bytes() for t in (1, 2, 3)])
        assert outs[0] == outs[1]

    def test_needs_two_windows(self):
        cfg = loop_config("continual", LossConfig("ce"))
        with pytest.raises(DataError, match="2 windows"):
            run_continual(cfg, small_windows(3)[:1])

    @pytest.mark.parametrize("warm", [False, True])
    def test_one_prediction_pass_per_version(self, tmp_path, monkeypatch, warm):
        """Version t's next-window predictions are its report and its
        successor's y_last: each logged score equals infer_scores of the saved
        version t on window t+1, and no rows are predicted twice."""
        windows = small_windows(4)
        calls = []
        real_predict = reloop.loop.predict_batch

        def predict(params, dataset):
            calls.append(len(dataset))
            return real_predict(params, dataset)

        monkeypatch.setattr(reloop.loop, "predict_batch", predict)
        cfg = loop_config("continual", LossConfig("reloop", alpha=0.3),
                          warm_start=warm, checkpoint_dir=tmp_path)
        state = run_continual(cfg, windows)
        n_tail = round(cfg.holdout_fraction * len(windows[-1]))
        assert calls == [len(w) for w in windows[1:]] + [n_tail]
        assert sorted(state.score_logs) == [(1, 2), (2, 3), (3, 4)]
        for (t, nxt), log in state.score_logs.items():
            ref = infer_scores(tmp_path / f"v{t:03d}.ckpt", windows[nxt - 1])
            assert log.row_ids.tobytes() == ref.row_ids.tobytes()
            assert log.scores.tobytes() == ref.scores.tobytes()
            saved = ScoreLog.load(tmp_path / f"scores_v{t:03d}_w{nxt:03d}.csv")
            assert np.array_equal(saved.row_ids, ref.row_ids)
            window = windows[nxt - 1]
            raw = real_predict(load_checkpoint(tmp_path / f"v{t:03d}.ckpt"), window)
            assert state.reports[t - 1].report == evaluate(window.labels, raw)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("arms", [False, True])
    def test_dead_versions_freed_before_training(self, monkeypatch, warm, arms):
        """When version t starts training, a cold loop holds no earlier
        version's table; a warm one holds version t-1's, its start, and the
        arms also the shared version 1, every arm's start, until the last arm
        has taken it."""
        live_at_start = _live_tables_at_training_start(monkeypatch)
        cfg = loop_config("continual", LossConfig("reloop", alpha=0.3), warm_start=warm)
        windows = small_windows(4)
        if arms:  # trains v1, then v2..v4 of one arm, then of the other
            run_continual_arms(cfg, windows, reloop_losses((0.3, 0.6)))
            warm_live = [[], [0], [0, 1], [0, 2], [0], [4], [5]]
        else:
            run_continual(cfg, windows)
            warm_live = [[], [0], [1], [2]]
        assert live_at_start == (warm_live if warm else [[]] * len(warm_live))

    def test_bitwise_reproducible(self):
        windows = small_windows(3)
        cfg = loop_config("continual", LossConfig("reloop", alpha=0.4))
        a = run_continual(cfg, windows)
        b = run_continual(cfg, windows)
        assert a.report_rows() == b.report_rows()
        for key in a.score_logs:
            assert np.array_equal(a.score_logs[key].scores, b.score_logs[key].scores)


class TestAlphaSweep:
    def test_static_reports_equal_separate_runs(self):
        train, valid, test = splits()
        alphas = (0.0, 0.5)
        arms = [(loss, "current") for loss in reloop_losses(alphas)]
        results = run_static_arms(
            loop_config("static_prior", LossConfig()), train, [test], arms)
        for alpha, (record, (report,)) in zip(alphas, results, strict=True):
            cfg = loop_config("static_prior", LossConfig("reloop", alpha=alpha))
            ref = run_static_prior(cfg, train, valid, test)
            assert report == next(r.report for r in ref.reports if r.phase == "current")
            assert record == ref.versions[1]

    @pytest.mark.parametrize("warm", [False, True])
    def test_continual_states_equal_separate_runs(self, warm):
        windows = small_windows(3)
        alphas = (0.0, 0.5)
        cfg = loop_config("continual", LossConfig(), warm_start=warm)
        states = run_continual_arms(cfg, windows, reloop_losses(alphas))
        for alpha, state in zip(alphas, states):
            cfg = loop_config("continual", LossConfig("reloop", alpha=alpha), warm_start=warm)
            ref = run_continual(cfg, windows)
            assert state.report_rows() == ref.report_rows()
            assert state.versions == ref.versions
            assert mean_report_metrics(state) == mean_report_metrics(ref)


class TestContinualArms:
    @pytest.mark.parametrize("warm", [False, True])
    def test_each_arm_equals_a_separate_run(self, tmp_path, warm):
        windows = small_windows(3)
        losses = [LossConfig("ce"), LossConfig("reloop", alpha=0.2), LossConfig("kd")]
        cfg = loop_config("continual", LossConfig(), warm_start=warm)
        states = run_continual_arms(cfg, windows, losses)
        assert len(states) == len(losses)
        for loss, state in zip(losses, states):
            ref = run_continual(replace(cfg, train=replace(cfg.train, loss=loss)), windows)
            assert state.report_rows() == ref.report_rows()
            assert state.versions == ref.versions
            for key, log in ref.score_logs.items():
                assert state.score_logs[key].scores.tobytes() == log.scores.tobytes()

    def test_checkpoint_dir_rejected(self, tmp_path):
        cfg = loop_config("continual", LossConfig(), checkpoint_dir=tmp_path / "c")
        with pytest.raises(ValueError, match="share one checkpoint_dir"):
            run_continual_arms(cfg, small_windows(2), reloop_losses((0.2, 0.4)))
        assert not (tmp_path / "c").exists()

    def test_no_losses_rejected_before_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(reloop.loop, "train_epochs", lambda *a: trained.append(a))
        with pytest.raises(ValueError, match="no losses"):
            run_continual_arms(loop_config("continual", LossConfig()), small_windows(2), [])
        assert trained == []


class TestStaticArms:
    @pytest.mark.parametrize("kind", ["fm", "dcn"])
    @pytest.mark.parametrize("y_last", [False, True])
    def test_ce_arm_equals_plain_ce_training_bitwise(self, tmp_path, kind, y_last):
        """A cross-entropy arm on the prior-scored split trains to the bytes of
        cross-entropy on the unscored split from the ``current`` seeds, whether
        or not the split carries a y_last column of its own."""
        train, _, test = splits()
        if y_last:
            train = train.with_y_last(np.full(len(train), 0.5))
        cfg = replace(loop_config("static_prior", LossConfig("kd"), checkpoint_dir=tmp_path),
                      model=ModelConfig(kind, embed_dim=3, mlp_widths=(4,)))
        ((record, (report,)),) = run_static_arms(cfg, train, [test],
                                                 [(LossConfig("ce"), "base")])
        seed = cfg.train.seed
        ref = init_params(train.schema, cfg.model, derive_seed(seed, "init", "current"))
        ref, _ = train_epochs(ref, train, replace(
            cfg.train, loss=LossConfig("ce"), seed=derive_seed(seed, "train", "current")))
        saved = hold_rows(load_checkpoint(tmp_path / "base.ckpt"), np.arange(ref.n_features))
        assert params_to_vector(saved).tobytes() == params_to_vector(ref).tobytes()
        assert record.checkpoint_path == str(tmp_path / "base.ckpt")
        assert (record.loss_kind, record.y_last_source) == ("ce", 0)
        assert report == evaluate(test.labels, predict_batch(ref, test))

    def test_shared_name_with_checkpoint_dir_rejected_before_training(
        self, tmp_path, monkeypatch
    ):
        trained = []
        monkeypatch.setattr(reloop.loop, "train_epochs", lambda *a: trained.append(a))
        train, _, test = splits()
        cfg = loop_config("static_prior", LossConfig(), checkpoint_dir=tmp_path / "c")
        arms = [(LossConfig("ce"), "a"), (LossConfig("kd"), "a")]
        with pytest.raises(ValueError, match="one checkpoint file"):
            run_static_arms(cfg, train, [test], arms)
        assert trained == []
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("checkpoint_dir, arms, match", [
        pytest.param(False, [], "no arms", id="no-arms"),
        pytest.param(True, [(LossConfig("ce"), "prior")], "one checkpoint file",
                     id="arm-named-prior"),
    ])
    def test_rejected_before_training(self, tmp_path, monkeypatch, checkpoint_dir, arms,
                                      match):
        """The prior saves ``prior.ckpt``, so an arm of that name would write
        the prior's file; and no arms leave nothing to train the prior for."""
        trained = []
        monkeypatch.setattr(reloop.loop, "train_epochs", lambda *a: trained.append(a))
        train, _, test = splits()
        ckpt = tmp_path / "c" if checkpoint_dir else None
        cfg = loop_config("static_prior", LossConfig(), checkpoint_dir=ckpt)
        with pytest.raises(ValueError, match=match):
            run_static_arms(cfg, train, [test], arms)
        assert trained == []
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("arms", [False, True])
    def test_prior_freed_before_arms_train(self, monkeypatch, arms):
        """When an arm starts training, the prior's table is freed: only its
        record, reports and scores outlive it."""
        live_at_start = _live_tables_at_training_start(monkeypatch)
        train, valid, test = splits()
        cfg = loop_config("static_prior", LossConfig("reloop", alpha=0.3))
        if arms:
            run_static_arms(cfg, train, [test],
                            [(loss, "current") for loss in reloop_losses((0.3, 0.6))])
        else:
            run_static_prior(cfg, train, valid, test)
        assert live_at_start == [[], [], []]

    def test_saves_the_files_of_run_static_prior(self, tmp_path):
        """Over the baseline and current arms, ``run_static_arms`` saves the
        prior's checkpoint and the arms' checkpoints with the bytes
        ``run_static_prior`` writes."""
        train, valid, test = splits()
        loss = LossConfig("reloop", alpha=0.4)
        files = {}
        for name in ("arms", "prior"):
            cfg = loop_config("static_prior", loss, checkpoint_dir=tmp_path / name)
            if name == "arms":
                run_static_arms(cfg, train, [test],
                                [(LossConfig("ce"), "baseline"), (loss, "current")])
            else:
                run_static_prior(cfg, train, valid, test)
            files[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert sorted(files["arms"]) == ["baseline.ckpt", "current.ckpt", "prior.ckpt"]
        assert files["arms"] == files["prior"]


def _forced_processes(monkeypatch, n=2):
    monkeypatch.setattr(reloop.loop, "phase_processes", lambda k: min(k, n))


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")


def _same_states(a, b):
    assert a.report_rows() == b.report_rows()
    assert a.versions == b.versions
    assert [r.report for r in a.reports] == [r.report for r in b.reports]
    assert a.score_logs.keys() == b.score_logs.keys()
    for key, log in a.score_logs.items():
        assert log.row_ids.tobytes() == b.score_logs[key].row_ids.tobytes()
        assert log.scores.tobytes() == b.score_logs[key].scores.tobytes()


class TestMapPhases:
    @pytest.mark.parametrize("n_items, cpus, environ, expected", [
        (4, 2, {}, 1),  # unpinned BLAS takes every CPU
        (4, 2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (4, 2, {"OMP_NUM_THREADS": "1"}, 2),
        (1, 2, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (0, 2, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (3, 1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (16, 64, {"OPENBLAS_NUM_THREADS": "1"}, 16),
        (4, 2, {"OPENBLAS_NUM_THREADS": "3"}, 1),  # more threads than CPUs
        (4, 8, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
        (4, 8, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4),
        (4, 8, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"}, 2),
        (4, 8, {"OPENBLAS_NUM_THREADS": "-1"}, 1),
        (4, 8, {"MKL_NUM_THREADS": "1"}, 1),
    ])
    def test_count_rule(self, n_items, cpus, environ, expected):
        assert reloop.loop._process_count(n_items, cpus, environ) == expected
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_items_run_in_workers_in_item_order(self, monkeypatch):
        _forced_processes(monkeypatch)
        out = reloop.loop._map_phases(lambda x: (x, os.getpid()), list(range(5)))
        assert [x for x, _ in out] == list(range(5))
        assert os.getpid() not in {pid for _, pid in out}
        assert reloop.loop._MAPPED is None
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(_CPUS < 2, reason="fewer than 2 CPUs")
    @needs_fork
    def test_two_processes_equal_one_bitwise(self, monkeypatch, tmp_path):
        windows = small_windows(3)
        train, valid, test = splits()
        alphas = (0.0, 0.4, 1.0)
        static_cfg = loop_config("static_prior", LossConfig())
        arms = [(loss, "current") for loss in reloop_losses(alphas)]
        ckpt = tmp_path / "ckpt"  # one path for both runs: records name their files
        runs, files = {}, {}
        for n in (1, 2):
            _forced_processes(monkeypatch, n)
            states = [state for warm in (False, True) for state in run_continual_arms(
                loop_config("continual", LossConfig(), warm_start=warm),
                windows, reloop_losses(alphas))]
            states.append(run_static_prior(
                loop_config("static_prior", LossConfig("reloop", alpha=0.4),
                            checkpoint_dir=ckpt / "static"), train, valid, test))
            states.append(run_continual(
                loop_config("continual", LossConfig("kd"), warm_start=True,
                            checkpoint_dir=ckpt / "continual"), windows))
            runs[n] = (run_static_arms(static_cfg, train, [test], arms), states)
            files[n] = {str(p.relative_to(ckpt)): p.read_bytes()
                        for p in sorted(ckpt.rglob("*")) if p.is_file()}
            shutil.rmtree(ckpt)
        (serial, serial_states), (pooled, pooled_states) = runs[1], runs[2]
        assert [repr(r) for r in pooled] == [repr(r) for r in serial]
        for state, ref in zip(pooled_states, serial_states, strict=True):
            _same_states(state, ref)
        assert sorted(files[1]) == [
            "continual/scores_v001_w002.csv", "continual/scores_v002_w003.csv",
            "continual/v001.ckpt", "continual/v002.ckpt", "continual/v003.ckpt",
            "static/baseline.ckpt", "static/current.ckpt", "static/prior.ckpt"]
        assert files[2] == files[1]

    @needs_fork
    def test_first_failing_arm_raises_in_item_order(self, monkeypatch):
        _forced_processes(monkeypatch)
        real = reloop.loop._train_version

        def train(cfg, dataset, loss, key, name, **kwargs):
            if loss.alpha in (0.6, 0.9) and key == 3:
                raise DivergenceError(f"alpha {loss.alpha}: boom")
            return real(cfg, dataset, loss, key, name, **kwargs)

        monkeypatch.setattr(reloop.loop, "_train_version", train)
        cfg = loop_config("continual", LossConfig())
        with pytest.raises(DivergenceError) as info:
            run_continual_arms(cfg, small_windows(3), reloop_losses((0.3, 0.6, 0.9)))
        assert type(info.value) is DivergenceError
        assert str(info.value) == "alpha 0.6: boom"
        assert multiprocessing.active_children() == []
        assert reloop.loop._MAPPED is None


class TestStaticDirectional:
    def test_reloop_mean_auc_tracks_ce_baseline_without_drift(self):
        """Over 10 seeds on drift-free data, the hinged blend never trails
        the cross-entropy baseline by more than 0.002 mean test AUC."""
        spec = SyntheticSpec(n_fields=6, buckets_per_field=32, latent_dim=4,
                             n_rows=15_000, seed=31)
        (ds,) = generate_synthetic(spec)
        n_train, n_valid = 12_000, 1_500
        train = ds.head(n_train)
        valid = ds.take(slice(n_train, n_train + n_valid))
        test = ds.take(slice(n_train + n_valid, len(ds)))
        cur, base = [], []
        for seed in range(10):
            cfg = LoopConfig(
                mode="static_prior",
                model=ModelConfig("fm", embed_dim=8),
                train=TrainConfig(epochs=6, seed=seed,
                                  loss=LossConfig("reloop", alpha=0.2)),
            )
            state = run_static_prior(cfg, train, valid, test)
            by_phase = {r.phase: r.report for r in state.reports}
            cur.append(by_phase["current"].auc)
            base.append(by_phase["baseline"].auc)
        assert np.mean(cur) >= np.mean(base) - 0.002


class TestReportFile:
    def test_header_and_shape(self, tmp_path):
        windows = small_windows(3)
        cfg = loop_config("continual", LossConfig("kd"))
        state = run_continual(cfg, windows)
        path = tmp_path / "loop_report.csv"
        write_loop_report(state, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "version,window,phase,loss_kind,alpha,auc,logloss"
        assert len(lines) == 4
        assert lines[1].startswith("1,2,next_window,ce,0,")
        assert lines[2].startswith("2,3,next_window,kd,0,")

    def test_mean_metrics(self):
        windows = small_windows(3)
        state = run_continual(loop_config("continual", LossConfig("ce")), windows)
        auc_m, ll_m = mean_report_metrics(state)
        assert auc_m == pytest.approx(np.mean([r.report.auc for r in state.reports]))
        assert ll_m == pytest.approx(np.mean([r.report.logloss for r in state.reports]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=20)
       .flatmap(lambda rids: st.tuples(
           st.just(rids), st.lists(st.floats(0.0, 1.0), min_size=len(rids),
                                   max_size=len(rids)))))
def test_score_log_save_load_round_trip(log):
    """Row ids come back exactly; each score as its 9-decimal text reads back."""
    rids, scores = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        ScoreLog(np.array(rids, dtype=np.int64), np.array(scores)).save(path)
        back = ScoreLog.load(path)
    assert back.row_ids.tolist() == rids
    assert back.scores.tolist() == [float(f"{s:.9f}") for s in scores]


def test_score_log_load_keeps_values_and_dataset_clips_them(tmp_path, tiny_dataset):
    """A logged 1.0 or 0 loads as written; attaching it as y_last clips it."""
    path = tmp_path / "scores.csv"
    path.write_text("row_id,y_last\n0,1.0\n1,0\n", encoding="utf-8")
    log = ScoreLog.load(path)
    assert log.scores.tolist() == [1.0, 0.0]
    scored = tiny_dataset.head(2).with_y_last(log.scores)
    assert scored.y_last.tolist() == [1.0 - 1e-7, 1e-7]


def test_score_log_save_holds_one_block_of_text(tmp_path):
    """Saving builds the text of ROW_BLOCK rows at a time, not of the whole log."""
    n = 16 * ROW_BLOCK
    log = ScoreLog(np.arange(n), np.linspace(0.0, 1.0, n))
    tracemalloc.start()
    try:
        log.save(tmp_path / "scores.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * ROW_BLOCK, peak


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from('0123456789,.-+e_"\r\n \x00') | st.characters(
    blacklist_categories=("Cs",)), max_size=60))
def test_fuzzed_score_log_lines_load_or_raise_data_error(body):
    """Any text after the header is a ScoreLog or a DataError, never another
    exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        path.write_text("row_id,y_last\n" + body, encoding="utf-8")
        try:
            log = ScoreLog.load(path)
        except DataError:
            return
    assert log.row_ids.shape == log.scores.shape
    assert np.all((log.scores >= 0.0) & (log.scores <= 1.0))


@pytest.mark.parametrize("mode, warm", [
    ("continual", False), ("continual", True), ("static_prior", False),
])
def test_no_version_allocates_a_whole_table(tmp_path, monkeypatch, mode, warm):
    """Over 2^17 features a model version holds only the rows its tiny
    windows touch, so a whole fm loop, checkpoints included, traces a peak
    below one embedding table (16 MiB at K=16); the checkpoints store at most
    the rows of four 200-row windows."""
    spec = SyntheticSpec(n_fields=8, buckets_per_field=2**14, latent_dim=2, n_rows=200,
                         seed=3, n_windows=3, drift_rate=0.2)
    windows = generate_synthetic(spec)
    table = spec.schema().n_features * 16 * 8
    assert table == 16 * 2**20
    # the static arms run here, where tracemalloc sees them
    monkeypatch.setattr(reloop.loop, "phase_processes", lambda n_items: 1)
    cfg = LoopConfig(mode=mode, model=ModelConfig("fm", embed_dim=16),
                     train=TrainConfig(epochs=1, seed=2, loss=LossConfig("reloop", alpha=0.2)),
                     warm_start=warm, checkpoint_dir=tmp_path)
    tracemalloc.start()
    try:
        if mode == "continual":
            run_continual(cfg, windows)
        else:
            run_static_prior(cfg, *windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table, peak
    ckpts = sorted(tmp_path.glob("*.ckpt"))
    assert len(ckpts) == 3
    bound = checkpoint_nbytes(spec.schema(), cfg.model, 4 * 200 * 8)
    assert all(p.stat().st_size < bound < table // 16 for p in ckpts)


@pytest.mark.parametrize("warm", [False, True])
def test_saved_versions_give_the_score_logs_and_the_whole_table_run(tmp_path, warm):
    """Over 8 x 2048 buckets each version's checkpoint stores only its rows.
    Loaded and moved to window t+1's rows it writes ``scores_vNNN_wNNN.csv``
    bit for bit; moved to every row it is the version a whole-table run
    (``rows=None``) trains, bit for bit."""
    spec = SyntheticSpec(n_fields=8, buckets_per_field=2048, latent_dim=2, n_rows=400,
                         seed=5, n_windows=4, drift_rate=0.2)
    windows = generate_synthetic(spec)
    n_features = spec.schema().n_features
    cfg = LoopConfig(mode="continual", model=ModelConfig("fm", embed_dim=4),
                     train=TrainConfig(epochs=2, seed=2, batch_size=64,
                                       loss=LossConfig("reloop", alpha=0.2)),
                     warm_start=warm, checkpoint_dir=tmp_path / "run")
    state = run_continual(cfg, windows)
    n_tail = round(cfg.holdout_fraction * len(windows[-1]))
    whole = None
    for t, window in enumerate(windows, start=1):
        saved = load_checkpoint(tmp_path / "run" / f"v{t:03d}.ckpt")
        assert saved.rows.size < n_features
        if t < len(windows):
            nxt = windows[t]
            p = predict_batch(hold_rows(saved, held_rows(n_features, [nxt.indices])), nxt)
            log = ScoreLog(nxt.row_ids, clip_prob(p))
            assert log.scores.tobytes() == state.score_logs[(t, t + 1)].scores.tobytes()
            log.save(tmp_path / "log.csv")
            name = f"scores_v{t:03d}_w{t + 1:03d}.csv"
            assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "run" / name).read_bytes()
        # the whole-table version: version 1's init on a warm chain
        if t > 1:
            window = window.with_y_last(state.score_logs[(t - 1, t)].scores)
        if whole is None or not warm:
            whole = init_params(window.schema, cfg.model,
                                derive_seed(cfg.train.seed, "init", t))
        loss = cfg.train.loss if t > 1 else LossConfig("ce")
        train_epochs(whole, window.head(len(window) - (n_tail if t == len(windows) else 0)),
                     replace(cfg.train, loss=loss, seed=derive_seed(cfg.train.seed, "train", t)))
        widened = hold_rows(saved, np.arange(n_features))
        assert params_to_vector(widened).tobytes() == params_to_vector(whole).tobytes(), t
