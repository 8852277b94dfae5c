"""Loop driver: protocols, provenance, scoring, and degeneracies."""

import numpy as np
import pytest

from gradutils import params_to_vector
from reloop.checkpoint import SchemaDigestError, load_checkpoint
from reloop.features import (
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
    mean_next_window_metrics,
    run_continual,
    run_static_prior,
    write_loop_report,
)
from reloop.losses import LossConfig
from reloop.models import ModelConfig, init_params
from reloop.optim import TrainConfig, train_epochs
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

    def test_bitwise_reproducible(self):
        windows = small_windows(3)
        cfg = loop_config("continual", LossConfig("reloop", alpha=0.4))
        a = run_continual(cfg, windows)
        b = run_continual(cfg, windows)
        assert a.report_rows() == b.report_rows()
        for key in a.score_logs:
            assert np.array_equal(a.score_logs[key].scores, b.score_logs[key].scores)


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
        auc_m, ll_m = mean_next_window_metrics(state)
        assert auc_m == pytest.approx(np.mean([r.report.auc for r in state.reports]))
        assert ll_m == pytest.approx(np.mean([r.report.logloss for r in state.reports]))
