"""CLI: exit codes, artifacts, config precedence, manifest replay."""

import json
from pathlib import Path

import numpy as np
import pytest

from reloop.cli import main
from reloop.features import SyntheticSpec, generate_synthetic_csv
from reloop.loop import ScoreLog


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small two-window corpus plus a single-file dataset."""
    root = tmp_path_factory.mktemp("clidata")
    spec = SyntheticSpec(n_fields=4, buckets_per_field=12, latent_dim=3,
                         n_rows=1200, seed=21, n_windows=2, drift_rate=0.2)
    generate_synthetic_csv(spec, root / "windows")
    single = SyntheticSpec(n_fields=4, buckets_per_field=12, latent_dim=3,
                           n_rows=1500, seed=22)
    generate_synthetic_csv(single, root / "single")
    return root


def tree_bytes(root: Path, skip=("manifest.json",)):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestGenData:
    def test_single_window_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-data", "--out", out, "--rows", 200, "--fields", 3,
                       "--buckets", 8, "--windows", 1, "--drift", 0, "--seed", 5) == 0
        assert (a / "window_000.csv").exists()
        assert (a / "manifest.json").exists()
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_rows_usage_error(self, tmp_path, capsys):
        assert run("gen-data", "--out", tmp_path / "x", "--rows", 0) == 2
        assert "rows" in capsys.readouterr().err

    def test_bad_flag_exits_two(self):
        assert run("gen-data", "--nope", "1") == 2

    def test_drift_out_of_range(self, tmp_path):
        assert run("gen-data", "--out", tmp_path / "x", "--drift", "1.5") == 2


class TestTrain:
    def test_ce_smoke_writes_artifacts(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = run("train", "--data", data_dir / "single" / "window_000.csv",
                   "--valid", data_dir / "windows" / "window_001.csv",
                   "--model", "fm", "--embed-dim", 3, "--loss", "ce",
                   "--epochs", 2, "--buckets", 12, "--seed", 7, "--out", out)
        assert code == 0
        assert (out / "model.ckpt").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "n,n_pos,n_neg,auc,logloss"
        assert len(lines) == 2
        assert (out / "manifest.json").exists()

    def test_reloop_requires_prior_scores(self, data_dir, tmp_path, capsys):
        code = run("train", "--data", data_dir / "single" / "window_000.csv",
                   "--model", "lr", "--loss", "reloop", "--alpha", "0.3",
                   "--buckets", 12, "--out", tmp_path / "x")
        assert code == 2
        assert "prior" in capsys.readouterr().err.lower()

    def test_reloop_alpha_zero_bitwise_equals_ce(self, data_dir, tmp_path):
        data = data_dir / "single" / "window_000.csv"
        scores = ScoreLog(np.arange(1500), np.full(1500, 0.35))
        prior = tmp_path / "prior.csv"
        scores.save(prior)
        outs = []
        for name, extra in (
            ("ce", ["--loss", "ce"]),
            ("rl", ["--loss", "reloop", "--alpha", "0", "--prior-scores", prior]),
        ):
            out = tmp_path / name
            code = run("train", "--data", data, "--valid", data,
                       "--model", "fm", "--embed-dim", 3, "--epochs", 2,
                       "--buckets", 12, "--seed", 9, "--out", out, *extra)
            assert code == 0
            outs.append(out)
        assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0.5\n1\n", ":3: expected 2 cells"),
            ("0,0.5\n1,0.5,7\n", ":3: expected 2 cells"),
            ("0,0.5\n1,high\n", ":3: cannot parse"),
            ("0,0.5\n1,0.25\n0,0.75\n", ":4: row_id 0 repeats line 2"),
        ],
    )
    def test_malformed_prior_scores_exit_one(self, data_dir, tmp_path, capsys, rows, message):
        prior = tmp_path / "prior.csv"
        prior.write_text("row_id,y_last\n" + rows)
        code = run("train", "--data", data_dir / "single" / "window_000.csv",
                   "--model", "lr", "--loss", "reloop", "--prior-scores", prior,
                   "--buckets", 12, "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{prior}{message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "model.ckpt").exists()

    def test_diverged_training_writes_no_checkpoint(self, data_dir, tmp_path, capsys):
        out = tmp_path / "x"
        code = run("train", "--data", data_dir / "single" / "window_000.csv",
                   "--model", "fm", "--embed-dim", 3, "--optimizer", "sgd",
                   "--lr", "1e200", "--epochs", 2, "--buckets", 12, "--out", out)
        assert code == 1
        assert "not finite" in capsys.readouterr().err
        assert list(out.glob("*.ckpt*")) == []

    def test_alpha_out_of_range(self, data_dir, tmp_path):
        assert run("train", "--data", data_dir / "single" / "window_000.csv",
                   "--loss", "reloop", "--alpha", "1.2",
                   "--out", tmp_path / "x") == 2


class TestLoop:
    def test_static_report_rows(self, data_dir, tmp_path):
        out = tmp_path / "static"
        code = run("loop", "--mode", "static",
                   "--data", data_dir / "single" / "window_000.csv",
                   "--model", "fm", "--embed-dim", 3, "--loss", "reloop",
                   "--alpha", "0.2", "--epochs", 2, "--buckets", 12,
                   "--seed", 3, "--out", out)
        assert code == 0
        lines = (out / "loop_report.csv").read_text().splitlines()
        phases = [line.split(",")[2] for line in lines[1:]]
        assert {"prior", "baseline", "current"} <= set(phases)
        assert (out / "checkpoints" / "current.ckpt").exists()
        assert (out / "checkpoints" / "prior.ckpt").exists()

    def test_continual_version_rows(self, data_dir, tmp_path):
        out = tmp_path / "cont"
        code = run("loop", "--mode", "continual",
                   "--windows", data_dir / "windows" / "window_*.csv",
                   "--model", "lr", "--loss", "ce", "--epochs", 2,
                   "--buckets", 12, "--seed", 3, "--out", out)
        assert code == 0
        lines = (out / "loop_report.csv").read_text().splitlines()
        assert lines[0] == "version,window,phase,loss_kind,alpha,auc,logloss"
        assert len(lines) == 3  # one row per window version
        assert (out / "checkpoints" / "v001.ckpt").exists()
        assert (out / "checkpoints" / "scores_v001_w002.csv").exists()

    def test_continual_needs_two_files(self, data_dir, tmp_path):
        assert run("loop", "--mode", "continual",
                   "--windows", data_dir / "windows" / "window_000.csv",
                   "--out", tmp_path / "x") == 2

    def test_static_needs_data(self, tmp_path):
        assert run("loop", "--mode", "static", "--out", tmp_path / "x") == 2


class TestSweepAlpha:
    def test_rows_and_alpha_zero_matches_baseline(self, data_dir, tmp_path):
        data = data_dir / "single" / "window_000.csv"
        base_out = tmp_path / "base"
        assert run("loop", "--mode", "static", "--data", data, "--model", "fm",
                   "--embed-dim", 3, "--loss", "ce", "--epochs", 2,
                   "--buckets", 12, "--seed", 4, "--out", base_out) == 0
        sweep_out = tmp_path / "sweep"
        assert run("sweep-alpha", "--alphas", "0,0.5", "--mode", "static",
                   "--data", data, "--model", "fm", "--embed-dim", 3,
                   "--epochs", 2, "--buckets", 12, "--seed", 4,
                   "--out", sweep_out) == 0
        lines = (sweep_out / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,auc,logloss"
        assert len(lines) == 3
        base_current = next(
            line for line in (base_out / "loop_report.csv").read_text().splitlines()
            if ",current," in line
        )
        b_auc, b_ll = base_current.split(",")[-2:]
        assert lines[1] == f"0,{b_auc},{b_ll}"

    def test_alpha_validation(self, data_dir, tmp_path):
        assert run("sweep-alpha", "--alphas", "0,1.5",
                   "--data", data_dir / "single" / "window_000.csv",
                   "--out", tmp_path / "x") == 2


class TestEval:
    def test_perfect_scores(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        scores = tmp_path / "scores.txt"
        labels.write_text("label\n1\n0\n1\n0\n")
        scores.write_text("score\n0.9\n0.1\n0.8\n0.2\n")
        assert run("eval", "--scores", scores, "--labels", labels) == 0
        out = capsys.readouterr().out
        assert "auc=1.000000" in out
        assert "n=4" in out

    def test_single_class_runtime_error(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        scores = tmp_path / "scores.txt"
        labels.write_text("1\n1\n")
        scores.write_text("0.9\n0.8\n")
        assert run("eval", "--scores", scores, "--labels", labels) == 1
        assert "AUC undefined" in capsys.readouterr().err

    def test_malformed_score_log_exit_one(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        scores = tmp_path / "scores.csv"
        labels.write_text("1\n0\n")
        scores.write_text("row_id,y_last\n0,0.9\n1\n")
        assert run("eval", "--scores", scores, "--labels", labels) == 1
        err = capsys.readouterr().err
        assert f"{scores}:3: expected 2 cells" in err
        assert "Traceback" not in err

    def test_needs_a_source(self):
        assert run("eval") == 2

    def test_rejects_both_sources(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1\n")
        assert run("eval", "--scores", f, "--labels", f,
                   "--data", f, "--checkpoint", f) == 2

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert "reloop" in capsys.readouterr().out

    def test_checkpoint_mode_matches_in_process(self, data_dir, tmp_path, capsys):
        data = data_dir / "single" / "window_000.csv"
        out = tmp_path / "t"
        assert run("train", "--data", data, "--valid", data, "--model", "fm",
                   "--embed-dim", 3, "--epochs", 2, "--buckets", 12,
                   "--seed", 11, "--out", out) == 0
        metrics_line = (out / "metrics.csv").read_text().splitlines()[1]
        assert run("eval", "--data", data, "--checkpoint", out / "model.ckpt",
                   "--buckets", 12) == 0
        printed = dict(
            kv.split("=") for kv in capsys.readouterr().out.split()
        )
        n, n_pos, n_neg, auc, ll = metrics_line.split(",")
        assert printed["auc"] == auc and printed["logloss"] == ll


class TestLossCurves:
    def test_positive_scenario_file(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run("loss-curves", "--y", 1, "--y-last", "0.8",
                   "--grid", 99, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "y_hat,l_ce,l_kd,l_sc"
        assert len(lines) == 100
        for line in lines[1:]:
            y_hat, _, _, l_sc = map(float, line.split(","))
            if y_hat >= 0.8:
                assert l_sc == 0.0
        assert (tmp_path / "manifest.json").exists()

    def test_negative_scenario(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("loss-curves", "--y", 0, "--y-last", "0.3",
                   "--grid", 49, "--out", out) == 0
        for line in out.read_text().splitlines()[1:]:
            y_hat, _, _, l_sc = map(float, line.split(","))
            if y_hat <= 0.3:
                assert l_sc == 0.0

    def test_zero_grid_usage_error(self, tmp_path):
        assert run("loss-curves", "--grid", 0, "--out", tmp_path / "c.csv") == 2


class TestConfigPrecedence:
    def test_flags_beat_config_beats_defaults(self, data_dir, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 1\nseed = 33  # comment\nembed-dim = 3\n")
        out = tmp_path / "o"
        assert run("train", "--config", cfgfile,
                   "--data", data_dir / "single" / "window_000.csv",
                   "--model", "fm", "--buckets", 12,
                   "--seed", 44, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["epochs"] == 1       # from config
        assert manifest["resolved"]["seed"] == 44        # flag wins
        assert manifest["resolved"]["batch_size"] == 256  # default

    def test_unknown_config_key(self, data_dir, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate = 1\n")
        assert run("train", "--config", cfgfile,
                   "--data", data_dir / "single" / "window_000.csv",
                   "--out", tmp_path / "o") == 2


class TestTrainSmoke:
    def test_deepfm_reloop_on_bundled_fixture(self, fixture_csv, tmp_path):
        """The bundled 50k fixture trains in budget and beats chance."""
        import time

        from reloop.features import ingest_csv
        from reloop.loop import infer_scores
        from reloop.models import ModelConfig, init_params
        from reloop.optim import TrainConfig, train_epochs
        from conftest import FIXTURE_SPEC

        schema = FIXTURE_SPEC.schema()
        data = ingest_csv(fixture_csv, schema)
        prior = init_params(schema, ModelConfig("lr"), seed=1)
        prior, _ = train_epochs(prior, data.head(10_000), TrainConfig(epochs=1, seed=1))
        scores = tmp_path / "prior.csv"
        infer_scores(prior, data).save(scores)

        out = tmp_path / "run"
        start = time.monotonic()
        code = run("train", "--data", fixture_csv, "--valid", fixture_csv,
                   "--model", "deepfm", "--loss", "reloop", "--alpha", "0.2",
                   "--prior-scores", scores, "--epochs", 2, "--buckets", 64,
                   "--seed", 1, "--out", out)
        elapsed = time.monotonic() - start
        assert code == 0
        auc = float((out / "metrics.csv").read_text().splitlines()[1].split(",")[3])
        assert auc > 0.5
        assert elapsed < 120.0


class TestRerun:
    def test_gen_data_replay_bytes(self, tmp_path):
        a = tmp_path / "a"
        assert run("gen-data", "--out", a, "--rows", 300, "--fields", 3,
                   "--buckets", 8, "--windows", 2, "--drift", "0.2", "--seed", 6) == 0
        b = tmp_path / "b"
        assert run("rerun", "--manifest", a / "manifest.json", "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_train_replay_bytes(self, data_dir, tmp_path):
        a = tmp_path / "a"
        data = data_dir / "single" / "window_000.csv"
        assert run("train", "--data", data, "--valid", data, "--model", "deepfm",
                   "--embed-dim", 3, "--mlp-widths", "5,4", "--epochs", 2,
                   "--buckets", 12, "--seed", 13, "--out", a) == 0
        b = tmp_path / "b"
        assert run("rerun", "--manifest", a / "manifest.json", "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_bad_manifest(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{}")
        assert run("rerun", "--manifest", bad, "--out", tmp_path / "o") == 2
