"""CLI: exit codes, artifacts, config precedence, manifest replay."""

import copy
import dataclasses
import json
import multiprocessing
import os
import shutil
import tempfile
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reloop.cli
import reloop.loop
from reloop.checkpoint import save_checkpoint
from reloop.cli import main
from reloop.features import SyntheticSpec, generate_synthetic_csv, ingest_csv
from reloop.loop import ScoreLog, mean_report_metrics
from reloop.losses import LOSS_KINDS, LossConfig
from reloop.metrics import evaluate
from reloop.models import MODEL_KINDS, ModelConfig, init_params, predict_batch
from reloop.optim import OPTIMIZER_KINDS


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


@pytest.fixture(scope="module")
def three_windows(tmp_path_factory):
    """Three small drifting windows, so a continual run has a version 3."""
    spec = SyntheticSpec(n_fields=4, buckets_per_field=12, latent_dim=3,
                         n_rows=600, seed=23, n_windows=3, drift_rate=0.2)
    return generate_synthetic_csv(spec, tmp_path_factory.mktemp("three"))


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

    def test_quoted_header_field_with_comma(self, tmp_path):
        data = tmp_path / "quoted.csv"
        data.write_text('label,"f,1",f2\n1,a,x\n0,b,y\n1,a,y\n0,b,x\n')
        assert run("train", "--data", data, "--model", "lr", "--epochs", 1,
                   "--buckets", 8, "--out", tmp_path / "o") == 0

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

    @staticmethod
    def inputs(data_dir, three_windows, mode, warm="false"):
        return ["--mode", mode, "--data", data_dir / "single" / "window_000.csv",
                "--windows", three_windows[0].parent / "window_*.csv",
                "--warm-start", warm, "--model", "fm", "--embed-dim", 3,
                "--epochs", 2, "--buckets", 12, "--seed", 4]

    @pytest.mark.parametrize("mode, warm", [
        ("static", "false"), ("continual", "false"), ("continual", "true"),
    ])
    def test_rows_equal_separate_loop_headlines(
        self, data_dir, three_windows, tmp_path, monkeypatch, mode, warm
    ):
        args = self.inputs(data_dir, three_windows, mode, warm)
        assert run("sweep-alpha", *args, "--alphas", "0,0.3,1",
                   "--out", tmp_path / "sweep") == 0
        states = []
        for name in ("run_static_prior", "run_continual"):
            def keep(*a, _real=getattr(reloop.cli, name)):
                states.append(_real(*a))
                return states[-1]
            monkeypatch.setattr(reloop.cli, name, keep)
        expected = ["alpha,auc,logloss"]
        for alpha in ("0", "0.3", "1"):
            assert run("loop", *args, "--loss", "reloop", "--alpha", alpha,
                       "--out", tmp_path / f"loop{alpha}") == 0
            state = states[-1]
            if mode == "static":
                report = next(r.report for r in state.reports if r.phase == "current")
                auc, ll = report.auc, report.logloss
            else:
                auc, ll = mean_report_metrics(state)
            expected.append(f"{alpha},{auc:.6f},{ll:.6f}")
        assert (tmp_path / "sweep" / "alpha_sweep.csv").read_text().splitlines() == expected

    @pytest.mark.parametrize("mode", ["static", "continual"])
    def test_alpha_independent_phases_run_once(
        self, data_dir, three_windows, tmp_path, monkeypatch, mode
    ):
        trained, ingested = [], []
        real_train, real_ingest = reloop.loop.train_epochs, reloop.cli.ingest_csv

        def train(params, dataset, cfg):
            trained.append(len(dataset))
            return real_train(params, dataset, cfg)

        def ingest(path, schema):
            ingested.append(Path(path))
            return real_ingest(path, schema)

        monkeypatch.setattr(reloop.loop, "train_epochs", train)
        monkeypatch.setattr(reloop.cli, "ingest_csv", ingest)
        monkeypatch.setattr(reloop.loop, "phase_processes", lambda n: 1)  # observed here
        k = 3
        assert run("sweep-alpha", *self.inputs(data_dir, three_windows, mode),
                   "--alphas", "0,0.5,1", "--out", tmp_path / "x") == 0
        if mode == "static":
            assert len(trained) == 1 + k
            assert ingested == [data_dir / "single" / "window_000.csv"]
        else:
            assert len(trained) == 1 + k * (len(three_windows) - 1)
            assert ingested == sorted(three_windows)

    @pytest.mark.parametrize("mode, phase", [("static", "prior"), ("continual", "v001")])
    def test_diverged_sweep_exits_one(
        self, data_dir, three_windows, tmp_path, capsys, mode, phase
    ):
        out = tmp_path / "x"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("sweep-alpha", *self.inputs(data_dir, three_windows, mode),
                       "--alphas", "0,0.5", "--optimizer", "sgd", "--lr", "1e200",
                       "--out", out)
        assert code == 1
        assert f"error: {phase}: training diverged: epoch 1 of 2" in capsys.readouterr().err
        assert not (out / "alpha_sweep.csv").exists()

    def test_out_of_memory_exits_one(self, data_dir, three_windows, tmp_path, capsys,
                                     monkeypatch):
        def train(*args):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(reloop.loop, "train_epochs", train)
        assert run("sweep-alpha", *self.inputs(data_dir, three_windows, "static"),
                   "--alphas", "0,0.5", "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 8.00 TiB\n"

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    @pytest.mark.parametrize("mode", ["static", "continual"])
    def test_killed_worker_exits_one(self, data_dir, three_windows, tmp_path, capsys,
                                     monkeypatch, mode):
        parent = os.getpid()
        real = reloop.loop._train_phase

        def train(cfg, dataset, loss, phase, start=None):
            if os.getpid() != parent:  # a worker dies as if the OS killed it
                os._exit(1)
            return real(cfg, dataset, loss, phase, start)

        monkeypatch.setattr(reloop.loop, "_train_phase", train)
        monkeypatch.setattr(reloop.loop, "phase_processes", lambda n: min(n, 2))
        assert run("sweep-alpha", *self.inputs(data_dir, three_windows, mode),
                   "--alphas", "0,0.5", "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "terminated abruptly" in err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "x" / "alpha_sweep.csv").exists()


    def test_diverged_sweep_prints_no_numpy_warnings(self, data_dir, tmp_path):
        """The overflow on the way to divergence is reported once, as the
        typed error, not also as numpy RuntimeWarnings."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "reloop.cli", "sweep-alpha", "--mode", "static",
             "--data", str(data_dir / "single" / "window_000.csv"), "--model", "fm",
             "--embed-dim", "3", "--epochs", "2", "--buckets", "12", "--alphas", "0,0.5",
             "--optimizer", "sgd", "--lr", "1e200", "--out", str(tmp_path / "x")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        assert "error: prior: training diverged: epoch 1 of 2" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr


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

    @pytest.mark.parametrize("scores, labels, bad, message", [
        ("score\n0.9\nnan\n", "1\n0\n", "scores", ":3: score must be a finite value"),
        ("0.9\nhigh\n", "1\n0\n", "scores", ":2: cannot parse score"),
        ("0.9\n1.7\n", "1\n0\n", "scores", ":2: score must be a finite value in [0, 1]"),
        ("0.9\n0.1\n", "label\n1\n2\n", "labels", ":3: label must be 0 or 1"),
    ], ids=["nan-score", "unparsable-score", "score-above-one", "label-two"])
    def test_bad_plain_column_exit_one(self, tmp_path, capsys, scores, labels, bad, message):
        files = {"scores": tmp_path / "scores.txt", "labels": tmp_path / "labels.txt"}
        files["scores"].write_text(scores)
        files["labels"].write_text(labels)
        assert run("eval", "--scores", files["scores"], "--labels", files["labels"]) == 1
        err = capsys.readouterr().err
        assert f"{files[bad]}{message}" in err
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

    def test_eval_refuses_non_finite_checkpoint(self, data_dir, tmp_path, capsys):
        data = data_dir / "single" / "window_000.csv"
        out = tmp_path / "t"
        assert run("train", "--data", data, "--model", "lr", "--epochs", 1,
                   "--buckets", 12, "--out", out) == 0
        ckpt = out / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())
        capsys.readouterr()
        assert run("eval", "--data", data, "--checkpoint", ckpt, "--buckets", 12) == 1
        captured = capsys.readouterr()
        assert f"{ckpt}: parameter block linear is not finite" in captured.err
        assert "logloss" not in captured.out and "Traceback" not in captured.err

    @staticmethod
    def _checkpoint(tmp_path, kind, set_params):
        """A 400-row one-field CSV and a checkpoint of ``kind`` over it, whose
        params ``set_params(params, tokens, ds)`` fills in."""
        rng = np.random.default_rng(5)
        tokens = np.arange(400) % 40
        labels = (rng.random(400) < (tokens + 1) / 41).astype(int)
        data = tmp_path / "d.csv"
        data.write_text("label,f0\n" + "".join(f"{y},{t}\n" for y, t in zip(labels, tokens)))
        schema = reloop.cli._schema_from_csv(str(data), 1000, [])
        ds = ingest_csv(data, schema)
        params = init_params(schema, ModelConfig(kind, embed_dim=2), seed=0)
        set_params(params, tokens, ds)
        save_checkpoint(params, tmp_path / "c.ckpt")
        return data, tmp_path / "c.ckpt", params, ds

    def test_checkpoint_mode_scores_raw_probabilities(self, tmp_path, capsys):
        # every probability rounds to the clip bound 1 - 1e-7; the raw ones
        # still rank the rows
        def near_one(params, tokens, ds):
            params.bias = 25.0
            params.linear[ds.indices[:, 0]] = tokens / 10

        data, ckpt, params, ds = self._checkpoint(tmp_path, "lr", near_one)
        want = evaluate(ds.labels, predict_batch(params, ds))
        assert run("eval", "--data", data, "--checkpoint", ckpt, "--buckets", 1000) == 0
        printed = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert printed["auc"] == f"{want.auc:.6f}" != "0.500000"
        assert printed["logloss"] == f"{want.logloss:.6f}"

    def test_non_finite_predictions_exit_one(self, tmp_path, capsys):
        # a finite checkpoint whose interactions overflow to inf - inf
        def huge(params, tokens, ds):
            params.emb[:] = 1e200

        data, ckpt, _, _ = self._checkpoint(tmp_path, "fm", huge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("eval", "--data", data, "--checkpoint", ckpt, "--buckets", 1000) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert "error: 400 of 400 scores are not finite" in captured.err
        assert "logloss" not in captured.out and "Traceback" not in captured.err

    @pytest.mark.parametrize("case", ["missing", "foreign-schema"])
    def test_bad_checkpoint_fails_before_ingest(self, data_dir, tmp_path, capsys,
                                                monkeypatch, case):
        data = data_dir / "single" / "window_000.csv"
        ckpt = tmp_path / "t" / "model.ckpt"
        if case == "foreign-schema":  # trained over other buckets
            assert run("train", "--data", data, "--model", "lr", "--epochs", 1,
                       "--buckets", 7, "--out", ckpt.parent) == 0
        ingests = []
        real = reloop.cli.ingest_csv
        monkeypatch.setattr(reloop.cli, "ingest_csv",
                            lambda *a, **k: ingests.append(a) or real(*a, **k))
        capsys.readouterr()
        assert run("eval", "--data", data, "--checkpoint", ckpt, "--buckets", 12) == 1
        err = capsys.readouterr().err
        assert ("No such file" if case == "missing" else "schema digest") in err
        assert ingests == []


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

    def test_non_utf8_config_names_file_and_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"seed = 3\nrows = 3\xe9\n")
        out = tmp_path / "o"
        assert run("gen-data", "--config", cfgfile, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"usage error: {cfgfile}:2: not UTF-8 text: invalid continuation byte" in err
        assert not out.exists()

    def test_unknown_config_key(self, data_dir, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate = 1\n")
        assert run("train", "--config", cfgfile,
                   "--data", data_dir / "single" / "window_000.csv",
                   "--out", tmp_path / "o") == 2


class TestOneCheckPerOption:
    """A flag and a config entry pass the same parser: a bad value exits 2
    before anything is written. Manifest values: TestRerun."""

    @pytest.mark.parametrize("command, config, args, where", [
        ("loop", "mode = bogus", ["--windows", "{windows}", "--model", "lr", "--epochs", "1"],
         "config key 'mode'"),
        ("loss-curves", "y = 5", [], "config key 'y'"),
        ("train", "loss = bogus", ["--data", "{data}"], "config key 'loss'"),
        ("train", None, ["--data", "{data}", "--model", "lr", "--lr", "nan"], "argument --lr"),
        ("train", None, ["--data", "{data}", "--model", "lr", "--lr", "inf"], "argument --lr"),
        ("train", None, ["--data", "{data}", "--buckets", "0"], "argument --buckets"),
        ("loop", None, ["--data", "{data}", "--buckets", "0"], "argument --buckets"),
        ("eval", None, ["--data", "{data}", "--checkpoint", "{data}", "--buckets", "0"],
         "argument --buckets"),
    ], ids=["config-mode", "config-y", "config-loss", "lr-nan", "lr-inf",
            "buckets-train", "buckets-loop", "buckets-eval"])
    def test_bad_value_exits_two(self, data_dir, tmp_path, capsys, command, config, args,
                                 where):
        paths = {"data": data_dir / "single" / "window_000.csv",
                 "windows": data_dir / "windows" / "window_*.csv"}
        argv = [command, *(a.format(**paths) for a in args)]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            argv += ["--config", tmp_path / "run.cfg"]
        if command == "loss-curves":
            argv += ["--out", tmp_path / "o" / "c.csv"]
        elif command != "eval":
            argv += ["--out", tmp_path / "o"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_help_lists_allowed_values(self, capsys):
        allowed = {name: "{" + ",".join(map(str, values)) + "}" for name, values in (
            ("model", MODEL_KINDS), ("loss", LOSS_KINDS), ("optimizer", OPTIMIZER_KINDS),
            ("mode", ("static", "continual")), ("y", (0, 1)))}
        seen = set()
        for command in ("gen-data", "train", "loop", "sweep-alpha", "eval", "loss-curves",
                        "rerun"):
            assert run(command, "--help") == 0
            text = capsys.readouterr().out
            for name, values in allowed.items():
                if f"--{name} " in text:
                    assert f"--{name} {values}" in text, (command, name)
                    seen.add(name)
        assert seen == set(allowed)


class TestInputBoundaries:
    """Inputs that once ended in a traceback: each now runs or exits 1 naming
    the file."""

    def test_infinite_numerical_cell_trains(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("label,a,b\n1,inf,x\n0,1e400,y\n1,3,x\n0,-inf,y\n")
        assert run("train", "--data", data, "--numerical", "a", "--model", "lr",
                   "--epochs", 1, "--buckets", 8, "--out", tmp_path / "o") == 0
        assert (tmp_path / "o" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_row_id_outside_int64_exit_one(self, data_dir, tmp_path, capsys, command):
        scores = tmp_path / "scores.csv"
        scores.write_text("row_id,y_last\n0,0.5\n99999999999999999999999,0.5\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n0\n")
        if command == "eval":
            argv = ["eval", "--scores", scores, "--labels", labels]
        else:
            argv = ["train", "--data", data_dir / "single" / "window_000.csv",
                    "--model", "lr", "--loss", "reloop", "--prior-scores", scores,
                    "--buckets", 12, "--out", tmp_path / "o"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"{scores}:3: row_id 99999999999999999999999 is outside int64" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_buckets_past_int64_exit_one(self, data_dir, tmp_path, capsys, command):
        data = data_dir / "single" / "window_000.csv"
        argv = ([command, "--data", data, "--checkpoint", tmp_path / "none.ckpt"]
                if command == "eval" else [command, "--data", data, "--out", tmp_path / "o"])
        assert run(*argv, "--buckets", 2**64) == 1
        err = capsys.readouterr().err
        assert "past the int64 index range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["csv", "score-log", "plain-column"])
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, where):
        data = tmp_path / "d.csv"
        data.write_bytes(b"label,a,b\n1,x,y\n0,caf\xe9,w\n1,x,w\n0,z,y\n")
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"row_id,y_last\n0,0.5\n1,0.\xe9\n")
        labels = tmp_path / "labels.txt"
        labels.write_bytes(b"label\n1\n\xe9\n" if where == "plain-column" else b"1\n0\n")
        plain = tmp_path / "plain.txt"
        plain.write_text("0.5\n0.5\n")
        if where == "csv":
            bad, argv = data, ["train", "--data", data, "--model", "lr", "--epochs", 1,
                               "--buckets", 8, "--out", tmp_path / "o"]
        elif where == "score-log":
            bad, argv = scores, ["eval", "--scores", scores, "--labels", labels]
        else:
            bad, argv = labels, ["eval", "--scores", plain, "--labels", labels]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text after line " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["header", "data-cell", "score-log"])
    def test_cell_over_csv_field_limit_exit_one(self, tmp_path, capsys, where):
        long = "x" * 131073
        data = tmp_path / "d.csv"
        header = f"label,a,{long}" if where == "header" else "label,a,b"
        cell = long if where == "data-cell" else "y"
        data.write_text(f"{header}\n1,x,{cell}\n0,z,w\n1,x,w\n0,z,y\n")
        scores = tmp_path / "scores.csv"
        scores.write_text(f"row_id,y_last\n0,0.5\n1,{long}\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n0\n")
        if where == "score-log":
            bad, argv = scores, ["eval", "--scores", scores, "--labels", labels]
        else:
            bad, argv = data, ["train", "--data", data, "--model", "lr", "--epochs", 1,
                               "--buckets", 8, "--out", tmp_path / "o"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"{bad}:" in err and "field larger than field limit" in err
        assert "Traceback" not in err


def test_every_config_field_is_set_by_an_option():
    """With every model and train option off its default, every field of the
    configs the CLI builds is off its default too: a field that stays at its
    default is a knob no option reaches."""
    res = {"model": "dcn", "embed_dim": 3, "mlp_widths": [5], "cross_layers": 1,
           "loss": "reloop", "alpha": 0.5, "optimizer": "sgd", "lr": 0.05,
           "batch_size": 7, "epochs": 2, "shuffle": False, "seed": 9}
    opts = reloop.cli._MODEL_OPTS + reloop.cli._TRAIN_OPTS
    assert sorted(res) == sorted(o.name.replace("-", "_") for o in opts)
    for o in opts:
        assert res[o.name.replace("-", "_")] != o.default, o.name
    loss = LossConfig(res["loss"], res["alpha"])  # as the train and loop commands build it
    train = reloop.cli._train_config(res, loss)
    for cfg in (reloop.cli._model_config(res), train, train.loss):
        for f in dataclasses.fields(cfg):
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:
                default = f.default_factory()
            else:
                continue
            assert getattr(cfg, f.name) != default, f"{type(cfg).__name__}.{f.name}"


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


class TestManifest:
    @pytest.mark.parametrize("command", ["gen-data", "sweep-alpha"])
    def test_records_numpy_blas_threads_and_processes(self, data_dir, tmp_path,
                                                      monkeypatch, command):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        out = tmp_path / "o"
        if command == "gen-data":
            args = ["--rows", 30, "--fields", 2, "--buckets", 4]
            processes = 1
        else:
            args = ["--mode", "static", "--data", data_dir / "single" / "window_000.csv",
                    "--alphas", "0,0.5", "--model", "lr", "--epochs", 1, "--buckets", 12]
            processes = reloop.loop.phase_processes(2)
        assert run(command, *args, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": None,
                                            "OMP_NUM_THREADS": "1"}
        assert manifest["processes"] == processes


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

    def test_replay_from_another_directory(self, data_dir, tmp_path, monkeypatch):
        """Relative input paths are recorded absolute, so the replay finds them."""
        a, b = tmp_path / "a", tmp_path / "b"
        (a / "data").mkdir(parents=True)
        b.mkdir()
        for w in ("window_000.csv", "window_001.csv"):
            shutil.copy(data_dir / "windows" / w, a / "data" / w)
        monkeypatch.chdir(a)
        assert run("train", "--data", "data/window_000.csv", "--valid", "data/window_001.csv",
                   "--model", "fm", "--embed-dim", 3, "--epochs", 1, "--buckets", 12,
                   "--out", "run") == 0
        assert run("loop", "--mode", "continual", "--windows", "data/window_*.csv",
                   "--model", "lr", "--epochs", 1, "--buckets", 12, "--out", "loop") == 0
        monkeypatch.chdir(b)
        for name in ("run", "loop"):
            assert run("rerun", "--manifest", f"../a/{name}/manifest.json",
                       "--out", f"replay_{name}") == 0
            assert tree_bytes(a / name) == tree_bytes(b / f"replay_{name}")

    def test_bad_manifest(self, data_dir, tmp_path):
        bad = tmp_path / "m.json"
        good = {}
        for command, args in (
            ("gen-data", ["--rows", 50, "--fields", 2, "--buckets", 4]),
            ("train", ["--data", data_dir / "single" / "window_000.csv"]),
            ("loop", ["--mode", "continual", "--windows", data_dir / "windows" / "window_*.csv"]),
        ):
            if command != "gen-data":
                args += ["--model", "lr", "--epochs", 1, "--buckets", 12]
            assert run(command, *args, "--out", tmp_path / command) == 0
            good[command] = json.loads((tmp_path / command / "manifest.json").read_text())

        def with_value(command, key, value):
            payload = copy.deepcopy(good[command])
            payload["resolved"][key] = value
            return json.dumps(payload)

        for text in (
            "{}",
            "[]",
            '"train"',
            '{"command": "train"}',
            '{"command": "train", "resolved": []}',
            '{"command": "gen-data", "resolved": {"out": "x", "rows": 10}}',
            '{"command": "rerun", "resolved": {}}',
            with_value("gen-data", "rows", "x"),
            with_value("gen-data", "rows", 1.5),
            with_value("gen-data", "rows", True),
            with_value("loop", "mode", "bogus"),
            with_value("train", "lr", float("nan")),
        ):
            bad.write_text(text)
            assert run("rerun", "--manifest", bad, "--out", tmp_path / "o") == 2, text
            assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def small_manifests(tmp_path_factory):
    """Valid manifests of two quick commands, by command name."""
    root = tmp_path_factory.mktemp("manifests")
    assert run("gen-data", "--rows", 30, "--fields", 2, "--buckets", 4,
               "--latent-dim", 2, "--out", root / "g") == 0
    assert run("loss-curves", "--grid", 5, "--out", root / "c" / "c.csv") == 0
    return {"gen-data": json.loads((root / "g" / "manifest.json").read_text()),
            "loss-curves": json.loads((root / "c" / "manifest.json").read_text())}


# Small numbers and short strings keep every accepted replay quick.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
                 | st.text(max_size=2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_manifest_value_exits_zero_or_two(small_manifests, data):
    """One resolved value replaced by any JSON scalar or list: the replay
    either runs or is a usage error; it never raises."""
    command = data.draw(st.sampled_from(sorted(small_manifests)))
    payload = copy.deepcopy(small_manifests[command])
    key = data.draw(st.sampled_from(sorted(payload["resolved"])))
    payload["resolved"][key] = data.draw(_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "m.json"
        manifest.write_text(json.dumps(payload))
        out = Path(tmp) / "o" / ("c.csv" if command == "loss-curves" else "")
        assert run("rerun", "--manifest", manifest, "--out", out) in (0, 2)
