"""Acceptance suite: one test per criterion, exact tolerances pinned.

Each test prints a PASS line on success; the conftest terminal summary adds
a consolidated PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import CONTINUAL_SPEC, FIXTURE_SPEC
from gradutils import (
    EncodedInstance,
    backward,
    ce_loss,
    combined_loss,
    forward,
    grads_to_vector,
    kd_loss,
    loss_grad_z,
    params_to_vector,
    relative_errors,
    sc_loss,
    set_params_from_vector,
)
from reloop.checkpoint import (
    MAGIC,
    BadMagicError,
    FormatVersionError,
    TruncatedCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from reloop.cli import main
from reloop.features import FeatureSchema, FieldSpec
from reloop.loop import (
    LoopConfig,
    mean_report_metrics,
    run_continual_arms,
    run_static_prior,
)
from reloop.losses import LossConfig, emit_loss_curves
from reloop.metrics import auc as rank_auc
from reloop.metrics import logloss
from reloop.models import MODEL_KINDS, ModelConfig, init_params
from reloop.optim import TrainConfig

# Continual-fixture training settings: cold start per version, enough epochs
# per window that both arms converge and the comparison is not noise-bound.
AC5_EPOCHS = 6
AC5_SEEDS = 10


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_ac1_loss_correctness():
    """Every worked loss example to 1e-9 plus exact curve zero regions."""
    tol = 1e-9
    assert abs(ce_loss(1, 0.5) - math.log(2)) <= tol
    assert abs(ce_loss(0, 0.9) + math.log(0.1)) <= tol
    assert abs(ce_loss(1, 0.3) - 1.2039728043259361) <= tol
    # label 1, prior 0.8 and label 0, prior 0.3 scenarios
    assert abs(sc_loss(1, 0.6, 0.8) - 0.2) <= tol
    assert sc_loss(1, 0.9, 0.8) == 0.0
    assert abs(sc_loss(0, 0.5, 0.3) - 0.2) <= tol
    assert sc_loss(0, 0.2, 0.3) == 0.0
    assert abs(kd_loss(0.5, 0.5) - math.log(2)) <= tol
    assert abs(kd_loss(0.8, 0.6) - 0.5919186453876236) <= tol
    assert abs(combined_loss(LossConfig("reloop", alpha=0.0), 1, 0.3, 0.9)
               - ce_loss(1, 0.3)) <= tol
    assert abs(combined_loss(LossConfig("reloop", alpha=1.0), 1, 0.6, 0.8) - 0.2) <= tol
    assert abs(combined_loss(LossConfig("reloop", alpha=0.5), 1, 0.6, 0.8)
               - 0.3554128118829953) <= tol

    grid = np.arange(1, 200) / 200.0
    pos = emit_loss_curves(1, 0.8, grid)
    assert np.all(pos[grid >= 0.8, 3] == 0.0)
    assert np.all(pos[grid < 0.8, 3] > 0.0)
    neg = emit_loss_curves(0, 0.3, grid)
    assert np.all(neg[grid <= 0.3, 3] == 0.0)
    assert np.all(neg[grid > 0.3, 3] > 0.0)
    assert np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))
    print("AC-1 PASS: loss examples reproduced to 1e-9, curve zero regions exact")


def test_ac2_gradient_fidelity():
    """5 model kinds x 3 loss kinds x 20 finite-difference checks, rel err <= 1e-4."""
    schema = FeatureSchema([FieldSpec(f"f{i}", "categorical", 4) for i in range(3)])
    h = 1e-6
    rng = np.random.default_rng(2024)
    for kind in MODEL_KINDS:
        cfg = ModelConfig(kind, embed_dim=2, mlp_widths=(4, 3), n_cross_layers=2)
        for loss_kind, alpha in (("ce", 0.0), ("reloop", 0.4), ("kd", 0.0)):
            loss_cfg = LossConfig(loss_kind, alpha=alpha)
            checked = 0
            while checked < 20:
                params = init_params(schema, cfg, seed=int(rng.integers(1 << 30)))
                vec = rng.normal(0.0, 0.6, size=params_to_vector(params).shape)
                set_params_from_vector(params, vec)
                idx = np.array(
                    [schema.index_base[f] + rng.integers(0, 4) for f in range(3)]
                )
                inst = EncodedInstance(1, idx, 0)
                y = float(rng.integers(0, 2))
                t = float(rng.uniform(0.05, 0.95))
                z, prob, trace = forward(params, inst)
                if abs(prob - t) <= 1e-3:
                    continue  # hinge kink excluded
                if abs(z) > 8.0:
                    continue  # saturated sigmoid starves central differences
                dl_dz = loss_grad_z(loss_cfg, y, prob, t)
                analytic = grads_to_vector(backward(params, trace, dl_dz), params)
                base = params_to_vector(params)
                fd = np.empty_like(base)
                for j in range(base.size):
                    up = base.copy()
                    up[j] += h
                    set_params_from_vector(params, up)
                    _, pp, _ = forward(params, inst)
                    dn = base.copy()
                    dn[j] -= h
                    set_params_from_vector(params, dn)
                    _, pm, _ = forward(params, inst)
                    fd[j] = (
                        combined_loss(loss_cfg, y, pp, t)
                        - combined_loss(loss_cfg, y, pm, t)
                    ) / (2 * h)
                assert relative_errors(fd, analytic).max() <= 1e-4, (kind, loss_kind)
                checked += 1
    print("AC-2 PASS: 5 kinds x 3 losses x 20 finite-difference checks at 1e-4")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_ac3_degeneracy_bitwise(kind, fixture_csv, tmp_path):
    """reloop at alpha 0 produces byte-identical checkpoints and metrics."""
    prior = tmp_path / "prior_scores.csv"
    n = FIXTURE_SPEC.n_rows
    with prior.open("w") as fh:
        fh.write("row_id,y_last\n")
        for rid in range(n):
            fh.write(f"{rid},{0.350000000:.9f}\n")
    outs = []
    for name, extra in (
        ("ce", ["--loss", "ce"]),
        ("rl0", ["--loss", "reloop", "--alpha", "0", "--prior-scores", prior]),
    ):
        out = tmp_path / f"{kind}-{name}"
        code = run_cli(
            "train", "--data", fixture_csv, "--valid", fixture_csv,
            "--model", kind, "--epochs", 2, "--buckets", 64,
            "--seed", 77, "--out", out, *extra,
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    print(f"AC-3 PASS ({kind}): reloop alpha=0 bitwise-identical to ce")


def test_ac4_metric_oracles():
    """Rank AUC == pairwise AUC to 1e-12; logloss == row-wise mean to 1e-12."""
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 0, 1
        if trial % 2:
            scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
        else:
            scores = rng.random(n)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = (
            (pos[:, None] > neg[None, :]).sum()
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        ) / (len(pos) * len(neg))
        assert abs(rank_auc(labels, scores) - brute) <= 1e-12
    labels = rng.integers(0, 2, 1000).astype(float)
    scores = rng.random(1000)
    rowwise = np.mean([ce_loss(y, p) for y, p in zip(labels, scores)])
    assert abs(logloss(labels, scores) - rowwise) <= 1e-12
    print("AC-4 PASS: rank AUC == brute force, logloss == row-wise mean (1e-12)")


@pytest.fixture(scope="module")
def continual_arm_results(continual_windows):
    arms = (("ce", 0.0), ("reloop", 0.2), ("kd", 0.0))
    results = {kind: ([], []) for kind, _ in arms}
    for seed in range(AC5_SEEDS):
        cfg = LoopConfig(
            mode="continual",
            model=ModelConfig("deepfm"),
            train=TrainConfig(epochs=AC5_EPOCHS, seed=seed),
            warm_start=False,
        )
        losses = [LossConfig(kind, alpha=alpha) for kind, alpha in arms]
        for (kind, _), state in zip(arms, run_continual_arms(cfg, continual_windows, losses)):
            per_seed, states = results[kind]
            per_seed.append(mean_report_metrics(state)[0])
            states.append(state)
    return results


def test_ac5_directional_reloop_gain(continual_arm_results):
    """Mean next-window AUC: reloop >= ce - 0.002 and wins in >= 7/10 seeds."""
    ce, _ = continual_arm_results["ce"]
    rl, _ = continual_arm_results["reloop"]
    wins = sum(b > a for a, b in zip(ce, rl))
    mean_ce, mean_rl = float(np.mean(ce)), float(np.mean(rl))
    assert mean_rl >= mean_ce - 0.002, (mean_rl, mean_ce)
    assert wins >= 7, f"reloop won only {wins}/10 seeds"
    print(
        f"AC-5 PASS: reloop mean AUC {mean_rl:.4f} vs ce {mean_ce:.4f} "
        f"(+{mean_rl - mean_ce:.4f}), wins {wins}/10"
    )


def test_ac6_kd_baseline_reported(continual_arm_results, tmp_path):
    """KD completes and is reported alongside ce and reloop."""
    kd, kd_states = continual_arm_results["kd"]
    assert np.all(np.isfinite(kd))
    report = tmp_path / "loop_report.csv"
    lines = ["version,window,phase,loss_kind,alpha,auc,logloss"]
    for kind in ("ce", "reloop", "kd"):
        _, states = continual_arm_results[kind]
        lines += states[0].report_rows()[1:]
    report.write_text("\n".join(lines) + "\n")
    body = report.read_text()
    assert ",kd," in body and ",ce," in body and ",reloop," in body
    kd_mean = float(np.mean(kd))
    print(f"AC-6 PASS: kd arm complete (mean AUC {kd_mean:.4f}), reported alongside")


def test_ac7_alpha_sweep_shape(fixture_csv, tmp_path):
    """11-point sweep: 11 rows, alpha=0 row bitwise-equals baseline, and some
    interior alpha matches or beats it."""
    base_out = tmp_path / "baseline"
    common = [
        "--mode", "static", "--data", fixture_csv, "--model", "fm",
        "--epochs", 3, "--buckets", 64, "--seed", 5,
    ]
    assert run_cli("loop", *common, "--loss", "ce", "--out", base_out) == 0
    sweep_out = tmp_path / "sweep"
    alphas = ",".join(f"{0.1 * i:.1f}" for i in range(11))
    assert run_cli("sweep-alpha", *common, "--alphas", alphas, "--out", sweep_out) == 0

    lines = (sweep_out / "alpha_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,auc,logloss"
    assert len(lines) == 12  # 11 alpha rows
    rows = [line.split(",") for line in lines[1:]]
    baseline_current = next(
        line for line in (base_out / "loop_report.csv").read_text().splitlines()
        if ",current," in line
    )
    b_auc, b_ll = baseline_current.split(",")[-2:]
    assert rows[0][0] == "0" and rows[0][1] == b_auc and rows[0][2] == b_ll
    alpha0_auc = float(rows[0][1])
    interior = [float(r[1]) for r in rows[1:-1]]
    assert any(a >= alpha0_auc for a in interior), (alpha0_auc, interior)
    print(f"AC-7 PASS: 11-row sweep, alpha=0 row bitwise == baseline, "
          f"max interior AUC {max(interior):.4f} >= {alpha0_auc:.4f}")


def test_ac8_determinism_and_persistence(tmp_path):
    """Manifest replays are byte-identical; corruption errors are typed."""

    def tree(root: Path):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }

    gen_out = tmp_path / "gen"
    assert run_cli("gen-data", "--out", gen_out, "--rows", 1200, "--fields", 4,
                   "--buckets", 12, "--windows", 2, "--drift", "0.2", "--seed", 8) == 0
    data = gen_out / "window_000.csv"

    train_out = tmp_path / "train"
    assert run_cli("train", "--data", data, "--valid", gen_out / "window_001.csv",
                   "--model", "deepfm", "--embed-dim", 3, "--mlp-widths", "5,4",
                   "--epochs", 2, "--buckets", 12, "--seed", 8,
                   "--out", train_out) == 0
    loop_out = tmp_path / "loop"
    assert run_cli("loop", "--mode", "continual",
                   "--windows", gen_out / "window_*.csv", "--model", "fm",
                   "--embed-dim", 3, "--loss", "reloop", "--alpha", "0.2",
                   "--epochs", 2, "--buckets", 12, "--seed", 8,
                   "--out", loop_out) == 0
    sweep_out = tmp_path / "sweep"
    assert run_cli("sweep-alpha", "--alphas", "0,0.4", "--mode", "static",
                   "--data", data, "--model", "lr", "--epochs", 1,
                   "--buckets", 12, "--seed", 8, "--out", sweep_out) == 0
    curves_out = tmp_path / "curves"
    assert run_cli("loss-curves", "--y", 1, "--y-last", "0.8", "--grid", 50,
                   "--out", curves_out) == 0

    for out_dir in (gen_out, train_out, loop_out, sweep_out, curves_out):
        manifest = out_dir / "manifest.json"
        assert manifest.exists()
        replay_root = tmp_path / f"replay-{out_dir.name}"
        cmd = json.loads(manifest.read_text())["command"]
        assert run_cli("rerun", "--manifest", manifest, "--out", replay_root) == 0
        assert tree(out_dir) == tree(replay_root), f"{cmd} replay differs"

    # checkpoint round trip is bitwise; corruption raises the typed errors
    ckpt = train_out / "model.ckpt"
    params = load_checkpoint(ckpt)
    again = tmp_path / "again.ckpt"
    save_checkpoint(params, again)
    assert again.read_bytes() == ckpt.read_bytes()
    raw = ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"Z" + raw[1:])
    with pytest.raises(BadMagicError):
        load_checkpoint(bad)
    bad.write_bytes(MAGIC + struct.pack("<I", 9) + raw[12:])
    with pytest.raises(FormatVersionError):
        load_checkpoint(bad)
    bad.write_bytes(raw[:-9])
    with pytest.raises(TruncatedCheckpointError):
        load_checkpoint(bad)
    print("AC-8 PASS: byte-identical replays, typed errors")


def test_ac9_static_prior_protocol(fixture_dataset):
    """Prior sees exactly the first 90%; y_last covers 100% of train rows."""
    n = len(fixture_dataset)
    train = fixture_dataset.head(int(round(0.8 * n)))
    rest = fixture_dataset.tail(n - len(train))
    valid, test = rest.head(len(rest) // 2), rest.tail(len(rest) - len(rest) // 2)
    cfg = LoopConfig(
        mode="static_prior",
        model=ModelConfig("fm"),
        train=TrainConfig(epochs=2, seed=1, loss=LossConfig("reloop", alpha=0.2)),
        prior_fraction=0.9,
    )
    state = run_static_prior(cfg, train, valid, test)
    n_expected = int(round(0.9 * len(train)))
    prior_rec, current_rec = state.versions
    assert prior_rec.n_train_rows == n_expected
    assert np.array_equal(state.prior_row_ids, train.row_ids[:n_expected])
    assert current_rec.n_with_y_last == len(train)  # whole-set inference
    assert current_rec.y_last_source == prior_rec.version
    assert len(state.score_logs[(0, 0)].scores) == len(train)
    print(
        f"AC-9 PASS: prior trained on first {n_expected}/{len(train)} rows, "
        f"y_last attached to 100% of training rows"
    )
