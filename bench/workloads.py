"""The three benchmark workloads: inputs from a seed, one timed job, output checks.

Each workload is one single-process batch job. ``generate`` makes its inputs
from the seed (setup, untimed); ``run`` is the timed job; ``check`` validates
what the job wrote and returns the headline AUC computed from its report
rows. The package sees only the generated inputs, and every call into it
goes through a module attribute (``reloop.loop.run_continual``,
``reloop.cli.main``), so the tracer's wrappers see the job's calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import reloop.checkpoint
import reloop.cli
import reloop.loop
from reloop.features import FeatureSchema, FieldSpec, SyntheticSpec, generate_synthetic
from reloop.losses import LossConfig
from reloop.models import ModelConfig
from reloop.optim import TrainConfig

FIELDS = 8
LATENT_DIM = 4
DRIFT = 0.3
ARMS = (("ce", 0.0), ("reloop", 0.2), ("kd", 0.0))
RELOOP_ALPHA = 0.2


@dataclass(frozen=True)
class Sizes:
    rows: int  # rows per window
    windows: int
    buckets: int  # hash buckets per field
    epochs: int
    alphas: tuple[float, ...] = ()


@dataclass
class Output:
    report: bytes  # the job's report file, byte for byte
    notes: dict  # what check() needs beyond the report, such as exit codes


def _cli(argv) -> tuple[int, str]:
    """Run the reloop CLI in this process; returns (exit code, its stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = reloop.cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _gen_data(sizes: Sizes, out: Path, seed: int) -> list[Path]:
    rc, _ = _cli(["gen-data", "--out", out, "--rows", sizes.rows, "--fields", FIELDS,
                  "--buckets", sizes.buckets, "--latent-dim", LATENT_DIM,
                  "--windows", sizes.windows, "--drift", DRIFT, "--seed", seed])
    if rc != 0:
        raise RuntimeError(f"gen-data exited {rc}")
    return sorted(out.glob("window_*.csv"))


def _finite_auc(auc: float, logloss: float, where: str) -> list[str]:
    if not (math.isfinite(auc) and math.isfinite(logloss) and 0.0 <= auc <= 1.0):
        return [f"{where}: auc={auc} logloss={logloss} is not a finite AUC and logloss"]
    return []


def check_loop_report(text: str, arms, windows: int):
    """Validate a continual loop report; returns (errors, mean reloop next_window AUC)."""
    lines = text.splitlines()
    if not lines or lines[0] != reloop.loop.LOOP_REPORT_HEADER:
        return ["report header is missing or wrong"], math.nan
    rows = list(csv.reader(lines[1:]))
    if len(rows) != len(arms) * windows:
        return [f"report has {len(rows)} rows, expected {len(arms) * windows}"], math.nan
    expected = [(v, v + 1, "next_window") for v in range(1, windows)]
    expected.append((windows, windows, "holdout_tail"))
    errors, headline = [], []
    for a, (kind, alpha) in enumerate(arms):
        for (version, window, phase), row in zip(expected, rows[a * windows:]):
            got = (int(row[0]), int(row[1]), row[2])
            if got != (version, window, phase):
                errors.append(f"{kind} arm: row {got} where {(version, window, phase)} expected")
            want_kind, want_alpha = ("ce", 0.0) if version == 1 else (kind, alpha)
            if (row[3], float(row[4])) != (want_kind, want_alpha):
                errors.append(f"{kind} arm v{version}: loss {row[3]},{row[4]}")
            auc, logloss = float(row[5]), float(row[6])
            errors += _finite_auc(auc, logloss, f"{kind} arm v{version}")
            if kind == "reloop" and phase == "next_window":
                headline.append(auc)
    auc_mean = sum(headline) / len(headline) if headline else math.nan
    return errors, auc_mean


class _Workload:
    name: str
    full: Sizes  # the measured size
    smoke: Sizes  # the size of --smoke

    def __init__(self, sizes: Sizes):
        self.sizes = sizes


class ContinualDeepFM(_Workload):
    """AC-5-shaped continual loop in memory: dense MLP compute and dense Adam."""

    name = "continual-deepfm"
    full = Sizes(rows=12_000, windows=6, buckets=64, epochs=6)
    smoke = Sizes(rows=300, windows=3, buckets=16, epochs=1)

    @property
    def nominal_rows(self) -> int:
        s = self.sizes
        return len(ARMS) * s.rows * s.windows * s.epochs

    def generate(self, work: Path, seed: int):
        s = self.sizes
        return generate_synthetic(SyntheticSpec(
            n_fields=FIELDS, buckets_per_field=s.buckets, latent_dim=LATENT_DIM,
            n_rows=s.rows, seed=seed, n_windows=s.windows, drift_rate=DRIFT))

    def run(self, windows, out: Path, seed: int) -> Output:
        lines = [reloop.loop.LOOP_REPORT_HEADER]
        for kind, alpha in ARMS:
            cfg = reloop.loop.LoopConfig(
                mode="continual",
                model=ModelConfig("deepfm"),
                train=TrainConfig(epochs=self.sizes.epochs, seed=seed,
                                  loss=LossConfig(kind, alpha=alpha)),
            )
            lines += reloop.loop.run_continual(cfg, windows).report_rows()[1:]
        return Output(("\n".join(lines) + "\n").encode(), {})

    def check(self, windows, output: Output, out: Path):
        return check_loop_report(output.report.decode(), ARMS, self.sizes.windows)


class ContinualWideCli(_Workload):
    """CLI continual loop over CSV windows with ~2^17 hashed features, then eval."""

    name = "continual-wide-cli"
    full = Sizes(rows=12_000, windows=6, buckets=16_384, epochs=3)
    smoke = Sizes(rows=300, windows=3, buckets=64, epochs=1)

    @property
    def nominal_rows(self) -> int:
        s = self.sizes
        return s.rows * s.windows * s.epochs

    def generate(self, work: Path, seed: int):
        return _gen_data(self.sizes, work / "data", seed)

    def run(self, paths, out: Path, seed: int) -> Output:
        s = self.sizes
        loop_rc, _ = _cli([
            "loop", "--mode", "continual", "--windows", paths[0].parent / "window_*.csv",
            "--model", "fm", "--loss", "reloop", "--alpha", RELOOP_ALPHA,
            "--epochs", s.epochs, "--buckets", s.buckets, "--seed", seed, "--out", out])
        eval_rc, eval_stdout = _cli([
            "eval", "--data", paths[-1], "--checkpoint",
            out / "checkpoints" / f"v{s.windows:03d}.ckpt", "--buckets", s.buckets])
        report = out / "loop_report.csv"
        return Output(report.read_bytes() if report.exists() else b"",
                      {"loop_rc": loop_rc, "eval_rc": eval_rc, "eval_stdout": eval_stdout})

    def check(self, paths, output: Output, out: Path):
        s = self.sizes
        notes = output.notes
        if notes["loop_rc"] != 0:
            return [f"loop exited {notes['loop_rc']}"], math.nan
        errors, auc_mean = check_loop_report(
            output.report.decode(), [("reloop", RELOOP_ALPHA)], s.windows)
        if notes["eval_rc"] != 0:
            errors.append(f"eval exited {notes['eval_rc']}")
        printed = dict(line.split("=", 1) for line in notes["eval_stdout"].split())
        if not math.isfinite(float(printed.get("auc", "nan"))):
            errors.append(f"eval printed {notes['eval_stdout']!r}")
        with open(paths[0], encoding="utf-8") as fh:
            names = next(csv.reader(fh))[1:]
        schema = FeatureSchema([FieldSpec(n, "categorical", s.buckets) for n in names])
        ckpt_dir = out / "checkpoints"
        ckpts = sorted(ckpt_dir.glob("v*.ckpt"))
        if [p.name for p in ckpts] != [f"v{t:03d}.ckpt" for t in range(1, s.windows + 1)]:
            errors.append(f"checkpoints {[p.name for p in ckpts]}")
        for path in ckpts:
            try:
                reloop.checkpoint.check_schema(reloop.checkpoint.load_checkpoint(path), schema)
            except reloop.checkpoint.CheckpointError as exc:
                errors.append(f"{path.name}: {exc}")
        if len(list(ckpt_dir.glob("scores_v*_w*.csv"))) != s.windows - 1:
            errors.append("score logs missing")
        return errors, auc_mean


class SweepStaticCli(_Workload):
    """CLI sweep-alpha in static mode: per-alpha re-ingest and re-training."""

    name = "sweep-static-cli"
    full = Sizes(rows=50_000, windows=1, buckets=64, epochs=3, alphas=(0.0, 0.2, 0.4, 0.6))
    smoke = Sizes(rows=500, windows=1, buckets=16, epochs=1, alphas=(0.0, 0.5))

    @property
    def nominal_rows(self) -> int:
        s = self.sizes
        return s.rows * s.epochs * len(s.alphas)

    def generate(self, work: Path, seed: int):
        return _gen_data(self.sizes, work / "data", seed)

    def run(self, paths, out: Path, seed: int) -> Output:
        s = self.sizes
        rc, _ = _cli([
            "sweep-alpha", "--alphas", ",".join(f"{a:g}" for a in s.alphas),
            "--mode", "static", "--data", paths[0], "--model", "fm",
            "--epochs", s.epochs, "--buckets", s.buckets, "--seed", seed, "--out", out])
        report = out / "alpha_sweep.csv"
        return Output(report.read_bytes() if report.exists() else b"", {"rc": rc})

    def check(self, paths, output: Output, out: Path):
        if output.notes["rc"] != 0:
            return [f"sweep-alpha exited {output.notes['rc']}"], math.nan
        lines = output.report.decode().splitlines()
        if not lines or lines[0] != "alpha,auc,logloss":
            return ["alpha_sweep.csv header is missing or wrong"], math.nan
        rows = list(csv.reader(lines[1:]))
        want = [f"{a:g}" for a in self.sizes.alphas]
        if [r[0] for r in rows] != want:
            return [f"alpha_sweep.csv alphas {[r[0] for r in rows]}, expected {want}"], math.nan
        errors, aucs = [], []
        for alpha, auc, logloss in rows:
            errors += _finite_auc(float(auc), float(logloss), f"alpha {alpha}")
            aucs.append(float(auc))
        return errors, sum(aucs) / len(aucs)


WORKLOADS = {w.name: w for w in (ContinualDeepFM, ContinualWideCli, SweepStaticCli)}


def make(name: str, smoke: bool):
    cls = WORKLOADS[name]
    return cls(cls.smoke if smoke else cls.full)


def warm_up(workload, work: Path, seed: int) -> None:
    """One tiny job through the same code paths, at the workload's table size."""
    s = workload.sizes
    tiny = type(workload)(
        replace(s, rows=min(s.rows, 400), windows=min(s.windows, 2), epochs=1,
                alphas=s.alphas[:1]))
    inputs = tiny.generate(work, seed)
    output = tiny.run(inputs, work / "out", seed)
    errors, _ = tiny.check(inputs, output, work / "out")
    if errors:
        raise RuntimeError(f"warm-up failed: {errors}")
    shutil.rmtree(work, ignore_errors=True)
