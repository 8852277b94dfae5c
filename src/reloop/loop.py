"""Training-loop orchestration: versioned models feeding scores forward.

Two protocols are implemented:

  static_prior  A prior model is trained with cross-entropy on the leading
                fraction of the training split, then scores the whole split;
                those scores become every row's y_last for the actual
                training run. A plain cross-entropy baseline is always
                trained alongside for comparison.

  continual     Windows arrive in order. Version 1 trains on window 1 with
                cross-entropy; each later version t+1 trains on window t+1
                with the configured loss, its y_last produced by version t
                scoring that window first (simulated online inference).
                Version t is evaluated prequentially on window t+1; the final
                version holds out the tail of the last window and is
                evaluated there. Versions may warm-start from their
                predecessor or re-initialize.

Every y_last is produced by the immediately preceding version only, and
provenance records in LoopState make that auditable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import check_schema, load_checkpoint, save_checkpoint
from .features import PROB_CLIP, DataError, Dataset
from .losses import LossConfig
from .metrics import MetricsReport, evaluate
from .models import ModelConfig, Params, init_params, predict_batch
from .optim import TrainConfig, train_epochs
from .rng import derive_seed

LOOP_REPORT_HEADER = "version,window,phase,loss_kind,alpha,auc,logloss"


@dataclass(frozen=True)
class LoopConfig:
    """Loop mode, model architecture, and per-phase training settings."""

    mode: str  # "static_prior" | "continual"
    model: ModelConfig
    train: TrainConfig
    warm_start: bool = False
    prior_fraction: float = 0.9
    holdout_fraction: float = 0.2
    checkpoint_dir: str | Path | None = None

    def __post_init__(self):
        if self.mode not in ("static_prior", "continual"):
            raise ValueError(f"unknown loop mode {self.mode!r}")
        if not 0.0 < self.prior_fraction < 1.0:
            raise ValueError("prior_fraction must lie in (0, 1)")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in (0, 1)")


class NotAScoreLogError(DataError):
    """File lacks the ``row_id,y_last`` score-log header."""


@dataclass
class ScoreLog:
    """Predicted probabilities keyed by row_id, clipped into (0, 1)."""

    row_ids: np.ndarray
    scores: np.ndarray

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("row_id,y_last\n")
            for rid, s in zip(self.row_ids, self.scores):
                fh.write(f"{int(rid)},{s:.9f}\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScoreLog":
        """Read a score log; a malformed row raises DataError naming its line."""
        first_line: dict[int, int] = {}  # row_id -> line, in file order
        scores = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["row_id", "y_last"]:
                raise NotAScoreLogError(f"{path}: not a score log (header {header!r})")
            for cells in reader:
                where = f"{path}:{reader.line_num}"
                if len(cells) != 2:
                    raise DataError(
                        f"{where}: expected 2 cells (row_id,y_last), got {len(cells)}"
                    )
                try:
                    rid, score = int(cells[0]), float(cells[1])
                except ValueError:
                    raise DataError(f"{where}: cannot parse row {cells!r}") from None
                if not 0.0 <= score <= 1.0:
                    raise DataError(
                        f"{where}: y_last must lie in [0, 1], got {cells[1]!r}"
                    )
                if rid in first_line:
                    raise DataError(f"{where}: row_id {rid} repeats line {first_line[rid]}")
                first_line[rid] = reader.line_num
                scores.append(score)
        rids = np.array(list(first_line), dtype=np.int64)
        return cls(rids, np.array(scores, dtype=np.float64))

    def aligned_to(self, dataset: Dataset) -> np.ndarray:
        """Scores reordered to match the dataset's rows, by row_id."""
        lookup = {int(r): i for i, r in enumerate(self.row_ids)}
        out = np.empty(len(dataset), dtype=np.float64)
        for i, rid in enumerate(dataset.row_ids):
            j = lookup.get(int(rid))
            if j is None:
                raise DataError(f"no prior score for row_id {int(rid)}")
            out[i] = self.scores[j]
        return out


@dataclass
class VersionRecord:
    """Provenance for one trained model version."""

    version: int
    trained_window: int  # 1-based window; 0 for the static prior subset
    loss_kind: str
    alpha: float
    y_last_source: int | None  # predecessor version, None for cold starts
    n_train_rows: int
    n_with_y_last: int
    warm_started: bool = False
    checkpoint_path: str | None = None


@dataclass
class ReportRow:
    version: int
    window: int
    phase: str
    loss_kind: str
    alpha: float
    report: MetricsReport


@dataclass
class LoopState:
    """Everything one loop run produced: versions, score logs, reports."""

    mode: str
    versions: list[VersionRecord] = field(default_factory=list)
    reports: list[ReportRow] = field(default_factory=list)
    score_logs: dict[tuple[int, int], ScoreLog] = field(default_factory=dict)
    prior_row_ids: np.ndarray | None = None  # static mode: rows the prior saw

    def report_rows(self) -> list[str]:
        rows = [LOOP_REPORT_HEADER]
        for r in self.reports:
            rows.append(
                f"{r.version},{r.window},{r.phase},{r.loss_kind},{r.alpha:g},"
                f"{r.report.auc:.6f},{r.report.logloss:.6f}"
            )
        return rows


def write_loop_report(state: LoopState, path: str | Path) -> None:
    Path(path).write_text("\n".join(state.report_rows()) + "\n", encoding="utf-8")


def infer_scores(checkpoint, dataset: Dataset) -> ScoreLog:
    """Score every row of a dataset with a checkpoint (path or Params).

    The checkpoint's schema digest must match the dataset's schema. Scores
    are clipped into (0, 1) before logging so downstream losses stay finite.
    """
    params = checkpoint if isinstance(checkpoint, Params) else load_checkpoint(checkpoint)
    check_schema(params, dataset.schema)
    p = predict_batch(params, dataset)
    return ScoreLog(dataset.row_ids.copy(), np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP))


def _train_phase(
    cfg: LoopConfig,
    dataset: Dataset,
    loss: LossConfig,
    phase: str | int,
    start: Params | None = None,
) -> Params:
    """Train one version; fresh init unless a warm-start parent is given."""
    if start is None:
        params = init_params(
            dataset.schema, cfg.model, derive_seed(cfg.train.seed, "init", phase)
        )
    else:
        params = start.copy()
    train_cfg = replace(
        cfg.train, loss=loss, seed=derive_seed(cfg.train.seed, "train", phase)
    )
    params, _ = train_epochs(params, dataset, train_cfg)
    return params


def _save(cfg: LoopConfig, params: Params, name: str) -> str | None:
    if cfg.checkpoint_dir is None:
        return None
    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    path = ckpt_dir / name
    save_checkpoint(params, path)
    return str(path)


def run_static_prior(
    cfg: LoopConfig,
    train_set: Dataset,
    valid_set: Dataset | None,
    test_set: Dataset,
) -> LoopState:
    """Offline emulation of the loop with a single prior model.

    Trains the prior on exactly the first round(prior_fraction * n) rows,
    attaches its scores to the whole training split, then trains the
    cross-entropy baseline and the configured current model from one shared
    initialization. Reports prior/baseline/current on the test split (and on
    the validation split when given, as *_valid phases).
    """
    if cfg.mode != "static_prior":
        raise ValueError("config mode is not static_prior")
    for name, ds in (("train", train_set), ("test", test_set)):
        if ds is None or len(ds) == 0:
            raise DataError(f"static prior protocol: empty {name} split")

    n = len(train_set)
    n_prior = int(round(cfg.prior_fraction * n))
    if n_prior < 1 or n_prior > n:
        raise DataError("prior_fraction leaves no rows for the prior model")
    prior_split = train_set.head(n_prior)

    ce = LossConfig("ce", clip_eps=cfg.train.loss.clip_eps)
    prior = _train_phase(cfg, prior_split, ce, "prior")
    prior_log = infer_scores(prior, train_set)
    scored_train = train_set.with_y_last(prior_log.scores)

    baseline = _train_phase(cfg, train_set, ce, "current")
    current = _train_phase(cfg, scored_train, cfg.train.loss, "current")

    state = LoopState(mode="static_prior", prior_row_ids=prior_split.row_ids.copy())
    state.score_logs[(0, 0)] = prior_log
    state.versions.append(
        VersionRecord(
            version=0,
            trained_window=0,
            loss_kind="ce",
            alpha=0.0,
            y_last_source=None,
            n_train_rows=n_prior,
            n_with_y_last=0,
            checkpoint_path=_save(cfg, prior, "prior.ckpt"),
        )
    )
    state.versions.append(
        VersionRecord(
            version=1,
            trained_window=1,
            loss_kind=cfg.train.loss.kind,
            alpha=cfg.train.loss.alpha if cfg.train.loss.kind == "reloop" else 0.0,
            y_last_source=0,
            n_train_rows=n,
            n_with_y_last=len(scored_train) if scored_train.y_last is not None else 0,
            checkpoint_path=_save(cfg, current, "current.ckpt"),
        )
    )
    _save(cfg, baseline, "baseline.ckpt")

    evals = [("test", test_set)]
    if valid_set is not None and len(valid_set) > 0:
        evals.append(("valid", valid_set))
    cur_loss = cfg.train.loss
    cur_alpha = cur_loss.alpha if cur_loss.kind == "reloop" else 0.0
    models = [
        (0, "prior", "ce", 0.0, prior),
        (1, "baseline", "ce", 0.0, baseline),
        (1, "current", cur_loss.kind, cur_alpha, current),
    ]
    for split_name, split in evals:
        for version, phase, loss_kind, alpha, model in models:
            name = phase if split_name == "test" else f"{phase}_valid"
            scores = predict_batch(model, split)
            state.reports.append(
                ReportRow(version, 0, name, loss_kind, alpha,
                          evaluate(split.labels, scores))
            )
    return state


def run_continual(cfg: LoopConfig, windows: list[Dataset]) -> LoopState:
    """Sliding-window loop over ordered data windows.

    Returns a LoopState with one version per window, prequential reports
    (phase ``next_window``, or ``holdout_tail`` for the final version), and
    the score logs each version produced for its successor.
    """
    if cfg.mode != "continual":
        raise ValueError("config mode is not continual")
    if len(windows) < 2:
        raise DataError("continual mode needs at least 2 windows")
    for w, ds in enumerate(windows, start=1):
        if len(ds) == 0:
            raise DataError(f"continual mode: window {w} is empty")

    t_final = len(windows)
    state = LoopState(mode="continual")
    prev: Params | None = None

    for t in range(1, t_final + 1):
        window = windows[t - 1]
        is_final = t == t_final
        if is_final:
            n_tail = max(int(round(cfg.holdout_fraction * len(window))), 1)
            if n_tail >= len(window):
                raise DataError("final window too small for its holdout tail")
            train_part, eval_part = window.head(len(window) - n_tail), window.tail(n_tail)
            eval_window, eval_phase = t, "holdout_tail"
        else:
            train_part, eval_part = window, windows[t]
            eval_window, eval_phase = t + 1, "next_window"

        if t == 1:
            loss = LossConfig("ce", clip_eps=cfg.train.loss.clip_eps)
            y_source = None
        else:
            loss = cfg.train.loss
            y_source = t - 1
            log = infer_scores(prev, window)
            state.score_logs[(t - 1, t)] = log
            if cfg.checkpoint_dir is not None:
                log_dir = Path(cfg.checkpoint_dir)
                log_dir.mkdir(parents=True, exist_ok=True)
                log.save(log_dir / f"scores_v{t - 1:03d}_w{t:03d}.csv")
            window = window.with_y_last(log.scores)
            train_part = window.head(len(train_part))

        params = _train_phase(
            cfg, train_part, loss, t,
            start=prev if (cfg.warm_start and prev is not None) else None,
        )
        state.versions.append(
            VersionRecord(
                version=t,
                trained_window=t,
                loss_kind=loss.kind,
                alpha=loss.alpha if loss.kind == "reloop" else 0.0,
                y_last_source=y_source,
                n_train_rows=len(train_part),
                n_with_y_last=len(train_part) if train_part.y_last is not None else 0,
                warm_started=cfg.warm_start and prev is not None,
                checkpoint_path=_save(cfg, params, f"v{t:03d}.ckpt"),
            )
        )
        scores = predict_batch(params, eval_part)
        state.reports.append(
            ReportRow(t, eval_window, eval_phase, loss.kind,
                      loss.alpha if loss.kind == "reloop" else 0.0,
                      evaluate(eval_part.labels, scores))
        )
        prev = params
    return state


def mean_next_window_metrics(state: LoopState) -> tuple[float, float]:
    """Headline (mean AUC, mean logloss) over a continual run's versions."""
    aucs = [r.report.auc for r in state.reports]
    lls = [r.report.logloss for r in state.reports]
    return float(np.mean(aucs)), float(np.mean(lls))
