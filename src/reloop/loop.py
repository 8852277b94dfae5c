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
                scoring that window (simulated online inference). That one
                prediction pass of version t over window t+1 is also its
                prequential evaluation. The final version holds out the tail
                of the last window and is evaluated there. Versions may
                warm-start from their predecessor or re-initialize.

Every y_last is produced by the immediately preceding version only, and
provenance records in LoopState make that auditable.

``sweep_alpha_static`` and ``run_continual_arms`` run the same phase
functions as the two protocols for several losses, but run the phases no
loss reaches once: the static prior and its scores, and continual version 1
with its report row and its scores on window 2. The continual alpha sweep is
``run_continual_arms`` over ``reloop_losses``. The per-loss phases that
follow depend only on their inputs and on seeds derived from the phase name,
so ``_map_phases`` may run them in forked worker processes, on the CPUs the
BLAS thread count leaves free; every result is the same bytes either way.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import check_schema, load_checkpoint, save_checkpoint
from .features import DataError, Dataset, csv_rows
from .losses import LossConfig, clip_prob
from .metrics import MetricsReport, evaluate
from .models import ModelConfig, Params, init_params, predict_batch
from .optim import DivergenceError, TrainConfig, train_epochs
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
            rows = csv_rows(path, fh)
            _, header = next(rows, (0, None))
            if header != ["row_id", "y_last"]:
                raise NotAScoreLogError(f"{path}: not a score log (header {header!r})")
            for line, cells in rows:
                where = f"{path}:{line}"
                if len(cells) != 2:
                    raise DataError(
                        f"{where}: expected 2 cells (row_id,y_last), got {len(cells)}"
                    )
                try:
                    rid, score = int(cells[0]), float(cells[1])
                except ValueError:
                    raise DataError(f"{where}: cannot parse row {cells!r}") from None
                if not -(2**63) <= rid < 2**63:
                    raise DataError(f"{where}: row_id {rid} is outside int64")
                if not 0.0 <= score <= 1.0:
                    raise DataError(
                        f"{where}: y_last must lie in [0, 1], got {cells[1]!r}"
                    )
                if rid in first_line:
                    raise DataError(f"{where}: row_id {rid} repeats line {first_line[rid]}")
                first_line[rid] = line
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


def _predict_scored(params: Params, dataset: Dataset) -> tuple[np.ndarray, ScoreLog]:
    """One prediction pass: every row's probability and the score log of them.

    The params' schema digest must match the dataset's schema. The log's
    scores are clipped into (0, 1) so downstream losses stay finite; the
    returned probabilities are not.
    """
    check_schema(params, dataset.schema)
    p = predict_batch(params, dataset)
    return p, ScoreLog(dataset.row_ids.copy(), clip_prob(p))


def infer_scores(checkpoint, dataset: Dataset) -> ScoreLog:
    """Score every row of a dataset with a checkpoint (path or Params).

    The checkpoint's schema digest must match the dataset's schema. Scores
    are clipped into (0, 1) before logging so downstream losses stay finite.
    """
    params = checkpoint if isinstance(checkpoint, Params) else load_checkpoint(checkpoint)
    return _predict_scored(params, dataset)[1]


def _train_phase(
    cfg: LoopConfig,
    dataset: Dataset,
    loss: LossConfig,
    phase: str | int,
    start: Params | None = None,
) -> Params:
    """Train one version; fresh init unless a warm-start parent is given.

    The init and shuffle seeds derive from the phase alone, so a phase trains
    to the same bytes whichever other phases run beside it.
    """
    if start is None:
        params = init_params(
            dataset.schema, cfg.model, derive_seed(cfg.train.seed, "init", phase)
        )
    else:
        params = start.copy()
    train_cfg = replace(
        cfg.train, loss=loss, seed=derive_seed(cfg.train.seed, "train", phase)
    )
    try:
        params, _ = train_epochs(params, dataset, train_cfg)
    except DivergenceError as exc:
        raise DivergenceError(f"{_phase_name(phase)}: {exc}") from None
    return params


def _phase_name(phase: str | int) -> str:
    return phase if isinstance(phase, str) else f"v{phase:03d}"


_CE = LossConfig("ce")  # the alpha-independent phases: prior, baseline, v1


def reloop_losses(alphas) -> list[LossConfig]:
    """The reloop loss at each blend weight."""
    return [LossConfig("reloop", alpha=a) for a in alphas]


def _with_loss(cfg: LoopConfig, loss: LossConfig) -> LoopConfig:
    return replace(cfg, train=replace(cfg.train, loss=loss))


def _alpha_of(loss: LossConfig) -> float:
    return loss.alpha if loss.kind == "reloop" else 0.0


def _evaluate_on(params: Params, split: Dataset) -> MetricsReport:
    return evaluate(split.labels, predict_batch(params, split))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")  # read in this order


def _process_count(n_items: int, usable_cpus: int, environ) -> int:
    """Processes for ``n_items`` independent phases: as many as the usable CPUs
    hold at the BLAS thread count each, at most one per item, at least one.

    The BLAS thread count is the first positive integer in OPENBLAS_NUM_THREADS
    or OMP_NUM_THREADS; with neither, it is the CPU count, OpenBLAS's default,
    so an unpinned BLAS keeps every phase in this process.
    """
    blas = usable_cpus
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            blas = threads
            break
    return max(1, min(n_items, usable_cpus // blas))


def phase_processes(n_items: int) -> int:
    """``_process_count`` over this process's CPUs and environment; 1 where
    ``fork`` is not a start method."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = _process_count(n_items, cpus, os.environ)
    if n > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return n


_MAPPED = None  # (fn, items) of the running _map_phases; its forked workers inherit it


def _mapped(i: int):
    fn, items = _MAPPED
    return fn(items[i])


def _map_phases(fn, items: list) -> list:
    """``[fn(x) for x in items]``, run in ``phase_processes(len(items))`` processes.

    Forked workers inherit ``fn`` and the items, so only an index goes out and
    only a result comes back; a spawned worker would need ``fn``, a closure
    over the training data, pickled. Every worker is joined before this
    returns. A failure raises the exception of the first failing item in item
    order, with its type and message, and cancels the items not yet started.
    """
    global _MAPPED
    n = phase_processes(len(items))
    if n == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # a worker flushes its inherited buffers when it exits: empty them first
    sys.stdout.flush()
    sys.stderr.flush()
    _MAPPED = (fn, items)
    try:
        with ProcessPoolExecutor(n, mp_context=get_context("fork")) as pool:
            futures = [pool.submit(_mapped, i) for i in range(len(items))]
            try:
                return [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        _MAPPED = None


def _save(cfg: LoopConfig, params: Params, name: str) -> str | None:
    if cfg.checkpoint_dir is None:
        return None
    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    path = ckpt_dir / name
    save_checkpoint(params, path)
    return str(path)


def _record(cfg: LoopConfig, params: Params, phase: str | int, loss: LossConfig, *,
            version: int, source: int | None, rows: int, scored: bool,
            warm: bool = False) -> VersionRecord:
    """Version ``version``'s provenance, trained on window ``version`` (0 for
    the static prior), ``rows`` rows, each with a y_last if ``scored``. Saves
    the checkpoint, named after ``phase``, when the config has a directory."""
    return VersionRecord(
        version=version, trained_window=version, loss_kind=loss.kind,
        alpha=_alpha_of(loss), y_last_source=source, n_train_rows=rows,
        n_with_y_last=rows if scored else 0, warm_started=warm,
        checkpoint_path=_save(cfg, params, f"{_phase_name(phase)}.ckpt"))


@dataclass
class _StaticPrior:
    """The alpha-independent phase of the static protocol."""

    params: Params
    row_ids: np.ndarray  # the leading training rows the prior saw
    log: ScoreLog  # the prior's scores on the whole training split
    scored_train: Dataset  # the training split carrying those scores as y_last


def _check_static(cfg: LoopConfig, train_set: Dataset, test_set: Dataset) -> None:
    if cfg.mode != "static_prior":
        raise ValueError("config mode is not static_prior")
    for name, ds in (("train", train_set), ("test", test_set)):
        if ds is None or len(ds) == 0:
            raise DataError(f"static prior protocol: empty {name} split")


def _train_prior(cfg: LoopConfig, train_set: Dataset) -> _StaticPrior:
    """Train the prior on the first round(prior_fraction * n) rows, then score
    the whole training split with it."""
    n = len(train_set)
    n_prior = int(round(cfg.prior_fraction * n))
    if n_prior < 1 or n_prior > n:
        raise DataError("prior_fraction leaves no rows for the prior model")
    prior_split = train_set.head(n_prior)
    prior = _train_phase(cfg, prior_split, _CE, "prior")
    log = infer_scores(prior, train_set)
    return _StaticPrior(prior, prior_split.row_ids.copy(), log,
                        train_set.with_y_last(log.scores))


def _train_current(cfg: LoopConfig, prior: _StaticPrior) -> Params:
    return _train_phase(cfg, prior.scored_train, cfg.train.loss, "current")


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
    _check_static(cfg, train_set, test_set)
    prior = _train_prior(cfg, train_set)
    baseline = _train_phase(cfg, train_set, _CE, "current")
    current = _train_current(cfg, prior)

    state = LoopState(mode="static_prior", prior_row_ids=prior.row_ids)
    state.score_logs[(0, 0)] = prior.log
    # saved once all three phases have trained
    state.versions.append(_record(cfg, prior.params, "prior", _CE, version=0, source=None,
                                  rows=len(prior.row_ids), scored=False))
    state.versions.append(_record(cfg, current, "current", cfg.train.loss, version=1,
                                  source=0, rows=len(train_set), scored=True))
    _save(cfg, baseline, "baseline.ckpt")

    evals = [("test", test_set)]
    if valid_set is not None and len(valid_set) > 0:
        evals.append(("valid", valid_set))
    cur_loss = cfg.train.loss
    models = [
        (0, "prior", "ce", 0.0, prior.params),
        (1, "baseline", "ce", 0.0, baseline),
        (1, "current", cur_loss.kind, _alpha_of(cur_loss), current),
    ]
    for split_name, split in evals:
        for version, phase, loss_kind, alpha, model in models:
            name = phase if split_name == "test" else f"{phase}_valid"
            state.reports.append(
                ReportRow(version, 0, name, loss_kind, alpha, _evaluate_on(model, split))
            )
    return state


def sweep_alpha_static(
    cfg: LoopConfig, train_set: Dataset, test_set: Dataset, alphas
) -> list[MetricsReport]:
    """The ``current`` test-split report of ``run_static_prior`` per alpha.

    Each report equals the one a reloop run at that alpha writes: the prior
    trains and scores once, and the baseline, which no alpha changes, is not
    trained; ``cfg.train.loss`` is not read. The alphas train and evaluate
    through ``_map_phases``.
    """
    _check_static(cfg, train_set, test_set)
    prior = _train_prior(cfg, train_set)
    return _map_phases(
        lambda loss: _evaluate_on(_train_current(_with_loss(cfg, loss), prior), test_set),
        reloop_losses(alphas))


def _check_continual(cfg: LoopConfig, windows: list[Dataset]) -> None:
    if cfg.mode != "continual":
        raise ValueError("config mode is not continual")
    if len(windows) < 2:
        raise DataError("continual mode needs at least 2 windows")
    for w, ds in enumerate(windows, start=1):
        if len(ds) == 0:
            raise DataError(f"continual mode: window {w} is empty")
    _holdout_rows(cfg, windows[-1])


def _holdout_rows(cfg: LoopConfig, window: Dataset) -> int:
    n_tail = max(int(round(cfg.holdout_fraction * len(window))), 1)
    if n_tail >= len(window):
        raise DataError("final window too small for its holdout tail")
    return n_tail


def _log_scores(cfg: LoopConfig, state: LoopState, t: int, log: ScoreLog) -> None:
    """Keep version t's scores on window t+1 for its successor, and save them
    beside the checkpoints."""
    state.score_logs[(t, t + 1)] = log
    if cfg.checkpoint_dir is not None:
        log_dir = Path(cfg.checkpoint_dir)
        log_dir.mkdir(parents=True, exist_ok=True)
        log.save(log_dir / f"scores_v{t:03d}_w{t + 1:03d}.csv")


def _continual_version(
    cfg: LoopConfig,
    windows: list[Dataset],
    t: int,
    prev: Params | None,
    state: LoopState,
) -> Params | None:
    """Train, record and evaluate version t.

    Version 1 trains with cross-entropy from a fresh init. Version t > 1 trains
    with the configured loss, warm-started from version t-1 if so configured.
    Its y_last is the score log version t-1 left in ``state``. Version t's
    next-window predictions are its successor's y_last: one prediction pass
    over window t+1 yields its ``next_window`` report (on the raw
    probabilities) and the score log (on the clipped ones). The final version
    is evaluated on the held-out tail of its window and logs nothing.

    Returns version t's params if its successor warm-starts from them, else
    None: a cold successor reads only the score log, so a cold loop frees
    each version before the next one trains.
    """
    window = windows[t - 1]
    final = t == len(windows)
    if final:
        n_tail = _holdout_rows(cfg, window)
        n_train = len(window) - n_tail
    else:
        n_train = len(window)

    if t == 1:
        loss, y_source = _CE, None
    else:
        loss, y_source = cfg.train.loss, t - 1
        window = window.with_y_last(state.score_logs[(t - 1, t)].scores)
    train_part = window.head(n_train)

    warm = cfg.warm_start and prev is not None
    params = _train_phase(cfg, train_part, loss, t, start=prev if warm else None)
    state.versions.append(_record(cfg, params, t, loss, version=t, source=y_source,
                                  rows=n_train, scored=y_source is not None,
                                  warm=warm))
    if final:
        report = _evaluate_on(params, window.tail(n_tail))
        eval_window, eval_phase = t, "holdout_tail"
    else:
        nxt = windows[t]
        p, log = _predict_scored(params, nxt)
        report = evaluate(nxt.labels, p)
        _log_scores(cfg, state, t, log)
        eval_window, eval_phase = t + 1, "next_window"
    state.reports.append(
        ReportRow(t, eval_window, eval_phase, loss.kind, _alpha_of(loss), report)
    )
    return params if cfg.warm_start else None


def _continual_versions(
    cfg: LoopConfig, windows: list[Dataset], state: LoopState, prev: Params | None
) -> LoopState:
    """Run the versions after the last one ``state`` holds, through the final window."""
    for t in range(len(state.versions) + 1, len(windows) + 1):
        prev = _continual_version(cfg, windows, t, prev, state)
    return state


def run_continual(cfg: LoopConfig, windows: list[Dataset]) -> LoopState:
    """Sliding-window loop over ordered data windows.

    Returns a LoopState with one version per window, prequential reports
    (phase ``next_window``, or ``holdout_tail`` for the final version), and
    the score logs each version produced for its successor.
    """
    _check_continual(cfg, windows)
    return _continual_versions(cfg, windows, LoopState(mode="continual"), None)


def run_continual_arms(
    cfg: LoopConfig, windows: list[Dataset], losses
) -> list[LoopState]:
    """``run_continual`` once per loss; each state equals that of a separate run.

    Version 1 trains with cross-entropy whatever the loss, so it, its report
    row and its score log on window 2 are computed once; versions 2..T run
    once per loss, through ``_map_phases``. The arms would write checkpoints
    of one name into one directory, so a ``checkpoint_dir`` is a ValueError.
    """
    if cfg.checkpoint_dir is not None:
        raise ValueError("run_continual_arms writes no checkpoints; "
                         "its arms would share one checkpoint_dir")
    _check_continual(cfg, windows)
    first = LoopState(mode="continual")
    v1 = _continual_version(cfg, windows, 1, None, first)

    def arm(loss: LossConfig) -> LoopState:
        return _continual_versions(_with_loss(cfg, loss), windows, replace(
            first, versions=list(first.versions), reports=list(first.reports),
            score_logs=dict(first.score_logs)), v1)

    return _map_phases(arm, list(losses))


def mean_report_metrics(state: LoopState) -> tuple[float, float]:
    """(mean AUC, mean logloss) over every report row of a run.

    In a continual run this averages each version's ``next_window`` row and
    the final version's ``holdout_tail`` row alike; it is the headline of a
    continual ``sweep-alpha``.
    """
    aucs = [r.report.auc for r in state.reports]
    lls = [r.report.logloss for r in state.reports]
    return float(np.mean(aucs)), float(np.mean(lls))
