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
provenance records in LoopState make that auditable. ``_train_version``
makes every model version, the prior included: it trains, saves and fills
the version's record from what it trained on.

A version holds only the table rows it uses (``models.held_rows``), so no
version allocates a whole table. It trains on the rows its training data
touch, and on a warm start also its predecessor's held rows: a cold version
draws just its training rows and trains them in place. Its checkpoint
stores those rows. Then it takes on the rows of the datasets it scores or
evaluates (``models.hold_rows``). Every other row is the init draw of one
seed (version 1's in a warm chain). Datasets are neither copied nor
re-indexed for it. Before its first draw a version refuses a checkpoint the
free disk cannot hold (``checkpoint.require_room``).

Each protocol has one arms function. ``run_static_arms`` trains and scores
with the prior once, then one model per ``(loss, checkpoint name)`` arm;
``run_static_prior`` is its ``baseline`` (cross-entropy) and ``current``
arms plus the prior's record and reports. Only the prior's record, reports
and scores outlive it, so no arm trains while the prior's params are held.
``run_continual_arms`` runs version 1 once, then versions 2..T once per
loss; ``run_continual`` is one arm. An alpha sweep is either over
``reloop_losses``. The arms depend only on their inputs and on seeds derived
from a seed key (``prior``, ``current`` or the window t), not from the
model's name, so ``_map_phases`` may run them in forked worker processes, on
the CPUs the BLAS thread count leaves free; every result is the same bytes
either way.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import check_schema, load_checkpoint, require_room, save_checkpoint
from .features import ROW_BLOCK, DataError, Dataset, csv_rows, probability_cell
from .losses import LossConfig, clip_prob
from .metrics import MetricsReport, evaluate
from .models import ModelConfig, Params, held_rows, hold_rows, init_params, predict_batch
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
    """Predicted probabilities keyed by row_id.

    The loop's own logs hold scores clipped into (0, 1) (``_predict_scored``).
    ``load`` keeps a file's values as written, any in [0, 1]; ``Dataset``
    clips y_last when the scores are attached.
    """

    row_ids: np.ndarray
    scores: np.ndarray

    def save(self, path: str | Path) -> None:
        # one write per block of rows keeps the text's memory bounded
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("row_id,y_last\n")
            for lo in range(0, len(self.scores), ROW_BLOCK):
                block = slice(lo, lo + ROW_BLOCK)
                rows = zip(self.row_ids[block].tolist(), self.scores[block].tolist())
                fh.write("".join(f"{rid},{s:.9f}\n" for rid, s in rows))

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
                    rid = int(cells[0])
                except ValueError:
                    raise DataError(f"{where}: cannot parse row_id {cells[0]!r}") from None
                if not -(2**63) <= rid < 2**63:
                    raise DataError(f"{where}: row_id {rid} is outside int64")
                score = probability_cell(cells[1], where, "y_last")
                if rid in first_line:
                    raise DataError(f"{where}: row_id {rid} repeats line {first_line[rid]}")
                first_line[rid] = line
                scores.append(score)
        rids = np.array(list(first_line), dtype=np.int64)
        return cls(rids, np.array(scores, dtype=np.float64))

    def aligned_to(self, dataset: Dataset) -> np.ndarray:
        """Scores reordered to match the dataset's rows, by row_id. A row_id
        the log holds twice takes its last score.

        Raises:
            DataError: a row has no score, naming the first such row_id in
                dataset order.
        """
        order = np.argsort(self.row_ids, kind="stable")
        keys, want = self.row_ids[order], dataset.row_ids
        # one past each wanted row_id's last occurrence in the log
        end = np.searchsorted(keys, want, side="right")
        found = end > 0
        found[found] = keys[end[found] - 1] == want[found]
        if not found.all():
            raise DataError(f"no prior score for row_id {int(want[found.argmin()])}")
        return self.scores[order[end - 1]]


@dataclass
class VersionRecord:
    """Provenance for one trained model version."""

    version: int  # continual: the 1-based window it trained on; static: 0 prior, 1 arms
    loss_kind: str
    alpha: float
    y_last_source: int | None  # predecessor version, None for cold starts
    n_train_rows: int
    n_with_y_last: int
    warm_started: bool = False
    checkpoint_path: str | None = None


@dataclass
class ReportRow:
    """One evaluation of a version: its record, the window and phase, the metrics."""

    record: VersionRecord
    window: int
    phase: str
    report: MetricsReport


@dataclass
class LoopState:
    """Everything one loop run produced: versions, score logs, reports."""

    versions: list[VersionRecord] = field(default_factory=list)
    reports: list[ReportRow] = field(default_factory=list)
    score_logs: dict[tuple[int, int], ScoreLog] = field(default_factory=dict)
    prior_row_ids: np.ndarray | None = None  # static mode: rows the prior saw

    def report_rows(self) -> list[str]:
        rows = [LOOP_REPORT_HEADER]
        for r in self.reports:
            v = r.record
            rows.append(
                f"{v.version},{r.window},{r.phase},{v.loss_kind},{v.alpha:g},"
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
    return p, ScoreLog(dataset.row_ids, clip_prob(p))


def infer_scores(checkpoint, dataset: Dataset) -> ScoreLog:
    """Score every row of a dataset with a checkpoint (path or Params).

    The checkpoint's schema digest must match the dataset's schema. A loaded
    checkpoint is moved to the dataset's rows (``models.hold_rows``). Scores
    are clipped into (0, 1) before logging so downstream losses stay finite.
    """
    if isinstance(checkpoint, Params):
        params = checkpoint
    else:
        params = load_checkpoint(checkpoint)
        check_schema(params, dataset.schema)
        params = hold_rows(params, held_rows(params.n_features, [dataset.indices]))
    return _predict_scored(params, dataset)[1]


_CE = LossConfig("ce")  # the alpha-independent phases: prior, baseline, v1


def reloop_losses(alphas) -> list[LossConfig]:
    """The reloop loss at each blend weight."""
    return [LossConfig("reloop", alpha=a) for a in alphas]


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


_MAPPED = None  # (fn, items) in a forked worker of _map_phases, set by _map_start


def _map_start(fn, items: list) -> None:
    global _MAPPED
    _MAPPED = (fn, items)


def _mapped(i: int):
    fn, items = _MAPPED
    return fn(items[i])


def _map_phases(fn, items: list) -> list:
    """``[fn(x) for x in items]``, run in ``phase_processes(len(items))`` processes.

    Forked workers inherit ``fn`` and the items, so only an index goes out and
    only a result comes back; a spawned worker would need ``fn``, a closure
    over the training data, pickled. Every worker is joined before this
    returns. A failure raises the exception of the first failing item in item
    order, with its type and message, and cancels the items not yet started;
    a worker killed from outside raises ChildProcessError, an OSError.
    """
    n = phase_processes(len(items))
    if n == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # a worker flushes its inherited buffers when it exits: empty them first
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        with ProcessPoolExecutor(n, mp_context=get_context("fork"),
                                 initializer=_map_start, initargs=(fn, items)) as pool:
            return list(pool.map(_mapped, range(len(items))))
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc


def _artifact(cfg: LoopConfig, name: str) -> Path | None:
    """The path of file ``name`` in the checkpoint directory, which is made if
    missing; None when the config has no directory."""
    if cfg.checkpoint_dir is None:
        return None
    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    return ckpt_dir / name


def _train_version(
    cfg: LoopConfig, dataset: Dataset, loss: LossConfig, key: str | int, name: str, *,
    version: int, scores: list[Dataset], source: int | None = None,
    start: Params | None = None,
) -> tuple[Params, VersionRecord]:
    """Train model version ``version`` on ``dataset``, save it and record it.

    The init and shuffle seeds derive from ``key`` alone (``"prior"``,
    ``"current"`` or the window t), so a version trains to the same bytes
    whichever others run beside it. It trains holding the rows of
    ``dataset`` and of ``start``, starting from ``start``'s values if given,
    else from a fresh init of only those rows. ``name`` names the checkpoint
    ``<name>.ckpt``, saved when the config has a directory, and prefixes a
    DivergenceError. The params come back holding also the rows of
    ``scores``, the datasets the version will score or evaluate. Every row
    carries a y_last from version ``source``, unless that is None.

    Raises:
        NoRoomError: the checkpoint would not fit the free disk; raised
            after the rows are found, before the init draw.
    """
    n_features = dataset.schema.n_features
    rows = held_rows(n_features, [dataset.indices] + ([] if start is None else [start.rows]))
    path = _artifact(cfg, f"{name}.ckpt")
    if path is not None:
        require_room(path, dataset.schema, cfg.model, rows.size)
    if start is None:
        params = init_params(dataset.schema, cfg.model,
                             derive_seed(cfg.train.seed, "init", key), rows)
    else:
        params = hold_rows(start, rows)
    train_cfg = replace(cfg.train, loss=loss, seed=derive_seed(cfg.train.seed, "train", key))
    try:
        params, _ = train_epochs(params, dataset, train_cfg)
    except DivergenceError as exc:
        raise DivergenceError(f"{name}: {exc}") from None
    if path is not None:
        save_checkpoint(params, path)
    params = hold_rows(params, held_rows(n_features,
                                         [params.rows, *(d.indices for d in scores)]))
    n = len(dataset)
    return params, VersionRecord(
        version=version, loss_kind=loss.kind,
        alpha=loss.alpha if loss.kind == "reloop" else 0.0, y_last_source=source,
        n_train_rows=n, n_with_y_last=0 if source is None else n,
        warm_started=start is not None,
        checkpoint_path=None if path is None else str(path))


def _check_two_classes(split: Dataset, name: str) -> None:
    if split.labels.min() == split.labels.max():
        raise DataError(f"{name} holds one class only, so its AUC is undefined")


def _check_static(cfg: LoopConfig, train_set: Dataset, splits: list, arms: list) -> None:
    if cfg.mode != "static_prior":
        raise ValueError("config mode is not static_prior")
    if not arms:
        raise ValueError("static protocol: no arms to train")
    for name, ds in (("train", train_set), *(("evaluation", s) for s in splits)):
        if ds is None or len(ds) == 0:
            raise DataError(f"static prior protocol: empty {name} split")
    for split in splits:
        _check_two_classes(split, "static prior protocol: an evaluation split")
    names = ["prior", *(name for _, name in arms)]
    if cfg.checkpoint_dir is not None and len(set(names)) < len(names):
        raise ValueError(f"static models {names} would write one checkpoint file twice")


def _train_prior(
    cfg: LoopConfig, train_set: Dataset, splits: list
) -> tuple[VersionRecord, list[MetricsReport], ScoreLog]:
    """Train the prior on the first round(prior_fraction * n) rows, evaluate it
    on ``splits`` and score the whole training split with it. Only its record,
    reports and score log come back, so the prior is freed before any arm
    trains."""
    n = len(train_set)
    n_prior = int(round(cfg.prior_fraction * n))
    if n_prior < 1 or n_prior > n:
        raise DataError("prior_fraction leaves no rows for the prior model")
    params, record = _train_version(cfg, train_set.head(n_prior), _CE, "prior", "prior",
                                    version=0, scores=[train_set, *splits])
    reports = [_evaluate_on(params, split) for split in splits]
    return record, reports, infer_scores(params, train_set)


def _static_arms(
    cfg: LoopConfig, scored_train: Dataset, splits: list, arms: list
) -> list[tuple[VersionRecord, list[MetricsReport]]]:
    """Train version 1 once per ``(loss, name)`` arm on ``scored_train``, the
    training split carrying the prior's scores, through ``_map_phases``. Each
    arm draws the ``current`` seeds, so a cross-entropy arm, which reads no
    y_last, is the plain baseline. An arm is named ``name``: it saves
    ``<name>.ckpt`` and a DivergenceError names it. It evaluates on ``splits``
    where it trained; only its record and reports come back."""

    def arm(item: tuple[LossConfig, str]):
        loss, name = item
        params, record = _train_version(cfg, scored_train, loss, "current", name,
                                        version=1, scores=splits, source=0)
        return record, [_evaluate_on(params, split) for split in splits]

    return _map_phases(arm, arms)


def run_static_arms(
    cfg: LoopConfig, train_set: Dataset, splits: list[Dataset], arms
) -> list[tuple[VersionRecord, list[MetricsReport]]]:
    """The static protocol once per ``(loss, checkpoint name)`` arm: each
    arm's record and its reports on ``splits``.

    The prior trains and scores the training split once, and is not
    evaluated; ``cfg.train.loss`` is not read. Each arm's record and reports
    equal those of ``current`` in a ``run_static_prior`` at its loss. With a
    ``checkpoint_dir`` the prior saves ``prior.ckpt`` and each arm
    ``<name>.ckpt``, so two arms of one name, or an arm named ``prior``, are
    a ValueError, raised before anything trains; so is an empty list of arms.
    """
    arms = list(arms)
    _check_static(cfg, train_set, splits, arms)
    _, _, log = _train_prior(cfg, train_set, [])
    return _static_arms(cfg, train_set.with_y_last(log.scores), splits, arms)


def run_static_prior(
    cfg: LoopConfig,
    train_set: Dataset,
    valid_set: Dataset | None,
    test_set: Dataset,
) -> LoopState:
    """Offline emulation of the loop with a single prior model.

    Trains the prior on exactly the first round(prior_fraction * n) rows and
    attaches its scores to the whole training split. The cross-entropy
    baseline and the configured current model then train on that split as
    two static arms, from one shared initialization. Reports
    prior/baseline/current on the test split (and on the validation split
    when given, as *_valid phases).
    """
    splits = [test_set]
    if valid_set is not None and len(valid_set) > 0:
        splits.append(valid_set)
    arms = [(_CE, "baseline"), (cfg.train.loss, "current")]
    _check_static(cfg, train_set, splits, arms)
    prior, prior_reports, log = _train_prior(cfg, train_set, splits)
    (baseline, baseline_reports), (current, reports) = _static_arms(
        cfg, train_set.with_y_last(log.scores), splits, arms)
    state = LoopState(versions=[prior, current], score_logs={(0, 0): log},
                      prior_row_ids=train_set.row_ids[:prior.n_train_rows])
    rows = [("prior", prior, prior_reports), ("baseline", baseline, baseline_reports),
            ("current", current, reports)]
    for i, suffix in enumerate(("", "_valid")[:len(splits)]):
        for phase, record, per_split in rows:
            state.reports.append(ReportRow(record, 0, phase + suffix, per_split[i]))
    return state


def _check_continual(cfg: LoopConfig, windows: list[Dataset]) -> None:
    if cfg.mode != "continual":
        raise ValueError("config mode is not continual")
    if len(windows) < 2:
        raise DataError("continual mode needs at least 2 windows")
    for w, ds in enumerate(windows, start=1):
        if len(ds) == 0:
            raise DataError(f"continual mode: window {w} is empty")
        if w > 1:  # scored by version w - 1
            _check_two_classes(ds, f"continual mode: window {w}")
    tail = windows[-1].tail(_holdout_rows(cfg, windows[-1]))
    _check_two_classes(tail, "continual mode: the final window's holdout tail")


def _holdout_rows(cfg: LoopConfig, window: Dataset) -> int:
    n_tail = max(int(round(cfg.holdout_fraction * len(window))), 1)
    if n_tail >= len(window):
        raise DataError("final window too small for its holdout tail")
    return n_tail


def _log_scores(cfg: LoopConfig, state: LoopState, t: int, log: ScoreLog) -> None:
    """Keep version t's scores on window t+1 for its successor, and save them
    beside the checkpoints."""
    state.score_logs[(t, t + 1)] = log
    path = _artifact(cfg, f"scores_v{t:03d}_w{t + 1:03d}.csv")
    if path is not None:
        log.save(path)


def _continual_version(
    cfg: LoopConfig,
    windows: list[Dataset],
    t: int,
    loss: LossConfig,
    prev: Params | None,
    state: LoopState,
) -> Params | None:
    """Train version t with ``loss``, record and evaluate it.

    Version t starts from ``prev``, version t-1's params, which is None (a
    fresh init) unless the loop warm-starts. For t > 1 its y_last is the
    score log version t-1 left in ``state``. Version t's next-window
    predictions are its successor's y_last: one prediction pass over window
    t+1 yields its ``next_window`` report (on the raw probabilities) and the
    score log (on the clipped ones). The final version is evaluated on the
    held-out tail of its window and logs nothing.

    Returns version t's params if its successor warm-starts from them, else
    None: a cold successor reads only the score log, so a cold loop frees
    each version before the next one trains.
    """
    window = windows[t - 1]
    final = t == len(windows)
    n_tail = _holdout_rows(cfg, window) if final else 0
    n_train = len(window) - n_tail
    y_source = t - 1 if t > 1 else None
    if y_source is not None:
        window = window.with_y_last(state.score_logs[(t - 1, t)].scores)
    train_part = window.head(n_train)

    # the final version evaluates the tail of its own window
    scored = window if final else windows[t]
    params, record = _train_version(cfg, train_part, loss, t, f"v{t:03d}", version=t,
                                    scores=[scored], source=y_source, start=prev)
    state.versions.append(record)
    if final:
        report = _evaluate_on(params, window.tail(n_tail))
        eval_window, eval_phase = t, "holdout_tail"
    else:
        nxt = windows[t]
        p, log = _predict_scored(params, nxt)
        report = evaluate(nxt.labels, p)
        _log_scores(cfg, state, t, log)
        eval_window, eval_phase = t + 1, "next_window"
    state.reports.append(ReportRow(record, eval_window, eval_phase, report))
    return params if cfg.warm_start else None


def run_continual(cfg: LoopConfig, windows: list[Dataset]) -> LoopState:
    """Sliding-window loop over ordered data windows: one continual arm.

    Returns a LoopState with one version per window, prequential reports
    (phase ``next_window``, or ``holdout_tail`` for the final version), and
    the score logs each version produced for its successor.
    """
    return run_continual_arms(cfg, windows, [cfg.train.loss])[0]


def run_continual_arms(
    cfg: LoopConfig, windows: list[Dataset], losses
) -> list[LoopState]:
    """``run_continual`` once per loss; each state equals that of a separate run.

    Version 1 trains with cross-entropy whatever the loss, so it, its report
    row and its score log on window 2 are computed once; versions 2..T run
    once per loss, through ``_map_phases``. Several arms would write
    checkpoints of one name into one directory, so a ``checkpoint_dir`` with
    more than one loss is a ValueError; so is an empty list of losses. Both
    are raised before anything trains.
    """
    losses = list(losses)
    if not losses:
        raise ValueError("run_continual_arms: no losses to train")
    if cfg.checkpoint_dir is not None and len(losses) > 1:
        raise ValueError("run_continual_arms writes no checkpoints for several losses; "
                         "its arms would share one checkpoint_dir")
    _check_continual(cfg, windows)
    first = LoopState()
    # one reference to version 1 per arm, which the arm drops as it takes it,
    # so the last arm to start frees version 1 once version 2 has trained
    starts = [_continual_version(cfg, windows, 1, _CE, None, first)] * len(losses)

    def arm(i: int) -> LoopState:
        state = replace(first, versions=list(first.versions), reports=list(first.reports),
                        score_logs=dict(first.score_logs))
        prev, starts[i] = starts[i], None
        for t in range(2, len(windows) + 1):
            prev = _continual_version(cfg, windows, t, losses[i], prev, state)
        return state

    return _map_phases(arm, list(range(len(losses))))


def mean_report_metrics(state: LoopState) -> tuple[float, float]:
    """(mean AUC, mean logloss) over every report row of a run.

    In a continual run this averages each version's ``next_window`` row and
    the final version's ``holdout_tail`` row alike; it is the headline of a
    continual ``sweep-alpha``.
    """
    aucs = [r.report.auc for r in state.reports]
    lls = [r.report.logloss for r in state.reports]
    return float(np.mean(aucs)), float(np.mean(lls))
