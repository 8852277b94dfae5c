"""Command-line entry point wiring the modules into reproducible experiments.

Exit codes: 0 success, 2 usage errors, 1 runtime errors. A checkpoint the
free disk cannot hold (``train``, ``loop``) is a usage error, raised before
its model is drawn. Diagnostics go to
stderr; data goes to files or stdout. Every command but ``eval`` writes into
its ``--out`` directory, which must be new or empty and not a link. It writes
``manifest.json`` last, with the fully resolved configuration and the digest
of the config bytes parsed; a run that fails removes ``--out`` and the
parents it made while they are empty, so a directory with a manifest holds
one whole run.
``rerun`` replays a manifest into a new directory byte-for-byte.

Configuration precedence: command-line flags override ``--config`` file
entries (plain ``key = value`` lines, ``#`` comments), which override
built-in defaults. A flag, a config entry and a manifest value pass the same
check, their option's parser (type, allowed values, range, finite floats),
and a bad one is a usage error.
"""

from __future__ import annotations

import argparse
import glob as globmod
import itertools
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import (CheckpointError, NoRoomError, check_schema, load_checkpoint,
                         require_room, save_checkpoint)
from .features import (
    DataError,
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    csv_rows,
    fnv1a64,
    generate_synthetic_csv,
    ingest_csv,
    label_cell,
    probability_cell,
)
from .loop import (
    BLAS_THREAD_VARS,
    LoopConfig,
    NotAScoreLogError,
    ScoreLog,
    mean_report_metrics,
    phase_processes,
    reloop_losses,
    run_continual,
    run_continual_arms,
    run_static_arms,
    run_static_prior,
    write_loop_report,
)
from .losses import LOSS_KINDS, LossConfig, emit_loss_curves, write_loss_curves
from .metrics import METRICS_CSV_HEADER, evaluate
from .models import (MODEL_KINDS, ModelConfig, held_rows, hold_rows, init_params,
                     predict_batch)
from .optim import OPTIMIZER_KINDS, DivergenceError, TrainConfig, train_epochs

# not called here: bench/tracer.py resolves the name reloop.cli.infer_scores
from .loop import infer_scores  # noqa: F401


class UsageError(Exception):
    """Bad invocation: wrong flags, values out of range, missing inputs."""


def _checked(kind, ok, what):
    """Parser of a ``kind`` for which ``ok`` holds (``what`` names it). Flag and config
    strings are converted; a JSON manifest value must have the type (an int may be a float)."""

    def parse(value):
        native = type(value) is kind or (kind is float and type(value) is int)
        try:
            x = kind(value) if native or isinstance(value, str) else None
        except ValueError:
            x = None
        if x is None or not ok(x):
            raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}")
        return x

    return parse


def _number(kind, lo=-math.inf, hi=math.inf, closed=True):
    """Parser of a finite ``kind`` in [lo, hi], or in (lo, hi) unless ``closed``."""
    span = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
    return _checked(kind, lambda x: (lo <= x <= hi if closed else lo < x < hi)
                    and abs(x) != math.inf, f"{kind.__name__} in {span}")


def _one_of(*allowed):
    """Parser of one of ``allowed``; its ``metavar`` lists them in ``--help``."""
    parse = _checked(type(allowed[0]), allowed.__contains__, f"one of {allowed}")
    parse.metavar = "{" + ",".join(map(str, allowed)) + "}"
    return parse


_text = _checked(str, lambda s: True, "a string")


def _parse_bool(s) -> bool:
    if isinstance(s, bool):
        return s
    if _text(s).lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {s!r}")


def _parse_list(convert, nonempty=False):
    """Parser of a comma-separated string, or a JSON list, of ``convert`` values."""

    def parse(s) -> list:
        if not isinstance(s, list):
            s = [x.strip() for x in _text(s).split(",") if x.strip() != ""]
        if nonempty and not s:
            raise argparse.ArgumentTypeError("expected at least one value")
        return [convert(x) for x in s]

    return parse


def _input_path(s) -> str:
    """An input file or glob, made absolute so that ``rerun`` works from anywhere."""
    return os.path.abspath(s) if _text(s) else s


_COUNT = _number(int, 1)
_UNIT = _number(float, 0.0, 1.0)
_FRACTION = _number(float, 0.0, 1.0, closed=False)


@dataclass(frozen=True)
class _Opt:
    name: str
    type: object  # the option's whole check, for its flag, config entry and manifest value
    default: object
    help: str


_MODEL_OPTS = [
    _Opt("model", _one_of(*MODEL_KINDS), "deepfm", "backbone kind"),
    _Opt("embed-dim", _number(int), 16, "embedding dimension"),
    _Opt("mlp-widths", _parse_list(_COUNT), [64, 32], "comma-separated hidden widths"),
    _Opt("cross-layers", _number(int), 2, "number of cross layers (dcn)"),
]

_TRAIN_OPTS = [
    _Opt("loss", _one_of(*LOSS_KINDS), "ce", "training objective"),
    _Opt("alpha", _UNIT, 0.2, "self-correction blend weight in [0, 1] (reloop only)"),
    _Opt("optimizer", _one_of(*OPTIMIZER_KINDS), "adam", "update rule"),
    _Opt("lr", _number(float, 0.0, closed=False), 1e-3, "learning rate"),
    _Opt("batch-size", _COUNT, 256, "mini-batch size"),
    _Opt("epochs", _number(int, 0), 5, "training epochs"),
    _Opt("shuffle", _parse_bool, True, "shuffle each epoch (true/false)"),
    _Opt("seed", _number(int), 0, "master run seed"),
]

_SCHEMA_OPTS = [
    _Opt("buckets", _COUNT, 64, "hash buckets per field for ingested CSVs"),
    _Opt("numerical", _parse_list(_text), [], "comma-separated numerical field names"),
]

_LOOP_OPTS = [
    _Opt("mode", _one_of("static", "continual"), "static", "loop protocol"),
    _Opt("data", _input_path, None, "dataset CSV (static mode; split 8:1:1)"),
    _Opt("windows", _input_path, None, "window CSV glob (continual mode)"),
    _Opt("prior-fraction", _FRACTION, 0.9, "leading fraction the prior trains on"),
    _Opt("holdout-fraction", _FRACTION, 0.2, "final-window tail held out for eval"),
    _Opt("warm-start", _parse_bool, False, "warm-start each version (true/false)"),
    _Opt("out", _text, None, "output directory"),
]

_COMMANDS: dict[str, tuple[list[_Opt], str]] = {
    "gen-data": (
        [
            _Opt("out", _text, None, "output directory"),
            _Opt("rows", _COUNT, 50000, "rows per window"),
            _Opt("fields", _number(int, 2), 8, "number of fields"),
            _Opt("buckets", _COUNT, 64, "hash buckets per field"),
            _Opt("latent-dim", _COUNT, 4, "hidden ground-truth latent dimension"),
            _Opt("windows", _COUNT, 1, "number of windows"),
            _Opt("drift", _UNIT, 0.0, "latent drift fraction between windows"),
            _Opt("seed", _number(int), 42, "generator seed"),
        ],
        "generate synthetic click-log windows",
    ),
    "train": (
        [
            _Opt("data", _input_path, None, "training CSV"),
            _Opt("valid", _input_path, None, "validation CSV (metrics.csv target)"),
            _Opt("prior-scores", _input_path, None, "score log supplying y_last"),
            _Opt("out", _text, None, "output directory"),
        ]
        + _MODEL_OPTS
        + _TRAIN_OPTS
        + _SCHEMA_OPTS,
        "train one model on one dataset",
    ),
    "loop": (
        _LOOP_OPTS + _MODEL_OPTS + _TRAIN_OPTS + _SCHEMA_OPTS,
        "run the static-prior or continual training loop",
    ),
    "sweep-alpha": (
        [
            _Opt("alphas", _parse_list(_UNIT, nonempty=True),
                 [round(0.1 * i, 1) for i in range(11)], "comma-separated blend weights"),
        ]
        + _LOOP_OPTS
        + _MODEL_OPTS
        + [o for o in _TRAIN_OPTS if o.name not in ("loss", "alpha")]
        + _SCHEMA_OPTS,
        "one loop run per blend weight, shared seed",
    ),
    "eval": (
        [
            _Opt("scores", _input_path, None,
                 "score file (score log or one score per line)"),
            _Opt("labels", _input_path, None, "label file (one 0/1 per line)"),
            _Opt("data", _input_path, None, "dataset CSV to score"),
            _Opt("checkpoint", _input_path, None, "checkpoint to score --data with"),
        ]
        + _SCHEMA_OPTS,
        "report AUC and logloss for scores",
    ),
    "loss-curves": (
        [
            _Opt("y", _one_of(0, 1), 1, "label of the scenario"),
            _Opt("y-last", _UNIT, 0.8, "previous model's score"),
            _Opt("grid", _COUNT, 99, "number of probability grid points"),
            _Opt("out", _text, None, "output directory"),
        ],
        "emit objective curves for one (label, prior score) scenario",
    ),
    "rerun": (
        [
            _Opt("manifest", _text, None, "manifest.json from a previous run"),
            _Opt("out", _text, None, "new or empty output directory"),
        ],
        "replay a recorded run byte-for-byte",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reloop",
        description="continual-learning lab for CTR prediction",
    )
    parser.add_argument("--version", action="version", version=f"reloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (opts, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        for o in opts:
            p.add_argument(f"--{o.name}", dest=o.name.replace("-", "_"), type=o.type,
                           default=argparse.SUPPRESS, metavar=getattr(o.type, "metavar", None),
                           help=f"{o.help} (default: {o.default})")
    return parser


def _read_config(path: str) -> tuple[dict[str, str], str]:
    """The ``key = value`` entries of a config file, and the hex digest of the bytes parsed."""
    values = {}
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values, f"{fnv1a64(data):016x}"


def _resolve(command: str, values: dict, source: str, flags: dict) -> dict:
    """The full option set: defaults, then config-file or manifest ``values``, then flags."""
    opts = {o.name.replace("-", "_"): o for o in _COMMANDS[command][0]}
    resolved = {k: o.default for k, o in opts.items()}
    for key, value in values.items():
        if key not in opts:
            raise UsageError(f"{source} key {key!r} unknown for command {command}")
        try:  # None stays unset only where that is the default
            if value is not None or opts[key].default is not None:
                resolved[key] = opts[key].type(value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{source} key {key!r}: {exc}") from None
    resolved.update((k, v) for k, v in flags.items() if k in opts)
    return resolved


def _blas_build():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        return None


def _write_manifest(out_dir: Path, command: str, resolved: dict,
                    config_digest: str | None) -> None:
    payload = {
        "tool": "reloop",
        "tool_version": __version__,
        "command": command,
        "resolved": resolved,
        "config_digest": config_digest,
        "seed": resolved.get("seed"),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        # the environment a replay may differ in; rerun reads none of it
        "numpy_version": np.__version__,
        "blas": _blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        # the arms a run maps: a sweep's alphas, a static loop's baseline and current
        "processes": phase_processes(len(resolved["alphas"]) if command == "sweep-alpha"
                                     else 2 if resolved.get("mode") == "static" else 1),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _schema_from_csv(path: str, buckets: int, numerical: list[str]) -> FeatureSchema:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _, header = next(csv_rows(path, fh), (0, []))
    if not header or header[0] != "label":
        raise DataError(f"{path}: first header column must be 'label'")
    names = header[1:]
    if names and names[-1] == "y_last":
        names = names[:-1]
    numset = set(numerical)
    unknown = numset - set(names)
    if unknown:
        raise UsageError(f"--numerical names not in {path} header: {sorted(unknown)}")
    return FeatureSchema(
        [FieldSpec(n, "numerical" if n in numset else "categorical", buckets)
         for n in names]
    )


def _model_config(res: dict) -> ModelConfig:
    try:
        return ModelConfig(
            kind=res["model"],
            embed_dim=res["embed_dim"],
            mlp_widths=tuple(res["mlp_widths"]),
            n_cross_layers=res["cross_layers"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _train_config(res: dict, loss: LossConfig) -> TrainConfig:
    return TrainConfig(
        batch_size=res["batch_size"],
        epochs=res["epochs"],
        seed=res["seed"],
        shuffle=res["shuffle"],
        loss=loss,
        optimizer=res["optimizer"],
        lr=res["lr"],
    )


def _cmd_gen_data(res: dict) -> None:
    spec = SyntheticSpec(
        n_fields=res["fields"],
        buckets_per_field=res["buckets"],
        latent_dim=res["latent_dim"],
        n_rows=res["rows"],
        seed=res["seed"],
        n_windows=res["windows"],
        drift_rate=res["drift"],
    )
    # at most: the label, a comma and the longest token per field, a newline
    row_bytes = 2 + spec.n_fields * (1 + len(str(spec.buckets_per_field - 1)))
    header_bytes = len("label") + sum(1 + len(f.name) for f in spec.schema().fields) + 1
    csv_bytes = spec.n_windows * (header_bytes + spec.n_rows * row_bytes)
    free = shutil.disk_usage(res["out"]).free
    _require(csv_bytes <= free,
             f"--rows {spec.n_rows} and --windows {spec.n_windows} make up to {csv_bytes} "
             f"bytes of CSV, but {res['out']} has {free} bytes free")
    generate_synthetic_csv(spec, res["out"])


def _load_training_data(res: dict, schema: FeatureSchema, loss: LossConfig):
    data = ingest_csv(res["data"], schema)
    if res.get("prior_scores"):
        log = ScoreLog.load(res["prior_scores"])
        data = data.with_y_last(log.aligned_to(data))
    if loss.needs_y_last and data.y_last is None:
        raise UsageError(
            f"--loss {loss.kind} requires prior scores: pass --prior-scores FILE "
            "or include a y_last column in --data"
        )
    return data


def _cmd_train(res: dict) -> None:
    _require(res.get("data"), "--data is required")
    out = Path(res["out"])
    loss = LossConfig(kind=res["loss"], alpha=res["alpha"])
    schema = _schema_from_csv(res["data"], res["buckets"], res["numerical"])
    data = _load_training_data(res, schema, loss)
    model_cfg = _model_config(res)
    train_cfg = _train_config(res, loss)
    # the model holds the rows it trains, then those it scores (see reloop.loop)
    scored = [ingest_csv(res["valid"], schema)] if res.get("valid") else []
    rows = held_rows(schema.n_features, [data.indices])
    require_room(out / "model.ckpt", schema, model_cfg, rows.size)
    params = init_params(schema, model_cfg, res["seed"], rows)
    params, _ = train_epochs(params, data, train_cfg)
    save_checkpoint(params, out / "model.ckpt")
    for vdata in scored:
        vparams = hold_rows(params, held_rows(schema.n_features, [vdata.indices]))
        report = evaluate(vdata.labels, predict_batch(vparams, vdata))
        (out / "metrics.csv").write_text(
            METRICS_CSV_HEADER + "\n" + report.csv_line() + "\n", encoding="utf-8"
        )


def _split_811(data):
    n = len(data)
    n_train = int(round(0.8 * n))
    n_valid = int(round(0.1 * n))
    if n_train < 1 or n_valid < 1 or n_train + n_valid >= n:
        raise DataError(f"dataset of {n} rows is too small for an 8:1:1 split")
    return (
        data.head(n_train),
        data.take(slice(n_train, n_train + n_valid)),
        data.take(slice(n_train + n_valid, n)),
    )


def _loop_setup(res: dict, loss: LossConfig, checkpoint_dir):
    """Validate the loop flags and ingest the data once, with one schema.

    Returns the loop config and its data: the (train, valid, test) split in
    static mode, the ordered windows in continual mode.
    """
    static = res["mode"] == "static"
    cfg = LoopConfig(
        mode="static_prior" if static else "continual",
        model=_model_config(res),
        train=_train_config(res, loss),
        warm_start=res["warm_start"],
        prior_fraction=res["prior_fraction"],
        holdout_fraction=res["holdout_fraction"],
        checkpoint_dir=checkpoint_dir,
    )
    if static:
        _require(res.get("data"), "static mode requires --data")
        schema = _schema_from_csv(res["data"], res["buckets"], res["numerical"])
        return cfg, _split_811(ingest_csv(res["data"], schema))
    _require(res.get("windows"), "continual mode requires --windows GLOB")
    paths = sorted(globmod.glob(res["windows"]))
    _require(len(paths) >= 2, f"--windows {res['windows']!r} must match >= 2 files")
    schema = _schema_from_csv(paths[0], res["buckets"], res["numerical"])
    return cfg, [ingest_csv(p, schema) for p in paths]


def _cmd_loop(res: dict) -> None:
    out = Path(res["out"])
    cfg, data = _loop_setup(res, LossConfig(res["loss"], res["alpha"]), out / "checkpoints")
    if cfg.mode == "static_prior":
        state = run_static_prior(cfg, *data)
    else:
        state = run_continual(cfg, data)
    write_loop_report(state, out / "loop_report.csv")


def _cmd_sweep_alpha(res: dict) -> None:
    alphas = res["alphas"]
    # Headline per alpha: the static ``current`` test row, or the continual
    # run's mean over its report rows. The phases alpha does not reach run once.
    cfg, data = _loop_setup(res, LossConfig(), checkpoint_dir=None)
    if cfg.mode == "static_prior":
        train, _, test = data
        arms = [(loss, "current") for loss in reloop_losses(alphas)]
        heads = [(r.auc, r.logloss) for _, (r,) in run_static_arms(cfg, train, [test], arms)]
    else:
        states = run_continual_arms(cfg, data, reloop_losses(alphas))
        heads = [mean_report_metrics(s) for s in states]
    lines = ["alpha,auc,logloss"]
    for alpha, (auc_v, ll_v) in zip(alphas, heads):
        lines.append(f"{alpha:g},{auc_v:.6f},{ll_v:.6f}")
    out = Path(res["out"])
    (out / "alpha_sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_column(path: str, accepted_headers: tuple[str, ...], parse) -> np.ndarray:
    """One value per line, after an optional header; blank lines are skipped.
    ``parse(cell, where)`` checks each value; it and a line of more than one
    cell raise DataError naming ``<file>:<line>``."""
    values = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line, cells in csv_rows(path, fh):
            if len(cells) > 1:
                raise DataError(f"{path}:{line}: expected one value, got {len(cells)} cells")
            cell = cells[0] if cells else ""
            if cell.strip() and not (line == 1 and cell in accepted_headers):
                values.append(parse(cell, f"{path}:{line}"))
    if not values:
        raise DataError(f"{path}: no values found")
    return np.array(values, dtype=np.float64)


def _cmd_eval(res: dict) -> None:
    by_files = res.get("scores") and res.get("labels")
    by_model = res.get("data") and res.get("checkpoint")
    _require(
        bool(by_files) != bool(by_model),
        "eval needs either --scores with --labels, or --data with --checkpoint",
    )
    if by_files:
        try:
            scores = ScoreLog.load(res["scores"]).scores
        except NotAScoreLogError:
            scores = _read_column(res["scores"], ("score", "y_last"),
                                  partial(probability_cell, name="score"))
        labels = _read_column(res["labels"], ("label",), label_cell)
        if labels.shape != scores.shape:
            raise DataError("labels and scores differ in length")
    else:
        schema = _schema_from_csv(res["data"], res["buckets"], res["numerical"])
        # a missing or foreign checkpoint fails before the data is read
        params = load_checkpoint(res["checkpoint"])
        check_schema(params, schema)
        data = ingest_csv(res["data"], schema)
        params = hold_rows(params, held_rows(schema.n_features, [data.indices]))
        # the raw probabilities, as loop reports and train --valid score them
        labels, scores = data.labels, predict_batch(params, data)
    report = evaluate(labels, scores)
    print(f"n={report.n}")
    print(f"n_pos={report.n_pos}")
    print(f"n_neg={report.n_neg}")
    print(f"auc={report.auc:.6f}")
    print(f"logloss={report.logloss:.6f}")


def _cmd_loss_curves(res: dict) -> None:
    n = res["grid"]
    grid = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    table = emit_loss_curves(res["y"], res["y_last"], grid)
    write_loss_curves(Path(res["out"]) / "loss_curves.csv", table)


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "loop": _cmd_loop,
    "sweep-alpha": _cmd_sweep_alpha,
    "eval": _cmd_eval,
    "loss-curves": _cmd_loss_curves,
}

def _dispatch(command: str, res: dict, config_digest: str | None) -> None:
    """Run ``command`` into a new or empty ``--out``, manifest last; a failure
    removes it, then the parents it made, innermost first, while empty."""
    if "out" not in res:  # eval only prints
        return _HANDLERS[command](res)
    _require(res["out"], "--out is required")
    out = Path(res["out"])
    # not a link, dangling or not: rmtree would leave the files written through it
    _require(not out.is_symlink()
             and (not out.exists() or out.is_dir() and not any(out.iterdir())),
             f"--out {out} exists and is not an empty directory")
    made = list(itertools.takewhile(lambda p: not p.exists(), out.parents))
    for parent in made:  # a dangling link does not exist, and mkdir fails on it
        _require(not parent.is_symlink(),
                 f"--out {out}: parent {parent} is a link to a missing path")
    out.mkdir(parents=True, exist_ok=True)
    try:
        _HANDLERS[command](res)
        _write_manifest(out, command, res, config_digest)
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)
        for parent in made:
            try:
                parent.rmdir()
            except OSError:  # not empty: another run may be writing there
                break
        raise


def _cmd_rerun(res: dict) -> None:
    _require(res.get("manifest"), "--manifest is required")
    try:
        payload = json.loads(Path(res["manifest"]).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read manifest {res['manifest']}: {exc}") from None
    command = payload.get("command") if isinstance(payload, dict) else None
    if command not in _HANDLERS:
        raise UsageError(f"manifest names unknown command {command!r}")
    resolved = payload.get("resolved")
    options = {o.name.replace("-", "_") for o in _COMMANDS[command][0]}
    if not isinstance(resolved, dict) or set(resolved) != options:
        raise UsageError(f"manifest 'resolved' must map exactly the {command} "
                         f"options: {sorted(options)}")
    replay = _resolve(command, resolved, "manifest", {"out": res["out"]})
    _dispatch(command, replay, None)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported on stderr
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        config, digest = _read_config(ns.config) if ns.config else ({}, None)
        res = _resolve(ns.command, config, "config", vars(ns))
        if ns.command == "rerun":
            _cmd_rerun(res)
        else:
            _dispatch(ns.command, res, digest)
        return 0
    except (UsageError, NoRoomError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
