"""Command-line entry point wiring the modules into reproducible experiments.

Exit codes: 0 success, 2 usage errors, 1 runtime errors. Diagnostics go to
stderr; data goes to files or stdout. Every command that produces an output
directory writes a ``manifest.json`` with the fully resolved configuration,
and ``rerun`` replays a manifest into a fresh directory byte-for-byte.

Configuration precedence: command-line flags override ``--config`` file
entries (plain ``key = value`` lines, ``#`` comments), which override
built-in defaults. ``RELOOP_THREADS`` caps worker parallelism; the current
implementation executes sequentially regardless of its value, so every
setting yields identical bytes and 1 is simply the documented reference mode.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .features import (
    DataError,
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    fnv1a64,
    generate_synthetic_csv,
    ingest_csv,
)
from .loop import (
    LoopConfig,
    NotAScoreLogError,
    ScoreLog,
    infer_scores,
    mean_next_window_metrics,
    run_continual,
    run_static_prior,
    write_loop_report,
)
from .losses import LossConfig, LossInputError, emit_loss_curves, write_loss_curves
from .metrics import METRICS_CSV_HEADER, evaluate
from .models import ModelConfig, init_params, predict_batch
from .optim import TrainConfig, train_epochs


class UsageError(Exception):
    """Bad invocation: wrong flags, values out of range, missing inputs."""


def worker_count() -> int:
    """Worker cap from RELOOP_THREADS (default: all cores)."""
    raw = os.environ.get("RELOOP_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"RELOOP_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def _parse_bool(s) -> bool:
    if isinstance(s, bool):
        return s
    if str(s).lower() in ("1", "true", "yes"):
        return True
    if str(s).lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {s!r}")


def _parse_floats(s) -> list[float]:
    if isinstance(s, (list, tuple)):
        return [float(x) for x in s]
    return [float(x) for x in str(s).split(",") if x.strip() != ""]


def _parse_ints(s) -> list[int]:
    if isinstance(s, (list, tuple)):
        return [int(x) for x in s]
    return [int(x) for x in str(s).split(",") if x.strip() != ""]


def _parse_names(s) -> list[str]:
    if isinstance(s, (list, tuple)):
        return [str(x) for x in s]
    return [x.strip() for x in str(s).split(",") if x.strip() != ""]


@dataclass(frozen=True)
class _Opt:
    name: str
    type: object
    default: object
    help: str
    choices: tuple | None = None


_MODEL_OPTS = [
    _Opt("model", str, "deepfm", "backbone kind", ("lr", "fm", "mlp", "deepfm", "dcn")),
    _Opt("embed-dim", int, 16, "embedding dimension"),
    _Opt("mlp-widths", _parse_ints, [64, 32], "comma-separated hidden widths"),
    _Opt("cross-layers", int, 2, "number of cross layers (dcn)"),
]

_TRAIN_OPTS = [
    _Opt("loss", str, "ce", "training objective", ("ce", "reloop", "kd")),
    _Opt("alpha", float, 0.2, "self-correction blend weight in [0, 1]"),
    _Opt("optimizer", str, "adam", "update rule", ("adam", "sgd")),
    _Opt("lr", float, 1e-3, "learning rate"),
    _Opt("batch-size", int, 256, "mini-batch size"),
    _Opt("epochs", int, 5, "training epochs"),
    _Opt("shuffle", _parse_bool, True, "shuffle each epoch (true/false)"),
    _Opt("seed", int, 0, "master run seed"),
]

_SCHEMA_OPTS = [
    _Opt("buckets", int, 64, "hash buckets per field for ingested CSVs"),
    _Opt("numerical", _parse_names, [], "comma-separated numerical field names"),
]

_COMMANDS: dict[str, tuple[list[_Opt], str]] = {
    "gen-data": (
        [
            _Opt("out", str, None, "output directory"),
            _Opt("rows", int, 50000, "rows per window"),
            _Opt("fields", int, 8, "number of fields"),
            _Opt("buckets", int, 64, "hash buckets per field"),
            _Opt("latent-dim", int, 4, "hidden ground-truth latent dimension"),
            _Opt("windows", int, 1, "number of windows"),
            _Opt("drift", float, 0.0, "latent drift fraction between windows"),
            _Opt("seed", int, 42, "generator seed"),
        ],
        "generate synthetic click-log windows",
    ),
    "train": (
        [
            _Opt("data", str, None, "training CSV"),
            _Opt("valid", str, None, "validation CSV (metrics.csv target)"),
            _Opt("prior-scores", str, None, "score log supplying y_last"),
            _Opt("out", str, None, "output directory"),
        ]
        + _MODEL_OPTS
        + _TRAIN_OPTS
        + _SCHEMA_OPTS,
        "train one model on one dataset",
    ),
    "loop": (
        [
            _Opt("mode", str, "static", "loop protocol", ("static", "continual")),
            _Opt("data", str, None, "dataset CSV (static mode; split 8:1:1)"),
            _Opt("windows", str, None, "window CSV glob (continual mode)"),
            _Opt("prior-fraction", float, 0.9, "leading fraction the prior trains on"),
            _Opt("holdout-fraction", float, 0.2, "final-window tail held out for eval"),
            _Opt("warm-start", _parse_bool, False, "warm-start each version (true/false)"),
            _Opt("out", str, None, "output directory"),
        ]
        + _MODEL_OPTS
        + _TRAIN_OPTS
        + _SCHEMA_OPTS,
        "run the static-prior or continual training loop",
    ),
    "sweep-alpha": (
        [
            _Opt("alphas", _parse_floats, [round(0.1 * i, 1) for i in range(11)],
                 "comma-separated blend weights"),
            _Opt("mode", str, "static", "loop protocol", ("static", "continual")),
            _Opt("data", str, None, "dataset CSV (static mode)"),
            _Opt("windows", str, None, "window CSV glob (continual mode)"),
            _Opt("prior-fraction", float, 0.9, "leading fraction the prior trains on"),
            _Opt("holdout-fraction", float, 0.2, "final-window tail held out for eval"),
            _Opt("warm-start", _parse_bool, False, "warm-start each version (true/false)"),
            _Opt("out", str, None, "output directory"),
        ]
        + _MODEL_OPTS
        + [o for o in _TRAIN_OPTS if o.name not in ("loss", "alpha")]
        + _SCHEMA_OPTS,
        "one loop run per blend weight, shared seed",
    ),
    "eval": (
        [
            _Opt("scores", str, None, "score file (score log or one score per line)"),
            _Opt("labels", str, None, "label file (one 0/1 per line)"),
            _Opt("data", str, None, "dataset CSV to score"),
            _Opt("checkpoint", str, None, "checkpoint to score --data with"),
        ]
        + _SCHEMA_OPTS,
        "report AUC and logloss for scores",
    ),
    "loss-curves": (
        [
            _Opt("y", int, 1, "label of the scenario", (0, 1)),
            _Opt("y-last", float, 0.8, "previous model's score"),
            _Opt("grid", int, 99, "number of probability grid points"),
            _Opt("out", str, None, "output CSV file"),
        ],
        "emit objective curves for one (label, prior score) scenario",
    ),
    "rerun": (
        [
            _Opt("manifest", str, None, "manifest.json from a previous run"),
            _Opt("out", str, None, "fresh output location"),
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
            kwargs = {
                "dest": o.name.replace("-", "_"),
                "type": o.type,
                "default": argparse.SUPPRESS,
                "help": f"{o.help} (default: {o.default})",
            }
            if o.choices is not None:
                kwargs["choices"] = o.choices
            p.add_argument(f"--{o.name}", **kwargs)
    return parser


def _read_config(path: str) -> dict[str, str]:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    """Materialize the full option set: defaults, then config, then flags."""
    opts = {o.name.replace("-", "_"): o for o in _COMMANDS[command][0]}
    resolved = {k: o.default for k, o in opts.items()}
    if ns.config:
        for key, raw in _read_config(ns.config).items():
            if key not in opts:
                raise UsageError(f"config key {key!r} unknown for command {command}")
            try:
                resolved[key] = opts[key].type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
    for key, value in vars(ns).items():
        if key in opts:
            resolved[key] = value
    return resolved


def _write_manifest(out_dir: Path, command: str, resolved: dict, config: str | None) -> None:
    digest = None
    if config:
        digest = f"{fnv1a64(Path(config).read_bytes()):016x}"
    payload = {
        "tool": "reloop",
        "tool_version": __version__,
        "command": command,
        "resolved": {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in resolved.items()
        },
        "config_digest": digest,
        "seed": resolved.get("seed"),
        "reloop_threads": os.environ.get("RELOOP_THREADS"),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _out_dir(res: dict) -> Path:
    _require(res.get("out"), "--out is required")
    return Path(res["out"])


def _schema_from_csv(path: str, buckets: int, numerical: list[str]) -> FeatureSchema:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
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


def _loss_config(res: dict) -> LossConfig:
    _require(0.0 <= res["alpha"] <= 1.0, "--alpha must lie in [0, 1]")
    return LossConfig(kind=res["loss"], alpha=res["alpha"])


def _train_config(res: dict, loss: LossConfig) -> TrainConfig:
    try:
        return TrainConfig(
            batch_size=res["batch_size"],
            epochs=res["epochs"],
            seed=res["seed"],
            shuffle=res["shuffle"],
            loss=loss,
            optimizer=res["optimizer"],
            lr=res["lr"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_gen_data(res: dict) -> None:
    _require(res["rows"] >= 1, "--rows must be >= 1")
    _require(res["fields"] >= 1, "--fields must be >= 1")
    _require(res["buckets"] >= 1, "--buckets must be >= 1")
    _require(res["latent_dim"] >= 1, "--latent-dim must be >= 1")
    _require(res["windows"] >= 1, "--windows must be >= 1")
    _require(0.0 <= res["drift"] <= 1.0, "--drift must lie in [0, 1]")
    out = _out_dir(res)
    spec = SyntheticSpec(
        n_fields=res["fields"],
        buckets_per_field=res["buckets"],
        latent_dim=res["latent_dim"],
        n_rows=res["rows"],
        seed=res["seed"],
        n_windows=res["windows"],
        drift_rate=res["drift"],
    )
    generate_synthetic_csv(spec, out)


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
    out = _out_dir(res)
    loss = _loss_config(res)
    schema = _schema_from_csv(res["data"], res["buckets"], res["numerical"])
    data = _load_training_data(res, schema, loss)
    model_cfg = _model_config(res)
    train_cfg = _train_config(res, loss)
    params = init_params(schema, model_cfg, res["seed"])
    params, _ = train_epochs(params, data, train_cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "model.ckpt")
    if res.get("valid"):
        vdata = ingest_csv(res["valid"], schema)
        report = evaluate(vdata.labels, predict_batch(params, vdata))
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


def _run_loop(res: dict, loss: LossConfig, checkpoint_dir):
    model_cfg = _model_config(res)
    train_cfg = _train_config(res, loss)
    if res["mode"] == "static":
        _require(res.get("data"), "static mode requires --data")
        _require(0.0 < res["prior_fraction"] < 1.0, "--prior-fraction must lie in (0, 1)")
        schema = _schema_from_csv(res["data"], res["buckets"], res["numerical"])
        train, valid, test = _split_811(ingest_csv(res["data"], schema))
        cfg = LoopConfig(
            mode="static_prior",
            model=model_cfg,
            train=train_cfg,
            prior_fraction=res["prior_fraction"],
            checkpoint_dir=checkpoint_dir,
        )
        return run_static_prior(cfg, train, valid, test)
    _require(res.get("windows"), "continual mode requires --windows GLOB")
    paths = sorted(globmod.glob(res["windows"]))
    _require(len(paths) >= 2, f"--windows {res['windows']!r} must match >= 2 files")
    _require(0.0 < res["holdout_fraction"] < 1.0, "--holdout-fraction must lie in (0, 1)")
    schema = _schema_from_csv(paths[0], res["buckets"], res["numerical"])
    windows = [ingest_csv(p, schema) for p in paths]
    cfg = LoopConfig(
        mode="continual",
        model=model_cfg,
        train=train_cfg,
        warm_start=res["warm_start"],
        holdout_fraction=res["holdout_fraction"],
        checkpoint_dir=checkpoint_dir,
    )
    return run_continual(cfg, windows)


def _headline(res: dict, state) -> tuple[float, float]:
    if res["mode"] == "static":
        row = next(r for r in state.reports if r.phase == "current")
        return row.report.auc, row.report.logloss
    return mean_next_window_metrics(state)


def _cmd_loop(res: dict) -> None:
    out = _out_dir(res)
    loss = _loss_config(res)
    state = _run_loop(res, loss, checkpoint_dir=out / "checkpoints")
    out.mkdir(parents=True, exist_ok=True)
    write_loop_report(state, out / "loop_report.csv")


def _cmd_sweep_alpha(res: dict) -> None:
    out = _out_dir(res)
    alphas = res["alphas"]
    _require(len(alphas) >= 1, "--alphas must name at least one value")
    _require(
        all(0.0 <= a <= 1.0 for a in alphas), "--alphas values must lie in [0, 1]"
    )
    lines = ["alpha,auc,logloss"]
    for alpha in alphas:
        loss = LossConfig(kind="reloop", alpha=alpha)
        state = _run_loop(res, loss, checkpoint_dir=None)
        auc_v, ll_v = _headline(res, state)
        lines.append(f"{alpha:g},{auc_v:.6f},{ll_v:.6f}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "alpha_sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_column(path: str, accepted_headers: tuple[str, ...]) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            cell = line.strip()
            if not cell:
                continue
            if i == 0 and cell in accepted_headers:
                continue
            values.append(float(cell))
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
            scores = _read_column(res["scores"], ("score", "y_last"))
        labels = _read_column(res["labels"], ("label",))
        if labels.shape != scores.shape:
            raise DataError("labels and scores differ in length")
    else:
        schema = _schema_from_csv(res["data"], res["buckets"], res["numerical"])
        data = ingest_csv(res["data"], schema)
        params = load_checkpoint(res["checkpoint"])
        log = infer_scores(params, data)
        labels, scores = data.labels, log.scores
    report = evaluate(labels, scores)
    print(f"n={report.n}")
    print(f"n_pos={report.n_pos}")
    print(f"n_neg={report.n_neg}")
    print(f"auc={report.auc:.6f}")
    print(f"logloss={report.logloss:.6f}")


def _cmd_loss_curves(res: dict) -> None:
    _require(res.get("out"), "--out is required")
    _require(res["grid"] >= 1, "--grid must be >= 1")
    _require(0.0 <= res["y_last"] <= 1.0, "--y-last must lie in [0, 1]")
    n = res["grid"]
    grid = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    table = emit_loss_curves(res["y"], res["y_last"], grid)
    out = Path(res["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_loss_curves(out, table)


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "loop": _cmd_loop,
    "sweep-alpha": _cmd_sweep_alpha,
    "eval": _cmd_eval,
    "loss-curves": _cmd_loss_curves,
}

# commands whose --out is a file, not a directory; their manifest sits alongside
_FILE_OUT = ("loss-curves",)


def _manifest_target(command: str, res: dict) -> Path | None:
    out = res.get("out")
    if not out:
        return None
    return Path(out).parent if command in _FILE_OUT else Path(out)


def _dispatch(command: str, res: dict, config: str | None) -> None:
    _HANDLERS[command](res)
    target = _manifest_target(command, res)
    if target is not None:
        _write_manifest(target, command, res, config)


def _cmd_rerun(res: dict) -> None:
    _require(res.get("manifest"), "--manifest is required")
    _require(res.get("out"), "--out is required")
    try:
        payload = json.loads(Path(res["manifest"]).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read manifest {res['manifest']}: {exc}") from None
    command = payload.get("command")
    if command not in _HANDLERS:
        raise UsageError(f"manifest names unknown command {command!r}")
    replay = dict(payload["resolved"])
    replay["out"] = res["out"]
    _dispatch(command, replay, None)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported on stderr
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        worker_count()  # validate RELOOP_THREADS early
        if ns.command == "rerun":
            res = _resolve("rerun", ns)
            _cmd_rerun(res)
        else:
            res = _resolve(ns.command, ns)
            _dispatch(ns.command, res, ns.config)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, LossInputError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
