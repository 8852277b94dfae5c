"""Continual-learning lab for CTR prediction.

Models are trained, their predictions logged, and each successor version is
penalized whenever it does worse than its predecessor on the same samples.
"""

__version__ = "0.1.0"

from .checkpoint import (
    BadMagicError,
    CheckpointError,
    FormatVersionError,
    NonFiniteCheckpointError,
    SchemaDigestError,
    TruncatedCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from .features import (
    DataError,
    Dataset,
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    fnv1a64,
    generate_synthetic,
    generate_synthetic_csv,
    ingest_csv,
    transform_numerical,
)
from .loop import (
    LoopConfig,
    LoopState,
    NotAScoreLogError,
    ScoreLog,
    infer_scores,
    run_continual,
    run_continual_arms,
    run_static_arms,
    run_static_prior,
    write_loop_report,
)
from .losses import LossConfig, LossInputError, emit_loss_curves
from .metrics import MetricsReport, auc, evaluate, logloss
from .models import (
    ModelConfig,
    Params,
    forward_batch,
    backward_batch,
    init_params,
    predict_batch,
)
from .optim import OptimizerState, TrainConfig, apply_update, train_epochs

__all__ = [
    "__version__",
    "BadMagicError",
    "CheckpointError",
    "DataError",
    "Dataset",
    "FeatureSchema",
    "FieldSpec",
    "FormatVersionError",
    "LoopConfig",
    "LoopState",
    "LossConfig",
    "LossInputError",
    "MetricsReport",
    "ModelConfig",
    "NonFiniteCheckpointError",
    "NotAScoreLogError",
    "OptimizerState",
    "Params",
    "SchemaDigestError",
    "ScoreLog",
    "SyntheticSpec",
    "TrainConfig",
    "TruncatedCheckpointError",
    "apply_update",
    "auc",
    "backward_batch",
    "emit_loss_curves",
    "evaluate",
    "fnv1a64",
    "forward_batch",
    "generate_synthetic",
    "generate_synthetic_csv",
    "infer_scores",
    "ingest_csv",
    "init_params",
    "load_checkpoint",
    "logloss",
    "predict_batch",
    "run_continual",
    "run_continual_arms",
    "run_static_arms",
    "run_static_prior",
    "save_checkpoint",
    "train_epochs",
    "transform_numerical",
    "write_loop_report",
]
