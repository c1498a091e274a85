"""Hand-grasp classification from two-channel sEMG recordings.

Pipeline: Burg AR fit per channel -> log power-spectral-density features on a
fixed frequency grid -> two-channel 1D CNN with a concatenated softmax head.
"""

from .burg import (
    BurgModel,
    BurgState,
    PsdEstimate,
    burg_fit,
    compute_reflection,
    init_state,
    psd_from_model,
    stage_error,
    update_ar_coefficients,
    update_prediction_errors,
)
from .dataset import (
    LABELS,
    Dataset,
    EmgRecord,
    SplitPlan,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from .errors import ConfigError, DataError, DegenerateSignalError, TrainingDivergedError
from .features import (
    FeatureConfig,
    FeatureVector,
    Normalizer,
    apply_normalizer,
    extract_all,
    extract_features,
    fit_normalizer,
)
from .metrics import (
    EpochStats,
    EvalReport,
    confusion_matrix,
    f1_macro,
    f1_weighted,
    precision_recall,
    summarize,
)
from .model_io import ModelBundle, load_model, save_model
from .network import (
    Conv1dLayer,
    ConvSpec,
    DenseLayer,
    NetworkSpec,
    NetworkState,
    backward,
    cross_entropy,
    forward,
    init_network,
    softmax,
)
from .training import TrainConfig, predict, predict_batch, train

__version__ = "0.1.0"

__all__ = [
    "BurgModel",
    "BurgState",
    "ConfigError",
    "Conv1dLayer",
    "ConvSpec",
    "DataError",
    "Dataset",
    "DegenerateSignalError",
    "DenseLayer",
    "EmgRecord",
    "EpochStats",
    "EvalReport",
    "FeatureConfig",
    "FeatureVector",
    "LABELS",
    "ModelBundle",
    "NetworkSpec",
    "NetworkState",
    "Normalizer",
    "PsdEstimate",
    "SplitPlan",
    "TrainConfig",
    "TrainingDivergedError",
    "apply_normalizer",
    "backward",
    "burg_fit",
    "compute_reflection",
    "confusion_matrix",
    "cross_entropy",
    "extract_all",
    "extract_features",
    "f1_macro",
    "f1_weighted",
    "fit_normalizer",
    "forward",
    "generate_synthetic",
    "init_network",
    "init_state",
    "load_dataset",
    "load_model",
    "precision_recall",
    "predict",
    "predict_batch",
    "psd_from_model",
    "save_model",
    "softmax",
    "stage_error",
    "summarize",
    "train",
    "update_ar_coefficients",
    "update_prediction_errors",
    "write_dataset",
]
