"""Mini-batch gradient-descent training of the two-channel network.

Determinism contract: one config seed feeds two named sub-streams
(weight init and epoch shuffling), batches are visited in shuffle order,
and per-epoch train/test statistics are recomputed on the full sets at
epoch end, so identical inputs, seed, code and BLAS thread count reproduce
identical logs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LABEL_TO_INDEX, index_to_label
from .errors import TrainingDivergedError
from .features import FeatureVector, stack_channels
from .metrics import EpochStats
from .network import (
    NetworkSpec,
    NetworkState,
    _check_sizes,
    _is_finite_number,
    cross_entropy,
    forward,
    init_network,
    loss_and_gradients,
)

# rows per evaluation forward: at 32 the conv im2col matrices stay in cache
_EVAL_CHUNK = 32

# sub-seed tags so split/init/shuffle streams can be reproduced in isolation
INIT_STREAM = 1
SHUFFLE_STREAM = 2


@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9  # 0 gives plain SGD
    seed: int = 0

    def __post_init__(self):
        _check_sizes(self, ("epochs", "batch_size"))
        if not (_is_finite_number(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if not (_is_finite_number(self.momentum) and 0 <= self.momentum < 1):
            raise ValueError(f"momentum must be a number in [0, 1), got {self.momentum!r}")


def features_to_arrays(features: list[FeatureVector]):
    """Stack feature vectors into (x [n, 2, nbins], y [n]) training arrays."""
    y = np.array([LABEL_TO_INDEX[f.label] for f in features], dtype=np.int64)
    return stack_channels(features), y


def _forward_chunks(state: NetworkState, x: np.ndarray) -> np.ndarray:
    """Probabilities for a whole set, forwarded in fixed-size chunks."""
    return np.vstack([
        forward(state, x[start : start + _EVAL_CHUNK])[0]
        for start in range(0, len(x), _EVAL_CHUNK)
    ])


def evaluate(state: NetworkState, x: np.ndarray, y: np.ndarray):
    """Loss and accuracy over a full set, evaluated in fixed-size chunks."""
    probs = _forward_chunks(state, x)
    return cross_entropy(probs, y), int((probs.argmax(axis=1) == y).sum()) / len(y)


def train(
    spec: NetworkSpec,
    train_features: list[FeatureVector],
    test_features: list[FeatureVector],
    cfg: TrainConfig,
    progress=None,
) -> tuple[NetworkState, list[EpochStats]]:
    """Run cfg.epochs of mini-batch SGD with momentum; returns final state and epoch log.

    train/test sets must be non-empty and disjoint. progress, if given, is
    called as progress(epoch, EpochStats) after every epoch. Raises
    TrainingDivergedError naming the epoch, not a numpy warning, if a loss goes non-finite.
    """
    if not train_features or not test_features:
        raise ValueError("train and test sets must both be non-empty")
    x_tr, y_tr = features_to_arrays(train_features)
    x_te, y_te = features_to_arrays(test_features)
    if x_tr.shape[2] != spec.input_bins:
        raise ValueError(
            f"features have {x_tr.shape[2]} bins but the network expects {spec.input_bins}"
        )

    rng_init = np.random.default_rng([cfg.seed, INIT_STREAM])
    rng_shuffle = np.random.default_rng([cfg.seed, SHUFFLE_STREAM])
    state = init_network(spec, rng_init)

    velocity = {name: np.zeros_like(arr) for name, arr in state.parameters()}

    n = len(y_tr)
    log: list[EpochStats] = []
    with np.errstate(all="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng_shuffle.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, grads = loss_and_gradients(state, x_tr[batch], y_tr[batch])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, f"batch loss = {loss}")
                for name, arr in state.parameters():
                    v = velocity[name]
                    v *= cfg.momentum
                    v -= cfg.learning_rate * grads[name]
                    arr += v
            train_loss, train_acc = evaluate(state, x_tr, y_tr)
            test_loss, test_acc = evaluate(state, x_te, y_te)
            if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
                raise TrainingDivergedError(epoch, "epoch evaluation loss non-finite")
            stats = EpochStats(train_loss, train_acc, test_loss, test_acc)
            log.append(stats)
            if progress is not None:
                progress(epoch, stats)
    return state, log


def predict(state: NetworkState, fv: FeatureVector) -> tuple[str, np.ndarray]:
    """Predicted label and the six class probabilities for one feature vector.

    Ties in the probabilities resolve to the lowest class index.
    """
    preds, probs = predict_batch(state, [fv])
    return index_to_label(int(preds[0])), probs[0]


def predict_batch(state: NetworkState, features: list[FeatureVector]):
    """Predicted class indices and probabilities for a list of feature vectors."""
    probs = _forward_chunks(state, stack_channels(features))
    return probs.argmax(axis=1), probs
