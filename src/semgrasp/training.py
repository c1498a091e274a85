"""Mini-batch gradient-descent training of the two-channel network.

Determinism contract: one config seed feeds two named sub-streams
(weight init and epoch shuffling), and batches are visited in shuffle order,
so identical inputs, seed, code and BLAS kernel reproduce identical logs bit
for bit; `train` and every inference call run OpenBLAS on one thread. The
kernel is part of the contract because OpenBLAS picks it by CPU model: five
kernels on one host gave five different `model.bin` files from one seed (see
the network module).

An epoch's training statistics come from the forward passes of its own
steps: the loss is the row-weighted mean of the batch losses and the
accuracy the fraction of rows each batch's probabilities classified
correctly, both taken before that batch's update. Its test statistics are
recomputed on the full test set at epoch end, by one `forward` call that
runs each stack over the whole set in _EVAL_CHUNK-row passes. Each step's
momentum update runs inside backward: each stack's arrays on the thread that
computed their gradients, the head's on the calling thread after both stacks
finish. Every array gets the same ufunc calls as an update after backward
would make, so the bytes are unchanged.

The network trains and predicts in NETWORK_DTYPE (float32), the one dtype a
model bundle stores weights in: they are drawn in float64, so the seed's
random stream does not depend on it, and cast once. Features and the
normalizer stay float64; the inputs are cast at the network boundary.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .dataset import LABEL_TO_INDEX
from .errors import TrainingDivergedError
from .features import FeatureVector, stack_channels
from .metrics import EpochStats
from .network import (
    LABELS,
    NetworkSpec,
    NetworkState,
    _check_sizes,
    _is_finite_number,
    _one_blas_thread,
    cast_network,
    cross_entropy,
    forward,
    init_network,
    loss_and_gradients,
)

# the one dtype of the parameters, activations and gradients in training and inference
NETWORK_DTYPE = np.float32

# Rows per evaluation pass. It is not a cache size: larger passes ran faster
# (270 rows took 25.3 ms at 32, 23.4 at 64, 20.5 at 96 on a 2-core Xeon VM).
# It is part of the bytes, since a float32 GEMM rounds by its row count under
# some OpenBLAS kernels (64-row passes changed epochs.csv under Haswell), and
# it bounds memory: 96-row passes raised the train benchmark's peak RSS 6.7%.
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


@_one_blas_thread()
def _forward_chunks(state: NetworkState, x: np.ndarray) -> np.ndarray:
    """Probabilities for a whole set: one forward call, which runs each stack over
    all of x in _EVAL_CHUNK-row passes, ch2 on the worker thread, then the head per pass.

    numpy's floating-point warnings stay silent: a caller that needs finite
    probabilities checks them.
    """
    with np.errstate(all="ignore"):
        return forward(state, x, chunk=_EVAL_CHUNK)[0]


def evaluate(state: NetworkState, x: np.ndarray, y: np.ndarray):
    """Loss and accuracy over a full set, evaluated in fixed-size chunks."""
    probs = _forward_chunks(state, x)
    return cross_entropy(probs, y), int((probs.argmax(axis=1) == y).sum()) / len(y)


def _keep_freed_pages() -> None:
    """Keep freed step temporaries in glibc's heap instead of refaulting them each step.

    Both thresholds are set: setting either stops glibc adjusting both. No-op without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's own ceiling on 64-bit
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


@_one_blas_thread()
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
    First sets glibc's mmap and trim thresholds once for the whole process; they stay set
    afterwards, outside the determinism contract: results are byte-identical without them.
    """
    _keep_freed_pages()
    if not train_features or not test_features:
        raise ValueError("train and test sets must both be non-empty")
    x_tr, y_tr = features_to_arrays(train_features)
    x_te, y_te = features_to_arrays(test_features)
    if x_tr.shape[2] != spec.input_bins:
        raise ValueError(
            f"features have {x_tr.shape[2]} bins but the network expects {spec.input_bins}"
        )
    x_tr, x_te = x_tr.astype(NETWORK_DTYPE), x_te.astype(NETWORK_DTYPE)

    rng_init = np.random.default_rng([cfg.seed, INIT_STREAM])
    rng_shuffle = np.random.default_rng([cfg.seed, SHUFFLE_STREAM])
    state = cast_network(init_network(spec, rng_init), NETWORK_DTYPE)

    params = dict(state.parameters())
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}

    def update(grads):
        """Momentum SGD on the arrays grads names; scales each gradient in place."""
        for name, g in grads.items():
            v = velocity[name]
            v *= cfg.momentum
            g *= cfg.learning_rate
            v -= g
            params[name] += v

    n = len(y_tr)
    log: list[EpochStats] = []
    with np.errstate(all="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng_shuffle.permutation(n)
            loss_sum, correct = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                y_batch = y_tr[batch]
                loss, probs = loss_and_gradients(state, x_tr[batch], y_batch, update)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, f"batch loss = {loss}")
                loss_sum += loss * len(batch)
                correct += int((probs.argmax(axis=1) == y_batch).sum())
            # a mean of checked batch losses is finite, so only the test loss can diverge here
            test_loss, test_acc = evaluate(state, x_te, y_te)
            if not np.isfinite(test_loss):
                raise TrainingDivergedError(epoch, "epoch evaluation loss non-finite")
            stats = EpochStats(loss_sum / n, correct / n, test_loss, test_acc)
            log.append(stats)
            if progress is not None:
                progress(epoch, stats)
    return state, log


def predict(state: NetworkState, fv: FeatureVector) -> tuple[str, np.ndarray]:
    """Predicted label and the six class probabilities for one feature vector.

    Ties in the probabilities resolve to the lowest class index.
    """
    preds, probs = predict_batch(state, [fv])
    return LABELS[int(preds[0])], probs[0]


def predict_batch(state: NetworkState, features: list[FeatureVector]):
    """Predicted class indices and probabilities for a list of feature vectors."""
    probs = _forward_chunks(state, stack_channels(features))
    return probs.argmax(axis=1), probs
