"""Two-channel 1D convolutional network on plain numpy, with manual backprop.

Architecture: each input channel runs through its own stack of valid (no
padding) strided 1D convolutions followed by one dense layer; the two dense
outputs are concatenated and a linear head produces six logits for softmax
classification. Both stacks share hyperparameters but own independent
weights, so forward and backward can run the ch2 stack on a worker thread
while the calling thread runs ch1. Convolutions are evaluated as im2col matrix
products so training stays fast without any framework dependency; all
reductions use fixed summation order, so results are reproducible for a
given seed, code and BLAS thread count.
"""

from __future__ import annotations

import contextvars
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PROB_FLOOR = 1e-12


_ch2_executor: ThreadPoolExecutor


def _new_ch2_executor() -> None:
    """Create the worker that runs the ch2 stack; its thread starts on first use.

    A forked child inherits the executor but not its thread, so it gets a new one.
    """
    global _ch2_executor
    _ch2_executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="semgrasp-ch2")


_new_ch2_executor()
os.register_at_fork(after_in_child=_new_ch2_executor)

# Below this many rows the two stacks run one after the other: their numpy
# calls are then too small to release the GIL for long, and the hand-off
# costs more than the overlap saves. On a 2-core x86 VM a batch-1 forward
# took 0.61 ms with the hand-off and 0.47 ms without.
_CONCURRENT_MIN_ROWS = 16


def _run_stacks(fn, rows: int, ch1_args: tuple, ch2_args: tuple):
    """(fn(*ch1_args), fn(*ch2_args)) for a batch of `rows` rows.

    From _CONCURRENT_MIN_ROWS rows on, the ch2 call runs on the worker
    thread while this thread runs ch1; numpy releases the GIL inside matmul
    and ufunc loops, so the two overlap. Each call runs exactly the numpy
    calls it would run alone, so the results do not depend on the thread.
    The ch2 call runs in a copy of this thread's context, which carries
    numpy's error state. An exception in either call reaches the caller,
    after both have finished.
    """
    if rows < _CONCURRENT_MIN_ROWS:
        return fn(*ch1_args), fn(*ch2_args)
    future = _ch2_executor.submit(contextvars.copy_context().run, fn, *ch2_args)
    try:
        out1 = fn(*ch1_args)
    finally:
        future.exception()  # wait, so no stack outlives the call
    return out1, future.result()


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "identity":
        return pre
    raise ValueError(f"unknown activation {kind!r}")


def _activate_backward(d_out: np.ndarray, pre: np.ndarray, kind: str) -> np.ndarray:
    """Gradient w.r.t. the pre-activation, given the gradient w.r.t. the output."""
    if kind == "relu":
        # in pre's memory layout, which fixes the summation order of the bias
        # gradients; copying first keeps the masking multiply contiguous
        d_pre = np.empty_like(pre)
        np.copyto(d_pre, d_out)
        d_pre *= pre > 0.0
        return d_pre
    if kind == "identity":
        return d_out
    raise ValueError(f"unknown activation {kind!r}")


def conv_output_length(m: int, kernel: int, stride: int) -> int:
    """Number of valid positions for a width-`kernel` window stepped by `stride`."""
    if kernel > m:
        raise ValueError(f"kernel width {kernel} exceeds input length {m}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return (m - kernel) // stride + 1


@dataclass
class Conv1dLayer:
    """weights[f, k, c]: filter f, kernel tap k, input stream c."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    activation: str = "relu"


@dataclass
class DenseLayer:
    """weights[out, in] and bias[out]."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"


def _conv_pre(x: np.ndarray, layer: Conv1dLayer):
    """Pre-activation of a conv layer. x: [batch, streams, length]."""
    if x.ndim != 3:
        raise ValueError(f"conv input must be [batch, streams, length], got shape {x.shape}")
    n_batch, n_streams, m = x.shape
    n_filt, kernel, in_ch = layer.weights.shape
    if n_streams != in_ch:
        raise ValueError(f"conv expects {in_ch} input streams, got {n_streams}")
    out_len = conv_output_length(m, kernel, layer.stride)
    # a strided view, [batch, streams, out_len, kernel]: the reshape below is the only copy
    xw = sliding_window_view(x, kernel, axis=2)[:, :, :: layer.stride]
    xcol = xw.transpose(0, 2, 3, 1).reshape(n_batch * out_len, kernel * in_ch)
    wmat = layer.weights.transpose(1, 2, 0).reshape(kernel * in_ch, n_filt)
    pre = (xcol @ wmat).reshape(n_batch, out_len, n_filt).transpose(0, 2, 1)
    pre = pre + layer.bias[None, :, None]
    return pre, xcol, wmat


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis; rows sum to one."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true classes, floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = probs[None, :]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if len(labels) != probs.shape[0]:
        raise ValueError(f"{probs.shape[0]} probability rows but {len(labels)} labels")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def _is_finite_number(value) -> bool:
    """An int or float, not a bool, within the float range: refuses NaN, infinities
    and integers too large for a float (which math.isfinite would overflow on)."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_number and abs(value) <= sys.float_info.max


def _check_sizes(obj, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(obj, name)
        if not (_is_finite_number(value) and isinstance(value, int) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class ConvSpec:
    filters: int
    kernel: int
    stride: int = 1

    def __post_init__(self):
        _check_sizes(self, ("filters", "kernel", "stride"))


@dataclass
class NetworkSpec:
    """Hyperparameters; both channel stacks are built identically from it."""

    input_bins: int
    conv_layers: list[ConvSpec] = field(
        default_factory=lambda: [ConvSpec(32, 5, 1), ConvSpec(64, 5, 2)]
    )
    dense_units: int = 64
    n_classes: int = 6
    activation: str = "relu"

    def __post_init__(self):
        _check_sizes(self, ("input_bins", "dense_units", "n_classes"))
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"activation must be 'relu' or 'identity', got {self.activation!r}")

    def flat_dim(self) -> int:
        """Flattened size of the last conv output feeding the dense layer."""
        length = self.input_bins
        streams = 1
        for cs in self.conv_layers:
            length = conv_output_length(length, cs.kernel, cs.stride)
            streams = cs.filters
        return streams * length


@dataclass
class NetworkState:
    spec: NetworkSpec
    conv_stacks: tuple[list[Conv1dLayer], list[Conv1dLayer]]
    dense_layers: tuple[DenseLayer, DenseLayer]
    head: DenseLayer

    def layers(self) -> list[tuple[str, Conv1dLayer | DenseLayer]]:
        """Every layer under a stable name, in a fixed order."""
        named = []
        for ch in (0, 1):
            named += [(f"ch{ch + 1}.conv{i}", conv) for i, conv in enumerate(self.conv_stacks[ch])]
            named.append((f"ch{ch + 1}.dense", self.dense_layers[ch]))
        named.append(("head", self.head))
        return named

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """All trainable arrays with stable names, in a fixed order."""
        return [
            (f"{name}.{attr}", getattr(layer, attr))
            for name, layer in self.layers()
            for attr in ("weights", "bias")
        ]


def empty_network(spec: NetworkSpec) -> NetworkState:
    """A network shaped by the spec whose parameters are left uninitialized."""
    flat = spec.flat_dim()  # validates that the conv chain fits the input length

    def build_stack():
        convs = []
        in_ch = 1
        for cs in spec.conv_layers:
            convs.append(
                Conv1dLayer(
                    weights=np.empty((cs.filters, cs.kernel, in_ch)),
                    bias=np.empty(cs.filters),
                    stride=cs.stride,
                    activation=spec.activation,
                )
            )
            in_ch = cs.filters
        dense = DenseLayer(
            weights=np.empty((spec.dense_units, flat)),
            bias=np.empty(spec.dense_units),
            activation=spec.activation,
        )
        return convs, dense

    convs1, dense1 = build_stack()
    convs2, dense2 = build_stack()
    head = DenseLayer(
        weights=np.empty((spec.n_classes, 2 * spec.dense_units)),
        bias=np.empty(spec.n_classes),
        activation="identity",
    )
    return NetworkState(
        spec=spec, conv_stacks=(convs1, convs2), dense_layers=(dense1, dense2), head=head
    )


def init_network(spec: NetworkSpec, rng: np.random.Generator) -> NetworkState:
    """Uniform fan-in-scaled init (+-1/sqrt(fan_in)) in layers() order.

    A layer's fan-in is the size of one weight row; its bias shares the bound.
    """
    state = empty_network(spec)
    for _, layer in state.layers():
        bound = 1.0 / np.sqrt(np.prod(layer.weights.shape[1:]))
        layer.weights = rng.uniform(-bound, bound, size=layer.weights.shape)
        layer.bias = rng.uniform(-bound, bound, size=layer.bias.shape)
    return state


def _stack_forward(convs: list[Conv1dLayer], dense: DenseLayer, x: np.ndarray):
    """One channel: conv chain -> flatten -> dense. x: [batch, input_bins]."""
    act = x[:, None, :]
    conv_caches = []
    for layer in convs:
        pre, xcol, wmat = _conv_pre(act, layer)
        out = _activate(pre, layer.activation)
        conv_caches.append((act.shape, xcol, wmat, pre))
        act = out
    flat = act.reshape(act.shape[0], -1)
    pre_d = flat @ dense.weights.T + dense.bias
    hidden = _activate(pre_d, dense.activation)
    return hidden, (conv_caches, act.shape, flat, pre_d)


def forward(state: NetworkState, x: np.ndarray):
    """Full forward pass of x [batch, 2, input_bins]; returns (probs [batch, n_classes], cache)."""
    if x.ndim != 3 or x.shape[1] != 2:
        raise ValueError(f"network input must be [batch, 2, bins], got shape {x.shape}")
    (h1, cache1), (h2, cache2) = _run_stacks(
        _stack_forward,
        len(x),
        (state.conv_stacks[0], state.dense_layers[0], x[:, 0]),
        (state.conv_stacks[1], state.dense_layers[1], x[:, 1]),
    )
    fused = np.concatenate([h1, h2], axis=1)
    logits = fused @ state.head.weights.T + state.head.bias
    probs = softmax(logits)
    return probs, (cache1, cache2, fused, probs)


def _conv_backward(layer: Conv1dLayer, cache, d_pre: np.ndarray, need_dx: bool):
    in_shape, xcol, wmat, _ = cache
    n_batch, in_ch, m = in_shape
    n_filt, kernel, _ = layer.weights.shape
    out_len = d_pre.shape[2]
    dpre_flat = d_pre.transpose(0, 2, 1).reshape(n_batch * out_len, n_filt)
    dw = (xcol.T @ dpre_flat).reshape(kernel, in_ch, n_filt).transpose(2, 0, 1)
    db = d_pre.sum(axis=(0, 2))
    dx = None
    if need_dx:
        dxw = (dpre_flat @ wmat.T).reshape(n_batch, out_len, kernel, in_ch)
        # scattered in [batch, length, streams] order, so each tap adds whole rows
        dx = np.zeros((n_batch, m, in_ch))
        z = layer.stride
        for k in range(kernel):
            # windows at offset k are z apart, so the slice never overlaps itself
            dx[:, k : k + z * out_len : z] += dxw[:, :, k]
        dx = dx.transpose(0, 2, 1)
    return dw, db, dx


def _stack_backward(convs, dense, cache, d_hidden, prefix) -> dict[str, np.ndarray]:
    """Gradients of one channel stack, named `{prefix}.<layer>.<attr>`."""
    conv_caches, act_shape, flat, pre_d = cache
    grads = {}
    d_pre_d = _activate_backward(d_hidden, pre_d, dense.activation)
    grads[f"{prefix}.dense.weights"] = d_pre_d.T @ flat
    grads[f"{prefix}.dense.bias"] = d_pre_d.sum(axis=0)
    d_act = (d_pre_d @ dense.weights).reshape(act_shape)
    for i in range(len(convs) - 1, -1, -1):
        layer = convs[i]
        conv_cache = conv_caches[i]
        d_pre = _activate_backward(d_act, conv_cache[3], layer.activation)
        dw, db, dx = _conv_backward(layer, conv_cache, d_pre, need_dx=i > 0)
        grads[f"{prefix}.conv{i}.weights"] = dw
        grads[f"{prefix}.conv{i}.bias"] = db
        d_act = dx
    return grads


def backward(state: NetworkState, cache, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy w.r.t. every parameter.

    Keys match NetworkState.parameters() names; shapes mirror the parameters.
    """
    cache1, cache2, fused, probs = cache
    labels = np.asarray(labels, dtype=np.int64)
    n_batch = probs.shape[0]
    d_logits = probs.copy()
    d_logits[np.arange(n_batch), labels] -= 1.0
    d_logits /= n_batch

    grads: dict[str, np.ndarray] = {}
    grads["head.weights"] = d_logits.T @ fused
    grads["head.bias"] = d_logits.sum(axis=0)
    d_fused = d_logits @ state.head.weights
    d_units = state.spec.dense_units
    grads1, grads2 = _run_stacks(
        _stack_backward,
        n_batch,
        (state.conv_stacks[0], state.dense_layers[0], cache1, d_fused[:, :d_units], "ch1"),
        (state.conv_stacks[1], state.dense_layers[1], cache2, d_fused[:, d_units:], "ch2"),
    )
    return grads | grads1 | grads2


def loss_and_gradients(state: NetworkState, x, labels):
    """Forward + backward on one batch x [batch, 2, input_bins]; returns (loss, gradients)."""
    probs, cache = forward(state, x)
    loss = cross_entropy(probs, labels)
    grads = backward(state, cache, labels)
    return loss, grads
