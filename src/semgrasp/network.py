"""Two-channel 1D convolutional network on plain numpy, with manual backprop.

Architecture: each input channel runs through its own stack of valid (no
padding) strided 1D convolutions followed by one dense layer; the two dense
outputs are concatenated and a linear head produces six logits for softmax
classification. Both stacks share hyperparameters but own independent
weights, so forward and backward can run the ch2 stack on a worker thread
while the calling thread runs ch1. `backward` hands every gradient to an
update callable and returns none: each stack's on the thread that computed
them, once its last read of its weights is done, and the head's after both
stacks finish. A momentum update then makes the same ufunc calls on each
array as it would on the calling thread, so the weights are the same bytes.

Convolutions are evaluated as im2col matrix products so training stays fast
without any framework dependency. Every conv activation, cache and gradient
is a C-contiguous [batch, length, filters] array (channels-last): a conv's
im2col is one strided window view of its input, [batch, out_len, kernel *
streams] in tap-major then stream order, copied once by a reshape. The
flatten before each dense layer is the one transpose, to the filter-major
order the dense weights index, and backward undoes it once.

Results are reproducible for a given seed, code and BLAS kernel: all
reductions use a fixed summation order and OpenBLAS runs on one thread
(`_one_blas_thread`), but OpenBLAS picks its GEMM kernel by CPU model when
numpy loads it, and the kernel's summation order decides the last bits.
Five kernels on one host (the default SkylakeX, Haswell, SandyBridge,
Nehalem and Prescott, chosen through OPENBLAS_CORETYPE) trained five
different `model.bin` files from one seed.

The code is dtype-generic: the parameters' dtype decides the dtype of the
input, of every activation, cache and gradient. Training and inference run
float32 networks; `init_network` draws float64 parameters, so the gradient
checks run in float64 through the same code. `softmax` always returns
float64 probabilities, so rows sum to one to float64 precision whatever the
network's dtype.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import queue
import signal
import sys
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

PROB_FLOOR = 1e-12
# the six grasp types in class-index order; the head has one logit per label
LABELS = ("C", "T", "L", "H", "P", "S")


_ch2_jobs: queue.SimpleQueue | None = None


def _ch2_queue() -> queue.SimpleQueue:
    """The job queue of the thread that runs the ch2 stack, started on first use.

    The thread is a daemon: the interpreter does not wait on it at exit, so an
    interrupt that lands while it starts, or while a caller holds one of the
    locks it shares, cannot hang the exit. It keeps SIGINT blocked, so an
    interrupt is delivered to the main thread alone, and code that blocks it
    there (dataset._read_records) defers it. Started at import instead, it
    raised the peak RSS of a `train` run by about 2.8 MB (4%).
    """
    global _ch2_jobs
    if _ch2_jobs is None:
        jobs = queue.SimpleQueue()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            threading.Thread(target=_ch2_worker, args=(jobs,), name="semgrasp-ch2",
                             daemon=True).start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _ch2_jobs = jobs
    return _ch2_jobs


def _ch2_worker(jobs: queue.SimpleQueue) -> None:
    while True:
        future, fn, args = jobs.get()
        try:
            future.set_result(fn(*args))
        except BaseException as e:
            future.set_exception(e)
        del future, fn, args  # a finished job's arrays do not wait for the next job


def _forget_ch2_thread() -> None:
    """A forked child has no copy of the thread, so it starts its own on first use;
    a reader worker, which makes no network call, starts none."""
    global _ch2_jobs
    _ch2_jobs = None


os.register_at_fork(after_in_child=_forget_ch2_thread)

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
    future = Future()
    _ch2_queue().put((future, contextvars.copy_context().run, (fn, *ch2_args)))
    try:
        out1 = fn(*ch1_args)
    finally:
        future.exception()  # wait, so no stack outlives the call
    return out1, future.result()


def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions in the library numpy loaded, or None."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                 "openblas_%s_num_threads"):
        if hasattr(lib, name % "set"):
            return getattr(lib, name % "get"), getattr(lib, name % "set")
    return None


_BLAS_THREADS = _openblas_threads()


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, whose sums do not depend on the thread count,
    then restore the count. Writes nothing if it is 1 or numpy runs on another BLAS."""
    previous = _BLAS_THREADS[0]() if _BLAS_THREADS else 1
    if previous != 1:
        _BLAS_THREADS[1](1)
    try:
        yield
    finally:
        if previous != 1:
            _BLAS_THREADS[1](previous)


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    """The activation of pre, computed in place."""
    if kind == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if kind == "identity":
        return pre
    raise ValueError(f"unknown activation {kind!r}")


def _activate_backward(
    d_out: np.ndarray, out: np.ndarray, kind: str, owned: bool = False
) -> np.ndarray:
    """Gradient w.r.t. the pre-activation, given the activation's output and the
    gradient w.r.t. it. relu(pre) > 0 exactly where pre > 0, NaN included.
    owned: d_out is the caller's own buffer, in out's index order; it is masked in place."""
    if kind == "relu":
        if not owned:
            # in out's memory layout, which fixes the summation order of the bias
            # gradients; copying first keeps the masking multiply contiguous
            d_pre = np.empty_like(out)
            np.copyto(d_pre, d_out)
            d_out = d_pre
        d_out *= out > 0.0
        return d_out
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
    """Pre-activation of a conv layer, [batch, out_len, filters]. x: [batch, length, streams]."""
    if x.ndim != 3:
        raise ValueError(f"conv input must be [batch, length, streams], got shape {x.shape}")
    n_batch, m, n_streams = x.shape
    n_filt, kernel, in_ch = layer.weights.shape
    if n_streams != in_ch:
        raise ValueError(f"conv expects {in_ch} input streams, got {n_streams}")
    out_len = conv_output_length(m, kernel, layer.stride)
    # window j is the kernel * streams values from position stride * j, tap-major
    # then stream, which is wmat's K order; the reshape below is the only copy
    sb, sl, ss = x.strides
    xw = as_strided(x, (n_batch, out_len, kernel, in_ch), (sb, layer.stride * sl, sl, ss),
                    writeable=False)
    xcol = xw.reshape(n_batch * out_len, kernel * in_ch)
    wmat = layer.weights.transpose(1, 2, 0).reshape(kernel * in_ch, n_filt)
    pre = xcol @ wmat
    pre += layer.bias
    return pre.reshape(n_batch, out_len, n_filt), xcol, wmat


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis, in float64; rows sum to one."""
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
    n_classes: int = field(default=len(LABELS), init=False)
    activation: str = "relu"

    def __post_init__(self):
        _check_sizes(self, ("input_bins", "dense_units"))
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"activation must be 'relu' or 'identity', got {self.activation!r}")

    def to_json(self) -> dict:
        """The JSON form of the run config's network section and the bundle's network entry."""
        return {**asdict(self), "conv_layers": [list(astuple(c)) for c in self.conv_layers]}

    @classmethod
    def from_json(cls, obj: dict) -> NetworkSpec:
        """The spec of a to_json form without its constant fields (the run config's
        network section, or a bundle's once model_io has checked and removed them);
        each conv layer must be [filters, kernel, stride]."""
        conv = obj["conv_layers"]
        if not (isinstance(conv, list) and all(isinstance(c, list) and len(c) == 3 for c in conv)):
            raise ValueError(f"conv_layers must be [filters, kernel, stride] lists, got {conv!r}")
        return cls(**{**obj, "conv_layers": [ConvSpec(*c) for c in conv]})

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


def cast_network(state: NetworkState, dtype) -> NetworkState:
    """A copy of state with every parameter array converted to dtype."""
    cast = empty_network(state.spec)
    for (_, dst), (_, src) in zip(cast.layers(), state.layers()):
        dst.weights, dst.bias = src.weights.astype(dtype), src.bias.astype(dtype)
    return cast


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
    act = x[:, :, None]
    conv_caches = []
    for layer in convs:
        pre, xcol, wmat = _conv_pre(act, layer)
        out = _activate(pre, layer.activation)
        conv_caches.append((act.shape, xcol, wmat, out))
        act = out
    # the one transpose: the dense layer reads the activation filter-major
    flat = act.transpose(0, 2, 1).reshape(act.shape[0], -1)
    pre_d = flat @ dense.weights.T
    pre_d += dense.bias
    hidden = _activate(pre_d, dense.activation)
    return hidden, (conv_caches, act.shape, flat, hidden)


def _stack_chunks(convs: list[Conv1dLayer], dense: DenseLayer, x: np.ndarray, chunk: int):
    """One stack's dense outputs for x, forwarded `chunk` rows at a time; caches are dropped."""
    return [_stack_forward(convs, dense, x[start : start + chunk])[0]
            for start in range(0, len(x), chunk)]


def _head(head: DenseLayer, h1: np.ndarray, h2: np.ndarray):
    """(fused, probs) of the two stacks' dense outputs."""
    fused = np.concatenate([h1, h2], axis=1)
    return fused, softmax(fused @ head.weights.T + head.bias)


def forward(state: NetworkState, x: np.ndarray, chunk: int | None = None):
    """Full forward pass of x [batch, 2, input_bins]; returns (probs [batch, n_classes], cache).

    x is converted to the parameters' dtype; probs are float64. With chunk,
    the cache is None and each stack runs over all of x, `chunk` rows per
    pass, with one hand-off to the worker thread for the whole set; then the
    head runs on each chunk. Every row gets the numpy calls it would get in
    forward(state, x[start : start + chunk]), so the probabilities are the same bytes.
    """
    if x.ndim != 3 or x.shape[1] != 2:
        raise ValueError(f"network input must be [batch, 2, bins], got shape {x.shape}")
    x = x.astype(state.head.weights.dtype, copy=False)
    ch1 = (state.conv_stacks[0], state.dense_layers[0], x[:, 0])
    ch2 = (state.conv_stacks[1], state.dense_layers[1], x[:, 1])
    if chunk is not None:
        hidden1, hidden2 = _run_stacks(_stack_chunks, len(x), (*ch1, chunk), (*ch2, chunk))
        return np.vstack([_head(state.head, h1, h2)[1] for h1, h2 in zip(hidden1, hidden2)]), None
    (h1, cache1), (h2, cache2) = _run_stacks(_stack_forward, len(x), ch1, ch2)
    fused, probs = _head(state.head, h1, h2)
    return probs, (cache1, cache2, fused, probs)


def _conv_backward(layer: Conv1dLayer, cache, d_pre: np.ndarray, need_dx: bool):
    """(dw, db, dx) of a conv layer. d_pre: [batch, out_len, filters]; dx: [batch, length,
    streams], or None without need_dx."""
    in_shape, xcol, wmat, _ = cache
    n_batch, m, in_ch = in_shape
    n_filt, kernel, _ = layer.weights.shape
    out_len = d_pre.shape[1]
    dpre_flat = d_pre.reshape(n_batch * out_len, n_filt)
    dw = (xcol.T @ dpre_flat).reshape(kernel, in_ch, n_filt).transpose(2, 0, 1)
    db = d_pre.sum(axis=(0, 1))
    dx = None
    if need_dx:
        # Window j covers positions z*j .. z*j + kernel - 1, so taps g*z .. g*z + z - 1
        # land on the z adjacent positions from z*(j + g): over rows of z positions,
        # each group of z taps adds whole [z * streams] rows. Every position still
        # sums its taps in increasing k.
        z = layer.stride
        groups = -(-kernel // z)
        taps = (dpre_flat @ wmat.T).reshape(n_batch, out_len, kernel * in_ch)
        dx = np.zeros((n_batch, max(out_len + groups - 1, -(-m // z)), z * in_ch), taps.dtype)
        for g in range(groups):
            cols = taps[:, :, g * z * in_ch : (g + 1) * z * in_ch]
            dx[:, g : g + out_len, : cols.shape[2]] += cols
        dx = dx.reshape(n_batch, -1, in_ch)[:, :m]
    return dw, db, dx


def _stack_backward(convs, dense, cache, d_hidden, prefix, update) -> None:
    """Hands update the gradients of one channel stack, named `{prefix}.<layer>.<attr>`.

    update is called on them last, on this thread: every read of the stack's
    weights is done by then.
    """
    conv_caches, act_shape, flat, hidden = cache
    grads = {}
    d_pre_d = _activate_backward(d_hidden, hidden, dense.activation)
    grads[f"{prefix}.dense.weights"] = d_pre_d.T @ flat
    grads[f"{prefix}.dense.bias"] = d_pre_d.sum(axis=0)
    n_batch, length, streams = act_shape
    # the flatten's transpose, undone
    d_act = (d_pre_d @ dense.weights).reshape(n_batch, streams, length).transpose(0, 2, 1)
    for i in range(len(convs) - 1, -1, -1):
        layer = convs[i]
        conv_cache = conv_caches[i]
        # below the last conv, d_act is the input gradient _conv_backward just built
        d_pre = _activate_backward(d_act, conv_cache[3], layer.activation, i < len(convs) - 1)
        dw, db, dx = _conv_backward(layer, conv_cache, d_pre, need_dx=i > 0)
        grads[f"{prefix}.conv{i}.weights"] = dw
        grads[f"{prefix}.conv{i}.bias"] = db
        d_act = dx
    update(grads)


def backward(state: NetworkState, cache, labels: np.ndarray, update) -> None:
    """Hands update the gradients of the mean cross-entropy w.r.t. every parameter.

    update(grads) is called three times, with disjoint dicts whose keys are
    NetworkState.parameters() names and whose arrays mirror the parameters'
    shapes: once per stack, on the thread that computed that stack's
    gradients, and once for the head's, on the calling thread after both
    stacks finish. It may overwrite the gradients it is given, for example
    to scale them in place.
    """
    cache1, cache2, fused, probs = cache
    labels = np.asarray(labels, dtype=np.int64)
    n_batch = probs.shape[0]
    d_logits = probs.copy()
    d_logits[np.arange(n_batch), labels] -= 1.0
    d_logits /= n_batch
    # the float64 softmax gradient, back in the parameters' dtype for the rest of the pass
    d_logits = d_logits.astype(state.head.weights.dtype, copy=False)

    grads: dict[str, np.ndarray] = {}
    grads["head.weights"] = d_logits.T @ fused
    grads["head.bias"] = d_logits.sum(axis=0)
    d_fused = d_logits @ state.head.weights
    d_units = state.spec.dense_units
    _run_stacks(
        _stack_backward,
        n_batch,
        (state.conv_stacks[0], state.dense_layers[0], cache1, d_fused[:, :d_units], "ch1",
         update),
        (state.conv_stacks[1], state.dense_layers[1], cache2, d_fused[:, d_units:], "ch2",
         update),
    )
    update(grads)


def loss_and_gradients(state: NetworkState, x, labels, update):
    """Forward + backward on one batch x [batch, 2, input_bins]; backward hands
    update the gradients (see backward).

    Returns (loss, probs [batch, n_classes]); the forward cache is released
    on return, so only the small probability array outlives the call.
    """
    probs, cache = forward(state, x)
    loss = cross_entropy(probs, labels)
    backward(state, cache, labels, update)
    return loss, probs
