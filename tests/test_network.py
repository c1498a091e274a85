import multiprocessing
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from helpers import fd_gradient_check, gradients

from semgrasp import network
from semgrasp.network import (
    Conv1dLayer,
    ConvSpec,
    LABELS,
    DenseLayer,
    NetworkSpec,
    _conv_backward,
    _conv_pre,
    _stack_backward,
    _stack_forward,
    backward,
    cast_network,
    conv_output_length,
    cross_entropy,
    empty_network,
    forward,
    init_network,
    softmax,
)


def _desk_spec(bins=8, conv_layers=None):
    return NetworkSpec(
        input_bins=bins,
        conv_layers=conv_layers or [ConvSpec(2, 3, 1)],
        dense_units=4,
    )


def _desk_net(seed=0, bins=8, batch=3, conv_layers=None):
    rng = np.random.default_rng(seed)
    state = init_network(_desk_spec(bins, conv_layers), rng)
    x1 = rng.standard_normal((batch, bins))
    x2 = rng.standard_normal((batch, bins))
    y = rng.integers(0, 6, size=batch)
    return state, np.stack([x1, x2], axis=1), y


def _identity_conv():
    """Width-1 conv that passes its single input stream through unchanged."""
    return Conv1dLayer(
        weights=np.ones((1, 1, 1)), bias=np.zeros(1), stride=1, activation="identity"
    )


def _identity_dense(width):
    return DenseLayer(weights=np.eye(width), bias=np.zeros(width), activation="identity")


# --------------------------------------------------------------------- dense
# a width-1 identity conv in front isolates the dense layer of a stack


def _dense(layer, x):
    hidden, _ = _stack_forward([_identity_conv()], layer, np.atleast_2d(x))
    return hidden


def test_dense_identity_map():
    x = np.array([[1.0, -2.0, 3.0, 0.5]])
    np.testing.assert_array_equal(_dense(_identity_dense(4), x), x)


def test_dense_hand_arithmetic():
    layer = DenseLayer(weights=np.array([[2.0]]), bias=np.array([3.0]), activation="identity")
    np.testing.assert_array_equal(_dense(layer, np.array([5.0])), np.array([[13.0]]))


def test_dense_relu_kills_negative_preactivations():
    layer = DenseLayer(weights=-np.eye(3), bias=np.zeros(3), activation="relu")
    out = _dense(layer, np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_dense_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        _dense(_identity_dense(3), np.zeros((2, 4)))


# ---------------------------------------------------------------------- conv


def _conv(layer, x):
    pre, _, _ = _conv_pre(x, layer)
    return pre


def test_conv_width_one_kernel_is_identity():
    x = np.array([[[1.0], [-2.0], [3.0], [4.0]]])
    np.testing.assert_array_equal(_conv(_identity_conv(), x), x)


def test_conv_sliding_sum_by_hand():
    layer = Conv1dLayer(
        weights=np.ones((1, 2, 1)), bias=np.zeros(1), stride=1, activation="identity"
    )
    x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
    np.testing.assert_array_equal(_conv(layer, x), np.array([[[3.0], [5.0], [7.0]]]))


def test_conv_output_length_formula():
    assert conv_output_length(10, 3, 2) == 4
    layer = Conv1dLayer(
        weights=np.ones((1, 3, 1)), bias=np.zeros(1), stride=2, activation="identity"
    )
    out = _conv(layer, np.zeros((1, 10, 1)))
    assert out.shape == (1, 4, 1)


def test_conv_kernel_wider_than_input_errors():
    layer = Conv1dLayer(weights=np.ones((1, 5, 1)), bias=np.zeros(1), stride=1)
    with pytest.raises(ValueError, match="kernel width"):
        _conv(layer, np.zeros((1, 4, 1)))
    with pytest.raises(ValueError, match="streams"):
        _conv(
            Conv1dLayer(weights=np.ones((1, 2, 2)), bias=np.zeros(1), stride=1),
            np.zeros((1, 4, 1)),
        )


def test_multistream_single_layer_equals_conv_forward():
    rng = np.random.default_rng(5)
    layer = Conv1dLayer(
        weights=rng.standard_normal((3, 2, 1)), bias=rng.standard_normal(3), stride=1
    )
    x = rng.standard_normal((2, 7))
    hidden, _ = _stack_forward([layer], _identity_dense(3 * 6), x)
    # the dense layer reads the conv output filter-major
    expected = np.maximum(_conv(layer, x[:, :, None]), 0.0).transpose(0, 2, 1).reshape(2, -1)
    np.testing.assert_array_equal(hidden, expected)


def test_multistream_two_layers_hand_expansion():
    # all-ones kernels of width 2, identity activation, on [1..6]:
    # first layer:  [3,5,7,9,11]; second layer: [8,12,16,20]
    mk = lambda: Conv1dLayer(
        weights=np.ones((1, 2, 1)), bias=np.zeros(1), stride=1, activation="identity"
    )
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    out, _ = _stack_forward([mk(), mk()], _identity_dense(4), x)
    np.testing.assert_array_equal(out, np.array([[8.0, 12.0, 16.0, 20.0]]))


def test_conv_matches_brute_force_sliding_window():
    # direct triple loop over filters, positions and taps as the oracle
    rng = np.random.default_rng(13)
    for _ in range(20):
        batch = int(rng.integers(1, 4))
        in_ch = int(rng.integers(1, 4))
        length = int(rng.integers(5, 20))
        kernel = int(rng.integers(1, min(5, length) + 1))
        stride = int(rng.integers(1, 4))
        filters = int(rng.integers(1, 4))
        layer = Conv1dLayer(
            weights=rng.standard_normal((filters, kernel, in_ch)),
            bias=rng.standard_normal(filters),
            stride=stride,
            activation="identity",
        )
        x = rng.standard_normal((batch, length, in_ch))
        out = _conv(layer, x)
        out_len = (length - kernel) // stride + 1
        for b in range(batch):
            for f in range(filters):
                for s in range(out_len):
                    acc = layer.bias[f]
                    for k in range(kernel):
                        for c in range(in_ch):
                            acc += layer.weights[f, k, c] * x[b, s * stride + k, c]
                    assert out[b, s, f] == pytest.approx(acc, rel=1e-12, abs=1e-12)


def test_multistream_shape_oracle_random_stacks():
    rng = np.random.default_rng(11)
    for _ in range(50):
        length = int(rng.integers(16, 64))
        n_layers = int(rng.integers(1, 4))
        layers = []
        in_ch = 1
        expected = length
        ok = True
        for _ in range(n_layers):
            kernel = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 4))
            filters = int(rng.integers(1, 5))
            if kernel > expected:
                ok = False
                break
            layers.append(
                Conv1dLayer(
                    weights=rng.standard_normal((filters, kernel, in_ch)),
                    bias=rng.standard_normal(filters),
                    stride=stride,
                )
            )
            expected = (expected - kernel) // stride + 1
            in_ch = filters
        if not ok:
            continue
        dense = _identity_dense(in_ch * expected)
        hidden, (_, last_shape, _, _) = _stack_forward(
            layers, dense, rng.standard_normal((2, length))
        )
        assert last_shape == (2, expected, in_ch)
        assert hidden.shape == (2, in_ch * expected)


# ----------------------------------------------------------- softmax and loss


def test_softmax_uniform_logits():
    np.testing.assert_allclose(softmax(np.zeros(6)), np.full(6, 1 / 6), rtol=1e-15)


def test_softmax_large_logits_stable():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_shift_invariance_and_sum():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 6))
    a = softmax(logits)
    b = softmax(logits + 123.456)
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((a > 0) & (a < 1))


def test_cross_entropy_perfect_prediction_zero_loss():
    probs = np.zeros((1, 6))
    probs[0, 2] = 1.0
    assert cross_entropy(probs, [2]) == 0.0


def test_cross_entropy_uniform_is_log6():
    assert cross_entropy(np.full((1, 6), 1 / 6), [4]) == pytest.approx(np.log(6), rel=1e-12)


def test_cross_entropy_monotone_in_true_probability():
    losses = []
    for p in (0.9, 0.7, 0.5, 0.3, 0.1, 0.01):
        probs = np.full((1, 6), (1 - p) / 5)
        probs[0, 0] = p
        losses.append(cross_entropy(probs, [0]))
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_cross_entropy_batch_average_and_mismatch():
    probs = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 2 / 6]])
    expected = 0.5 * (0.0 - np.log(1 / 6))
    assert cross_entropy(probs, [0, 1]) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        cross_entropy(probs, [0])


# ------------------------------------------------------------------ backward


def test_gradients_match_finite_differences():
    for seed in range(3):
        state, x, y = _desk_net(seed)
        assert fd_gradient_check(state, x, y) < 1e-4


def test_gradients_through_strided_conv_input_match_finite_differences():
    # a second, strided conv makes backward scatter an input gradient into the first
    for seed in range(3):
        state, x, y = _desk_net(
            seed, bins=12, conv_layers=[ConvSpec(2, 3, 1), ConvSpec(3, 3, 2)]
        )
        assert fd_gradient_check(state, x, y) < 1e-4


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_conv_input_gradient_scatters_each_tap_in_order(stride):
    # reference: one tap at a time into a zeroed buffer, so every position sums
    # its taps in increasing order; kernels narrower than the stride leave gaps
    rng = np.random.default_rng(stride)
    for kernel in range(1, 7):
        for length in range(kernel, kernel + 2 * stride + 2):
            layer = Conv1dLayer(
                weights=rng.standard_normal((3, kernel, 2)).astype(np.float32),
                bias=np.zeros(3, np.float32),
                stride=stride,
            )
            x = rng.standard_normal((2, length, 2)).astype(np.float32)
            pre, xcol, wmat = _conv_pre(x, layer)
            d_pre = rng.standard_normal(pre.shape).astype(np.float32)
            _, _, dx = _conv_backward(layer, (x.shape, xcol, wmat, pre), d_pre, need_dx=True)
            out_len = pre.shape[1]
            taps = (d_pre @ wmat.T).reshape(2, out_len, kernel, 2)
            expected = np.zeros((2, length, 2), np.float32)
            for k in range(kernel):
                expected[:, k : k + stride * out_len : stride] += taps[:, :, k]
            assert dx.shape == x.shape
            assert np.array_equal(dx, expected), (kernel, length)


def _streams_first_conv_pre(x, layer):
    """_conv_pre's formulas for the former [batch, streams, length] layout."""
    n_batch, in_ch, m = x.shape
    n_filt, kernel, _ = layer.weights.shape
    out_len = conv_output_length(m, kernel, layer.stride)
    xw = sliding_window_view(x, kernel, axis=2)[:, :, :: layer.stride]
    xcol = xw.transpose(0, 2, 3, 1).reshape(n_batch * out_len, kernel * in_ch)
    wmat = layer.weights.transpose(1, 2, 0).reshape(kernel * in_ch, n_filt)
    pre = xcol @ wmat
    pre += layer.bias
    return pre.reshape(n_batch, out_len, n_filt).transpose(0, 2, 1), xcol, wmat


def _streams_first_conv_backward(layer, in_shape, xcol, wmat, d_pre):
    """_conv_backward's formulas for the former layout: d_pre [batch, filters, out_len],
    dx [batch, streams, length]."""
    n_batch, in_ch, m = in_shape
    n_filt, kernel, _ = layer.weights.shape
    out_len = d_pre.shape[2]
    dpre_flat = d_pre.transpose(0, 2, 1).reshape(n_batch * out_len, n_filt)
    dw = (xcol.T @ dpre_flat).reshape(kernel, in_ch, n_filt).transpose(2, 0, 1)
    db = d_pre.sum(axis=(0, 2))
    z = layer.stride
    groups = -(-kernel // z)
    taps = (dpre_flat @ wmat.T).reshape(n_batch, out_len, kernel * in_ch)
    dx = np.zeros((n_batch, max(out_len + groups - 1, -(-m // z)), z * in_ch), taps.dtype)
    for g in range(groups):
        cols = taps[:, :, g * z * in_ch : (g + 1) * z * in_ch]
        dx[:, g : g + out_len, : cols.shape[2]] += cols
    return dw, db, dx.reshape(n_batch, -1, in_ch)[:, :m].transpose(0, 2, 1)


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("streams", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channels_last_conv_is_bit_identical_to_streams_first(dtype, streams, batch):
    # the same sums in the same order: only the activations' index order changed.
    # The former layout held each activation in [batch, length, streams] memory
    # viewed as [batch, streams, length], so both sides get the same d_pre memory
    rng = np.random.default_rng([batch, streams])
    for stride in range(1, 5):
        for kernel in range(1, 7):
            for length in [*range(kernel, kernel + 2 * stride + 2), 61, 128]:
                layer = Conv1dLayer(
                    weights=rng.standard_normal((4, kernel, streams)).astype(dtype),
                    bias=rng.standard_normal(4).astype(dtype),
                    stride=stride,
                )
                x = rng.standard_normal((batch, length, streams)).astype(dtype)
                pre, xcol, wmat = _conv_pre(x, layer)
                ref_pre, ref_xcol, ref_wmat = _streams_first_conv_pre(x.transpose(0, 2, 1), layer)
                where = (stride, kernel, length)
                assert np.array_equal(xcol, ref_xcol) and np.array_equal(wmat, ref_wmat), where
                assert pre.flags.c_contiguous and np.array_equal(pre, ref_pre.transpose(0, 2, 1))
                d_pre = rng.standard_normal(pre.shape).astype(dtype)
                dw, db, dx = _conv_backward(layer, (x.shape, xcol, wmat, pre), d_pre, True)
                ref_dw, ref_db, ref_dx = _streams_first_conv_backward(
                    layer, (batch, streams, length), ref_xcol, ref_wmat, d_pre.transpose(0, 2, 1)
                )
                assert np.array_equal(dw, ref_dw) and np.array_equal(db, ref_db), where
                assert dx.shape == x.shape and np.array_equal(dx, ref_dx.transpose(0, 2, 1)), where
                assert {a.dtype for a in (pre, dw, db, dx)} == {np.dtype(dtype)}


def test_zero_loss_batch_has_stationary_head_bias():
    state, x, _ = _desk_net(1)
    y = np.array([2, 2, 2])
    state.head.bias[2] += 1000.0  # drives the softmax to an exact one-hot
    probs, _ = forward(state, x)
    assert probs[:, 2] == pytest.approx(1.0, abs=1e-12)
    grads = gradients(state, x, y)
    assert np.abs(grads["head.bias"]).max() < 1e-8


def test_batch_duplication_is_additive_before_averaging():
    state, x, _ = _desk_net(4, batch=2)
    ga = gradients(state, x[:1], [0])
    gb = gradients(state, x[1:], [3])
    gab = gradients(state, x, [0, 3])
    gaab = gradients(state, np.vstack([x[:1], x]), [0, 0, 3])
    for name in ga:
        np.testing.assert_allclose(gab[name], (ga[name] + gb[name]) / 2, atol=1e-12)
        np.testing.assert_allclose(gaab[name], (2 * ga[name] + gb[name]) / 3, atol=1e-12)


@pytest.mark.parametrize("batch", [3, 20])  # 3 runs the stacks in turn, 20 together
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_parameter_dtype_decides_every_activation_and_gradient(dtype, batch):
    # a silent upcast to float64 would keep results right and lose float32's speed
    state, x, y = _desk_net(
        batch=batch, bins=12, conv_layers=[ConvSpec(2, 3, 1), ConvSpec(3, 3, 2)]
    )
    state = cast_network(state, dtype)
    assert x.dtype == np.float64  # forward converts its input
    probs, (cache1, cache2, fused, _) = forward(state, x)
    assert probs.dtype == np.float64
    cached = [fused]
    for conv_caches, _, flat, pre_d in (cache1, cache2):
        cached += [flat, pre_d]
        for _, xcol, wmat, pre in conv_caches:
            cached += [xcol, wmat, pre]
    assert [a.dtype for a in cached] == [np.dtype(dtype)] * len(cached)
    grads = gradients(state, x, y)
    for name, param in state.parameters():
        assert param.dtype == dtype, name
        assert grads[name].dtype == dtype, name
    # the input gradient that conv1 scatters back to conv0
    conv1_cache = cache1[0][1]
    _, _, dx = _conv_backward(state.conv_stacks[0][1], conv1_cache, conv1_cache[3], need_dx=True)
    assert dx.dtype == dtype


def test_cast_network_copies_every_parameter():
    state, _, _ = _desk_net()
    cast = cast_network(state, np.float32)
    for (name, a), (cast_name, b) in zip(state.parameters(), cast.parameters()):
        assert name == cast_name and b.dtype == np.float32
        np.testing.assert_array_equal(b, a.astype(np.float32))
    cast.head.bias[0] += 1.0
    assert state.head.bias[0] != cast.head.bias[0]


# ------------------------------------------------------ channel-stack thread


def _sequential_forward_backward(state, x, y):
    """forward + backward with the two stacks composed on the calling thread."""
    h1, cache1 = _stack_forward(state.conv_stacks[0], state.dense_layers[0], x[:, 0])
    h2, cache2 = _stack_forward(state.conv_stacks[1], state.dense_layers[1], x[:, 1])
    fused = np.concatenate([h1, h2], axis=1)
    probs = softmax(fused @ state.head.weights.T + state.head.bias)
    d_logits = probs.copy()
    d_logits[np.arange(len(y)), y] -= 1.0
    d_logits /= len(y)
    grads = {"head.weights": d_logits.T @ fused, "head.bias": d_logits.sum(axis=0)}
    d_fused = d_logits @ state.head.weights
    d = state.spec.dense_units
    _stack_backward(
        state.conv_stacks[0], state.dense_layers[0], cache1, d_fused[:, :d], "ch1", grads.update
    )
    _stack_backward(
        state.conv_stacks[1], state.dense_layers[1], cache2, d_fused[:, d:], "ch2", grads.update
    )
    return probs, grads


@pytest.mark.parametrize("batch", [1, 32, 256])  # 1 runs the stacks in turn, 32 and 256 together
def test_threaded_stacks_bit_identical_to_sequential(batch):
    rng = np.random.default_rng(batch)
    state = init_network(NetworkSpec(input_bins=128), rng)
    x = rng.standard_normal((2, batch, 128)).transpose(1, 0, 2)
    y = rng.integers(0, 6, size=batch)
    expected_probs, expected_grads = _sequential_forward_backward(state, x, y)
    probs, cache = forward(state, x)
    calls = []  # (thread, gradients) of each update call
    backward(state, cache, y, lambda grads: calls.append((threading.current_thread(), grads)))
    assert np.array_equal(probs, expected_probs)
    # one call per stack and one for the head, last and on this thread; together
    # they deliver every parameter's gradient exactly once
    assert len(calls) == 3
    delivered = [name for _, grads in calls for name in grads]
    assert sorted(delivered) == sorted(name for name, _ in state.parameters())
    assert calls[-1][0] is threading.current_thread()
    assert set(calls[-1][1]) == {"head.weights", "head.bias"}
    for _, grads in calls:
        for name, g in grads.items():
            assert np.array_equal(g, expected_grads[name]), name


def test_ch2_stack_error_reaches_caller_unchanged(monkeypatch):
    state, x, y = _desk_net(batch=network._CONCURRENT_MIN_ROWS)
    error = ValueError("ch2 stack failed")
    raised_on = []
    real_forward, real_backward = _stack_forward, _stack_backward

    def failing_forward(convs, dense, x):
        if dense is state.dense_layers[1]:
            raised_on.append(threading.current_thread().name)
            raise error
        return real_forward(convs, dense, x)

    def failing_backward(convs, dense, cache, d_hidden, prefix, update):
        if prefix == "ch2":
            raised_on.append(threading.current_thread().name)
            raise error
        return real_backward(convs, dense, cache, d_hidden, prefix, update)

    _, cache = forward(state, x)
    monkeypatch.setattr(network, "_stack_forward", failing_forward)
    monkeypatch.setattr(network, "_stack_backward", failing_backward)
    with pytest.raises(ValueError) as info:
        forward(state, x)
    assert info.value is error
    with pytest.raises(ValueError) as info:
        backward(state, cache, y, {}.update)
    assert info.value is error
    assert len(raised_on) == 2
    assert threading.current_thread().name not in raised_on
    # an update that fails on the ch2 stack's gradients, on the ch2 thread,
    # reaches the caller once ch1's update has run too, and the head's never runs
    monkeypatch.undo()
    updated = []

    def failing_update(grads):
        first = next(iter(grads))
        if first.startswith("ch2."):
            raised_on.append(threading.current_thread().name)
            raise error
        updated.append(first.split(".")[0])

    with pytest.raises(ValueError) as info:
        backward(state, cache, y, failing_update)
    assert info.value is error
    assert updated == ["ch1"]
    assert len(raised_on) == 3 and raised_on[-1] != threading.current_thread().name
    # a real numpy error in ch2 only: its dense layer has the wrong width
    monkeypatch.undo()
    state.dense_layers[1].weights = state.dense_layers[1].weights[:, :-1]
    with pytest.raises(ValueError, match="mismatch"):
        forward(state, x)


def test_ch2_stack_runs_in_callers_numpy_error_state():
    state, x, _ = _desk_net(batch=network._CONCURRENT_MIN_ROWS)
    state.dense_layers[1].weights[:] = 1e308  # overflows in the ch2 stack only
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            forward(state, x)


def test_concurrent_callers_get_sequential_results():
    state, x, y = _desk_net(3, batch=network._CONCURRENT_MIN_ROWS)
    expected = gradients(state, x, y)
    results = []

    def worker():
        for _ in range(20):
            results.append(gradients(state, x, y))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(results) == 80
    for grads in results:
        for name, g in expected.items():
            assert np.array_equal(grads[name], g), name


def _forward_matches(state, x, expected):
    if not np.array_equal(forward(state, x)[0], expected):
        raise SystemExit(1)


def test_forked_child_runs_its_own_stack_thread():
    state, x, _ = _desk_net(2, batch=network._CONCURRENT_MIN_ROWS)
    expected = forward(state, x)[0]  # the parent's worker thread now exists
    child = multiprocessing.get_context("fork").Process(
        target=_forward_matches, args=(state, x, expected)
    )
    child.start()
    try:
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        child.kill()


# ----------------------------------------------------------------- invariants


def test_one_blas_thread_pins_the_count_and_restores_it(monkeypatch):
    if network._BLAS_THREADS is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    get, set_threads = network._BLAS_THREADS
    before = get()
    try:
        set_threads(2)
        outside = get()  # 2, or fewer if OpenBLAS caps it at the core count
        with network._one_blas_thread():
            assert get() == 1
            with network._one_blas_thread():  # a nested call writes nothing
                assert get() == 1
            assert get() == 1
        assert get() == outside
    finally:
        set_threads(before)
    monkeypatch.setattr(network, "_BLAS_THREADS", None)  # another BLAS: nothing to set
    with network._one_blas_thread():
        pass


def test_channel_swap_symmetry():
    state, x, _ = _desk_net(6)
    base, _ = forward(state, x)
    d = state.spec.dense_units
    swapped = NetworkSpec(
        input_bins=state.spec.input_bins,
        conv_layers=state.spec.conv_layers,
        dense_units=d,
    )
    from semgrasp.network import NetworkState

    head = DenseLayer(
        weights=np.concatenate([state.head.weights[:, d:], state.head.weights[:, :d]], axis=1),
        bias=state.head.bias.copy(),
        activation="identity",
    )
    mirrored = NetworkState(
        spec=swapped,
        conv_stacks=(state.conv_stacks[1], state.conv_stacks[0]),
        dense_layers=(state.dense_layers[1], state.dense_layers[0]),
        head=head,
    )
    out, _ = forward(mirrored, x[:, ::-1])
    np.testing.assert_allclose(out, base, atol=1e-10)


def test_forward_refuses_input_without_a_channel_axis():
    state, x, _ = _desk_net(8)
    for bad in (x[:, 0], x[:, :1], np.concatenate([x, x], axis=1)):
        with pytest.raises(ValueError, match=r"\[batch, 2, bins\]"):
            forward(state, bad)


def test_head_permutation_equivariance():
    state, x, _ = _desk_net(7)
    base, _ = forward(state, x)
    perm = np.array([3, 0, 5, 1, 4, 2])
    state.head.weights[:] = state.head.weights[perm]
    state.head.bias[:] = state.head.bias[perm]
    out, _ = forward(state, x)
    np.testing.assert_allclose(out, base[:, perm], atol=1e-12)


def test_initial_loss_near_uniform():
    lo, hi = 0.8 * np.log(6), 1.3 * np.log(6)
    spec = NetworkSpec(input_bins=32, conv_layers=[ConvSpec(8, 5, 1)], dense_units=16)
    data_rng = np.random.default_rng(999)
    x1 = data_rng.standard_normal((36, 32))
    x2 = data_rng.standard_normal((36, 32))
    x = np.stack([x1, x2], axis=1)
    y = np.repeat(np.arange(6), 6)
    for seed in range(20):
        state = init_network(spec, np.random.default_rng(seed))
        probs, _ = forward(state, x)
        assert lo <= cross_entropy(probs, y) <= hi


def test_init_deterministic_given_seed():
    spec = _desk_spec()
    a = init_network(spec, np.random.default_rng(31))
    b = init_network(spec, np.random.default_rng(31))
    for (name_a, arr_a), (name_b, arr_b) in zip(a.parameters(), b.parameters()):
        assert name_a == name_b
        np.testing.assert_array_equal(arr_a, arr_b)


def test_spec_flat_dim_and_defaults():
    spec = NetworkSpec(input_bins=128)
    # default chain: conv(32,k5,s1) -> 124, conv(64,k5,s2) -> 60, so 64*60
    assert spec.flat_dim() == 64 * 60
    with pytest.raises(ValueError):
        NetworkSpec(input_bins=8, conv_layers=[ConvSpec(4, 16, 1)]).flat_dim()
    with pytest.raises(ValueError, match="activation"):
        NetworkSpec(input_bins=128, activation="tanh")


def test_head_is_sized_by_the_label_set():
    # the class count is not a setting: one head row per label
    with pytest.raises(TypeError):
        NetworkSpec(input_bins=128, n_classes=7)
    state = empty_network(_desk_spec())
    assert state.spec.n_classes == len(LABELS)
    assert state.head.weights.shape[0] == state.head.bias.shape[0] == len(LABELS)
    # a run config's network section has no n_classes; a bundle's must be the label count
    assert NetworkSpec.from_json(state.spec.to_json()) == state.spec
    without = {k: v for k, v in state.spec.to_json().items() if k != "n_classes"}
    assert NetworkSpec.from_json(without) == state.spec
    for n in (7, 6.0, True):
        with pytest.raises(ValueError, match=f"network.n_classes must be 6, got {n!r}"):
            NetworkSpec.from_json({**without, "n_classes": n})
