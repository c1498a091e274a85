import ctypes
import platform
import resource
import threading

import numpy as np
import pytest

from helpers import gradients

from semgrasp import network, training
from semgrasp.dataset import LABELS
from semgrasp.errors import TrainingDivergedError
from semgrasp.features import FeatureVector
from semgrasp.metrics import EpochStats
from semgrasp.network import (
    ConvSpec,
    DenseLayer,
    NetworkSpec,
    cast_network,
    cross_entropy,
    init_network,
)
from semgrasp.training import (
    TrainConfig,
    evaluate,
    features_to_arrays,
    predict,
    predict_batch,
    train,
)

SMALL_SPEC = NetworkSpec(
    input_bins=32, conv_layers=[ConvSpec(8, 5, 1), ConvSpec(16, 5, 2)], dense_units=16
)


def _log_equal(a, b):
    return all(x == y for x, y in zip(a, b)) and len(a) == len(b)


def test_features_to_arrays_shapes(synth_features):
    x, y = features_to_arrays(synth_features[:10])
    assert x.shape == (10, 2, 32)
    np.testing.assert_array_equal(x[3, 0], synth_features[3].channel1_features)
    np.testing.assert_array_equal(x[3, 1], synth_features[3].channel2_features)
    assert y.shape == (10,)
    assert y.dtype == np.int64


def test_overfits_replicated_single_record(normalized_split):
    train_feats, test_feats = normalized_split
    one = train_feats[0]
    replicated = [one] * 64
    cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=0.01, seed=2)
    state, log = train(SMALL_SPEC, replicated, [test_feats[0]], cfg)
    assert max(e.train_acc for e in log) >= 0.99
    assert log[-1].train_acc >= 0.99


def test_training_reaches_high_accuracy_on_synthetic(normalized_split):
    train_feats, test_feats = normalized_split
    cfg = TrainConfig(epochs=40, seed=0)
    state, log = train(SMALL_SPEC, train_feats, test_feats, cfg)
    assert log[-1].test_acc >= 0.95
    assert len(log) == 40


def test_training_deterministic_given_seed(normalized_split):
    train_feats, test_feats = normalized_split
    cfg = TrainConfig(epochs=5, seed=7)
    state_a, log_a = train(SMALL_SPEC, train_feats, test_feats, cfg)
    state_b, log_b = train(SMALL_SPEC, train_feats, test_feats, cfg)
    assert _log_equal(log_a, log_b)
    for (na, a), (nb, b) in zip(state_a.parameters(), state_b.parameters()):
        np.testing.assert_array_equal(a, b)
    _, log_c = train(SMALL_SPEC, train_feats, test_feats, TrainConfig(epochs=5, seed=8))
    assert not _log_equal(log_a, log_c)


def test_plain_sgd_also_trains(normalized_split):
    train_feats, test_feats = normalized_split
    cfg = TrainConfig(epochs=40, momentum=0.0, learning_rate=0.1, seed=1)
    _, log = train(SMALL_SPEC, train_feats, test_feats, cfg)
    assert log[-1].train_acc >= 0.9


def test_divergence_guard_names_epoch():
    rng = np.random.default_rng(0)

    def fv(lab):
        return FeatureVector(rng.standard_normal(16) * 5, rng.standard_normal(16) * 5, lab)

    train_feats = [fv(lab) for lab in "CTLHPS"] * 4
    test_feats = [fv(lab) for lab in "CTLHPS"]
    spec = NetworkSpec(
        input_bins=16, conv_layers=[ConvSpec(4, 3, 1)], dense_units=8, activation="identity"
    )
    with pytest.raises(TrainingDivergedError, match="epoch") as excinfo:
        train(spec, train_feats, test_feats, TrainConfig(epochs=20, learning_rate=1e40, seed=3))
    assert excinfo.value.epoch >= 1


def _recording_steps(monkeypatch):
    """Patch train's step to record (loss, rows, correctly classified rows) per batch."""
    steps = []

    def step(state, x, labels, update):
        loss, probs = network.loss_and_gradients(state, x, labels, update)
        steps.append((loss, len(labels), int((probs.argmax(axis=1) == labels).sum())))
        return loss, probs

    monkeypatch.setattr(training, "loss_and_gradients", step)
    return steps


def test_train_columns_are_the_epochs_own_batch_statistics(normalized_split, monkeypatch):
    train_feats, test_feats = normalized_split
    cfg = TrainConfig(epochs=4, batch_size=16, seed=6)
    n = len(train_feats)
    assert n % cfg.batch_size != 0  # so the short last batch's weight is checked
    steps = _recording_steps(monkeypatch)
    _, log = train(SMALL_SPEC, train_feats, test_feats, cfg)
    per_epoch = -(-n // cfg.batch_size)
    assert len(steps) == cfg.epochs * per_epoch and len(log) == cfg.epochs
    for epoch, stats in enumerate(log):
        batches = steps[epoch * per_epoch : (epoch + 1) * per_epoch]
        assert batches[-1][1] == n % cfg.batch_size
        assert sum(rows for _, rows, _ in batches) == n
        assert stats.train_loss == sum(loss * rows for loss, rows, _ in batches) / n
        assert stats.train_acc == sum(correct for _, _, correct in batches) / n


def _reference_train(spec, train_feats, test_feats, cfg):
    """train's loop with the momentum update applied on the calling thread, after
    the whole set of gradients has been collected; the batch statistics come
    from a forward pass of their own."""
    (x_tr, y_tr), (x_te, y_te) = features_to_arrays(train_feats), features_to_arrays(test_feats)
    x_tr, x_te = x_tr.astype(training.NETWORK_DTYPE), x_te.astype(training.NETWORK_DTYPE)
    rng_init = np.random.default_rng([cfg.seed, training.INIT_STREAM])
    rng_shuffle = np.random.default_rng([cfg.seed, training.SHUFFLE_STREAM])
    state = cast_network(init_network(spec, rng_init), training.NETWORK_DTYPE)
    velocity = {name: np.zeros_like(arr) for name, arr in state.parameters()}
    n, log = len(y_tr), []
    with network._one_blas_thread(), np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            order = rng_shuffle.permutation(n)
            loss_sum, correct = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                probs = network.forward(state, x_tr[batch])[0]
                grads = gradients(state, x_tr[batch], y_tr[batch])
                loss_sum += cross_entropy(probs, y_tr[batch]) * len(batch)
                correct += int((probs.argmax(axis=1) == y_tr[batch]).sum())
                for name, arr in state.parameters():
                    v = velocity[name]
                    v *= cfg.momentum
                    v -= cfg.learning_rate * grads[name]
                    arr += v
            log.append(EpochStats(loss_sum / n, correct / n, *evaluate(state, x_te, y_te)))
    return state, log


def test_fused_update_trains_bit_identical_to_the_reference_loop(normalized_split):
    train_feats, test_feats = normalized_split
    cfg = TrainConfig(epochs=4, batch_size=20, seed=9)
    # full batches run the ch2 stack and its update on the worker thread, the
    # short last one on this thread
    assert 0 < len(train_feats) % cfg.batch_size < network._CONCURRENT_MIN_ROWS <= cfg.batch_size
    state, log = train(SMALL_SPEC, train_feats, test_feats, cfg)
    ref_state, ref_log = _reference_train(SMALL_SPEC, train_feats, test_feats, cfg)
    assert len(log) == len(ref_log) == cfg.epochs
    for stats, ref_stats in zip(log, ref_log):
        assert np.array_equal(stats, ref_stats), (stats, ref_stats)
    for (name, a), (ref_name, b) in zip(state.parameters(), ref_state.parameters()):
        assert name == ref_name and np.array_equal(a, b), name


def test_test_columns_evaluate_the_returned_state(normalized_split):
    train_feats, test_feats = normalized_split
    state, log = train(SMALL_SPEC, train_feats, test_feats, TrainConfig(epochs=3, seed=4))
    x_te, y_te = features_to_arrays(test_feats)
    assert (log[-1].test_loss, log[-1].test_acc) == evaluate(state, x_te, y_te)


def test_divergence_guard_fires_on_the_test_set_alone(normalized_split, monkeypatch):
    train_feats, test_feats = normalized_split
    # finite in float32, but the first layers overflow on them
    top = float(np.finfo(np.float32).max)
    bad_test = [FeatureVector(np.full(32, top), np.full(32, -top), fv.label) for fv in test_feats]
    steps = _recording_steps(monkeypatch)
    with pytest.raises(TrainingDivergedError, match="epoch evaluation loss") as excinfo:
        train(SMALL_SPEC, train_feats, bad_test, TrainConfig(epochs=3, seed=0))
    assert excinfo.value.epoch == 1
    assert steps and all(np.isfinite(loss) for loss, _, _ in steps)


def test_train_validates_inputs(normalized_split):
    train_feats, test_feats = normalized_split
    with pytest.raises(ValueError, match="non-empty"):
        train(SMALL_SPEC, [], test_feats, TrainConfig(epochs=1, seed=0))
    bad_spec = NetworkSpec(input_bins=64, conv_layers=[ConvSpec(4, 3, 1)], dense_units=8)
    with pytest.raises(ValueError, match="bins"):
        train(bad_spec, train_feats, test_feats, TrainConfig(epochs=1, seed=0))
    for bad in ({"epochs": 0}, {"epochs": 2.5}, {"epochs": True}, {"batch_size": 1.5},
                {"batch_size": 0}):
        with pytest.raises(ValueError, match="integer >= 1"):
            TrainConfig(**bad)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for momentum in ("x", 1.0, -0.1):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)


def test_progress_callback_sees_every_epoch(normalized_split):
    train_feats, test_feats = normalized_split
    seen = []
    train(
        SMALL_SPEC,
        train_feats[:12],
        test_feats[:6],
        TrainConfig(epochs=3, seed=0),
        progress=lambda epoch, stats: seen.append(epoch),
    )
    assert seen == [1, 2, 3]


def test_predict_probabilities_sum_to_one(normalized_split):
    train_feats, test_feats = normalized_split
    state, _ = train(SMALL_SPEC, train_feats, test_feats, TrainConfig(epochs=3, seed=4))
    for fv in test_feats[:5]:
        label, probs = predict(state, fv)
        assert probs.shape == (6,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert label in "CTLHPS"


def test_predict_tie_breaks_to_lowest_index(normalized_split):
    _, test_feats = normalized_split
    state, _ = train(SMALL_SPEC, test_feats, test_feats, TrainConfig(epochs=1, seed=0))
    # zeroed head makes all six logits identical for any input
    state.head = DenseLayer(
        weights=np.zeros_like(state.head.weights),
        bias=np.zeros_like(state.head.bias),
        activation="identity",
    )
    label, probs = predict(state, test_feats[0])
    assert label == "C"
    np.testing.assert_allclose(probs, 1 / 6, atol=1e-15)


def test_predict_batch_replays_logged_test_accuracy(normalized_split):
    train_feats, test_feats = normalized_split
    state, log = train(SMALL_SPEC, train_feats, test_feats, TrainConfig(epochs=10, seed=5))
    preds, probs = predict_batch(state, test_feats)
    x, y = features_to_arrays(test_feats)
    acc = float((preds == y).mean())
    assert acc == pytest.approx(log[-1].test_acc, abs=1e-12)
    loss, acc2 = evaluate(state, x, y)
    assert acc2 == pytest.approx(acc, abs=1e-12)


def test_evaluate_accuracy_independent_of_chunk_size(normalized_split, monkeypatch):
    train_feats, test_feats = normalized_split
    state, _ = train(SMALL_SPEC, train_feats, test_feats, TrainConfig(epochs=3, seed=4))
    assert {param.dtype for _, param in state.parameters()} == {np.dtype(training.NETWORK_DTYPE)}
    # the float32 GEMMs of a 32-row and a 256-row chunk round differently, about
    # 1e-10 relative in the loss, so the loss is compared on the float64 copy
    state64 = cast_network(state, np.float64)
    # six copies of the training set: 324 rows, 11 chunks of 32 or two of 256
    x, y = (np.concatenate([a] * 6) for a in features_to_arrays(train_feats))
    assert len(y) == 324
    results, results64 = {}, {}
    for chunk in (32, 256):
        monkeypatch.setattr(training, "_EVAL_CHUNK", chunk)
        results[chunk] = evaluate(state, x, y)
        results64[chunk] = evaluate(state64, x, y)
    assert results[32][1] == results[256][1]
    assert results64[32][1] == results64[256][1]
    assert results64[32][0] == pytest.approx(results64[256][0], rel=1e-12)


def _random_features(rng, n, nbins=128):
    return [
        FeatureVector(rng.standard_normal(nbins), rng.standard_normal(nbins), LABELS[i % 6])
        for i in range(n)
    ]


def _per_chunk_probs(state, x):
    """The probabilities of one forward per _EVAL_CHUNK rows, both stacks per call."""
    chunk = training._EVAL_CHUNK
    with network._one_blas_thread(), np.errstate(all="ignore"):
        return np.vstack([
            network.forward(state, x[start : start + chunk])[0]
            for start in range(0, len(x), chunk)
        ])


# 270: 8 full chunks and a 14-row tail; 15 runs the stacks in turn; 1 is a predict
@pytest.mark.parametrize("rows", [270, 15, 1])
def test_streamed_evaluation_equals_per_chunk_forwards(rows):
    rng = np.random.default_rng(rows)
    spec = NetworkSpec(input_bins=128)
    state = cast_network(init_network(spec, rng), training.NETWORK_DTYPE)
    features = _random_features(rng, rows)
    x, y = features_to_arrays(features)
    expected = _per_chunk_probs(state, x)
    assert expected.shape == (rows, 6)
    assert evaluate(state, x, y) == (
        cross_entropy(expected, y), int((expected.argmax(axis=1) == y).sum()) / rows
    )
    preds, probs = predict_batch(state, features)
    assert np.array_equal(probs, expected) and np.array_equal(preds, expected.argmax(axis=1))


def test_streamed_evaluation_ch2_error_reaches_caller_after_ch1(monkeypatch):
    rng = np.random.default_rng(2)
    state = cast_network(init_network(SMALL_SPEC, rng), training.NETWORK_DTYPE)
    x, y = features_to_arrays(_random_features(rng, 270, 32))
    error = ValueError("ch2 stack failed")
    calls = []
    real_forward = network._stack_forward

    def failing_forward(convs, dense, x):
        ch = 2 if dense is state.dense_layers[1] else 1
        calls.append((ch, threading.current_thread().name))
        if ch == 2 and len([c for c, _ in calls if c == 2]) == 3:
            raise error
        return real_forward(convs, dense, x)

    monkeypatch.setattr(network, "_stack_forward", failing_forward)
    with pytest.raises(ValueError) as info:
        evaluate(state, x, y)
    assert info.value is error
    # ch1 ran all nine chunks on this thread; ch2 stopped at its third, on the worker
    threads = {ch: {name for c, name in calls if c == ch} for ch in (1, 2)}
    assert [c for c, _ in calls].count(1) == 9 and [c for c, _ in calls].count(2) == 3
    assert threads[1] == {threading.current_thread().name}
    assert threading.current_thread().name not in threads[2]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_training_steps_stop_faulting_fresh_pages():
    rng = np.random.default_rng(0)
    faults = []
    train(
        NetworkSpec(input_bins=128),
        _random_features(rng, 128),
        _random_features(rng, 64),
        TrainConfig(epochs=7, batch_size=32),
        progress=lambda epoch, stats: faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ),
    )
    # with glibc's default thresholds every step faults its temporaries in
    # afresh: about 6,600 minor faults per epoch at this size
    assert faults[-1] - faults[-5] < 2000, np.diff(faults)


def test_train_without_mallopt_gives_identical_results(monkeypatch):
    rng = np.random.default_rng(1)
    train_feats, test_feats = _random_features(rng, 40, 32), _random_features(rng, 20, 32)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
    state_a, log_a = train(SMALL_SPEC, train_feats, test_feats, cfg)
    calls = []

    def no_libc(name):
        calls.append(name)
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    state_b, log_b = train(SMALL_SPEC, train_feats, test_feats, cfg)
    assert calls == [None]
    assert len(log_a) == len(log_b) and all(np.array_equal(a, b) for a, b in zip(log_a, log_b))
    for (name_a, a), (name_b, b) in zip(state_a.parameters(), state_b.parameters()):
        assert name_a == name_b and np.array_equal(a, b)
