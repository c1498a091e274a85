import numpy as np
import pytest

from semgrasp import training
from semgrasp.errors import TrainingDivergedError
from semgrasp.features import FeatureVector
from semgrasp.network import ConvSpec, DenseLayer, NetworkSpec
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
    # six copies of the training set: 324 rows, 11 chunks of 32 or two of 256
    x, y = (np.concatenate([a] * 6) for a in features_to_arrays(train_feats))
    assert len(y) == 324
    results = {}
    for chunk in (32, 256):
        monkeypatch.setattr(training, "_EVAL_CHUNK", chunk)
        results[chunk] = evaluate(state, x, y)
    assert results[32][1] == results[256][1]
    assert results[32][0] == pytest.approx(results[256][0], rel=1e-12)
