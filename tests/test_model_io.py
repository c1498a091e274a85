import json

import numpy as np
import pytest

from helpers import rewrite_bundle

from semgrasp.errors import DataError
from semgrasp.features import FeatureConfig, fit_normalizer
from semgrasp.model_io import FORMAT_VERSION, ModelBundle, load_model, save_model
from semgrasp.network import ConvSpec, NetworkSpec, cast_network, forward, init_network
from semgrasp.training import TrainConfig, train


def _bundle(synth_features, with_normalizer=True):
    spec = NetworkSpec(input_bins=32, conv_layers=[ConvSpec(4, 5, 2)], dense_units=8)
    state = init_network(spec, np.random.default_rng(0))
    norm = fit_normalizer(synth_features[:20], fitted_on="unit") if with_normalizer else None
    return ModelBundle(
        state=state,
        feature_config=FeatureConfig(nbins=32, normalization="zscore" if norm else "none"),
        normalizer=norm,
        sample_rate=500.0,
        dataset_name="unit",
    )


def test_save_load_round_trip_bit_exact_predictions(tmp_path, synth_features, rng):
    bundle = _bundle(synth_features)
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    back = load_model(path)

    x1 = rng.standard_normal((5, 32))
    x2 = rng.standard_normal((5, 32))
    x = np.stack([x1, x2], axis=1)
    probs_orig, _ = forward(bundle.state, x)
    probs_back, _ = forward(back.state, x)
    np.testing.assert_array_equal(probs_orig, probs_back)

    assert back.feature_config == bundle.feature_config
    assert back.sample_rate == 500.0
    assert back.dataset_name == "unit"
    assert back.normalizer.fitted_on == "unit"
    for name in ("mean", "std"):
        np.testing.assert_array_equal(
            getattr(back.normalizer, name), getattr(bundle.normalizer, name)
        )
    spec = back.state.spec
    assert spec.conv_layers == [ConvSpec(4, 5, 2)]
    assert spec.dense_units == 8


def test_save_load_without_normalizer_or_rate(tmp_path, synth_features):
    bundle = _bundle(synth_features, with_normalizer=False)
    bundle.sample_rate = None
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    back = load_model(path)
    assert back.normalizer is None
    assert back.sample_rate is None


def test_failed_save_leaves_the_previous_bundle_whole(tmp_path, synth_features, monkeypatch):
    path = tmp_path / "model.bin"
    save_model(path, _bundle(synth_features))
    before = path.read_bytes()

    def failing_savez(fh, **arrays):
        fh.write(b"PK part of a bundle")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="no space left"):
        save_model(path, _bundle(synth_features, with_normalizer=False))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_file_name_is_kept_verbatim(tmp_path, synth_features):
    # numpy's savez appends .npz to bare paths; the bundle writer must not
    path = tmp_path / "model.bin"
    save_model(path, _bundle(synth_features))
    assert path.exists()
    assert not (tmp_path / "model.bin.npz").exists()


def test_load_rejects_garbage_and_missing(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_model(tmp_path / "missing.bin")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a zip at all")
    with pytest.raises(DataError, match="cannot read"):
        load_model(bad)


def _drop_network(meta, arrays):
    del meta["network"]


def _small_nbins(meta, arrays):
    meta["feature_config"]["nbins"] = 4


def _nbins_off_network(meta, arrays):
    meta["feature_config"]["nbins"] = 64


def _rate(value):
    def edit(meta, arrays):
        meta["sample_rate"] = value

    return edit


def _cut_head_column(meta, arrays):
    arrays["head.weights"] = arrays["head.weights"][:, :-1]


def _drop_conv_bias(meta, arrays):
    del arrays["ch2.conv0.bias"]


def _short_std(meta, arrays):
    arrays["norm.std1"] = arrays["norm.std1"][:-1]


def _zero_std(meta, arrays):
    arrays["norm.std2"] = np.zeros_like(arrays["norm.std2"])


def _nan_mean(meta, arrays):
    arrays["norm.mean1"][3] = np.nan


def _has_normalizer(value, normalization="zscore"):
    def edit(meta, arrays):
        meta["has_normalizer"] = value
        meta["feature_config"]["normalization"] = normalization

    return edit


def _drop_has_normalizer(meta, arrays):
    del meta["has_normalizer"]


def _n_classes(n):
    # head arrays to match, so only the class count is wrong
    def edit(meta, arrays):
        meta["network"]["n_classes"] = n
        width = arrays["head.weights"].shape[1]
        arrays["head.weights"] = np.resize(arrays["head.weights"], (n, width))
        arrays["head.bias"] = np.resize(arrays["head.bias"], n)

    return edit


def _format_version(value):
    def edit(meta, arrays):
        meta["format_version"] = value

    return edit


def _drop(key):
    def edit(meta, arrays):
        del meta[key]

    return edit


def _retype(name, dtype):
    def edit(meta, arrays):
        arrays[name] = arrays[name].astype(dtype)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_network, "missing 'network'"),
        (_small_nbins, "nbins must be >= 8"),
        (_nbins_off_network, "feature_config.nbins is 64 but network.input_bins is 32"),
        (_rate("abc"), "sample_rate must be null or a finite number > 0, got 'abc'"),
        (_rate(0), "sample_rate must be null or a finite number > 0, got 0"),
        (_rate(-500.0), "sample_rate must be null or a finite number > 0, got -500.0"),
        (_rate(True), "sample_rate must be null or a finite number > 0, got True"),
        (_rate(float("nan")), "sample_rate must be null or a finite number > 0, got nan"),
        (_rate(float("inf")), "sample_rate must be null or a finite number > 0, got inf"),
        (_rate(10**400), "sample_rate must be null or a finite number > 0, got 1000"),
        (_cut_head_column, "'head.weights' has shape"),
        (_drop_conv_bias, "missing weight array 'ch2.conv0.bias'"),
        (_short_std, r"'norm.std1' has shape \(31,\)"),
        (_zero_std, "'norm.std2' holds stds below"),
        (_nan_mean, "'norm.mean1' holds non-finite"),
        (_retype("ch1.conv0.weights", str), "'ch1.conv0.weights' has dtype <U"),
        (_retype("norm.mean2", str), "'norm.mean2' has dtype <U"),
        (_retype("head.bias", np.complex128),
         "'head.bias' has dtype complex128, expected float64 like 'ch1.conv0.weights'"),
        (_retype("ch1.conv0.weights", np.complex128),
         "'ch1.conv0.weights' has dtype complex128, expected float32 or float64"),
        (_retype("ch1.conv0.weights", np.float16),
         "'ch1.conv0.weights' has dtype float16, expected float32 or float64"),
        (_retype("ch2.dense.weights", np.float32),
         "'ch2.dense.weights' has dtype float32, expected float64 like 'ch1.conv0.weights'"),
        (_retype("norm.std1", np.float32), "'norm.std1' has dtype float32, expected float64"),
        (_has_normalizer(False),
         "has_normalizer is false but feature_config.normalization is 'zscore'"),
        (_has_normalizer(True, "none"),
         "has_normalizer is true but feature_config.normalization is 'none'"),
        (_has_normalizer(0), "has_normalizer must be true or false, got 0"),
        (_has_normalizer(1), "has_normalizer must be true or false, got 1"),
        (_has_normalizer("yes"), "has_normalizer must be true or false, got 'yes'"),
        (_has_normalizer(None, "none"), "has_normalizer must be true or false, got None"),
        (_drop_has_normalizer, "missing 'has_normalizer'"),
        (_n_classes(5), "network.n_classes must be 6, got 5"),
        (_n_classes(7), "network.n_classes must be 6, got 7"),
        # refused before the head is allocated, so not a MemoryError
        (lambda meta, arrays: meta["network"].update(n_classes=10**12),
         "network.n_classes must be 6, got 1000000000000"),
        (lambda meta, arrays: meta["network"].pop("n_classes"), "missing 'network.n_classes'"),
        (_format_version(True), "unsupported model format version True"),
        (_format_version(1.0), "unsupported model format version 1.0"),
        (_format_version("1"), "unsupported model format version '1'"),
        # the run config's form: a [filters, kernel] pair no longer loads with stride 1
        (lambda meta, arrays: meta["network"].update(conv_layers=[[4, 5]]),
         r"conv_layers must be \[filters, kernel, stride\] lists, got \[\[4, 5\]\]"),
        (_drop("sample_rate"), "missing 'sample_rate'"),
        (_drop("dataset_name"), "missing 'dataset_name'"),
        (_drop("normalizer_fitted_on"), "missing 'normalizer_fitted_on'"),
        (lambda meta, arrays: meta.update(colour="red"), "unknown bundle metadata key 'colour'"),
        (lambda meta, arrays: arrays.update(extra=np.zeros(3)), "unknown bundle array 'extra'"),
        (_has_normalizer(False, "none"), "unknown bundle array 'norm.mean1'"),
    ],
    ids=["no_network", "small_nbins", "nbins_off_network", "rate_string", "rate_zero",
         "rate_negative", "rate_bool", "rate_nan", "rate_inf", "rate_huge_int",
         "cut_head_column", "missing_array", "short_std", "zero_std", "nan_mean",
         "string_weights", "string_normalizer", "complex_weights", "complex_first_weights",
         "float16_weights", "mixed_weights", "float32_normalizer", "normalizer_false_zscore",
         "normalizer_true_none", "normalizer_zero", "normalizer_one", "normalizer_string",
         "normalizer_null", "normalizer_missing", "five_classes", "seven_classes",
         "huge_classes", "classes_missing", "version_true", "version_float", "version_string",
         "conv_pair", "rate_missing", "dataset_name_missing", "fitted_on_missing", "unknown_key",
         "extra_array", "normalizer_arrays_without_normalizer"],
)
def test_load_rejects_inconsistent_bundles(tmp_path, synth_features, edit, message):
    path = tmp_path / "model.bin"
    save_model(path, _bundle(synth_features))
    rewrite_bundle(path, edit)
    with pytest.raises(DataError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "meta", [[1], 3, "x", True, None], ids=["array", "number", "string", "bool", "null"]
)
def test_load_rejects_metadata_that_is_not_an_object(tmp_path, synth_features, meta):
    path = tmp_path / "model.bin"
    save_model(path, _bundle(synth_features))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(DataError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: bundle metadata must be a JSON object, got {meta!r}"


def test_bundle_keeps_its_array_order(tmp_path, synth_features):
    bundle = _bundle(synth_features)
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    with np.load(path) as data:
        names = data.files
    norm_names = ["norm.mean1", "norm.std1", "norm.mean2", "norm.std2"]
    assert names == ["__meta__"] + [n for n, _ in bundle.state.parameters()] + norm_names


def test_load_rejects_wrong_version(tmp_path, synth_features):
    path = tmp_path / "model.bin"
    save_model(path, _bundle(synth_features))
    rewrite_bundle(path, lambda meta, arrays: meta.update(format_version=FORMAT_VERSION + 1))
    with pytest.raises(DataError, match="format version"):
        load_model(path)


def test_trained_model_round_trips_through_disk(tmp_path, normalized_split):
    train_feats, test_feats = normalized_split
    spec = NetworkSpec(input_bins=32, conv_layers=[ConvSpec(8, 5, 1)], dense_units=16)
    state, _ = train(spec, train_feats, test_feats, TrainConfig(epochs=5, seed=1))
    bundle = ModelBundle(
        state=state,
        feature_config=FeatureConfig(nbins=32, normalization="none"),
        normalizer=None,
        sample_rate=500.0,
    )
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    back = load_model(path)
    from semgrasp.training import features_to_arrays

    x, _ = features_to_arrays(test_feats)
    a, _ = forward(state, x)
    b, _ = forward(back.state, x)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bundle_loads_in_the_dtype_it_was_saved_in(tmp_path, synth_features, rng, dtype):
    # float64 bundles predate float32 training; they load and predict in float64
    bundle = _bundle(synth_features)
    bundle.state = cast_network(bundle.state, dtype)
    path = tmp_path / "model.bin"
    save_model(path, bundle)
    back = load_model(path)
    for (name, a), (back_name, b) in zip(bundle.state.parameters(), back.state.parameters()):
        assert name == back_name and b.dtype == dtype
        assert a.tobytes() == b.tobytes(), name
    x = rng.standard_normal((40, 2, 32))
    probs, _ = forward(bundle.state, x)
    np.testing.assert_array_equal(forward(back.state, x)[0], probs)
