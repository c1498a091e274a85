import itertools
import warnings

import numpy as np
import pytest

from helpers import make_record, sinusoid

from semgrasp.dataset import LABELS
from semgrasp.errors import DataError, DegenerateSignalError
from semgrasp.burg import burg_fit, psd_from_model
from semgrasp.features import (
    FeatureConfig,
    FeatureVector,
    Normalizer,
    apply_normalizer,
    extract_all,
    extract_features,
    fit_normalizer,
    load_features_csv,
    save_features_csv,
    stack_channels,
)


def _fv(v1, v2, label="C"):
    return FeatureVector(np.asarray(v1, float), np.asarray(v2, float), label)


# ---------------------------------------------------------------- extraction


def test_extract_shape_and_finiteness(synth_dataset):
    fv = extract_features(synth_dataset[0], FeatureConfig())
    assert len(fv.channel1_features) == 128
    assert len(fv.channel2_features) == 128
    assert np.isfinite(fv.channel1_features).all()
    assert np.isfinite(fv.channel2_features).all()
    assert fv.label == synth_dataset[0].label


def test_extract_identical_channels_identical_features(rng):
    x = rng.standard_normal(256)
    fv = extract_features(make_record(x, x), FeatureConfig(nbins=32))
    np.testing.assert_array_equal(fv.channel1_features, fv.channel2_features)


def test_extract_is_bit_reproducible(synth_dataset):
    cfg = FeatureConfig(nbins=64)
    a = extract_features(synth_dataset[3], cfg)
    b = extract_features(synth_dataset[3], cfg)
    np.testing.assert_array_equal(a.channel1_features, b.channel1_features)
    np.testing.assert_array_equal(a.channel2_features, b.channel2_features)


def test_extract_dominant_100hz_peaks_at_nearest_bin(rng):
    ch1 = sinusoid(100.0, 1024, noise=0.05, seed=0)
    ch2 = rng.standard_normal(1024)
    fv = extract_features(make_record(ch1, ch2), FeatureConfig())
    freqs = np.linspace(0.0, 250.0, 128)
    assert int(np.argmax(fv.channel1_features)) == int(np.abs(freqs - 100.0).argmin())


def test_extract_rejects_short_and_degenerate_records():
    with pytest.raises(DataError, match="samples"):
        extract_features(make_record(np.arange(8.0), np.arange(8.0)), FeatureConfig())
    rec = make_record(np.full(128, 2.0), np.arange(128.0), label="T", subject="s9")
    with pytest.raises(DegenerateSignalError, match="channel1.*subject=s9"):
        extract_features(rec, FeatureConfig(nbins=16))


def test_extract_names_an_unlabeled_record_by_its_channel_alone():
    # a record read outside a dataset (semgrasp predict) has no metadata to name
    rec = make_record(np.full(128, 2.0), np.arange(128.0), label=None, subject=None, session=None)
    with pytest.raises(DegenerateSignalError) as caught:
        extract_features(rec, FeatureConfig(nbins=16))
    assert str(caught.value) == "channel1: signal is constant"
    x = sinusoid(50.0, 256)
    with pytest.raises(DataError) as caught:
        extract_features(make_record(x, x, label=None, rate=1e308), FeatureConfig(nbins=16))
    assert str(caught.value) == "features not finite at sample rate 1e+308 Hz"


def test_extract_refuses_values_beyond_float64_without_a_warning():
    # pytest turns an escaping RuntimeWarning into an error
    x = sinusoid(50.0, 256)
    with pytest.raises(DegenerateSignalError, match="channel2.*sums overflow"):
        extract_features(make_record(x, x * 1e160), FeatureConfig(nbins=16))
    with pytest.raises(DataError, match="features not finite at sample rate 1e\\+308 Hz"):
        extract_features(make_record(x, x, rate=1e308), FeatureConfig(nbins=16))


def _records(shapes, seed=0):
    """One record per (length, sample rate), each of its own subject s<k>."""
    rng = np.random.default_rng(seed)
    return [make_record(rng.standard_normal(n), 3.0 * rng.standard_normal(n),
                        label=LABELS[k % len(LABELS)], rate=rate, subject=f"s{k}")
            for k, (n, rate) in enumerate(shapes)]


def _per_channel(record, cfg):
    """A record's two feature rows, from one burg_fit and psd_from_model per channel."""
    return [np.log10(np.maximum(
        psd_from_model(burg_fit(ch, cfg.ar_order, record.sample_rate), cfg.nbins).power,
        cfg.log_floor)) for ch in (record.channel1, record.channel2)]


# runs of one (length, rate) of 3, 2, 10 (more than one lattice call), 1, 2 and 1 records
_MIXED = ([(256, 500.0)] * 3 + [(300, 500.0)] * 2 + [(256, 500.0)] * 10
          + [(256, 1000.0)] + [(300, 1000.0)] * 2 + [(256, 500.0)])


@pytest.mark.parametrize("shapes", [[(256, 500.0)] * k for k in (0, 1, 7, 8, 9, 17)] + [_MIXED],
                         ids=["0", "1", "7", "8", "9", "17", "mixed"])
def test_extract_all_matches_the_per_record_loop_bit_for_bit(shapes):
    cfg = FeatureConfig(nbins=32)
    records = _records(shapes, seed=len(shapes))
    got = extract_all(records, cfg)
    assert len(got) == len(records)
    for fv, record in zip(got, records):
        alone = extract_features(record, cfg)
        assert fv.label == alone.label == record.label
        for ours, single, reference in zip((fv.channel1_features, fv.channel2_features),
                                           (alone.channel1_features, alone.channel2_features),
                                           _per_channel(record, cfg)):
            assert ours.tobytes() == single.tobytes() == reference.tobytes()


def test_extract_all_refuses_channels_of_different_lengths():
    # EmgRecord's channels are equal-length; a lattice call fits both as rows of one array
    rng = np.random.default_rng(4)
    rec = make_record(rng.standard_normal(64), rng.standard_normal(63), subject="s7")
    with pytest.raises(DataError) as caught:
        extract_all([rec], FeatureConfig(nbins=16))
    assert str(caught.value) == ("record (label=C, subject=s7, session=d1): "
                                 "channel length mismatch (64 vs 63)")


def _with_fault(record, fault):
    """record with one fault that extraction refuses."""
    ch1, ch2, rate = record.channel1, record.channel2, record.sample_rate
    if fault == "too_short":
        ch1, ch2 = ch1[:5], ch2[:5]
    elif fault == "constant_ch1":
        ch1 = np.full_like(ch1, 2.0)
    elif fault == "constant_ch2":
        ch2 = np.full_like(ch2, 2.0)
    elif fault == "overflow":  # both channels fail; channel1's error comes first
        ch1, ch2 = ch1 * 1e160, ch2 * 1e160
    elif fault == "underflow":
        ch1, ch2 = ch1 * 1e-200, ch2 * 1e-200
    elif fault == "rate_1e308":
        rate = 1e308
    return make_record(ch1, ch2, label=record.label, rate=rate, subject=record.subject_id)


# what extraction raises for each fault: (type, message); {who} names the record
_FAULTS = {
    "too_short": (DataError, "record has 5 samples; need > ar_order + 1 = 11"),
    "constant_ch1": (DegenerateSignalError, "channel1 of {who}: signal is constant"),
    "constant_ch2": (DegenerateSignalError, "channel2 of {who}: signal is constant"),
    "overflow": (DegenerateSignalError,
                 "channel1 of {who}: sums overflow at stage 1; values too large"),
    "underflow": (DegenerateSignalError,
                  "channel1 of {who}: sample values too small; their squares underflow"),
    "rate_1e308": (DataError, "{who}: features not finite at sample rate 1e+308 Hz"),
}
# record indices of the two faults: in one lattice call of 8 records, next to each
# other, and on either side of the boundary between two calls
_PLACES = {"one_call": (2, 5), "adjacent": (3, 4), "across_calls": (6, 9)}


def _first_error(records, cfg):
    """What the per-record loop raises first, or None."""
    try:
        for record in records:
            extract_features(record, cfg)
    except DataError as e:
        return e
    return None


@pytest.mark.parametrize("place", _PLACES)
@pytest.mark.parametrize("first, second", list(itertools.product(_FAULTS, repeat=2)))
def test_extract_all_raises_the_first_failing_records_error(first, second, place):
    cfg = FeatureConfig(nbins=16)
    records = _records([(256, 500.0)] * 12, seed=5)
    i, j = _PLACES[place]
    records[i] = _with_fault(records[i], first)
    records[j] = _with_fault(records[j], second)
    # the per-record loop raises the earlier record's error
    expected = _first_error(records, cfg)
    kind, message = _FAULTS[first]
    who = f"record (label={records[i].label}, subject=s{i}, session=d1)"
    assert type(expected) is kind
    assert str(expected) == message.format(who=who)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError) as got:
            extract_all(records, cfg)
    assert caught == []
    assert type(got.value) is type(expected)
    assert str(got.value) == str(expected)


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(ar_order=0)
    with pytest.raises(ValueError):
        FeatureConfig(nbins=4)
    # the log floor and the z-scoring are fixed, not settings
    with pytest.raises(TypeError):
        FeatureConfig(log_floor=0.0)
    with pytest.raises(TypeError):
        FeatureConfig(normalization="minmax")
    with pytest.raises(ValueError, match="nbins must be an integer"):
        FeatureConfig(nbins=32.5)
    with pytest.raises(ValueError, match="ar_order must be an integer"):
        FeatureConfig(ar_order=True)


# --------------------------------------------------------------- normalizer


def test_fit_single_vector_floors_std(rng):
    v = _fv(rng.standard_normal(8), rng.standard_normal(8))
    norm = fit_normalizer([v])
    np.testing.assert_array_equal(norm.mean[0], v.channel1_features)
    np.testing.assert_array_equal(norm.mean[1], v.channel2_features)
    assert norm.std.shape == (2, 8)
    assert np.all(norm.std == 1e-8)


def test_fit_symmetric_pair_means_zero(rng):
    v = rng.standard_normal(8)
    w = rng.standard_normal(8)
    norm = fit_normalizer([_fv(v, w), _fv(-v, -w)])
    np.testing.assert_allclose(norm.mean, 0.0, atol=1e-15)


def test_fit_and_reapply_standardizes(rng):
    feats = [_fv(rng.standard_normal(16), rng.standard_normal(16)) for _ in range(100)]
    norm = fit_normalizer(feats)
    normalized = [apply_normalizer(norm, f) for f in feats]
    m1 = np.stack([f.channel1_features for f in normalized])
    m2 = np.stack([f.channel2_features for f in normalized])
    for m in (m1, m2):
        assert np.abs(m.mean(axis=0)).max() < 1e-9
        assert np.abs(m.std(axis=0) - 1.0).max() < 1e-6


def test_fit_requires_nonempty_list():
    with pytest.raises(DataError):
        fit_normalizer([])


def test_fit_is_bit_reproducible(synth_features):
    a = fit_normalizer(synth_features[:40])
    b = fit_normalizer(synth_features[:40])
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.std, b.std)


def test_apply_centering_and_identity(rng):
    v = rng.standard_normal(8)
    w = rng.standard_normal(8)
    norm = Normalizer(mean=np.stack([v, w]), std=np.ones((2, 8)))
    out = apply_normalizer(norm, _fv(v, w))
    np.testing.assert_array_equal(out.channel1_features, np.zeros(8))
    np.testing.assert_array_equal(out.channel2_features, np.zeros(8))
    ident = Normalizer(mean=np.zeros((2, 8)), std=np.ones((2, 8)))
    same = apply_normalizer(ident, _fv(v, w))
    np.testing.assert_array_equal(same.channel1_features, v)
    np.testing.assert_array_equal(same.channel2_features, w)
    assert same.label == "C"


def test_apply_round_trip_inverse(rng):
    feats = [_fv(rng.standard_normal(8) * 3 + 1, rng.standard_normal(8) - 2) for _ in range(20)]
    norm = fit_normalizer(feats)
    f = feats[7]
    z = apply_normalizer(norm, f)
    back1 = z.channel1_features * norm.std[0] + norm.mean[0]
    back2 = z.channel2_features * norm.std[1] + norm.mean[1]
    np.testing.assert_allclose(back1, f.channel1_features, rtol=1e-12)
    np.testing.assert_allclose(back2, f.channel2_features, rtol=1e-12)


def test_apply_dimension_mismatch(rng):
    norm = fit_normalizer([_fv(rng.standard_normal(8), rng.standard_normal(8))])
    with pytest.raises(DataError, match="dimension mismatch"):
        apply_normalizer(norm, _fv(np.zeros(9), np.zeros(9)))


def test_class_separation_in_normalized_space(synth_features):
    norm = fit_normalizer(synth_features)
    normalized = [apply_normalizer(norm, f) for f in synth_features]

    def stack(f):
        return np.concatenate([f.channel1_features, f.channel2_features])

    centroids = {
        lab: np.mean([stack(f) for f in normalized if f.label == lab], axis=0)
        for lab in LABELS
    }
    intra = np.mean([np.linalg.norm(stack(f) - centroids[f.label]) for f in normalized])
    inter = np.mean(
        [np.linalg.norm(centroids[a] - centroids[b]) for a in LABELS for b in LABELS if a < b]
    )
    assert inter / intra > 1.5


# ----------------------------------------------------------------- CSV dumps


def test_features_csv_round_trip(tmp_path, synth_features):
    path = tmp_path / "features.csv"
    save_features_csv(path, stack_channels(synth_features[:10]),
                      [f.label for f in synth_features[:10]])
    x, labels = load_features_csv(path)
    assert len(x) == len(labels) == 10
    for orig, back, label in zip(synth_features[:10], x, labels):
        assert orig.label == label
        np.testing.assert_array_equal(orig.channel1_features, back[0])
        np.testing.assert_array_equal(orig.channel2_features, back[1])


def test_features_csv_schema_errors(tmp_path):
    p = tmp_path / "bad.csv"
    for header in ("label,ch1_f0,ch2_f1", "feat,ch1_f0,ch2_f0", "label,ch1_f0", ""):
        p.write_text(f"{header}\nC,1.0,2.0\n")
        with pytest.raises(DataError, match="schema"):
            load_features_csv(p)
    p.write_text("label,ch1_f0,ch2_f0\nQ,1.0,2.0\n")
    with pytest.raises(DataError, match="unknown label"):
        load_features_csv(p)
    p.write_text("label,ch1_f0,ch2_f0\nC,1.0\n")
    with pytest.raises(DataError, match="columns"):
        load_features_csv(p)
    with pytest.raises(DataError, match="not found"):
        load_features_csv(tmp_path / "missing.csv")

