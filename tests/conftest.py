import numpy as np
import pytest

from semgrasp.dataset import generate_synthetic, split_by_labels
from semgrasp.features import FeatureConfig, apply_normalizer, extract_all, fit_normalizer


@pytest.fixture(scope="session")
def synth_dataset():
    return generate_synthetic(n_per_class=12, length=256, seed=901)


@pytest.fixture(scope="session")
def synth_features(synth_dataset):
    return extract_all(synth_dataset, FeatureConfig(nbins=32))


@pytest.fixture(scope="session")
def normalized_split(synth_dataset, synth_features):
    """(train_features, test_features) of the session dataset, z-scored on train."""
    plan = split_by_labels([r.label for r in synth_dataset], 0.7, seed=5)
    train = [synth_features[i] for i in plan.train_indices]
    test = [synth_features[i] for i in plan.test_indices]
    norm = fit_normalizer(train)
    return (
        [apply_normalizer(norm, f) for f in train],
        [apply_normalizer(norm, f) for f in test],
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
