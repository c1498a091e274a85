"""Versioned model bundles: one binary file reproduces inference end to end.

The bundle is a zip of numpy arrays (written through an open handle so the
file name is kept verbatim) plus one JSON metadata entry. save_model writes
it through dataset._write_whole, so the target is never left holding part of
a bundle. All seven of its keys are required: format_version, network
(NetworkSpec.to_json: conv layers are [filters, kernel, stride], as in the
run config), feature_config, sample_rate, dataset_name, has_normalizer,
normalizer_fitted_on. So is every field of network and feature_config: a
missing one is not read as its default. The fields that are constants of
the recipe (network.n_classes, network.activation, feature_config.log_floor
and feature_config.normalization) must hold their one value, of its type, and
has_normalizer must be true: every bundle carries the four z-score arrays.
dataset_name and normalizer_fitted_on are strings, and sample_rate passes
the one sample-rate rule, so a bundle always names the rate its features
were extracted at and a null rate is refused. Unknown keys and arrays
are refused. The network's arrays are float32 (training.NETWORK_DTYPE) and
the normalizer's float64; save_model refuses a network of any other dtype
before it writes. Any other bundle is refused, so a reloaded model
reproduces predictions bit-exactly for the same code.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from .dataset import _check_rate, _write_whole
from .errors import DataError
from .features import STD_FLOOR, FeatureConfig, Normalizer
from .network import NetworkSpec, NetworkState, empty_network
from .training import NETWORK_DTYPE

FORMAT_VERSION = 1
_META_KEY = "__meta__"
# bundle name, Normalizer field and channel row of each normalizer array, in file order
_NORM_ARRAYS = [(f"norm.{attr}{row + 1}", attr, row) for row in (0, 1) for attr in ("mean", "std")]


@dataclass
class ModelBundle:
    state: NetworkState
    feature_config: FeatureConfig
    normalizer: Normalizer
    sample_rate: float
    dataset_name: str = ""


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    arrays = dict(bundle.state.parameters())
    for name, arr in arrays.items():
        if arr.dtype != NETWORK_DTYPE:
            raise ValueError(f"weight array {name!r} has dtype {arr.dtype}, expected "
                             f"{np.dtype(NETWORK_DTYPE)}")
    meta = {
        "format_version": FORMAT_VERSION,
        "network": bundle.state.spec.to_json(),
        "feature_config": asdict(bundle.feature_config),
        "sample_rate": bundle.sample_rate,
        "dataset_name": bundle.dataset_name,
        "has_normalizer": True,
        "normalizer_fitted_on": bundle.normalizer.fitted_on,
    }
    for name, attr, row in _NORM_ARRAYS:
        arrays[name] = getattr(bundle.normalizer, attr)[row]
    with _write_whole(path, "wb") as fh:
        np.savez(fh, **{_META_KEY: np.array(json.dumps(meta)), **arrays})


def load_model(path: str | Path) -> ModelBundle:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    try:
        try:
            data = np.load(path, allow_pickle=False)
        except (EOFError, ValueError):  # empty, or neither a zip nor an .npy file
            data = None
        if not isinstance(data, NpzFile):  # an .npy file holds one array
            raise DataError(f"{path}: not a model bundle")
        with data:
            if _META_KEY not in data:
                raise DataError(f"{path}: not a model bundle (missing metadata entry)")
            meta = json.loads(str(data[_META_KEY]))
            arrays = {k: data[k] for k in data.files if k != _META_KEY}
    except (zipfile.BadZipFile, ValueError, json.JSONDecodeError, io.UnsupportedOperation) as e:
        raise DataError(f"{path}: cannot read model bundle: {e}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: bundle metadata must be a JSON object, got {meta!r}")

    # each key is popped as it is read, so what is left over is unknown
    version = meta.pop("format_version", None)
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version {version!r}")

    try:
        spec = NetworkSpec.from_json(_section(meta, "network", NetworkSpec))
        feature_config = FeatureConfig(**_section(meta, "feature_config", FeatureConfig))
        state = empty_network(spec)
        if feature_config.nbins != spec.input_bins:
            raise ValueError(
                f"feature_config.nbins is {feature_config.nbins} "
                f"but network.input_bins is {spec.input_bins}"
            )
        rate = meta.pop("sample_rate")
        _check_rate(rate, error=ValueError)
        has_normalizer = meta.pop("has_normalizer")
        if has_normalizer is not True:
            raise ValueError(f"has_normalizer must be true, got {has_normalizer!r}")
        dataset_name, fitted_on = meta.pop("dataset_name"), meta.pop("normalizer_fitted_on")
        for key, value in (("dataset_name", dataset_name), ("normalizer_fitted_on", fitted_on)):
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
    except KeyError as e:
        raise DataError(f"{path}: bundle metadata is missing {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: bad bundle metadata: {e}") from None
    if meta:
        raise DataError(f"{path}: unknown bundle metadata key {next(iter(meta))!r}")
    for prefix, layer in state.layers():
        for attr in ("weights", "bias"):
            name, shape = f"{prefix}.{attr}", getattr(layer, attr).shape
            setattr(layer, attr, _bundle_array(path, arrays, "weight", name, shape, NETWORK_DTYPE))

    rows = {"mean": [], "std": []}
    for name, attr, _ in _NORM_ARRAYS:
        arr = _bundle_array(path, arrays, "normalizer", name, (feature_config.nbins,), np.float64)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: normalizer array {name!r} holds non-finite values")
        if attr == "std" and arr.min() < STD_FLOOR:
            raise DataError(f"{path}: normalizer array {name!r} holds stds below {STD_FLOOR}")
        rows[attr].append(arr)
    if arrays:
        raise DataError(f"{path}: unknown bundle array {next(iter(arrays))!r}")
    return ModelBundle(
        state=state,
        feature_config=feature_config,
        normalizer=Normalizer(np.stack(rows["mean"]), np.stack(rows["std"]), fitted_on),
        sample_rate=float(rate),
        dataset_name=dataset_name,
    )


def _section(meta: dict, key: str, cls) -> object:
    """Pop metadata object ``key``, which must hold every field of dataclass ``cls``.

    A missing field is a KeyError naming its path. Each field ``cls`` does not
    take as an argument (init=False) is a constant: it is popped, and a
    ValueError unless it equals its default and has its type, so 6.0 and True
    are no class count of 6. A value that is not an object is left for
    ``cls`` to refuse.
    """
    section = meta.pop(key)
    if isinstance(section, dict):
        for f in fields(cls):
            if f.name not in section:
                raise KeyError(f"{key}.{f.name}")
        for f in fields(cls):
            if not f.init:
                value = section.pop(f.name)
                if type(value) is not type(f.default) or value != f.default:
                    raise ValueError(f"{key}.{f.name} must be {f.default!r}, got {value!r}")
    return section


def _bundle_array(
    path: Path, arrays: dict, kind: str, name: str, shape: tuple, dtype: type
) -> np.ndarray:
    """Pop bundle array ``name``, refused unless it is present, of ``shape`` and of ``dtype``."""
    if name not in arrays:
        raise DataError(f"{path}: bundle is missing {kind} array {name!r}")
    arr = arrays.pop(name)
    if arr.shape != shape:
        raise DataError(f"{path}: {kind} array {name!r} has shape {arr.shape}, expected {shape}")
    if arr.dtype != dtype:
        raise DataError(f"{path}: {kind} array {name!r} has dtype {arr.dtype}, "
                        f"expected {np.dtype(dtype)}")
    return arr
