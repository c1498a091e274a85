"""Versioned model bundles: one binary file reproduces inference end to end.

The bundle is a zip of numpy arrays (written through an open handle so the
file name is kept verbatim) plus one JSON metadata entry holding the format
version, network hyperparameters, feature configuration, sample rate and
normalizer bookkeeping. Arrays are stored as float64 and a bundle holding
any other dtype is refused, so a reloaded model reproduces predictions
bit-exactly for the same code and BLAS thread count.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import STD_FLOOR, FeatureConfig, Normalizer
from .network import ConvSpec, NetworkSpec, NetworkState, _is_finite_number, empty_network

FORMAT_VERSION = 1
_META_KEY = "__meta__"
# bundle name, Normalizer field and channel row of each normalizer array, in file order
_NORM_ARRAYS = [(f"norm.{attr}{row + 1}", attr, row) for row in (0, 1) for attr in ("mean", "std")]


@dataclass
class ModelBundle:
    state: NetworkState
    feature_config: FeatureConfig
    normalizer: Normalizer | None
    sample_rate: float | None
    dataset_name: str = ""


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    spec = bundle.state.spec
    meta = {
        "format_version": FORMAT_VERSION,
        "network": {**asdict(spec), "conv_layers": [astuple(c) for c in spec.conv_layers]},
        "feature_config": asdict(bundle.feature_config),
        "sample_rate": bundle.sample_rate,
        "dataset_name": bundle.dataset_name,
        "has_normalizer": bundle.normalizer is not None,
        "normalizer_fitted_on": bundle.normalizer.fitted_on if bundle.normalizer else "",
    }
    arrays = {name: arr for name, arr in bundle.state.parameters()}
    if bundle.normalizer is not None:
        for name, attr, row in _NORM_ARRAYS:
            arrays[name] = getattr(bundle.normalizer, attr)[row]
    with open(path, "wb") as fh:
        np.savez(fh, **{_META_KEY: np.array(json.dumps(meta)), **arrays})


def load_model(path: str | Path) -> ModelBundle:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            if _META_KEY not in data:
                raise DataError(f"{path}: not a model bundle (missing metadata entry)")
            meta = json.loads(str(data[_META_KEY]))
            arrays = {k: data[k] for k in data.files if k != _META_KEY}
    except (zipfile.BadZipFile, ValueError, json.JSONDecodeError, io.UnsupportedOperation) as e:
        raise DataError(f"{path}: cannot read model bundle: {e}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: bundle metadata must be a JSON object, got {meta!r}")

    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version {version!r}")

    try:
        net = meta["network"]
        spec = NetworkSpec(**{**net, "conv_layers": [ConvSpec(*c) for c in net["conv_layers"]]})
        feature_config = FeatureConfig(**meta["feature_config"])
        state = empty_network(spec)
        if feature_config.nbins != spec.input_bins:
            raise ValueError(
                f"feature_config.nbins is {feature_config.nbins} "
                f"but network.input_bins is {spec.input_bins}"
            )
        rate = meta.get("sample_rate")
        if rate is not None and not (_is_finite_number(rate) and rate > 0):
            raise ValueError(f"sample_rate must be null or a finite number > 0, got {rate!r}")
        has_normalizer = meta["has_normalizer"]
        if not isinstance(has_normalizer, bool):
            raise ValueError(f"has_normalizer must be true or false, got {has_normalizer!r}")
        if has_normalizer != (feature_config.normalization == "zscore"):
            raise ValueError(
                f"has_normalizer is {json.dumps(has_normalizer)} "
                f"but feature_config.normalization is {feature_config.normalization!r}"
            )
    except KeyError as e:
        raise DataError(f"{path}: bundle metadata is missing {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: bad bundle metadata: {e}") from None
    for prefix, layer in state.layers():
        for attr in ("weights", "bias"):
            shape = getattr(layer, attr).shape
            setattr(layer, attr, _bundle_array(path, arrays, "weight", f"{prefix}.{attr}", shape))

    normalizer = None
    if has_normalizer:
        rows = {"mean": [], "std": []}
        for name, attr, _ in _NORM_ARRAYS:
            arr = _bundle_array(path, arrays, "normalizer", name, (feature_config.nbins,))
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: normalizer array {name!r} holds non-finite values")
            if attr == "std" and arr.min() < STD_FLOOR:
                raise DataError(f"{path}: normalizer array {name!r} holds stds below {STD_FLOOR}")
            rows[attr].append(arr)
        normalizer = Normalizer(
            mean=np.stack(rows["mean"]),
            std=np.stack(rows["std"]),
            fitted_on=meta.get("normalizer_fitted_on", ""),
        )
    return ModelBundle(
        state=state,
        feature_config=feature_config,
        normalizer=normalizer,
        sample_rate=float(rate) if rate is not None else None,
        dataset_name=meta.get("dataset_name", ""),
    )


def _bundle_array(path: Path, arrays: dict, kind: str, name: str, shape: tuple) -> np.ndarray:
    """Bundle array ``name``, refused unless it is present, of ``shape`` and float64."""
    if name not in arrays:
        raise DataError(f"{path}: bundle is missing {kind} array {name!r}")
    arr = arrays[name]
    if arr.shape != shape:
        raise DataError(f"{path}: {kind} array {name!r} has shape {arr.shape}, expected {shape}")
    if arr.dtype != np.float64:
        raise DataError(f"{path}: {kind} array {name!r} has dtype {arr.dtype}, expected float64")
    return arr
