"""Versioned model bundles: one binary file reproduces inference end to end.

The bundle is a zip of numpy arrays (written through an open handle so the
file name is kept verbatim) plus one JSON metadata entry holding the format
version, network hyperparameters, feature configuration, sample rate and
normalizer bookkeeping. Arrays are stored as float64, so a reloaded model
reproduces predictions bit-exactly for the same code and BLAS thread count.
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
    except KeyError as e:
        raise DataError(f"{path}: bundle metadata is missing {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: bad bundle metadata: {e}") from None
    for prefix, layer in state.layers():
        for attr in ("weights", "bias"):
            name = f"{prefix}.{attr}"
            if name not in arrays:
                raise DataError(f"{path}: bundle is missing weight array {name!r}")
            expected = getattr(layer, attr).shape
            if arrays[name].shape != expected:
                raise DataError(
                    f"{path}: weight array {name!r} has shape {arrays[name].shape}, "
                    f"the network needs {expected}"
                )
            setattr(layer, attr, np.asarray(arrays[name], dtype=np.float64))

    normalizer = None
    if meta.get("has_normalizer"):
        rows = {"mean": [], "std": []}
        for name, attr, _ in _NORM_ARRAYS:
            if name not in arrays:
                raise DataError(f"{path}: bundle is missing normalizer array {name!r}")
            arr = arrays[name]
            if arr.shape != (feature_config.nbins,):
                raise DataError(
                    f"{path}: normalizer array {name!r} has shape {arr.shape}, "
                    f"the features need ({feature_config.nbins},)"
                )
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

