"""Record -> normalized log-power feature vectors, plus the CSV dump format.

Each channel of a record is fitted with an AR model, its spectral density is
sampled on a fixed frequency grid, and the values are log10-compressed (PSD
magnitudes span several decades, and a linear scale would let low-frequency
power drown everything else). Z-score statistics are fitted on training
records only and applied everywhere else.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .burg import burg_fit, psd_from_model
from .dataset import LABEL_TO_INDEX, EmgRecord, _csv_rows, _fmt
from .errors import DataError, DegenerateSignalError
from .network import _check_sizes, _is_finite_number

STD_FLOOR = 1e-8


@dataclass
class FeatureConfig:
    ar_order: int = 10
    nbins: int = 128
    log_floor: float = 1e-12
    normalization: str = "zscore"  # zscore | none

    def __post_init__(self):
        _check_sizes(self, ("ar_order", "nbins"))
        if self.nbins < 8:
            raise ValueError(f"nbins must be >= 8, got {self.nbins}")
        if not (_is_finite_number(self.log_floor) and self.log_floor > 0):
            raise ValueError(f"log_floor must be a finite number > 0, got {self.log_floor!r}")
        if self.normalization not in ("zscore", "none"):
            raise ValueError(f"normalization must be 'zscore' or 'none', got {self.normalization!r}")


@dataclass
class FeatureVector:
    channel1_features: np.ndarray
    channel2_features: np.ndarray
    label: str


@dataclass
class Normalizer:
    """Per-feature z-score statistics, [2, nbins]: one row per channel; stds are floored."""

    mean: np.ndarray
    std: np.ndarray
    fitted_on: str = ""


def stack_channels(features: list[FeatureVector]) -> np.ndarray:
    """The two channels of every vector as one [n, 2, nbins] array."""
    return np.stack([(f.channel1_features, f.channel2_features) for f in features])


def unstack_channels(x: np.ndarray, labels: list[str]) -> list[FeatureVector]:
    """One vector per [2, nbins] row of x, holding views of its two channels."""
    return [FeatureVector(row[0], row[1], label) for row, label in zip(x, labels)]


def extract_features(record: EmgRecord, cfg: FeatureConfig) -> FeatureVector:
    """Per channel: AR fit -> spectral density -> log10 with a positive floor.

    Silences numpy's floating-point warnings; features that are not all finite are a DataError.
    """
    if record.n_samples <= cfg.ar_order + 1:
        raise DataError(
            f"record has {record.n_samples} samples; need > ar_order + 1 = {cfg.ar_order + 1}"
        )
    feats = []
    with np.errstate(all="ignore"):
        for name, channel in (("channel1", record.channel1), ("channel2", record.channel2)):
            try:
                model = burg_fit(channel, cfg.ar_order, record.sample_rate)
            except DegenerateSignalError as e:
                raise DegenerateSignalError(f"{_where(record, name)}{e}") from e
            psd = psd_from_model(model, cfg.nbins)
            feats.append(np.log10(np.maximum(psd.power, cfg.log_floor)))
    if not np.isfinite(feats).all():
        raise DataError(
            f"{_where(record)}features not finite at sample rate {record.sample_rate} Hz"
        )
    return FeatureVector(channel1_features=feats[0], channel2_features=feats[1], label=record.label)


def _where(record: EmgRecord, channel: str | None = None) -> str:
    """The prefix, ending in ': ', that names the record (or one of its channels) in an error.

    A record with a label is named by its label, subject and session. One
    without (`semgrasp predict` reads a record outside any dataset) is named
    by its channel alone, and the caller adds its file.
    """
    names = [channel] if channel else []
    if record.label is not None:
        names.append(f"record (label={record.label}, subject={record.subject_id}, "
                     f"session={record.session_id})")
    return " of ".join(names) + ": " if names else ""


def feature_row(record: EmgRecord, cfg: FeatureConfig) -> np.ndarray:
    """extract_features(record, cfg) as one [2, nbins] row: load_dataset's reducer."""
    fv = extract_features(record, cfg)
    return np.stack((fv.channel1_features, fv.channel2_features))


def fit_normalizer(features: list[FeatureVector], fitted_on: str = "") -> Normalizer:
    """Per-feature mean and population std over the list, std floored at 1e-8."""
    if not features:
        raise DataError("cannot fit a normalizer on an empty feature list")
    x = stack_channels(features)
    return Normalizer(
        mean=x.mean(axis=0), std=np.maximum(x.std(axis=0), STD_FLOOR), fitted_on=fitted_on
    )


def apply_normalizer(norm: Normalizer, fv: FeatureVector) -> FeatureVector:
    nbins = norm.mean.shape[1]
    if len(fv.channel1_features) != nbins or len(fv.channel2_features) != nbins:
        raise DataError(
            f"feature dimension mismatch: normalizer expects {nbins}/{nbins}, got "
            f"{len(fv.channel1_features)}/{len(fv.channel2_features)}"
        )
    return FeatureVector(
        channel1_features=(fv.channel1_features - norm.mean[0]) / norm.std[0],
        channel2_features=(fv.channel2_features - norm.mean[1]) / norm.std[1],
        label=fv.label,
    )


def extract_all(records: list[EmgRecord], cfg: FeatureConfig) -> list[FeatureVector]:
    return [extract_features(r, cfg) for r in records]


def _dump_header(nbins: int) -> list[str]:
    return ["label"] + [f"ch{ch}_f{i}" for ch in (1, 2) for i in range(nbins)]


def save_features_csv(path: str | Path, features: list[FeatureVector]) -> None:
    """Write features as CSV: label,ch1_f0..ch1_f{n-1},ch2_f0..ch2_f{n-1}."""
    if not features:
        raise DataError("no features to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_dump_header(len(features[0].channel1_features)))
        for fv in features:
            writer.writerow(
                [fv.label]
                + [_fmt(v) for v in fv.channel1_features]
                + [_fmt(v) for v in fv.channel2_features]
            )


def load_features_csv(path: str | Path) -> list[FeatureVector]:
    """Load a feature dump written by save_features_csv."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"feature file not found: {path}")
    rows = _csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}:1: empty feature file") from None
    nbins = (len(header) - 1) // 2
    if header != _dump_header(nbins):
        raise DataError(f"{path}:1: feature header does not match the dump schema")
    out: list[FeatureVector] = []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        label = row[0]
        if label not in LABEL_TO_INDEX:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        try:
            vals = np.array([float(v) for v in row[1:]])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed feature value") from None
        if not np.isfinite(vals).all():
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        out.append(
            FeatureVector(
                channel1_features=vals[:nbins],
                channel2_features=vals[nbins:],
                label=label,
            )
        )
    if not out:
        raise DataError(f"{path}: no feature rows found")
    return out
