"""Record -> normalized log-power feature vectors, plus the CSV dump format.

Each channel of a record is fitted with an AR model, its spectral density is
sampled on a fixed frequency grid, and the values are log10-compressed (PSD
magnitudes span several decades, and a linear scale would let low-frequency
power drown everything else). Z-score statistics are fitted on training
records only and applied everywhere else.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# extraction runs the row forms; burg_fit and psd_from_model stay importable
# from here, where the benchmark's traced run wraps them
from .burg import _fit_rows, _psd_rows, burg_fit, psd_from_model
from .dataset import LABEL_TO_INDEX, EmgRecord, _csv_rows, _fmt
from .errors import DataError, DegenerateSignalError
from .network import _check_sizes, _is_finite_number, _one_blas_thread

STD_FLOOR = 1e-8
# Records per Burg lattice call, two rows each. Per 100 records of 3000
# samples (order 10, 2-core Xeon, 4 MiB L2) extraction took 14-15 ms at 4-8
# records per call, 18 ms at 16, 24-26 ms at 32 to 100, whose error buffers
# no longer fit in L2, and 26 ms at 1.
_LATTICE_RECORDS = 8


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

    extract_all of this one record. Silences numpy's floating-point warnings;
    features that are not all finite are a DataError.
    """
    return extract_all([record], cfg)[0]


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
    """extract_features of each record, in order: views of feature_rows(records, cfg)."""
    return unstack_channels(feature_rows(records, cfg), [r.label for r in records])


def feature_rows(records: list[EmgRecord], cfg: FeatureConfig) -> np.ndarray:
    """The features of each record, in order, as one [n, 2, nbins] array: load_dataset's reducer.

    Runs of consecutive records that share length and sample rate are fitted
    up to _LATTICE_RECORDS at a time, their channels as the rows of one Burg
    lattice; each row equals burg_fit of its channel alone bit for bit. The
    first record that fails raises what extract_features raises for it:
    too short, then channel1's refusal, channel2's, non-finite features.
    """
    x = np.empty((len(records), 2, cfg.nbins))
    start = 0
    with _one_blas_thread(), np.errstate(all="ignore"):
        for _, run in itertools.groupby(records, key=_fit_shape):
            run = list(run)
            for k in range(0, len(run), _LATTICE_RECORDS):
                chunk = run[k : k + _LATTICE_RECORDS]
                x[start : start + len(chunk)] = _extract_run(chunk, cfg)
                start += len(chunk)
    return x


def _fit_shape(record: EmgRecord) -> tuple[int, int, float]:
    """What records fitted in one lattice call share: channel lengths and sample rate."""
    return len(record.channel1), len(record.channel2), record.sample_rate


def _extract_run(records: list[EmgRecord], cfg: FeatureConfig) -> np.ndarray:
    """Features [k, 2, nbins] of records that share length and sample rate."""
    first = records[0]
    n = first.n_samples
    if n <= cfg.ar_order + 1:
        raise DataError(f"record has {n} samples; need > ar_order + 1 = {cfg.ar_order + 1}")
    if len(first.channel2) != n:
        raise DataError(f"{_where(first)}channel length mismatch ({n} vs {len(first.channel2)})")
    x = np.empty((len(records), 2, n))
    for row, record in zip(x, records):
        row[0], row[1] = record.channel1, record.channel2
    _, ar, noise, refusals = _fit_rows(x.reshape(-1, n), cfg.ar_order)
    power = _psd_rows(ar, noise, first.sample_rate, cfg.nbins)
    feats = np.log10(np.maximum(power, cfg.log_floor)).reshape(len(records), 2, cfg.nbins)
    finite = np.isfinite(feats).all(axis=(1, 2)).tolist()
    for i, record in enumerate(records):
        for name, refusal in zip(("channel1", "channel2"), refusals[2 * i : 2 * i + 2]):
            if refusal is not None:
                raise DegenerateSignalError(f"{_where(record, name)}{refusal}") from refusal
        if not finite[i]:
            raise DataError(
                f"{_where(record)}features not finite at sample rate {record.sample_rate} Hz"
            )
    return feats


def _dump_header(nbins: int) -> list[str]:
    return ["label"] + [f"ch{ch}_f{i}" for ch in (1, 2) for i in range(nbins)]


def save_features_csv(path: str | Path, x: np.ndarray, labels: list[str]) -> None:
    """Write [n, 2, nbins] features as CSV: label,ch1_f0..ch1_f{n-1},ch2_f0..ch2_f{n-1}."""
    if not labels:
        raise DataError("no features to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_dump_header(x.shape[2]))
        for label, row in zip(labels, x):
            writer.writerow([label, *map(_fmt, row.ravel().tolist())])


def load_features_csv(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """The [n, 2, nbins] features and the labels of a dump written by save_features_csv."""
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
    labels, values = [], []
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
        labels.append(label)
        values.append(vals)
    if not labels:
        raise DataError(f"{path}: no feature rows found")
    return np.stack(values).reshape(len(labels), 2, nbins), labels
