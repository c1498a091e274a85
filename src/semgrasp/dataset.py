"""Two-channel sEMG dataset handling: interchange format, splits, synthetic data.

Interchange layout (one directory per dataset):

    manifest.csv            header: file,label,subject,session,sample_rate
    rec00000.csv, ...       one file per record, two columns ``ch1,ch2``,
                            one row per sample, no header

Labels are the single characters C/T/L/H/P/S (six grasp types), mapped to
class indices 0..5 in that order. Floats are written with Python's ``repr``
(shortest round-trip form), so write -> load -> write reproduces the stored
text exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .network import _is_finite_number

LABELS = ("C", "T", "L", "H", "P", "S")
LABEL_TO_INDEX = {lab: i for i, lab in enumerate(LABELS)}
NUM_CLASSES = len(LABELS)

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("file", "label", "subject", "session", "sample_rate")


def label_to_index(label: str) -> int:
    try:
        return LABEL_TO_INDEX[label]
    except KeyError:
        raise DataError(f"unknown label {label!r}; expected one of {''.join(LABELS)}") from None


def index_to_label(index: int) -> str:
    if not 0 <= index < NUM_CLASSES:
        raise DataError(f"class index {index} out of range 0..{NUM_CLASSES - 1}")
    return LABELS[index]


@dataclass
class EmgRecord:
    """One labeled two-channel recording. Channels are equal-length float arrays."""

    channel1: np.ndarray
    channel2: np.ndarray
    sample_rate: float
    label: str
    subject_id: str = "na"
    session_id: str = "na"

    def __post_init__(self):
        self.channel1 = np.asarray(self.channel1, dtype=np.float64)
        self.channel2 = np.asarray(self.channel2, dtype=np.float64)

    def validate(self, name: str = "record") -> None:
        if self.label not in LABEL_TO_INDEX:
            raise DataError(f"{name}: unknown label {self.label!r}")
        n1, n2 = len(self.channel1), len(self.channel2)
        if n1 == 0 or n2 == 0:
            raise DataError(f"{name}: empty channel data")
        if n1 != n2:
            raise DataError(f"{name}: channel length mismatch ({n1} vs {n2})")
        if not (_is_finite_number(self.sample_rate) and self.sample_rate > 0):
            raise DataError(f"{name}: sample_rate must be finite and > 0, got {self.sample_rate}")
        if not np.isfinite(self.channel1).all() or not np.isfinite(self.channel2).all():
            raise DataError(f"{name}: non-finite sample value")

    @property
    def n_samples(self) -> int:
        return len(self.channel1)


@dataclass
class Dataset:
    """Ordered collection of records sharing one sample rate and series length."""

    records: list[EmgRecord]
    name: str = "dataset"

    def __len__(self) -> int:
        return len(self.records)

    def validate(self) -> None:
        if not self.records:
            raise DataError(f"{self.name}: no records found")
        rate = self.records[0].sample_rate
        length = self.records[0].n_samples
        for i, rec in enumerate(self.records):
            rec.validate(name=f"{self.name}[{i}]")
            if rec.sample_rate != rate:
                raise DataError(
                    f"{self.name}[{i}]: sample rate {rec.sample_rate} differs from {rate}"
                )
            if rec.n_samples != length:
                raise DataError(
                    f"{self.name}[{i}]: length {rec.n_samples} differs from {length}"
                )

    def class_counts(self) -> dict[str, int]:
        counts = {lab: 0 for lab in LABELS}
        for rec in self.records:
            counts[rec.label] += 1
        return counts

    @property
    def sample_rate(self) -> float:
        return self.records[0].sample_rate

    def subset(self, subject: str | None = None, session: str | None = None) -> "Dataset":
        recs = [
            r
            for r in self.records
            if (subject is None or r.subject_id == subject)
            and (session is None or r.session_id == session)
        ]
        tag = subject if subject is not None else session
        return Dataset(records=recs, name=f"{self.name}/{tag}")


@dataclass
class SplitPlan:
    """Stratified train/test index partition for one dataset ordering."""

    train_indices: list[int]
    test_indices: list[int]


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(x))


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset directory in the interchange layout.

    Every schema violation is reported with the offending file and line.
    """
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    if not manifest.is_file():
        raise DataError(f"no records found: missing {manifest}")

    base = root.resolve()
    records: list[EmgRecord] = []
    with open(manifest, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{manifest}:1: empty manifest") from None
        for col in MANIFEST_COLUMNS:
            if col not in header:
                raise DataError(f"{manifest}:1: missing manifest column {col!r}")
        idx = {col: header.index(col) for col in MANIFEST_COLUMNS}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise DataError(
                    f"{manifest}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            fname = row[idx["file"]]
            label = row[idx["label"]]
            if label not in LABEL_TO_INDEX:
                raise DataError(f"{manifest}:{lineno}: unknown label {label!r}")
            try:
                rate = float(row[idx["sample_rate"]])
            except ValueError:
                raise DataError(
                    f"{manifest}:{lineno}: bad sample_rate {row[idx['sample_rate']]!r}"
                ) from None
            if not (math.isfinite(rate) and rate > 0):
                raise DataError(f"{manifest}:{lineno}: sample_rate must be positive, got {rate}")
            if not (root / fname).resolve().is_relative_to(base):
                raise DataError(
                    f"{manifest}:{lineno}: record file {fname!r} lies outside the dataset directory"
                )
            ch1, ch2 = read_record_csv(root / fname)
            rec = EmgRecord(
                channel1=ch1,
                channel2=ch2,
                sample_rate=rate,
                label=label,
                subject_id=row[idx["subject"]],
                session_id=row[idx["session"]],
            )
            records.append(rec)

    ds = Dataset(records=records, name=root.name)
    ds.validate()
    return ds


def read_record_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read one interchange record file (two columns ch1,ch2, no header)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"record file not found: {path}")
    ch1: list[float] = []
    ch2: list[float] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 values (ch1,ch2), got {len(row)}")
            try:
                v1, v2 = float(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed value in row {row!r}") from None
            if not (math.isfinite(v1) and math.isfinite(v2)):
                raise DataError(f"{path}:{lineno}: non-finite sample value")
            ch1.append(v1)
            ch2.append(v2)
    if not ch1:
        raise DataError(f"{path}: record file holds no samples")
    return np.array(ch1), np.array(ch2)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset directory in the interchange layout (manifest + record files)."""
    dataset.validate()
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, rec in enumerate(dataset.records):
        fname = f"rec{i:05d}.csv"
        with open(root / fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            for v1, v2 in zip(rec.channel1, rec.channel2):
                writer.writerow([_fmt(v1), _fmt(v2)])
        rows.append([fname, rec.label, rec.subject_id, rec.session_id, _fmt(rec.sample_rate)])
    with open(root / MANIFEST_NAME, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)


def split_by_labels(labels: list[str], fraction: float, seed: int) -> SplitPlan:
    """Stratified deterministic split; per class, ceil(count * fraction) goes to train.

    When a class count does not divide evenly the extra record lands in the
    training set. Identical (labels, fraction, seed) always produce the
    identical plan. Raises DataError when no record is left for the test set.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0,1), got {fraction}")
    if not labels:
        raise DataError("cannot split an empty dataset")

    by_class: dict[str, list[int]] = {lab: [] for lab in LABELS}
    for i, lab in enumerate(labels):
        if lab not in LABEL_TO_INDEX:
            raise DataError(f"unknown label {lab!r}")
        by_class[lab].append(i)

    rng = np.random.default_rng(seed)
    train: list[int] = []
    test: list[int] = []
    for lab in LABELS:
        idxs = by_class[lab]
        if not idxs:
            continue
        if len(idxs) < 2:
            raise DataError(f"class {lab} has {len(idxs)} record(s); need >= 2 to stratify")
        order = rng.permutation(len(idxs))
        n_train = math.ceil(len(idxs) * fraction)
        shuffled = [idxs[j] for j in order]
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])
    if not test:
        raise DataError(f"split fraction {fraction} leaves no record for the test set")
    train.sort()
    test.sort()
    return SplitPlan(train_indices=train, test_indices=test)


# Synthetic generator: each class is an AR(2) resonator driven by unit white
# noise, with a distinct resonance frequency per class and per channel; two
# classes additionally carry a pure tone so the recipes mix both families.
# Frequencies are far enough apart that order-10 AR power spectra separate
# the classes cleanly (see the nearest-centroid property test).
SYNTHETIC_SAMPLE_RATE = 500.0
_SYNTH_BURN_IN = 256
# label -> (ch1 resonance Hz, ch2 resonance Hz, pole radius, optional tone)
# tone = (channel index 0/1, frequency Hz, amplitude)
_SYNTH_RECIPES: dict[str, tuple[float, float, float, tuple[int, float, float] | None]] = {
    "C": (35.0, 65.0, 0.90, None),
    "T": (60.0, 95.0, 0.92, None),
    "L": (85.0, 125.0, 0.90, None),
    "H": (110.0, 155.0, 0.92, None),
    "P": (135.0, 185.0, 0.90, (0, 210.0, 1.5)),
    "S": (160.0, 215.0, 0.92, (1, 30.0, 1.5)),
}


def _ar2_series(rng: np.random.Generator, freq_hz: float, radius: float, length: int) -> np.ndarray:
    c1 = 2.0 * radius * math.cos(2.0 * math.pi * freq_hz / SYNTHETIC_SAMPLE_RATE)
    c2 = -radius * radius
    total = length + _SYNTH_BURN_IN
    w = rng.standard_normal(total)
    x = np.zeros(total)
    for n in range(total):
        x[n] = w[n]
        if n >= 1:
            x[n] += c1 * x[n - 1]
        if n >= 2:
            x[n] += c2 * x[n - 2]
    return x[_SYNTH_BURN_IN:]


def generate_synthetic(n_per_class: int, length: int, seed: int) -> Dataset:
    """Six-class synthetic dataset, deterministic for a given seed.

    Subjects s1..s5 and sessions d1..d3 are assigned round-robin within each
    class so per-subject/per-session subset runs have data to work with.
    """
    if n_per_class < 2:
        raise ValueError(f"n_per_class must be >= 2, got {n_per_class}")
    if length < 64:
        raise ValueError(f"length must be >= 64, got {length}")

    rng = np.random.default_rng(seed)
    records: list[EmgRecord] = []
    for lab in LABELS:
        f1, f2, radius, tone = _SYNTH_RECIPES[lab]
        for i in range(n_per_class):
            ch = [_ar2_series(rng, f1, radius, length), _ar2_series(rng, f2, radius, length)]
            if tone is not None:
                tone_ch, tone_hz, tone_amp = tone
                phase = rng.uniform(0.0, 2.0 * math.pi)
                t = np.arange(length) / SYNTHETIC_SAMPLE_RATE
                ch[tone_ch] = ch[tone_ch] + tone_amp * np.sin(
                    2.0 * math.pi * tone_hz * t + phase
                )
            records.append(
                EmgRecord(
                    channel1=ch[0],
                    channel2=ch[1],
                    sample_rate=SYNTHETIC_SAMPLE_RATE,
                    label=lab,
                    subject_id=f"s{i % 5 + 1}",
                    session_id=f"d{i % 3 + 1}",
                )
            )
    ds = Dataset(records=records, name=f"synthetic{seed}")
    ds.validate()
    return ds


def convert_class_matrices(
    input_dir: str | Path, output_dir: str | Path, sample_rate: float = 500.0
) -> int:
    """Convert per-class trial matrices into the interchange layout.

    Expected input: a directory whose subdirectories (one per subject group,
    named ``<subject>`` or ``<subject>__<session>``) each hold twelve CSV
    matrices ``<label>_ch1.csv`` / ``<label>_ch2.csv``, one row per trial, one
    column per sample. If the twelve files sit directly in ``input_dir`` it is
    treated as a single group. Returns the number of records written.
    """
    in_root = Path(input_dir)
    out_root = Path(output_dir)
    if not in_root.is_dir():
        raise DataError(f"input directory not found: {in_root}")
    if out_root.exists() and any(out_root.iterdir()):
        raise ConfigError(f"refusing to write into non-empty directory: {out_root}")

    if any((in_root / f"{lab}_ch1.csv").is_file() for lab in LABELS):
        groups = [in_root]
    else:
        groups = sorted(p for p in in_root.iterdir() if p.is_dir())

    records: list[EmgRecord] = []
    for group in groups:
        gname = group.name
        if "__" in gname:
            subject, session = gname.split("__", 1)
        else:
            subject, session = gname, "1"
        present = [
            lab
            for lab in LABELS
            if (group / f"{lab}_ch1.csv").is_file() or (group / f"{lab}_ch2.csv").is_file()
        ]
        if not present:
            continue
        for lab in LABELS:
            path1 = group / f"{lab}_ch1.csv"
            path2 = group / f"{lab}_ch2.csv"
            for p in (path1, path2):
                if not p.is_file():
                    raise DataError(f"missing class matrix: {p}")
            m1 = _read_matrix(path1)
            m2 = _read_matrix(path2)
            if m1.shape != m2.shape:
                raise DataError(
                    f"{group}: channel matrices for class {lab} disagree: "
                    f"{m1.shape} vs {m2.shape}"
                )
            for t in range(m1.shape[0]):
                records.append(
                    EmgRecord(
                        channel1=m1[t],
                        channel2=m2[t],
                        sample_rate=sample_rate,
                        label=lab,
                        subject_id=subject,
                        session_id=session,
                    )
                )
    if not records:
        raise DataError(f"no class matrix files (<label>_ch1.csv) found under {in_root}")

    ds = Dataset(records=records, name=out_root.name)
    write_dataset(ds, out_root)
    return len(records)


def _read_matrix(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed value") from None
            if not all(math.isfinite(v) for v in vals):
                raise DataError(f"{path}:{lineno}: non-finite sample value")
            if rows and len(vals) != len(rows[0]):
                raise DataError(
                    f"{path}:{lineno}: row has {len(vals)} samples, expected {len(rows[0])}"
                )
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: empty matrix")
    return np.array(rows)
