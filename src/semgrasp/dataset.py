"""Two-channel sEMG dataset handling: interchange format, splits, synthetic data.

Interchange layout (one directory per dataset):

    manifest.csv            header: file,label,subject,session,sample_rate
    rec00000.csv, ...       one file per record, two columns ``ch1,ch2``,
                            one row per sample, no header

Labels are the single characters C/T/L/H/P/S (six grasp types), mapped to
class indices 0..5 in that order. Floats are written with Python's ``repr``
(shortest round-trip form), so write -> load -> write reproduces the stored
text exactly. write_dataset writes a list of EmgRecords; load_dataset reduces each chunk
of records, where it reads them, to one row per record and joins the rows into one array.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .network import LABELS, _is_finite_number, _sigint_held

LABEL_TO_INDEX = {lab: i for i, lab in enumerate(LABELS)}

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("file", "label", "subject", "session", "sample_rate")


def label_to_index(label: str) -> int:
    try:
        return LABEL_TO_INDEX[label]
    except KeyError:
        raise DataError(f"unknown label {label!r}; expected one of {''.join(LABELS)}") from None


def _check_rate(rate, where: str = "", error: type[Exception] = DataError) -> None:
    """The one rule for every sample rate: a finite number > 0, never a bool.

    A rate that breaks it raises ``error`` with ``where`` ahead of the one wording.
    """
    if not (_is_finite_number(rate) and rate > 0):
        raise error(f"{where}sample_rate must be a finite number > 0, got {rate!r}")


def _read_rate(text: str, where: str) -> float:
    """The sample rate a CSV cell or a dump's recipe spells; DataErrors name ``where``."""
    try:
        rate = float(text)
    except ValueError:
        raise DataError(f"{where}bad sample_rate {text!r}") from None
    _check_rate(rate, where)
    return rate


@dataclass
class EmgRecord:
    """One two-channel recording. Channels are equal-length float arrays.

    A record read outside any dataset, for `semgrasp predict`, has the label,
    subject and session None.
    """

    channel1: np.ndarray
    channel2: np.ndarray
    sample_rate: float
    label: str | None
    subject_id: str | None = "na"
    session_id: str | None = "na"

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
        _check_rate(self.sample_rate, f"{name}: ")
        if not np.isfinite(self.channel1).all() or not np.isfinite(self.channel2).all():
            raise DataError(f"{name}: non-finite sample value")

    @property
    def n_samples(self) -> int:
        return len(self.channel1)


def validate_records(records: list[EmgRecord], name: str) -> None:
    """Each record must be valid and share the first one's sample rate and length."""
    for i, rec in enumerate(records):
        rec.validate(name=f"{name}[{i}]")
    _check_alike(name, [(f"{name}[{i}]", r.sample_rate, r.n_samples)
                        for i, r in enumerate(records)])


def _check_alike(name: str, shapes: list[tuple[object, float, int]]) -> None:
    """Every record's (sample rate, length) must be the first record's; none at all is an error.

    shapes holds (what names the record, sample rate, length) of each record.
    """
    if not shapes:
        raise DataError(f"{name}: no records found")
    _, rate, length = shapes[0]
    for where, rec_rate, rec_length in shapes:
        if rec_rate != rate:
            raise DataError(f"{where}: sample rate {rec_rate} differs from {rate}")
        if rec_length != length:
            raise DataError(f"{where}: length {rec_length} differs from {length}")


@dataclass
class Dataset:
    """A loaded dataset: each record's metadata, and x, its rows as one [n, ...] array."""

    name: str
    sample_rate: float
    labels: list[str]
    subjects: list[str]
    sessions: list[str]
    x: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SplitPlan:
    """Stratified train/test index partition for one dataset ordering."""

    train_indices: list[int]
    test_indices: list[int]


# (record path, label, sample rate, subject, session) of one manifest row
_Entry = tuple[Path, str | None, float, str | None, str | None]
# load_dataset's reduction of one chunk's records, where they are read, to what np.concatenate
# can join: one row per record, such as an array or a list
_Reducer = Callable[[list[EmgRecord]], Sequence]


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(x))


def load_dataset(path: str | Path, reduce: _Reducer, subject: str | None = None,
                 session: str | None = None) -> Dataset:
    """Load and validate a dataset directory in the interchange layout.

    Every schema violation is reported with the offending file and line. The
    whole manifest is checked first. Then only the records of the given
    subject and session (either None: any) are read, in manifest order, and
    the first that fails raises its error (see _read_records); a manifest
    that lists records of which none is selected is refused before any is
    read. Then there must be records, and every selected one must share the
    first one's sample rate and length. A record the call does not select is
    never opened.

    Each chunk of _CHUNK_RECORDS records is reduced to ``reduce(records)``, one row per
    record, in the process that reads it, and its channels are dropped there. Dataset.x
    joins the chunks' reductions, in manifest order, with one np.concatenate.
    """
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    if not manifest.is_file():
        raise DataError(f"no records found: missing {manifest}")

    wanted = {k: v for k, v in (("subject", subject), ("session", session)) if v is not None}
    listed = list(_manifest_entries(root, manifest))
    entries = [e for e in listed if subject in (None, e[3]) and session in (None, e[4])]
    if listed and not entries:
        asked = ",".join(f"{k}={v}" for k, v in wanted.items())
        raise DataError(f"subset {asked!r} selected no records")
    read = _read_records(entries, reduce)
    lengths = (n for chunk_lengths, _ in read for n in chunk_lengths)
    # the reader and the manifest check already refuse what EmgRecord.validate would
    _check_alike(root.name, [(file, rate, n) for (file, _, rate, _, _), n in zip(entries, lengths)])
    _, labels, _, subjects, sessions = zip(*entries)
    return Dataset("/".join([root.name, *wanted.values()]), entries[0][2], list(labels),
                   list(subjects), list(sessions), np.concatenate([rows for _, rows in read]))


def _manifest_entries(root: Path, manifest: Path):
    """The _Entry of each manifest row, in order.

    Raises DataError at the first row that breaks the schema.
    """
    base = root.resolve()
    rows = _csv_rows(manifest)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{manifest}:1: empty manifest") from None
    for col in MANIFEST_COLUMNS:
        if col not in header:
            raise DataError(f"{manifest}:1: missing manifest column {col!r}")
    idx = {col: header.index(col) for col in MANIFEST_COLUMNS}
    listed_on = {}  # resolved record path -> the manifest line that lists it
    for lineno, row in rows:
        if not row:
            continue
        if any("\0" in cell for cell in row):
            raise DataError(f"{manifest}:{lineno}: row holds a NUL byte")
        if len(row) != len(header):
            raise DataError(
                f"{manifest}:{lineno}: expected {len(header)} columns, got {len(row)}"
            )
        for col in ("subject", "session"):
            if not row[idx[col]].strip():
                raise DataError(f"{manifest}:{lineno}: empty {col}")
        fname = row[idx["file"]]
        if fname.isspace():
            raise DataError(f"{manifest}:{lineno}: record file {fname!r} is blank")
        label = row[idx["label"]]
        if label not in LABEL_TO_INDEX:
            raise DataError(f"{manifest}:{lineno}: unknown label {label!r}")
        rate = _read_rate(row[idx["sample_rate"]], f"{manifest}:{lineno}: ")
        try:
            resolved = (root / fname).resolve()
        except (RuntimeError, OSError) as e:  # a symlink loop
            raise DataError(f"{manifest}:{lineno}: record file {fname!r}: {e}") from None
        if not resolved.is_relative_to(base):
            raise DataError(
                f"{manifest}:{lineno}: record file {fname!r} lies outside the dataset directory"
            )
        if resolved == base:  # an empty cell or "."
            raise DataError(f"{manifest}:{lineno}: record file {fname!r} is the dataset directory")
        if resolved in listed_on:
            raise DataError(f"{manifest}:{lineno}: record file {fname!r} is listed on line "
                            f"{listed_on[resolved]} too")
        listed_on[resolved] = lineno
        yield root / fname, label, rate, row[idx["subject"]], row[idx["session"]]


# From this many records on, load_dataset reads them in worker processes.
# Starting the pool costs about 15 ms, and a dataset of one chunk keeps only
# one worker busy. On a 2-core x86 VM, 3000-row records read in workers took
# 1.3-1.5x the in-process time up to 32 records, 0.89x at 48 and 0.73-0.84x
# from 64 to 128 (medians of 7 loads each).
_PARALLEL_MIN_RECORDS = 64
# records per chunk, the unit read and reduced at once, in a worker or in-process
_CHUNK_RECORDS = 32


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _read_chunk(entries: list[_Entry], reduce: _Reducer) -> tuple[list[int], Sequence]:
    """(each record's length, ``reduce(records)``) of one chunk of manifest entries.

    Reads the records up to the first that cannot be read and reduces them in
    one call. The first failure in entry order is raised: the reduction's
    DataError as the same type, prefixed with the path of the first record
    that fails alone, else the read's error as the reader words it.
    """
    records, failure = [], None
    for path, label, rate, subject, session in entries:
        try:
            records.append(EmgRecord(*read_record_csv(path), rate, label, subject, session))
        except (DataError, OSError) as e:
            failure = e
            break
    if not records:  # the chunk's first record cannot be read
        raise failure
    try:
        rows = reduce(records)
    except DataError:
        for (path, *_), record in zip(entries, records):
            try:
                reduce([record])
            except DataError as e:
                raise type(e)(f"{path}: {e}") from None
        raise  # no record fails alone
    if failure is not None:
        raise failure
    return [r.n_samples for r in records], rows


def _read_records(entries: list[_Entry], reduce: _Reducer) -> list[tuple[list[int], Sequence]]:
    """_read_chunk of each chunk of _CHUNK_RECORDS entries, in order; raises the first error.

    With at least _PARALLEL_MIN_RECORDS entries, two usable cores and the
    ``fork`` start method, the chunks are read and reduced in a pool of
    forked worker processes, one per usable core, so that only the rows
    travel back. A forked worker calls this module's read_record_csv and
    ``reduce`` as the parent sees them, and returns the same rows. A chunk
    whose worker died is redone in-process. No worker outlives the call.
    Otherwise the chunks are read in-process, one after the other, so that
    at most one chunk's channels are alive at a time.

    Forked, not spawned: a worker starts without importing numpy again. It
    never waits on a thread the fork left behind. The network's channel-stack
    thread is not copied, and a worker would start one only in a network call,
    which no worker makes. OpenBLAS shuts its own threads down in a
    pthread_atfork handler before every fork, and feature extraction runs it
    on one thread, so a worker starts none.
    """
    chunks = [entries[i:i + _CHUNK_RECORDS] for i in range(0, len(entries), _CHUNK_RECORDS)]
    cores = _usable_cores()
    if len(entries) < _PARALLEL_MIN_RECORDS or cores < 2:
        return [_read_chunk(chunk, reduce) for chunk in chunks]
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a daemonic process (a multiprocessing.Pool worker) may start no processes
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return [_read_chunk(chunk, reduce) for chunk in chunks]
    pool = ProcessPoolExecutor(min(cores, len(chunks)), multiprocessing.get_context("fork"))
    try:
        # the first submit forks every worker and starts the pool's threads, which
        # keep the mask they start with: SIGINT stays blocked in all of them, so
        # an interrupt is the parent's alone to report
        with _sigint_held():
            futures = [pool.submit(_read_chunk, chunk, reduce) for chunk in chunks]
        read = []
        for chunk, future in zip(chunks, futures):
            try:
                read.append(future.result())
            except BrokenProcessPool:
                read.append(_read_chunk(chunk, reduce))
        return read
    finally:
        # an interrupt inside shutdown's weakref callbacks would be printed and
        # dropped; held, it is raised once the workers are gone
        with _sigint_held():
            pool.shutdown(wait=True, cancel_futures=True)


def _csv_rows(path: Path):
    """(line number, row) pairs of a CSV file, numbered by the physical line each row
    starts on, so a quoted cell that spans lines does not shift the rows after it.
    Text that does not decode, and a cell over csv.field_size_limit(), are a
    DataError naming the line."""
    line = 1
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                yield line, row
                line = reader.line_num + 1
    except csv.Error as e:
        raise DataError(f"{path}:{line}: {e}") from None
    except UnicodeDecodeError as e:
        # the reader decodes a block at a time, so only the whole file gives the offset
        try:
            path.read_bytes().decode(e.encoding)
        except UnicodeDecodeError as whole:
            e = whole
        line = e.object[: e.start].count(b"\n") + 1
        raise DataError(f"{path}:{line}: not {e.encoding} text ({e.reason})") from None


@contextmanager
def _write_whole(path: str | Path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit it replaces ``path``.

    On any exception the temporary file is removed and ``path`` is left as it
    was, so a reader never sees part of a file. An error opening or renaming
    the temporary file is raised naming ``path``, the file the caller asked for.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        with suppress(OSError):  # a failed cleanup must not hide the error that caused it
            tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp):
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def read_record_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read one interchange record file (two columns ch1,ch2, no header)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: not a regular file" if os.path.lexists(path)
                        else f"{path}: record file not found")
    # each channel is a C-contiguous row of one [2, n] copy. Copying the two
    # columns apart instead left the heap about 20 MB larger after loading
    # 900 records of 3000 samples (glibc malloc).
    ch1, ch2 = _read_matrix(path, columns=2).T.copy()
    return ch1, ch2


def write_dataset(records: list[EmgRecord], path: str | Path) -> None:
    """Write records as a dataset directory in the interchange layout (manifest + record files)."""
    root = Path(path)
    validate_records(records, root.name)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, rec in enumerate(records):
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


def generate_synthetic(n_per_class: int, length: int, seed: int) -> list[EmgRecord]:
    """The records of a six-class synthetic dataset, deterministic for a given seed.

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
    validate_records(records, f"synthetic{seed}")
    return records


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
    _check_rate(sample_rate, error=ConfigError)
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

    write_dataset(records, out_root)
    return len(records)


def _read_matrix(path: Path, columns: int | None = None) -> np.ndarray:
    """The float64 matrix of a numeric CSV file, one row per line.

    numpy's C parser reads it first; its result is taken when it has rows,
    ``columns`` columns (when given) and only finite values. Otherwise the
    line-by-line reader, which reads everything numpy accepts to the same
    values and is the only source of ``file:line`` errors, reads it again.
    """
    try:
        # an empty file makes loadtxt warn; the line reader reports it instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except (ValueError, OSError):
        pass  # the line reader says what numpy refused
    else:
        if len(m) > 0 and columns in (None, m.shape[1]) and np.isfinite(m).all():
            return m
    return _read_matrix_lines(path, columns)


def _read_matrix_lines(path: Path, columns: int | None = None) -> np.ndarray:
    """Line-by-line reader: each row must be ``columns`` wide, else as wide as the first."""
    rows: list[list[float]] = []
    width = columns
    for lineno, row in _csv_rows(path):
        if not row:
            continue
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed value in row {row!r}") from None
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"{path}:{lineno}: non-finite sample value")
        if width is None:
            width = len(vals)
        if len(vals) != width:
            raise DataError(f"{path}:{lineno}: row has {len(vals)} values, expected {width}")
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: file holds no samples")
    return np.array(rows)
