import math
from collections import Counter
import multiprocessing
import os
import warnings
from functools import partial

import numpy as np
import pytest

from helpers import keep_records, make_record

from semgrasp.burg import burg_fit, psd_from_model
from semgrasp import dataset
from semgrasp.dataset import (
    LABELS,
    _read_matrix,
    _read_matrix_lines,
    generate_synthetic,
    load_dataset,
    read_record_csv,
    split_by_labels,
    validate_records,
    write_dataset,
)
from semgrasp.errors import DataError, DegenerateSignalError
from semgrasp.features import (
    FeatureConfig,
    extract_all,
    feature_rows,
    load_features_csv,
    stack_channels,
)


def _balanced_records(per_class: int, length: int = 8) -> list:
    wave = np.linspace(0.0, 1.0, length)
    return [
        make_record(wave, wave + 1.0, label=lab)
        for lab in LABELS
        for _ in range(per_class)
    ]


# ------------------------------------------------------------------- records


def test_record_validation_errors():
    good = make_record([1.0, 2.0], [3.0, 4.0])
    good.validate()
    with pytest.raises(DataError, match="length mismatch"):
        make_record([1.0, 2.0], [3.0]).validate()
    with pytest.raises(DataError, match="empty"):
        make_record([], []).validate()
    with pytest.raises(DataError, match="sample_rate"):
        make_record([1.0], [1.0], rate=0.0).validate()
    with pytest.raises(DataError, match="non-finite"):
        make_record([1.0, np.nan], [1.0, 2.0]).validate()
    with pytest.raises(DataError, match="unknown label"):
        make_record([1.0], [1.0], label="X").validate()


def test_dataset_validation_catches_mixed_shapes(tmp_path):
    records = [make_record([1.0, 2.0], [1.0, 2.0]), make_record([1.0], [1.0])]
    with pytest.raises(DataError, match="length"):
        validate_records(records, "dataset")
    records2 = [make_record([1.0, 2.0], [1.0, 2.0], rate=500),
                make_record([1.0, 2.0], [1.0, 2.0], rate=250)]
    with pytest.raises(DataError, match="sample rate"):
        validate_records(records2, "dataset")
    with pytest.raises(DataError, match="no records"):
        validate_records([], "dataset")
    # write_dataset refuses them before it creates anything
    with pytest.raises(DataError, match=r"^mixed\[1\]: length 1 differs from 2$"):
        write_dataset(records, tmp_path / "mixed")
    assert not (tmp_path / "mixed").exists()


# --------------------------------------------------------------- interchange


def test_write_load_round_trip_exact(tmp_path):
    ds = generate_synthetic(3, 64, seed=42)
    out = tmp_path / "ds"
    write_dataset(ds, out)
    loaded = load_dataset(out, keep_records)
    assert len(loaded) == len(ds)
    for orig, back in zip(ds, loaded.x):
        # repr round-trips doubles exactly, so equality is bitwise
        np.testing.assert_array_equal(orig.channel1, back.channel1)
        np.testing.assert_array_equal(orig.channel2, back.channel2)
        assert orig.label == back.label
        assert orig.subject_id == back.subject_id
        assert orig.session_id == back.session_id
        assert orig.sample_rate == back.sample_rate
    # writing the loaded dataset again reproduces the stored text
    out2 = tmp_path / "ds2"
    write_dataset(list(loaded.x), out2)
    for f in sorted(out.iterdir()):
        assert (out2 / f.name).read_text() == f.read_text()


def test_load_empty_directory_reports_no_records(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataError, match="no records found"):
        load_dataset(empty, keep_records)


@pytest.mark.parametrize("subject", [None, "s1"], ids=["whole", "subset"])
def test_load_header_only_manifest_reports_no_records(tmp_path, subject):
    # a subset of a manifest without records is no fault of the subset's
    root = tmp_path / "ds"
    root.mkdir()
    (root / "manifest.csv").write_text("file,label,subject,session,sample_rate\n")
    with pytest.raises(DataError, match="^ds: no records found$"):
        load_dataset(root, keep_records, subject=subject)


def test_load_short_row_names_file_and_line(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "manifest.csv").write_text(
        "file,label,subject,session,sample_rate\nrec0.csv,C,s1,d1,500.0\n"
    )
    (root / "rec0.csv").write_text("1.0,2.0\n3.0\n4.0,5.0\n")
    with pytest.raises(DataError, match=r"rec0\.csv:2"):
        load_dataset(root, keep_records)


def test_load_unknown_label_and_nonfinite(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "rec0.csv").write_text("1.0,2.0\n")
    (root / "manifest.csv").write_text(
        "file,label,subject,session,sample_rate\nrec0.csv,Q,s1,d1,500.0\n"
    )
    with pytest.raises(DataError, match="unknown label 'Q'"):
        load_dataset(root, keep_records)
    (root / "manifest.csv").write_text(
        "file,label,subject,session,sample_rate\nrec0.csv,C,s1,d1,500.0\n"
    )
    (root / "rec0.csv").write_text("1.0,2.0\nnan,3.0\n")
    with pytest.raises(DataError, match=r"rec0\.csv:2.*non-finite"):
        load_dataset(root, keep_records)


@pytest.mark.parametrize("entry", ["../outside.csv", "sub/../../outside.csv", "ABSOLUTE"])
def test_load_refuses_record_outside_dataset_directory(tmp_path, entry):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "rec0.csv").write_text("1.0,2.0\n")
    outside = tmp_path / "outside.csv"
    outside.write_text("1.0,2.0\n")
    if entry == "ABSOLUTE":
        entry = str(outside)
    (root / "manifest.csv").write_text(
        "file,label,subject,session,sample_rate\n"
        f"rec0.csv,C,s1,d1,500.0\n{entry},T,s1,d1,500.0\n"
    )
    with pytest.raises(DataError, match=r"manifest\.csv:3: record file .* outside the dataset"):
        load_dataset(root, keep_records)


def test_load_missing_manifest_column_named(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "manifest.csv").write_text("file,label,subject,sample_rate\n")
    with pytest.raises(DataError, match="missing manifest column 'session'"):
        load_dataset(root, keep_records)


def test_read_record_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_record_csv(tmp_path / "nope.csv")


# ------------------------------------------------------------ parallel load
#
# From dataset._PARALLEL_MIN_RECORDS records on, load_dataset reads the record
# files in forked worker processes, which also reduce each chunk of records to
# their features when asked. These tests pin the pool to two workers, whatever
# the machine, and compare with the in-process reader (one core).

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
_PARENT_PID = os.getpid()
_READ_CHUNK = dataset._read_chunk
_READ_RECORD = dataset.read_record_csv
_FEATURES = FeatureConfig(ar_order=4, nbins=16)
_TO_FEATURES = partial(feature_rows, cfg=_FEATURES)


def _read_chunk_dying_in_workers(entries, reduce):
    """The chunk reader, but a worker handed the second chunk exits at once."""
    if os.getpid() != _PARENT_PID and entries[0][0].name == f"rec{dataset._CHUNK_RECORDS:05d}.csv":
        os._exit(1)
    return _READ_CHUNK(entries, reduce)


def _read_record_noting_pid(path):
    """The record reader, leaving the reading process's id beside the record."""
    path.with_suffix(".pid").write_text(str(os.getpid()))
    return _READ_RECORD(path)


def _features_noting_pid(records, folder):
    """The feature reducer, leaving a file named after the extracting process's id."""
    (folder / str(os.getpid())).touch()
    return _TO_FEATURES(records)


def _synthetic_dir(tmp_path, records: int, name: str = "data"):
    """A synthetic dataset directory whose manifest lists `records` records."""
    root = tmp_path / name
    write_dataset(generate_synthetic(math.ceil(records / len(LABELS)), 64, seed=3), root)
    manifest = root / "manifest.csv"
    manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:records + 1]))
    return root


def _cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(dataset, "_usable_cores", lambda: n)


def _load_error(root) -> str:
    with pytest.raises(DataError) as err:
        load_dataset(root, keep_records)
    return str(err.value)


def _sequential_load(monkeypatch, root, reduce=keep_records):
    """load_dataset(root, reduce) in-process, its DataError message if it fails."""
    with monkeypatch.context() as m:
        _cores(m, 1)
        try:
            return load_dataset(root, reduce)
        except DataError as e:
            return str(e)


def _assert_same_dataset(got, want) -> None:
    assert got.name == want.name
    assert len(got) == len(want)
    for a, b in zip(got.x, want.x):
        assert (a.label, a.subject_id, a.session_id, a.sample_rate) == (
            b.label, b.subject_id, b.session_id, b.sample_rate)
        for ch_a, ch_b in ((a.channel1, b.channel1), (a.channel2, b.channel2)):
            assert ch_a.dtype == ch_b.dtype == np.float64
            assert ch_a.shape == ch_b.shape
            assert ch_a.tobytes() == ch_b.tobytes()


def _assert_same_features(got, want) -> None:
    """Reduced loads with the same metadata and byte-identical feature rows."""
    assert (got.name, got.sample_rate, got.labels, got.subjects, got.sessions) == (
        want.name, want.sample_rate, want.labels, want.subjects, want.sessions)
    x, want_x = got.x, want.x
    assert x.dtype == want_x.dtype == np.float64
    assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()


def _break_record(root, index: int) -> str:
    (root / f"rec{index:05d}.csv").write_text("1.0,2.0,3.0\n")
    with pytest.raises(DataError) as err:
        read_record_csv(root / f"rec{index:05d}.csv")
    return str(err.value)


def _break_manifest_row(root, index: int) -> str:
    manifest = root / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    fields = lines[index + 1].split(",")
    lines[index + 1] = ",".join([fields[0], "Q", *fields[2:]])
    manifest.write_text("".join(lines))
    return f"{manifest}:{index + 2}: unknown label 'Q'"


@needs_fork
@pytest.mark.parametrize("records", [dataset._PARALLEL_MIN_RECORDS - 2,
                                     dataset._PARALLEL_MIN_RECORDS + 2])
def test_parallel_load_matches_sequential_load(tmp_path, monkeypatch, records):
    root = _synthetic_dir(tmp_path, records)
    _cores(monkeypatch, 2)
    got = load_dataset(root, keep_records)
    assert len(got) == records
    want = _sequential_load(monkeypatch, root)
    _assert_same_dataset(got, want)
    reduced = load_dataset(root, _TO_FEATURES)
    assert len(reduced) == records
    _assert_same_features(reduced, _sequential_load(monkeypatch, root, _TO_FEATURES))
    x = stack_channels(extract_all(list(want.x), _FEATURES))
    assert reduced.x.tobytes() == x.tobytes()
    assert multiprocessing.active_children() == []


@needs_fork
def test_records_are_read_in_workers_from_the_threshold_on(tmp_path, monkeypatch):
    _cores(monkeypatch, 2)
    monkeypatch.setattr(dataset, "read_record_csv", _read_record_noting_pid)
    for records in (dataset._PARALLEL_MIN_RECORDS - 1, dataset._PARALLEL_MIN_RECORDS):
        for kept in (True, False):
            root = _synthetic_dir(tmp_path, records, name=f"data{records}-{kept}")
            extracted = tmp_path / f"extracted{records}-{kept}"
            extracted.mkdir()
            reduce = keep_records if kept else partial(_features_noting_pid, folder=extracted)
            assert len(load_dataset(root, reduce)) == records
            pids = {int(p.read_text()) for p in root.glob("*.pid")}
            extract_pids = {int(p.name) for p in extracted.iterdir()}
            assert extract_pids == (set() if kept else pids)
            if records < dataset._PARALLEL_MIN_RECORDS:
                assert pids == {os.getpid()}
            else:
                assert os.getpid() not in pids and 1 <= len(pids) <= 2


@needs_fork
def test_parallel_load_raises_the_first_bad_record_in_manifest_order(tmp_path, monkeypatch):
    root = _synthetic_dir(tmp_path, 3 * dataset._CHUNK_RECORDS)
    # the second bad record opens the next chunk, so its worker fails first
    first = _break_record(root, dataset._CHUNK_RECORDS - 1)
    _break_record(root, dataset._CHUNK_RECORDS)
    _cores(monkeypatch, 2)
    assert _load_error(root) == first == _sequential_load(monkeypatch, root)
    assert multiprocessing.active_children() == []


def test_in_process_load_reduces_the_pool_chunks_one_at_a_time(tmp_path, monkeypatch):
    root = _synthetic_dir(tmp_path, 2 * dataset._CHUNK_RECORDS + 3)
    _cores(monkeypatch, 1)
    sizes = []

    def noting_size(records):
        sizes.append(len(records))
        return records

    assert len(load_dataset(root, noting_size)) == 2 * dataset._CHUNK_RECORDS + 3
    assert sizes == [dataset._CHUNK_RECORDS, dataset._CHUNK_RECORDS, 3]


def _make_constant(root, index: int) -> None:
    (root / f"rec{index:05d}.csv").write_text("0.5,0.25\n" * 64)


@needs_fork
@pytest.mark.parametrize("cores", [2, 1], ids=["pooled", "in_process"])
@pytest.mark.parametrize("refusal_first", [True, False], ids=["refusal_first", "read_first"])
def test_load_raises_the_first_failure_inside_a_chunk(tmp_path, monkeypatch, cores,
                                                      refusal_first):
    # one chunk reads its records up to the unreadable one and reduces them in
    # one call; the refusal is the chunk's 5th record, or the record after it
    records = dataset._PARALLEL_MIN_RECORDS + 2
    k = dataset._CHUNK_RECORDS + 4
    root = _synthetic_dir(tmp_path, records)
    _make_constant(root, k if refusal_first else k + 1)
    read_message = _break_record(root, k + 1 if refusal_first else k)
    _cores(monkeypatch, cores)
    with pytest.raises(DataError) as err:
        load_dataset(root, _TO_FEATURES)
    if refusal_first:
        assert type(err.value) is DegenerateSignalError
        assert str(err.value).startswith(f"{root / f'rec{k:05d}.csv'}: channel1 of record ")
        assert str(err.value).endswith(": signal is constant")
    else:
        assert type(err.value) is DataError
        assert str(err.value) == read_message
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("record_first", [True, False], ids=["record_first", "manifest_first"])
def test_parallel_load_orders_record_and_manifest_errors(tmp_path, monkeypatch, record_first):
    records = dataset._PARALLEL_MIN_RECORDS + 16
    root = _synthetic_dir(tmp_path, records)
    # the manifest error comes after enough rows for the parallel path
    manifest_message = _break_manifest_row(root, records - 8)
    _break_record(root, 3 if record_first else records - 4)
    _cores(monkeypatch, 2)
    # the whole manifest is checked before any record is read
    assert _load_error(root) == manifest_message == _sequential_load(monkeypatch, root)
    assert multiprocessing.active_children() == []


@needs_fork
def test_parallel_load_reads_a_dead_workers_chunks_in_process(tmp_path, monkeypatch, capfd):
    root = _synthetic_dir(tmp_path, 3 * dataset._CHUNK_RECORDS)
    want = _sequential_load(monkeypatch, root)
    want_features = _sequential_load(monkeypatch, root, _TO_FEATURES)
    _cores(monkeypatch, 2)
    monkeypatch.setattr(dataset, "_read_chunk", _read_chunk_dying_in_workers)
    _assert_same_dataset(load_dataset(root, keep_records), want)
    assert multiprocessing.active_children() == []
    _assert_same_features(load_dataset(root, _TO_FEATURES), want_features)
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


def _record_count(root) -> int:
    return len(load_dataset(root, keep_records))


@needs_fork
def test_load_in_a_daemonic_process_reads_in_process(tmp_path, monkeypatch):
    # a multiprocessing.Pool worker is daemonic and may start no processes
    root = _synthetic_dir(tmp_path, dataset._PARALLEL_MIN_RECORDS + 2)
    _cores(monkeypatch, 2)
    want = len(load_dataset(root, keep_records))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_record_count, (root,)).get(timeout=60) == want


# Differential table: numpy's C parser reads a file first and the line-by-line
# reader (csv + float) reads it again whenever the C parser's result is refused.
# For every input, what the public reader returns or raises must be exactly
# what the line-by-line reader alone returns or raises.
_TEXT_ROWS = {
    "plain": "1.5,-2.25\n3,4e-3\n",
    "blank_line": "1,2\n\n3,4\n",
    "whitespace_line": "1,2\n  \n3,4\n",
    "hash_line": "1,2\n# note\n3,4\n",
    "quoted": '"1.5","2"\n3,4\n',
    "spaces_tabs": " 1 ,\t2\t\n3 , 4\n",
    "underscore": "1_0,2\n3,4\n",
    "nan": "1,2\nnan,4\n",
    "inf": "1,2\n3,-inf\n",
    "overflow": "1e400,2\n3,4\n",
    "denormal": "4.9e-324,2\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "bare_cr": "1,2\r3,4\r",
    "no_final_newline": "1,2\n3,4",
    "empty": "",
    "bom": "\ufeff1,2\n3,4\n",
    "hex_float": "0x1p3,2\n3,4\n",
    "fortran_exponent": "1d5,2\n3,4\n",
    "nul_byte": "1,2\n3\x00,4\n",
    "three_columns": "1,2,3\n4,5,6\n",
    "one_column": "1\n2\n",
}
_RECORD_ROWS = {**_TEXT_ROWS, "trailing_comma": "1,2,\n3,4,\n", "ragged": "1,2\n3\n"}
_MATRIX_ROWS = {**_TEXT_ROWS, "trailing_comma": "1,2,3,\n4,5,6,\n", "ragged": "1,2,3\n4,5\n"}
# inputs the C parser must take on its own (they still read with the line reader
# patched to fail), so the table exercises both paths
_FAST_ROWS = {"plain", "blank_line", "spaces_tabs", "denormal", "crlf", "bare_cr",
              "no_final_newline"}


def _outcome(read, path):
    """What a reader yields: its arrays as (dtype, shape, contiguity, bytes), or its error."""
    try:
        out = read(path)
    except DataError as e:
        return "DataError", str(e)
    arrays = out if isinstance(out, tuple) else (out,)
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays]


def _record_lines(path):
    """The line reader's matrix, split into channels exactly as read_record_csv splits it."""
    ch1, ch2 = _read_matrix_lines(path, 2).T.copy()
    return ch1, ch2


def _refuse_line_reader(path, columns=None):
    raise AssertionError(f"{path} reached the line-by-line reader")


def _differential(tmp_path, monkeypatch, row_id, text, read, read_lines):
    path = tmp_path / f"{row_id}.csv"
    path.write_bytes(text.encode("utf-8"))
    if row_id in _FAST_ROWS:
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "_read_matrix_lines", _refuse_line_reader)
            read(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(read, path) == _outcome(read_lines, path)
    assert caught == []


@pytest.mark.parametrize("row_id", _RECORD_ROWS)
def test_read_record_csv_matches_line_reader(tmp_path, capsys, monkeypatch, row_id):
    _differential(
        tmp_path, monkeypatch, row_id, _RECORD_ROWS[row_id], read_record_csv, _record_lines
    )
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("row_id", _MATRIX_ROWS)
def test_read_matrix_matches_line_reader(tmp_path, capsys, monkeypatch, row_id):
    _differential(
        tmp_path, monkeypatch, row_id, _MATRIX_ROWS[row_id], _read_matrix, _read_matrix_lines
    )
    assert capsys.readouterr().err == ""


# a byte that is not UTF-8 is a DataError naming the file and line, never a UnicodeDecodeError
_NON_UTF8 = {
    "record": (read_record_csv, "rec00000.csv", b"1,2\n\xff3,4\n"),
    "matrix": (_read_matrix, "C_ch1.csv", b"1,2,3\n\xff4,5,6\n"),
    "manifest": (partial(load_dataset, reduce=keep_records), "manifest.csv",
                 b"file,label,subject,session,sample_rate\n\xff\n"),
    "features": (load_features_csv, "f.csv", b"label,ch1_f0,ch2_f0\nC,1,\xff2\n"),
}


@pytest.mark.parametrize("reader", _NON_UTF8)
def test_non_utf8_text_is_a_data_error_naming_the_file(tmp_path, reader):
    read, name, data = _NON_UTF8[reader]
    (tmp_path / name).write_bytes(data)
    with pytest.raises(DataError) as err:
        read(tmp_path if reader == "manifest" else tmp_path / name)
    # every reader's bad byte is on line 2
    assert str(err.value) == f"{tmp_path / name}:2: not utf-8 text (invalid start byte)"


def test_non_utf8_byte_deep_in_a_file_is_named_at_its_line(tmp_path):
    # the reader decodes a block at a time; the line still counts from the file's start
    path = tmp_path / "rec00000.csv"
    path.write_bytes(b"1,2\n" * 5000 + b"\xff3,4\n")
    with pytest.raises(DataError) as err:
        read_record_csv(path)
    assert str(err.value) == f"{path}:5001: not utf-8 text (invalid start byte)"


def test_read_record_csv_underscore_value_reads_as_python_float(tmp_path):
    # numpy refuses "1_0"; the line-by-line reader takes it as float("1_0") == 10.0
    path = tmp_path / "r.csv"
    path.write_text("1_0,2\n3,4\n")
    ch1, ch2 = read_record_csv(path)
    assert ch1.tolist() == [10.0, 3.0] and ch2.tolist() == [2.0, 4.0]


# --------------------------------------------------------------------- split


def test_split_arithmetic_900_and_1800():
    plan = split_by_labels([r.label for r in _balanced_records(150)], 0.7, seed=0)
    assert len(plan.train_indices) == 630
    assert len(plan.test_indices) == 270
    plan = split_by_labels([r.label for r in _balanced_records(300)], 0.7, seed=0)
    assert len(plan.train_indices) == 1260
    assert len(plan.test_indices) == 540


def test_split_is_disjoint_and_covers():
    ds = _balanced_records(11)
    plan = split_by_labels([r.label for r in ds], 0.7, seed=3)
    train, test = set(plan.train_indices), set(plan.test_indices)
    assert not train & test
    assert sorted(train | test) == list(range(len(ds)))


def test_split_deterministic_and_seed_sensitive():
    labels = [r.label for r in _balanced_records(20)]
    a = split_by_labels(labels, 0.7, seed=9)
    b = split_by_labels(labels, 0.7, seed=9)
    assert a == b
    c = split_by_labels(labels, 0.7, seed=10)
    assert c.train_indices != a.train_indices


@pytest.mark.parametrize("fraction", [0.5, 0.7, 0.9])
def test_split_stratified_within_one_record(fraction):
    # unbalanced per-class counts to exercise the rounding rule
    counts = dict(zip(LABELS, (7, 9, 11, 13, 15, 17)))
    labels = [lab for lab in LABELS for _ in range(counts[lab])]
    plan = split_by_labels(labels, fraction, seed=4)
    train = set(plan.train_indices)
    for lab in LABELS:
        idxs = [i for i, l in enumerate(labels) if l == lab]
        n_train = sum(1 for i in idxs if i in train)
        assert abs(n_train - len(idxs) * fraction) < 1.0
        # the extra record goes to the training side
        assert n_train == int(np.ceil(len(idxs) * fraction))


def test_split_rejects_tiny_class_and_bad_fraction():
    labels = ["C", "C", "T"]
    with pytest.raises(DataError, match="need >= 2"):
        split_by_labels(labels, 0.7, seed=0)
    with pytest.raises(ValueError):
        split_by_labels(["C", "C"], 1.0, seed=0)
    with pytest.raises(DataError, match="empty"):
        split_by_labels([], 0.7, seed=0)
    # ceil(6 * 0.99) = 6 of 6 go to train
    with pytest.raises(DataError, match="no record for the test set"):
        split_by_labels(["C"] * 6 + ["T"] * 6, 0.99, seed=0)


# ----------------------------------------------------------------- synthetic


def test_synthetic_counts_and_shape():
    ds = generate_synthetic(30, 512, seed=1)
    assert len(ds) == 180
    counts = Counter(r.label for r in ds)
    assert all(counts[lab] == 30 for lab in LABELS)
    assert all(r.n_samples == 512 for r in ds)
    assert {r.sample_rate for r in ds} == {500.0}
    subjects = {r.subject_id for r in ds}
    sessions = {r.session_id for r in ds}
    assert subjects == {f"s{i}" for i in range(1, 6)}
    assert sessions == {f"d{i}" for i in range(1, 4)}


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(4, 64, seed=8)
    b = generate_synthetic(4, 64, seed=8)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.channel1, rb.channel1)
        np.testing.assert_array_equal(ra.channel2, rb.channel2)
    c = generate_synthetic(4, 64, seed=9)
    assert any(
        not np.array_equal(ra.channel1, rc.channel1)
        for ra, rc in zip(a, c)
    )


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_synthetic(1, 64, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(4, 32, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthetic_classes_separable_by_nearest_centroid(seed):
    # order-10 log power spectra must separate the six recipes almost
    # perfectly for a plain nearest-centroid rule fitted on the train half
    ds = generate_synthetic(30, 512, seed=seed)
    feats = {}
    for i, rec in enumerate(ds):
        v = []
        for chan in (rec.channel1, rec.channel2):
            psd = psd_from_model(burg_fit(chan, 10, rec.sample_rate), 64)
            v.append(np.log10(np.maximum(psd.power, 1e-12)))
        feats[i] = np.concatenate(v)
    plan = split_by_labels([r.label for r in ds], 0.7, seed=seed)
    centroids = {
        lab: np.mean([feats[i] for i in plan.train_indices if ds[i].label == lab], axis=0)
        for lab in LABELS
    }
    hits = 0
    for i in plan.test_indices:
        dists = {lab: np.linalg.norm(feats[i] - c) for lab, c in centroids.items()}
        hits += min(dists, key=dists.get) == ds[i].label
    assert hits / len(plan.test_indices) >= 0.95
