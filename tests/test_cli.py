import csv
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import keep_records, rewrite_bundle

import semgrasp
from semgrasp.cli import _CONFIG_DEFAULTS, main, resolve_config
from semgrasp.dataset import (
    LABELS,
    EmgRecord,
    generate_synthetic,
    load_dataset,
    read_record_csv,
    write_dataset,
)
from semgrasp.features import (
    FeatureConfig,
    Normalizer,
    apply_normalizer,
    extract_features,
    load_features_csv,
)
from semgrasp.model_io import ModelBundle, load_model, save_model
from semgrasp.network import NetworkSpec, init_network
from semgrasp.training import predict


def _write_config(path, **overrides):
    cfg = {
        "seed": 3,
        "split_fraction": 0.7,
        "features_config": {"ar_order": 10, "nbins": 32},
        "network": {"conv_layers": [[8, 5, 1], [16, 5, 2]], "dense_units": 16},
        "training": {"epochs": 25, "batch_size": 16, "learning_rate": 0.01},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def _read_summary(outdir):
    with open(outdir / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return dict(zip(rows[0], rows[1]))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "synth"
    write_dataset(generate_synthetic(12, 256, seed=77), root)
    return root


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset_dir):
    """One trained CLI run shared by the eval/predict tests."""
    base = tmp_path_factory.mktemp("run")
    out = base / "out"
    cfg = _write_config(base / "cfg.json", dataset=str(dataset_dir), out=str(out))
    assert main(["train", "--config", str(cfg)]) == 0
    return out


# ------------------------------------------------------------------- convert


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    """Five subject groups holding 30-trial matrices per class and channel."""
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("export")
    for s in range(1, 6):
        group = root / f"subject{s}"
        group.mkdir()
        for lab in LABELS:
            for ch in (1, 2):
                mat = rng.standard_normal((30, 16))
                with open(group / f"{lab}_ch{ch}.csv", "w", newline="") as fh:
                    for row in mat:
                        fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return root


def test_convert_table_shaped_export(export_dir, tmp_path, capsys):
    out = tmp_path / "converted"
    assert main(["convert", str(export_dir), str(out)]) == 0
    assert "900 records" in capsys.readouterr().out
    manifest_rows = (out / "manifest.csv").read_text().strip().splitlines()
    assert len(manifest_rows) == 901  # header + 900 records
    ds = load_dataset(out, keep_records)
    assert len(ds) == 900
    assert all(ds.labels.count(lab) == 150 for lab in LABELS)
    assert set(ds.subjects) == {f"subject{s}" for s in range(1, 6)}
    assert ds.sample_rate == 500.0


def test_convert_missing_channel_file(export_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    src = export_dir / "subject1"
    group = broken / "subject1"
    group.mkdir()
    for f in src.iterdir():
        if f.name != "H_ch2.csv":
            (group / f.name).write_text(f.read_text())
    assert main(["convert", str(broken), str(tmp_path / "out")]) == 2
    assert "H_ch2.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line3, message",
    [
        ("0.5,abc,1.0", "T_ch2.csv:3: malformed value"),
        ("0.5,nan,1.0", "T_ch2.csv:3: non-finite sample value"),
        ("0.5,1.0", "T_ch2.csv:3: row has 2 values, expected 16"),
    ],
    ids=["malformed", "nan", "short_row"],
)
def test_convert_bad_matrix_value_names_file_and_line(
    export_dir, tmp_path, capsys, line3, message
):
    group = tmp_path / "in" / "subject1"
    shutil.copytree(export_dir / "subject1", group)
    rows = (group / "T_ch2.csv").read_text().splitlines()
    rows[2] = line3
    (group / "T_ch2.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["convert", str(group.parent), str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def _refuse_matrix_read(path, columns=None):
    raise AssertionError(f"{path} was read")


@pytest.mark.parametrize("rate", ["-1", "inf", "nan", "0"])
def test_convert_bad_rate_writes_nothing(export_dir, tmp_path, capsys, monkeypatch, rate):
    # the rate is refused as a config error before any matrix is read
    monkeypatch.setattr(semgrasp.dataset, "_read_matrix", _refuse_matrix_read)
    out = tmp_path / "out"
    assert main(["convert", str(export_dir), str(out), f"--rate={rate}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"config error: sample_rate must be a finite number > 0, got {float(rate)}"
    ]
    assert captured.out == ""
    assert not out.exists()


def test_convert_refuses_nonempty_output(export_dir, tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "something.txt").write_text("keep me")
    assert main(["convert", str(export_dir), str(out)]) == 1
    assert "refusing" in capsys.readouterr().err


def test_convert_rejects_already_converted_input(export_dir, tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["convert", str(export_dir), str(first)]) == 0
    capsys.readouterr()
    assert main(["convert", str(first), str(tmp_path / "second")]) == 2
    assert "no class matrix" in capsys.readouterr().err


# ------------------------------------------------------- validate and extract


def test_validate_reports_shape(dataset_dir, monkeypatch, capsys):
    # 72 records: with two usable cores they are read in worker processes, and
    # validate prints the same bytes as when they are read in-process
    outputs = []
    for cores in (2, 1):
        monkeypatch.setattr(semgrasp.dataset, "_usable_cores", lambda: cores)
        assert main(["validate", str(dataset_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "dataset synth: 72 records, 256 samples each, 500.0 Hz",
        "per class: C=12 T=12 L=12 H=12 P=12 S=12",
        "subjects: s1, s2, s3, s4, s5",
        "sessions: d1, d2, d3",
    ]


def test_validate_missing_manifest_column(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.csv").write_text("file,label,subject,sample_rate\n")
    assert main(["validate", str(bad)]) == 2
    assert "'session'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ("rec1.csv,T,s1,d1,500.0,x", "expected 5 columns, got 6"),
        ("rec1.csv,T,s1,d1", "expected 5 columns, got 4"),
        ("rec1.csv,T,,d1,500.0", "empty subject"),
        ("rec1.csv,T,s1,,500.0", "empty session"),
    ],
    ids=["sixth_cell", "missing_cell", "empty_subject", "empty_session"],
)
def test_validate_refuses_bad_manifest_row_at_its_line(tmp_path, capsys, row, message):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "manifest.csv").write_text(
        f"file,label,subject,session,sample_rate\nrec0.csv,C,s1,d1,500.0\n{row}\n"
    )
    assert main(["validate", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {root / 'manifest.csv'}:3: {message}\n"
    assert captured.out == ""


def test_validate_bad_record_read_in_a_worker_is_one_line(dataset_dir, tmp_path, capsys):
    # 72 records: with two usable cores, load_dataset reads them in worker processes
    bad = tmp_path / "bad"
    shutil.copytree(dataset_dir, bad)
    (bad / "rec00050.csv").write_text("1,2,3\n4,5,6\n")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {bad / 'rec00050.csv'}:1: row has 3 values, expected 2\n"
    assert captured.out == ""


def test_extract_writes_loadable_dump(dataset_dir, tmp_path, capsys):
    out = tmp_path / "features.csv"
    assert main(["extract", str(dataset_dir), "--out", str(out), "--nbins", "16"]) == 0
    x, labels = load_features_csv(out)
    assert len(x) == len(labels) == 72
    assert x.shape[1:] == (2, 16)


# --------------------------------------------------------------------- train


def test_train_artifacts_and_byte_determinism(dataset_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _write_config(cfg_path, dataset=str(dataset_dir))
    assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0

    for name in (
        "epochs.csv",
        "confusion.csv",
        "summary.csv",
        "summary.txt",
        "model.bin",
        "split.csv",
        "config.echo",
    ):
        assert (out_a / name).is_file(), name
    assert not (out_a / "normalizer.csv").exists()  # the bundle holds the normalizer

    for name in ("summary.csv", "epochs.csv", "confusion.csv", "split.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    summary = _read_summary(out_a)
    assert float(summary["model_accuracy"]) >= 0.95
    echo = json.loads((out_a / "config.echo").read_text())
    assert echo["training"]["momentum"] == 0.9  # default materialized
    assert echo["seed"] == 3
    assert echo["out"] == str(out_a)
    log = np.loadtxt(out_a / "epochs.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(log) == 25


# the CLI in a fresh interpreter; dataset._usable_cores returns argv[1] unless it is empty
_CLI_DRIVER = (
    "import sys, semgrasp.dataset as d; from semgrasp.cli import main\n"
    "if sys.argv[1]: d._usable_cores = lambda: int(sys.argv[1])\n"
    "sys.exit(main(sys.argv[2:]))"
)


def _run_cli(args, cores=None, stdout=subprocess.PIPE, **env):
    """`semgrasp *args` in a subprocess, with env added to this process's environment."""
    src = Path(semgrasp.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", _CLI_DRIVER, str(cores or ""), *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src), **env},
    )


def _run_cli_into_closed_pipe(args, **env):
    """_run_cli with stdout a pipe whose read end is closed before the run."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_cli(args, stdout=write_end, **env)
    finally:
        os.close(write_end)


# stdout to a pipe is block-buffered unless PYTHONUNBUFFERED is non-empty
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["validate", "help"])
def test_command_into_closed_pipe_is_not_an_error(dataset_dir, command, unbuffered):
    args = ["validate", dataset_dir] if command == "validate" else ["train", "--help"]
    done = _run_cli_into_closed_pipe(args, PYTHONUNBUFFERED=unbuffered)
    assert (done.returncode, done.stderr) == (0, "")


def test_train_into_closed_pipe_writes_the_same_artifacts(dataset_dir, tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", dataset=str(dataset_dir),
                        training={"epochs": 2, "batch_size": 16, "learning_rate": 0.01})
    captured = _run_cli(["train", "--config", cfg, "--out", tmp_path / "captured"])
    assert (captured.returncode, captured.stderr) == (0, ""), captured.stderr
    assert "artifacts written to" in captured.stdout
    done = _run_cli_into_closed_pipe(["train", "--config", cfg, "--out", tmp_path / "closed"],
                                     PYTHONUNBUFFERED="")
    assert (done.returncode, done.stderr) == (0, "")
    for name in ("model.bin", "summary.csv"):
        assert (tmp_path / "closed" / name).read_bytes() == (
            tmp_path / "captured" / name).read_bytes(), name


# `semgrasp train` with SIGINT restored to the default handler (a shell may start a
# background job with it ignored). With a flag path in argv[1], the readers run in
# two worker processes. The first record read in one of them waits until the other
# worker has read its chunks and waits for more, then sends SIGINT to the whole
# process group, as a terminal's Ctrl-C does.
_INTERRUPTIBLE_DRIVER = """
import os, signal, sys, time
import semgrasp.dataset as d
from semgrasp.cli import main
signal.signal(signal.SIGINT, signal.default_int_handler)
if sys.argv[1]:
    d._usable_cores = lambda: 2
    parent, read = os.getpid(), d.read_record_csv

    def read_record_csv(path):
        if os.getpid() != parent:
            try:
                os.close(os.open(sys.argv[1], os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                time.sleep(1)
                os.killpg(0, signal.SIGINT)
        return read(path)

    d.read_record_csv = read_record_csv
sys.exit(main(["train", *sys.argv[2:]]))
"""


def _interruptible_train(flag, cfg, out, stdout):
    src = Path(semgrasp.__file__).resolve().parents[1]
    return subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTIBLE_DRIVER, flag, "--config", cfg, "--out", out],
        stdout=stdout, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": ""},
    )


def _end_group(proc):
    """Kill whatever is left of proc's process group, and reap proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def test_interrupted_train_is_one_line(dataset_dir, tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", dataset=str(dataset_dir),
                        training={"epochs": 100000, "batch_size": 16, "learning_rate": 0.01})
    proc = _interruptible_train("", str(cfg), str(tmp_path / "out"), subprocess.PIPE)
    # the epoch line must reach a block-buffered pipe as it is printed
    watchdog = threading.Timer(60, _end_group, (proc,))
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("epoch"):
                break
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
        _end_group(proc)
    assert (proc.returncode, err) == (130, "interrupted\n")


def test_interrupt_while_workers_read_is_one_line(dataset_dir, tmp_path):
    flag = tmp_path / "interrupted"
    cfg = _write_config(tmp_path / "cfg.json", dataset=str(dataset_dir))
    proc = _interruptible_train(str(flag), str(cfg), str(tmp_path / "out"), subprocess.DEVNULL)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        _end_group(proc)
    assert flag.exists()
    assert (proc.returncode, err) == (130, "interrupted\n")


def test_blas_thread_count_changes_no_artifact(tmp_path):
    # the README quick start: 180 records, so the parent forks its reader pool
    # with BLAS threads alive; records of 12000 samples make np.dot split its sums
    write_dataset(generate_synthetic(30, 512, seed=11), tmp_path / "data")
    write_dataset(generate_synthetic(2, 12000, seed=5), tmp_path / "long")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dataset": str(tmp_path / "data"), "seed": 11,
                               "training": {"epochs": 2}}))
    for threads in ("1", "2"):
        for args in (["train", "--config", cfg, "--out", tmp_path / f"run{threads}"],
                     ["extract", tmp_path / "long", "--out", tmp_path / f"long{threads}.csv"]):
            done = _run_cli(args, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
    for name in ("model.bin", "epochs.csv", "summary.csv"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
    assert (tmp_path / "long1.csv").read_bytes() == (tmp_path / "long2.csv").read_bytes()


def test_train_seed_mandatory(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(dataset_dir), "out": str(tmp_path / "o")}))
    assert main(["train", "--config", str(cfg)]) == 1
    assert "seed is mandatory" in capsys.readouterr().err


def test_train_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1, "dataset": "\xff"}')
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {cfg}: not utf-8 text (invalid start byte)"]
    assert not out.exists()


def test_train_unknown_config_key(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"dataset": str(dataset_dir), "seed": 1, "out": "o", "dropout": 0.5})
    )
    assert main(["train", "--config", str(cfg)]) == 1
    assert "dropout" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1},
        {"reference_accuracy": "abc"},
        {"training": {"momentum": "x"}},
        {"training": {"epochs": 2.5}},
        {"training": {"batch_size": 1.5}},
        {"training": {"epochs": True}},
        {"training": {"optimizer": "sgd"}},
        {"network": {"activation": "tanh"}},
        {"features_config": {"nbins": 32.5}},
        {"network": {"conv_layers": [[8, 5, 1], [16, 5, 2]], "dense_units": 16.7}},
        {"network": {"conv_layers": [[8, 5.9, 1], [16, 5, 2]], "dense_units": 16}},
        {"network": {"conv_layers": [[8, 5, 1], [16, 5, True]], "dense_units": 16}},
        {"network": {"conv_layers": [[8, 5, 1], [0, 5, 2]], "dense_units": 16}},
        {"subset": "bogus"},
        {"subset": "region=north"},
        {"subset": 5},
        {"subset": "subject="},
        {"features": "feats.csv", "dataset": None, "subset": "subject=s1"},
        {"sample_rate": 1000},
    ],
    ids=[
        "seed", "reference_accuracy", "momentum", "epochs_fraction", "batch_size_fraction",
        "epochs_bool", "optimizer", "activation", "nbins",
        "dense_units_fraction", "kernel_fraction", "stride_bool", "zero_filters",
        "subset_syntax", "subset_kind", "subset_type", "subset_empty_id", "subset_feature_dump",
        "sample_rate_with_dataset",
    ],
)
def test_train_bad_config_value_fails_before_work(
    dataset_dir, tmp_path, capsys, monkeypatch, override
):
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)  # the relative feature dump path resolves here
    (tmp_path / "feats.csv").write_text("")
    override = {"dataset": str(dataset_dir), **override}
    cfg = _write_config(tmp_path / "cfg.json", out=str(out), **override)
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert not out.exists()


def test_train_saves_bundle_before_report(dataset_dir, tmp_path, capsys, monkeypatch):
    def failing_report(outdir, report, reference_accuracy=None):
        raise OSError("no space left on device")

    monkeypatch.setattr("semgrasp.cli.write_report", failing_report)
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset=str(dataset_dir),
        out=str(out),
        training={"epochs": 2, "batch_size": 16, "learning_rate": 0.01},
    )
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["io error: no space left on device"]
    assert load_model(out / "model.bin").feature_config.nbins == 32
    assert not (out / "summary.txt").exists()


def test_readme_run_config_defaults_match_resolved_config(dataset_dir, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Run config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    documented = json.loads(re.sub(r"//.*", "", block))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(dataset_dir)}))
    resolved = resolve_config(cfg, seed=0, out="o")
    resolved.update(dataset=None, seed=None, out=None)
    assert resolved == documented


def test_train_subset_single_subject_arithmetic(tmp_path, capsys):
    # 180 records all from one subject: the per-subject split is 126/54
    ds = generate_synthetic(30, 64, seed=5)
    for rec in ds:
        rec.subject_id = "s1"
    data = tmp_path / "single"
    write_dataset(ds, data)
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset=str(data),
        out=str(out),
        features_config={"ar_order": 8, "nbins": 16},
        network={"conv_layers": [[4, 3, 1], [8, 3, 2]], "dense_units": 8},
        training={"epochs": 2, "batch_size": 32, "learning_rate": 0.01},
    )
    assert main(["train", "--config", str(cfg), "--subset", "subject=s1"]) == 0
    with open(out / "split.csv", newline="") as fh:
        roles = [row["role"] for row in csv.DictReader(fh)]
    assert len(roles) == 180
    assert roles.count("train") == 126
    assert roles.count("test") == 54
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--subset", "subject=s9",
                 "--out", str(tmp_path / "out2")]) == 2
    assert "no records" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()
    # sessions rotate d1..d3 within each class: d1 holds 10 of each class
    out3 = tmp_path / "out3"
    assert main(["train", "--config", str(cfg), "--subset", "session=d1",
                 "--out", str(out3)]) == 0
    with open(out3 / "split.csv", newline="") as fh:
        roles = [row["role"] for row in csv.DictReader(fh)]
    assert len(roles) == 60
    assert roles.count("train") == 42


# dataset_dir's record k has class k // 12 and subject s{k % 12 % 5 + 1}, so
# subject=s1 selects records 0, 5, 10, 12, ... Each fault: the edit to a record
# file (None: to the manifest, or no edit) and the message that reports it
# (None: the fault does not fail the run).
def _precedence_faults(root: Path) -> dict:
    constant = "0.5,0.25\n" * 256

    def shortened(name):
        # a fittable record of 100 rows, where the others hold 256
        return name, "".join((root / name).read_text().splitlines(keepends=True)[:100])

    return {
        "manifest": (None, f"{root / 'manifest.csv'}:72: unknown label 'Q'"),
        "duplicate": (None, f"{root / 'manifest.csv'}:74: record file 'rec00000.csv' "
                            "is listed on line 2 too"),
        "empty_subset": (None, "subset 'subject=s9' selected no records"),
        "degenerate_in": (("rec00005.csv", constant),
                          f"{root / 'rec00005.csv'}: channel1 of record "
                          "(label=C, subject=s1, session=d3): signal is constant"),
        "read_in": (("rec00048.csv", "1,2,3\n4,5,6\n"),
                    f"{root / 'rec00048.csv'}:1: row has 3 values, expected 2"),
        "length_in": (shortened("rec00053.csv"),
                      f"{root / 'rec00053.csv'}: length 100 differs from 256"),
        "degenerate_out": (("rec00001.csv", constant), None),
        "read_out": (("rec00050.csv", "1,2,3\n4,5,6\n"), None),
        "length_out": (shortened("rec00040.csv"), None),
    }


# faults in the dataset -> the fault whose message wins: the manifest, then an
# empty subset, then the first selected record that fails to read or fit, then a
# selected record whose sample rate or length differs from the first one's
_PRECEDENCE_ROWS = {
    "manifest_error": (("read_in", "manifest", "length_in", "degenerate_in"), "manifest"),
    "duplicate_row": (("read_in", "duplicate", "length_in"), "duplicate"),
    "empty_subset": (("empty_subset", "read_in", "degenerate_in", "length_in"), "empty_subset"),
    "read_error": (("degenerate_out", "read_in", "length_in"), "read_in"),
    "degenerate_in_subset": (("degenerate_out", "degenerate_in", "length_in"), "degenerate_in"),
    "first_bad_record": (("degenerate_in", "read_in"), "degenerate_in"),
    "length_mismatch": (("read_out", "length_in", "degenerate_out"), "length_in"),
    "degenerate_outside_subset": (("degenerate_out",), "degenerate_out"),
    "read_outside_subset": (("read_out",), "read_out"),
    "length_outside_subset": (("length_out",), "length_out"),
}


@pytest.mark.parametrize("faults, winner", _PRECEDENCE_ROWS.values(), ids=_PRECEDENCE_ROWS.keys())
def test_train_reports_the_first_fault_whether_records_load_in_workers_or_not(
    dataset_dir, tmp_path, monkeypatch, capsys, faults, winner
):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    known = _precedence_faults(data)
    for fault in faults:
        edit, _ = known[fault]
        if edit is not None:
            (data / edit[0]).write_text(edit[1])
    lines = (data / "manifest.csv").read_text().splitlines(keepends=True)
    if "manifest" in faults:
        fields = lines[71].split(",")
        lines[71] = ",".join([fields[0], "Q", *fields[2:]])
    if "duplicate" in faults:
        lines.append(lines[1])
    (data / "manifest.csv").write_text("".join(lines))
    subset = "subject=s9" if "empty_subset" in faults else "subject=s1"
    # subject=s1 selects 18 records: with two usable cores they are read in
    # workers, 4 to a chunk, so the first_bad_record faults lie in different chunks
    monkeypatch.setattr(semgrasp.dataset, "_PARALLEL_MIN_RECORDS", 8)
    monkeypatch.setattr(semgrasp.dataset, "_CHUNK_RECORDS", 4)
    cfg = _write_config(tmp_path / "cfg.json", dataset=str(data), split_fraction=0.5,
                        training={"epochs": 1, "batch_size": 16, "learning_rate": 0.01})
    outcomes = []
    for cores in (2, 1):
        monkeypatch.setattr(semgrasp.dataset, "_usable_cores", lambda: cores)
        out = tmp_path / f"run{cores}"
        code = main(["train", "--config", str(cfg), "--out", str(out), "--subset", subset])
        outcomes.append((code, capsys.readouterr().err, out.exists()))
    message = known[winner][1]
    want = (0, "", True) if message is None else (2, f"data error: {message}\n", False)
    assert outcomes == [want, want]
    if message is None:
        assert (tmp_path / "run2" / "model.bin").read_bytes() == (
            tmp_path / "run1" / "model.bin").read_bytes()


@pytest.fixture(scope="module")
def fault_dataset(tmp_path_factory):
    """66 records: with two usable cores, load_dataset reads them in worker processes."""
    root = tmp_path_factory.mktemp("faults") / "data"
    write_dataset(generate_synthetic(11, 64, seed=4), root)
    return root


def _scale_record(path: Path, factor: float) -> None:
    rows = np.column_stack(read_record_csv(path)) * factor
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))


def _set_every_rate(data: Path, rate: str) -> None:
    manifest = data / "manifest.csv"
    manifest.write_text(manifest.read_text().replace(",500.0\n", f",{rate}\n"))


def _symlink_loop(path: Path) -> None:
    path.unlink()
    path.symlink_to(path.name)


def _set_record_file(data: Path, cell: str) -> None:
    """Write cell in place of rec00040.csv in the manifest's file column (line 42)."""
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[41] = ",".join([cell, *lines[41].split(",")[1:]])
    manifest.write_text("".join(lines))


def _replace_with_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _write_crlf(path: Path) -> None:
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


_NOT_A_FAULT = (None, None)

# each dataset edit to a copy of fault_dataset: the text the one stderr line of
# extract, train and eval holds, and the text validate's holds, which only reads
# the records (None: the command exits 0 and writes nothing to stderr). Every
# message starts with the file at fault.
_DATASET_FAULTS = {
    "huge_samples": (lambda d: _scale_record(d / "rec00040.csv", 1e160),
                     ("rec00040.csv: channel1 of record (label=H, subject=s3, session=d2): "
                      "sums overflow at stage 1; values too large", None)),
    "huge_sample_rate": (lambda d: _set_every_rate(d, "1e308"),
                         ("rec00000.csv: record (label=C, subject=s1, session=d1): "
                          "features not finite at sample rate 1e+308 Hz", None)),
    "symlink_loop": (lambda d: _symlink_loop(d / "rec00040.csv"),
                     ("manifest.csv:42: record file 'rec00040.csv': ",) * 2),
    "constant_record": (lambda d: (d / "rec00040.csv").write_text("0.5,0.25\n" * 64),
                        ("rec00040.csv: channel1 of record (label=H, subject=s3, session=d2): "
                         "signal is constant", None)),
    "tiny_samples": (lambda d: _scale_record(d / "rec00040.csv", 1e-200),
                     ("rec00040.csv: channel1 of record (label=H, subject=s3, session=d2): "
                      "sample values too small; their squares underflow", None)),
    "empty_record": (lambda d: (d / "rec00040.csv").write_text(""),
                     ("rec00040.csv: file holds no samples",) * 2),
    "one_row": (lambda d: (d / "rec00040.csv").write_text("0.5,0.25\n"),
                ("rec00040.csv: record has 1 samples; need > ar_order + 1 = 11",
                 "rec00040.csv: length 1 differs from 64")),
    "three_columns": (lambda d: (d / "rec00040.csv").write_text("1,2,3\n4,5,6\n"),
                      ("rec00040.csv:1: row has 3 values, expected 2",) * 2),
    "not_utf8": (lambda d: (d / "rec00040.csv").write_bytes(b"1,2\n\xff3,4\n"),
                 ("rec00040.csv: not utf-8 text (invalid start byte)",) * 2),
    "nul_bytes": (lambda d: (d / "rec00040.csv").write_bytes(b"1,2\n3\x00,4\n"),
                  ("rec00040.csv:2: malformed value in row",) * 2),
    "directory": (lambda d: _replace_with_directory(d / "rec00040.csv"),
                  ("rec00040.csv: not a regular file",) * 2),
    "empty_file_cell": (lambda d: _set_record_file(d, ""),
                        ("manifest.csv:42: record file '' is the dataset directory",) * 2),
    "dot_file_cell": (lambda d: _set_record_file(d, "."),
                      ("manifest.csv:42: record file '.' is the dataset directory",) * 2),
    "crlf_record": (lambda d: _write_crlf(d / "rec00040.csv"), _NOT_A_FAULT),
    "tiny_finite": (lambda d: _scale_record(d / "rec00040.csv", 1e-100), _NOT_A_FAULT),
}


@pytest.fixture(scope="module")
def fault_model(fault_dataset, tmp_path_factory):
    """A bundle trained on fault_dataset, for eval."""
    base = tmp_path_factory.mktemp("fault_model")
    (base / "cfg.json").write_text(json.dumps(
        {"dataset": str(fault_dataset), "seed": 1, "training": {"epochs": 1}}))
    assert main(["train", "--config", str(base / "cfg.json"), "--out", str(base / "run")]) == 0
    return base / "run" / "model.bin"


@pytest.mark.parametrize("command, cores", [("extract", 2), ("extract", 1), ("train", 2),
                                            ("train", 1), ("validate", 2), ("eval", 2)],
                         ids=["extract-pooled", "extract-in_process", "train-pooled",
                              "train-in_process", "validate-pooled", "eval-pooled"])
@pytest.mark.parametrize("fault", _DATASET_FAULTS)
def test_dataset_fault_is_one_line_naming_its_file(fault_dataset, fault_model, tmp_path, fault,
                                                   command, cores):
    data = tmp_path / "data"
    shutil.copytree(fault_dataset, data, symlinks=True)
    edit, (message, validate_message) = _DATASET_FAULTS[fault]
    edit(data)
    out = tmp_path / "out"
    if command == "train":
        (tmp_path / "cfg.json").write_text(
            json.dumps({"dataset": str(data), "seed": 1, "training": {"epochs": 1}}))
        args = ["train", "--config", tmp_path / "cfg.json", "--out", out]
    elif command == "eval":
        args = ["eval", fault_model, data, "--out", out]
    else:
        args = [command, data] + (["--out", out] if command == "extract" else [])
    done = _run_cli(args, cores=cores)
    if command == "validate":
        message = validate_message
    if message is None:
        assert (done.returncode, done.stderr) == (0, "")
        assert command == "validate" or out.exists()
        return
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"data error: {data}{os.sep}{message}"), done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert not out.exists()


def test_train_empty_test_split_leaves_no_run_directory(dataset_dir, tmp_path, capsys):
    # ceil(12 * 0.95) = 12: every record of each class would go to train
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json", dataset=str(dataset_dir), out=str(out), split_fraction=0.95
    )
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "test set" in err
    assert not out.exists()


def test_train_from_feature_dump(dataset_dir, tmp_path, capsys):
    dump = tmp_path / "features.csv"
    assert main(["extract", str(dataset_dir), "--out", str(dump), "--nbins", "32"]) == 0
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        features=str(dump),
        out=str(out),
        sample_rate=500.0,
        reference_accuracy=0.9852,
    )
    assert main(["train", "--config", str(cfg)]) == 0
    summary = _read_summary(out)
    assert float(summary["model_accuracy"]) >= 0.95
    assert float(summary["reference_accuracy"]) == 0.9852
    assert "gap_to_reference" in summary
    # a model trained from the dump still serves raw-record prediction
    capsys.readouterr()
    record = next(p for p in sorted(dataset_dir.iterdir()) if p.name.startswith("rec"))
    assert main(["predict", str(out / "model.bin"), str(record)]) == 0


def test_train_feature_dump_nbins_mismatch(dataset_dir, tmp_path, capsys):
    dump = tmp_path / "features.csv"
    assert main(["extract", str(dataset_dir), "--out", str(dump), "--nbins", "16"]) == 0
    cfg = _write_config(
        tmp_path / "cfg.json", features=str(dump), out=str(tmp_path / "o"), sample_rate=500.0
    )
    assert main(["train", "--config", str(cfg)]) == 1
    assert "16 bins" in capsys.readouterr().err


def test_train_without_normalization(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset=str(dataset_dir),
        out=str(out),
        features_config={"ar_order": 10, "nbins": 32, "normalization": "none"},
        training={"epochs": 40, "batch_size": 16, "learning_rate": 0.005},
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert load_model(out / "model.bin").normalizer is None
    assert float(_read_summary(out)["model_accuracy"]) >= 0.9
    capsys.readouterr()
    record = next(p for p in sorted(dataset_dir.iterdir()) if p.name.startswith("rec"))
    assert main(["predict", str(out / "model.bin"), str(record)]) == 0


def test_train_divergence_exit_code(dataset_dir, tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset=str(dataset_dir),
        out=str(tmp_path / "out"),
        network={"conv_layers": [[4, 3, 1]], "dense_units": 8, "activation": "identity"},
        training={"epochs": 20, "learning_rate": 1e40},
    )
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "diverged at epoch" in err


# ----------------------------------------------------------- config contract

# JSON value kinds every config key is probed with, as raw config text
_PROBE_VALUES = [
    "null", "true", "0", "-1", "2.5", "NaN", "1e308", "1e400", "9" * 400, '"x"', "[]", "{}"
]


def _config_key_paths():
    """Every key of the config, top-level and nested, as a tuple path."""
    for key, default in _CONFIG_DEFAULTS.items():
        yield (key,)
        if isinstance(default, dict):
            yield from ((key, sub) for sub in default)


# the probes a valid config may hold: each of them trains (or diverges, exit 3);
# the probe config names a dataset, so any sample_rate but null is refused
_ACCEPTED_PROBES = {
    "features=null", 'out="x"', "seed=0", "sample_rate=null",
    "reference_accuracy=null", "reference_accuracy=0",
    "features_config={}", "features_config.log_floor=2.5", "features_config.log_floor=1e308",
    "network={}", "network.conv_layers=[]", "training={}", "training.learning_rate=2.5",
    "training.learning_rate=1e308", "training.momentum=0",
    "feature_dump_with_sample_rate=2.5", "feature_dump_with_sample_rate=1e308",
}


def _probe_row(edits: dict, row_id: str):
    return pytest.param(edits, row_id in _ACCEPTED_PROBES, id=row_id)


_PROBE_ROWS = [
    _probe_row({path: text}, f"{'.'.join(path)}={'400digits' if len(text) > 9 else text}")
    for path in _config_key_paths()
    for text in _PROBE_VALUES
] + [
    _probe_row(
        {("dataset",): "null", ("features",): "@DUMP@", ("sample_rate",): '"abc"'},
        "feature_dump_with_string_sample_rate",
    ),
    _probe_row({("network", "conv_layers"): "[[2, 3]]"}, "two_entry_conv_layer"),
    # an integer >= 1 whose dense weights (hundreds of GiB) cannot be allocated
    _probe_row({("network", "dense_units"): "1000000000"}, "unallocatable_dense_units"),
] + [
    _probe_row({("dataset",): "null", ("features",): "@DUMP@", ("sample_rate",): text},
               f"feature_dump_with_sample_rate={text}")
    for text in ("2.5", "1e308")
]


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """A tiny dataset and its feature dump, for one-epoch probe runs."""
    base = tmp_path_factory.mktemp("probe")
    write_dataset(generate_synthetic(4, 64, seed=2), base / "data")
    assert main(["extract", str(base / "data"), "--out", str(base / "f.csv"), "--nbins", "16"]) == 0
    return base / "data", base / "f.csv"


def _probe_config(edits: dict, data: Path, dump: Path) -> str:
    """JSON text of a small one-epoch config with each edited key set to raw text."""
    cfg = {
        "dataset": str(data),
        "out": "run",
        "seed": 1,
        "features_config": {"ar_order": 4, "nbins": 16},
        "network": {"conv_layers": [[2, 3, 1]], "dense_units": 4},
        "training": {"epochs": 1, "batch_size": 8},
    }
    for i, path in enumerate(edits):
        *parents, leaf = path
        section = cfg
        for key in parents:
            section = section.setdefault(key, {})
        section[leaf] = f"@EDIT{i}@"
    text = json.dumps(cfg)
    for i, value in enumerate(edits.values()):
        text = text.replace(f'"@EDIT{i}@"', value.replace("@DUMP@", json.dumps(str(dump))))
    return text


@pytest.mark.parametrize("edits, accepted", _PROBE_ROWS)
def test_config_value_meets_exit_contract(
    probe_inputs, tmp_path, monkeypatch, capsys, edits, accepted
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # relative outputs such as "x" land here
    (tmp_path / "cfg.json").write_text(_probe_config(edits, *probe_inputs))
    code = main(["train", "--config", str(tmp_path / "cfg.json")])
    err = capsys.readouterr().err
    assert code in ((0, 3) if accepted else (1,)), err
    assert len(err.splitlines()) <= 1, err
    if code not in (0, 3):
        assert list(work.iterdir()) == [], err
    if code == 0:
        (bundle,) = work.rglob("model.bin")
        load_model(bundle)


def test_extract_non_finite_log_floor_is_config_error(probe_inputs, tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["extract", str(probe_inputs[0]), "--out", str(out), "--log-floor", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: log_floor must be a finite number > 0, got inf"]
    assert not out.exists()


# ---------------------------------------------------------- eval and predict


def test_eval_on_training_split_matches_logged_accuracy(
    trained_run, dataset_dir, tmp_path, capsys
):
    ds = load_dataset(dataset_dir, keep_records)
    with open(trained_run / "split.csv", newline="") as fh:
        train_idx = [int(r["index"]) for r in csv.DictReader(fh) if r["role"] == "train"]
    train_half = tmp_path / "train_half"
    sub = [ds.x[i] for i in train_idx]
    write_dataset(sub, train_half)

    out = tmp_path / "eval_out"
    assert main(["eval", str(trained_run / "model.bin"), str(train_half), "--out", str(out)]) == 0
    epochs = np.loadtxt(trained_run / "epochs.csv", delimiter=",", skiprows=1, ndmin=2)
    final_train_acc = epochs[-1, 2]  # columns: epoch, train_loss, train_acc, ...
    eval_acc = float(_read_summary(out)["accuracy"])
    assert eval_acc >= final_train_acc - 1e-9

    cm = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64)
    for k, lab in enumerate(LABELS):
        assert cm[k].sum() == sum(r.label == lab for r in sub)


def test_eval_on_missing_classes_writes_nothing_to_stderr(trained_run, dataset_dir, tmp_path):
    # classes never seen or never predicted have empty precision/recall denominators
    records = [r for r in load_dataset(dataset_dir, keep_records).x if r.label in ("C", "T")]
    two_class = tmp_path / "two_class"
    write_dataset(records, two_class)
    out = tmp_path / "eval_out"
    done = _run_cli(["eval", trained_run / "model.bin", two_class, "--out", out])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert int(_read_summary(out)["samples"]) == len(records)


def test_eval_unknown_label_is_data_error(trained_run, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "rec0.csv").write_text("1.0,2.0\n3.0,4.0\n")
    (bad / "manifest.csv").write_text(
        "file,label,subject,session,sample_rate\nrec0.csv,X,s1,d1,500.0\n"
    )
    assert main(["eval", str(trained_run / "model.bin"), str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "unknown label" in capsys.readouterr().err


def test_eval_sample_rate_mismatch(trained_run, tmp_path, capsys):
    ds = generate_synthetic(2, 64, seed=1)
    for rec in ds:
        rec.sample_rate = 250.0
    other = tmp_path / "other_rate"
    write_dataset(ds, other)
    assert main(["eval", str(trained_run / "model.bin"), str(other), "--out", str(tmp_path / "o")]) == 2
    assert "sample rate" in capsys.readouterr().err


def test_predict_training_record(trained_run, dataset_dir, capsys):
    ds = load_dataset(dataset_dir, keep_records)
    with open(trained_run / "split.csv", newline="") as fh:
        first_train = next(int(r["index"]) for r in csv.DictReader(fh) if r["role"] == "train")
    record_path = dataset_dir / f"rec{first_train:05d}.csv"
    assert main(["predict", str(trained_run / "model.bin"), str(record_path)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == "label," + ",".join(f"p_{lab}" for lab in LABELS)
    fields = out_lines[1].split(",")
    assert fields[0] == ds.labels[first_train]
    probs = [float(v) for v in fields[1:]]
    assert len(probs) == 6
    assert abs(sum(probs) - 1.0) < 1e-9


def test_predict_inconsistent_bundle_is_data_error(trained_run, dataset_dir, tmp_path, capsys):
    bad = tmp_path / "model.bin"
    shutil.copy(trained_run / "model.bin", bad)

    def cut_head_column(meta, arrays):
        arrays["head.weights"] = arrays["head.weights"][:, :-1]

    rewrite_bundle(bad, cut_head_column)
    assert main(["predict", str(bad), str(dataset_dir / "rec00000.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "head.weights" in err


def _nbins_off_network(meta, arrays):
    meta["feature_config"].update(nbins=64, normalization="none")
    meta["has_normalizer"] = False


@pytest.mark.parametrize(
    "edit, message",
    [
        (_nbins_off_network, "feature_config.nbins is 64 but network.input_bins is 32"),
        (lambda meta, arrays: meta.update(sample_rate="abc"), "sample_rate must be null or"),
        (lambda meta, arrays: meta.update(sample_rate=0), "sample_rate must be null or"),
    ],
    ids=["nbins_off_network", "rate_string", "rate_zero"],
)
def test_predict_bad_bundle_metadata_is_data_error(
    trained_run, dataset_dir, tmp_path, capsys, edit, message
):
    bad = tmp_path / "model.bin"
    shutil.copy(trained_run / "model.bin", bad)
    rewrite_bundle(bad, edit)
    assert main(["predict", str(bad), str(dataset_dir / "rec00000.csv")]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert str(bad) in captured.err
    assert message in captured.err
    assert captured.out == ""


def test_predict_zero_normalizer_std_is_data_error(trained_run, dataset_dir, tmp_path, capsys):
    bad = tmp_path / "model.bin"
    shutil.copy(trained_run / "model.bin", bad)

    def zero_std2(meta, arrays):
        arrays["norm.std2"] = np.zeros_like(arrays["norm.std2"])

    rewrite_bundle(bad, zero_std2)
    assert main(["predict", str(bad), str(dataset_dir / "rec00000.csv")]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert "norm.std2" in captured.err
    assert captured.out == ""


def _nan_head_bias(meta, arrays):
    arrays["head.bias"][0] = np.nan


def _inf_dense_weights(meta, arrays):
    arrays["ch1.dense.weights"][0, 0] = np.inf


def _retype(name, dtype):
    def edit(meta, arrays):
        arrays[name] = arrays[name].astype(dtype)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_nan_head_bias, "model bundle gives non-finite probabilities"),
        (_inf_dense_weights, "model bundle gives non-finite probabilities"),
        (_retype("head.bias", np.float64),
         "weight array 'head.bias' has dtype float64, expected float32 like 'ch1.conv0.weights'"),
        (_retype("ch1.conv0.weights", np.complex128),
         "weight array 'ch1.conv0.weights' has dtype complex128, expected float32 or float64"),
    ],
    ids=["nan_head_bias", "inf_dense_weights", "mixed_dtypes", "complex_weights"],
)
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_unusable_bundle_weights_are_one_line_data_errors(
    trained_run, dataset_dir, tmp_path, capsys, edit, message, command
):
    bad = tmp_path / "model.bin"
    shutil.copy(trained_run / "model.bin", bad)
    rewrite_bundle(bad, edit)
    out = tmp_path / "report"
    target = dataset_dir / "rec00000.csv" if command == "predict" else dataset_dir
    argv = [command, str(bad), str(target)] + (["--out", str(out)] if command == "eval" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"data error: {bad}: {message}"]
    assert captured.out == "" and not out.exists()


def _record_text(rows: int, ch2_scale: float = 1.0, ch2=None) -> bytes:
    """A record file of standard-normal samples; channel2 scaled, or the constant ch2."""
    x = np.random.default_rng(0).standard_normal((rows, 2))
    x[:, 1] = x[:, 1] * ch2_scale if ch2 is None else ch2
    return "".join(f"{a!r},{b!r}\n" for a, b in x.tolist()).encode()


@pytest.mark.parametrize(
    "text, message",
    [
        (b"", "r.csv: file holds no samples"),
        (b"1,2,3\n", "r.csv:1: row has 3 values, expected 2"),
        (b"1,2\n\xff3,4\n", "r.csv: not utf-8 text (invalid start byte)"),
        # the record has no label, subject or session to name
        (b"0.5,0.25\n" * 64, "r.csv: channel1: signal is constant"),
        # a fault in channel2 alone, the second of the record's two fitted rows
        (_record_text(64, ch2=0.25), "r.csv: channel2: signal is constant"),
        (_record_text(64, ch2_scale=1e160), "r.csv: channel2: sums overflow at stage 1"),
        (_record_text(64, ch2_scale=1e-200), "r.csv: channel2: sample values too small; "
                                             "their squares underflow"),
        (_record_text(5), "r.csv: record has 5 samples"),
        (b"1,2\n3\x00,4\n", "r.csv:2: malformed value in row"),
        (b"0.5,0.25\n", "r.csv: record has 1 samples; need > ar_order + 1 = 11"),
        # a function in place of the text makes the record path something other than a file
        (Path.mkdir, "r.csv: not a regular file"),
        (lambda record: record.symlink_to(record.name), "r.csv: not a regular file"),
        (lambda record: None, "r.csv: record file not found"),
    ],
    ids=["empty", "three_columns", "non_utf8", "constant", "constant_ch2", "overflow_ch2",
         "underflow_ch2", "five_rows", "nul_bytes", "one_row", "directory", "symlink_loop",
         "missing"],
)
def test_predict_unreadable_record_writes_one_line(trained_run, tmp_path, capsys, text, message):
    record = tmp_path / "r.csv"
    if isinstance(text, bytes):
        record.write_bytes(text)
    else:
        text(record)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["predict", str(trained_run / "model.bin"), str(record)]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith(f"data error: {tmp_path}{os.sep}{message}"), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit", [_write_crlf, lambda record: _scale_record(record, 1e-100)],
                         ids=["crlf", "tiny_finite"])
def test_predict_valid_record_writes_no_stderr(trained_run, tmp_path, capsys, edit):
    record = tmp_path / "r.csv"
    record.write_bytes(_record_text(64))
    edit(record)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["predict", str(trained_run / "model.bin"), str(record)]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 2


def test_predict_prints_what_training_predict_returns(trained_run, dataset_dir, capsys):
    # training.predict is the sequence the benchmark's predict loop runs
    model = trained_run / "model.bin"
    bundle = load_model(model)
    for record_path in sorted(dataset_dir.glob("rec*.csv")):
        ch1, ch2 = read_record_csv(record_path)
        record = EmgRecord(channel1=ch1, channel2=ch2, sample_rate=bundle.sample_rate, label="C")
        fv = apply_normalizer(bundle.normalizer, extract_features(record, bundle.feature_config))
        label, probs = predict(bundle.state, fv)
        assert main(["predict", str(model), str(record_path)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == label + "," + ",".join(repr(float(p)) for p in probs), record_path.name


# ------------------------------------------------------------ bundle contract

# one value of each JSON kind, set in turn at every metadata key
_BUNDLE_PROBE_VALUES = {
    "null": None, "bool": True, "int": 3, "float": 2.5, "string": "x", "list": [], "object": {},
}


def _json_paths(node, path=()):
    """Every key path below a JSON value: object keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _probe_bundle_layout():
    """Metadata key paths and array names of a bundle shaped like the probe run's model."""
    cfg = json.loads(_probe_config({}, Path("data"), Path("f.csv")))
    fcfg = FeatureConfig(**cfg["features_config"])
    spec = NetworkSpec.from_json({**cfg["network"], "input_bins": fcfg.nbins})
    stats = np.ones((2, fcfg.nbins))
    bundle = ModelBundle(init_network(spec, np.random.default_rng(0)), fcfg,
                         Normalizer(stats, stats), sample_rate=500.0)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(Path(tmp) / "model.bin", bundle)
        with np.load(Path(tmp) / "model.bin") as data:
            meta = json.loads(str(data["__meta__"]))
            names = [name for name in data.files if name != "__meta__"]
    return list(_json_paths(meta)), names


_BUNDLE_META_PATHS, _BUNDLE_ARRAYS = _probe_bundle_layout()


def _array_fault(fault, arr):
    """arr with one fault, or None to leave the array out."""
    if fault == "missing":
        return None
    if fault == "wrong_shape":
        return arr[..., :-1]
    if fault == "wrong_dtype":
        return arr.astype(np.float16)
    arr = arr.copy()
    arr.flat[0] = np.nan if fault == "nan" else np.inf
    return arr


_BUNDLE_PROBE_ROWS = [
    pytest.param(("meta", path, value), id=f"{'.'.join(map(str, path))}={kind}")
    for path in _BUNDLE_META_PATHS
    for kind, value in _BUNDLE_PROBE_VALUES.items()
] + [
    # every object key, nested ones too, is required
    pytest.param(("missing", path, None), id=f"{'.'.join(map(str, path))}:missing")
    for path in _BUNDLE_META_PATHS
    if isinstance(path[-1], str)
] + [
    pytest.param(("array", name, fault), id=f"{name}:{fault}")
    for name in _BUNDLE_ARRAYS
    for fault in ("missing", "wrong_shape", "wrong_dtype", "nan", "inf")
]


@pytest.fixture(scope="module")
def probe_bundle(probe_inputs, tmp_path_factory):
    """The probe run's trained model and one of its records."""
    base = tmp_path_factory.mktemp("probe_bundle")
    (base / "cfg.json").write_text(_probe_config({}, *probe_inputs))
    assert main(["train", "--config", str(base / "cfg.json"), "--out", str(base / "run")]) == 0
    model = base / "run" / "model.bin"
    with np.load(model) as data:
        assert list(_json_paths(json.loads(str(data["__meta__"])))) == _BUNDLE_META_PATHS
        assert data.files[1:] == _BUNDLE_ARRAYS
    return model, probe_inputs[0] / "rec00000.csv"


@pytest.mark.parametrize("probe", _BUNDLE_PROBE_ROWS)
def test_bundle_value_meets_exit_contract(probe_bundle, tmp_path, capsys, probe):
    model, record = probe_bundle
    where, key, value = probe

    def edit(meta, arrays):
        if where == "array":
            faulty = _array_fault(value, arrays.pop(key))
            if faulty is not None:
                arrays[key] = faulty
            return
        *parents, leaf = key
        for parent in parents:
            meta = meta[parent]
        if where == "missing":
            del meta[leaf]
        else:
            meta[leaf] = value

    bad = tmp_path / "model.bin"
    shutil.copy(model, bad)
    rewrite_bundle(bad, edit)
    code = main(["predict", str(bad), str(record)])
    captured = capsys.readouterr()
    names = ("dataset_name", "normalizer_fitted_on")
    if where == "missing" or where == "meta" and key[0] in names and not isinstance(value, str):
        assert code == 2, captured.out
    assert code in (0, 2), captured.err
    assert len(captured.err.splitlines()) <= 1 and "Traceback" not in captured.err, captured.err
    if code == 0:
        _, row = captured.out.splitlines()
        probs = np.array([float(v) for v in row.split(",")[1:]])
        assert len(probs) == 6 and np.isfinite(probs).all(), row
        assert abs(probs.sum() - 1.0) <= 1e-9, row


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["train"]) == 1  # --config required
