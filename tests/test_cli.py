import csv
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import rewrite_bundle

import semgrasp
from semgrasp.cli import _CONFIG_DEFAULTS, main, resolve_config
from semgrasp.dataset import LABELS, generate_synthetic, load_dataset, write_dataset
from semgrasp.features import load_features_csv
from semgrasp.model_io import load_model


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
    ds = load_dataset(out)
    assert len(ds) == 900
    assert all(count == 150 for count in ds.class_counts().values())
    assert {r.subject_id for r in ds.records} == {f"subject{s}" for s in range(1, 6)}
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


@pytest.mark.parametrize("rate", ["-1", "inf"])
def test_convert_bad_rate_writes_nothing(export_dir, tmp_path, capsys, rate):
    out = tmp_path / "out"
    assert main(["convert", str(export_dir), str(out), f"--rate={rate}"]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert "sample_rate must be finite and > 0" in captured.err
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


def test_validate_reports_shape(dataset_dir, capsys):
    assert main(["validate", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    assert "72 records" in out
    assert "C=12" in out
    assert "500.0 Hz" in out


def test_validate_missing_manifest_column(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.csv").write_text("file,label,subject,sample_rate\n")
    assert main(["validate", str(bad)]) == 2
    assert "'session'" in capsys.readouterr().err


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
    feats = load_features_csv(out)
    assert len(feats) == 72
    assert len(feats[0].channel1_features) == 16


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
        {"features": "feats.csv", "dataset": None, "subset": "subject=s1"},
    ],
    ids=[
        "seed", "reference_accuracy", "momentum", "epochs_fraction", "batch_size_fraction",
        "epochs_bool", "optimizer", "activation", "nbins",
        "dense_units_fraction", "kernel_fraction", "stride_bool", "zero_filters",
        "subset_syntax", "subset_kind", "subset_type", "subset_feature_dump",
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
    def failing_report(outdir, report, extras=None):
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
    for rec in ds.records:
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


# the probes a valid config may hold: each of them trains (or diverges, exit 3)
_ACCEPTED_PROBES = {
    "features=null", 'out="x"', "seed=0", "sample_rate=null", "sample_rate=2.5",
    "sample_rate=1e308", "reference_accuracy=null", "reference_accuracy=0",
    "features_config={}", "features_config.log_floor=2.5", "features_config.log_floor=1e308",
    "network={}", "network.conv_layers=[]", "training={}", "training.learning_rate=2.5",
    "training.learning_rate=1e308", "training.momentum=0",
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
    ds = load_dataset(dataset_dir)
    with open(trained_run / "split.csv", newline="") as fh:
        train_idx = [int(r["index"]) for r in csv.DictReader(fh) if r["role"] == "train"]
    train_half = tmp_path / "train_half"
    sub = ds.records
    from semgrasp.dataset import Dataset

    write_dataset(Dataset(records=[sub[i] for i in train_idx], name="train_half"), train_half)

    out = tmp_path / "eval_out"
    assert main(["eval", str(trained_run / "model.bin"), str(train_half), "--out", str(out)]) == 0
    epochs = np.loadtxt(trained_run / "epochs.csv", delimiter=",", skiprows=1, ndmin=2)
    final_train_acc = epochs[-1, 2]  # columns: epoch, train_loss, train_acc, ...
    eval_acc = float(_read_summary(out)["accuracy"])
    assert eval_acc >= final_train_acc - 1e-9

    cm = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64)
    counts = Dataset(records=[sub[i] for i in train_idx]).class_counts()
    for k, lab in enumerate(LABELS):
        assert cm[k].sum() == counts[lab]


def test_eval_on_missing_classes_writes_nothing_to_stderr(trained_run, dataset_dir, tmp_path):
    # classes never seen or never predicted have empty precision/recall denominators
    from semgrasp.dataset import Dataset

    records = [r for r in load_dataset(dataset_dir).records if r.label in ("C", "T")]
    two_class = tmp_path / "two_class"
    write_dataset(Dataset(records=records, name="two_class"), two_class)
    out = tmp_path / "eval_out"
    src = Path(semgrasp.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "semgrasp.cli", "eval", str(trained_run / "model.bin"),
         str(two_class), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
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
    for rec in ds.records:
        rec.sample_rate = 250.0
    other = tmp_path / "other_rate"
    write_dataset(ds, other)
    assert main(["eval", str(trained_run / "model.bin"), str(other), "--out", str(tmp_path / "o")]) == 2
    assert "sample rate" in capsys.readouterr().err


def test_predict_training_record(trained_run, dataset_dir, capsys):
    ds = load_dataset(dataset_dir)
    with open(trained_run / "split.csv", newline="") as fh:
        first_train = next(int(r["index"]) for r in csv.DictReader(fh) if r["role"] == "train")
    record_path = dataset_dir / f"rec{first_train:05d}.csv"
    assert main(["predict", str(trained_run / "model.bin"), str(record_path)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == "label," + ",".join(f"p_{lab}" for lab in LABELS)
    fields = out_lines[1].split(",")
    assert fields[0] == ds.records[first_train].label
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


def test_predict_missing_record_file(trained_run, tmp_path, capsys):
    assert main(["predict", str(trained_run / "model.bin"), str(tmp_path / "nope.csv")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (b"", "r.csv: file holds no samples"),
        (b"1,2,3\n", "r.csv:1: row has 3 values, expected 2"),
        (b"1,2\n\xff3,4\n", "r.csv: not utf-8 text (invalid start byte)"),
    ],
    ids=["empty", "three_columns", "non_utf8"],
)
def test_predict_unreadable_record_writes_one_line(trained_run, tmp_path, capsys, text, message):
    record = tmp_path / "r.csv"
    record.write_bytes(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["predict", str(trained_run / "model.bin"), str(record)]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1, captured.err
    assert message in captured.err
    assert captured.out == ""


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["train"]) == 1  # --config required
