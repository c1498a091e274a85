"""Command-line entry point.

Subcommands: convert, validate, extract, train, eval, predict. Training is
driven by a JSON config file; --seed/--out/--subset override the config.
Every run directory is self-describing: config.echo holds the fully
materialized configuration, and all artifacts are reproducible from it.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 divergence.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path

from .dataset import (
    LABELS,
    EmgRecord,
    convert_class_matrices,
    load_dataset,
    read_record_csv,
    split_by_labels,
)
from .errors import ConfigError, DataError, TrainingDivergedError
from .features import (
    FeatureConfig,
    apply_normalizer,
    extract_all,
    extract_features,
    fit_normalizer,
    load_features_csv,
    save_features_csv,
)
from .metrics import (
    accuracy_from_cm,
    confusion_matrix,
    f1_macro,
    f1_weighted,
    summarize,
    write_confusion,
    write_report,
    write_summary_csv,
)
from .model_io import ModelBundle, load_model, save_model
from .network import ConvSpec, NetworkSpec, _is_finite_number
from .training import TrainConfig, predict, predict_batch, train

_NETWORK_DEFAULTS = NetworkSpec(input_bins=FeatureConfig().nbins)

# every default below the top level comes from the dataclass that consumes it
_CONFIG_DEFAULTS: dict = {
    "dataset": None,
    "features": None,
    "out": None,
    "seed": None,
    "subset": "all",
    "split_fraction": 0.7,
    "sample_rate": None,
    "reference_accuracy": None,
    "features_config": asdict(FeatureConfig()),
    "network": {
        "conv_layers": [list(astuple(c)) for c in _NETWORK_DEFAULTS.conv_layers],
        "dense_units": _NETWORK_DEFAULTS.dense_units,
        "activation": _NETWORK_DEFAULTS.activation,
    },
    "training": {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
}


_NULL_OR_STRING = (lambda v: v is None or isinstance(v, str), "null or a string")
# each top-level key: the check its value must pass, and what the check accepts
_TOP_LEVEL_RULES = {
    "dataset": _NULL_OR_STRING,
    "features": _NULL_OR_STRING,
    "out": _NULL_OR_STRING,
    "subset": (
        lambda v: v == "all" or isinstance(v, str) and v.startswith(("subject=", "session=")),
        "'all', 'subject=<id>' or 'session=<id>'",
    ),
    "seed": (lambda v: _is_finite_number(v) and isinstance(v, int) and v >= 0, "an integer >= 0"),
    "split_fraction": (lambda v: _is_finite_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "sample_rate": (
        lambda v: v is None or _is_finite_number(v) and v > 0, "null or a finite number > 0"
    ),
    "reference_accuracy": (
        lambda v: v is None or _is_finite_number(v) and 0 <= v <= 1, "null or a number in [0, 1]"
    ),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through
    # ConfigError so usage problems map to exit code 1 instead.
    def error(self, message):
        raise ConfigError(message)


def resolve_config(
    path: str | Path,
    seed: int | None = None,
    out: str | None = None,
    subset: str | None = None,
) -> dict:
    """Load a JSON run config, merge defaults, apply flag overrides, validate."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    cfg = copy.deepcopy(_CONFIG_DEFAULTS)
    for key, value in raw.items():
        if key not in cfg:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: {key} must be an object")
            for sub, subval in value.items():
                if sub not in cfg[key]:
                    raise ConfigError(f"{path}: unknown config key {key}.{sub!r}")
                cfg[key][sub] = subval
        else:
            cfg[key] = value

    for key, flag in (("seed", seed), ("out", out), ("subset", subset)):
        if flag is not None:
            cfg[key] = flag

    if cfg["seed"] is None:
        raise ConfigError("seed is mandatory: set it in the config or pass --seed")
    for key, (accepts, accepted) in _TOP_LEVEL_RULES.items():
        if not accepts(cfg[key]):
            raise ConfigError(f"{key} must be {accepted}, got {cfg[key]!r}")
    if cfg["out"] is None:
        raise ConfigError("output directory is mandatory: set 'out' or pass --out")
    if (cfg["dataset"] is None) == (cfg["features"] is None):
        raise ConfigError("exactly one of 'dataset' or 'features' must be set")
    if cfg["dataset"] is not None and not Path(cfg["dataset"]).exists():
        raise ConfigError(f"dataset path not found: {cfg['dataset']}")
    if cfg["features"] is not None and not Path(cfg["features"]).is_file():
        raise ConfigError(f"features file not found: {cfg['features']}")
    if cfg["features"] is not None and cfg["subset"] != "all":
        raise ConfigError("subset selection needs the raw dataset, not a feature dump")
    return cfg


def _build_sections(cfg: dict) -> tuple[FeatureConfig, TrainConfig, NetworkSpec]:
    """The dataclasses behind features_config, training and network, in that order."""
    section = "features_config"
    try:
        fcfg = FeatureConfig(**cfg["features_config"])
        section = "training config"
        tcfg = TrainConfig(seed=cfg["seed"], **cfg["training"])
        section = "network config"
        net = cfg["network"]
        if not isinstance(net["conv_layers"], list):
            raise TypeError(f"conv_layers must be a list, got {net['conv_layers']!r}")
        spec = NetworkSpec(
            input_bins=fcfg.nbins,
            conv_layers=[ConvSpec(f, k, z) for f, k, z in net["conv_layers"]],
            dense_units=net["dense_units"],
            activation=net["activation"],
        )
        spec.flat_dim()  # validates the conv chain against the input length
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {section}: {e}") from None
    return fcfg, tcfg, spec


def _write_split_csv(path: Path, n: int, train_indices: list[int]) -> None:
    train_set = set(train_indices)
    with open(path, "w", newline="") as fh:
        fh.write("index,role\n")
        for i in range(n):
            fh.write(f"{i},{'train' if i in train_set else 'test'}\n")


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.seed, args.out, args.subset)
    fcfg, tcfg, spec = _build_sections(cfg)

    if cfg["dataset"] is not None:
        ds = load_dataset(cfg["dataset"])
        if cfg["subset"] != "all":
            kind, _, value = cfg["subset"].partition("=")
            ds = ds.subset(**{kind: value})
            if not ds.records:
                raise DataError(f"subset {cfg['subset']!r} selected no records")
        print(f"dataset: {ds.name}, {len(ds)} records, rate {ds.sample_rate} Hz")
        feats = extract_all(ds.records, fcfg)
        labels = [r.label for r in ds.records]
        sample_rate: float | None = ds.sample_rate
        data_name = ds.name
    else:
        feats = load_features_csv(cfg["features"])
        nbins = len(feats[0].channel1_features)
        if nbins != fcfg.nbins:
            raise ConfigError(
                f"feature dump has {nbins} bins per channel but features_config.nbins is "
                f"{fcfg.nbins}"
            )
        labels = [f.label for f in feats]
        sample_rate = cfg["sample_rate"]
        data_name = Path(cfg["features"]).stem
        print(f"features: {data_name}, {len(feats)} records")

    plan = split_by_labels(labels, cfg["split_fraction"], cfg["seed"])
    # the run directory exists only once the data is known good
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.echo").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    _write_split_csv(outdir / "split.csv", len(labels), plan.train_indices)
    train_feats = [feats[i] for i in plan.train_indices]
    test_feats = [feats[i] for i in plan.test_indices]
    print(f"split: {len(train_feats)} train / {len(test_feats)} test (seed {cfg['seed']})")

    normalizer = None
    if fcfg.normalization == "zscore":
        normalizer = fit_normalizer(train_feats, fitted_on=f"{data_name}:seed={cfg['seed']}")
        train_feats = [apply_normalizer(normalizer, f) for f in train_feats]
        test_feats = [apply_normalizer(normalizer, f) for f in test_feats]

    every = max(1, tcfg.epochs // 10)

    def progress(epoch, stats):
        if epoch == 1 or epoch == tcfg.epochs or epoch % every == 0:
            print(
                f"epoch {epoch:4d}  train_loss {stats.train_loss:.4f}  "
                f"train_acc {stats.train_acc:.4f}  test_acc {stats.test_acc:.4f}"
            )

    state, log = train(spec, train_feats, test_feats, tcfg, progress=progress)

    preds, _ = predict_batch(state, test_feats)
    cm = confusion_matrix([f.label for f in test_feats], preds)
    report = summarize(log, cm)
    bundle = ModelBundle(
        state=state,
        feature_config=fcfg,
        normalizer=normalizer,
        sample_rate=sample_rate,
        dataset_name=data_name,
    )
    # the bundle first: a directory holding summary.txt always holds its model
    save_model(outdir / "model.bin", bundle)
    extras = {}
    if cfg["reference_accuracy"] is not None:
        extras["reference_accuracy"] = float(cfg["reference_accuracy"])
    write_report(outdir, report, extras)
    print(
        f"done: model accuracy {report.model_accuracy:.4f}, "
        f"max {report.max_accuracy:.4f} (epoch {report.max_accuracy_epoch}), "
        f"average {report.average_accuracy:.4f}, weighted F1 {report.f1_weighted:.4f}"
    )
    print(f"artifacts written to {outdir}")
    return 0


def cmd_eval(args) -> int:
    bundle = load_model(args.model)
    ds = load_dataset(args.data)
    if bundle.sample_rate is not None and ds.sample_rate != bundle.sample_rate:
        raise DataError(
            f"sample rate mismatch: model expects {bundle.sample_rate} Hz, "
            f"dataset has {ds.sample_rate} Hz"
        )
    feats = extract_all(ds.records, bundle.feature_config)
    if bundle.normalizer is not None:
        feats = [apply_normalizer(bundle.normalizer, f) for f in feats]
    preds, _ = predict_batch(bundle.state, feats)
    cm = confusion_matrix([r.label for r in ds.records], preds)
    acc = accuracy_from_cm(cm)
    f1w = f1_weighted(cm)
    f1m = f1_macro(cm)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_confusion(outdir / "confusion.csv", cm)
    write_summary_csv(
        outdir / "summary.csv",
        {"accuracy": acc, "f1_weighted": f1w, "f1_macro": f1m, "samples": int(cm.sum())},
    )
    print(f"evaluated {int(cm.sum())} records: accuracy {acc:.4f}, weighted F1 {f1w:.4f}")
    print(f"artifacts written to {outdir}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_model(args.model)
    if bundle.sample_rate is None:
        raise DataError(
            "model carries no sample rate (trained from a feature dump); cannot "
            "extract features from a raw record"
        )
    ch1, ch2 = read_record_csv(args.record)
    # the label plays no part in inference; any valid placeholder will do
    record = EmgRecord(
        channel1=ch1, channel2=ch2, sample_rate=bundle.sample_rate, label=LABELS[0]
    )
    record.validate(name=str(args.record))
    fv = extract_features(record, bundle.feature_config)
    if bundle.normalizer is not None:
        fv = apply_normalizer(bundle.normalizer, fv)
    label, probs = predict(bundle.state, fv)
    print("label," + ",".join(f"p_{lab}" for lab in LABELS))
    print(label + "," + ",".join(repr(float(p)) for p in probs))
    return 0


def cmd_convert(args) -> int:
    count = convert_class_matrices(args.input, args.output, sample_rate=args.rate)
    print(f"wrote {count} records to {args.output}")
    return 0


def cmd_validate(args) -> int:
    ds = load_dataset(args.data)
    counts = ds.class_counts()
    print(f"dataset {ds.name}: {len(ds)} records, {ds.records[0].n_samples} samples each, "
          f"{ds.sample_rate} Hz")
    print("per class: " + " ".join(f"{lab}={counts[lab]}" for lab in LABELS))
    subjects = sorted({r.subject_id for r in ds.records})
    sessions = sorted({r.session_id for r in ds.records})
    print(f"subjects: {', '.join(subjects)}")
    print(f"sessions: {', '.join(sessions)}")
    return 0


def cmd_extract(args) -> int:
    try:
        fcfg = FeatureConfig(ar_order=args.ar_order, nbins=args.nbins, log_floor=args.log_floor)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    ds = load_dataset(args.data)
    feats = extract_all(ds.records, fcfg)
    save_features_csv(args.out, feats)
    print(f"wrote {len(feats)} feature rows ({fcfg.nbins} bins/channel) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semgrasp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="convert per-class trial matrices to the interchange layout")
    p.add_argument("input", help="directory of <label>_ch{1,2}.csv matrices (or group subdirs)")
    p.add_argument("output", help="interchange dataset directory to create")
    p.add_argument("--rate", type=float, default=500.0, help="sample rate in Hz (default 500)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="load a dataset directory and report its shape")
    p.add_argument("data", help="interchange dataset directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extract", help="dump per-record power features as CSV")
    p.add_argument("data", help="interchange dataset directory")
    p.add_argument("--out", required=True, help="output CSV path")
    defaults = FeatureConfig()
    p.add_argument("--ar-order", type=int, default=defaults.ar_order)
    p.add_argument("--nbins", type=int, default=defaults.nbins)
    p.add_argument("--log-floor", type=float, default=defaults.log_floor)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True, help="run config path")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--subset", help="'all', 'subject=<id>' or 'session=<id>' (overrides config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a stored model on a dataset")
    p.add_argument("model", help="model bundle path (model.bin)")
    p.add_argument("data", help="interchange dataset directory")
    p.add_argument("--out", required=True, help="output directory for the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one record file")
    p.add_argument("model", help="model bundle path (model.bin)")
    p.add_argument("record", help="interchange record CSV (two columns ch1,ch2)")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except TrainingDivergedError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
