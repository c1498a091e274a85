"""Command-line entry point.

Subcommands: convert, validate, extract, train, eval, predict. Training is
driven by a JSON config file; --seed/--out/--subset override the config.
Every run directory is self-describing: config.echo holds the fully
materialized configuration, and all artifacts are reproducible from it.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 divergence,
130 interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .dataset import (
    LABELS,
    _read_chunk,
    _write_whole,
    convert_class_matrices,
    load_dataset,
    split_by_labels,
)
from .errors import ConfigError, DataError, TrainingDivergedError
from .features import (
    FeatureConfig,
    FeatureVector,
    apply_normalizer,
    extract_all,  # unused here; benchmarks/workloads.py traces cli.extract_all
    feature_rows,
    fit_normalizer,
    load_features_csv,
    save_features_csv,
    unstack_channels,
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
from .network import NetworkSpec, _is_finite_number, empty_network
from .training import TrainConfig, predict_batch, train

_FEATURE_DEFAULTS = asdict(FeatureConfig())
_NETWORK_DEFAULTS = NetworkSpec(input_bins=_FEATURE_DEFAULTS["nbins"]).to_json()

# every default below the top level comes from the dataclass that consumes it
_CONFIG_DEFAULTS: dict = {
    "dataset": None,
    "features": None,
    "out": None,
    "seed": None,
    "subset": "all",
    "split_fraction": 0.7,
    "reference_accuracy": None,
    # the log floor and z-scoring are fixed, like the class count
    "features_config": {k: _FEATURE_DEFAULTS[k] for k in ("ar_order", "nbins")},
    # input_bins is features_config.nbins, and the class count and the ReLU are fixed
    "network": {k: _NETWORK_DEFAULTS[k] for k in ("conv_layers", "dense_units")},
    "training": {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
}


# a path with a NUL byte cannot be opened, so it is refused before any work
_NULL_OR_PATH = (
    lambda v: v is None or isinstance(v, str) and "\0" not in v, "null or a string without NUL"
)
# each top-level key: the check its value must pass, and what the check accepts
_TOP_LEVEL_RULES = {
    "dataset": _NULL_OR_PATH,
    "features": _NULL_OR_PATH,
    "out": _NULL_OR_PATH,
    "subset": (
        lambda v: v == "all" or isinstance(v, str) and v.startswith(("subject=", "session="))
        and v.partition("=")[2] != "",
        "'all', 'subject=<id>' or 'session=<id>' with a non-empty id",
    ),
    "seed": (lambda v: _is_finite_number(v) and isinstance(v, int) and v >= 0, "an integer >= 0"),
    "split_fraction": (lambda v: _is_finite_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "reference_accuracy": (
        lambda v: v is None or _is_finite_number(v) and 0 <= v <= 1, "null or a number in [0, 1]"
    ),
}


def _say(line: str) -> None:
    """Write one line of a command's output to stdout.

    A reader that closes stdout early is not an error: fd 1 then points at
    /dev/null, and the command finishes its work and exits with its own code.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through
    # ConfigError so usage problems map to exit code 1 instead.
    def error(self, message):
        raise ConfigError(message)

    # --help writes through _say, so a closed stdout is no error there either
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _say(message.removesuffix("\n"))
        else:
            super()._print_message(message, file)


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
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not {e.encoding} text ({e.reason})") from None
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
    if cfg["features"] is not None and "features_config" in raw:
        raise ConfigError("features_config is for a raw dataset; a feature dump gives its own")
    return cfg


def _build_sections(cfg: dict) -> tuple[FeatureConfig, TrainConfig, NetworkSpec]:
    """The dataclasses behind features_config, training and network, in that order."""
    section = "features_config"
    try:
        fcfg = FeatureConfig(**cfg["features_config"])
        section = "training config"
        tcfg = TrainConfig(seed=cfg["seed"], **cfg["training"])
        section = "network config"
        spec = NetworkSpec.from_json({**cfg["network"], "input_bins": fcfg.nbins})
        # checks the conv chain against the input length, and that the arrays can be
        # allocated at all (MemoryError), before any data is read or file written
        empty_network(spec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {section}: {e}") from None
    return fcfg, tcfg, spec


def _write_split_csv(path: Path, n: int, train_indices: list[int]) -> None:
    train_set = set(train_indices)
    with _write_whole(path, newline="") as fh:
        fh.write("index,role\n")
        for i in range(n):
            fh.write(f"{i},{'train' if i in train_set else 'test'}\n")


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.seed, args.out, args.subset)
    fcfg, tcfg, spec = _build_sections(cfg)

    if cfg["dataset"] is not None:
        kind, chosen, value = cfg["subset"].partition("=")
        ds = load_dataset(cfg["dataset"], partial(feature_rows, cfg=fcfg),
                          **({kind: value} if chosen else {}))
        _say(f"dataset: {ds.name}, {len(ds)} records, rate {ds.sample_rate} Hz")
        x, labels = ds.x, ds.labels
        sample_rate = ds.sample_rate
        data_name = ds.name
    else:
        x, labels, fcfg, sample_rate = load_features_csv(cfg["features"])
        # the dump's recipe is the run's features_config, so the network is sized again
        cfg["features_config"] = {"ar_order": fcfg.ar_order, "nbins": fcfg.nbins}
        fcfg, tcfg, spec = _build_sections(cfg)
        data_name = Path(cfg["features"]).stem
        _say(f"features: {data_name}, {len(labels)} records, rate {sample_rate} Hz")
    feats = unstack_channels(x, labels)

    plan = split_by_labels(labels, cfg["split_fraction"], cfg["seed"])
    # the run directory exists only once the data is known good
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    with _write_whole(outdir / "config.echo") as fh:
        fh.write(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    _write_split_csv(outdir / "split.csv", len(labels), plan.train_indices)
    train_feats = [feats[i] for i in plan.train_indices]
    test_feats = [feats[i] for i in plan.test_indices]
    _say(f"split: {len(train_feats)} train / {len(test_feats)} test (seed {cfg['seed']})")

    normalizer = fit_normalizer(train_feats, fitted_on=f"{data_name}:seed={cfg['seed']}")
    train_feats = [apply_normalizer(normalizer, f) for f in train_feats]
    test_feats = [apply_normalizer(normalizer, f) for f in test_feats]

    every = max(1, tcfg.epochs // 10)

    def progress(epoch, stats):
        if epoch == 1 or epoch == tcfg.epochs or epoch % every == 0:
            _say(
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
    ref = cfg["reference_accuracy"]
    write_report(outdir, report, None if ref is None else float(ref))
    _say(
        f"done: model accuracy {report.model_accuracy:.4f}, "
        f"max {report.max_accuracy:.4f} (epoch {report.max_accuracy_epoch}), "
        f"average {report.average_accuracy:.4f}, weighted F1 {report.f1_weighted:.4f}"
    )
    _say(f"artifacts written to {outdir}")
    return 0


def _classify(bundle: ModelBundle, feats: list[FeatureVector], model):
    """Class indices and probabilities of raw features; non-finite ones refuse the bundle."""
    feats = [apply_normalizer(bundle.normalizer, f) for f in feats]
    preds, probs = predict_batch(bundle.state, feats)
    if not np.isfinite(probs).all():
        raise DataError(f"{model}: model bundle gives non-finite probabilities")
    return preds, probs


def cmd_eval(args) -> int:
    bundle = load_model(args.model)
    ds = load_dataset(args.data, partial(feature_rows, cfg=bundle.feature_config))
    if ds.sample_rate != bundle.sample_rate:
        raise DataError(
            f"sample rate mismatch: model expects {bundle.sample_rate} Hz, "
            f"dataset has {ds.sample_rate} Hz"
        )
    preds, _ = _classify(bundle, unstack_channels(ds.x, ds.labels), args.model)
    cm = confusion_matrix(ds.labels, preds)
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
    _say(f"evaluated {int(cm.sum())} records: accuracy {acc:.4f}, weighted F1 {f1w:.4f}")
    _say(f"artifacts written to {outdir}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_model(args.model)
    # a record read for inference has no label, subject or session
    _, x = _read_chunk([(Path(args.record), None, bundle.sample_rate, None, None)],
                       partial(feature_rows, cfg=bundle.feature_config))
    preds, probs = _classify(bundle, unstack_channels(x, [None]), args.model)
    _say("label," + ",".join(f"p_{lab}" for lab in LABELS))
    _say(LABELS[preds[0]] + "," + ",".join(repr(float(p)) for p in probs[0]))
    return 0


def cmd_convert(args) -> int:
    count = convert_class_matrices(args.input, args.output, sample_rate=args.rate)
    _say(f"wrote {count} records to {args.output}")
    return 0


def _lengths(records: list) -> list[int]:  # validate's load_dataset reducer
    return [r.n_samples for r in records]


def cmd_validate(args) -> int:
    # load_dataset checks that every record has the first one's length
    ds = load_dataset(args.data, _lengths)
    _say(f"dataset {ds.name}: {len(ds)} records, {ds.x[0]} samples each, "
         f"{ds.sample_rate} Hz")
    _say("per class: " + " ".join(f"{lab}={ds.labels.count(lab)}" for lab in LABELS))
    _say(f"subjects: {', '.join(sorted(set(ds.subjects)))}")
    _say(f"sessions: {', '.join(sorted(set(ds.sessions)))}")
    return 0


def cmd_extract(args) -> int:
    try:
        fcfg = FeatureConfig(ar_order=args.ar_order, nbins=args.nbins)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    ds = load_dataset(args.data, partial(feature_rows, cfg=fcfg))
    save_features_csv(args.out, ds.x, ds.labels, fcfg, ds.sample_rate)
    _say(f"wrote {len(ds)} feature rows ({fcfg.nbins} bins/channel) to {args.out}")
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
    try:
        args = build_parser().parse_args(argv)
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
    except MemoryError as e:
        # sizes that pass every config check but do not fit this machine
        print(f"config error: cannot allocate memory: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
