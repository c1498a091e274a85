"""The four benchmark workloads and the entry points each one uses.

A run is split over several processes (see run.py). In each, a workload
has three phases:

    setup()    timed as setup_s samples
    measure()  the timed operations, for at least the process's share of --seconds
    check()    output digests and correctness gates, after any tracing

and fills a Result. Calls into semgrasp go through module attributes
(``features.extract_all(...)``, not a name imported once), so a traced run
sees them. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fixtures import SAMPLE_RATE, Fixture
from spans import Patches, Tracer
from speed import Gauge

# Entry points the workloads call or patch in every run. run.py resolves them
# all before anything is measured, so a renamed function fails the run loudly.
CALLS = (
    "semgrasp.cli.main",
    "semgrasp.cli.train",
    "semgrasp.cli.predict_batch",
    "semgrasp.dataset.LABELS",
    "semgrasp.dataset.EmgRecord",
    "semgrasp.dataset.read_record_csv",
    "semgrasp.features.FeatureConfig",
    "semgrasp.features.FeatureVector",
    "semgrasp.features.extract_all",
    "semgrasp.features.extract_features",
    "semgrasp.features.apply_normalizer",
    "semgrasp.model_io.load_model",
    "semgrasp.network.NetworkSpec",
    "semgrasp.training.predict",
    "semgrasp.training.predict_batch",
)

# Entry points wrapped by the traced run: each is the global its caller reads.
TRACED = (
    "semgrasp.cli.load_dataset",
    "semgrasp.dataset.read_record_csv",
    "semgrasp.cli.split_by_labels",
    "semgrasp.cli.extract_all",
    "semgrasp.features.extract_all",
    "semgrasp.features.extract_features",
    "semgrasp.features.burg_fit",
    "semgrasp.features.psd_from_model",
    "semgrasp.cli.fit_normalizer",
    "semgrasp.cli.apply_normalizer",
    "semgrasp.features.apply_normalizer",
    "semgrasp.training.loss_and_gradients",
    "semgrasp.training.evaluate",
    "semgrasp.training.forward",
    "semgrasp.network.forward",
    "semgrasp.network.backward",
    "semgrasp.training.predict",
    "semgrasp.cli.predict_batch",
    "semgrasp.cli.save_model",
    "semgrasp.cli.load_model",
    "semgrasp.model_io.load_model",
    "semgrasp.cli.summarize",
    "semgrasp.cli.write_report",
    "semgrasp.cli.confusion_matrix",
    "semgrasp.cli.accuracy_from_cm",
    "semgrasp.cli.f1_weighted",
    "semgrasp.cli.f1_macro",
)

# Span attributes recorded before the call, for counters measured at the boundary.
SPAN_ATTRS = {
    "semgrasp.dataset.read_record_csv": lambda a, kw: {"bytes": Path(a[0]).stat().st_size},
}

# Acceptance gate of the paper reproduction: final test accuracy on `train`.
TRAIN_ACCURACY_GATE = 0.95
# `eval` runs a 3-epoch bundle on unseen records from the same recipe.
EVAL_ACCURACY_FLOOR = 0.90
PROB_SUM_TOLERANCE = 1e-12
# Timed epochs per second of a process's share of --seconds: 12 per process
# at 25 s, about 10 s of epochs after a set-up of about 7 s. Fixed (not
# measured) so the epoch count, and with it the weights fingerprint, depends
# only on the flags. At 19 per process the spread of `train` was no lower.
TRAIN_EPOCHS_PER_SECOND = 1.0
SETUP_REPEATS = 15
EXTRACT_CHUNK = 100
# `predict` fingerprints the answers to the first requests of each process,
# a set fixed by the seed whatever the speed.
PREDICT_FINGERPRINT_REQUESTS = 64


@dataclass
class Result:
    """What one process measured and checked; run.py pools several."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    setup_at: list[float] = field(default_factory=list)  # start of each, perf_counter
    op_at: list[float] = field(default_factory=list)
    # reference time around each setup and operation (speed.Gauge.around)
    setup_ref_s: list[float] = field(default_factory=list)
    op_ref_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # every gauge sample, for the record
    records: int = 0          # records processed by the timed operations
    attempted: int = 0        # checked outputs
    failures: list[str] = field(default_factory=list)
    # output key (e.g. "part1") -> digests seen; one key with two digests is a failure
    digests: dict[str, set[str]] = field(default_factory=dict)
    named: dict = field(default_factory=dict)  # workload-specific metrics: name -> (value, unit)
    spec: object = None       # NetworkSpec the workload's network uses
    bundle_bytes: int = 0
    peak_rss_mb: float = 0.0  # of the process when measure() ends, before the checks

    def add_setup(self, t0: float, t1: float) -> None:
        self.setup_at.append(t0)
        self.setup_s.append(t1 - t0)

    def add_op(self, t0: float, t1: float) -> None:
        self.op_at.append(t0)
        self.op_s.append(t1 - t0)

    def digest(self, key: str, value: str) -> None:
        self.digests.setdefault(key, set()).add(value)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def weights_digest(model: Path, summary: Path) -> str:
    """sha256 of the bundle's arrays (sorted by name) plus summary.csv bytes."""
    with np.load(model, allow_pickle=False) as data:
        arrays = [name.encode() + np.ascontiguousarray(data[name]).tobytes()
                  for name in sorted(data.files)]
    return _sha(*arrays, summary.read_bytes())


def fingerprint(digests: dict[str, set[str]]) -> str:
    """One sha256 over every output key and its digest(s), in key order."""
    return _sha(*(f"{k}={','.join(sorted(v))};".encode() for k, v in sorted(digests.items())))


def _read_summary(path: Path) -> dict:
    with open(path, newline="") as fh:
        return next(csv.DictReader(fh))


def _main(argv: list[str], log: Path) -> int:
    """semgrasp.cli.main with its console output kept in a log file."""
    import semgrasp.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = semgrasp.cli.main(argv)
    log.write_text(out.getvalue() + err.getvalue())
    return rc


class Workload:
    """One process's share of a run: `seconds` of timed work, starting at `part`."""

    name = ""
    inputs: tuple[str, ...] = ()  # the fixture components it reads (fixtures.COMPONENTS)

    def __init__(self, fixture: Fixture, seed: int, seconds: float, part: int, parts: int,
                 workdir: Path, patches: Patches, tracer: Tracer | None, gauge: Gauge):
        self.fixture = fixture
        self.seed = seed
        self.seconds = seconds
        self.part = part
        self.parts = parts
        self.workdir = workdir
        self.patches = patches
        self.tracer = tracer
        self.gauge = gauge
        self.result = Result()

    def offset(self, n: int) -> int:
        """Where this process starts in a cycle of n inputs, so processes spread over them."""
        return self.part * n // self.parts

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span around one operation or setup, when tracing."""
        if self.tracer is None:
            yield
            return
        depth = self.tracer.depth
        self.tracer.open(name)
        try:
            yield
        except BaseException as e:
            self.tracer.unwind(depth, e)
            raise
        self.tracer.close()

    def load_bundle_repeatedly(self):
        """setup_s for eval/predict: SETUP_REPEATS bundle loads."""
        from semgrasp import model_io

        for _ in range(SETUP_REPEATS):
            bundle = None  # each load starts without the previous bundle alive
            self.gauge.tick()
            t0 = time.perf_counter()
            with self.root("workload.setup"):
                bundle = model_io.load_model(self.fixture.model)
            self.result.add_setup(t0, time.perf_counter())
        self.result.bundle_bytes = self.fixture.model.stat().st_size
        self.result.spec = bundle.state.spec
        return bundle

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class EpochClock:
    """Time-stamps every epoch end through train()'s progress callback.

    Wraps semgrasp.cli.train for both runs; in the traced run it also opens a
    `training.train` span and one `training.epoch` span per epoch, the parents
    of the step and evaluation spans.
    """

    def __init__(self, patches: Patches, tracer: Tracer | None, gauge: Gauge):
        # per call: [entry, end of epoch 1, ...], and when each next epoch
        # started: [entry, after the gauge sample at the end of epoch 1, ...]
        self.runs: list[tuple[list[float], list[float]]] = []
        self.tracer = tracer
        self.gauge = gauge
        patches.patch("semgrasp.cli.train", self._wrap)

    def _wrap(self, original):
        signature = inspect.signature(original)
        tracer = self.tracer

        def train(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            epochs = bound.arguments["cfg"].epochs
            user_progress = bound.arguments.get("progress")
            ends = [time.perf_counter()]
            starts = list(ends)
            self.runs.append((ends, starts))

            def progress(epoch, stats):
                ends.append(time.perf_counter())
                self.gauge.tick(force=True)
                starts.append(time.perf_counter())
                if tracer is not None:
                    tracer.close()
                    if epoch < epochs:
                        tracer.open("training.epoch", {"epoch": epoch + 1})
                if user_progress is not None:
                    user_progress(epoch, stats)

            bound.arguments["progress"] = progress
            if tracer is None:
                return original(*bound.args, **bound.kwargs)
            depth = tracer.depth
            tracer.open("training.train")
            tracer.open("training.epoch", {"epoch": 1})
            try:
                out = original(*bound.args, **bound.kwargs)
            except BaseException as e:
                tracer.unwind(depth, e)
                raise
            tracer.unwind(depth)
            return out

        return train


class Train(Workload):
    """One `semgrasp train` in-process on dataset A with the default config."""

    name = "train"
    inputs = ("train",)

    def setup(self) -> None:
        self.clock = EpochClock(self.patches, self.tracer, self.gauge)
        timed = max(2, round(self.seconds * TRAIN_EPOCHS_PER_SECOND))
        self.epochs = 1 + timed  # the first epoch is the warm-up, part of setup_s
        self.config = self.workdir / "train.json"
        self.config.write_text(json.dumps(
            {"dataset": str(self.fixture.train_dir), "training": {"epochs": self.epochs}}
        ))
        self.out = self.workdir / "run"

    def measure(self) -> None:
        r = self.result
        argv = ["train", "--config", str(self.config), "--out", str(self.out),
                "--seed", str(self.seed)]
        self.gauge.tick(force=True)
        t0 = time.perf_counter()
        with self.root("workload.train"):
            self.rc = _main(argv, self.workdir / "run.log")
        t_end = time.perf_counter()
        ends, starts = self.clock.runs[0] if self.clock.runs else ([], [])
        if self.rc != 0 or len(ends) != self.epochs + 1:
            return
        r.add_setup(t0, ends[1])
        for start, end in zip(starts[1:], ends[2:]):
            r.add_op(start, end)
        r.named["finish_s"] = (t_end - starts[-1], "s")
        with open(self.out / "split.csv") as fh:
            n_train = sum(1 for line in fh if line.rstrip().endswith(",train"))
        r.records = n_train * len(r.op_s)

    def check(self) -> None:
        from semgrasp import model_io

        r = self.result
        r.attempted += 1
        if self.rc != 0:
            r.failures.append(f"train exited with {self.rc}; see {self.workdir / 'run.log'}")
            return
        acc = float(_read_summary(self.out / "summary.csv")["model_accuracy"])
        r.named["final_test_acc"] = (acc, "ratio")
        if not acc >= TRAIN_ACCURACY_GATE:
            r.failures.append(f"train: final test accuracy {acc} < {TRAIN_ACCURACY_GATE}")
        # every process trains with the same seed, so all must agree
        r.digest("weights", weights_digest(self.out / "model.bin", self.out / "summary.csv"))
        r.bundle_bytes = (self.out / "model.bin").stat().st_size
        r.spec = model_io.load_model(self.out / "model.bin").state.spec


class Eval(Workload):
    """`semgrasp eval` in-process: the fixture bundle on the parts of held-out dataset B."""

    name = "eval"
    inputs = ("heldout", "bundle")

    def setup(self) -> None:
        self.load_bundle_repeatedly()
        self.predictions: dict[int, np.ndarray] = {}  # eval call index -> predicted classes

        def capture(original):
            def predict_batch(*args, **kwargs):
                out = original(*args, **kwargs)
                self.predictions[len(self.runs)] = out[0]
                return out
            return predict_batch

        self.patches.patch("semgrasp.cli.predict_batch", capture)
        self.data = self.fixture.heldout_parts
        self.runs: list[tuple[int, int, Path]] = []  # (part index, exit code, report dir)

    def measure(self) -> None:
        r = self.result
        first = self.offset(len(self.data))
        started = time.perf_counter()
        while not r.op_s or time.perf_counter() - started < self.seconds:
            i = len(self.runs)
            k = (first + i) % len(self.data)
            out = self.workdir / f"eval{i}"
            argv = ["eval", str(self.fixture.model), str(self.data[k]), "--out", str(out)]
            self.gauge.tick()
            t0 = time.perf_counter()
            with self.root("workload.eval"):
                rc = _main(argv, self.workdir / f"eval{i}.log")
            r.add_op(t0, time.perf_counter())
            self.runs.append((k, rc, out))
            if rc == 0:
                r.records += int(np.loadtxt(out / "confusion.csv", delimiter=",").sum())

    def check(self) -> None:
        r = self.result
        hits = 0
        for i, (k, rc, out) in enumerate(self.runs):
            r.attempted += 1
            if rc != 0 or i not in self.predictions:
                r.failures.append(f"eval call {i} exited with {rc}; see {out}.log")
                continue
            acc = float(_read_summary(out / "summary.csv")["accuracy"])
            if not acc >= EVAL_ACCURACY_FLOOR:
                r.failures.append(f"eval call {i}: accuracy {acc} < {EVAL_ACCURACY_FLOOR}")
            preds = np.ascontiguousarray(self.predictions[i], dtype=np.int64)
            confusion = (out / "confusion.csv").read_bytes()
            r.digest(f"part{k}", _sha(preds.tobytes(), confusion))
            hits += int(np.trace(np.loadtxt(out / "confusion.csv", delimiter=",")))
        r.named["eval_accuracy"] = (hits / max(1, r.records), "ratio")


class Predict(Workload):
    """A single-client closed loop of one-record predictions, as `semgrasp predict` runs."""

    name = "predict"
    inputs = ("heldout", "bundle")

    def setup(self) -> None:
        from semgrasp import dataset

        self.bundle = self.load_bundle_repeatedly()
        rows = []
        for part in self.fixture.heldout_parts:
            with open(part / "manifest.csv", newline="") as fh:
                rows += [(part / row["file"], row["label"]) for row in csv.DictReader(fh)]
        order = np.random.default_rng([self.seed, 3]).permutation(len(rows))
        self.requests = [rows[i] for i in order]
        self.placeholder = dataset.LABELS[0]
        # normalized features of each record served, kept for the predict_batch
        # check; allocated up front so memory does not grow with the request count
        nbins = self.bundle.feature_config.nbins
        self.features = np.zeros((len(self.requests), 2, nbins))
        self.served = np.zeros(len(self.requests), dtype=bool)
        self.answers: list[tuple[int, str]] = []  # (request index, label) per request

    def measure(self) -> None:
        from semgrasp import dataset, features, training

        r = self.result
        b = self.bundle
        first = self.offset(len(self.requests))
        started = time.perf_counter()
        while not r.op_s or time.perf_counter() - started < self.seconds:
            i = len(r.op_s)
            k = (first + i) % len(self.requests)
            path = self.requests[k][0]
            self.gauge.tick()
            t0 = time.perf_counter()
            with self.root("workload.request"):
                ch1, ch2 = dataset.read_record_csv(path)
                # the label plays no part in inference, as in `semgrasp predict`
                record = dataset.EmgRecord(channel1=ch1, channel2=ch2,
                                           sample_rate=b.sample_rate, label=self.placeholder)
                record.validate(name=str(path))
                fv = features.extract_features(record, b.feature_config)
                if b.normalizer is not None:
                    fv = features.apply_normalizer(b.normalizer, fv)
                label, probs = training.predict(b.state, fv)
            r.add_op(t0, time.perf_counter())
            self.answers.append((k, label))
            total = float(np.sum(probs))
            if not abs(total - 1.0) <= PROB_SUM_TOLERANCE:
                r.failures.append(f"request {i}: probabilities sum to {total!r}")
            if i < PREDICT_FINGERPRINT_REQUESTS:
                r.digest(f"record{k}", _sha(label.encode(), np.ascontiguousarray(probs).tobytes()))
            if not self.served[k]:
                self.features[k] = (fv.channel1_features, fv.channel2_features)
                self.served[k] = True
        r.records = len(r.op_s)

    def check(self) -> None:
        from semgrasp import dataset, features, training

        r = self.result
        seen = np.flatnonzero(self.served)
        batch = [features.FeatureVector(self.features[k, 0], self.features[k, 1],
                                        self.placeholder) for k in seen]
        preds, _ = training.predict_batch(self.bundle.state, batch)
        batch_label = {int(k): dataset.LABELS[int(p)] for k, p in zip(seen, preds)}
        r.attempted = len(self.answers)
        for i, (k, label) in enumerate(self.answers):
            if label != batch_label[k]:
                r.failures.append(f"request {i}: predict gave {label}, predict_batch {batch_label[k]}")
        hits = sum(label == self.requests[k][1] for k, label in self.answers)
        r.named["predict_accuracy"] = (hits / max(1, len(self.answers)), "ratio")


class Extract(Workload):
    """features.extract_all over in-memory records of dataset A, in chunks; no CSV."""

    name = "extract"
    inputs = ("arrays",)

    def setup(self) -> None:
        from semgrasp import dataset, features, network

        for _ in range(SETUP_REPEATS):
            records = None  # each repeat starts without the previous records alive
            self.gauge.tick()
            t0 = time.perf_counter()
            with self.root("workload.setup"):
                with np.load(self.fixture.arrays, allow_pickle=False) as data:
                    x, labels = data["x"], data["labels"].tolist()
                records = [dataset.EmgRecord(channel1=x[i, 0], channel2=x[i, 1],
                                             sample_rate=SAMPLE_RATE, label=labels[i])
                           for i in range(len(x))]
            self.result.add_setup(t0, time.perf_counter())
        self.config = features.FeatureConfig()
        self.chunks = [records[i:i + EXTRACT_CHUNK] for i in range(0, len(records), EXTRACT_CHUNK)]
        self.nonfinite: list[int] = []
        self.result.spec = network.NetworkSpec(input_bins=self.config.nbins)

    def measure(self) -> None:
        from semgrasp import features

        r = self.result
        first = self.offset(len(self.chunks))
        started = time.perf_counter()
        while not r.op_s or time.perf_counter() - started < self.seconds:
            j = (first + len(r.op_s)) % len(self.chunks)
            self.gauge.tick()
            t0 = time.perf_counter()
            with self.root("workload.extract"):
                feats = features.extract_all(self.chunks[j], self.config)
            r.add_op(t0, time.perf_counter())
            r.records += len(self.chunks[j])
            matrix = np.stack([np.concatenate([f.channel1_features, f.channel2_features])
                               for f in feats])
            if not np.isfinite(matrix).all():
                self.nonfinite.append(len(r.op_s) - 1)
            r.digest(f"chunk{j}", _sha(matrix.tobytes()))

    def check(self) -> None:
        r = self.result
        r.attempted = len(r.op_s)
        for i in self.nonfinite:
            r.failures.append(f"extract call {i}: features hold non-finite values")


WORKLOADS = {w.name: w for w in (Train, Eval, Predict, Extract)}
