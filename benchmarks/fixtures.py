"""Benchmark inputs: two synthetic sEMG datasets and a model bundle per seed.

The benchmark makes its own inputs rather than calling
``semgrasp.generate_synthetic``: a later change to the package's generator
must not change what the benchmark measures. The recipe is the same six-class
family (one AR(2) resonator per class and channel, plus a pure tone on two
classes), vectorised over records so a dataset-scale set takes a fraction of
a second instead of seconds.

One fixture directory per (scale, seed) holds up to four components, each
built only when a workload first needs it:

    train/      interchange dataset A (stream [seed, 1]), read by `train`
    arrays/     dataset A as arrays (train.npz), read by `extract`
    heldout/    interchange dataset B (stream [seed, 2]) as HELDOUT_PARTS
                datasets partK (record i goes to part i % HELDOUT_PARTS, so
                each part keeps every class), read by `eval` and `predict`
    bundle/     model.bin, trained on A with the default configuration;
                the model `eval` and `predict` serve
    <component>.json   content hash of the component and its build time

Writing a dataset-scale CSV set takes about 5 s, so building only what a
workload reads keeps a run's wall time close to its measured time. Each
component is built in a child process (so generation never shows in the
measuring process's memory or caches), written to a temporary directory and
renamed into place, and verified against its content hash before each use.

Run as a script to build every component of one fixture:
    python3 benchmarks/fixtures.py --cache .bench/fixtures --scale full --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import env

SAMPLE_RATE = 500.0
LABELS = ("C", "T", "L", "H", "P", "S")
_BURN_IN = 256
# label -> (ch1 resonance Hz, ch2 resonance Hz, pole radius, tone or None);
# tone = (channel index, frequency Hz, amplitude)
_RECIPES = {
    "C": (35.0, 65.0, 0.90, None),
    "T": (60.0, 95.0, 0.92, None),
    "L": (85.0, 125.0, 0.90, None),
    "H": (110.0, 155.0, 0.92, None),
    "P": (135.0, 185.0, 0.90, (0, 210.0, 1.5)),
    "S": (160.0, 215.0, 0.92, (1, 30.0, 1.5)),
}
# A fixture directory stays usable after this many newer ones were used.
_KEEP_FIXTURES = 12
# `eval` evaluates one part per call: several calls per run give a steadier
# median than one or two calls over all of B.
HELDOUT_PARTS = 3
COMPONENTS = ("train", "arrays", "heldout", "bundle")


@dataclass(frozen=True)
class Scale:
    n_per_class: int
    length: int
    bundle_epochs: int


SCALES = {
    # the shape of the two-channel sEMG set the converter targets: 900 records
    "full": Scale(n_per_class=150, length=3000, bundle_epochs=3),
    "smoke": Scale(n_per_class=30, length=512, bundle_epochs=10),
}


@dataclass(frozen=True)
class Fixture:
    root: Path
    generate_s: float  # build time of the components this run uses
    sha256: str        # over the content hashes of those components

    @property
    def train_dir(self) -> Path:
        return self.root / "train"

    @property
    def heldout_parts(self) -> list[Path]:
        return [self.root / "heldout" / f"part{k}" for k in range(HELDOUT_PARTS)]

    @property
    def arrays(self) -> Path:
        return self.root / "arrays" / "train.npz"

    @property
    def model(self) -> Path:
        return self.root / "bundle" / "model.bin"


def synthesize(n_per_class: int, length: int, rng: np.random.Generator):
    """Records as x[n, 2, length] with labels, subjects and sessions per record."""
    n = n_per_class * len(LABELS)
    labels = [lab for lab in LABELS for _ in range(n_per_class)]
    freq = np.array([[_RECIPES[lab][0], _RECIPES[lab][1]] for lab in labels])
    radius = np.array([_RECIPES[lab][2] for lab in labels])[:, None]
    c1 = 2.0 * radius * np.cos(2.0 * math.pi * freq / SAMPLE_RATE)
    c2 = np.broadcast_to(-radius * radius, c1.shape)
    w = rng.standard_normal((length + _BURN_IN, n, 2))
    x = np.empty_like(w)
    x[0] = w[0]
    x[1] = w[1] + c1 * x[0]
    for t in range(2, len(w)):
        x[t] = w[t] + c1 * x[t - 1] + c2 * x[t - 2]
    x = np.ascontiguousarray(x[_BURN_IN:].transpose(1, 2, 0))
    t = np.arange(length) / SAMPLE_RATE
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
    for i, lab in enumerate(labels):
        tone = _RECIPES[lab][3]
        if tone is not None:
            ch, hz, amp = tone
            x[i, ch] += amp * np.sin(2.0 * math.pi * hz * t + phases[i])
    subjects = [f"s{i % n_per_class % 5 + 1}" for i in range(n)]
    sessions = [f"d{i % n_per_class % 3 + 1}" for i in range(n)]
    return x, labels, subjects, sessions


def write_interchange(root: Path, x: np.ndarray, labels, subjects, sessions) -> None:
    """Write the interchange layout: manifest.csv plus one ch1,ch2 CSV per record."""
    root.mkdir(parents=True)
    rows = ["file,label,subject,session,sample_rate"]
    for i, rec in enumerate(x):
        name = f"rec{i:05d}.csv"
        # repr is the shortest text that round-trips, as the package writes it
        text = "".join(f"{a!r},{b!r}\n" for a, b in zip(rec[0].tolist(), rec[1].tolist()))
        (root / name).write_text(text)
        rows.append(f"{name},{labels[i]},{subjects[i]},{sessions[i]},{SAMPLE_RATE!r}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")


def content_hash(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def train_bundle(path: Path, x: np.ndarray, labels: list[str], epochs: int, seed: int) -> None:
    """Train and save the fixture model on dataset A in memory.

    The steps and defaults of `semgrasp train` without its CSV load:
    extraction, the stratified 70/30 split, z-score normalisation fitted on
    the training part, and `epochs` epochs of the default network.
    """
    import semgrasp
    from semgrasp.dataset import split_by_labels

    fcfg = semgrasp.FeatureConfig()
    records = [semgrasp.EmgRecord(channel1=x[i, 0], channel2=x[i, 1], sample_rate=SAMPLE_RATE,
                                  label=lab) for i, lab in enumerate(labels)]
    feats = semgrasp.extract_all(records, fcfg)
    plan = split_by_labels(labels, 0.7, seed)
    normalizer = semgrasp.fit_normalizer([feats[i] for i in plan.train_indices],
                                         fitted_on=f"A:seed={seed}")
    train_feats = [semgrasp.apply_normalizer(normalizer, feats[i]) for i in plan.train_indices]
    test_feats = [semgrasp.apply_normalizer(normalizer, feats[i]) for i in plan.test_indices]
    state, _ = semgrasp.train(semgrasp.NetworkSpec(input_bins=fcfg.nbins), train_feats,
                              test_feats, semgrasp.TrainConfig(epochs=epochs, seed=seed))
    path.parent.mkdir(parents=True)
    semgrasp.save_model(path, semgrasp.ModelBundle(state=state, feature_config=fcfg,
                                                   normalizer=normalizer,
                                                   sample_rate=SAMPLE_RATE, dataset_name="A"))


def build(into: Path, component: str, scale: Scale, seed: int) -> None:
    """Build one component into the directory `into`, which must not exist."""
    stream = 2 if component == "heldout" else 1
    rng = np.random.default_rng([seed, stream])
    x, labels, subjects, sessions = synthesize(scale.n_per_class, scale.length, rng)
    if component == "train":
        write_interchange(into, x, labels, subjects, sessions)
    elif component == "arrays":
        into.mkdir(parents=True)
        np.savez(into / "train.npz", x=x, labels=np.array(labels))
    elif component == "heldout":
        for k in range(HELDOUT_PARTS):
            part = slice(k, None, HELDOUT_PARTS)
            write_interchange(into / f"part{k}", x[part], labels[part],
                              subjects[part], sessions[part])
    else:
        train_bundle(into / "model.bin", x, labels, scale.bundle_epochs, seed)


def _component(root: Path, name: str, scale_name: str, seed: int, verify: bool) -> dict:
    """The component's {generate_s, sha256}, building it first if needed."""
    path, meta_path = root / name, root / f"{name}.json"
    if not meta_path.is_file():
        tmp = root / f".{name}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--scale", scale_name,
               "--seed", str(seed), "--component", name, "--into", str(tmp)]
        started = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              env=env.pinned(os.environ))
        if done.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"building fixture {root.name}/{name} failed:\n{done.stderr}")
        meta = {"generate_s": time.perf_counter() - started, "sha256": content_hash(tmp)}
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        return meta
    meta = json.loads(meta_path.read_text())
    if verify and content_hash(path) != meta["sha256"]:
        raise RuntimeError(f"fixture {path} does not match its content hash; delete it to rebuild")
    return meta


def ensure(cache: Path, scale_name: str, seed: int, components=COMPONENTS,
           verify: bool = True) -> Fixture:
    """Return the fixture for (scale, seed), building the named components first if needed.

    With verify (the default) each component already on disk is checked
    against its content hash, and a mismatch raises RuntimeError; a run
    verifies once and passes verify=False to its worker processes.
    """
    root = cache / f"{scale_name}-seed{seed}"
    root.mkdir(parents=True, exist_ok=True)
    metas = {name: _component(root, name, scale_name, seed, verify) for name in sorted(components)}
    os.utime(root)
    _evict(cache, keep=root)
    return Fixture(
        root=root,
        generate_s=sum(m["generate_s"] for m in metas.values()),
        sha256=hashlib.sha256("".join(f"{k}={m['sha256']};" for k, m in metas.items())
                              .encode()).hexdigest(),
    )


def _evict(cache: Path, keep: Path) -> None:
    dirs = sorted((d for d in cache.iterdir() if d.is_dir() and d != keep),
                  key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in dirs[_KEEP_FIXTURES - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", type=Path, help="the fixture cache to fill")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--component", choices=COMPONENTS, help=argparse.SUPPRESS)
    parser.add_argument("--into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.into is not None and args.component is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        build(args.into, args.component, SCALES[args.scale], args.seed)
        return 0
    if args.cache is None:
        parser.error("--cache is required")
    fx = ensure(args.cache, args.scale, args.seed)
    print(f"{fx.root}  sha256 {fx.sha256}  generated in {fx.generate_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
