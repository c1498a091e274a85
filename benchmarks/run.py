"""semgrasp benchmark: one workload per run, end-to-end or traced per module.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, in turn

Run it from anywhere inside a checkout: it measures the package under
../src, never an installed copy. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-module ones. Everything else (environment, fixture, fingerprints, the
workload's own metric names, span self times) is printed above it and kept
under .bench/runs/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import env
from spans import MissingEntryPoint
from speed import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".bench"
WORKLOAD_NAMES = ("train", "eval", "predict", "extract")
# A run is split into this many worker processes, run one after another, each
# measuring its share of --seconds. Pooling their samples averages out what
# differs between processes (memory layout, string hashing, the core a
# process lands on); on `train` it also gives setup_s more than one sample.
PROCESSES = 2

# Times are reported at the reference speed of speed.py: each one scaled by
# REFERENCE_S / (the reference time measured around it), which cancels the
# shared machine's changes of speed. Measured times are printed above the
# result line.
END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
}
# what one timed operation is, and the workload's own name for its metrics
OPS = {
    "train": ("epoch", "train_records_per_s", "epoch_s", 1.0),
    "eval": ("`semgrasp eval` call", "eval_records_per_s", "eval_call_s", 1.0),
    "predict": ("request", "predict_records_per_s", "predict_ms", 1e3),
    "extract": ("extract_all call", "extract_records_per_s", "extract_call_ms", 1e3),
}


class BenchError(Exception):
    """A run that cannot produce a result; reported without a result line."""


def percentile_tail(values: list[float]) -> tuple[int, float]:
    """(p, value) for the highest percentile with at least ten samples above it.

    Below 20 samples no percentile above the median qualifies, so the tail
    is the median.
    """
    import numpy as np

    n = len(values)
    pct = max(50, math.floor(100 * (1 - 10 / n)))
    return pct, float(np.percentile(values, pct))


def import_package():
    """Import semgrasp from this checkout's src/ and resolve every entry point."""
    src = ROOT / "src"
    if not (src / "semgrasp" / "__init__.py").is_file():
        raise BenchError(f"semgrasp sources not found under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import semgrasp
    from spans import resolve
    from workloads import CALLS, TRACED

    if Path(semgrasp.__file__).resolve().parent != (src / "semgrasp").resolve():
        raise BenchError(f"imported semgrasp from {semgrasp.__file__}, not from {src}")
    for dotted in CALLS + TRACED:
        resolve(dotted)


def run_pass(args, fixture, workdir: Path, part: int, traced: bool):
    """One process's share: setup + measure with entry points patched, then check."""
    from spans import Patches, Tracer
    from speed import Gauge
    from workloads import SPAN_ATTRS, TRACED, WORKLOADS

    workdir.mkdir(parents=True)
    tracer = Tracer() if traced else None
    gauge = Gauge(active=not traced)
    with Patches() as patches:
        if traced:
            for dotted in TRACED:
                tracer.wrap(patches, dotted, SPAN_ATTRS.get(dotted))
        wl = WORKLOADS[args.workload](fixture, args.seed, args.seconds / PROCESSES, part,
                                      PROCESSES, workdir, patches, tracer, gauge)
        wl.setup()
        wl.measure()
    gauge.tick(force=True)  # a sample after the last operation
    r = wl.result
    r.setup_ref_s = gauge.around(r.setup_at, r.setup_s)
    r.op_ref_s = gauge.around(r.op_at, r.op_s)
    r.ref_s = gauge.samples
    r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check()
    return r, tracer


def run_worker(args, fixture, workdir: Path) -> dict:
    """Body of a worker process: its Result as JSON, plus its own peak memory."""
    r, _ = run_pass(args, fixture, workdir / f"process{args.worker}", args.worker, traced=False)
    return {
        "setup_s": r.setup_s, "op_s": r.op_s, "setup_ref_s": r.setup_ref_s,
        "op_ref_s": r.op_ref_s, "ref_s": r.ref_s, "records": r.records,
        "attempted": r.attempted, "failures": r.failures,
        "digests": {k: sorted(v) for k, v in r.digests.items()},
        "named": r.named,
        "peak_rss_mb": r.peak_rss_mb,
    }


def run_processes(args):
    """Run the workload's share in PROCESSES worker processes, one after another; pool them."""
    from workloads import Result

    pooled = Result()
    named: dict[str, list] = {}
    for k in range(PROCESSES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale, "--worker", str(k)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise BenchError(f"worker process {k} failed with exit code {done.returncode}")
        w = json.loads(done.stdout.strip().splitlines()[-1])
        pooled.setup_s += w["setup_s"]
        pooled.op_s += w["op_s"]
        pooled.setup_ref_s += w["setup_ref_s"]
        pooled.op_ref_s += w["op_ref_s"]
        pooled.ref_s += w["ref_s"]
        pooled.records += w["records"]
        pooled.attempted += w["attempted"]
        pooled.failures += w["failures"]
        for key, digests in w["digests"].items():
            pooled.digests.setdefault(key, set()).update(digests)
        for key, (value, unit) in w["named"].items():
            named.setdefault(key, [0.0, unit])[0] += value / PROCESSES
        pooled.peak_rss_mb = max(pooled.peak_rss_mb, w["peak_rss_mb"])
    pooled.named = {k: tuple(v) for k, v in named.items()}
    for key, digests in sorted(pooled.digests.items()):
        if len(digests) > 1:
            pooled.failures.append(f"output {key} differs between repetitions or processes")
    return pooled


def end_to_end(name: str, r) -> tuple[dict, list[str]]:
    """The BENCHMARK.json metrics of one run, and the lines naming them per workload."""
    import numpy as np

    op, rate_name, lat_name, lat_scale = OPS[name]
    if not r.op_s:
        raise BenchError("no operation completed: " + "; ".join(r.failures[:3]))
    if len(r.op_ref_s) != len(r.op_s) or len(r.setup_ref_s) != len(r.setup_s):
        raise BenchError("the speed gauge took no sample")
    ref = float(np.median(r.op_ref_s))
    op_ref = np.asarray(r.op_s) * REFERENCE_S / np.asarray(r.op_ref_s)
    setup_ref = float(np.median(np.asarray(r.setup_s) * REFERENCE_S / np.asarray(r.setup_ref_s)))
    pct, tail = percentile_tail(r.op_s)
    p50, p90 = (float(v) for v in np.percentile(r.op_s, [50, 90]))
    ref_pct = {q: float(np.percentile(op_ref, q)) for q in (50, 90, pct)}
    setup = float(np.median(r.setup_s))
    metrics = {
        "setup_s": setup_ref,
        "op_ms.p50": 1e3 * ref_pct[50],
        "peak_rss_mb": r.peak_rss_mb,
    }
    lat_unit = "s" if lat_scale == 1.0 else "ms"
    n = len(r.op_s)
    lines = [
        f"speed                 reference computation {1e3 * ref:.6g} ms around the median "
        f"operation, {1e3 * REFERENCE_S:.6g} ms at reference speed",
        f"setup_s               {setup:.6g} s measured, {metrics['setup_s']:.6g} s at reference "
        f"speed  (median of {len(r.setup_s)})",
        f"{rate_name:<21} {r.records / sum(r.op_s):.6g} records/s measured  "
        f"({r.records} records in {sum(r.op_s):.3f} s)",
    ]
    for label, q, value in (("p50", 50, p50), ("p90", 90, p90), ("tail", pct, tail)):
        lines.append(f"{lat_name + '.' + label:<21} {value * lat_scale:.6g} {lat_unit} measured, "
                     f"{ref_pct[q] * lat_scale:.6g} {lat_unit} at reference speed  "
                     f"(p{q} per {op}, n={n})")
    lines.append(f"peak_rss_mb           {metrics['peak_rss_mb']:.6g} MB  "
                 f"(highest of {PROCESSES} processes)")
    for key, (value, unit) in r.named.items():
        lines.append(f"{key:<21} {value:.6g} {unit}")
    return metrics, lines


def run_one(args) -> dict:
    import numpy as np

    import fixtures
    from layers import PER_LAYER, layer_metrics
    from workloads import WORKLOADS, fingerprint

    import_package()
    environment = env.describe()
    workdir = BENCH_DIR / "runs" / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    inputs = WORKLOADS[args.workload].inputs
    if args.worker is not None:
        fixture = fixtures.ensure(BENCH_DIR / "fixtures", args.scale, args.seed, inputs,
                                  verify=False)
        return run_worker(args, fixture, workdir)
    fixture = fixtures.ensure(BENCH_DIR / "fixtures", args.scale, args.seed, inputs)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    print(f"semgrasp benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, scale {args.scale}")
    e = environment
    print(f"environment: python {e['python']}, numpy {e['numpy']}, BLAS {e['blas']}, "
          f"{e['threads']} thread(s) {e['thread_env']}, nproc {e['nproc']}, {e['cpu']}")
    print(f"fixture: {fixture.root.relative_to(ROOT)} sha256 {fixture.sha256[:16]} "
          f"(generated in {fixture.generate_s:.2f} s, outside setup_s)")

    if args.trace:
        # one process: an untraced share as the reference, then the same share traced
        plain, _ = run_pass(args, fixture, workdir / "untraced", 0, traced=False)
        result, tracer = run_pass(args, fixture, workdir / "traced", 0, traced=True)
        result.failures += plain.failures
        result.attempted += plain.attempted
        for key, digests in plain.digests.items():
            result.digests.setdefault(key, set()).update(digests)
        overhead = 100.0 * (np.median(result.op_s) / np.median(plain.op_s) - 1.0)
        metrics = layer_metrics(tracer, result.spec, result.bundle_bytes, overhead)
        tracer.dump(workdir / "spans.json")
        lines = [f"{name:<28} {value:.6g} {PER_LAYER[name]}" for name, value in metrics.items()]
        lines.append("self time per span (s):  calls  total  self")
        for name, row in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<32} {row['calls']:>7} {row['total_s']:9.4f} {row['self_s']:9.4f}")
        units = PER_LAYER
    else:
        result = run_processes(args)
        metrics, lines = end_to_end(args.workload, result)
        units = END_TO_END

    for line in lines:
        print(line)
    print(f"fingerprint: {fingerprint(result.digests)}")
    failures = result.failures
    print(f"fail_ratio            {len(failures) / max(1, result.attempted):.6g}  "
          f"({len(failures)} of {result.attempted} checked outputs failed)")
    for f in failures:
        print(f"FAILED: {f}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "processes": PROCESSES,
        "environment": environment,
        "fixture": {"path": str(fixture.root.relative_to(ROOT)), "sha256": fixture.sha256,
                    "generate_s": fixture.generate_s},
        "fingerprint": fingerprint(result.digests), "failures": failures,
        "setup_s": result.setup_s, "op_s": result.op_s,
        "setup_ref_s": result.setup_ref_s, "op_ref_s": result.op_ref_s, "ref_s": result.ref_s,
        "named": {k: v[0] for k, v in result.named.items()}, "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return {
        "correct": not failures,
        "attempted": result.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        if done.returncode != 0:
            print("\n".join(lines))
            raise BenchError(f"workload {name} failed with exit code {done.returncode}")
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny dataset for the benchmark's own tests")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    # pinned before anything imports numpy
    os.environ.update(env.pinned(os.environ))
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, MissingEntryPoint) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    except Exception:  # any other failure: a traceback and no result line
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
