"""Per-module metrics of a traced run, and computed per-layer network costs.

Every metric in PER_LAYER is reported on every traced run. A module a
workload never calls reports 0 (no calls, no time); README.md lists which
end-to-end metric each one should move on which workload.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import Tracer

PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.read_record_ms": "ms",
    "dataset.records": "count",
    "dataset.bytes_read": "B",
    "dataset.split_ms": "ms",
    "burg.fit_ms": "ms",
    "burg.psd_ms": "ms",
    "burg.calls": "count",
    "features.extract_self_ms": "ms",
    "features.normalize_ms": "ms",
    "features.degenerate": "count",
    "network.forward_ms.train": "ms",
    "network.forward_ms.eval": "ms",
    "network.forward_ms.predict": "ms",
    "network.backward_ms": "ms",
    "network.forward_calls": "count",
    "network.backward_calls": "count",
    **{f"network.{layer}.{kind}": unit
       for layer in ("conv0", "conv1", "dense", "head")
       for kind, unit in (("fwd_flops", "flop"), ("bwd_flops", "flop"), ("bytes", "B"))},
    "training.step_ms": "ms",
    "training.update_ms": "ms",
    "training.eval_s": "s",
    "training.eval_share": "ratio",
    "training.steps": "count",
    "model_io.save_ms": "ms",
    "model_io.load_ms": "ms",
    "model_io.bundle_bytes": "B",
    "metrics.report_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}

# which forward passes count as which regime, by the span that called them
_FORWARD_REGIME = {
    "network.loss_and_gradients": "train",   # batch 32
    "training.evaluate": "eval",             # chunks of 256
    "training.predict_batch": "eval",
    "training.predict": "predict",           # batch 1
}


def _median(values, scale: float = 1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def network_costs(spec) -> dict[str, float]:
    """Per-record flops and bytes of each layer, computed from the spec.

    Both channel stacks are counted. Bytes are float64 weights, inputs,
    outputs and (for convolutions) the im2col matrix written and read once,
    at batch 1; they are computed from shapes, not measured.
    """
    out = {}
    length, streams = spec.input_bins, 1
    for i, cs in enumerate(spec.conv_layers[:2]):
        out_len = (length - cs.kernel) // cs.stride + 1
        macs = out_len * cs.filters * cs.kernel * streams
        params = cs.filters * (cs.kernel * streams + 1)
        elems = params + length * streams + out_len * cs.filters + 2 * out_len * cs.kernel * streams
        # conv0 needs no input gradient, so its backward is the weight gradient only
        out[f"network.conv{i}.fwd_flops"] = 2 * 2 * macs
        out[f"network.conv{i}.bwd_flops"] = 2 * 2 * macs * (2 if i > 0 else 1)
        out[f"network.conv{i}.bytes"] = 2 * 8 * elems
        length, streams = out_len, cs.filters
    flat = spec.flat_dim()
    out["network.dense.fwd_flops"] = 2 * 2 * flat * spec.dense_units
    out["network.dense.bwd_flops"] = 2 * 2 * 2 * flat * spec.dense_units
    out["network.dense.bytes"] = 2 * 8 * ((flat + 1) * spec.dense_units + flat + spec.dense_units)
    fused = 2 * spec.dense_units
    out["network.head.fwd_flops"] = 2 * fused * spec.n_classes
    out["network.head.bwd_flops"] = 2 * 2 * fused * spec.n_classes
    out["network.head.bytes"] = 8 * ((fused + 1) * spec.n_classes + fused + spec.n_classes)
    return out


def layer_metrics(tracer: Tracer, spec, bundle_bytes: int, overhead_pct: float) -> dict:
    spans = tracer.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def durations(name):
        return [s.duration for s in by_name[name]]

    m = {
        "dataset.load_s": _median(durations("dataset.load_dataset")),
        "dataset.read_record_ms": _median(durations("dataset.read_record_csv"), 1e3),
        "dataset.records": len(by_name["dataset.read_record_csv"]),
        "dataset.bytes_read": sum(s.attrs["bytes"] for s in by_name["dataset.read_record_csv"]),
        "dataset.split_ms": _median(durations("dataset.split_by_labels"), 1e3),
        "burg.fit_ms": _median(durations("burg.burg_fit"), 1e3),
        "burg.psd_ms": _median(durations("burg.psd_from_model"), 1e3),
        "burg.calls": len(by_name["burg.burg_fit"]),
        "features.extract_self_ms": _median(
            [s.self_time for s in by_name["features.extract_features"]], 1e3),
        "features.normalize_ms": _median(durations("features.apply_normalizer"), 1e3),
        "features.degenerate": sum(
            1 for s in by_name["burg.burg_fit"]
            if (s.attrs or {}).get("error") == "DegenerateSignalError"),
        "network.backward_ms": _median(durations("network.backward"), 1e3),
        "network.forward_calls": len(by_name["network.forward"]),
        "network.backward_calls": len(by_name["network.backward"]),
        "model_io.save_ms": _median(durations("model_io.save_model"), 1e3),
        "model_io.load_ms": _median(durations("model_io.load_model"), 1e3),
        "model_io.bundle_bytes": bundle_bytes,
        "trace.overhead_pct": overhead_pct,
    }
    regimes = defaultdict(list)
    for s in by_name["network.forward"]:
        caller = spans[s.parent].name if s.parent is not None else None
        regimes[_FORWARD_REGIME.get(caller, "other")].append(s.duration)
    for regime in ("train", "eval", "predict"):
        m[f"network.forward_ms.{regime}"] = _median(regimes[regime], 1e3)

    # epochs after the warm-up one; self time of an epoch is its update work
    epochs = [(i, s) for i, s in enumerate(spans)
              if s.name == "training.epoch" and s.attrs["epoch"] > 1]
    steps = [s.duration for s in by_name["network.loss_and_gradients"]]
    update_ms, eval_s, eval_share = [], [], []
    for i, s in epochs:
        kids = children[i]
        n_steps = sum(1 for k in kids if k.name == "network.loss_and_gradients")
        ev = sum(k.duration for k in kids if k.name == "training.evaluate")
        update_ms.append(1e3 * s.self_time / max(1, n_steps))
        eval_s.append(ev)
        eval_share.append(ev / s.duration)
    m["training.step_ms"] = _median(steps, 1e3)
    m["training.update_ms"] = _median(update_ms)
    m["training.eval_s"] = _median(eval_s)
    m["training.eval_share"] = _median(eval_share)
    m["training.steps"] = len(steps)

    # the timed operations: top-level spans other than the setup repeats
    ops = [s for s in spans if s.parent is None and s.name != "workload.setup"]
    report_s = sum(s.duration for s in spans if s.name.startswith("metrics."))
    m["metrics.report_ms"] = 1e3 * report_s / len(ops) if ops else 0.0
    wall = sum(s.duration for s in ops)
    m["trace.coverage"] = sum(s.children_s for s in ops) / wall if wall else 0.0
    m.update(network_costs(spec))
    return {name: m[name] for name in PER_LAYER}
