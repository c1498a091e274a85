"""Acceptance gate: each criterion runs at a fixed tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import csv
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import ar_realization, fd_gradient_check, grid_search_reflection, random_stable_ar

from semgrasp.burg import burg_fit, compute_reflection, init_state, psd_from_model, update_prediction_errors
from semgrasp.cli import main
from semgrasp.dataset import LABELS, generate_synthetic, split_by_labels, write_dataset
from semgrasp.metrics import accuracy_from_cm, f1_weighted
from semgrasp.network import ConvSpec, NetworkSpec, init_network


@contextmanager
def criterion(n, desc):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL  {desc} ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {n}] PASS  {desc} ({time.time() - start:.1f}s)")


def test_criterion_1_burg_grid_oracle_equivalence():
    with criterion(1, "reflection coefficients match 1e5-point grid search within 2e-5"):
        start = time.time()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(8, 33)))
            state = init_state(x)
            for _ in range(3):
                r = compute_reflection(state)
                r_grid = grid_search_reflection(state.forward_errors, state.backward_errors)
                assert abs(r - r_grid) <= 2e-5
                state = update_prediction_errors(state, r)
        assert time.time() - start < 60.0


def test_criterion_2_ar2_coefficient_recovery():
    with criterion(2, "order-2 fit recovers AR(2) coefficients, mean abs error < 0.05"):
        radii = (0.85, 0.90, 0.95)
        angles = (np.pi / 6, np.pi / 4, np.pi / 3)
        errs = []
        for seed in range(10):
            radius = radii[seed % 3]
            angle = angles[seed // 4]
            a_true = [-2.0 * radius * np.cos(angle), radius * radius]
            x = ar_realization(a_true, n=8192, seed=seed)
            model = burg_fit(x, 2, 500.0)
            errs.append(np.abs(np.array(model.ar_coeffs) - a_true).mean())
        assert np.mean(errs) < 0.05


def test_criterion_3_psd_variance_consistency():
    with criterion(3, "two-sided spectral integral matches realization variance within 10%"):
        rng = np.random.default_rng(5150)
        for trial in range(10):
            a = random_stable_ar(rng)
            x = ar_realization(a, n=400000, seed=trial + 100)
            model = burg_fit(x, len(a), 500.0)
            psd = psd_from_model(model, 512)
            integral = 2.0 * np.trapezoid(psd.power, psd.frequencies)
            assert abs(integral - np.var(x)) <= 0.10 * np.var(x)


def test_criterion_4_gradient_checks_twenty_seeds():
    with criterion(4, "analytic gradients match central differences (h=1e-5) within 1e-4"):
        spec = NetworkSpec(input_bins=8, conv_layers=[ConvSpec(2, 3, 1)], dense_units=4)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = init_network(spec, rng)
            x1 = rng.standard_normal((3, 8))
            x2 = rng.standard_normal((3, 8))
            y = rng.integers(0, 6, size=3)
            assert fd_gradient_check(state, np.stack([x1, x2], axis=1), y, h=1e-5) < 1e-4


def test_criterion_5_end_to_end_synthetic(tmp_path):
    with criterion(5, "full pipeline on synthetic data: >=95% test accuracy, bit-identical reruns"):
        start = time.time()
        data = tmp_path / "synth"
        write_dataset(generate_synthetic(30, 512, seed=11), data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(data), "seed": 11}))

        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0

        with open(out_a / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        summary = dict(zip(rows[0], rows[1]))
        assert float(summary["model_accuracy"]) >= 0.95

        sa = (out_a / "summary.csv").read_bytes()
        sb = (out_b / "summary.csv").read_bytes()
        assert sa == sb
        assert time.time() - start < 600.0


@pytest.mark.skipif(
    "SEMGRASP_UCI_DATA" not in os.environ,
    reason="set SEMGRASP_UCI_DATA to a converted two-channel dataset directory",
)
def test_criterion_6_real_data_benchmark(tmp_path):
    with criterion(6, "real data: model accuracy >= 0.90, max accuracy >= 0.93, gap reported"):
        data = os.environ["SEMGRASP_UCI_DATA"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"dataset": data, "seed": 20, "reference_accuracy": 0.9852})
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        summary = dict(zip(rows[0], rows[1]))
        assert float(summary["model_accuracy"]) >= 0.90
        assert float(summary["max_accuracy"]) >= 0.93
        assert "gap_to_reference" in summary


def test_criterion_7_metric_identities():
    with criterion(7, "accuracy == trace/total, weighted F1 in [0,1], circulant identity"):
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            cm = rng.integers(0, 25, size=(6, 6))
            if cm.sum() == 0:
                cm[0, 0] = 1
            assert accuracy_from_cm(cm) == np.trace(cm) / cm.sum()
            assert 0.0 <= f1_weighted(cm) <= 1.0
            # balanced classes with identical per-class F1: circulant layout
            v = rng.integers(0, 25, size=6)
            v[0] += 1
            circ = np.array([[v[(j - i) % 6] for j in range(6)] for i in range(6)])
            f_class = v[0] / v.sum()  # precision == recall == per-class F1
            assert abs(f1_weighted(circ) - f_class) <= 1e-12


def test_criterion_8_split_arithmetic():
    with criterion(8, "stratified split: 900 -> 630/270 and 1800 -> 1260/540"):
        for per_class, want_train, want_test in ((150, 630, 270), (300, 1260, 540)):
            labels = [lab for lab in LABELS for _ in range(per_class)]
            plan = split_by_labels(labels, 0.7, seed=1)
            assert len(plan.train_indices) == want_train
            assert len(plan.test_indices) == want_test
            assert not set(plan.train_indices) & set(plan.test_indices)
