import csv
import warnings

import numpy as np
import pytest

from semgrasp.errors import DataError
from semgrasp.metrics import (
    EpochStats,
    accuracy_from_cm,
    confusion_matrix,
    f1_macro,
    f1_weighted,
    precision_recall,
    summarize,
    write_report,
)


def _stats(test_accs, fill=0.5):
    return [EpochStats(fill, fill, fill, a) for a in test_accs]


# ----------------------------------------------------------------- confusion


def test_confusion_perfect_is_diagonal():
    truths = list("CTLHPS") * 3
    cm = confusion_matrix(truths, truths)
    np.testing.assert_array_equal(cm, np.eye(6, dtype=np.int64) * 3)


def test_confusion_single_sample_counts_once():
    cm = confusion_matrix(["C"], ["S"])
    expected = np.zeros((6, 6), dtype=np.int64)
    expected[0, 5] = 1
    np.testing.assert_array_equal(cm, expected)


def test_confusion_accepts_indices_and_labels():
    cm_lab = confusion_matrix(["C", "T"], ["C", "L"])
    cm_idx = confusion_matrix([0, 1], [0, 2])
    np.testing.assert_array_equal(cm_lab, cm_idx)


def test_confusion_270_samples_four_misclassified():
    # 270 balanced test samples with four off-diagonal counts: the
    # near-flawless regime (266/270)
    truths = []
    preds = []
    for k, lab in enumerate("CTLHPS"):
        truths.extend([lab] * 45)
        preds.extend([lab] * 45)
    for i in (0, 50, 100, 200):  # four wrong predictions
        preds[i] = "S" if truths[i] != "S" else "C"
    cm = confusion_matrix(truths, preds)
    assert cm.sum() == 270
    assert np.trace(cm) == 266
    assert accuracy_from_cm(cm) == pytest.approx(266 / 270)


def test_confusion_error_paths():
    with pytest.raises(DataError, match="length mismatch"):
        confusion_matrix(["C"], ["C", "T"])
    with pytest.raises(DataError, match="zero samples"):
        confusion_matrix([], [])
    with pytest.raises(DataError, match="unknown label"):
        confusion_matrix(["Z"], ["C"])


def test_confusion_permutation_equivariance(rng):
    truths = rng.integers(0, 6, 200)
    preds = rng.integers(0, 6, 200)
    cm = confusion_matrix(truths, preds)
    perm = rng.permutation(6)
    cm_perm = confusion_matrix(perm[truths], perm[preds])
    np.testing.assert_array_equal(cm_perm[np.ix_(perm, perm)], cm)


# ---------------------------------------------------------- precision/recall


def test_precision_recall_perfect():
    cm = np.eye(6, dtype=np.int64) * 7
    precision, recall = precision_recall(cm)
    np.testing.assert_array_equal(precision, np.ones(6))
    np.testing.assert_array_equal(recall, np.ones(6))


def test_precision_zero_denominator_is_zero_without_warning():
    cm = np.eye(6, dtype=np.int64)
    cm[0, 0] = 0
    cm[0, 1] = 5  # every class-0 sample lands in column 1: class 0 never predicted
    cm[5, 5] = 0  # class 5 has no true samples and is never predicted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        precision, recall = precision_recall(cm)
    assert precision[0] == 0.0
    assert recall[0] == 0.0
    assert precision[5] == 0.0
    assert recall[5] == 0.0


def test_precision_recall_match_a_per_class_loop():
    # random matrices with many empty rows and columns; the loop is the reference
    rng = np.random.default_rng(2931)
    for _ in range(300):
        cm = rng.integers(0, 20, size=(6, 6))
        cm[rng.random((6, 6)) < rng.random()] = 0
        expected_p, expected_r = np.zeros(6), np.zeros(6)
        for k in range(6):
            if cm[:, k].sum() > 0:
                expected_p[k] = cm[k, k] / cm[:, k].sum()
            if cm[k].sum() > 0:
                expected_r[k] = cm[k, k] / cm[k].sum()
        precision, recall = precision_recall(cm)
        assert np.array_equal(precision, expected_p)
        assert np.array_equal(recall, expected_r)


def test_precision_recall_two_class_hand_case():
    cm = np.array([[8, 2], [3, 7]])
    precision, recall = precision_recall(cm)
    np.testing.assert_allclose(precision, [8 / 11, 7 / 9])
    np.testing.assert_allclose(recall, [0.8, 0.7])


# ------------------------------------------------------------------------ F1


def test_f1_perfect_classifier():
    cm = np.eye(6, dtype=np.int64) * 9
    assert f1_weighted(cm) == 1.0
    assert f1_macro(cm) == 1.0


def test_f1_weighted_two_class_hand_value():
    cm = np.array([[8, 2], [3, 7]])
    p0, r0 = 8 / 11, 0.8
    p1, r1 = 7 / 9, 0.7
    f1_0 = 2 * p0 * r0 / (p0 + r0)
    f1_1 = 2 * p1 * r1 / (p1 + r1)
    expected = (10 * f1_0 + 10 * f1_1) / 20
    assert expected == pytest.approx(0.7494, abs=5e-5)
    assert f1_weighted(cm) == pytest.approx(expected, rel=1e-12)


def test_f1_weighted_balanced_identical_f1_identity(rng):
    # a circulant confusion matrix gives every class the same support and the
    # same per-class F1 f, so the weighted value must equal f exactly
    v = rng.integers(0, 20, size=6)
    v[0] += 1  # keep at least one correct prediction
    cm = np.array([[v[(j - i) % 6] for j in range(6)] for i in range(6)])
    p = v[0] / v.sum()
    f = 2 * p * p / (p + p)  # precision == recall == p for every class
    assert f1_weighted(cm) == pytest.approx(f, abs=1e-12)
    assert f1_macro(cm) == pytest.approx(f, abs=1e-12)


def test_f1_range_on_random_matrices(rng):
    for _ in range(50):
        cm = rng.integers(0, 30, size=(6, 6))
        if cm.sum() == 0:
            continue
        w = f1_weighted(cm)
        assert 0.0 <= w <= 1.0
        assert accuracy_from_cm(cm) == np.trace(cm) / cm.sum()


# ------------------------------------------------------------------- summary


def test_summarize_constant_log():
    cm = np.eye(6, dtype=np.int64)
    report = summarize(_stats([0.8, 0.8, 0.8]), cm)
    assert report.model_accuracy == 0.8
    assert report.max_accuracy == 0.8
    assert report.average_accuracy == pytest.approx(0.8)


def test_summarize_hand_case():
    cm = np.eye(6, dtype=np.int64)
    report = summarize(_stats([0.5, 0.9, 0.8]), cm)
    assert report.model_accuracy == 0.8
    assert report.max_accuracy == 0.9
    assert report.max_accuracy_epoch == 2  # 1-based
    assert report.average_accuracy == pytest.approx(0.73333333333, rel=1e-9)
    assert report.max_accuracy >= report.model_accuracy


def test_summarize_requires_epochs():
    with pytest.raises(DataError, match="empty"):
        summarize([], np.eye(6, dtype=np.int64))


def test_summarize_ties_resolve_to_first_epoch():
    cm = np.eye(6, dtype=np.int64)
    report = summarize(_stats([0.9, 0.7, 0.9]), cm)
    assert report.max_accuracy_epoch == 1


def test_report_round_trip(tmp_path, rng):
    truths = rng.integers(0, 6, 120)
    preds = np.where(rng.random(120) < 0.8, truths, rng.integers(0, 6, 120))
    cm = confusion_matrix(truths, preds)
    log = [
        EpochStats(*rng.random(4))
        for _ in range(25)
    ]
    report = summarize(log, cm)
    write_report(tmp_path, report, reference_accuracy=0.9852)
    epochs = np.loadtxt(tmp_path / "epochs.csv", delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(epochs[:, 0], np.arange(1, 26))
    back_cm = np.loadtxt(tmp_path / "confusion.csv", delimiter=",", dtype=np.int64)
    back = summarize([EpochStats(*row[1:]) for row in epochs], back_cm)
    np.testing.assert_array_equal(back.confusion, report.confusion)
    assert back.epoch_log == report.epoch_log
    assert back.model_accuracy == report.model_accuracy
    assert back.max_accuracy == report.max_accuracy
    assert back.max_accuracy_epoch == report.max_accuracy_epoch
    assert back.average_accuracy == report.average_accuracy
    assert back.f1_weighted == report.f1_weighted
    np.testing.assert_array_equal(back.per_class_precision, report.per_class_precision)
    with open(tmp_path / "summary.csv", newline="") as fh:
        header, values = csv.reader(fh)
    summary = dict(zip(header, values))
    assert float(summary["model_accuracy"]) == report.model_accuracy
    assert float(summary["f1_weighted"]) == report.f1_weighted
    assert int(summary["max_accuracy_epoch"]) == report.max_accuracy_epoch
    assert "reference_accuracy" in summary
    assert "gap_to_reference" in summary
    text = (tmp_path / "summary.txt").read_text()
    assert "model accuracy" in text
    assert "gap to reference" in text
