"""Classification metrics and run reports.

Conventions: confusion rows are true classes, columns are predictions;
precision/recall (and per-class F1) with an empty denominator are reported
as 0; weighted F1 weights per-class F1 by true-class support.
"Model accuracy" is the test accuracy of the last epoch, "max accuracy" the
peak across epochs (1-based epoch index), "average accuracy" the mean over
epochs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import LABELS, _fmt, label_to_index
from .errors import DataError


class EpochStats(NamedTuple):
    """One epoch of training, as one row of epochs.csv.

    train_loss and train_acc come from the epoch's own steps: the mean of the
    batch losses weighted by their row counts, and the fraction of training
    rows the batches classified correctly, each batch forwarded once with the
    weights it started from. test_loss and test_acc evaluate the full test
    set with the weights at the end of the epoch.
    """

    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float


def _to_index(label) -> int:
    return label_to_index(label) if isinstance(label, str) else int(label)


def confusion_matrix(truths: Sequence, preds: Sequence) -> np.ndarray:
    """counts[t][p] = number of samples with true class t predicted as p.

    Accepts label characters or class indices.
    """
    if len(truths) != len(preds):
        raise DataError(f"length mismatch: {len(truths)} truths vs {len(preds)} predictions")
    if len(truths) == 0:
        raise DataError("cannot build a confusion matrix from zero samples")
    cm = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for t, p in zip(truths, preds):
        ti, pi = _to_index(t), _to_index(p)
        if not (0 <= ti < len(LABELS) and 0 <= pi < len(LABELS)):
            raise DataError(f"class index out of range: true={ti}, pred={pi}")
        cm[ti, pi] += 1
    return cm


def accuracy_from_cm(cm: np.ndarray) -> float:
    return float(np.trace(cm)) / float(cm.sum())


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def precision_recall(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class precision (column-wise) and recall (row-wise); 0 where a denominator is 0."""
    return _ratio(np.diag(cm), np.sum(cm, axis=0)), _ratio(np.diag(cm), np.sum(cm, axis=1))


def _per_class_f1(cm: np.ndarray) -> np.ndarray:
    precision, recall = precision_recall(cm)
    return _ratio(2.0 * precision * recall, precision + recall)


def f1_weighted(cm: np.ndarray) -> float:
    """Per-class F1 averaged with true-class supports as weights."""
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise DataError("confusion matrix holds no samples")
    supports = cm.sum(axis=1)
    return float((supports * _per_class_f1(cm)).sum() / total)


def f1_macro(cm: np.ndarray) -> float:
    return float(_per_class_f1(cm).mean())


@dataclass(eq=False)
class EvalReport:
    confusion: np.ndarray
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    f1_weighted: float
    f1_macro: float
    epoch_log: list[EpochStats]
    model_accuracy: float
    max_accuracy: float
    max_accuracy_epoch: int  # 1-based
    average_accuracy: float


def summarize(epoch_log: list[EpochStats], final_confusion: np.ndarray) -> EvalReport:
    """Collapse an epoch log plus the final test confusion into a report."""
    if not epoch_log:
        raise DataError("epoch log is empty")
    test_accs = np.array([e.test_acc for e in epoch_log])
    best = int(np.argmax(test_accs))
    precision, recall = precision_recall(final_confusion)
    return EvalReport(
        confusion=np.asarray(final_confusion),
        per_class_precision=precision,
        per_class_recall=recall,
        f1_weighted=f1_weighted(final_confusion),
        f1_macro=f1_macro(final_confusion),
        epoch_log=list(epoch_log),
        model_accuracy=float(test_accs[-1]),
        max_accuracy=float(test_accs[best]),
        max_accuracy_epoch=best + 1,
        average_accuracy=float(test_accs.mean()),
    )


def write_report(
    outdir: str | Path, report: EvalReport, reference_accuracy: float | None = None
) -> None:
    """Write epochs.csv, confusion.csv, summary.csv and summary.txt.

    A reference accuracy to compare against adds the summary columns
    reference_accuracy and gap_to_reference.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with open(outdir / "epochs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "train_acc", "test_loss", "test_acc"])
        for i, e in enumerate(report.epoch_log, start=1):
            writer.writerow(
                [i, _fmt(e.train_loss), _fmt(e.train_acc), _fmt(e.test_loss), _fmt(e.test_acc)]
            )

    write_confusion(outdir / "confusion.csv", report.confusion)

    columns = {
        "model_accuracy": report.model_accuracy,
        "max_accuracy": report.max_accuracy,
        "max_accuracy_epoch": report.max_accuracy_epoch,
        "average_accuracy": report.average_accuracy,
        "f1_weighted": report.f1_weighted,
        "f1_macro": report.f1_macro,
    }
    if reference_accuracy is not None:
        columns["reference_accuracy"] = reference_accuracy
        columns["gap_to_reference"] = reference_accuracy - report.model_accuracy
    write_summary_csv(outdir / "summary.csv", columns)

    with open(outdir / "summary.txt", "w") as fh:
        fh.write(format_report(report, reference_accuracy))


def format_report(report: EvalReport, reference_accuracy: float | None = None) -> str:
    lines = [
        f"samples evaluated:  {int(report.confusion.sum())}",
        f"model accuracy:     {report.model_accuracy:.6f}",
        f"max accuracy:       {report.max_accuracy:.6f} (epoch {report.max_accuracy_epoch})",
        f"average accuracy:   {report.average_accuracy:.6f}",
        f"weighted F1:        {report.f1_weighted:.6f}",
        f"macro F1:           {report.f1_macro:.6f}",
    ]
    if reference_accuracy is not None:
        gap = reference_accuracy - report.model_accuracy
        lines.append(f"reference accuracy: {reference_accuracy:.6f}")
        lines.append(f"gap to reference:   {gap:+.6f}")
    prec = " ".join(f"{LABELS[k]}={v:.4f}" for k, v in enumerate(report.per_class_precision))
    rec = " ".join(f"{LABELS[k]}={v:.4f}" for k, v in enumerate(report.per_class_recall))
    lines.append(f"precision per class: {prec}")
    lines.append(f"recall per class:    {rec}")
    lines.append("confusion matrix (rows=true, cols=predicted):")
    header = "      " + " ".join(f"{lab:>5}" for lab in LABELS)
    lines.append(header)
    for k, row in enumerate(report.confusion):
        lines.append(f"{LABELS[k]:>5} " + " ".join(f"{int(v):>5}" for v in row))
    return "\n".join(lines) + "\n"


def write_summary_csv(path: str | Path, columns: dict) -> None:
    """One header row of column names, one row of values; floats in round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerow([_fmt(v) if isinstance(v, float) else str(v) for v in columns.values()])


def write_confusion(path: str | Path, cm: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(cm):
            writer.writerow([int(v) for v in row])
