"""Confusion matrix and per-class precision/recall/F1 reporting.

Accuracy is trace/total (the multiclass reduction of (TP+TN)/(TP+TN+FP+FN));
per-class metrics are one-vs-rest with the 0/0 -> 0 convention. Reports
print half-up to two decimals; internal values are never rounded.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray          # [K, K] int64, rows = true class, cols = predicted
    class_names: list[str]

    @property
    def k(self) -> int:
        return len(self.class_names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self, k: int) -> int:
        return int(self.counts[k].sum())


@dataclass
class ClassReport:
    class_names: list[str]
    precision: list[float]
    recall: list[float]
    f1: list[float]
    support: list[int]
    accuracy: float
    macro: tuple[float, float, float]
    weighted: tuple[float, float, float]
    total_support: int
    zero_division_count: int = 0  # classes where some metric was 0/0


def confusion_matrix(preds: Sequence[int], labels: Sequence[int],
                     classes: int | Sequence[str]) -> ConfusionMatrix:
    names = ([f"class_{i}" for i in range(classes)] if isinstance(classes, int)
             else list(classes))
    k = len(names)
    if len(preds) != len(labels):
        raise ConfigError(f"preds ({len(preds)}) and labels ({len(labels)}) differ in length")
    counts = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(preds, labels):
        if not (0 <= p < k and 0 <= t < k):
            raise ConfigError(f"class id out of range [0, {k}): pred {p}, label {t}")
        counts[t, p] += 1
    return ConfusionMatrix(counts, names)


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total
    if total == 0:
        raise ConfigError("confusion matrix is empty")
    return float(np.trace(cm.counts)) / total


def per_class_prf(cm: ConfusionMatrix, k: int) -> tuple[float, float, float]:
    """One-vs-rest precision, recall, F1 for class k; 0/0 counts as 0."""
    if not 0 <= k < cm.k:
        raise ConfigError(f"class {k} out of range [0, {cm.k})")
    tp = float(cm.counts[k, k])
    fp = float(cm.counts[:, k].sum()) - tp
    fn = float(cm.counts[k, :].sum()) - tp
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def aggregates(cm: ConfusionMatrix) -> tuple[tuple[float, float, float],
                                             tuple[float, float, float], float]:
    """(macro P/R/F1, support-weighted P/R/F1, accuracy) of class_report(cm)."""
    report = class_report(cm)
    return report.macro, report.weighted, report.accuracy


def class_report(cm: ConfusionMatrix) -> ClassReport:
    """Per-class scores and supports, computed once; the macro and weighted
    averages and the accuracy derive from them."""
    per = [per_class_prf(cm, k) for k in range(cm.k)]
    supports = [cm.support(k) for k in range(cm.k)]
    total = sum(supports)
    if total == 0:
        raise ConfigError("confusion matrix is empty")
    macro = tuple(sum(row[i] for row in per) / cm.k for i in range(3))
    weighted = tuple(sum(row[i] * s for row, s in zip(per, supports)) / total
                     for i in range(3))
    predicted = cm.counts.sum(axis=0)
    zero_division = sum(1 for k in range(cm.k)
                        if supports[k] == 0 or predicted[k] == 0)
    return ClassReport(
        class_names=list(cm.class_names),
        precision=[p for p, _, _ in per],
        recall=[r for _, r, _ in per],
        f1=[f for _, _, f in per],
        support=supports,
        accuracy=accuracy(cm),
        macro=macro,
        weighted=weighted,
        total_support=total,
        zero_division_count=zero_division,
    )


def round_half_up(x: float) -> float:
    return math.floor(x * 100 + 0.5) / 100


def format_report(report: ClassReport) -> str:
    """Per-class rows in label order, then accuracy / macro avg / weighted avg."""
    name_w = max(len("weighted avg"), *(len(n) for n in report.class_names))
    col_w = 10
    sup_w = max(len("support"), len(str(report.total_support))) + 2

    def fmt(x: float) -> str:
        return f"{round_half_up(x):.2f}"

    def line(name: str, p: str, r: str, f: str, s: str) -> str:
        return (f"{name:>{name_w}}{p:>{col_w}}{r:>{col_w}}{f:>{col_w}}{s:>{sup_w}}")

    lines = [line("", "precision", "recall", "f1-score", "support"), ""]
    for k, name in enumerate(report.class_names):
        lines.append(line(name, fmt(report.precision[k]), fmt(report.recall[k]),
                          fmt(report.f1[k]), str(report.support[k])))
    lines.append("")
    lines.append(line("accuracy", "", "", fmt(report.accuracy), str(report.total_support)))
    lines.append(line("macro avg", *(fmt(v) for v in report.macro),
                      str(report.total_support)))
    lines.append(line("weighted avg", *(fmt(v) for v in report.weighted),
                      str(report.total_support)))
    if report.zero_division_count:
        lines.append("")
        lines.append("note: 0/0 metrics reported as 0.00 for "
                      f"{report.zero_division_count} class(es)")
    return "\n".join(lines) + "\n"


def cm_to_csv(cm: ConfusionMatrix) -> str:
    """Header of class names, then one row per true class: name + K counts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cm.class_names)
    for k, name in enumerate(cm.class_names):
        writer.writerow([name] + [int(v) for v in cm.counts[k]])
    return buf.getvalue()
