import csv
import io

import numpy as np
import pytest

from leafnet import metrics as MET
from leafnet.errors import ConfigError
from reference_data import (REFERENCE_ACCURACY, REFERENCE_ROWS,
                            REFERENCE_TOTAL_SUPPORT)

PERFECT_REPORT = (
    "             precision    recall  f1-score  support\n"
    "\n"
    "     healthy      1.00      1.00      1.00        2\n"
    "        rust      1.00      1.00      1.00        2\n"
    "\n"
    "    accuracy                          1.00        4\n"
    "   macro avg      1.00      1.00      1.00        4\n"
    "weighted avg      1.00      1.00      1.00        4\n"
)

PERFECT_CSV = "healthy,rust\nhealthy,2,0\nrust,0,2\n"


def brute_force_prf(preds, labels, k, cls):
    tp = sum(1 for p, t in zip(preds, labels) if p == cls and t == cls)
    fp = sum(1 for p, t in zip(preds, labels) if p == cls and t != cls)
    fn = sum(1 for p, t in zip(preds, labels) if p != cls and t == cls)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        labels = [0, 1, 2, 0, 1, 2]
        cm = MET.confusion_matrix(labels, labels, 3)
        assert np.trace(cm.counts) == 6
        assert cm.counts.sum() == 6

    def test_hand_counted(self):
        cm = MET.confusion_matrix([1, 0], [0, 0], 2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 0]])

    def test_random_pairs_match_tally_oracle(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 5, 500).tolist()
        labels = rng.integers(0, 5, 500).tolist()
        cm = MET.confusion_matrix(preds, labels, 5)
        tally = np.zeros((5, 5), dtype=int)
        for p, t in zip(preds, labels):
            tally[t][p] += 1
        np.testing.assert_array_equal(cm.counts, tally)
        assert cm.total == 500

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            MET.confusion_matrix([0, 3], [0, 0], 2)

    def test_row_sums_are_support(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, 200).tolist()
        preds = rng.integers(0, 4, 200).tolist()
        cm = MET.confusion_matrix(preds, labels, 4)
        for k in range(4):
            assert cm.support(k) == labels.count(k)


class TestAccuracy:
    def test_all_diagonal(self):
        cm = MET.confusion_matrix([0, 1], [0, 1], 2)
        assert MET.accuracy(cm) == 1.0

    def test_half_right(self):
        cm = MET.ConfusionMatrix(np.array([[1, 1], [1, 1]]), ["a", "b"])
        assert MET.accuracy(cm) == 0.5

    def test_empty_rejected(self):
        cm = MET.ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ["a", "b"])
        with pytest.raises(ConfigError):
            MET.accuracy(cm)


class TestPerClassPrf:
    def test_reference_row_apple_scab(self):
        p, r = 0.99, 0.93
        f1 = 2 * p * r / (p + r)
        assert abs(f1 - 0.959) < 5e-4
        assert MET.round_half_up(f1) == 0.96

    def test_reference_row_septoria(self):
        p, r = 0.98, 0.76
        f1 = 2 * p * r / (p + r)
        assert abs(f1 - 0.856) < 5e-4

    def test_absent_class_zero_convention(self):
        cm = MET.confusion_matrix([0, 0], [0, 0], 3)
        assert MET.per_class_prf(cm, 2) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 5, 300).tolist()
        labels = rng.integers(0, 5, 300).tolist()
        cm = MET.confusion_matrix(preds, labels, 5)
        for k in range(5):
            expected = brute_force_prf(preds, labels, 5, k)
            got = MET.per_class_prf(cm, k)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(9)
        preds = rng.integers(0, 6, 400).tolist()
        labels = rng.integers(0, 6, 400).tolist()
        cm = MET.confusion_matrix(preds, labels, 6)
        for k in range(6):
            p, r, f1 = MET.per_class_prf(cm, k)
            expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
            assert abs(f1 - expected) < 1e-12


class TestAggregates:
    def test_perfect_classifier_all_ones(self):
        cm = MET.confusion_matrix([0, 1, 2], [0, 1, 2], 3)
        macro, weighted, acc = MET.aggregates(cm)
        assert macro == (1.0, 1.0, 1.0)
        assert weighted == (1.0, 1.0, 1.0)
        assert acc == 1.0

    def test_two_class_hand_tally(self):
        # cm [[8,2],[3,7]]: rebuild the 20 samples and tally by hand
        preds = [0] * 8 + [1] * 2 + [0] * 3 + [1] * 7
        labels = [0] * 10 + [1] * 10
        cm = MET.confusion_matrix(preds, labels, 2)
        np.testing.assert_array_equal(cm.counts, [[8, 2], [3, 7]])
        macro, weighted, acc = MET.aggregates(cm)
        p0, r0, f0 = brute_force_prf(preds, labels, 2, 0)
        p1, r1, f1 = brute_force_prf(preds, labels, 2, 1)
        np.testing.assert_allclose(macro, [(p0 + p1) / 2, (r0 + r1) / 2, (f0 + f1) / 2])
        np.testing.assert_allclose(weighted, [(p0 + p1) / 2, (r0 + r1) / 2, (f0 + f1) / 2])
        assert acc == 15 / 20

    def test_reference_weighted_averages_round_to_published(self):
        total = sum(s for *_, s in REFERENCE_ROWS)
        assert total == REFERENCE_TOTAL_SUPPORT
        wp = sum(p * s for _, p, _, _, s in REFERENCE_ROWS) / total
        wr = sum(r * s for _, _, r, _, s in REFERENCE_ROWS) / total
        wf = sum(f * s for _, _, _, f, s in REFERENCE_ROWS) / total
        assert (MET.round_half_up(wp), MET.round_half_up(wr),
                MET.round_half_up(wf)) == (0.96, 0.96, 0.96)

    @pytest.mark.parametrize("seed", range(4))
    def test_micro_identity_property(self, seed):
        """Micro precision == micro recall == accuracy for any matrix."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 30, (4, 4)).astype(np.int64)
        counts[0, 0] += 1  # ensure non-empty
        cm = MET.ConfusionMatrix(counts, [f"c{i}" for i in range(4)])
        tp_total = float(np.trace(counts))
        micro_p = tp_total / counts.sum()
        micro_r = tp_total / counts.sum()
        assert abs(micro_p - MET.accuracy(cm)) < 1e-12
        assert abs(micro_r - MET.accuracy(cm)) < 1e-12
        # per-class TP+FP partitions the prediction total
        tp_fp = sum(counts[:, k].sum() for k in range(4))
        assert tp_fp == counts.sum()


class TestReferenceReportConsistency:
    """The published per-class rows verify our formulas, once the two-decimal
    quantization of the printed inputs is accounted for."""

    def test_f1_consistent_with_rounded_inputs(self):
        for name, p, r, f, _ in REFERENCE_ROWS:
            lo_p, lo_r = max(p - 0.005, 0.0), max(r - 0.005, 0.0)
            hi_p, hi_r = min(p + 0.005, 1.0), min(r + 0.005, 1.0)
            f_lo = 2 * lo_p * lo_r / (lo_p + lo_r) if lo_p + lo_r else 0.0
            f_hi = 2 * hi_p * hi_r / (hi_p + hi_r)
            assert MET.round_half_up(f_lo) - 1e-9 <= f <= MET.round_half_up(f_hi) + 1e-9, name

    def test_f1_recomputed_within_one_printed_ulp(self):
        off_by_one = 0
        for name, p, r, f, _ in REFERENCE_ROWS:
            recomputed = MET.round_half_up(2 * p * r / (p + r))
            assert abs(recomputed - f) <= 0.01 + 1e-9, name
            off_by_one += abs(recomputed - f) > 1e-9
        assert off_by_one <= 5  # quantization artifacts only

    def test_rerendered_rows_match_published_columns(self):
        names = [row[0] for row in REFERENCE_ROWS]
        report = MET.ClassReport(
            class_names=names,
            precision=[row[1] for row in REFERENCE_ROWS],
            recall=[row[2] for row in REFERENCE_ROWS],
            f1=[row[3] for row in REFERENCE_ROWS],
            support=[row[4] for row in REFERENCE_ROWS],
            accuracy=REFERENCE_ACCURACY,
            macro=(0.96, 0.96, 0.96),
            weighted=(0.96, 0.96, 0.96),
            total_support=REFERENCE_TOTAL_SUPPORT,
        )
        text = MET.format_report(report)
        lines = text.splitlines()
        scab = next(l for l in lines if l.strip().startswith("Apple__Apple_scab"))
        assert scab.split()[-4:] == ["0.99", "0.93", "0.96", "504"]
        septoria = next(l for l in lines if "Septoria" in l)
        assert septoria.split()[-4:] == ["0.98", "0.76", "0.85", "436"]
        assert any(l.split() == ["accuracy", "0.96", "17572"] for l in lines)
        assert any(l.split()[:2] == ["macro", "avg"] for l in lines)
        assert any(l.split()[:2] == ["weighted", "avg"] for l in lines)


class TestFormatReport:
    def test_perfect_two_class_golden(self):
        cm = MET.confusion_matrix([0, 0, 1, 1], [0, 0, 1, 1], ["healthy", "rust"])
        assert MET.format_report(MET.class_report(cm)) == PERFECT_REPORT

    def test_empty_class_renders_zeros_with_footer(self):
        cm = MET.confusion_matrix([0, 0], [0, 0], ["a", "b"])
        text = MET.format_report(MET.class_report(cm))
        line_b = next(l for l in text.splitlines() if l.strip().startswith("b"))
        assert line_b.split() == ["b", "0.00", "0.00", "0.00", "0"]
        assert "0/0 metrics reported as 0.00" in text

    def test_column_header_order(self):
        cm = MET.confusion_matrix([0], [0], 2)
        header = MET.format_report(MET.class_report(cm)).splitlines()[0]
        assert header.split() == ["precision", "recall", "f1-score", "support"]


class TestCsv:
    def test_two_class_golden(self):
        cm = MET.confusion_matrix([0, 0, 1, 1], [0, 0, 1, 1], ["healthy", "rust"])
        assert MET.cm_to_csv(cm) == PERFECT_CSV
        assert len(PERFECT_CSV.strip().split("\n")) == 3

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 9, (3, 3)).astype(np.int64)
        cm = MET.ConfusionMatrix(counts, ["x", "y", "z"])
        names, rows = read_csv(MET.cm_to_csv(cm))
        assert names == ["x", "y", "z"]
        assert [r[0] for r in rows] == names
        np.testing.assert_array_equal([[int(v) for v in r[1:]] for r in rows], counts)

    def test_round_trip_with_commas_in_names(self):
        names = ["Pepper,_bell__Bacterial_spot", "Pepper,_bell__healthy"]
        cm = MET.ConfusionMatrix(np.array([[3, 1], [0, 4]], dtype=np.int64), names)
        header, rows = read_csv(MET.cm_to_csv(cm))
        assert header == names
        assert rows == [[names[0], "3", "1"], [names[1], "0", "4"]]

    def test_38_zero_matrix_line_count(self):
        names = [f"c{i:02d}" for i in range(38)]
        cm = MET.ConfusionMatrix(np.zeros((38, 38), dtype=np.int64), names)
        text = MET.cm_to_csv(cm)
        assert len(text.strip().split("\n")) == 39
        header, rows = read_csv(text)
        assert header == names
        assert all(r[1:] == ["0"] * 38 for r in rows)


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of a confusion-matrix CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]
