"""Tests for the average-precision baseline."""

import pytest

from ipdkit.baselines import PrCurvePoint, average_precision, pr_curve
from ipdkit.errors import InputValidationError, UndefinedApError

from helpers import image_labels


def _box(cx, cy, conf=None):
    return (cx, cy, 4.0, 4.0, conf)


class TestAveragePrecision:
    def test_perfect_detector_is_exactly_one(self):
        labels = [
            image_labels("a", [_box(10, 10), _box(30, 30)], [_box(10, 10, 0.9), _box(30, 30, 0.7)]),
            image_labels("b", [_box(50, 50)], [_box(50, 50, 0.8)]),
        ]
        assert average_precision(labels) == 1.0

    def test_no_predictions_is_exactly_zero(self):
        assert average_precision([image_labels("a", [_box(10, 10)])]) == 0.0
        assert average_precision([image_labels("a", [_box(10, 10)]), image_labels("b", [])]) == 0.0

    def test_hand_traced_quarter(self):
        # two GT boxes; the higher-confidence prediction misses entirely,
        # the lower-confidence one is perfect. PR points are (0, 0) then
        # (0.5, 0.5); the interpolated area is 0.5 * 0.5.
        gt = [_box(10, 10), _box(60, 60)]
        pred = [_box(200, 200, 0.9), _box(10, 10, 0.5)]
        assert average_precision([image_labels("a", gt, pred)]) == 0.25

    def test_no_gt_raises(self):
        with pytest.raises(UndefinedApError):
            average_precision([])
        with pytest.raises(UndefinedApError):
            average_precision([image_labels("a", [], [_box(1, 1, 0.5)])])

    def test_invariant_under_monotone_confidence_rescaling(self):
        gt = [_box(10, 10), _box(30, 30), _box(60, 60)]
        pred = [_box(10, 10, 0.9), _box(90, 90, 0.8), _box(30, 30, 0.6), _box(61, 60, 0.3)]
        base = average_precision([image_labels("a", gt, pred)])
        squashed = [(cx, cy, w, h, conf**3) for cx, cy, w, h, conf in pred]
        assert average_precision([image_labels("a", gt, squashed)]) == base

    def test_duplicate_detection_counts_as_false_positive(self):
        # both predictions cover the single GT box; only the first (by
        # confidence) may claim it
        labels = [
            image_labels(
                "a",
                [_box(10, 10), _box(60, 60)],
                [_box(10, 10, 0.9), _box(10, 10, 0.8), _box(60, 60, 0.7)],
            )
        ]
        curve = pr_curve(labels)
        assert [p.precision for p in curve] == [1.0, 0.5, pytest.approx(2.0 / 3.0)]
        assert average_precision(labels) == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0))

    def test_prediction_cannot_claim_gt_of_another_image(self):
        labels = [image_labels("a", [_box(10, 10)]), image_labels("b", [], [_box(10, 10, 0.9)])]
        assert average_precision(labels) == 0.0

    def test_iou_exactly_at_threshold_counts(self):
        # half-overlapping boxes: IOU = 1/3
        labels = [image_labels("a", [(0.0, 0.0, 2.0, 2.0)], [(1.0, 0.0, 2.0, 2.0, 0.9)])]
        third = 1.0 / 3.0
        assert average_precision(labels, iou_threshold=third) == 1.0
        assert average_precision(labels, iou_threshold=third + 1e-9) == 0.0

    def test_rejects_bad_threshold(self):
        labels = [image_labels("a", [_box(1, 1)])]
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(InputValidationError):
                average_precision(labels, iou_threshold=bad)


class TestPrCurve:
    def test_descending_confidence_and_monotone_recall(self):
        labels = [
            image_labels(
                "a",
                [_box(10, 10), _box(30, 30)],
                [_box(30, 30, 0.4), _box(10, 10, 0.8), _box(90, 90, 0.6)],
            )
        ]
        curve = pr_curve(labels)
        confs = [p.confidence for p in curve]
        assert confs == sorted(confs, reverse=True)
        recalls = [p.recall for p in curve]
        assert recalls == sorted(recalls)
        assert len(curve) == 3

    def test_empty_predictions_give_empty_curve(self):
        assert pr_curve([image_labels("a", [_box(1, 1)])]) == []

    def test_point_validation(self):
        with pytest.raises(InputValidationError):
            PrCurvePoint(recall=1.2, precision=0.5, confidence=0.5)
