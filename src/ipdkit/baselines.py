"""Single-class average precision, the aggregate metric IPD is contrasted
with.

Predictions are ranked by confidence across all images; each one greedily
claims the highest-IOU still-unclaimed GT box of its image (subject to
the IOU threshold). AP integrates the monotone envelope of the resulting
precision-recall curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputValidationError, UndefinedApError
from .geometry import BBox, boxes_to_array, iou_table


@dataclass(frozen=True)
class PrCurvePoint:
    """Precision/recall after consuming all predictions down to
    `confidence`."""

    recall: float
    precision: float
    confidence: float

    def __post_init__(self):
        for name in ("recall", "precision", "confidence"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise InputValidationError(f"{name} must lie in [0, 1], got {v!r}")


def _greedy_outcomes(
    gt_by_image: Mapping[str, Sequence[BBox]],
    pred_by_image: Mapping[str, Sequence[BBox]],
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (tp flags, confidences) in global rank order plus the GT
    total."""
    total_gt = sum(len(boxes) for boxes in gt_by_image.values())
    if total_gt == 0:
        raise UndefinedApError("average precision is undefined without GT boxes")

    flat: list[tuple[str, int, float]] = []
    for image_id, boxes in pred_by_image.items():
        for col, b in enumerate(boxes):
            if b.confidence is None:
                raise InputValidationError(
                    f"prediction without confidence in image {image_id!r}"
                )
            flat.append((image_id, col, b.confidence))
    if not flat:
        return np.zeros(0, dtype=bool), np.zeros(0), total_gt

    confs = np.array([c for _, _, c in flat])
    order = np.argsort(-confs, kind="stable")

    # claimed GT rows are zeroed, which no threshold in (0, 1) accepts
    tables = {
        image_id: iou_table(boxes_to_array(gt_by_image.get(image_id, ())), boxes_to_array(boxes))
        for image_id, boxes in pred_by_image.items()
    }
    tp = np.zeros(len(flat), dtype=bool)
    for rank, idx in enumerate(order):
        image_id, col, _ = flat[idx]
        ious = tables[image_id][:, col]
        if ious.size and ious.max() >= iou_threshold:
            # argmax takes the first maximum, so ties go to the lowest GT index
            tables[image_id][ious.argmax()] = 0.0
            tp[rank] = True
    return tp, confs[order], total_gt


def pr_curve(
    gt_by_image: Mapping[str, Sequence[BBox]],
    pred_by_image: Mapping[str, Sequence[BBox]],
    iou_threshold: float = 0.5,
) -> list[PrCurvePoint]:
    """One point per prediction, in descending-confidence order."""
    if not 0.0 < iou_threshold < 1.0:
        raise InputValidationError("iou_threshold must lie in (0, 1)")
    tp, confs, total_gt = _greedy_outcomes(gt_by_image, pred_by_image, iou_threshold)
    if tp.size == 0:
        return []
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, tp.size + 1)
    return [
        PrCurvePoint(
            recall=float(cum_tp[i] / total_gt),
            precision=float(cum_tp[i] / ranks[i]),
            confidence=float(confs[i]),
        )
        for i in range(tp.size)
    ]


def average_precision(
    gt_by_image: Mapping[str, Sequence[BBox]],
    pred_by_image: Mapping[str, Sequence[BBox]],
    iou_threshold: float = 0.5,
) -> float:
    """Area under the monotone-envelope precision-recall curve."""
    if not 0.0 < iou_threshold < 1.0:
        raise InputValidationError("iou_threshold must lie in (0, 1)")
    tp, _, total_gt = _greedy_outcomes(gt_by_image, pred_by_image, iou_threshold)
    if tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / total_gt
    precision = cum_tp / np.arange(1, tp.size + 1)

    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))
