"""Single-class average precision, the aggregate metric IPD is contrasted
with.

The input is one ImageLabels per image. Predictions are ranked by
confidence across all images; each one greedily claims the highest-IOU
still-unclaimed GT box of its own image (subject to the IOU threshold).
AP integrates the monotone envelope of the resulting precision-recall
curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputValidationError, UndefinedApError
from .geometry import iou_table
from .ingestion import ImageLabels
from .metric import check_unit_range


@dataclass(frozen=True)
class PrCurvePoint:
    """Precision/recall after consuming all predictions down to
    `confidence`."""

    recall: float
    precision: float
    confidence: float

    def __post_init__(self):
        for name in ("recall", "precision", "confidence"):
            check_unit_range(name, getattr(self, name))


def _greedy_outcomes(
    labels: Sequence[ImageLabels], iou_threshold: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (tp flags, confidences) in global rank order plus the GT
    total."""
    total_gt = sum(len(image.gt) for image in labels)
    if total_gt == 0:
        raise UndefinedApError("average precision is undefined without GT boxes")
    counts = [len(image.pred) for image in labels]
    # every prediction in image order, then file order; the stable sort
    # keeps that order among equal confidences
    confs = np.concatenate([image.pred[:, 4] for image in labels])
    image_of = np.repeat(np.arange(len(labels)), counts).tolist()
    col_of = np.concatenate([np.arange(k) for k in counts]).tolist()
    order = np.argsort(-confs, kind="stable")

    # claimed GT rows are zeroed, which no threshold in (0, 1) accepts
    tables = [iou_table(image.gt, image.pred[:, :4]) for image in labels]
    tp = np.zeros(len(confs), dtype=bool)
    for rank, idx in enumerate(order.tolist()):
        table = tables[image_of[idx]]
        ious = table[:, col_of[idx]]
        if ious.size and ious.max() >= iou_threshold:
            # argmax takes the first maximum, so ties go to the lowest GT index
            table[ious.argmax()] = 0.0
            tp[rank] = True
    return tp, confs[order], total_gt


def _curve(
    labels: Sequence[ImageLabels], iou_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recall, precision and confidence after each prediction, in
    descending-confidence order."""
    if not 0.0 < iou_threshold < 1.0:
        raise InputValidationError("iou_threshold must lie in (0, 1)")
    tp, confs, total_gt = _greedy_outcomes(labels, iou_threshold)
    cum_tp = np.cumsum(tp)
    return cum_tp / total_gt, cum_tp / np.arange(1, tp.size + 1), confs


def pr_curve(labels: Sequence[ImageLabels], iou_threshold: float = 0.5) -> list[PrCurvePoint]:
    """One point per prediction, in descending-confidence order."""
    rows = zip(*(column.tolist() for column in _curve(labels, iou_threshold)))
    return [PrCurvePoint(*row) for row in rows]


def average_precision(labels: Sequence[ImageLabels], iou_threshold: float = 0.5) -> float:
    """Area under the monotone-envelope precision-recall curve; 0 without
    predictions."""
    recall, precision, _ = _curve(labels, iou_threshold)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))
