"""Axis-aligned boxes, 2D points and affine transforms.

Everything downstream (registration, matching, the performance metric)
is built on these few types and pure functions. Boxes are stored as
center/width/height in one consistent coordinate unit, as the rows of an
(n, 4) cx, cy, w, h array; iou_rows is the one IOU kernel on them.
iou_table runs it on every GT/prediction pair, for the AP baseline;
best_iou, each GT box's performance value, runs it only on the pairs
whose boxes overlap along x, and is equal to the table's row maximum. BBox
and the scalar iou, one box at a time, are the reference the tests check
the kernel against and the form the benchmark's dataset builder takes.
box_rule_error and its row form box_rule_mask alone state the box rules.
Points are always (n, 2) float64 arrays, and apply_params is the one
implementation of the affine map p -> Ap + t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputValidationError

# Relative determinant threshold under which a 3-point sample counts as
# collinear. Scaled by the squared extent of the source triple so the
# test is invariant to the coordinate unit.
DEGENERACY_RTOL = 1e-9


def _require_finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InputValidationError(f"{name} must be finite, got {value!r}")
    return v


def box_rule_error(
    cx: float, cy: float, w: float, h: float, confidence: float | None = None
) -> str | None:
    """The first box rule a box of these floats breaks, worded, or None:
    finite cx, cy, w and h, positive sides, a finite confidence in [0, 1]
    when there is one, and a positive and finite area, in that order."""
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not math.isfinite(value):
            return f"{name} must be finite, got {value!r}"
    if w <= 0 or h <= 0:
        return f"box sides must be positive, got w={w}, h={h}"
    if confidence is not None and not math.isfinite(confidence):
        return f"confidence must be finite, got {confidence!r}"
    if confidence is not None and not 0.0 <= confidence <= 1.0:
        return f"confidence must be in [0,1], got {confidence}"
    # last, so that a box breaking another rule is worded by that rule
    if not 0.0 < w * h < math.inf:
        return f"box area must be positive and finite, got w={w}, h={h}"
    return None


def box_rule_mask(xywh: np.ndarray, confidence: np.ndarray, given: np.ndarray) -> np.ndarray:
    """The rows box_rule_error refuses, as an (n,) bool mask, of an (n, 4)
    cx, cy, w, h array and (n,) confidences, judged only where given: an
    (n,) bool mask, or one bool for every row."""
    with np.errstate(over="ignore", invalid="ignore"):  # an area of inf or inf * 0 is refused
        area = xywh[:, 2] * xywh[:, 3]
    bad = ~np.isfinite(xywh).all(axis=1) | (xywh[:, 2] <= 0.0) | (xywh[:, 3] <= 0.0)
    bad |= given & ~((confidence >= 0.0) & (confidence <= 1.0))
    bad |= ~((area > 0.0) & (area < math.inf))
    return bad


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, center/width/height, optional detection confidence."""

    cx: float
    cy: float
    w: float
    h: float
    confidence: float | None = None

    def __post_init__(self):
        # coerce to plain python floats so equality, serialization and the
        # error messages do not depend on the caller's numeric types
        for name in ("cx", "cy", "w", "h"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.confidence is not None:
            object.__setattr__(self, "confidence", float(self.confidence))
        if error := box_rule_error(self.cx, self.cy, self.w, self.h, self.confidence):
            raise InputValidationError(error)

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) with x1 < x2 and y1 < y2."""
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)


@dataclass(frozen=True)
class AffineTransform2D:
    """Row-major 2x3 affine map p -> A @ p + t."""

    a11: float
    a12: float
    a21: float
    a22: float
    tx: float
    ty: float

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22", "tx", "ty"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    @classmethod
    def identity(cls) -> "AffineTransform2D":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @classmethod
    def translation(cls, tx: float, ty: float) -> "AffineTransform2D":
        return cls(1.0, 0.0, 0.0, 1.0, tx, ty)

    @classmethod
    def from_params(cls, params: Sequence[float]) -> "AffineTransform2D":
        a11, a12, a21, a22, tx, ty = (float(p) for p in params)
        return cls(a11, a12, a21, a22, tx, ty)

    def params(self) -> tuple[float, float, float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22, self.tx, self.ty)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two axis-aligned boxes, in [0, 1].

    Boxes that only touch along an edge or corner have zero intersection
    area and therefore IOU 0. The result is clamped to [0, 1]: the corners
    cx -/+ w/2 can round so that the intersection exceeds the union by an
    ulp when the boxes are identical, and past the union's sign for a box
    of a few ulps. A 0 / 0 NaN passes the clamp unchanged. Where the two
    areas sum past the float range, the ratio is taken of halved terms.
    """
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union == math.inf:  # halving each term is exact for normal floats
        inter, union = inter / 2.0, a.area / 2.0 + b.area / 2.0 - inter / 2.0
    return min(max(inter / union, 0.0), 1.0)


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IOU of the cx, cy, w, h rows of two broadcastable (..., 4) arrays,
    elementwise.

    Runs iou's float operations in iou's order, clamp included, so each
    value equals iou on the BBoxes of the two rows exactly.
    """
    a_half, b_half = a[..., 2:] / 2.0, b[..., 2:] / 2.0
    lo = np.maximum(a[..., :2] - a_half, b[..., :2] - b_half)
    hi = np.minimum(a[..., :2] + a_half, b[..., :2] + b_half)
    iw, ih = hi[..., 0] - lo[..., 0], hi[..., 1] - lo[..., 1]
    a_area, b_area = a[..., 2] * a[..., 3], b[..., 2] * b[..., 3]
    # only products np.where discards, and area sums halved below, overflow
    with np.errstate(over="ignore"):
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        union = a_area + b_area - inter
    halve = union == math.inf
    if halve.any():
        union = np.where(halve, a_area / 2.0 + b_area / 2.0 - inter / 2.0, union)
        inter = np.where(halve, inter / 2.0, inter)
    return np.clip(inter / union, 0.0, 1.0)


def iou_table(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """IOU of every GT box (rows) against every predicted box (columns),
    from (n, 4) and (m, 4) cx, cy, w, h arrays; either may be empty."""
    return iou_rows(gt[:, None, :], pred[None, :, :])


def best_iou(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Each GT row's largest IOU over the predicted rows, 0 when none
    overlaps: iou_table(gt, pred).max(axis=1, initial=0.0), bit for bit,
    from (n, 4) and (m, 4) cx, cy, w, h arrays; either may be empty.

    Only candidate pairs, whose x extents overlap strictly, go through
    iou_rows. Any other pair has hi <= lo along x under iou_rows' own
    corners, so its intersection is 0 and its IOU is 0 / (area sum):
    0.0, which cannot raise a maximum that starts at 0.0, unless both
    areas underflow to 0. Those pairs score NaN, and join the candidates.
    """
    with np.errstate(over="ignore"):  # iou_rows warns of the overflows it meets
        gt_lo, gt_hi = gt[:, 0] - gt[:, 2] / 2.0, gt[:, 0] + gt[:, 2] / 2.0
        pred_lo, pred_hi = pred[:, 0] - pred[:, 2] / 2.0, pred[:, 0] + pred[:, 2] / 2.0
        gt_area, pred_area = gt[:, 2] * gt[:, 3], pred[:, 2] * pred[:, 3]
    candidate = (pred_lo < gt_hi[:, None]) & (gt_lo[:, None] < pred_hi)
    if not (gt_area.all() or pred_area.all()):
        candidate |= (gt_area == 0.0)[:, None] & (pred_area == 0.0)
    # flat indices split by divmod: a 2-D nonzero costs several times more
    rows, cols = np.divmod(np.flatnonzero(candidate), len(pred))
    ious = iou_rows(gt[rows], pred[cols])
    best = np.zeros(len(gt))
    with np.errstate(invalid="ignore"):  # a NaN IOU propagates silently, as in max()
        np.maximum.at(best, rows, ious)
    return best


def fit_affine_batch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine maps taking each source triple onto its destination
    triple, by a Cramer solve of the 3-point system for a whole batch.

    src, dst: (H, 3, 2); src may also be one (3, 2) triple, fitted onto
    every destination triple. Returns (params (H, 6) in from_params order,
    valid (H,) bool). A row is invalid when its source triple is collinear
    or coincident (|det| at most DEGENERACY_RTOL x squared extent) or the
    fitted linear part is singular; invalid rows may hold NaN or inf
    params (a near-degenerate triple overflows, and fails the same test).
    """
    x0, y0 = src[..., 0, 0], src[..., 0, 1]
    x1, y1 = src[..., 1, 0], src[..., 1, 1]
    x2, y2 = src[..., 2, 0], src[..., 2, 1]
    u0, v0 = dst[..., 0, 0], dst[..., 0, 1]
    u1, v1 = dst[..., 1, 0], dst[..., 1, 1]
    u2, v2 = dst[..., 2, 0], dst[..., 2, 1]

    det = x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / det
        c_a = (y1 - y2) * inv, (y2 - y0) * inv, (y0 - y1) * inv
        c_b = (x2 - x1) * inv, (x0 - x2) * inv, (x1 - x0) * inv
        c_t = (
            (x1 * y2 - x2 * y1) * inv,
            (x2 * y0 - x0 * y2) * inv,
            (x0 * y1 - x1 * y0) * inv,
        )
        params = np.empty((dst.shape[0], 6), dtype=np.float64)
        params[:, 0] = u0 * c_a[0] + u1 * c_a[1] + u2 * c_a[2]
        params[:, 1] = u0 * c_b[0] + u1 * c_b[1] + u2 * c_b[2]
        params[:, 4] = u0 * c_t[0] + u1 * c_t[1] + u2 * c_t[2]
        params[:, 2] = v0 * c_a[0] + v1 * c_a[1] + v2 * c_a[2]
        params[:, 3] = v0 * c_b[0] + v1 * c_b[1] + v2 * c_b[2]
        params[:, 5] = v0 * c_t[0] + v1 * c_t[1] + v2 * c_t[2]
        det_a = params[:, 0] * params[:, 3] - params[:, 1] * params[:, 2]
    extent = np.maximum(
        src[..., 0].max(axis=-1) - src[..., 0].min(axis=-1),
        src[..., 1].max(axis=-1) - src[..., 1].min(axis=-1),
    )
    valid = np.abs(det) > DEGENERACY_RTOL * extent * extent
    valid &= np.isfinite(det_a) & (np.abs(det_a) > 1e-9)
    return params, valid


def points_to_array(points: np.ndarray) -> np.ndarray:
    """Check an (n, 2) point array and return it as float64; an empty
    array of any shape becomes (0, 2)."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputValidationError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputValidationError("points must be finite")
    return arr


def apply_params(params: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moved x and y of an (n, 2) point array under one affine map, a (6,)
    row in from_params order, or under each row of an (H, 6) batch.

    Returns two (n,) arrays, or two (n, H) arrays for a batch, one column
    per map. Each coordinate is computed elementwise as a11*x + a12*y + tx
    (a21*x + a22*y + ty), in that order, so every caller gets the same
    bits for the same map.
    """
    params = np.asarray(params, dtype=np.float64)
    a11, a12, a21, a22, tx, ty = params.T
    x, y = pts[:, 0], pts[:, 1]
    if params.ndim == 2:
        x, y = x[:, None], y[:, None]
    return a11 * x + a12 * y + tx, a21 * x + a22 * y + ty


def transform_points(t: AffineTransform2D, pts: np.ndarray) -> np.ndarray:
    """Apply an affine transform to an (n, 2) array."""
    return np.column_stack(apply_params(t.params(), pts))


def median(values: Sequence[float] | np.ndarray) -> float:
    """Median of a non-empty sequence of finite floats: the middle value,
    or the two middle values added and then halved. That is np.median's
    arithmetic, bit for bit, without the numpy.ma import its first call
    costs."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    mid = len(s) // 2
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)
