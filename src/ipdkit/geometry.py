"""Axis-aligned boxes, 2D points and affine transforms.

Everything downstream (registration, matching, the performance metric)
is built on these few types and pure functions. Boxes are stored as
center/width/height in one consistent coordinate unit, either one BBox
at a time or as the rows of an (n, 4) cx, cy, w, h array, the form the
pipeline's hot paths take.
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


@dataclass(frozen=True)
class Point2:
    """A 2D point in image coordinates."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _require_finite("x", self.x))
        object.__setattr__(self, "y", _require_finite("y", self.y))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, center/width/height, optional detection confidence."""

    cx: float
    cy: float
    w: float
    h: float
    confidence: float | None = None
    class_id: int = 0

    def __post_init__(self):
        # coerce to plain python scalars so equality and serialization do
        # not depend on the caller's numeric types
        for name in ("cx", "cy", "w", "h"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        object.__setattr__(self, "class_id", int(self.class_id))
        if self.w <= 0 or self.h <= 0:
            raise InputValidationError(
                f"box sides must be positive, got w={self.w}, h={self.h}"
            )
        if self.confidence is not None:
            c = _require_finite("confidence", self.confidence)
            if not 0.0 <= c <= 1.0:
                raise InputValidationError(f"confidence must be in [0,1], got {c}")
            object.__setattr__(self, "confidence", c)

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

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

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
    area and therefore IOU 0.
    """
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def iou_table(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """IOU of every GT box (rows) against every predicted box (columns),
    from (n, 4) and (m, 4) cx, cy, w, h arrays; either may be empty.

    One broadcast that runs iou's float operations in iou's order, so
    cell (i, j) equals iou on the BBoxes of row i and row j exactly.
    """
    g, p = gt[:, None, :], pred[None, :, :]
    g_half, p_half = g[..., 2:] / 2.0, p[..., 2:] / 2.0
    lo = np.maximum(g[..., :2] - g_half, p[..., :2] - p_half)
    hi = np.minimum(g[..., :2] + g_half, p[..., :2] + p_half)
    iw, ih = hi[..., 0] - lo[..., 0], hi[..., 1] - lo[..., 1]
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return inter / (g[..., 2] * g[..., 3] + p[..., 2] * p[..., 3] - inter)


def boxes_to_array(boxes: Sequence[BBox]) -> np.ndarray:
    """(n, 4) float64 cx, cy, w, h array of a BBox sequence, the form
    iou_table, default_gate_distance and align_pair take."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def bbox_center(b: BBox) -> Point2:
    return Point2(b.cx, b.cy)


def apply_affine(t: AffineTransform2D, p: Point2) -> Point2:
    return Point2(
        t.a11 * p.x + t.a12 * p.y + t.tx,
        t.a21 * p.x + t.a22 * p.y + t.ty,
    )


def fit_affine_batch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine maps taking each source triple onto its destination
    triple, by a Cramer solve of the 3-point system for a whole batch.

    src, dst: (H, 3, 2); src may also be one (3, 2) triple, fitted onto
    every destination triple. Returns (params (H, 6) in from_params order,
    valid (H,) bool). A row is invalid when its source triple is collinear
    or coincident (|det| at most DEGENERACY_RTOL x squared extent) or the
    fitted linear part is singular; invalid rows may hold NaN params.
    """
    x0, y0 = src[..., 0, 0], src[..., 0, 1]
    x1, y1 = src[..., 1, 0], src[..., 1, 1]
    x2, y2 = src[..., 2, 0], src[..., 2, 1]
    u0, v0 = dst[..., 0, 0], dst[..., 0, 1]
    u1, v1 = dst[..., 1, 0], dst[..., 1, 1]
    u2, v2 = dst[..., 2, 0], dst[..., 2, 1]

    det = x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def points_to_array(points: Sequence[Point2] | np.ndarray) -> np.ndarray:
    """(n, 2) float64 array from Point2 sequences or array-likes."""
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
    else:
        arr = np.array([(p.x, p.y) for p in points], dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputValidationError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputValidationError("points must be finite")
    return arr


def transform_points(t: AffineTransform2D, pts: np.ndarray) -> np.ndarray:
    """Apply an affine transform to an (n, 2) array."""
    a = np.array([[t.a11, t.a12], [t.a21, t.a22]], dtype=np.float64)
    return pts @ a.T + np.array([t.tx, t.ty], dtype=np.float64)
