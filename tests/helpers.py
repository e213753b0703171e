"""Independent oracles the tests check the library against.

Everything here is written the slow, obviously-correct way on purpose:
counting grids instead of interval algebra, permutation enumeration
instead of an LP solver. If a test disagrees with the library, trust
this file first.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ipdkit import BBox, BoxArrays, ImageLabels, iou


def grid_iou(a: BBox, b: BBox, cells: int = 1000) -> float:
    """IOU by counting cells of a raster laid over the two boxes.

    The raster is separable: a cell column is inside a box iff its
    center x is inside, same for rows, so counting reduces to two 1D
    problems multiplied. Cell centers avoid edge ambiguity.
    """
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    xs = lo_x + (np.arange(cells) + 0.5) * (hi_x - lo_x) / cells
    ys = lo_y + (np.arange(cells) + 0.5) * (hi_y - lo_y) / cells

    in_ax = (xs >= ax1) & (xs <= ax2)
    in_ay = (ys >= ay1) & (ys <= ay2)
    in_bx = (xs >= bx1) & (xs <= bx2)
    in_by = (ys >= by1) & (ys <= by2)

    inter = (in_ax & in_bx).sum() * (in_ay & in_by).sum()
    area_a = in_ax.sum() * in_ay.sum()
    area_b = in_bx.sum() * in_by.sum()
    union = area_a + area_b - inter
    if union == 0:
        return 0.0
    return float(inter) / float(union)


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum total cost over all maximal one-to-one assignments by
    enumerating permutations; rows/columns beyond the smaller dimension
    stay unassigned. Summation follows row order so totals are
    bit-comparable with a solver that sums the same pairs."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    best = None
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = 0.0
            for r, c in enumerate(cols):
                total += cost[r, c]
            if best is None or total < best:
                best = total
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = 0.0
            for c, r in enumerate(rows):
                total += cost[r, c]
            if best is None or total < best:
                best = total
    return best


def random_box(rng: np.random.Generator, confidence: bool = False) -> BBox:
    conf = float(rng.uniform(0.0, 1.0)) if confidence else None
    return BBox(
        cx=float(rng.uniform(-50.0, 50.0)),
        cy=float(rng.uniform(-50.0, 50.0)),
        w=float(rng.uniform(0.5, 40.0)),
        h=float(rng.uniform(0.5, 40.0)),
        confidence=conf,
    )


def overlapping_box_pair(rng: np.random.Generator) -> tuple[BBox, BBox]:
    """Box pairs biased toward partial overlap, the regime where an IOU
    bug would hide; disjoint and nested pairs still occur."""
    a = random_box(rng)
    b = BBox(
        cx=a.cx + float(rng.normal(0.0, a.w)),
        cy=a.cy + float(rng.normal(0.0, a.h)),
        w=a.w * float(rng.uniform(0.3, 2.5)),
        h=a.h * float(rng.uniform(0.3, 2.5)),
    )
    return a, b


def bisect_shift(gt: BBox, direction: tuple[float, float], target: float) -> BBox:
    """A copy of gt moved along direction until the scalar iou with gt is
    within 1e-4 of target, by bisection one box at a time; target 1.0
    leaves it in place. Each step offsets the center by d * dx / norm."""
    dx, dy = direction
    norm = math.hypot(dx, dy)

    def shifted(d: float) -> BBox:
        return BBox(gt.cx + d * dx / norm, gt.cy + d * dy / norm, gt.w, gt.h)

    if target == 1.0:
        return gt
    lo, hi = 0.0, gt.w + gt.h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        v = iou(gt, shifted(mid))
        if abs(v - target) <= 1e-4:
            return shifted(mid)
        if v > target:
            lo = mid
        else:
            hi = mid
    return shifted(0.5 * (lo + hi))


def box_arrays(rows) -> BoxArrays:
    """BoxArrays of BBoxes or of (cx, cy, w, h[, confidence]) rows, each
    checked by BBox's rules; no confidence (or None) marks a GT box."""
    boxes = [row if isinstance(row, BBox) else BBox(*row) for row in rows]
    return BoxArrays(
        np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4),
        np.array([math.nan if b.confidence is None else b.confidence for b in boxes]),
    )


def image_labels(image_id, gt, pred=(), frame=(1000, 1000)) -> ImageLabels:
    """ImageLabels of one image from box_arrays rows."""
    return ImageLabels(image_id, frame[0], frame[1], box_arrays(gt), box_arrays(pred))


def check_hits(params, valid, check, near_x, near_y, capture_radius) -> np.ndarray:
    """Per hypothesis, how many check points its map carries within
    capture_radius of one of its near neighbours; -1 for an invalid fit.

    The independent reference for registration._refine_set's count:
    params (H, 6) in from_params order, valid (H,), check (c, 2), near_x
    and near_y (K, H); every check point of every hypothesis, laid out
    (H, c) where _refine_set lays them out (c, H), and written without
    apply_params or in-place buffers.
    """
    a11, a12, a21, a22, tx, ty = np.asarray(params, dtype=np.float64).T[..., None]
    x, y = check[:, 0], check[:, 1]
    nearest = np.full((len(valid), len(check)), np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        moved_x, moved_y = a11 * x + a12 * y + tx, a21 * x + a22 * y + ty
        for nx, ny in zip(near_x[:, :, None], near_y[:, :, None]):
            np.minimum(nearest, (moved_x - nx) ** 2 + (moved_y - ny) ** 2, out=nearest)
    return np.where(valid, (nearest <= capture_radius**2).sum(axis=1), -1)


def left_turning_bases(pts: np.ndarray, k: int) -> set[tuple[int, int, int]]:
    """Each point p with each ordered pair (a, b) of its k nearest other
    points (ties broken by index) such that p, a, b turn left.

    The independent reference for registration._bases: neighbours by a
    stable argsort of the full distance table, both orderings of every
    pair tried, and the turn taken in Python, exact on integer points.
    """
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    out = set()
    for p, row in enumerate(np.argsort(d2, axis=1, kind="stable")[:, :k].tolist()):
        (x0, y0) = pts[p].tolist()
        for a, b in itertools.permutations(row, 2):
            (x1, y1), (x2, y2) = pts[a].tolist(), pts[b].tolist()
            if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0:
                out.add((p, a, b))
    return out
