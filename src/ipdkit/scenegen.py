"""Paired-scene generator with exact ground truth.

Instances are laid out in the synthetic frame, carried into the real
frame by a known affine map (plus optional center noise), and each
surviving GT box gets one prediction perturbed to a target IOU drawn
from its domain's detector profile. The generator returns the exact
correspondence and realized per-instance IOUs, so pipeline output can be
checked against construction.

Per-instance random draws (dropout, miss, target quantile) are shared
between the domains: with identical detector profiles both sides realize
identical targets, pinning the true gap at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputValidationError
from .geometry import AffineTransform2D, BBox, Point2, apply_affine, iou
from .ingestion import DatasetManifest, ImageLabels, ManifestEntry, serialize_labels

_IOU_TOL = 1e-4  # internal bisection tolerance, tighter than the 1e-3 contract
_PLACEMENT_ATTEMPT_FACTOR = 400


@dataclass(frozen=True)
class DetectorProfile:
    """Per-instance detection quality: target IOUs are uniform on
    [low, high]; a miss_rate fraction of instances get no prediction."""

    low: float
    high: float
    miss_rate: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.low <= self.high <= 1.0):
            raise InputValidationError("profile requires 0 < low <= high <= 1")
        if not (0.0 <= self.miss_rate < 1.0):
            raise InputValidationError("miss_rate must lie in [0, 1)")

    def target(self, quantile: float) -> float:
        return self.low + quantile * (self.high - self.low)


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to generate one real/synth scene pair.

    transform maps synthetic coordinates into the real frame. The layout
    knobs (size_range, min_separation_factor, center_region) default to
    values that keep instances far enough apart that a prediction can
    only ever be the best match for its own GT box, and keep transformed
    centers inside the frame-bound tolerance for moderate transforms.
    """

    n_instances: int
    frame: tuple[int, int] = (1280, 960)
    transform: AffineTransform2D = field(default_factory=AffineTransform2D.identity)
    center_noise_sigma: float = 0.0
    dropout_real: float = 0.0
    dropout_synth: float = 0.0
    detector_profile_real: DetectorProfile = DetectorProfile(0.9, 0.9)
    detector_profile_synth: DetectorProfile = DetectorProfile(0.9, 0.9)
    rng_seed: int = 0
    size_range: tuple[float, float] = (6.0, 12.0)
    min_separation_factor: float = 5.0
    center_region: tuple[float, float] = (0.25, 0.75)
    confidence_range: tuple[float, float] = (0.5, 0.99)

    def __post_init__(self):
        if self.n_instances < 0:
            raise InputValidationError("n_instances must be >= 0")
        if self.frame[0] <= 0 or self.frame[1] <= 0:
            raise InputValidationError("frame dimensions must be positive")
        if not (math.isfinite(self.center_noise_sigma) and self.center_noise_sigma >= 0.0):
            raise InputValidationError("center_noise_sigma must be finite and >= 0")
        for name in ("dropout_real", "dropout_synth"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise InputValidationError(f"{name} must lie in [0, 1)")
        if not (0.0 < self.size_range[0] <= self.size_range[1]):
            raise InputValidationError("size_range must satisfy 0 < low <= high")
        if self.min_separation_factor < 0.0:
            raise InputValidationError("min_separation_factor must be >= 0")
        lo, hi = self.center_region
        if not (0.0 <= lo < hi <= 1.0):
            raise InputValidationError("center_region must satisfy 0 <= low < high <= 1")
        clo, chi = self.confidence_range
        if not (0.0 <= clo <= chi <= 1.0):
            raise InputValidationError("confidence_range must lie in [0, 1]")


@dataclass(frozen=True)
class SceneIous:
    """Realized best-possible IOU per GT box (0.0 where the simulated
    detector missed), aligned with each side's gt_boxes order."""

    real: tuple[float, ...]
    synth: tuple[float, ...]


def offset_box(box: BBox, direction: tuple[float, float], distance: float) -> BBox:
    dx, dy = direction
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise InputValidationError("direction must be non-zero")
    return BBox(
        cx=box.cx + distance * dx / norm,
        cy=box.cy + distance * dy / norm,
        w=box.w,
        h=box.h,
        confidence=box.confidence,
        class_id=box.class_id,
    )


def _bisect_offset(gt: BBox, direction: tuple[float, float], target_iou: float) -> float:
    """Offset distance along `direction` at which the shifted copy of gt
    reaches target_iou. IOU is 1 at distance 0, strictly decreasing, and
    0 by w + h, so bisection always lands."""
    lo, hi = 0.0, gt.w + gt.h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        v = iou(gt, offset_box(gt, direction, mid))
        if abs(v - target_iou) <= _IOU_TOL:
            return mid
        if v > target_iou:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def perturb_box_to_target_iou(
    gt: BBox,
    target_iou: float,
    rng: np.random.Generator,
    direction: tuple[float, float] | None = None,
) -> BBox:
    """A copy of gt translated so that its IOU with gt is within 1e-3 of
    target_iou. target 1.0 returns the box unchanged; direction, when not
    given, is drawn uniformly from rng."""
    if not (0.0 < target_iou <= 1.0):
        raise InputValidationError(f"target IOU must lie in (0, 1], got {target_iou!r}")
    if target_iou == 1.0:
        return gt
    if direction is None:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = (math.cos(angle), math.sin(angle))
    d = _bisect_offset(gt, direction, target_iou)
    return offset_box(gt, direction, d)


def random_affine(
    rng: np.random.Generator,
    frame: tuple[int, int],
    scale_range: tuple[float, float] = (0.7, 1.3),
    max_translation_frac: float = 0.05,
) -> AffineTransform2D:
    """Well-conditioned random map: rotation/anisotropic-scale/rotation
    about the frame center plus a small translation. Condition number is
    bounded by scale_range[1] / scale_range[0]."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s1, s2 = rng.uniform(scale_range[0], scale_range[1], size=2)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    # R(theta) @ diag(s1, s2) @ R(phi)
    a11 = ct * s1 * cp - st * s2 * sp
    a12 = -ct * s1 * sp - st * s2 * cp
    a21 = st * s1 * cp + ct * s2 * sp
    a22 = -st * s1 * sp + ct * s2 * cp
    cx, cy = frame[0] / 2.0, frame[1] / 2.0
    tx = cx - (a11 * cx + a12 * cy) + rng.uniform(-1.0, 1.0) * max_translation_frac * frame[0]
    ty = cy - (a21 * cx + a22 * cy) + rng.uniform(-1.0, 1.0) * max_translation_frac * frame[1]
    return AffineTransform2D(a11, a12, a21, a22, tx, ty)


def _place_centers(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    lo_f, hi_f = spec.center_region
    x_lo, x_hi = lo_f * spec.frame[0], hi_f * spec.frame[0]
    y_lo, y_hi = lo_f * spec.frame[1], hi_f * spec.frame[1]
    d_min = spec.min_separation_factor * spec.size_range[1]
    centers: list[tuple[float, float]] = []
    attempts_left = _PLACEMENT_ATTEMPT_FACTOR * max(spec.n_instances, 1)
    while len(centers) < spec.n_instances:
        if attempts_left <= 0:
            raise InputValidationError(
                f"could not place {spec.n_instances} instances with separation "
                f"{d_min:.1f} px inside the layout region; enlarge the frame or "
                "reduce density"
            )
        attempts_left -= 1
        x = rng.uniform(x_lo, x_hi)
        y = rng.uniform(y_lo, y_hi)
        if all((x - cx) ** 2 + (y - cy) ** 2 >= d_min * d_min for cx, cy in centers):
            centers.append((x, y))
    return np.array(centers, dtype=np.float64).reshape(spec.n_instances, 2)


def _hull_dims(t: AffineTransform2D, w: float, h: float) -> tuple[float, float]:
    """Axis-aligned extent of a w x h box pushed through the linear part
    of t (how a consistent labeler would re-box the instance)."""
    return (
        abs(t.a11) * w + abs(t.a12) * h,
        abs(t.a21) * w + abs(t.a22) * h,
    )


def _simulate_detector(
    gt_boxes: Sequence[BBox],
    profile: DetectorProfile,
    u_miss: np.ndarray,
    u_target: np.ndarray,
    angles: np.ndarray,
    confidences: np.ndarray,
) -> tuple[list[BBox], list[float]]:
    preds: list[BBox] = []
    ious: list[float] = []
    for i, gt in enumerate(gt_boxes):
        if u_miss[i] < profile.miss_rate:
            ious.append(0.0)
            continue
        target = profile.target(float(u_target[i]))
        direction = (math.cos(angles[i]), math.sin(angles[i]))
        base = BBox(gt.cx, gt.cy, gt.w, gt.h, confidence=float(confidences[i]), class_id=gt.class_id)
        if target == 1.0:
            pred = base
        else:
            d = _bisect_offset(gt, direction, target)
            pred = offset_box(base, direction, d)
        preds.append(pred)
        ious.append(iou(gt, pred))
    return preds, ious


def generate_scene_pair(
    spec: SceneSpec,
    image_id: str = "scene0000",
) -> tuple[ImageLabels, ImageLabels, tuple[tuple[int, int], ...], SceneIous]:
    """Build one real/synth label pair plus its ground truth.

    Returns (real, synth, correspondence, ious): correspondence holds
    (real_index, synth_index) for every instance visible on both sides,
    indices into the respective gt_boxes; ious holds each side's realized
    per-instance detection IOUs.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_instances
    centers = _place_centers(spec, rng)
    sizes = rng.uniform(spec.size_range[0], spec.size_range[1], size=(n, 2))
    noise = rng.normal(0.0, spec.center_noise_sigma, size=(n, 2)) if n else np.zeros((0, 2))
    u_drop_real = rng.random(n)
    u_drop_synth = rng.random(n)
    u_miss = rng.random(n)
    u_target = rng.random(n)
    angles_real = rng.uniform(0.0, 2.0 * math.pi, size=n)
    angles_synth = rng.uniform(0.0, 2.0 * math.pi, size=n)
    confidences = rng.uniform(spec.confidence_range[0], spec.confidence_range[1], size=n)

    real_gt: list[BBox] = []
    synth_gt: list[BBox] = []
    real_pos: dict[int, int] = {}
    synth_pos: dict[int, int] = {}
    keep_real: list[int] = []
    keep_synth: list[int] = []
    for i in range(n):
        w, h = float(sizes[i, 0]), float(sizes[i, 1])
        if u_drop_synth[i] >= spec.dropout_synth:
            synth_pos[i] = len(synth_gt)
            keep_synth.append(i)
            synth_gt.append(BBox(float(centers[i, 0]), float(centers[i, 1]), w, h))
        if u_drop_real[i] >= spec.dropout_real:
            moved = apply_affine(spec.transform, Point2(float(centers[i, 0]), float(centers[i, 1])))
            hull_w, hull_h = _hull_dims(spec.transform, w, h)
            real_pos[i] = len(real_gt)
            keep_real.append(i)
            real_gt.append(
                BBox(moved.x + float(noise[i, 0]), moved.y + float(noise[i, 1]), hull_w, hull_h)
            )

    correspondence = tuple(
        (real_pos[i], synth_pos[i]) for i in range(n) if i in real_pos and i in synth_pos
    )

    real_preds, real_ious = _simulate_detector(
        real_gt,
        spec.detector_profile_real,
        u_miss[keep_real],
        u_target[keep_real],
        angles_real[keep_real],
        confidences[keep_real],
    )
    synth_preds, synth_ious = _simulate_detector(
        synth_gt,
        spec.detector_profile_synth,
        u_miss[keep_synth],
        u_target[keep_synth],
        angles_synth[keep_synth],
        confidences[keep_synth],
    )

    real = ImageLabels.from_boxes(image_id, spec.frame[0], spec.frame[1], real_gt, real_preds)
    synth = ImageLabels.from_boxes(image_id, spec.frame[0], spec.frame[1], synth_gt, synth_preds)
    return real, synth, correspondence, SceneIous(tuple(real_ious), tuple(synth_ious))


def oracle_ipd(
    correspondence: Sequence[tuple[int, int]],
    ious: SceneIous,
) -> float | None:
    """Mean absolute per-instance gap over the true correspondence; None
    for an empty correspondence."""
    if not correspondence:
        return None
    diffs = [abs(ious.real[r] - ious.synth[s]) for r, s in correspondence]
    return float(np.mean(diffs))


def pooled_oracle_ipd(
    scenes: Sequence[tuple[Sequence[tuple[int, int]], SceneIous]],
) -> float | None:
    """Instance-weighted oracle over several scenes."""
    diffs: list[float] = []
    for correspondence, ious in scenes:
        diffs.extend(abs(ious.real[r] - ious.synth[s]) for r, s in correspondence)
    if not diffs:
        return None
    return float(np.mean(diffs))


def emit_dataset(
    outdir: str | Path,
    specs: Sequence[SceneSpec],
    coordinate_mode: str = "pixel",
) -> tuple[Path, Path, Path]:
    """Write label files, the two manifests and the ground-truth sidecar.

    Layout under outdir: real/<id>_gt.txt, real/<id>_pred.txt (same for
    synth/), manifest_real.json, manifest_synth.json, truth.json. Returns
    the three JSON paths.
    """
    out = Path(outdir)
    (out / "real").mkdir(parents=True, exist_ok=True)
    (out / "synth").mkdir(parents=True, exist_ok=True)

    entries_real: list[ManifestEntry] = []
    entries_synth: list[ManifestEntry] = []
    pairing: list[tuple[str, str]] = []
    truth_scenes = []
    pooled: list[tuple[tuple[tuple[int, int], ...], SceneIous]] = []
    for i, spec in enumerate(specs):
        image_id = f"scene{i:04d}"
        real, synth, correspondence, ious = generate_scene_pair(spec, image_id=image_id)
        dims = (spec.frame[0], spec.frame[1])
        for side, labels in (("real", real), ("synth", synth)):
            gt_rel = f"{side}/{image_id}_gt.txt"
            pred_rel = f"{side}/{image_id}_pred.txt"
            (out / gt_rel).write_text(
                serialize_labels(labels.gt_boxes, coordinate_mode, dims), encoding="utf-8"
            )
            (out / pred_rel).write_text(
                serialize_labels(labels.pred_boxes, coordinate_mode, dims), encoding="utf-8"
            )
        entries_real.append(
            ManifestEntry(image_id, f"real/{image_id}_gt.txt", f"real/{image_id}_pred.txt", *dims)
        )
        entries_synth.append(
            ManifestEntry(image_id, f"synth/{image_id}_gt.txt", f"synth/{image_id}_pred.txt", *dims)
        )
        pairing.append((image_id, image_id))
        pooled.append((correspondence, ious))
        truth_scenes.append(
            {
                "image_id": image_id,
                "correspondence": [list(p) for p in correspondence],
                "real_ious": list(ious.real),
                "synth_ious": list(ious.synth),
                "oracle_ipd": oracle_ipd(correspondence, ious),
                "rng_seed": spec.rng_seed,
            }
        )

    manifest_real = DatasetManifest(
        dataset_id="real",
        coordinate_mode=coordinate_mode,
        entries=tuple(entries_real),
        pairing=tuple(pairing),
    )
    manifest_synth = DatasetManifest(
        dataset_id="synth",
        coordinate_mode=coordinate_mode,
        entries=tuple(entries_synth),
        pairing=tuple(pairing),
    )
    real_path = out / "manifest_real.json"
    synth_path = out / "manifest_synth.json"
    truth_path = out / "truth.json"
    real_path.write_text(manifest_real.to_json(), encoding="utf-8")
    synth_path.write_text(manifest_synth.to_json(), encoding="utf-8")
    truth_path.write_text(
        json.dumps(
            {"scenes": truth_scenes, "oracle_ipd": pooled_oracle_ipd(pooled)},
            indent=2,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return real_path, synth_path, truth_path
