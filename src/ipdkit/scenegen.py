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
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputValidationError
from .geometry import AffineTransform2D, BBox, box_rule_error, iou_rows, transform_points
from .ingestion import (
    DatasetManifest, ImageLabels, ManifestEntry, check_frame, serialize_labels,
)

_IOU_TOL = 1e-4  # internal bisection tolerance, tighter than the 1e-3 contract
_PLACEMENT_ATTEMPT_FACTOR = 400
RANDOM_AFFINE_SCALE_RANGE = (0.7, 1.3)  # singular values of random_affine's linear part
RANDOM_AFFINE_MAX_TRANSLATION_FRAC = 0.05  # of the frame size, per axis


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

    def target(self, quantile: float | np.ndarray) -> float | np.ndarray:
        return self.low + quantile * (self.high - self.low)


def check_rng_seed(seed: int) -> None:
    """Raise unless the seed is one np.random.default_rng takes."""
    if seed < 0:
        raise InputValidationError("rng_seed must be >= 0")


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to generate one real/synth scene pair.

    transform maps synthetic coordinates into the real frame. The layout
    knobs (size_range, min_separation_factor, center_region) default to
    values that keep instances far enough apart that a prediction can
    only ever be the best match for its own GT box, and keep transformed
    centers inside the frame-bound tolerance for moderate transforms.
    Every box a spec can generate obeys the label files' box rules, with a
    finite center.
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
        check_rng_seed(self.rng_seed)
        # a numpy integer becomes an int, which the manifests can hold
        object.__setattr__(self, "frame", tuple(map(operator.index, self.frame)))
        check_frame(self.frame, ("frame[0]", "frame[1]"))
        if not (math.isfinite(self.center_noise_sigma) and self.center_noise_sigma >= 0.0):
            raise InputValidationError("center_noise_sigma must be finite and >= 0")
        for name in ("dropout_real", "dropout_synth"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise InputValidationError(f"{name} must lie in [0, 1)")
        if not (0.0 < self.size_range[0] <= self.size_range[1] < math.inf):
            raise InputValidationError("size_range must be finite and satisfy 0 < low <= high")
        t = self.transform
        # a real box is a hull, |a| * w + |b| * h per row (a, b): every side
        # and area grows with w and h, so the boxes at size_range's ends bound all
        for s in self.size_range:
            hull = (abs(t.a11) * s + abs(t.a12) * s, abs(t.a21) * s + abs(t.a22) * s)
            if error := box_rule_error(0.0, 0.0, s, s):
                raise InputValidationError(f"size_range {self.size_range}: {error}")
            if error := box_rule_error(0.0, 0.0, *hull):
                raise InputValidationError(f"transform rows {t.params()[:4]}: {error}")
        if not (math.isfinite(self.min_separation_factor) and self.min_separation_factor >= 0.0):
            raise InputValidationError("min_separation_factor must be finite and >= 0")
        lo, hi = self.center_region
        if not (0.0 <= lo < hi <= 1.0):
            raise InputValidationError("center_region must satisfy 0 <= low < high <= 1")
        # an affine map carries the region's corners furthest out; plain
        # floats overflow to inf without a warning
        for x in (float(lo) * self.frame[0], float(hi) * self.frame[0]):
            for y in (float(lo) * self.frame[1], float(hi) * self.frame[1]):
                corner = (t.a11 * x + t.a12 * y + t.tx, t.a21 * x + t.a22 * y + t.ty)
                if not all(map(math.isfinite, corner)):
                    raise InputValidationError(
                        f"transform {t.params()} carries the center_region corner "
                        f"({x}, {y}) to {corner}"
                    )
        clo, chi = self.confidence_range
        if not (0.0 <= clo <= chi <= 1.0):
            raise InputValidationError("confidence_range must lie in [0, 1]")


@dataclass(frozen=True)
class SceneIous:
    """Realized best-possible IOU per GT box (0.0 where the simulated
    detector missed), aligned with the rows of each side's GT arrays."""

    real: tuple[float, ...]
    synth: tuple[float, ...]


def _shift_to_target_iou(
    gt: np.ndarray, dx: np.ndarray, dy: np.ndarray, norm: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Copies of the (k, 4) boxes gt, each moved along its direction
    (dx, dy) / norm until its IOU with the original is within _IOU_TOL of
    its target; a row whose target is 1.0 stays in place.

    Bisects every row at once. IOU is 1 at distance 0, strictly
    decreasing, and 0 by w + h, so each row lands, and it stops at the
    iteration where a bisection of that row alone would stop.
    """
    stay = target == 1.0
    lo, hi = np.zeros(len(gt)), gt[:, 2] + gt[:, 3]
    dist = np.zeros(len(gt))
    done = stay.copy()
    moved = gt.copy()
    for _ in range(80):
        if done.all():
            break
        mid = 0.5 * (lo + hi)
        moved[:, 0] = gt[:, 0] + mid * dx / norm
        moved[:, 1] = gt[:, 1] + mid * dy / norm
        v = iou_rows(gt, moved)
        hit = ~done & (np.abs(v - target) <= _IOU_TOL)
        dist[hit] = mid[hit]
        done |= hit
        above = v > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    dist[~done] = 0.5 * (lo + hi)[~done]
    moved[:, 0] = gt[:, 0] + dist * dx / norm
    moved[:, 1] = gt[:, 1] + dist * dy / norm
    moved[stay] = gt[stay]
    return moved


def perturb_box_to_target_iou(gt: BBox, target_iou: float, rng: np.random.Generator) -> BBox:
    """A copy of gt translated, in a direction drawn uniformly from rng, so
    that its IOU with gt is within 1e-3 of target_iou. target 1.0 returns
    the box unchanged."""
    if not (0.0 < target_iou <= 1.0):
        raise InputValidationError(f"target IOU must lie in (0, 1], got {target_iou!r}")
    if target_iou == 1.0:
        return gt
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dx, dy = math.cos(angle), math.sin(angle)
    row = np.array([[gt.cx, gt.cy, gt.w, gt.h]])
    moved = _shift_to_target_iou(row, *np.array([[dx], [dy], [math.hypot(dx, dy)], [target_iou]]))
    return BBox(*moved[0, :2].tolist(), gt.w, gt.h, gt.confidence)


def random_affine(rng: np.random.Generator, frame: tuple[int, int]) -> AffineTransform2D:
    """Well-conditioned random map: rotation/anisotropic-scale/rotation
    about the frame center plus a small translation. Condition number is
    bounded by the ratio of RANDOM_AFFINE_SCALE_RANGE's ends."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s1, s2 = rng.uniform(*RANDOM_AFFINE_SCALE_RANGE, size=2)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    # R(theta) @ diag(s1, s2) @ R(phi)
    a11 = ct * s1 * cp - st * s2 * sp
    a12 = -ct * s1 * sp - st * s2 * cp
    a21 = st * s1 * cp + ct * s2 * sp
    a22 = -st * s1 * sp + ct * s2 * cp
    cx, cy = frame[0] / 2.0, frame[1] / 2.0
    shift = RANDOM_AFFINE_MAX_TRANSLATION_FRAC
    tx = cx - (a11 * cx + a12 * cy) + rng.uniform(-1.0, 1.0) * shift * frame[0]
    ty = cy - (a21 * cx + a22 * cy) + rng.uniform(-1.0, 1.0) * shift * frame[1]
    return AffineTransform2D(a11, a12, a21, a22, tx, ty)


def _place_centers(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    lo_f, hi_f = spec.center_region
    x_lo, x_hi = lo_f * spec.frame[0], hi_f * spec.frame[0]
    y_lo, y_hi = lo_f * spec.frame[1], hi_f * spec.frame[1]
    d_min = spec.min_separation_factor * spec.size_range[1]
    centers: list[tuple[float, float]] = []
    attempts_left = _PLACEMENT_ATTEMPT_FACTOR * max(spec.n_instances, 1)
    # discs of diameter d_min around the centers are disjoint and lie in
    # the region grown by d_min / 2 on each side; a count whose discs
    # cover more than that area is refused before the first draw
    grown = (x_hi - x_lo + d_min) * (y_hi - y_lo + d_min)
    if d_min > 0.0 and spec.n_instances * math.pi * d_min * d_min / 4.0 > grown:
        attempts_left = 0
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


def _simulate_detector(
    gt: np.ndarray,
    profile: DetectorProfile,
    u_miss: np.ndarray,
    u_target: np.ndarray,
    angles: np.ndarray,
    confidences: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One prediction per GT row the detector does not miss, at a target
    IOU drawn from profile; returns the (k, 5) prediction rows, confidence
    last, and each GT row's realized IOU (0.0 where missed)."""
    hit = u_miss >= profile.miss_rate
    # math's cos, sin and hypot, element by element: numpy's may round
    # differently, and the predictions' bytes are pinned
    dx = np.array([math.cos(a) for a in angles[hit].tolist()])
    dy = np.array([math.sin(a) for a in angles[hit].tolist()])
    norm = np.array([math.hypot(x, y) for x, y in zip(dx.tolist(), dy.tolist())])
    pred = _shift_to_target_iou(gt[hit], dx, dy, norm, profile.target(u_target[hit]))
    ious = np.zeros(len(gt))
    ious[hit] = iou_rows(gt[hit], pred)
    return np.column_stack([pred, confidences[hit]]), ious


def generate_scene_pair(
    spec: SceneSpec,
    image_id: str = "scene0000",
) -> tuple[ImageLabels, ImageLabels, tuple[tuple[int, int], ...], SceneIous]:
    """Build one real/synth label pair plus its ground truth.

    Returns (real, synth, correspondence, ious): correspondence holds
    (real_index, synth_index) for every instance visible on both sides,
    indices into the respective GT arrays; ious holds each side's realized
    per-instance detection IOUs.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_instances
    centers = _place_centers(spec, rng)
    moved = transform_points(spec.transform, centers)
    sizes = rng.uniform(spec.size_range[0], spec.size_range[1], size=(n, 2))
    noise = rng.normal(0.0, spec.center_noise_sigma, size=(n, 2))
    keep_real = rng.random(n) >= spec.dropout_real
    keep_synth = rng.random(n) >= spec.dropout_synth
    u_miss = rng.random(n)
    u_target = rng.random(n)
    angles_real = rng.uniform(0.0, 2.0 * math.pi, size=n)
    angles_synth = rng.uniform(0.0, 2.0 * math.pi, size=n)
    confidences = rng.uniform(spec.confidence_range[0], spec.confidence_range[1], size=n)

    t = spec.transform
    # the axis-aligned hull of each box pushed through the linear part of
    # the transform: how a consistent labeler would re-box the instance
    hull_w = abs(t.a11) * sizes[:, 0] + abs(t.a12) * sizes[:, 1]
    hull_h = abs(t.a21) * sizes[:, 0] + abs(t.a22) * sizes[:, 1]
    real_gt = np.column_stack([moved + noise, hull_w, hull_h])[keep_real]
    synth_gt = np.column_stack([centers, sizes])[keep_synth]

    both = keep_real & keep_synth
    correspondence = tuple(
        zip(
            (np.cumsum(keep_real) - 1)[both].tolist(),
            (np.cumsum(keep_synth) - 1)[both].tolist(),
        )
    )

    real_pred, real_ious = _simulate_detector(
        real_gt,
        spec.detector_profile_real,
        u_miss[keep_real],
        u_target[keep_real],
        angles_real[keep_real],
        confidences[keep_real],
    )
    synth_pred, synth_ious = _simulate_detector(
        synth_gt,
        spec.detector_profile_synth,
        u_miss[keep_synth],
        u_target[keep_synth],
        angles_synth[keep_synth],
        confidences[keep_synth],
    )

    w, h = spec.frame
    real = ImageLabels(image_id, w, h, real_gt, real_pred)
    synth = ImageLabels(image_id, w, h, synth_gt, synth_pred)
    ious = SceneIous(tuple(real_ious.tolist()), tuple(synth_ious.tolist()))
    return real, synth, correspondence, ious


def oracle_ipd(
    correspondence: Sequence[tuple[int, int]],
    ious: SceneIous,
) -> float | None:
    """Mean absolute per-instance gap over the true correspondence; None
    for an empty correspondence."""
    return pooled_oracle_ipd([(correspondence, ious)])


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
    # generate every scene first: one that fails leaves no partial dataset
    scenes = [generate_scene_pair(spec, image_id=f"scene{i:04d}") for i, spec in enumerate(specs)]
    out = Path(outdir)
    entries: dict[str, list[ManifestEntry]] = {"real": [], "synth": []}
    for side in entries:
        (out / side).mkdir(parents=True, exist_ok=True)

    pairing: list[tuple[str, str]] = []
    truth_scenes = []
    pooled: list[tuple[tuple[tuple[int, int], ...], SceneIous]] = []
    for spec, (real, synth, correspondence, ious) in zip(specs, scenes):
        image_id = real.image_id
        dims = (spec.frame[0], spec.frame[1])
        for side, labels in (("real", real), ("synth", synth)):
            gt_rel = f"{side}/{image_id}_gt.txt"
            pred_rel = f"{side}/{image_id}_pred.txt"
            (out / gt_rel).write_text(
                serialize_labels(labels.gt, coordinate_mode, dims), encoding="utf-8"
            )
            (out / pred_rel).write_text(
                serialize_labels(labels.pred, coordinate_mode, dims), encoding="utf-8"
            )
            entries[side].append(ManifestEntry(image_id, gt_rel, pred_rel, *dims))
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

    for side, side_entries in entries.items():
        manifest = DatasetManifest(
            dataset_id=side,
            coordinate_mode=coordinate_mode,
            entries=tuple(side_entries),
            pairing=tuple(pairing),
        )
        (out / f"manifest_{side}.json").write_text(manifest.to_json(), encoding="utf-8")
    truth_path = out / "truth.json"
    truth_path.write_text(
        json.dumps(
            {"scenes": truth_scenes, "oracle_ipd": pooled_oracle_ipd(pooled)},
            indent=2,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return out / "manifest_real.json", out / "manifest_synth.json", truth_path
