"""Independent check of an `ipdkit ipd` JSON report against the dataset
it was computed from.

Nothing here uses ipdkit: label files are read with a plain split, IOU
is a vectorised numpy formula, and each image pair's matching is redone
from the transform and gate the report states (gated min-cost
assignment, distances capped at the gate). The checker derives

* per image pair, the share of the generator's true correspondence
  (`truth.json`) that the pairing recovers; under RECOVERY_FLOOR the
  pair counts as failed, the criterion of the registration-recovery
  acceptance gate;
* the IPD of the report's own pairing, which must equal the reported IPD
  and per-image breakdown;
* the expected IPD over the true correspondence, which the reported IPD
  must match within EXPECTED_IPD_TOL when no pair failed;

and checks the properties every report must have: IPD in [0, 1], the
breakdown's pair-weighted mean equal to the IPD, matched plus unmatched
equal to the GT count on each side, and totals that add up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

CONF_THRESHOLD = 0.25
RECOVERY_FLOOR = 0.95
EXPECTED_IPD_TOL = 2e-3
EXACT_TOL = 1e-9


@dataclass
class CheckResult:
    attempted: int = 0
    failed_pairs: list[str] = field(default_factory=list)
    instances_recovered: int = 0
    true_instances: int = 0
    reported_ipd: float = math.nan
    expected_ipd: float = math.nan
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_pairs)


def read_boxes(path: Path, columns: int) -> np.ndarray:
    """(k, columns) array of `class cx cy w h [confidence]` rows."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([float(v) for v in line.split()])
    return np.array(rows, dtype=np.float64).reshape(-1, columns)


def iou_matrix(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """IOU of (n, 4) against (m, 4) center/size boxes."""
    g1, g2 = gt[:, None, :2] - gt[:, None, 2:] / 2, gt[:, None, :2] + gt[:, None, 2:] / 2
    p1, p2 = pred[None, :, :2] - pred[None, :, 2:] / 2, pred[None, :, :2] + pred[None, :, 2:] / 2
    side = np.clip(np.minimum(g2, p2) - np.maximum(g1, p1), 0.0, None)
    inter = side[..., 0] * side[..., 1]
    union = (gt[:, 2] * gt[:, 3])[:, None] + (pred[:, 2] * pred[:, 3])[None, :] - inter
    return inter / union


def performance(gt: np.ndarray, pred: np.ndarray, threshold: float) -> np.ndarray:
    """Best IOU per GT box over the predictions at or above threshold."""
    kept = pred[pred[:, 5] >= threshold, 1:5]
    if len(kept) == 0:
        return np.zeros(len(gt))
    return iou_matrix(gt[:, 1:5], kept).max(axis=1)


def gated_pairs(params, gate: float, synth: np.ndarray, real: np.ndarray) -> set[tuple[int, int]]:
    """(real, synth) index pairs of the gated min-cost matching after
    mapping synth centers with params = (a11, a12, a21, a22, tx, ty)."""
    a11, a12, a21, a22, tx, ty = params
    mx = a11 * synth[:, 0] + a12 * synth[:, 1] + tx
    my = a21 * synth[:, 0] + a22 * synth[:, 1] + ty
    cost = np.hypot(real[:, 0, None] - mx[None, :], real[:, 1, None] - my[None, :])
    rows, cols = linear_sum_assignment(np.minimum(cost, gate))
    return {(int(r), int(s)) for r, s in zip(rows, cols) if cost[r, s] <= gate}


class _Side:
    def __init__(self, manifest: Path):
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        self.entries = {e["image_id"]: e for e in doc["entries"]}
        self.root = manifest.parent

    def load(self, image_id: str) -> tuple[np.ndarray, np.ndarray]:
        e = self.entries[image_id]
        return read_boxes(self.root / e["gt_label_path"], 5), read_boxes(self.root / e["pred_label_path"], 6)


def check_report(dataset_root: Path, report_text: str, stdout_text: str | None = None) -> CheckResult:
    """Check one `ipd` JSON report for the dataset at dataset_root."""
    out = CheckResult()
    err = out.errors.append
    report = json.loads(report_text)
    result, rows = report["result"], report["provenance"]["pairs"]
    truth = {s["image_id"]: s for s in json.loads((dataset_root / "truth.json").read_text())["scenes"]}
    real_side = _Side(dataset_root / "manifest_real.json")
    synth_side = _Side(dataset_root / "manifest_synth.json")

    ipd = result["ipd"]
    out.reported_ipd = ipd
    if not 0.0 <= ipd <= 1.0:
        err(f"IPD {ipd} outside [0, 1]")
    breakdown = result["per_image_breakdown"]
    weighted = sum(b["ipd_contribution"] * b["pair_count"] for b in breakdown)
    if not breakdown or abs(weighted / max(1, result["instance_count"]) - ipd) > EXACT_TOL:
        err("per-image breakdown does not average to the IPD")
    if sum(b["pair_count"] for b in breakdown) != result["instance_count"]:
        err("breakdown pair counts do not sum to instance_count")
    if stdout_text is not None and f"IPD {ipd:.6f}" not in stdout_text:
        err("stdout IPD line disagrees with the report")

    own_diffs: list[float] = []
    own_breakdown: dict[str, tuple[float, int]] = {}
    true_diffs: list[float] = []
    unmatched = [0, 0]
    for row in rows:
        rid, sid = row["real_image"], row["synth_image"]
        out.attempted += 1
        r_gt, r_pred = real_side.load(rid)
        s_gt, s_pred = synth_side.load(sid)
        p_real = performance(r_gt, r_pred, CONF_THRESHOLD)
        p_synth = performance(s_gt, s_pred, CONF_THRESHOLD)
        reg = row["registration"]
        pairs = gated_pairs(reg["transform"], row["gate_distance"], s_gt[:, 1:3], r_gt[:, 1:3])
        if row["matched"] != len(pairs):
            err(f"{rid}: report matched {row['matched']}, recomputed {len(pairs)}")
        for side, n_gt in (("real", len(r_gt)), ("synth", len(s_gt))):
            if row["matched"] + row[f"unmatched_{side}"] != n_gt:
                err(f"{rid}: matched + unmatched_{side} != {n_gt} GT boxes")
        unmatched[0] += row["unmatched_real"]
        unmatched[1] += row["unmatched_synth"]

        corr = {tuple(p) for p in truth[rid]["correspondence"]}
        hit = len(pairs & corr)
        out.instances_recovered += hit
        out.true_instances += len(corr)
        if corr and hit < RECOVERY_FLOOR * len(corr):
            out.failed_pairs.append(rid)
        diffs = [abs(p_real[r] - p_synth[s]) for r, s in sorted(pairs)]
        if diffs:
            own_breakdown[rid] = (float(np.mean(diffs)), len(diffs))
        own_diffs.extend(diffs)
        true_diffs.extend(abs(p_real[r] - p_synth[s]) for r, s in sorted(corr))

    if [result["unmatched_real_total"], result["unmatched_synth_total"]] != unmatched:
        err("unmatched totals do not add up over the image pairs")
    if result["instance_count"] != len(own_diffs):
        err(f"instance_count {result['instance_count']}, recomputed {len(own_diffs)}")
    elif abs(float(np.mean(own_diffs)) - ipd) > EXACT_TOL:
        err(f"IPD {ipd} differs from the recomputed {float(np.mean(own_diffs))}")
    for b in breakdown:
        mean, count = own_breakdown.get(b["image_id"], (math.nan, 0))
        if b["pair_count"] != count or not abs(b["ipd_contribution"] - mean) <= EXACT_TOL:
            err(f"{b['image_id']}: breakdown row disagrees with the recomputed pairing")
    out.expected_ipd = float(np.mean(true_diffs)) if true_diffs else math.nan
    if not out.failed_pairs and not abs(ipd - out.expected_ipd) <= EXPECTED_IPD_TOL:
        err(f"IPD {ipd} is not within {EXPECTED_IPD_TOL} of the expected {out.expected_ipd}")
    return out
