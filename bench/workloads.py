"""Seeded input datasets for the `ipdkit ipd` benchmark.

Each workload is a list of `SceneSpec`s written with `emit_dataset`, so
every dataset comes with the generator's exact correspondence in
`truth.json`. The specs are built here rather than through
`ipdkit scenegen --spec-file`, because the spec-file reader drops
`min_separation_factor` and so cannot express the dense layouts.

The benchmark's --seed draws the detections (and, on clutter, the extra
boxes). The scene layouts, transforms and dropout, and the `ipd --seed`,
are fixed, so registration does the same work on every seed: how many
RANSAC iterations a pair needs is a matter of luck, and over 50 pairs of
20-40 instances the registration time of a dataset varied by about 20%
(interquartile) from layout to layout, which would hide any change
smaller than that. The dense dataset is fixed entirely: registration
fails on most of its pairs (a known fault), and its failure count must
not move with the seed.

Datasets are cached under `bench/.cache/<workload>-<seed>/`; a dataset is
written to a scratch directory first and renamed into place, so a cached
directory is always complete.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ipdkit.geometry import BBox, iou
from ipdkit.ingestion import parse_label_file, serialize_labels
from ipdkit.scenegen import (
    DetectorProfile,
    SceneIous,
    SceneSpec,
    emit_dataset,
    oracle_ipd,
    perturb_box_to_target_iou,
    pooled_oracle_ipd,
    random_affine,
)

FRAME = (1280, 960)
PROFILE_REAL = DetectorProfile(0.55, 0.95, 0.05)
PROFILE_SYNTH = DetectorProfile(0.5, 0.9, 0.05)

FIXED_SEED = 20241112  # everything that does not follow --seed
DENSE_INSTANCES = (120, 180, 250)

MID_PAIRS = 50
MID_INSTANCES = (20, 40)

CLUTTER_PAIRS = 100
CLUTTER_INSTANCES = (18, 22)
CLUTTER_EXTRA = (300, 500)  # extra prediction boxes per prediction file
CLUTTER_CONFIDENCE = (0.05, 0.65)  # straddles the default 0.25 threshold

WORKLOADS = ("mid", "dense", "clutter")


@dataclass(frozen=True)
class Dataset:
    """One generated dataset on disk; `ipd` runs on it with --seed FIXED_SEED."""

    root: Path
    n_pairs: int

    @property
    def manifest_real(self) -> Path:
        return self.root / "manifest_real.json"

    @property
    def manifest_synth(self) -> Path:
        return self.root / "manifest_synth.json"


def _scene(rng: np.random.Generator, n: int, dropout: float, **layout) -> SceneSpec:
    return SceneSpec(
        n_instances=n,
        frame=FRAME,
        transform=random_affine(rng, FRAME),
        center_noise_sigma=0.5,
        dropout_real=dropout,
        dropout_synth=dropout,
        detector_profile_real=PROFILE_REAL,
        detector_profile_synth=PROFILE_SYNTH,
        rng_seed=int(rng.integers(0, 2**63)),
        **layout,
    )


def scene_specs(workload: str) -> list[SceneSpec]:
    """The fixed scene specs of one workload."""
    rng = np.random.default_rng([WORKLOADS.index(workload), FIXED_SEED])
    if workload == "mid":
        return [_scene(rng, n, 0.1) for n in _ladder(MID_INSTANCES, MID_PAIRS)]
    if workload == "dense":
        return [_scene(rng, n, 0.2, min_separation_factor=2.0) for n in DENSE_INSTANCES]
    if workload == "clutter":
        return [_scene(rng, n, 0.0) for n in _ladder(CLUTTER_INSTANCES, CLUTTER_PAIRS)]
    raise ValueError(f"unknown workload {workload!r}")


def _ladder(span: tuple[int, int], count: int) -> list[int]:
    """Instance counts spread evenly over span."""
    return [int(n) for n in np.linspace(span[0], span[1], count).round()]


def _clutter_boxes(rng: np.random.Generator) -> list[BBox]:
    k = int(rng.integers(CLUTTER_EXTRA[0], CLUTTER_EXTRA[1] + 1))
    cx = rng.uniform(0.0, FRAME[0], k)
    cy = rng.uniform(0.0, FRAME[1], k)
    wh = rng.uniform(6.0, 12.0, (k, 2))
    conf = rng.uniform(CLUTTER_CONFIDENCE[0], CLUTTER_CONFIDENCE[1], k)
    return [
        BBox(float(cx[i]), float(cy[i]), float(wh[i, 0]), float(wh[i, 1]), confidence=float(conf[i]))
        for i in range(k)
    ]


def _add_clutter(root: Path, seed: int) -> None:
    """Append scattered low-quality detections to every prediction file."""
    rng = np.random.default_rng([len(WORKLOADS), seed])
    for side in ("real", "synth"):
        manifest = json.loads((root / f"manifest_{side}.json").read_text(encoding="utf-8"))
        for entry in manifest["entries"]:
            extra = serialize_labels(_clutter_boxes(rng), "pixel", FRAME)
            with open(root / entry["pred_label_path"], "a", encoding="utf-8") as f:
                f.write(extra)


def _redraw_detections(root: Path, seed: int) -> None:
    """Replace every prediction file by detections drawn from `seed` with
    the same detector profiles, and record their IOUs in truth.json."""
    rng = np.random.default_rng([len(WORKLOADS) + 1, seed])
    truth = json.loads((root / "truth.json").read_text(encoding="utf-8"))
    scenes = {s["image_id"]: s for s in truth["scenes"]}
    for side, profile in (("real", PROFILE_REAL), ("synth", PROFILE_SYNTH)):
        manifest = json.loads((root / f"manifest_{side}.json").read_text(encoding="utf-8"))
        for entry in manifest["entries"]:
            preds, ious = [], []
            for gt in parse_label_file(root / entry["gt_label_path"], "pixel", FRAME):
                if rng.random() < profile.miss_rate:
                    ious.append(0.0)
                    continue
                p = perturb_box_to_target_iou(gt, profile.target(rng.random()), rng)
                preds.append(BBox(p.cx, p.cy, p.w, p.h, confidence=float(rng.uniform(0.5, 0.99))))
                ious.append(iou(gt, preds[-1]))
            (root / entry["pred_label_path"]).write_text(
                serialize_labels(preds, "pixel", FRAME), encoding="utf-8"
            )
            scenes[entry["image_id"]][f"{side}_ious"] = ious
    pooled = []
    for s in truth["scenes"]:
        corr = [tuple(p) for p in s["correspondence"]]
        pooled.append((corr, SceneIous(tuple(s["real_ious"]), tuple(s["synth_ious"]))))
        s["oracle_ipd"] = oracle_ipd(*pooled[-1])
    truth["oracle_ipd"] = pooled_oracle_ipd(pooled)
    (root / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True), encoding="utf-8")


def build(workload: str, seed: int, cache: Path) -> Dataset:
    """Generate (or reuse) the dataset of `workload` for `seed`."""
    data_seed = FIXED_SEED if workload == "dense" else seed
    specs = scene_specs(workload)
    root = cache / f"{workload}-{data_seed}"
    if not root.is_dir():
        cache.mkdir(parents=True, exist_ok=True)
        scratch = cache / f".{workload}-{data_seed}.{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        emit_dataset(scratch, specs)
        if workload != "dense":
            _redraw_detections(scratch, seed)
        if workload == "clutter":
            _add_clutter(scratch, seed)
        try:
            scratch.rename(root)
        except OSError:  # another run finished the same dataset first
            shutil.rmtree(scratch, ignore_errors=True)
    return Dataset(root, len(specs))
