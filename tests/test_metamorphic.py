"""Metamorphic relations of the whole pipeline: transformations of a
dataset whose effect on the IPD and the matched pairs is known in
advance, run through evaluate_dataset_pair on recoverable scenes."""

from dataclasses import replace

import numpy as np
import pytest

from ipdkit import DetectorProfile, SceneSpec, emit_dataset, random_affine
from ipdkit.cli import PipelineConfig, evaluate_dataset_pair
from ipdkit.ingestion import load_dataset, pair_datasets

CONFIG = PipelineConfig(seed=7)


def _specs() -> list[SceneSpec]:
    # 20 scenes of 20-40 GT under random maps, 0.5 px noise and 10%
    # dropout per side: every pair is recovered
    rng = np.random.default_rng(2024)
    frame = (1280, 960)
    return [
        SceneSpec(
            n_instances=int(rng.integers(20, 41)),
            frame=frame,
            transform=random_affine(rng, frame),
            center_noise_sigma=0.5,
            dropout_real=0.1,
            dropout_synth=0.1,
            detector_profile_real=DetectorProfile(0.55, 0.95),
            detector_profile_synth=DetectorProfile(0.5, 0.9),
            rng_seed=int(rng.integers(0, 2**63)),
        )
        for _ in range(20)
    ]


def _load(real_manifest, synth_manifest):
    real, real_m = load_dataset(real_manifest)
    synth, _ = load_dataset(synth_manifest)
    return pair_datasets(real, synth, real_m.pairing)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """The scenes as read back from pixel and from normalized label files."""
    specs = _specs()
    root = tmp_path_factory.mktemp("metamorphic")
    return {
        mode: _load(*emit_dataset(root / mode, specs, mode)[:2])
        for mode in ("pixel", "normalized")
    }


@pytest.fixture(scope="module")
def base(datasets):
    return evaluate_dataset_pair(datasets["pixel"], CONFIG)


def _matched(outcomes) -> list[list[tuple[int, int]]]:
    return [[(r, s) for r, s, _ in outcome.pairing.pairs] for outcome in outcomes]


def test_base_scenes_are_recovered(base):
    # the relations below are only meaningful where registration works
    result, outcomes = base
    assert all(not outcome.registration.used_fallback for outcome in outcomes)
    assert result.instance_count > 20 * 15


def test_scaling_and_shifting_the_synthetic_side_keeps_the_ipd(datasets, base):
    def moved(boxes: np.ndarray) -> np.ndarray:
        out = boxes.copy()
        out[:, :4] = boxes[:, :4] * 2.0 + np.array([10.0, 20.0, 0.0, 0.0])
        return out

    def grown(synth):
        width, height = 2 * synth.width_px + 10, 2 * synth.height_px + 20
        boxes = {"gt": moved(synth.gt), "pred": moved(synth.pred)}
        return replace(synth, width_px=width, height_px=height, **boxes)

    pairs = [(real, grown(synth)) for real, synth in datasets["pixel"]]
    result, outcomes = evaluate_dataset_pair(pairs, CONFIG)
    assert _matched(outcomes) == _matched(base[1])
    assert abs(result.ipd - base[0].ipd) <= 1e-12


def test_a_copy_of_every_pair_doubles_the_count_and_keeps_the_ipd(datasets, base):
    copies = [
        tuple(replace(labels, image_id=f"copy-{labels.image_id}") for labels in pair)
        for pair in datasets["pixel"]
    ]
    result, outcomes = evaluate_dataset_pair(datasets["pixel"] + copies, CONFIG)
    assert result.instance_count == 2 * base[0].instance_count
    assert _matched(outcomes) == 2 * _matched(base[1])
    assert abs(result.ipd - base[0].ipd) <= 1e-12


def test_swapping_the_sides_keeps_the_ipd_and_transposes_the_pairs(datasets):
    # the default gate is read off the real side, so both directions
    # get the same explicit one
    config = replace(CONFIG, gate=6.0)
    forward, forward_outcomes = evaluate_dataset_pair(datasets["pixel"], config)
    swapped = [(synth, real) for real, synth in datasets["pixel"]]
    backward, backward_outcomes = evaluate_dataset_pair(swapped, config)
    transposed = [sorted((s, r) for r, s in pairs) for pairs in _matched(backward_outcomes)]
    assert transposed == _matched(forward_outcomes)
    assert abs(backward.ipd - forward.ipd) <= 1e-12


def test_pixel_and_normalized_label_files_agree(datasets, base):
    result, outcomes = evaluate_dataset_pair(datasets["normalized"], CONFIG)
    assert _matched(outcomes) == _matched(base[1])
    assert abs(result.ipd - base[0].ipd) <= 1e-12


def test_mirroring_both_sides_keeps_the_ipd_and_the_pairs(datasets, base):
    # cx -> width - cx on every box of both sides: the map between the
    # mirrored sides keeps orientation, and the search favours neither
    # handedness. Mirroring one side only is not registered.
    def mirrored(labels):
        def flip(boxes: np.ndarray) -> np.ndarray:
            out = boxes.copy()
            out[:, 0] = labels.width_px - boxes[:, 0]
            return out

        return replace(labels, gt=flip(labels.gt), pred=flip(labels.pred))

    pairs = [(mirrored(real), mirrored(synth)) for real, synth in datasets["pixel"]]
    result, outcomes = evaluate_dataset_pair(pairs, CONFIG)
    assert _matched(outcomes) == _matched(base[1])
    assert abs(result.ipd - base[0].ipd) <= 1e-12
