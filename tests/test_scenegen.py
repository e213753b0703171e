"""Tests for the paired-scene generator and its ground-truth oracle."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ipdkit.errors import InputValidationError
from ipdkit.geometry import AffineTransform2D, iou, iou_table, transform_points
from ipdkit.ingestion import _read_uniform, load_dataset, merge_pairings, pair_datasets
from ipdkit.scenegen import (
    RANDOM_AFFINE_MAX_TRANSLATION_FRAC,
    RANDOM_AFFINE_SCALE_RANGE,
    DetectorProfile,
    SceneIous,
    SceneSpec,
    emit_dataset,
    generate_scene_pair,
    oracle_ipd,
    perturb_box_to_target_iou,
    pooled_oracle_ipd,
    random_affine,
    _place_centers,
    _shift_to_target_iou,
)
from helpers import bisect_shift, random_box


class TestDetectorProfile:
    def test_target_interpolates(self):
        p = DetectorProfile(0.5, 0.9)
        assert p.target(0.0) == 0.5
        assert p.target(1.0) == pytest.approx(0.9)
        assert p.target(0.5) == pytest.approx(0.7)

    def test_validation(self):
        for low, high in ((0.0, 0.5), (0.6, 0.5), (0.5, 1.1)):
            with pytest.raises(InputValidationError):
                DetectorProfile(low, high)
        with pytest.raises(InputValidationError):
            DetectorProfile(0.5, 0.9, miss_rate=1.0)


class TestSceneSpecValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(InputValidationError):
            SceneSpec(n_instances=-1)
        with pytest.raises(InputValidationError):
            SceneSpec(n_instances=1, dropout_real=1.0)
        with pytest.raises(InputValidationError):
            SceneSpec(n_instances=1, center_noise_sigma=-0.5)
        with pytest.raises(InputValidationError):
            SceneSpec(n_instances=1, size_range=(0.0, 5.0))
        with pytest.raises(InputValidationError):
            SceneSpec(n_instances=1, center_region=(0.5, 0.4))
        with pytest.raises(InputValidationError, match="frame"):
            SceneSpec(n_instances=1, frame=(0, 960))
        with pytest.raises(InputValidationError, match="min_separation_factor"):
            SceneSpec(n_instances=1, min_separation_factor=-1.0)
        for confidence_range in ((0.5, 1.5), (-0.1, 0.5)):
            with pytest.raises(InputValidationError, match="confidence_range"):
                SceneSpec(n_instances=1, confidence_range=confidence_range)

    @pytest.mark.parametrize(
        "size_range",
        [
            (1.0, math.inf),
            (math.inf, math.inf),
            (1.0, math.nan),
            # boxes whose area underflows to 0 or overflows, accepted before
            (1e-200, 1e-200),
            (1e160, 1e160),
        ],
    )
    def test_rejects_a_non_finite_size_range(self, size_range):
        with pytest.raises(InputValidationError, match="size_range"):
            SceneSpec(n_instances=1, size_range=size_range)

    @pytest.mark.parametrize(
        "params",
        [
            (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),  # an all-zero row: zero-width boxes
            (1.0, 0.0, -0.0, 0.0, 0.0, 0.0),
            (1e308, 0.0, 0.0, 1.0, 0.0, 0.0),  # sides that overflow to inf
            # real boxes whose area underflows to 0, accepted before
            (1e-200, 0.0, 0.0, 1e-200, 640.0, 480.0),
        ],
    )
    def test_rejects_a_transform_that_breaks_the_box_rules(self, params):
        with pytest.raises(InputValidationError, match="transform row"):
            SceneSpec(n_instances=1, transform=AffineTransform2D.from_params(params))
        # a shear with one zero entry per row keeps every side positive
        SceneSpec(n_instances=1, transform=AffineTransform2D(0.0, 1.0, 1.0, 0.0, 0.0, 0.0))


class TestPerturbBoxToTargetIou:
    def test_hits_target_within_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            gt = random_box(rng)
            target = float(rng.uniform(0.05, 0.999))
            moved = perturb_box_to_target_iou(gt, target, rng)
            assert abs(iou(gt, moved) - target) <= 1e-3
            assert (moved.w, moved.h) == (gt.w, gt.h)

    def test_target_one_returns_box_unchanged(self):
        rng = np.random.default_rng(1)
        gt = random_box(rng)
        assert perturb_box_to_target_iou(gt, 1.0, rng) is gt

    def test_batch_bisection_equals_the_scalar_reference(self):
        # every row stops at the iteration a bisection of that box alone
        # stops at, so the batch lands on the same bits
        rng = np.random.default_rng(12)
        boxes = [random_box(rng) for _ in range(300)]
        angles = rng.uniform(0.0, 2.0 * math.pi, 300).tolist()
        dx = np.array([math.cos(a) for a in angles])
        dy = np.array([math.sin(a) for a in angles])
        norm = np.array([math.hypot(x, y) for x, y in zip(dx.tolist(), dy.tolist())])
        target = rng.uniform(0.05, 1.0, 300)
        target[::7] = 1.0
        target[1::7] = 1.0 - rng.uniform(0.0, 2e-4, len(target[1::7]))
        gt = np.array([[b.cx, b.cy, b.w, b.h] for b in boxes])
        got = _shift_to_target_iou(gt, dx, dy, norm, target)
        want = [
            bisect_shift(b, (x, y), t)
            for b, x, y, t in zip(boxes, dx.tolist(), dy.tolist(), target.tolist())
        ]
        assert got.tobytes() == np.array([[b.cx, b.cy, b.w, b.h] for b in want]).tobytes()

    def test_rejects_bad_targets(self):
        rng = np.random.default_rng(3)
        gt = random_box(rng)
        for bad in (0.0, -0.2, 1.0001):
            with pytest.raises(InputValidationError):
                perturb_box_to_target_iou(gt, bad, rng)


class TestRandomAffine:
    def test_singular_values_respect_scale_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = random_affine(rng, (1280, 960))
            linear = np.array([[t.a11, t.a12], [t.a21, t.a22]])
            s = np.linalg.svd(linear, compute_uv=False)
            low, high = RANDOM_AFFINE_SCALE_RANGE
            assert low - 1e-9 <= s.min() and s.max() <= high + 1e-9

    def test_frame_center_stays_near_center(self):
        rng = np.random.default_rng(6)
        frame = (1000, 800)
        for _ in range(20):
            t = random_affine(rng, frame)
            (x, y), = transform_points(t, np.array([[500.0, 400.0]]))
            shift = RANDOM_AFFINE_MAX_TRANSLATION_FRAC
            assert abs(x - 500.0) <= shift * frame[0] + 1e-9
            assert abs(y - 400.0) <= shift * frame[1] + 1e-9


def _spec(**overrides):
    base = dict(
        n_instances=20,
        frame=(1280, 960),
        center_noise_sigma=0.5,
        dropout_real=0.2,
        dropout_synth=0.2,
        detector_profile_real=DetectorProfile(0.55, 0.95, miss_rate=0.1),
        detector_profile_synth=DetectorProfile(0.5, 0.9, miss_rate=0.1),
        rng_seed=99,
    )
    base.update(overrides)
    return SceneSpec(**base)


class TestGenerateScenePair:
    def test_deterministic(self):
        spec = _spec()
        assert generate_scene_pair(spec) == generate_scene_pair(spec)

    def test_no_dropout_gives_identity_correspondence(self):
        spec = _spec(dropout_real=0.0, dropout_synth=0.0)
        real, synth, corr, ious = generate_scene_pair(spec)
        assert len(real.gt_boxes) == len(synth.gt_boxes) == 20
        assert corr == tuple((i, i) for i in range(20))

    def test_correspondence_indices_are_valid_and_increasing(self):
        real, synth, corr, ious = generate_scene_pair(_spec())
        rs = [r for r, _ in corr]
        ss = [s for _, s in corr]
        assert rs == sorted(rs) and ss == sorted(ss)
        assert all(0 <= r < len(real.gt_boxes) for r in rs)
        assert all(0 <= s < len(synth.gt_boxes) for s in ss)
        assert len(ious.real) == len(real.gt_boxes)
        assert len(ious.synth) == len(synth.gt_boxes)

    def test_realized_ious_land_in_profile_window(self):
        real, synth, corr, ious = generate_scene_pair(_spec())
        for v in ious.real:
            assert v == 0.0 or 0.55 - 1e-3 <= v <= 0.95 + 1e-3
        for v in ious.synth:
            assert v == 0.0 or 0.5 - 1e-3 <= v <= 0.9 + 1e-3

    def test_row_max_equals_realized_iou(self):
        # instances are kept far apart, so the best IOU any prediction
        # achieves against a GT box is that box's own prediction
        real, synth, corr, ious = generate_scene_pair(_spec())
        for labels, realized in ((real, ious.real), (synth, ious.synth)):
            row_max = iou_table(labels.gt.xywh, labels.pred.xywh).max(axis=1, initial=0.0)
            assert row_max.tolist() == list(realized)

    def test_identical_profiles_pin_the_gap_near_zero(self):
        profile = DetectorProfile(0.55, 0.95, miss_rate=0.1)
        spec = _spec(detector_profile_real=profile, detector_profile_synth=profile)
        _, _, corr, ious = generate_scene_pair(spec)
        assert corr
        assert oracle_ipd(corr, ious) <= 2e-3

    def test_transform_carries_centers(self):
        t = AffineTransform2D(0.9, -0.2, 0.2, 0.9, 30.0, -12.0)
        spec = _spec(transform=t, center_noise_sigma=0.0, dropout_real=0.0, dropout_synth=0.0)
        real, synth, corr, _ = generate_scene_pair(spec)
        rows, cols = np.array(corr).T
        moved = transform_points(t, synth.gt.xywh[cols, :2])
        assert np.abs(real.gt.xywh[rows, :2] - moved).max() < 1e-9

    def test_empty_scene(self):
        real, synth, corr, ious = generate_scene_pair(_spec(n_instances=0))
        assert real.gt_boxes == () and synth.gt_boxes == ()
        assert corr == ()
        assert ious == SceneIous((), ())

    def test_impossible_density_raises(self):
        spec = _spec(n_instances=500, frame=(100, 100))
        with pytest.raises(InputValidationError, match="separation"):
            generate_scene_pair(spec)

    def test_impossible_density_is_refused_before_any_draw(self):
        # by the disc-packing bound, a 100 x 100 px layout region holds at
        # most 9 centers 60 px apart: 5000 is refused without a draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InputValidationError, match="could not place 5000 instances"):
            _place_centers(SceneSpec(n_instances=5000, frame=(200, 200)), rng)
        assert rng.bit_generator.state == state
        # a count within the bound is left to the trial placement
        with pytest.raises(InputValidationError, match="could not place 9 instances"):
            _place_centers(SceneSpec(n_instances=9, frame=(200, 200)), rng)
        assert rng.bit_generator.state != state


class TestOracles:
    def test_oracle_ipd_hand_example(self):
        ious = SceneIous(real=(1.0, 0.5, 0.0), synth=(0.5, 0.5))
        assert oracle_ipd(((0, 0), (1, 1)), ious) == pytest.approx(0.25)

    def test_oracle_ipd_empty(self):
        assert oracle_ipd((), SceneIous((), ())) is None

    def test_pooled_oracle_weights_by_instance(self):
        a = (((0, 0),), SceneIous((1.0,), (0.0,)))  # gap 1.0, one pair
        b = (((0, 0), (1, 1)), SceneIous((0.5, 0.5), (0.5, 0.5)))  # gap 0, two pairs
        assert pooled_oracle_ipd([a, b]) == pytest.approx(1.0 / 3.0)
        assert pooled_oracle_ipd([]) is None


class TestEmitDataset:
    def test_round_trip_matches_generation(self, tmp_path):
        specs = [_spec(rng_seed=7), _spec(rng_seed=8, n_instances=12)]
        real_path, synth_path, truth_path = emit_dataset(tmp_path, specs)

        real_labels, real_manifest = load_dataset(real_path)
        synth_labels, synth_manifest = load_dataset(synth_path)
        pairing = merge_pairings(real_manifest.pairing, synth_manifest.pairing)
        pairs = pair_datasets(real_labels, synth_labels, pairing)
        assert len(pairs) == 2

        for i, spec in enumerate(specs):
            gen_real, gen_synth, _, _ = generate_scene_pair(spec, image_id=f"scene{i:04d}")
            assert pairs[i][0] == gen_real
            assert pairs[i][1] == gen_synth

    @pytest.mark.parametrize("mode", ["pixel", "normalized"])
    def test_numpy_reader_takes_every_label_file_written(self, tmp_path, mode):
        # the benchmark's workloads are written here; a header comment or
        # another line format would move them all onto the per-line scan,
        # which reads the same boxes, only slower
        rng = np.random.default_rng(3)
        specs = [_spec(rng_seed=7), _spec(rng_seed=8, transform=random_affine(rng, (1280, 960)))]
        emit_dataset(tmp_path, specs, mode)
        files = [p for p in sorted(tmp_path.glob("*/*.txt")) if p.read_text().strip()]
        assert len(files) == 8
        for path in files:
            lines = path.read_text().splitlines()
            assert _read_uniform(lines, mode, (1280, 960)) is not None, path

    def test_a_numpy_integer_frame_writes_json_manifests(self, tmp_path):
        spec = _spec(frame=(np.int64(1280), np.int64(960)))
        assert type(spec.frame[0]) is int
        real_path, _, _ = emit_dataset(tmp_path, [spec])
        assert json.loads(real_path.read_text())["entries"][0]["width_px"] == 1280

    def test_truth_sidecar_is_consistent(self, tmp_path):
        specs = [_spec(rng_seed=7), _spec(rng_seed=8)]
        _, _, truth_path = emit_dataset(tmp_path, specs)
        truth = json.loads(truth_path.read_text())
        assert len(truth["scenes"]) == 2

        pooled = []
        for i, (spec, scene) in enumerate(zip(specs, truth["scenes"])):
            _, _, corr, ious = generate_scene_pair(spec, image_id=f"scene{i:04d}")
            assert [list(p) for p in corr] == scene["correspondence"]
            assert tuple(scene["real_ious"]) == ious.real
            assert scene["oracle_ipd"] == pytest.approx(oracle_ipd(corr, ious))
            pooled.append((corr, ious))
        assert truth["oracle_ipd"] == pytest.approx(pooled_oracle_ipd(pooled))

    def test_normalized_mode_round_trips(self, tmp_path):
        # dividing by the frame size and multiplying back is lossy at the
        # last bit, so normalized mode round-trips only to float round-off
        # (pixel mode, used everywhere else, is exact)
        specs = [_spec(rng_seed=3, n_instances=6)]
        real_path, _, _ = emit_dataset(tmp_path, specs, coordinate_mode="normalized")
        labels, _ = load_dataset(real_path)
        gen_real, _, _, _ = generate_scene_pair(specs[0], image_id="scene0000")
        assert len(labels[0].gt_boxes) == len(gen_real.gt_boxes)
        for loaded, generated in zip(
            labels[0].gt_boxes + labels[0].pred_boxes,
            gen_real.gt_boxes + gen_real.pred_boxes,
        ):
            for name in ("cx", "cy", "w", "h"):
                assert getattr(loaded, name) == pytest.approx(
                    getattr(generated, name), abs=1e-9
                )
            assert loaded.confidence == generated.confidence


# SHA-256 of every file emit_dataset writes for _pinned_specs(). The
# benchmark builds its inputs with this generator, so any numeric drift
# in it (the affine map, noise, dropout, detector draws, serialization)
# silently changes what gets measured; this pins the bytes.
PINNED_DIGESTS = Path(__file__).parent / "data" / "scenegen_sha256.json"


def _pinned_specs():
    rng = np.random.default_rng(20241112)
    specs = []
    for n, sigma, dropout in ((12, 0.0, 0.0), (30, 0.5, 0.2), (0, 0.5, 0.2)):
        specs.append(
            _spec(
                n_instances=n,
                transform=random_affine(rng, (1280, 960)),
                center_noise_sigma=sigma,
                dropout_real=dropout,
                dropout_synth=dropout,
                rng_seed=int(rng.integers(0, 2**63)),
            )
        )
    return specs


@pytest.mark.parametrize("mode", ["pixel", "normalized"])
def test_emitted_files_are_pinned(tmp_path, mode):
    emit_dataset(tmp_path, _pinned_specs(), coordinate_mode=mode)
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert got == json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))[mode]
