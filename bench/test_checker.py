"""The benchmark's report checker must pass a correct `ipd` report and
catch a wrong transform and a perturbed IPD."""

import json

import numpy as np
import pytest

from checker import check_report, iou_matrix
from ipdkit.cli import main
from ipdkit.geometry import BBox, iou
from ipdkit.scenegen import DetectorProfile, SceneSpec, emit_dataset, random_affine


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("checker")
    rng = np.random.default_rng(11)
    specs = [
        SceneSpec(
            n_instances=20,
            transform=random_affine(rng, (1280, 960)),
            center_noise_sigma=0.5,
            dropout_real=0.1,
            dropout_synth=0.1,
            detector_profile_real=DetectorProfile(0.55, 0.95, 0.05),
            detector_profile_synth=DetectorProfile(0.5, 0.9, 0.05),
            rng_seed=int(rng.integers(0, 2**63)),
        )
        for _ in range(3)
    ]
    emit_dataset(root, specs)
    report = root / "report.json"
    args = ["ipd", str(root / "manifest_real.json"), str(root / "manifest_synth.json")]
    assert main(args + ["--seed", "5", "--out", str(report)]) == 0
    return root, report.read_text(encoding="utf-8")


def _edit(report_text, change):
    doc = json.loads(report_text)
    change(doc)
    return json.dumps(doc)


def test_correct_report_passes(dataset):
    root, report = dataset
    res = check_report(root, report)
    assert res.errors == []
    assert res.attempted == 3 and res.failed == 0
    assert res.instances_recovered == res.true_instances > 0
    assert abs(res.reported_ipd - res.expected_ipd) <= 2e-3


def test_wrong_transform_is_a_failed_pair(dataset):
    root, report = dataset

    def shift(doc):
        doc["provenance"]["pairs"][1]["registration"]["transform"][4] += 40.0

    res = check_report(root, _edit(report, shift))
    assert res.failed_pairs == ["scene0001"]
    assert res.instances_recovered < res.true_instances


def test_perturbed_ipd_is_an_error(dataset):
    root, report = dataset

    def perturb(doc):
        doc["result"]["ipd"] += 1e-4

    res = check_report(root, _edit(report, perturb))
    assert res.failed == 0
    assert any("breakdown does not average" in e for e in res.errors)
    assert any("differs from the recomputed" in e for e in res.errors)


def test_unbalanced_counts_are_an_error(dataset):
    root, report = dataset

    def drop(doc):
        doc["provenance"]["pairs"][0]["unmatched_real"] += 1

    res = check_report(root, _edit(report, drop))
    assert any("matched + unmatched_real" in e for e in res.errors)


def test_iou_matrix_matches_scalar_iou():
    rng = np.random.default_rng(3)
    boxes = np.column_stack([rng.uniform(0, 40, (30, 2)), rng.uniform(1, 20, (30, 2))])
    got = iou_matrix(boxes[:10], boxes[10:])
    want = [[iou(BBox(*g), BBox(*p)) for p in boxes[10:]] for g in boxes[:10]]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
