"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with the measured numbers.

Run with plain pytest; the summary lines bypass output capture so they
are visible in any log.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ipdkit.cli import main as cli_main
from ipdkit.geometry import (
    AffineTransform2D,
    fit_affine_batch,
    iou,
    transform_points,
)
from ipdkit.matching import (
    assignment_min_cost,
    default_gate_distance,
    match_instances,
)
from ipdkit.metric import (
    IpdResult,
    PerfRecord,
    closest_domain,
    cross_validation,
    evaluate_pair,
)
from ipdkit.baselines import average_precision
from ipdkit.registration import RegistrationConfig, register
from ipdkit.report import write_report
from ipdkit.scenegen import (
    DetectorProfile,
    SceneSpec,
    generate_scene_pair,
    oracle_ipd,
    random_affine,
)

from helpers import brute_force_assignment, grid_iou, image_labels, overlapping_box_pair

MASTER_SEED = 20260814
GOLDEN_TABLE = Path(__file__).parent / "data" / "table1_golden.md"


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_iou_oracle(capsys):
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b = overlapping_box_pair(rng)
        worst = max(worst, abs(iou(a, b) - grid_iou(a, b, cells=8000)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed <= 10.0
    _report(
        capsys,
        "iou-oracle",
        ok,
        f"1000 pairs, max |analytic - grid| = {worst:.2e} (<= 1e-3), {elapsed:.2f}s (<= 10s)",
    )


def test_affine_exact_fit(capsys):
    rng = np.random.default_rng(MASTER_SEED + 1)
    fitted = 0
    worst_rel = 0.0
    while fitted < 500:
        src = rng.uniform(0.0, 1000.0, size=(3, 2))
        t = random_affine(rng, (1000, 1000))
        dst = transform_points(t, src)
        params, valid = fit_affine_batch(src[None], dst[None])
        if not valid[0]:
            continue
        mapped = transform_points(AffineTransform2D.from_params(params[0]), src)
        residual = float(np.hypot(*(mapped - dst).T).max())
        extent = float((dst.max(axis=0) - dst.min(axis=0)).max())
        worst_rel = max(worst_rel, residual / extent)
        fitted += 1

    collinear = []
    for _ in range(100):
        p = np.array([rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)])
        d = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        collinear.append(
            [p + s * d for s in (0.0, rng.uniform(0.5, 2.0), rng.uniform(3.0, 9.0))]
        )
    collinear = np.array(collinear)
    rejected = int((~fit_affine_batch(collinear, collinear)[1]).sum())
    ok = worst_rel <= 1e-9 and rejected == 100
    _report(
        capsys,
        "affine-exact-fit",
        ok,
        f"500 triples, max residual/extent = {worst_rel:.2e} (<= 1e-9); "
        f"collinear rejected {rejected}/100",
    )


def _recovery_scene(master: np.random.Generator, index: int):
    frame = (1280, 960)
    t = random_affine(master, frame)
    n = int(master.integers(20, 51))
    spec = SceneSpec(
        n_instances=n,
        frame=frame,
        transform=t,
        center_noise_sigma=0.5,
        dropout_real=0.2,
        dropout_synth=0.2,
        detector_profile_real=DetectorProfile(0.55, 0.95),
        detector_profile_synth=DetectorProfile(0.5, 0.9),
        rng_seed=int(master.integers(0, 2**63)),
    )
    return spec


def _run_pipeline(spec: SceneSpec, reg_seed: int):
    real, synth, corr, ious = generate_scene_pair(spec)
    real_centers = real.gt.xywh[:, :2]
    synth_centers = synth.gt.xywh[:, :2]
    start = time.perf_counter()
    reg = register(synth_centers, real_centers, RegistrationConfig(rng_seed=reg_seed))
    gate = default_gate_distance(real.gt.xywh)
    pairing = match_instances(reg.transform, synth_centers, real_centers, gate)
    elapsed = time.perf_counter() - start
    return real, synth, corr, ious, pairing, elapsed


def test_registration_recovery(capsys):
    master = np.random.default_rng(MASTER_SEED)
    good = 0
    slowest = 0.0
    recalls = []
    for i in range(100):
        spec = _recovery_scene(master, i)
        _, _, corr, _, pairing, elapsed = _run_pipeline(spec, reg_seed=MASTER_SEED + i)
        slowest = max(slowest, elapsed)
        truth = set(corr)
        found = {(r, s) for r, s, _ in pairing.pairs}
        recall = len(found & truth) / len(truth) if truth else 1.0
        recalls.append(recall)
        if recall >= 0.95:
            good += 1
    ok = good >= 95 and slowest <= 1.0
    _report(
        capsys,
        "registration-recovery",
        ok,
        f"{good}/100 scenes >= 95% correct (need >= 95), mean recall "
        f"{np.mean(recalls):.4f}, slowest scene {slowest * 1000:.0f}ms (<= 1000ms)",
    )


def test_assignment_optimality(capsys):
    rng = np.random.default_rng(MASTER_SEED + 2)
    exact = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 10))
        if rng.random() < 0.5:
            n, m = m, n
        if min(n, m) > 7:  # keep the brute force tractable
            m = 7
        cost = rng.uniform(0.0, 100.0, size=(n, m))
        rows, cols = assignment_min_cost(cost)
        # replicate the oracle's summation order so equal minima compare
        # bit-for-bit
        pairs = sorted(zip(rows, cols), key=(lambda rc: rc[0]) if n <= m else (lambda rc: rc[1]))
        total = 0.0
        for r, c in pairs:
            total += float(cost[r, c])
        if total == brute_force_assignment(cost):
            exact += 1
    ok = exact == 200
    _report(
        capsys,
        "assignment-optimality",
        ok,
        f"{exact}/200 random matrices equal the brute-force minimum exactly",
    )


def test_algorithm_equivalence(capsys):
    master = np.random.default_rng(MASTER_SEED + 3)
    recovered = 0
    worst_gap = 0.0
    worst_identical = 0.0
    identical_runs = 0
    for i in range(50):
        frame = (1280, 960)
        identical = i % 5 == 0
        if identical:
            profile = DetectorProfile(
                float(master.uniform(0.4, 0.7)), float(master.uniform(0.75, 0.95)), 0.1
            )
            profile_real, profile_synth = profile, profile
        else:
            profile_real = DetectorProfile(
                float(master.uniform(0.5, 0.7)), float(master.uniform(0.8, 0.97)), 0.1
            )
            profile_synth = DetectorProfile(
                float(master.uniform(0.3, 0.5)), float(master.uniform(0.6, 0.8)), 0.1
            )
        spec = SceneSpec(
            n_instances=int(master.integers(15, 40)),
            frame=frame,
            transform=random_affine(master, frame),
            center_noise_sigma=0.5,
            dropout_real=0.15,
            dropout_synth=0.15,
            detector_profile_real=profile_real,
            detector_profile_synth=profile_synth,
            rng_seed=int(master.integers(0, 2**63)),
        )
        real, synth, corr, ious, pairing, _ = _run_pipeline(spec, reg_seed=7000 + i)
        if {(r, s) for r, s, _ in pairing.pairs} != set(corr):
            continue
        recovered += 1
        result = evaluate_pair([real], [synth], [pairing], conf_threshold=0.25)
        oracle = oracle_ipd(corr, ious)
        worst_gap = max(worst_gap, abs(result.ipd - oracle))
        if identical:
            identical_runs += 1
            worst_identical = max(worst_identical, result.ipd)
    ok = recovered >= 45 and worst_gap <= 2e-3 and identical_runs > 0 and worst_identical <= 2e-3
    _report(
        capsys,
        "algorithm-equivalence",
        ok,
        f"{recovered}/50 scenarios recovered the true pairing; max |pipeline - oracle| "
        f"= {worst_gap:.2e} (<= 2e-3); identical profiles ({identical_runs} runs) max IPD "
        f"= {worst_identical:.2e} (<= 2e-3)",
    )


def test_ipd_algebra(capsys):
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst_decomp = 0.0
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 41))
        p_real = rng.uniform(0.0, 1.0, size=n)
        p_synth = rng.uniform(0.0, 1.0, size=n)
        images = [f"img{int(v)}" for v in rng.integers(0, 5, size=n)]

        def result(a, b):
            return IpdResult(
                tuple(
                    PerfRecord(images[i], i, i, float(a[i]), float(b[i]))
                    for i in range(n)
                )
            )

        forward = result(p_real, p_synth)
        ok = ok and 0.0 <= forward.ipd <= 1.0
        ok = ok and result(p_real, p_real).ipd == 0.0
        ok = ok and result(p_synth, p_real).ipd == forward.ipd
        weighted = math.fsum(v * c for _, v, c in forward.per_image_breakdown)
        worst_decomp = max(
            worst_decomp, abs(weighted / forward.instance_count - forward.ipd)
        )
    ok = ok and worst_decomp <= 1e-12
    _report(
        capsys,
        "ipd-algebra",
        ok,
        "200 randomized record sets: reflexivity exact, symmetry exact, range in "
        f"[0,1], max decomposition error = {worst_decomp:.2e} (<= 1e-12)",
    )


TABLE1 = {
    ("Real", ("Real", "Principled")): 0.2256,
    ("Real", ("Real", "Hapke")): 0.3152,
    ("Principled", ("Principled", "Hapke")): 0.0511,
    ("Principled", ("Real", "Principled")): 0.3808,
    ("Hapke", ("Principled", "Hapke")): 0.0261,
    ("Hapke", ("Real", "Hapke")): 0.4638,
}


def test_table1_golden(capsys):
    domains = ("Real", "Principled", "Hapke")
    rendered = write_report(domains, TABLE1, fmt="markdown")
    golden = GOLDEN_TABLE.read_text(encoding="utf-8")
    closest = closest_domain(cross_validation(domains, TABLE1)[0])
    ok = rendered == golden and closest == "Principled"
    _report(
        capsys,
        "table1-golden",
        ok,
        f"markdown {'matches' if rendered == golden else 'differs from'} golden file; "
        f"closest domain to Real = {closest!r}",
    )


def test_ap_sanity(capsys):
    def box(cx, cy, conf=None):
        return (cx, cy, 4.0, 4.0, conf)

    gt = {"a": [box(10, 10), box(60, 60)], "b": [box(30, 30)]}
    perfect = {
        "a": [box(10, 10, 0.9), box(60, 60, 0.8)],
        "b": [box(30, 30, 0.7)],
    }
    ap_perfect = average_precision([image_labels(i, gt[i], perfect[i]) for i in gt])
    ap_empty = average_precision([image_labels(i, gt[i]) for i in gt])
    traced_gt = [box(10, 10), box(60, 60)]
    traced_pred = [box(200, 200, 0.9), box(10, 10, 0.5)]
    ap_traced = average_precision([image_labels("a", traced_gt, traced_pred)])
    ok = ap_perfect == 1.0 and ap_empty == 0.0 and ap_traced == 0.25
    _report(
        capsys,
        "ap-sanity",
        ok,
        f"perfect = {ap_perfect} (== 1.0), empty = {ap_empty} (== 0.0), "
        f"hand-traced = {ap_traced} (== 0.25)",
    )


def test_report_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    code = cli_main(
        [
            "scenegen",
            "--out", str(data),
            "--scenes", "3",
            "--instances", "10:20",
            "--seed", "3",
            "--transform", "random",
            "--sigma", "0.5",
            "--profile-real", "0.6:0.95:0.1",
            "--profile-synth", "0.5:0.8:0.1",
            "--dropout-real", "0.1",
            "--dropout-synth", "0.1",
        ]
    )
    assert code == 0
    argv = [
        "ipd",
        str(data / "manifest_real.json"),
        str(data / "manifest_synth.json"),
        "--seed", "42",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(argv + ["--out", str(a)])
    code_b = cli_main(argv + ["--out", str(b)])
    capsys.readouterr()  # swallow the CLI's stdout
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    ipd_value = json.loads(a.read_text())["result"]["ipd"]
    _report(
        capsys,
        "report-determinism",
        ok,
        f"two cmd_ipd runs byte-identical = {identical} (ipd = {ipd_value:.6f})",
    )
