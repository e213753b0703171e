import math

import numpy as np
import pytest

import ipdkit.registration as reg
from ipdkit import (
    AffineTransform2D,
    DetectorProfile,
    InputValidationError,
    RegistrationConfig,
    SceneSpec,
    fallback_translation,
    fit_affine_batch,
    generate_scene_pair,
    random_affine,
    register,
)
from ipdkit.cli import align_pair
from ipdkit.geometry import transform_points


def scatter(rng, n, span=1000.0):
    return rng.uniform(0.0, span, size=(n, 2))


T_TRUE = AffineTransform2D(1.1, 0.25, -0.2, 0.9, 140.0, -60.0)


def test_config_validation():
    with pytest.raises(InputValidationError):
        RegistrationConfig(max_iterations=0)


def test_batch_affine_solver_matches_exact_fit():
    rng = np.random.default_rng(2)
    src = rng.uniform(-100, 100, size=(200, 3, 2))
    dst = rng.uniform(-100, 100, size=(200, 3, 2))
    params, valid = fit_affine_batch(src, dst)
    assert valid.all()
    for i in range(len(src)):
        # solve [x y 1] @ [[a11 a21], [a12 a22], [tx ty]] = [u v] directly
        sol = np.linalg.solve(np.column_stack([src[i], np.ones(3)]), dst[i])
        want = (sol[0, 0], sol[1, 0], sol[0, 1], sol[1, 1], sol[2, 0], sol[2, 1])
        assert np.allclose(params[i], want, rtol=1e-9, atol=1e-9)


def test_register_recovers_exact_transform_on_clean_points():
    rng = np.random.default_rng(0)
    synth = scatter(rng, 25)
    real = transform_points(T_TRUE, synth)
    res = register(synth, real, RegistrationConfig(rng_seed=1))
    assert not res.used_fallback
    moved = transform_points(res.transform, synth)
    assert np.max(np.hypot(*(moved - real).T)) < 1e-6


def test_register_handles_noise_and_dropout():
    rng = np.random.default_rng(4)
    base = scatter(rng, 30)
    keep_s = rng.random(30) > 0.2
    keep_r = rng.random(30) > 0.2
    synth = base[keep_s]
    real = transform_points(T_TRUE, base[keep_r]) + rng.normal(0, 0.5, (int(keep_r.sum()), 2))
    res = register(synth, real, RegistrationConfig(rng_seed=3))
    shared = base[keep_s & keep_r]
    err = transform_points(res.transform, shared) - transform_points(T_TRUE, shared)
    assert np.median(np.hypot(*err.T)) < 2.0


def test_register_is_deterministic():
    rng = np.random.default_rng(9)
    synth = scatter(rng, 20)
    real = transform_points(T_TRUE, synth) + rng.normal(0, 0.3, (20, 2))
    a = register(synth, real, RegistrationConfig(rng_seed=7))
    b = register(synth, real, RegistrationConfig(rng_seed=7))
    assert a == b


def test_register_result_independent_of_chunk_size(monkeypatch):
    # an unreachable consensus floor keeps the exit from firing, so both
    # runs spend the whole budget and must agree on the winner
    rng = np.random.default_rng(12)
    synth = scatter(rng, 18)
    real = transform_points(T_TRUE, synth) + rng.normal(0, 0.4, (18, 2))
    monkeypatch.setattr(reg, "_CONSENSUS_EXIT_FRACTION", 2.0)
    cfg = RegistrationConfig(rng_seed=5, max_iterations=200)
    baseline = register(synth, real, cfg)
    assert baseline.iterations_used == cfg.max_iterations
    monkeypatch.setattr(reg, "_BATCH_ITERATIONS", 17)
    chunked = register(synth, real, cfg)
    assert chunked == baseline


def test_register_explicit_zero_early_exit_uses_full_budget(monkeypatch):
    # with the exit disabled (an unreachable consensus floor), even an exact
    # transform that is found early does not stop the search
    rng = np.random.default_rng(13)
    synth = scatter(rng, 12)
    real = transform_points(T_TRUE, synth)
    monkeypatch.setattr(reg, "_CONSENSUS_EXIT_FRACTION", 2.0)
    cfg = RegistrationConfig(rng_seed=2, max_iterations=128)
    res = register(synth, real, cfg)
    assert res.iterations_used == 128
    assert not res.used_fallback


def test_register_early_exits_on_identical_sets():
    rng = np.random.default_rng(14)
    pts = scatter(rng, 20)
    res = register(pts, pts, RegistrationConfig(rng_seed=0))
    assert res.iterations_used < 2000
    assert np.allclose(res.transform.params(), AffineTransform2D.identity().params(), atol=1e-6)


def test_register_small_sets_fall_back_to_translation():
    synth = np.array([[0.0, 0.0], [10.0, 0.0]])
    real = synth + np.array([5.0, -3.0])
    res = register(synth, real)
    assert res.used_fallback
    assert res.transform.params() == (1.0, 0.0, 0.0, 1.0, 5.0, -3.0)


def test_register_collinear_synth_falls_back():
    synth = np.column_stack([np.arange(5, dtype=float), np.arange(5, dtype=float)])
    rng = np.random.default_rng(1)
    real = scatter(rng, 5, span=100.0)
    res = register(synth, real, RegistrationConfig(rng_seed=0, max_iterations=64))
    assert res.used_fallback


def test_register_rejects_empty_sides():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    with pytest.raises(InputValidationError):
        register(np.zeros((0, 2)), pts)
    with pytest.raises(InputValidationError):
        register(pts, np.zeros((0, 2)))


def test_fallback_translation_aligns_centroids():
    synth = np.array([[0.0, 0.0], [2.0, 2.0]])
    real = np.array([[10.0, 5.0], [12.0, 7.0]])
    t = fallback_translation(synth, real)
    assert (t.tx, t.ty) == (10.0, 5.0) and t.a11 == 1.0


def test_auto_real_triples_bounds():
    for m in range(3, 60):
        k = reg._auto_real_triples(m)
        assert 1 <= k <= 48
        assert k <= math.comb(m, 3)
    assert reg._auto_real_triples(3) == 1


def test_screen_scores_match_exact_squared_nn():
    rng = np.random.default_rng(21)
    real = scatter(rng, 15, span=200.0)
    params = np.array([T_TRUE.params(), AffineTransform2D.identity().params()])
    subsets = rng.uniform(0, 200, size=(2, 6, 2))
    got = reg._screen_scores(params, subsets, real, keep=3)
    for i in range(2):
        t = AffineTransform2D.from_params(params[i])
        moved = transform_points(t, subsets[i])
        d2 = ((moved[:, None, :] - real[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        want = np.sort(d2)[:3].mean()
        assert got[i] == pytest.approx(want, rel=1e-4)


def test_candidate_stats_agree_with_scalar_paths():
    rng = np.random.default_rng(22)
    synth = scatter(rng, 12, span=300.0)
    real = transform_points(T_TRUE, synth) + rng.normal(0, 1.0, (12, 2))
    params = np.array([T_TRUE.params(), AffineTransform2D.translation(500.0, 0.0).params()])
    counts = reg._candidate_stats(params, synth, real, radius := 10.0)
    for i in range(2):
        nn_idx, nn_d = reg._nn_distances(params[i], synth, real)
        want = len(np.unique(nn_idx[nn_d <= radius]))
        assert counts[i] == want


def test_small_scenes_screen_half_their_subset():
    # 7-10 instances leave screen subsets of 4-7 points; keeping a fixed 4
    # of them ranked out true hypotheses with one unmatched subset point
    # (30 of these 40 scenes recovered), keeping half of them recovers 37+
    master = np.random.default_rng(123)
    good = 0
    for i in range(40):
        n = int(master.integers(7, 11))
        spec = SceneSpec(
            n_instances=n,
            transform=random_affine(master, (1280, 960)),
            center_noise_sigma=0.5,
            dropout_real=0.1,
            dropout_synth=0.1,
            detector_profile_real=DetectorProfile(0.9, 0.9),
            detector_profile_synth=DetectorProfile(0.9, 0.9),
            rng_seed=int(master.integers(0, 2**31)),
        )
        real, synth, corr, _ = generate_scene_pair(spec)
        _, _, pairing = align_pair(
            real.gt_boxes, synth.gt_boxes, RegistrationConfig(rng_seed=i), None
        )
        truth = set(corr)
        found = {(r, s) for r, s, _ in pairing.pairs}
        recall = len(found & truth) / len(truth) if truth else 1.0
        good += recall >= 0.95
    assert good >= 37
