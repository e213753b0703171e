import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipdkit import (
    AffineTransform2D,
    DetectorProfile,
    InputValidationError,
    RegistrationConfig,
    SceneSpec,
    fit_affine_batch,
    generate_scene_pair,
    default_gate_distance,
    match_instances,
    random_affine,
    register,
)
from ipdkit import registration
from ipdkit.geometry import transform_points
from ipdkit.registration import (
    _bases, _consensus, _neighbours, _refine_params, _refine_set, _turn,
)

from helpers import check_hits, left_turning_bases


def scatter(rng, n, span=1000.0):
    return rng.uniform(0.0, span, size=(n, 2))


def workspace(synth, real):
    """The scoring workspace register() hands _consensus for one pair."""
    return np.empty((2, len(synth), len(real)))


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


def noisy_scene():
    """30 points under T_TRUE with 0.5 px noise and 20% dropout per side:
    (synth, real, the points both sides kept)."""
    rng = np.random.default_rng(4)
    base = scatter(rng, 30)
    keep_s = rng.random(30) > 0.2
    keep_r = rng.random(30) > 0.2
    real = transform_points(T_TRUE, base[keep_r]) + rng.normal(0, 0.5, (int(keep_r.sum()), 2))
    return base[keep_s], real, base[keep_s & keep_r]


def test_register_handles_noise_and_dropout():
    synth, real, shared = noisy_scene()
    res = register(synth, real, RegistrationConfig(rng_seed=3))
    err = transform_points(res.transform, shared) - transform_points(T_TRUE, shared)
    assert np.median(np.hypot(*err.T)) < 2.0


def test_register_fit_does_not_depend_on_the_winning_basis():
    # the scene above under 12 seeds: each wins with another basis, and
    # the winner's refit on its tight inliers lands on the same fit
    synth, real, shared = noisy_scene()
    errors = []
    for seed in range(12):
        res = register(synth, real, RegistrationConfig(rng_seed=seed))
        err = transform_points(res.transform, shared) - transform_points(T_TRUE, shared)
        errors.append(float(np.median(np.hypot(*err.T))))
    assert max(errors) < 0.5, errors


def test_register_scores_each_map_once(monkeypatch):
    # the winner keeps the nearest-neighbour pass it was scored on, so
    # the polish scores only its refit. Two hypotheses refitted on the
    # same inliers share their bits, so rows are told apart by identity.
    synth, real, _ = noisy_scene()
    scored = []

    def recording(params, *args):
        scored.append(params)
        return consensus(params, *args)

    consensus = registration._consensus
    monkeypatch.setattr(registration, "_consensus", recording)
    res = register(synth, real, RegistrationConfig(rng_seed=3))
    assert not res.used_fallback and len(scored) > 2
    assert len({id(params) for params in scored}) == len(scored)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=3, grid=True, seed=11279)  # duplicated real points: layout scale 0
def test_register_does_not_depend_on_the_order_of_either_side(n, grid, seed):
    # integer grids hold duplicate points and tied neighbour distances,
    # which only a canonical order breaks alike; noisy affine copies are
    # registrable
    rng = np.random.default_rng(seed)
    if grid:
        synth, real = (rng.integers(0, 6, size=(k, 2)) * 10.0 for k in (n, rng.integers(1, 41)))
    else:
        synth = scatter(rng, n, span=500.0)
        real = transform_points(T_TRUE, synth) + rng.normal(0.0, 0.5, (n, 2))
    cfg = RegistrationConfig(max_iterations=30, rng_seed=seed)
    want = register(synth, real, cfg)
    got = register(synth[rng.permutation(n)], real[rng.permutation(len(real))], cfg)
    assert got == want
    assert [p.hex() for p in got.transform.params()] == [p.hex() for p in want.transform.params()]


def test_register_falls_back_on_a_real_side_that_lists_every_point_twice():
    # the real points' median nearest-neighbour distance is then 0, and so
    # would be both radii, where only a map that lands a synthetic point
    # exactly on a real one counts an inlier: 7 of these 50 returned a map
    # off by up to 473 px with no fallback, before
    for seed in range(50):
        rng = np.random.default_rng(seed)
        synth = rng.uniform(0.0, 500.0, size=(3, 2))
        real = np.repeat(synth + [12.3, -4.7], 2, axis=0)
        res = register(synth, real, RegistrationConfig(rng_seed=seed))
        assert res.fallback == "has no layout scale: most of its real centers coincide with another"
        assert (res.iterations_used, res.hypothesis_count) == (0, 0)
        assert res.transform.params() == pytest.approx((1.0, 0.0, 0.0, 1.0, 12.3, -4.7))


def test_register_falls_back_exactly_when_most_real_points_coincide_with_another():
    # the median nearest-neighbour distance is 0 then: 2r of the 8 + r
    # real points below coincide with another. The cloud18 pin, 17
    # distinct of 23 real points, returned a map 73.75 px off with no
    # fallback, before
    synth = np.random.default_rng(6).uniform(0.0, 500.0, size=(8, 2))
    real = transform_points(T_TRUE, synth)
    for repeated, falls_back in ((1, False), (2, False), (3, True), (8, True)):
        pts = np.concatenate([real, real[:repeated]])
        res = register(synth, pts, RegistrationConfig(rng_seed=0))
        assert (res.iterations_used == 0) == res.used_fallback == falls_back, repeated
        if not falls_back:
            moved = transform_points(res.transform, synth)
            assert np.max(np.hypot(*(moved - real).T)) < 1e-6


def test_register_falls_back_when_no_refined_map_scores_an_inlier(monkeypatch):
    # a map with no inlier never wins; a negative judge radius gives every
    # map none
    monkeypatch.setattr(registration, "_JUDGE_RADIUS_FRACTION", -1.0)
    synth, real, _ = noisy_scene()
    res = register(synth, real, RegistrationConfig(rng_seed=3, max_iterations=5))
    assert res.fallback == "had no refined map score an inlier in 5 iterations"
    assert res.hypothesis_count > 0


@pytest.mark.parametrize("apart", [(2, 3, 4), (3, 4)], ids=["2 pairs", "collinear pairs"])
def test_refine_params_keeps_a_map_whose_pairs_allow_no_refit(apart):
    # the real points listed in `apart` lie far from where the map puts
    # their twins, so the pairs within the fit radius are the first 2, or
    # the first 3, which lie on a line. A least-squares refit through them
    # would score better; it takes a valid fit, of at least 3 pairs off a
    # line.
    synth = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [0.0, 10.0], [50.0, 50.0]])
    real = synth + [5.0, -3.0]
    real[list(apart)] += 400.0
    work = workspace(synth, real)
    scored = _consensus(np.array([1.0, 0.0, 0.0, 1.0, 5.3, -3.0]), synth, real, 1.0, work)
    assert np.count_nonzero(scored[3] <= 2.0) == 5 - len(apart)
    assert _refine_params(scored, synth, real, 2.0, 1.0, work) is scored
    # with those pairs unmoved, the refit wins
    real[list(apart)] -= 400.0
    scored = _consensus(np.array([1.0, 0.0, 0.0, 1.0, 5.3, -3.0]), synth, real, 1.0, work)
    assert _refine_params(scored, synth, real, 2.0, 1.0, work)[0] < scored[0]


def test_register_is_deterministic():
    rng = np.random.default_rng(9)
    synth = scatter(rng, 20)
    real = transform_points(T_TRUE, synth) + rng.normal(0, 0.3, (20, 2))
    a = register(synth, real, RegistrationConfig(rng_seed=7))
    b = register(synth, real, RegistrationConfig(rng_seed=7))
    assert a == b


def test_register_unrelated_sets_use_full_budget():
    # no alignment reaches a consensus the adaptive stop trusts, so the
    # whole budget is spent and the best fit found is still returned
    rng = np.random.default_rng(13)
    synth = scatter(rng, 30)
    real = scatter(rng, 30)
    cfg = RegistrationConfig(rng_seed=2, max_iterations=40)
    res = register(synth, real, cfg)
    assert res.iterations_used == cfg.max_iterations
    assert not res.used_fallback


def test_register_exact_copy_stops_after_one_iteration():
    # a similarity keeps every neighbour order, so the first basis drawn
    # has its twin among the real bases; its fit puts every synthetic
    # point on its twin (w = 1), which ends the search
    rng = np.random.default_rng(13)
    synth = scatter(rng, 12)
    c, s = 1.3 * math.cos(0.7), 1.3 * math.sin(0.7)
    real = transform_points(AffineTransform2D(c, -s, s, c, 140.0, -60.0), synth)
    for seed in range(5):
        res = register(synth, real, RegistrationConfig(rng_seed=seed))
        assert res.iterations_used == 1
        moved = transform_points(res.transform, synth)
        assert np.max(np.hypot(*(moved - real).T)) < 1e-6


def test_register_does_not_model_mirrored_maps():
    # the model keeps orientation: a mirror image of the layout turns
    # every true real basis right, so no fit reaches it, and the search
    # tries each of its 180 synthetic bases once, within the budget
    rng = np.random.default_rng(0)
    synth = scatter(rng, 30)
    mirror = AffineTransform2D(1.1, 0.2, 0.25, -0.9, 100.0, 960.0)
    real = transform_points(mirror, synth)
    res = register(synth, real, RegistrationConfig(rng_seed=0))
    k = registration._BASIS_NEIGHBOURS
    assert res.iterations_used == len(left_turning_bases(synth, k)) == 180
    t = res.transform
    assert t.a11 * t.a22 - t.a12 * t.a21 > 0
    moved = transform_points(t, synth)
    assert np.max(np.hypot(*(moved - real).T)) > 100.0


@settings(max_examples=200, deadline=None)
@given(grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fit_keeps_orientation_exactly_when_the_triples_turn_alike(grid, seed):
    # so fitting left-turning bases only onto left-turning bases drops
    # only mirrored fits; small integer grids make collinear and
    # coincident triples common, which no valid fit may use
    rng = np.random.default_rng(seed)
    if grid:
        src, dst = rng.integers(0, 5, size=(2, 200, 3, 2)).astype(float)
    else:
        src, dst = rng.uniform(-1e3, 1e3, size=(2, 200, 3, 2))
    params, valid = fit_affine_batch(src, dst)
    det_a = params[:, 0] * params[:, 3] - params[:, 1] * params[:, 2]
    turn_s, turn_q = _turn(src), _turn(dst)
    if grid:
        # integer turns are exact
        assert (turn_q[valid] != 0).all()
    else:
        # uniform triples are non-degenerate but for a negligible share
        extent = np.ptp(np.concatenate([src, dst], axis=1), axis=1).max(axis=1)
        valid &= np.minimum(abs(turn_s), abs(turn_q)) > 1e-6 * extent**2
    assert ((det_a > 0) == (turn_s * turn_q > 0))[valid].all()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 30), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_bases_are_the_left_turning_neighbour_pairs(n, k, seed):
    # integer grids hold collinear and coincident points; each unordered
    # neighbour pair comes back at most once, in the order that turns left
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 5, size=(n, 2)).astype(float)
    k = min(k, n - 1)
    bases = _bases(pts, _neighbours(pts, k)[0], k)
    got = [tuple(b) for b in bases.tolist()]
    assert set(got) == left_turning_bases(pts, k)
    assert len({(p, frozenset((a, b))) for p, a, b in got}) == len(got)
    assert (_turn(pts[bases]) > 0).all()


def test_register_early_exits_on_identical_sets():
    rng = np.random.default_rng(14)
    pts = scatter(rng, 20)
    res = register(pts, pts, RegistrationConfig(rng_seed=0))
    assert res.iterations_used < RegistrationConfig().max_iterations
    assert np.allclose(res.transform.params(), AffineTransform2D.identity().params(), atol=1e-6)


def test_register_small_sets_fall_back_to_translation():
    synth = np.array([[0.0, 0.0], [10.0, 0.0]])
    real = synth + np.array([5.0, -3.0])
    res = register(synth, real)
    assert res.fallback == "has too few points for an affine fit" and res.used_fallback
    assert res.transform.params() == (1.0, 0.0, 0.0, 1.0, 5.0, -3.0)


def test_register_collinear_synth_falls_back():
    synth = np.column_stack([np.arange(5, dtype=float), np.arange(5, dtype=float)])
    rng = np.random.default_rng(1)
    real = scatter(rng, 5, span=100.0)
    res = register(synth, real, RegistrationConfig(rng_seed=0, max_iterations=64))
    assert res.fallback == "has only collinear synthetic bases" and res.used_fallback


def test_a_near_collinear_layout_never_gets_a_confident_wrong_map():
    # 8 points bent off a line by 1e-7 px, and their exact image: every fit
    # through them is roundoff. With a closed-form refit but the hypotheses
    # still fitted by a separate 3-point solve, the pinned layout came back
    # 237 px off, with no fallback. Either the map is exact or the result
    # says why there is none.
    line = np.column_stack([np.arange(8.0), 2.0 * np.arange(8.0)]) * 15.0
    layouts = [_pin_cases()["collinear_near"][1]]
    for seed in range(10):
        bend = 1e-7 * np.random.default_rng(seed).standard_normal(8)
        layouts.append(line + np.column_stack([np.zeros(8), bend]))
    for synth in layouts:
        real = transform_points(T_TRUE, synth)
        res = register(synth, real, RegistrationConfig(max_iterations=40))
        if res.fallback is None:
            moved = transform_points(res.transform, synth)
            assert np.max(np.hypot(*(moved - real).T)) < 1e-6
        else:
            assert res.fallback


def test_fallback_translation_aligns_centroids():
    # sides of unequal size: the shift is the centroids', not any point's
    synth = np.array([[0.0, 0.0], [2.0, 2.0]])
    real = np.array([[10.0, 5.0], [12.0, 7.0], [14.0, 3.0]])
    t = register(synth, real).transform
    assert (t.tx, t.ty) == (11.0, 4.0) and (t.a11, t.a12, t.a21, t.a22) == (1.0, 0.0, 0.0, 1.0)
    # the search's own fallback return builds the same translation
    synth = np.column_stack([np.arange(5, dtype=float), np.arange(5, dtype=float)])
    real = scatter(np.random.default_rng(1), 7, span=100.0)
    res = register(synth, real, RegistrationConfig(rng_seed=0, max_iterations=64))
    offset = real.mean(axis=0) - synth.mean(axis=0)
    assert res.used_fallback and res.iterations_used == 0
    assert (res.transform.tx, res.transform.ty) == pytest.approx(tuple(offset), abs=1e-9)


def test_register_rejects_empty_sides():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    with pytest.raises(InputValidationError):
        register(np.zeros((0, 2)), pts)
    with pytest.raises(InputValidationError):
        register(pts, np.zeros((0, 2)))
    with pytest.raises(InputValidationError, match="points on both sides"):
        register(np.zeros((0, 2)), np.zeros((0, 2)))


@settings(max_examples=300, deadline=None)
@given(
    n_check=st.integers(0, 10),
    n_hyp=st.integers(1, 40),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_refine_set_refines_what_the_reference_count_refines(n_check, n_hyp, k, seed):
    rng = np.random.default_rng(seed)
    # small integer coordinates, so hits are common and counts tie at the
    # most
    params = rng.integers(-1, 2, size=(n_hyp, 6)).astype(float)
    params[:, 4:] = rng.integers(0, 5, size=(n_hyp, 2))
    check = rng.integers(0, 5, size=(n_check, 2)).astype(float)
    near_x, near_y = rng.integers(0, 5, size=(2, k, n_hyp)).astype(float)
    radius = float(rng.choice([0.5, 1.0, 1.5]))
    valid = rng.random(n_hyp) < 0.85
    # degenerate fits hold NaN or inf params and are never valid
    bad = np.flatnonzero(rng.random(n_hyp) < 0.2)
    params[bad, rng.integers(0, 6, bad.size)] = rng.choice([np.nan, np.inf, -np.inf], bad.size)
    valid[bad] = False

    hits = check_hits(params, valid, check, near_x, near_y, radius)
    most = hits.max()
    # a valid hypothesis that carries a check point, or any valid one when
    # there are no check points
    want = np.flatnonzero(hits == most) if most > 0 or most == n_check == 0 else []
    got = _refine_set(params, valid, check, near_x, near_y, radius**2)
    assert got.tolist() == list(want)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    radius=st.sampled_from([0.0, 1.0, math.sqrt(2.0), 2.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_consensus_equals_a_brute_force_count(n, m, radius, seed):
    rng = np.random.default_rng(seed)
    # small integer layouts under integer maps: every squared distance is
    # an exact integer, so nearest-neighbour ties and distances on a radius
    # are common, and collapsing maps put several points on one real point
    synth = rng.integers(0, 5, size=(n, 2)).astype(float)
    real = rng.integers(0, 5, size=(m, 2)).astype(float)
    params = rng.integers(-1, 2, size=6).astype(float)
    params[4:] = rng.integers(-2, 3, size=2)
    (neg_count, mean), scored, nn_idx, nn_d = _consensus(
        params, synth, real, radius, workspace(synth, real)
    )
    assert scored is params

    a11, a12, a21, a22, tx, ty = params.tolist()
    want_idx, want_d = [], []
    for x, y in synth.tolist():
        mx, my = a11 * x + a12 * y + tx, a21 * x + a22 * y + ty
        d2 = [(mx - rx) ** 2 + (my - ry) ** 2 for rx, ry in real.tolist()]
        j = d2.index(min(d2))  # the lowest index on a tie
        want_idx.append(j)
        want_d.append(math.sqrt(d2[j]))
    assert nn_idx.tolist() == want_idx
    assert nn_d.tolist() == want_d
    inside = [(j, d) for j, d in zip(want_idx, want_d) if d <= radius]
    assert -neg_count == len({j for j, _ in inside})
    want_mean = math.fsum(d for _, d in inside) / len(inside) if inside else math.inf
    # numpy sums in another order than fsum: a few ulps of 12 terms
    assert math.isclose(mean, want_mean, rel_tol=1e-12)


def test_consensus_returns_nothing_that_lives_in_the_workspace():
    # register scores every map of a pair in one workspace, and the best
    # scored map so far must survive the maps scored after it
    rng = np.random.default_rng(4)
    synth, real = scatter(rng, 30), scatter(rng, 35)
    work = workspace(synth, real)
    first = _consensus(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), synth, real, 50.0, work)
    nn_idx, nn_d = first[2].copy(), first[3].copy()
    _consensus(np.array([0.5, 0.2, -0.1, 0.7, 300.0, -80.0]), synth, real, 50.0, work)
    assert first[2].tolist() == nn_idx.tolist()
    assert first[3].tolist() == nn_d.tolist()
    assert not np.shares_memory(first[2], work) and not np.shares_memory(first[3], work)


def test_consensus_allocates_no_distance_table():
    # a fresh n x m table per map, on dense layouts, is freed past
    # malloc's trim threshold and faulted in again by the next map
    rng = np.random.default_rng(8)
    synth, real = scatter(rng, 200), scatter(rng, 210)
    params = np.array([1.0, 0.1, -0.1, 1.0, 5.0, -3.0])
    work = workspace(synth, real)
    _consensus(params, synth, real, 10.0, work)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        _consensus(params, synth, real, 10.0, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < synth.shape[0] * real.shape[0] * 8


@pytest.mark.parametrize(
    "pts",
    [
        np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)), axis=-1).reshape(-1, 2) * 40.0,
        np.random.default_rng(3).integers(0, 4, size=(40, 2)).astype(float),
        np.repeat(np.random.default_rng(5).uniform(0.0, 100.0, size=(9, 2)), 3, axis=0),
    ],
    ids=["lattice", "duplicates", "triplicates"],
)
def test_neighbours_equal_the_stable_argsort(pts):
    d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    for k in (1, 2, 6, 12, len(pts) - 1):
        got, spacing = _neighbours(pts, k)
        assert got.tolist() == order[:, :k].tolist(), k
        assert spacing == float(np.median(np.sqrt(d2[np.arange(len(pts)), order[:, 0]])))


def _scenes(master_seed, count, n_range, dropout, **layout):
    """`count` scene pairs of n_range[0] <= n < n_range[1] instances under
    a random affine map, 0.5 px center noise and `dropout` per side."""
    master = np.random.default_rng(master_seed)
    for _ in range(count):
        n = int(master.integers(*n_range))
        spec = SceneSpec(
            n_instances=n,
            transform=random_affine(master, (1280, 960)),
            center_noise_sigma=0.5,
            dropout_real=dropout,
            dropout_synth=dropout,
            detector_profile_real=DetectorProfile(0.9, 0.9),
            detector_profile_synth=DetectorProfile(0.9, 0.9),
            rng_seed=int(master.integers(0, 2**31)),
            **layout,
        )
        yield generate_scene_pair(spec)[:3]


def _align(real_gt, synth_gt, cfg):
    """The pipeline's per-pair step at a given registration config:
    register the GT centers, then match them inside the default gate.
    Returns the registration result and the pairing."""
    real, synth = real_gt[:, :2].copy(), synth_gt[:, :2].copy()
    reg = register(synth, real, cfg)
    return reg, match_instances(reg.transform, synth, real, default_gate_distance(real_gt))


def _recalls(scenes):
    """Per scene, the share of the generator's true correspondence that
    _align recovers."""
    out = []
    for i, (real, synth, corr) in enumerate(scenes):
        _, pairing = _align(real.gt, synth.gt, RegistrationConfig(rng_seed=i))
        truth = set(corr)
        found = {(r, s) for r, s, _ in pairing.pairs}
        out.append(len(found & truth) / len(truth) if truth else 1.0)
    return out


def test_small_scenes_recover_all_but_a_few_pairs():
    # 7-10 instances with 10% dropout per side; the one scene missed here
    # shares only 3 instances between the sides
    recalls = _recalls(_scenes(123, 40, (7, 11), 0.1))
    assert sum(r >= 0.95 for r in recalls) >= 39


def test_dense_scenes_recover_every_pair():
    # 120-400 instances at twice the box size apart, 20% dropout per side:
    # global triple sampling almost never drew the true correspondence
    # here and returned a wrong transform
    recalls = _recalls(
        _scenes(1, 3, (120, 401), 0.2, min_separation_factor=2.0, center_region=(0.2, 0.8))
    )
    assert min(recalls) >= 0.95, recalls


def test_scenes_of_41_to_60_instances_recover_every_pair():
    recalls = _recalls(_scenes(1, 30, (41, 61), 0.1))
    assert min(recalls) >= 0.95, recalls


def test_small_scenes_without_dropout_recover_every_pair():
    # a fixed consensus floor once stopped these searches at a wrong fit
    recalls = _recalls(_scenes(3, 50, (10, 15), 0.0))
    assert min(recalls) >= 0.95, recalls


# Pairs below 95% recall on seeded 30-pair slices of three correctness
# families, at 0.5 px noise: heavy30 and heavy50 (20-60 GT, 30% and 50%
# dropout per side, twice the box size apart) and small (4-10 GT, 10%
# dropout). A change to register that moves a count rewrites it here and
# records the change with the full-family counts.
@pytest.mark.parametrize(
    "master_seed, n_range, dropout, layout, misses",
    [
        (30, (20, 61), 0.3, {"min_separation_factor": 2.0}, 0),
        (50, (20, 61), 0.5, {"min_separation_factor": 2.0}, 7),
        (10, (4, 11), 0.1, {}, 5),
    ],
    ids=["heavy30", "heavy50", "small"],
)
def test_recovery_family_slices_miss_as_pinned(master_seed, n_range, dropout, layout, misses):
    recalls = _recalls(_scenes(master_seed, 30, n_range, dropout, **layout))
    assert sum(r < 0.95 for r in recalls) == misses


def test_heavy_dropout_pairs_match_alike_under_another_seed():
    # the seed only orders the synthetic bases: where the search finds the
    # true map, another order finds it too and matches the same pairs
    for i, (real, synth, _) in enumerate(_scenes(30, 30, (20, 61), 0.3, min_separation_factor=2.0)):
        matched = [
            {(r, s) for r, s, _ in _align(real.gt, synth.gt, cfg)[1].pairs}
            for cfg in (RegistrationConfig(rng_seed=i), RegistrationConfig(rng_seed=i + 1000))
        ]
        assert matched[0] == matched[1], i


def test_pairing_invariant_under_affine_remap_of_synthetic_side():
    remaps = np.random.default_rng(78)
    for i, (real, synth, _) in enumerate(_scenes(77, 50, (20, 51), 0.2)):
        remap = random_affine(remaps, (1280, 960))
        remapped = synth.gt.copy()
        remapped[:, :2] = transform_points(remap, synth.gt[:, :2])
        cfg = RegistrationConfig(rng_seed=i)
        _, before = _align(real.gt, synth.gt, cfg)
        _, after = _align(real.gt, remapped, cfg)
        assert [(r, s) for r, s, _ in after.pairs] == [(r, s) for r, s, _ in before.pairs], i


# register's outputs on _pin_cases(): float.hex of the transform params,
# iterations_used, hypothesis_count and used_fallback. Any change to how
# the search scores, orders or stops its hypotheses shows here as a moved
# bit. `PYTHONPATH=src python tests/test_registration.py` rewrites the
# file, and first prints each case whose pin moved with its moved fields.
REGISTER_PINS = Path(__file__).parent / "data" / "register_pins.json"


def _pin_cases():
    """name -> (family, synth, real, cfg)."""
    cases = {}
    rng = np.random.default_rng(2718)
    # integer clouds on a coarse grid: duplicate points and tied neighbour
    # distances on both sides; every third real side is unrelated
    for i in range(36):
        n = int(rng.integers(3, 41))
        synth = rng.integers(0, 9, size=(n, 2)).astype(float) * 10.0
        if i % 3 == 2:
            real = rng.integers(0, 9, size=(int(rng.integers(3, 41)), 2)).astype(float) * 10.0
        else:
            keep = rng.random(n) >= 0.15 * (i % 3)
            keep[:3] = True
            real = np.round(transform_points(T_TRUE, synth[keep]))
            real = real[rng.permutation(len(real))]
        cfg = RegistrationConfig(max_iterations=60, rng_seed=i)
        cases[f"cloud{i:02d}"] = ("random", synth, real, cfg)
    # collinear and near-collinear layouts on either side
    line = np.column_stack([np.arange(8.0), 2.0 * np.arange(8.0)]) * 15.0
    spread = rng.uniform(0.0, 200.0, size=(8, 2))
    bent = line + np.column_stack([np.zeros(8), 1e-7 * rng.standard_normal(8)])
    for name, synth, real in (
        ("synth", line, spread),
        ("real", spread, line),
        ("both", line, transform_points(T_TRUE, line)),
        ("near", bent, transform_points(T_TRUE, bent)),
    ):
        cfg = RegistrationConfig(max_iterations=40)
        cases[f"collinear_{name}"] = ("collinear", synth, real, cfg)
    # 3 to 6 points a side, so 0 to 3 check points
    for n in range(3, 7):
        for m in (3, 6):
            synth = rng.uniform(0.0, 100.0, size=(n, 2))
            if m <= n:
                real = transform_points(T_TRUE, synth)[:m]
            else:
                real = rng.uniform(0.0, 100.0, size=(m, 2))
            cfg = RegistrationConfig(max_iterations=30, rng_seed=n)
            cases[f"small_{n}x{m}"] = ("small", synth, real, cfg)
    # generated scenes of 20 to 250 instances at 0 to 50% dropout
    layouts = ((20, 0.0), (35, 0.5), (60, 0.25), (120, 0.1), (180, 0.5), (250, 0.2))
    for i, (n, dropout) in enumerate(layouts):
        spec = SceneSpec(
            n_instances=n,
            transform=random_affine(rng, (1280, 960)),
            center_noise_sigma=0.5,
            dropout_real=dropout,
            dropout_synth=dropout,
            rng_seed=int(rng.integers(0, 2**31)),
            min_separation_factor=2.0,
            center_region=(0.2, 0.8),
        )
        real, synth = generate_scene_pair(spec)[:2]
        cfg = RegistrationConfig(rng_seed=i)
        cases[f"scene_{n}_{round(dropout * 100)}"] = (
            "scene", synth.gt[:, :2], real.gt[:, :2], cfg
        )
    # the 20x20 lattice and its exact image, which register gets wrong
    grid = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)), axis=-1).reshape(-1, 2)
    grid *= 40.0
    cases["lattice"] = ("lattice", grid, transform_points(T_TRUE, grid), RegistrationConfig())
    # repeated points, whose refits find fewer than 3 inliers (the first)
    # or inliers on a line (the second); no draw from rng
    real = np.array([[30, 10], [10, 30], [0, 30], [10, 0], [30, 10], [10, 30], [0, 30]], float)
    cfg = RegistrationConfig(max_iterations=20, rng_seed=94)
    cases["duplicates_few_inliers"] = ("duplicates", 0.5 * real + 3.0, real, cfg)
    real = np.array(
        [[10, 0], [20, 0], [10, 0], [20, 20], [10, 0], [10, 30], [20, 0], [10, 20], [10, 0],
         [20, 0], [10, 0], [20, 20], [10, 0]],
        float,
    )
    cfg = RegistrationConfig(max_iterations=20, rng_seed=47)
    cases["duplicates_low_rank"] = ("duplicates", real @ [[0.9, 0.2], [-0.1, 1.1]] + 5.0, real, cfg)
    return cases


def _pin(synth, real, cfg):
    res = register(synth, real, cfg)
    return {
        "params": [p.hex() for p in res.transform.params()],
        "iterations_used": res.iterations_used,
        "hypothesis_count": res.hypothesis_count,
        "used_fallback": res.used_fallback,
    }


@pytest.mark.parametrize(
    "family", ["random", "collinear", "small", "scene", "lattice", "duplicates"]
)
def test_register_outputs_are_pinned(family):
    pins = json.loads(REGISTER_PINS.read_text(encoding="utf-8"))
    cases = {k: v for k, v in _pin_cases().items() if v[0] == family}
    assert cases
    moved = [name for name, (_, s, r, cfg) in cases.items() if _pin(s, r, cfg) != pins[name]]
    assert not moved, moved


if __name__ == "__main__":
    before = json.loads(REGISTER_PINS.read_text(encoding="utf-8"))
    pins = {name: _pin(s, r, cfg) for name, (_, s, r, cfg) in _pin_cases().items()}
    for name, pin in pins.items():
        moved = [field for field, value in pin.items() if before.get(name, {}).get(field) != value]
        if moved:
            print(name, *moved)
    for name in sorted(before.keys() - pins.keys()):
        print(name, "removed")
    REGISTER_PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
