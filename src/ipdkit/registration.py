"""Seeded RANSAC registration of 2D point sets via local 3-point affine
hypotheses.

Each iteration draws one synthetic basis: a point and a pair of its
nearest neighbours (NAPSAC-style local sampling, Myatt et al. 2002).
Nearest-neighbour structure survives moderate affine maps, so the basis
is fitted onto every real basis (each real point with each ordered pair
of its nearest neighbours) at once; one of those is the true
correspondence whenever the basis survived on the real side. Each
hypothesis carries the synthetic point's wider neighbourhood over, and
only the ones that land the most of it on the real point's neighbourhood
are refined by least squares (LO-RANSAC) and judged. One signal ranks
them: the nearest-neighbor consensus, i.e. how many distinct real points
lie within a layout-derived radius of the aligned synthetic points, with
the mean inlier distance breaking ties. Unlike a mean distance, a
consensus count does not let the unmatchable points (dropout on either
side) drag the true alignment below a wrong one. The search stops by the
adaptive RANSAC bound (Fischler & Bolles 1981) on the best consensus so
far. Everything is driven by one seeded generator, so a run is a pure
function of (points, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .geometry import AffineTransform2D, apply_params, fit_affine_batch, points_to_array

# A synthetic basis pairs its point with two of the point's nearest
# _SYNTH_BASIS_NEIGHBOURS; a real basis with two of its nearest
# _REAL_BASIS_NEIGHBOURS. The real side reaches further, so a neighbour
# that an affine map or a dropped instance pushed down the order is still
# found.
_SYNTH_BASIS_NEIGHBOURS = 4
_REAL_BASIS_NEIGHBOURS = 6
# Neighbourhood size on both sides for checking a hypothesis before it is
# refined.
_CHECK_NEIGHBOURS = 12
# Both radii are fractions of the real points' median nearest-neighbor
# spacing. The capture radius decides which pairs the least-squares
# refit sees: wide, because a raw 3-point fit through noisy points can
# be tens of pixels off far from its triple. Candidates are then judged
# at the tight radius, where only a genuinely aligned transform scores -
# at the capture radius a sloppy wrong fit can rack up as many loose
# inliers as the true one.
_CAPTURE_RADIUS_FRACTION = 0.35
_JUDGE_RADIUS_FRACTION = 0.08
# Probability that the adaptive stop has seen an all-inlier sample.
_STOP_CONFIDENCE = 0.99


@dataclass(frozen=True)
class RegistrationConfig:
    """Knobs for register(): the iteration budget and the seed of the one
    generator every draw comes from."""

    max_iterations: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InputValidationError("max_iterations must be >= 1")


@dataclass(frozen=True)
class RegistrationResult:
    transform: AffineTransform2D
    iterations_used: int
    hypothesis_count: int
    used_fallback: bool = False


def fallback_translation(synth_pts: np.ndarray, real_pts: np.ndarray) -> AffineTransform2D:
    """Pure translation aligning the two centroids; used when a set is too
    small for affine hypotheses."""
    synth = points_to_array(synth_pts)
    real = points_to_array(real_pts)
    if len(synth) == 0 or len(real) == 0:
        raise InputValidationError("fallback_translation requires non-empty point sets")
    offset = real.mean(axis=0) - synth.mean(axis=0)
    return AffineTransform2D.translation(float(offset[0]), float(offset[1]))


def _neighbours(pts: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Indices of each point's k nearest other points, nearest first, and
    the median nearest-neighbor distance (the layout scale)."""
    d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    spacing = float(np.median(np.sqrt(d2[np.arange(len(pts)), order[:, 0]])))
    return order, spacing


def _nn_distances(params: np.ndarray, synth: np.ndarray, real: np.ndarray):
    moved_x, moved_y = apply_params(params, synth)
    d2 = (moved_x[:, None] - real[None, :, 0]) ** 2 + (moved_y[:, None] - real[None, :, 1]) ** 2
    nn_idx = d2.argmin(axis=1)
    nn_d = np.sqrt(d2[np.arange(len(synth)), nn_idx])
    return nn_idx, nn_d


def _consensus(
    nn_idx: np.ndarray,
    nn_d: np.ndarray,
    capture_radius: float,
    judge_radius: float,
) -> tuple[int, float, int, float]:
    """Tight and loose consensus of one hypothesis from its
    nearest-neighbor pass: (-judge count, judge mean, -capture count,
    capture mean), ready for lexicographic comparison (smaller is
    better).

    Counting distinct real nearest neighbors instead of raw pairs keeps a
    near-collapse map (everything lands on one real point) from faking a
    large consensus.
    """
    out = []
    for radius in (judge_radius, capture_radius):
        mask = nn_d <= radius
        count = np.count_nonzero(np.bincount(nn_idx[mask]))
        mean = float(nn_d[mask].mean()) if count else math.inf
        out.extend((-count, mean))
    return tuple(out)


def _refine_params(
    params: np.ndarray,
    synth: np.ndarray,
    real: np.ndarray,
    capture_radius: float,
    judge_radius: float,
) -> tuple[np.ndarray, tuple[int, float, int, float]]:
    """Deterministic least-squares polish of a promising hypothesis.

    A raw 3-point fit through noisy points extrapolates poorly far from
    the triple. Each round refits on the nearest-neighbor pairs within
    the capture radius; rounds are accepted when the consensus improves,
    judged primarily at the tight radius. Returns (params, consensus
    quality) of the best round.
    """

    best_params = params
    nn_idx, nn_d = _nn_distances(params, synth, real)
    best_quality = _consensus(nn_idx, nn_d, capture_radius, judge_radius)
    for _ in range(5):
        inliers = np.flatnonzero(nn_d <= capture_radius)
        if inliers.size < 3:
            break
        src = synth[inliers]
        dst = real[nn_idx[inliers]]
        design = np.column_stack([src, np.ones(inliers.size)])
        sol, _, rank, _ = np.linalg.lstsq(design, dst, rcond=None)
        if rank < 3:
            break
        candidate = np.array(
            [sol[0, 0], sol[1, 0], sol[0, 1], sol[1, 1], sol[2, 0], sol[2, 1]]
        )
        # the next round refits on the pass that judged this candidate
        nn_idx, nn_d = _nn_distances(candidate, synth, real)
        cand_quality = _consensus(nn_idx, nn_d, capture_radius, judge_radius)
        if cand_quality < best_quality:
            best_params, best_quality = candidate, cand_quality
        else:
            break
    return best_params, best_quality


def register(
    synth_pts: np.ndarray,
    real_pts: np.ndarray,
    cfg: RegistrationConfig | None = None,
) -> RegistrationResult:
    """Estimate the affine map taking synthetic centers into real-image
    coordinates.

    Per iteration one synthetic basis (a seeded point and two of its
    nearest neighbours) is fitted onto every real basis. A hypothesis is
    checked by carrying the point's other near neighbours over: a check
    point hits when it lands within the capture radius of one of the
    real point's near neighbours. The hypotheses with the most hits, when
    those are at least half the check points, are refined, and the one
    with the largest consensus (distinct real inliers, mean inlier
    distance breaking ties, then draw order) wins. The search stops once
    the iterations reach log(1 - p) / log(1 - w^3), w being the winner's
    tight consensus over the synthetic point count, or at once when w = 1.

    Sets with fewer than 3 points on either side fall back to the
    centroid translation and flag the result.
    """
    if cfg is None:
        cfg = RegistrationConfig()
    synth = points_to_array(synth_pts)
    real = points_to_array(real_pts)
    if len(synth) == 0 and len(real) == 0:
        raise InputValidationError("register requires non-empty point sets")
    if len(synth) == 0 or len(real) == 0:
        raise InputValidationError("register requires points on both sides")

    n, m = len(synth), len(real)
    if n < 3 or m < 3:
        return RegistrationResult(fallback_translation(synth, real), 0, 0, used_fallback=True)

    synth_nbrs, _ = _neighbours(synth, min(_CHECK_NEIGHBOURS, n - 1))
    real_nbrs, spacing = _neighbours(real, min(_CHECK_NEIGHBOURS, m - 1))
    capture_radius = _CAPTURE_RADIUS_FRACTION * spacing
    judge_radius = _JUDGE_RADIUS_FRACTION * spacing

    # every real basis: (point, ordered pair of its nearest neighbours)
    k_real = min(_REAL_BASIS_NEIGHBOURS, m - 1)
    first, second = np.nonzero(~np.eye(k_real, dtype=bool))
    real_bases = np.column_stack(
        [
            np.repeat(np.arange(m), first.size),
            real_nbrs[:, first].ravel(),
            real_nbrs[:, second].ravel(),
        ]
    )
    dst = real[real_bases]  # (hypotheses, 3, 2)
    # each hypothesis' real near neighbours, one (hypotheses, 1) column
    # per neighbour
    near = real_nbrs[real_bases[:, 0]].T  # (K, hypotheses)
    near_x = real[near, 0][:, :, None]
    near_y = real[near, 1][:, :, None]

    rng = np.random.default_rng(cfg.rng_seed)
    k_synth = min(_SYNTH_BASIS_NEIGHBOURS, n - 1)
    best_quality: tuple | None = None  # consensus quality + (iteration, hypothesis)
    best_params: np.ndarray | None = None
    hypothesis_count = 0
    iterations_used = 0

    while iterations_used < cfg.max_iterations:
        point = int(rng.integers(n))
        pair = rng.choice(k_synth, size=2, replace=False)
        basis = np.concatenate([[point], synth_nbrs[point, pair]])
        check = synth[np.delete(synth_nbrs[point], pair)]  # (c, 2)

        params, valid = fit_affine_batch(synth[basis], dst)
        hypothesis_count += int(valid.sum())

        moved_x, moved_y = apply_params(params, check)
        nearest = np.full(moved_x.shape, np.inf)
        for nx, ny in zip(near_x, near_y):
            np.minimum(nearest, (moved_x - nx) ** 2 + (moved_y - ny) ** 2, out=nearest)
        hits = np.where(valid, (nearest <= capture_radius**2).sum(axis=1), -1)
        most = int(hits.max())
        if 2 * most >= len(check):
            for idx in np.flatnonzero(hits == most):
                cand, cand_consensus = _refine_params(
                    params[idx], synth, real, capture_radius, judge_radius
                )
                quality = cand_consensus + (iterations_used, int(idx))
                if best_quality is None or quality < best_quality:
                    best_quality = quality
                    best_params = cand

        iterations_used += 1
        if best_quality is not None:
            w = -best_quality[0] / n
            needed = math.log(1.0 - _STOP_CONFIDENCE) / math.log1p(-(w**3)) if w < 1.0 else 0.0
            if iterations_used >= needed:
                break

    if best_params is None:
        # every sampled basis was degenerate (e.g. collinear layouts), or
        # none carried half its check points onto a real neighbourhood
        t = fallback_translation(synth, real)
        return RegistrationResult(t, iterations_used, hypothesis_count, used_fallback=True)

    return RegistrationResult(
        AffineTransform2D.from_params(best_params),
        iterations_used,
        hypothesis_count,
        used_fallback=False,
    )
