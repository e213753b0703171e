"""Seeded RANSAC registration of 2D point sets via 3-point affine hypotheses.

Each iteration draws one triple of synthetic centers and several triples
of real centers, and fits the affine map for all 6 bijections of every
triple pair. Hypotheses are funneled through a cheap subset prescore,
exact consensus counting, and least-squares refinement (LO-RANSAC). One
signal ranks them: the nearest-neighbor consensus, i.e. how many
distinct real points lie within a layout-derived radius of the aligned
synthetic points, with the mean inlier distance breaking ties. Unlike a
mean distance, a consensus count does not let the unmatchable points
(dropout on either side) drag the true alignment below a wrong one.
Everything is driven by one seeded generator, so a run is a pure
function of (points, config).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputValidationError
from .geometry import AffineTransform2D, Point2, fit_affine_batch, points_to_array

# Iterations are processed in fixed-size chunks; the random stream is
# consumed row-per-iteration, so the hypotheses drawn do not depend on
# the chunking. The funnel below and the early-exit check work per chunk.
_BATCH_ITERATIONS = 64
# Candidates whose consensus is counted exactly per chunk, after the
# cheap subset prescore.
_FULL_SCORE_CANDIDATES = 48
# Candidates with the largest counts polished by least squares per chunk.
_REFINE_CANDIDATES = 4
# Subset size for the prescore. The subset is redrawn every iteration
# from the points outside the source triple (no distance is zero by
# construction), so one unlucky draw cannot poison the whole run; the
# closer half of the subset counts, so up to half its points may have no
# counterpart. Smaller subsets than _SCREEN_MIN_POINTS are not screened.
_SCREEN_POINTS = 8
_SCREEN_MIN_POINTS = 4
# Both radii are fractions of the real points' median nearest-neighbor
# spacing. The capture radius decides which pairs the least-squares
# refit sees: wide, because a raw 3-point fit through noisy points can
# be tens of pixels off far from its triple. Candidates are then judged
# at the tight radius, where only a genuinely aligned transform scores -
# at the capture radius a sloppy wrong fit can rack up as many loose
# inliers as the true one.
_CAPTURE_RADIUS_FRACTION = 0.35
_JUDGE_RADIUS_FRACTION = 0.08
# Early exit needs the tight consensus to cover this fraction of the
# smaller point set, at a mean inlier distance within half the tight
# radius; a 3-point hypothesis alone can never fake it.
_CONSENSUS_EXIT_FRACTION = 0.5

_PERMS = np.array(list(itertools.permutations(range(3))), dtype=np.intp)  # (6, 3)


@dataclass(frozen=True)
class RegistrationConfig:
    """Knobs for register(): the iteration budget and the seed of the one
    generator every draw comes from."""

    max_iterations: int = 2000
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


def fallback_translation(
    synth_pts: Sequence[Point2] | np.ndarray,
    real_pts: Sequence[Point2] | np.ndarray,
) -> AffineTransform2D:
    """Pure translation aligning the two centroids; used when a set is too
    small for affine hypotheses."""
    synth = points_to_array(synth_pts)
    real = points_to_array(real_pts)
    if len(synth) == 0 or len(real) == 0:
        raise InputValidationError("fallback_translation requires non-empty point sets")
    offset = real.mean(axis=0) - synth.mean(axis=0)
    return AffineTransform2D.translation(float(offset[0]), float(offset[1]))


def _auto_real_triples(n_real: int) -> int:
    """Real triples drawn per iteration so the 2000-iteration default
    budget sees the true correspondence several times even for ~50-point
    scenes with dropout on both sides."""
    total = math.comb(n_real, 3)
    k = max(8, math.ceil(total / 60))
    return max(1, min(48, k, total))


def _real_spacing(real: np.ndarray) -> float:
    """Median distance from a real point to its nearest other real point;
    the layout scale refinement radii derive from."""
    d2 = (real[:, None, 0] - real[None, :, 0]) ** 2 + (real[:, None, 1] - real[None, :, 1]) ** 2
    np.fill_diagonal(d2, np.inf)
    return float(np.median(np.sqrt(d2.min(axis=1))))


def _nn_distances(params: np.ndarray, synth: np.ndarray, real: np.ndarray):
    moved_x = params[0] * synth[:, 0] + params[1] * synth[:, 1] + params[4]
    moved_y = params[2] * synth[:, 0] + params[3] * synth[:, 1] + params[5]
    d2 = (moved_x[:, None] - real[None, :, 0]) ** 2 + (moved_y[:, None] - real[None, :, 1]) ** 2
    nn_idx = d2.argmin(axis=1)
    nn_d = np.sqrt(d2[np.arange(len(synth)), nn_idx])
    return nn_idx, nn_d


def _consensus(
    params: np.ndarray,
    synth: np.ndarray,
    real: np.ndarray,
    capture_radius: float,
    judge_radius: float,
) -> tuple[int, float, int, float]:
    """Tight and loose consensus of one hypothesis from a single
    nearest-neighbor pass: (-judge count, judge mean, -capture count,
    capture mean), ready for lexicographic comparison (smaller is
    better).

    Counting distinct real nearest neighbors instead of raw pairs keeps a
    near-collapse map (everything lands on one real point) from faking a
    large consensus.
    """
    nn_idx, nn_d = _nn_distances(params, synth, real)
    out = []
    for radius in (judge_radius, capture_radius):
        mask = nn_d <= radius
        count = int(np.unique(nn_idx[mask]).size)
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
    best_quality = _consensus(params, synth, real, capture_radius, judge_radius)
    current = params
    for _ in range(5):
        nn_idx, nn_d = _nn_distances(current, synth, real)
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
        cand_quality = _consensus(candidate, synth, real, capture_radius, judge_radius)
        if cand_quality < best_quality:
            best_params, best_quality = candidate, cand_quality
            current = candidate
        else:
            break
    return best_params, best_quality


def _screen_scores(
    params: np.ndarray, screen_pts: np.ndarray, real: np.ndarray, keep: int
) -> np.ndarray:
    """Cheap float32 prescore: mean of the `keep` smallest squared NN
    distances of each hypothesis's own screen subset. Only used to rank
    candidates inside a chunk.

    params: (H, 6), screen_pts: (H, q, 2) - one subset per hypothesis,
    disjoint from its source triple, so no distance is zero by
    construction.
    """
    p = params.astype(np.float32)
    sp = screen_pts.astype(np.float32)
    r = real.astype(np.float32)
    rt = np.ascontiguousarray(r.T)
    rn = (r * r).sum(axis=1)
    total, q, _ = sp.shape
    k = min(keep, q)
    out = np.empty(total, dtype=np.float32)
    # squared distances via |a|^2 + |b|^2 - 2 a.b; one flat matmul per
    # slab, slabs sized to keep the distance block cache-resident
    slab = 4096
    for i in range(0, total, slab):
        ps = p[i : i + slab]
        ss = sp[i : i + slab]
        xs = ps[:, 0:1] * ss[:, :, 0] + ps[:, 1:2] * ss[:, :, 1] + ps[:, 4:5]
        ys = ps[:, 2:3] * ss[:, :, 0] + ps[:, 3:4] * ss[:, :, 1] + ps[:, 5:6]
        moved = np.empty((xs.size, 2), dtype=np.float32)
        moved[:, 0] = xs.ravel()
        moved[:, 1] = ys.ravel()
        d2 = moved @ rt
        d2 *= -2.0
        d2 += (moved * moved).sum(axis=1)[:, None]
        d2 += rn
        dmin = d2.min(axis=1).reshape(-1, q)
        part = np.partition(dmin, k - 1, axis=1)
        out[i : i + slab] = part[:, :k].mean(axis=1)
    return out


def _candidate_stats(
    params: np.ndarray,
    synth: np.ndarray,
    real: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Exact consensus counts (distinct real points within `radius` of
    their nearest aligned synthetic point) for a block of hypotheses at
    once. params: (R, 6) float64."""
    moved_x = params[:, 0:1] * synth[None, :, 0] + params[:, 1:2] * synth[None, :, 1] + params[:, 4:5]
    moved_y = params[:, 2:3] * synth[None, :, 0] + params[:, 3:4] * synth[None, :, 1] + params[:, 5:6]
    d2 = (moved_x[:, :, None] - real[None, None, :, 0]) ** 2
    d2 += (moved_y[:, :, None] - real[None, None, :, 1]) ** 2
    nn_idx = d2.argmin(axis=2)
    nn_d = np.sqrt(np.take_along_axis(d2, nn_idx[:, :, None], axis=2)[:, :, 0])
    # distinct real inliers per row: sort the masked indices and count jumps
    masked = np.where(nn_d <= radius, nn_idx, -1)
    masked.sort(axis=1)
    fresh = masked[:, 1:] != masked[:, :-1]
    return (masked[:, :1] >= 0).astype(np.intp)[:, 0] + (fresh & (masked[:, 1:] >= 0)).sum(axis=1)


def register(
    synth_pts: Sequence[Point2] | np.ndarray,
    real_pts: Sequence[Point2] | np.ndarray,
    cfg: RegistrationConfig | None = None,
) -> RegistrationResult:
    """Estimate the affine map taking synthetic centers into real-image
    coordinates.

    Per iteration one synthetic triple and several real triples are drawn
    uniformly (seeded); all 6 bijections of each triple pair yield affine
    hypotheses. Each chunk keeps the best prescored candidates, counts
    their consensus exactly, refines the most promising few, and the
    refined candidate with the largest consensus (distinct real inliers,
    mean inlier distance breaking ties, then draw order) wins. Stops
    early once the winner's consensus covers half the smaller point set
    within half the tight radius.

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

    k_real = _auto_real_triples(m)
    rng = np.random.default_rng(cfg.rng_seed)
    q = min(_SCREEN_POINTS, n - 3)
    screening = q >= _SCREEN_MIN_POINTS
    spacing = _real_spacing(real)
    capture_radius = _CAPTURE_RADIUS_FRACTION * spacing
    judge_radius = _JUDGE_RADIUS_FRACTION * spacing
    consensus_floor = max(4, math.ceil(_CONSENSUS_EXIT_FRACTION * min(n, m)))

    width = n + k_real * m
    best_quality: tuple | None = None  # consensus quality + (gidx,)
    best_params: np.ndarray | None = None
    hypothesis_count = 0
    iterations_used = 0

    while iterations_used < cfg.max_iterations:
        bsize = min(_BATCH_ITERATIONS, cfg.max_iterations - iterations_used)
        keys = rng.random((bsize, width))
        synth_perm = np.argsort(keys[:, :n], axis=1)
        synth_triples = synth_perm[:, :3]  # (b, 3)
        real_keys = keys[:, n:].reshape(bsize, k_real, m)
        real_triples = np.argsort(real_keys, axis=2)[:, :, :3]  # (b, K, 3)

        src = synth[synth_triples]  # (b, 3, 2)
        dst = real[real_triples]  # (b, K, 3, 2)
        dst_perm = dst[:, :, _PERMS, :]  # (b, K, 6, 3, 2)

        h = bsize * k_real * 6
        src_flat = np.broadcast_to(src[:, None, None, :, :], (bsize, k_real, 6, 3, 2)).reshape(h, 3, 2)
        params, valid = fit_affine_batch(src_flat, dst_perm.reshape(h, 3, 2))
        valid_idx = np.flatnonzero(valid)
        hypothesis_count += int(valid_idx.size)

        if valid_idx.size:
            if screening:
                subset_pts = synth[synth_perm[:, n - q:]]  # (b, q, 2)
                subset_flat = np.repeat(subset_pts, k_real * 6, axis=0)
                screen = _screen_scores(params[valid_idx], subset_flat[valid_idx], real, q // 2)
                order = np.lexsort((valid_idx, screen))
                take = valid_idx[order[: min(_FULL_SCORE_CANDIDATES, order.size)]]
            else:
                # too few points to screen honestly; count everything
                take = valid_idx
            counts = np.concatenate(
                [
                    _candidate_stats(params[take[i : i + 4096]], synth, real, capture_radius)
                    for i in range(0, take.size, 4096)
                ]
            )
            base_gidx = iterations_used * k_real * 6
            rank = np.lexsort((take, -counts))
            for local in rank[: min(_REFINE_CANDIDATES, rank.size)]:
                gidx = base_gidx + int(take[local])
                cand, cand_consensus = _refine_params(
                    params[int(take[local])], synth, real, capture_radius, judge_radius
                )
                quality = cand_consensus + (gidx,)
                if best_quality is None or quality < best_quality:
                    best_quality = quality
                    best_params = cand

        iterations_used += bsize
        if (
            best_quality is not None
            and -best_quality[0] >= consensus_floor
            and best_quality[1] <= 0.5 * judge_radius
        ):
            break

    if best_params is None:
        # every sampled triple was degenerate (e.g. collinear layouts)
        t = fallback_translation(synth, real)
        return RegistrationResult(t, iterations_used, hypothesis_count, used_fallback=True)

    return RegistrationResult(
        AffineTransform2D.from_params(best_params),
        iterations_used,
        hypothesis_count,
        used_fallback=False,
    )
