"""Seeded RANSAC registration of 2D point sets via local 3-point affine
hypotheses.

The model is an orientation-preserving affine map (det A > 0): the map
between two camera images of one scene never mirrors it, so both label
sets must use the same image axes. A renderer that exports y-up boxes
must map cy -> height - cy first; a mirrored pair is not registered.

Each iteration draws one synthetic basis: a point and a pair of its
nearest neighbours (NAPSAC-style local sampling, Myatt et al. 2002).
Nearest-neighbour structure survives moderate affine maps, so the basis
is fitted at once onto every real basis (each real point with each
ordered pair of its nearest neighbours) that turns the same way; a real
basis that turns the other way could only be reached by a mirror (an
oriented constraint, after Chum, Werner & Matas 2004). One of those is
the true correspondence whenever the basis survived on the real side.
Each hypothesis carries the synthetic point's wider neighbourhood over,
and only the ones that land the most of it on the real point's
neighbourhood are refined by least squares (LO-RANSAC) and judged. One
signal ranks them: the nearest-neighbor consensus, i.e. how many
distinct real points lie within a layout-derived radius of the aligned
synthetic points, with the mean inlier distance breaking ties. Unlike a
mean distance, a consensus count does not let the unmatchable points
(dropout on either side) drag the true alignment below a wrong one. The
search stops by the adaptive RANSAC bound (Fischler & Bolles 1981) on
the best consensus so far. Everything is driven by one seeded generator,
so a run is a pure function of (points, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .geometry import AffineTransform2D, apply_params, fit_affine_batch, median, points_to_array

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
    the median nearest-neighbor distance (the layout scale).

    Equal distances are ordered by index, as a stable argsort of the full
    row would order them; only the entries up to each row's k-th distance
    are sorted.
    """
    d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    rows, cols = np.nonzero(d2 <= kth)  # row-major, so index order in a row
    by_distance = np.lexsort((d2[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(len(pts)))
    order = cols[by_distance][starts[:, None] + np.arange(k)]
    spacing = median(np.sqrt(d2[np.arange(len(pts)), order[:, 0]]))
    return order, spacing


def _turn(triples: np.ndarray) -> np.ndarray:
    """(p1 - p0) x (p2 - p0) of (..., 3, 2) triples: its sign is the way
    p0, p1, p2 turn, and it is 0 when they are collinear."""
    d1 = triples[..., 1, :] - triples[..., 0, :]
    d2 = triples[..., 2, :] - triples[..., 0, :]
    return d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]


def _consensus(
    params: np.ndarray,
    synth: np.ndarray,
    real: np.ndarray,
    capture_radius: float,
    judge_radius: float,
) -> tuple[tuple[int, float, int, float], np.ndarray, np.ndarray]:
    """Tight and loose consensus of one hypothesis, a (6,) params row:
    (quality, nn_idx, nn_d), where nn_idx and nn_d are the
    nearest-neighbor pass it is counted on and quality is (-judge count,
    judge mean, -capture count, capture mean), ready for lexicographic
    comparison (smaller is better).

    Counting distinct real nearest neighbors instead of raw pairs keeps a
    near-collapse map (everything lands on one real point) from faking a
    large consensus.
    """
    moved_x, moved_y = apply_params(params, synth)
    d2 = (moved_x[:, None] - real[None, :, 0]) ** 2 + (moved_y[:, None] - real[None, :, 1]) ** 2
    nn_idx = d2.argmin(axis=1)
    nn_d = np.sqrt(d2[np.arange(len(synth)), nn_idx])
    quality = []
    for radius in (judge_radius, capture_radius):
        mask = nn_d <= radius
        count = np.count_nonzero(np.bincount(nn_idx[mask]))
        inside = nn_d[mask]
        mean = float(inside.sum() / inside.size) if count else math.inf
        quality.extend((-count, mean))
    return tuple(quality), nn_idx, nn_d


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
    best_quality, nn_idx, nn_d = _consensus(params, synth, real, capture_radius, judge_radius)
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
        quality, nn_idx, nn_d = _consensus(candidate, synth, real, capture_radius, judge_radius)
        if quality < best_quality:
            best_params, best_quality = candidate, quality
        else:
            break
    return best_params, best_quality


def _refine_set(
    params: np.ndarray,
    valid: np.ndarray,
    check: np.ndarray,
    near_x: np.ndarray,
    near_y: np.ndarray,
    radius2: float,
) -> np.ndarray:
    """Ascending indices of the hypotheses (params (H, 6), valid (H,)) to
    refine: those whose maps carry the most of the check points (c, 2)
    within sqrt(radius2) of one of their real near neighbours (near_x and
    near_y (K, H)), when that is at least half of them, rounded up.
    """
    # moved points are laid out (c, H); invalid rows may hold NaN or inf
    # params, and score -1
    with np.errstate(invalid="ignore", over="ignore"):
        moved_x, moved_y = apply_params(params, check)
        nearest = np.full(moved_x.shape, np.inf)
        d2, dy2 = np.empty_like(nearest), np.empty_like(nearest)
        for nx, ny in zip(near_x, near_y):
            np.square(np.subtract(moved_x, nx, out=d2), out=d2)
            np.square(np.subtract(moved_y, ny, out=dy2), out=dy2)
            d2 += dy2
            np.minimum(nearest, d2, out=nearest)
        hits = np.where(valid, np.count_nonzero(nearest <= radius2, axis=0), -1)
    most = hits.max(initial=-1)  # no hypotheses: -1
    return np.flatnonzero((hits == most) & (most >= (len(check) + 1) // 2))


def register(
    synth_pts: np.ndarray,
    real_pts: np.ndarray,
    cfg: RegistrationConfig | None = None,
) -> RegistrationResult:
    """Estimate the affine map taking synthetic centers into real-image
    coordinates.

    Per iteration one synthetic basis (a seeded point and two of its
    nearest neighbours) is fitted onto every real basis that turns the
    same way, so every fit keeps orientation. A hypothesis is
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
    # The fit of a synthetic basis S onto a real basis Q has det A =
    # det Q / det S, so only the real bases that turn the way S does give
    # an orientation-preserving map. Per handedness (turn > 0, then
    # turn < 0; collinear bases fit nowhere): the bases' triples
    # (hypotheses, 3, 2), stored so that each of the six coordinate
    # columns fit_affine_batch reads is contiguous, and each hypothesis'
    # real near neighbours, x and y (K, hypotheses).
    triples = real[real_bases]
    turn = _turn(triples)
    sides = []
    for keep in (turn > 0, turn < 0):
        dst = np.ascontiguousarray(triples[keep].transpose(1, 2, 0)).transpose(2, 0, 1)
        near = real_nbrs[real_bases[keep, 0]].T
        sides.append((dst, real[near, 0], real[near, 1]))

    rng = np.random.default_rng(cfg.rng_seed)
    k_synth = min(_SYNTH_BASIS_NEIGHBOURS, n - 1)
    # per ordered pair (a, b) of basis columns of synth_nbrs, a mask of the
    # other columns, which hold the check points
    columns, basis_columns = np.arange(synth_nbrs.shape[1]), np.arange(k_synth)
    is_check = (columns != basis_columns[:, None, None]) & (columns != basis_columns[:, None])
    best_quality: tuple | None = None
    best_params: np.ndarray | None = None
    hypothesis_count = 0
    iterations_used = 0

    while iterations_used < cfg.max_iterations:
        point = int(rng.integers(n))
        a, b = rng.choice(k_synth, size=2, replace=False)
        nbrs = synth_nbrs[point]
        check = synth[nbrs[is_check[a, b]]]  # (c, 2)

        basis = synth[[point, nbrs[a], nbrs[b]]]
        # a collinear basis (turn 0) has no valid fit on either side
        dst, near_x, near_y = sides[0 if _turn(basis) > 0 else 1]
        params, valid = fit_affine_batch(basis, dst)
        hypothesis_count += int(valid.sum())

        for idx in _refine_set(params, valid, check, near_x, near_y, capture_radius**2):
            # ascending (iteration, idx): only a strictly better one replaces
            cand, quality = _refine_params(params[idx], synth, real, capture_radius, judge_radius)
            if best_quality is None or quality < best_quality:
                best_quality, best_params = quality, cand

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
