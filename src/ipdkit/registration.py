"""Seeded RANSAC registration of 2D point sets via local 3-point affine
hypotheses.

The model is an orientation-preserving affine map (det A > 0): the map
between two camera images of one scene never mirrors it, so both label
sets must use the same image axes. A renderer that exports y-up boxes
must map cy -> height - cy first; a mirrored pair is not registered.

Both point sets are first sorted by y, then x, so a run is a pure
function of the two sets and the config, whatever the rows' order. A
basis, on either side, is a point and an unordered pair of its nearest
neighbours (NAPSAC-style local sampling, Myatt et al. 2002), ordered so
the three turn left; collinear ones are dropped. As both triples of a
fit turn left, no fit mirrors the layout (an oriented constraint, after
Chum, Werner & Matas 2004). The search walks a seeded permutation of the
synthetic bases, so each is tried once (sampling without replacement,
as PROSAC does, Chum & Matas 2005). Nearest-neighbour structure survives
moderate affine maps, so the basis is fitted at once onto every real
basis; one of those is the true correspondence whenever the basis
survived on the real side.
Each hypothesis carries the synthetic point's wider neighbourhood over,
and only the ones that land the most of it on the real point's
neighbourhood are refitted once by least squares (LO-RANSAC) and judged.
One signal ranks them: the nearest-neighbor consensus, i.e. how many
distinct real points lie within a tight, layout-derived radius of the
aligned synthetic points, with the mean inlier distance breaking ties.
Unlike a mean distance, a consensus count does not let the unmatchable
points (dropout on either side) drag the true alignment below a wrong
one. The search stops by the adaptive RANSAC bound (Fischler & Bolles
1981) on the best consensus so far, and the winner is refitted on the
tight inliers of the pass it was scored on, the last step of a fixed
LO-RANSAC (Lebeda, Matas & Chum 2012).
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
# spacing. The capture radius decides which hypotheses are refitted and
# which pairs the least-squares refit sees: wide, because a raw 3-point
# fit through noisy points can be tens of pixels off far from its
# triple. Every map is judged at the tight radius only, where only a
# genuinely aligned transform scores - at the capture radius a sloppy
# wrong fit can rack up as many loose inliers as the true one.
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


def _bases(pts: np.ndarray, nbrs: np.ndarray, k: int) -> np.ndarray:
    """Each point of pts with each unordered pair of its k nearest
    neighbours (the first k columns of nbrs), ordered so the triple turns
    left: (b, 3) indices, point-major, collinear triples dropped."""
    first, second = np.triu_indices(k, 1)
    point = np.repeat(np.arange(len(nbrs)), first.size)
    bases = np.column_stack([point, nbrs[:, first].ravel(), nbrs[:, second].ravel()])
    turn = _turn(pts[bases])
    bases[turn < 0] = bases[turn < 0][:, [0, 2, 1]]
    return bases[turn != 0]


def _consensus(
    params: np.ndarray,
    synth: np.ndarray,
    real: np.ndarray,
    radius: float,
) -> tuple[tuple[int, float], np.ndarray, np.ndarray, np.ndarray]:
    """The scored map of one hypothesis, a (6,) params row: (quality,
    params, nn_idx, nn_d), where nn_idx and nn_d are the nearest-neighbor
    pass it is counted on and quality is (-count, mean) over the distinct
    real points within the radius, ready for lexicographic comparison
    (smaller is better).

    Counting distinct real nearest neighbors instead of raw pairs keeps a
    near-collapse map (everything lands on one real point) from faking a
    large consensus.
    """
    moved_x, moved_y = apply_params(params, synth)
    d2 = (moved_x[:, None] - real[None, :, 0]) ** 2 + (moved_y[:, None] - real[None, :, 1]) ** 2
    nn_idx = d2.argmin(axis=1)
    nn_d = np.sqrt(d2[np.arange(len(synth)), nn_idx])
    mask = nn_d <= radius
    count = np.count_nonzero(np.bincount(nn_idx[mask]))
    inside = nn_d[mask]
    mean = float(inside.sum() / inside.size) if count else math.inf
    return (-count, mean), params, nn_idx, nn_d


def _refine_params(
    scored: tuple,
    synth: np.ndarray,
    real: np.ndarray,
    fit_radius: float,
    judge_radius: float,
) -> tuple:
    """One least-squares refit step of a scored map (from _consensus) on
    its pairs within the fit radius, as a raw 3-point fit through noisy
    points extrapolates poorly far from its triple. Returns the better
    scored at the judge radius of the map and its refit; the map when
    fewer than 3 pairs, or pairs of rank < 3, allow no refit.
    """
    _, params, nn_idx, nn_d = scored
    inliers = np.flatnonzero(nn_d <= fit_radius)
    if inliers.size < 3:
        return scored
    design = np.column_stack([synth[inliers], np.ones(inliers.size)])
    sol, _, rank, _ = np.linalg.lstsq(design, real[nn_idx[inliers]], rcond=None)
    if rank < 3:
        return scored
    refit = np.array([sol[0, 0], sol[1, 0], sol[0, 1], sol[1, 1], sol[2, 0], sol[2, 1]])
    refit = _consensus(refit, synth, real, judge_radius)
    return refit if refit[0] < scored[0] else scored


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

    Both sets are sorted by y, then x, first. Per iteration the next
    basis of a seeded permutation of the synthetic bases (a point and an
    unordered pair of its nearest neighbours, ordered to turn left;
    collinear ones dropped) is fitted onto every real basis, built
    alike, so every fit keeps orientation.
    A hypothesis is checked by carrying the point's other near
    neighbours over: a check point hits when it lands within the capture
    radius of one of the real point's near neighbours. The hypotheses
    with the most hits, when those are at least half the check points,
    are refitted once on their pairs within the capture radius, and the
    map with the largest consensus (distinct real inliers within the
    judge radius, mean inlier distance breaking ties, then draw order)
    wins. The search stops once the iterations reach
    log(1 - p) / log(1 - w^3), w being the winner's consensus over the
    synthetic point count, at once when w = 1, or when the bases run out;
    the winner is then refitted on the tight inliers of its own pass.

    Sets with fewer than 3 points on either side fall back to the
    centroid translation and flag the result; so does a search whose
    refined maps scored no inlier, or that refined nothing (after 0
    iterations when every synthetic basis is collinear).
    """
    if cfg is None:
        cfg = RegistrationConfig()
    synth = points_to_array(synth_pts)
    real = points_to_array(real_pts)
    if len(synth) == 0 or len(real) == 0:
        raise InputValidationError("register requires points on both sides")
    synth = synth[np.lexsort(synth.T)]
    real = real[np.lexsort(real.T)]

    n, m = len(synth), len(real)
    if n < 3 or m < 3:
        return RegistrationResult(fallback_translation(synth, real), 0, 0, used_fallback=True)

    synth_nbrs, _ = _neighbours(synth, min(_CHECK_NEIGHBOURS, n - 1))
    real_nbrs, spacing = _neighbours(real, min(_CHECK_NEIGHBOURS, m - 1))
    capture_radius = _CAPTURE_RADIUS_FRACTION * spacing
    judge_radius = _JUDGE_RADIUS_FRACTION * spacing

    # The fit of a synthetic basis S onto a real basis Q has det A =
    # det Q / det S, and both turn left, so every fit keeps orientation.
    # Each hypothesis' real near neighbours, x and y (K, hypotheses).
    real_bases = _bases(real, real_nbrs, min(_REAL_BASIS_NEIGHBOURS, m - 1))
    dst = real[real_bases]
    near = real_nbrs[real_bases[:, 0]].T
    near_x, near_y = real[near, 0], real[near, 1]

    synth_bases = _bases(synth, synth_nbrs, min(_SYNTH_BASIS_NEIGHBOURS, n - 1))
    order = np.random.default_rng(cfg.rng_seed).permutation(len(synth_bases))
    best: tuple | None = None  # the scored winner, from _consensus
    hypothesis_count = 0
    iterations_used = 0

    for point, p1, p2 in synth_bases[order[: cfg.max_iterations]]:
        nbrs = synth_nbrs[point]
        check = synth[nbrs[(nbrs != p1) & (nbrs != p2)]]  # (c, 2)
        params, valid = fit_affine_batch(synth[[point, p1, p2]], dst)
        hypothesis_count += int(valid.sum())

        for idx in _refine_set(params, valid, check, near_x, near_y, capture_radius**2):
            # ascending (iteration, idx): only a strictly better one replaces;
            # a map with no inlier never wins (at a zero layout scale, every map may have none)
            scored = _consensus(params[idx], synth, real, judge_radius)
            cand = _refine_params(scored, synth, real, capture_radius, judge_radius)
            if cand[0][0] < 0 and (best is None or cand[0] < best[0]):
                best = cand

        iterations_used += 1
        if best is not None:
            w = -best[0][0] / n
            needed = math.log(1.0 - _STOP_CONFIDENCE) / math.log1p(-(w**3)) if w < 1.0 else 0.0
            if iterations_used >= needed:
                break

    if best is None:
        # every synthetic basis was collinear, no hypothesis carried half
        # its check points onto a real neighbourhood, or none scored an
        # inlier
        t = fallback_translation(synth, real)
        return RegistrationResult(t, iterations_used, hypothesis_count, used_fallback=True)

    _, best_params, _, _ = _refine_params(best, synth, real, judge_radius, judge_radius)
    return RegistrationResult(
        AffineTransform2D.from_params(best_params),
        iterations_used,
        hypothesis_count,
        used_fallback=False,
    )
