"""One-to-one pairing of registered instance centers.

A cost matrix of Euclidean distances (real vs. transformed synthetic
centers) is solved for the minimum-total-cost assignment by a
shortest-augmenting-path solver (Jonker & Volgenant 1987; Crouse 2016);
assignments farther apart than the gate distance are discarded rather
than forced. Distances beyond the gate enter the solve saturated at the
gate value, so hopeless rows and columns are interchangeable and can
never pull a close pair apart. An empty side goes through the same
solve: its n x 0 or 0 x m cost matrix leaves every index of the other
side unmatched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .geometry import AffineTransform2D, median, points_to_array, transform_points


def _is_partition(indices: list[int]) -> bool:
    return sorted(indices) == list(range(len(indices)))


def check_gate_distance(gate_distance: float) -> None:
    """Raise unless the gate is a positive distance (NaN is not)."""
    if not gate_distance > 0.0:
        raise InputValidationError("gate_distance must be positive")


@dataclass(frozen=True)
class InstancePairing:
    """Matched (real_index, synth_index, distance) triples plus the
    leftovers on each side.

    Pairs and the unmatched sets partition both index ranges; every pair's
    distance is within gate_distance.
    """

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_real: tuple[int, ...]
    unmatched_synth: tuple[int, ...]
    gate_distance: float = math.inf

    def __post_init__(self):
        check_gate_distance(self.gate_distance)
        for _, _, d in self.pairs:
            if not 0.0 <= d <= self.gate_distance:
                raise InputValidationError(
                    f"pair distance {d} exceeds the gate {self.gate_distance}"
                )
        reals = [r for r, _, _ in self.pairs] + list(self.unmatched_real)
        synths = [s for _, s, _ in self.pairs] + list(self.unmatched_synth)
        if not _is_partition(reals) or not _is_partition(synths):
            raise InputValidationError(
                "pairs and unmatched sets must partition both index ranges"
            )


def assignment_min_cost(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-total-cost assignment on a rectangular cost matrix.

    Returns integer arrays (row_indices, col_indices) of the
    min(n_rows, n_cols) chosen cells, sorted by row; the total is
    optimal. The solver (the rectangular shortest-augmenting-path
    algorithm of Crouse 2016) works on the orientation with no more rows
    than columns, transposing a tall matrix, and adds one row per
    augmentation along a shortest path under dual potentials. Its tie
    rule is deterministic: among columns at the same path length it
    takes one not yet assigned, if any, else the lowest column index.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise InputValidationError("cost must be a 2D matrix")
    if not np.all(np.isfinite(cost)):
        raise InputValidationError("cost entries must be finite")
    transpose = cost.shape[0] > cost.shape[1]
    if transpose:
        cost = cost.T
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col4row = np.full(n_rows, -1)
    row4col = np.full(n_cols, -1)
    path = np.full(n_cols, -1)
    for cur in range(n_rows):
        # Dijkstra over columns from row `cur` on reduced costs, until it
        # reaches an unassigned column (the sink)
        shortest = np.full(n_cols, np.inf)
        remaining = np.ones(n_cols, dtype=bool)
        visited_rows = [cur]
        i, min_val = cur, 0.0
        while True:
            reduced = min_val + cost[i] - u[i] - v
            shorter = remaining & (reduced < shortest)
            path[shorter] = i
            shortest[shorter] = reduced[shorter]
            candidates = np.where(remaining, shortest, np.inf)
            min_val = candidates.min()
            ties = np.flatnonzero(candidates == min_val)
            free = ties[row4col[ties] < 0]
            j = int(free[0] if free.size else ties[0])
            remaining[j] = False
            if row4col[j] < 0:
                break
            i = int(row4col[j])
            visited_rows.append(i)
        # dual update keeps every reduced cost non-negative
        u[cur] += min_val
        others = np.array(visited_rows[1:], dtype=np.intp)
        u[others] += min_val - shortest[col4row[others]]
        scanned = ~remaining
        v[scanned] -= min_val - shortest[scanned]
        # flip the augmenting path back to row `cur`
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n_rows), col4row


def default_gate_distance(boxes: np.ndarray) -> float:
    """Half the median diagonal of an (n, 4) cx, cy, w, h box array; a
    scale-aware cap on how far a pair's centers may sit apart after
    registration."""
    if len(boxes) == 0:
        raise InputValidationError("default_gate_distance requires at least one box")
    # math.hypot per row: np.hypot rounds differently in the last bit.
    # Halved before the median adds the middle two, which cannot then
    # overflow; halving is exact, so the result is the same elsewhere.
    return median([0.5 * math.hypot(w, h) for w, h in boxes[:, 2:].tolist()])


def match_instances(
    transform: AffineTransform2D,
    synth_centers: np.ndarray,
    real_centers: np.ndarray,
    gate_distance: float = math.inf,
) -> InstancePairing:
    """Pair real instances with transformed synthetic instances.

    The assignment minimizes total center distance with distances capped
    at gate_distance; pairs still beyond the gate afterwards are split
    into the unmatched sets. The cap makes every beyond-gate cell equally
    expensive: a forced far assignment then never benefits from breaking
    up a within-gate pair (which the raw-distance optimum may do when one
    side has leftover instances).
    """
    check_gate_distance(gate_distance)
    synth = points_to_array(synth_centers)
    real = points_to_array(real_centers)
    moved = transform_points(transform, synth)
    diff = real[:, None, :] - moved[None, :, :]
    cost = np.sqrt((diff**2).sum(axis=2))
    # With capped costs every full assignment totals k * gate minus the
    # weight (gate - d) of its within-gate cells, so the optimum is a
    # maximum-weight matching on the within-gate graph and splits by its
    # connected components. A cell alone in both its row and its column
    # is a component by itself and is paired directly; rows and columns
    # with no within-gate cell cannot pair at all. Only the rest is solved.
    within = cost <= gate_distance
    row_hits = within.sum(axis=1)
    col_hits = within.sum(axis=0)
    lone = within & (row_hits == 1)[:, None] & (col_hits == 1)[None, :]
    lone_rows, lone_cols = np.nonzero(lone)
    rest_rows = np.flatnonzero((row_hits > 0) & ~lone.any(axis=1))
    rest_cols = np.flatnonzero((col_hits > 0) & ~lone.any(axis=0))
    sub = np.minimum(cost[np.ix_(rest_rows, rest_cols)], gate_distance)
    sub_rows, sub_cols = assignment_min_cost(sub)
    rows = np.concatenate([lone_rows, rest_rows[sub_rows]])
    cols = np.concatenate([lone_cols, rest_cols[sub_cols]])

    # ordered by real index; .tolist() keeps every entry a Python number
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    dist = cost[rows, cols]
    inside = dist <= gate_distance
    rows, cols, dist = rows[inside], cols[inside], dist[inside]
    return InstancePairing(
        pairs=tuple(zip(rows.tolist(), cols.tolist(), dist.tolist())),
        unmatched_real=tuple(np.delete(np.arange(len(real)), rows).tolist()),
        unmatched_synth=tuple(np.delete(np.arange(len(synth)), cols).tolist()),
        gate_distance=gate_distance,
    )
