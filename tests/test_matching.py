"""Tests for one-to-one instance pairing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdkit.errors import InputValidationError
from ipdkit.geometry import AffineTransform2D, BBox, boxes_to_array
from ipdkit.matching import (
    InstancePairing,
    assignment_min_cost,
    default_gate_distance,
    match_instances,
)

from helpers import brute_force_assignment

IDENTITY = AffineTransform2D(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _total(cost, rows, cols):
    return sum(float(cost[r, c]) for r, c in zip(rows, cols))


def _brute_force_pairs(capped, gate):
    """Within-gate cells of a minimum-total assignment of the capped cost
    matrix, by enumerating every maximal assignment."""
    n, m = capped.shape
    if n <= m:
        options = (list(zip(range(n), cols)) for cols in itertools.permutations(range(m), n))
    else:
        options = (list(zip(rows, range(m))) for rows in itertools.permutations(range(n), m))
    best = min(options, key=lambda cells: sum(capped[r, c] for r, c in cells))
    return {(r, c) for r, c in best if capped[r, c] < gate}


class TestAssignmentMinCost:
    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(4711)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.uniform(0.0, 100.0, size=(n, m))
            rows, cols = assignment_min_cost(cost)
            expected = brute_force_assignment(cost)
            assert len(rows) == min(n, m)
            assert _total(cost, rows, cols) == pytest.approx(expected, abs=1e-9)

    def test_returns_sorted_rows_and_unique_cols(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(size=(6, 9))
        rows, cols = assignment_min_cost(cost)
        assert list(rows) == sorted(rows)
        assert len(set(cols.tolist())) == len(cols)

    def test_rejects_non_2d(self):
        with pytest.raises(InputValidationError):
            assignment_min_cost(np.zeros(3))

    def test_rejects_non_finite(self):
        cost = np.array([[1.0, np.inf], [2.0, 3.0]])
        with pytest.raises(InputValidationError):
            assignment_min_cost(cost)

    def test_empty_matrix(self):
        rows, cols = assignment_min_cost(np.zeros((0, 4)))
        assert len(rows) == 0 and len(cols) == 0

    def test_matches_scipy_on_random_rectangular_matrices(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20261018)
        # every shape up to 12x12: both orientations, 1xm, nx1 and 0xm;
        # every other round integer-valued costs with many ties
        shapes = list(itertools.product(range(13), repeat=2))
        for rep in range(12):
            for n, m in shapes:
                if rep % 2:
                    cost = rng.uniform(0.0, 100.0, size=(n, m))
                else:
                    cost = rng.integers(0, 4, size=(n, m)).astype(float)
                rows, cols = assignment_min_cost(cost)
                ref_rows, ref_cols = scipy_optimize.linear_sum_assignment(cost)
                assert rows.dtype.kind == "i" and cols.dtype.kind == "i"
                assert len(rows) == len(cols) == min(n, m)
                assert list(rows) == sorted(set(rows.tolist()))
                assert len(set(cols.tolist())) == len(cols)
                assert cost[rows, cols].sum() == pytest.approx(
                    cost[ref_rows, ref_cols].sum(), rel=1e-12, abs=1e-12
                )


class TestInstancePairingValidation:
    def test_rejects_overlapping_indices(self):
        with pytest.raises(InputValidationError):
            InstancePairing(
                pairs=((0, 0, 1.0),),
                unmatched_real=(0,),
                unmatched_synth=(),
            )

    def test_rejects_index_gaps(self):
        with pytest.raises(InputValidationError):
            InstancePairing(pairs=((0, 2, 1.0),), unmatched_real=(), unmatched_synth=())

    def test_rejects_distance_beyond_gate(self):
        with pytest.raises(InputValidationError):
            InstancePairing(
                pairs=((0, 0, 5.0),),
                unmatched_real=(),
                unmatched_synth=(),
                gate_distance=2.0,
            )

    def test_rejects_nonpositive_gate(self):
        with pytest.raises(InputValidationError):
            InstancePairing(pairs=(), unmatched_real=(), unmatched_synth=(), gate_distance=0.0)


class TestMatchInstances:
    def test_identity_perfect_overlap(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pairing = match_instances(IDENTITY, pts, pts)
        assert {(r, s) for r, s, _ in pairing.pairs} == {(0, 0), (1, 1), (2, 2)}
        assert all(d == 0.0 for _, _, d in pairing.pairs)
        assert pairing.unmatched_real == ()
        assert pairing.unmatched_synth == ()

    def test_undoes_known_transform(self):
        rng = np.random.default_rng(7)
        t = AffineTransform2D(0.9, 0.1, -0.1, 0.9, 12.0, -4.0)
        synth = rng.uniform(0.0, 200.0, size=(12, 2))
        linear = np.array([[t.a11, t.a21], [t.a12, t.a22]])
        real = synth @ linear + np.array([t.tx, t.ty])
        perm = rng.permutation(12)
        pairing = match_instances(t, synth, real[perm])
        inverse = {int(p): i for i, p in enumerate(perm)}
        assert {(r, s) for r, s, _ in pairing.pairs} == {
            (inverse[s], s) for s in range(12)
        }

    def test_partition_invariant(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(0, 9))
            m = int(rng.integers(0, 9))
            real = rng.uniform(0.0, 50.0, size=(n, 2))
            synth = rng.uniform(0.0, 50.0, size=(m, 2))
            gate = float(rng.uniform(1.0, 40.0))
            pairing = match_instances(IDENTITY, synth, real, gate_distance=gate)
            matched_r = [r for r, _, _ in pairing.pairs]
            matched_s = [s for _, s, _ in pairing.pairs]
            assert sorted(matched_r + list(pairing.unmatched_real)) == list(range(n))
            assert sorted(matched_s + list(pairing.unmatched_synth)) == list(range(m))
            assert all(d <= gate for _, _, d in pairing.pairs)

    def test_gate_excludes_far_pairs(self):
        synth = np.array([[0.0, 0.0], [100.0, 0.0]])
        real = np.array([[1.0, 0.0], [300.0, 0.0]])
        pairing = match_instances(IDENTITY, synth, real, gate_distance=10.0)
        assert pairing.pairs == ((0, 0, 1.0),)
        assert pairing.unmatched_real == (1,)
        assert pairing.unmatched_synth == (1,)

    def test_outlier_cannot_break_a_close_pair(self):
        # With raw distances the solver can trade away a sub-gate pair to
        # shorten a hopeless row; the gate cap must prevent that.
        synth = np.array([[0.0, 0.0], [5.0, 0.0]])
        real = np.array([[0.5, 0.0], [222.0, 0.0]])
        pairing = match_instances(IDENTITY, synth, real, gate_distance=4.0)
        assert (0, 0, 0.5) in pairing.pairs
        assert pairing.unmatched_real == (1,)

    def test_empty_sides(self):
        pts = np.array([[1.0, 2.0]])
        none = np.empty((0, 2))
        a = match_instances(IDENTITY, none, pts)
        assert a.pairs == () and a.unmatched_real == (0,) and a.unmatched_synth == ()
        b = match_instances(IDENTITY, pts, none)
        assert b.pairs == () and b.unmatched_real == () and b.unmatched_synth == (0,)
        c = match_instances(IDENTITY, none, none)
        assert c.pairs == () and c.unmatched_real == () and c.unmatched_synth == ()

    def test_rejects_bad_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        for bad in (np.array([[0.0, math.nan]]), np.array([[math.inf, 0.0]]), np.zeros((2, 3))):
            with pytest.raises(InputValidationError):
                match_instances(IDENTITY, bad, pts)
            with pytest.raises(InputValidationError):
                match_instances(IDENTITY, pts, bad)

    def test_rejects_bad_gate(self):
        pts = np.array([[0.0, 0.0]])
        for gate in (0.0, -1.0, math.nan):
            with pytest.raises(InputValidationError):
                match_instances(IDENTITY, pts, pts, gate_distance=gate)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        synth = rng.uniform(0.0, 100.0, size=(15, 2))
        real = rng.uniform(0.0, 100.0, size=(13, 2))
        a = match_instances(IDENTITY, synth, real, gate_distance=20.0)
        b = match_instances(IDENTITY, synth, real, gate_distance=20.0)
        assert a == b

    def test_chain_component_is_solved_not_picked_nearest_first(self):
        # within the gate of 7: r0-s0 (3), s0-r1 (2), r1-s1 (5.5); r0-s1 is
        # 10.5 apart. Taking the nearest cell r1-s0 first leaves one pair;
        # the optimum pairs both.
        real = np.array([[0.0, 0.0], [5.0, 0.0]])
        synth = np.array([[3.0, 0.0], [10.5, 0.0]])
        pairing = match_instances(IDENTITY, synth, real, gate_distance=7.0)
        assert pairing.pairs == ((0, 0, 3.0), (1, 1, 5.5))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**31 - 1),
        sizes=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda t: sum(t) <= 4),
            min_size=1,
            max_size=6,
        ),
    )
    def test_component_split_keeps_the_optimum(self, seed, sizes):
        # clusters far apart, each holding 2-4 points within about one gate
        # of each other, so the within-gate graph has small components that
        # the solver must resolve next to lone 1x1 pairs
        gate = 10.0
        rng = np.random.default_rng(seed)
        real_parts, synth_parts = [], []
        for k, (n_real, n_synth) in enumerate(sizes):
            centre = np.array([100.0 * k, 0.0])
            real_parts.append(centre + rng.uniform(0.0, 1.2 * gate, size=(n_real, 2)))
            synth_parts.append(centre + rng.uniform(0.0, 1.2 * gate, size=(n_synth, 2)))
        real = rng.permutation(np.concatenate(real_parts))
        synth = rng.permutation(np.concatenate(synth_parts))

        pairing = match_instances(IDENTITY, synth, real, gate_distance=gate)
        cost = np.sqrt(((real[:, None, :] - synth[None, :, :]) ** 2).sum(axis=2))
        capped = np.minimum(cost, gate)
        k = min(len(real), len(synth))
        total = sum(d for _, _, d in pairing.pairs) + (k - len(pairing.pairs)) * gate
        rows, cols = assignment_min_cost(capped)
        assert total == pytest.approx(capped[rows, cols].sum(), abs=1e-9)

        if max(len(real), len(synth)) <= 7:
            assert {(r, s) for r, s, _ in pairing.pairs} == _brute_force_pairs(capped, gate)

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 10),
        m=st.integers(1, 10),
    )
    def test_pair_count_monotone_in_gate(self, seed, n, m):
        rng = np.random.default_rng(seed)
        real = rng.uniform(0.0, 60.0, size=(n, 2))
        synth = rng.uniform(0.0, 60.0, size=(m, 2))
        gates = [1.0, 5.0, 20.0, 80.0, math.inf]
        counts = [
            len(match_instances(IDENTITY, synth, real, gate_distance=g).pairs)
            for g in gates
        ]
        assert counts == sorted(counts)
        assert counts[-1] == min(n, m)


class TestDefaultGateDistance:
    def test_half_median_diagonal(self):
        boxes = [
            BBox(0.0, 0.0, 3.0, 4.0),
            BBox(10.0, 10.0, 6.0, 8.0),
            BBox(20.0, 20.0, 9.0, 12.0),
        ]
        assert default_gate_distance(boxes_to_array(boxes)) == pytest.approx(5.0)

    def test_single_box(self):
        boxes = boxes_to_array([BBox(0.0, 0.0, 6.0, 8.0)])
        assert default_gate_distance(boxes) == pytest.approx(5.0)

    def test_rejects_empty(self):
        with pytest.raises(InputValidationError):
            default_gate_distance(boxes_to_array([]))

    def test_bit_identical_to_scalar_hypot(self):
        # the gate goes into the report by repr; np.hypot differs from
        # math.hypot in the last bit on ~0.6% of random (w, h) pairs
        rng = np.random.default_rng(23)
        for n in [1] * 3000 + [2, 5, 40, 41] * 50:
            sides = np.exp(rng.uniform(-1.0, 7.5, (n, 2))).tolist()
            boxes = [BBox(0.0, 0.0, w, h) for w, h in sides]
            expected = 0.5 * float(np.median([math.hypot(b.w, b.h) for b in boxes]))
            assert default_gate_distance(boxes_to_array(boxes)) == expected
