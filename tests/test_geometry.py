import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipdkit import (
    AffineTransform2D,
    BBox,
    InputValidationError,
    best_iou,
    fit_affine_batch,
    iou,
    iou_table,
)
from ipdkit.geometry import apply_params, iou_rows, median, points_to_array, transform_points

from helpers import grid_iou, overlapping_box_pair


def test_bbox_validation():
    with pytest.raises(InputValidationError):
        BBox(0, 0, -1, 2)
    with pytest.raises(InputValidationError):
        BBox(0, 0, 1, 0)
    with pytest.raises(InputValidationError):
        BBox(0, 0, 1, 1, confidence=1.5)
    with pytest.raises(InputValidationError):
        BBox(math.nan, 0, 1, 1)


def test_bbox_coerces_numeric_types():
    b = BBox(np.float64(1.0), np.float32(2.0), np.int64(3), 4, confidence=np.float64(0.5))
    assert type(b.cx) is float and type(b.w) is float
    assert type(b.confidence) is float
    assert b == BBox(1.0, 2.0, 3.0, 4.0, confidence=0.5)


def test_bbox_corners_and_area():
    b = BBox(10, 20, 4, 6)
    assert b.corners() == (8, 17, 12, 23)
    assert b.area == 24


def test_iou_identical_is_one():
    b = BBox(3, 4, 5, 6)
    assert iou(b, b) == 1.0


def test_iou_disjoint_and_touching_are_zero():
    a = BBox(0, 0, 2, 2)
    assert iou(a, BBox(10, 10, 2, 2)) == 0.0
    # shared edge: zero intersection area
    assert iou(a, BBox(2, 0, 2, 2)) == 0.0
    # shared corner
    assert iou(a, BBox(2, 2, 2, 2)) == 0.0


def test_iou_known_values():
    # half-overlapping unit squares: inter 0.5, union 1.5
    a = BBox(0.0, 0.0, 1.0, 1.0)
    b = BBox(0.5, 0.0, 1.0, 1.0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)
    # nested box a quarter of the area
    outer = BBox(0, 0, 4, 4)
    inner = BBox(0, 0, 2, 2)
    assert iou(outer, inner) == pytest.approx(0.25)


def test_iou_symmetry_and_range_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b = overlapping_box_pair(rng)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


def test_iou_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = overlapping_box_pair(rng)
        assert iou(a, b) == pytest.approx(grid_iou(a, b), abs=5e-3)


def test_transform_points_identity_and_translation():
    p = np.array([[3.0, -2.0]])
    assert transform_points(AffineTransform2D.identity(), p).tolist() == [[3.0, -2.0]]
    q = transform_points(AffineTransform2D.translation(1.0, 2.0), p)
    assert q.tolist() == [[4.0, 0.0]]
    assert transform_points(AffineTransform2D.identity(), np.empty((0, 2))).shape == (0, 2)


def test_fit_affine_3pt_recovers_known_transform():
    t = AffineTransform2D(1.2, -0.3, 0.4, 0.9, 10.0, -5.0)
    src = np.array([[0.0, 0.0], [7.0, 1.0], [2.0, 9.0]])
    params, valid = fit_affine_batch(src[None], transform_points(t, src)[None])
    assert valid[0]
    assert np.allclose(params[0], t.params(), atol=1e-12)


def test_fit_affine_3pt_rejects_collinear():
    src = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[5.0, 5.0]] * 3])
    dst = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]] * 2)
    _, valid = fit_affine_batch(src, dst)
    assert not valid.any()


def test_fit_affine_batch_rejects_singular_maps():
    # a sound source triple sent onto a line has no invertible fit
    src = np.array([[[0.0, 0.0], [7.0, 1.0], [2.0, 9.0]]])
    dst = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    _, valid = fit_affine_batch(src, dst)
    assert not valid[0]


_COORDS = st.floats(-1e4, 1e4, allow_subnormal=False) | st.sampled_from([0.0, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    src=st.lists(_COORDS, min_size=6, max_size=6),
    dst=st.lists(st.lists(_COORDS, min_size=6, max_size=6), min_size=1, max_size=8),
)
# a near-degenerate source triple whose fit overflows: invalid, and silent
@example(src=[1.0, 1.0, 9.039768412805586e-203, 0.0, 0.0, 0.0], dst=[[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
def test_one_source_triple_fits_like_the_repeated_triple(src, dst):
    # the sampled 0, 1 and 2 make collinear, coincident and singular
    # triples common on both sides
    one = np.array(src).reshape(3, 2)
    dst = np.array(dst).reshape(-1, 3, 2)
    params, valid = fit_affine_batch(one, dst)
    want_params, want_valid = fit_affine_batch(np.broadcast_to(one, dst.shape), dst)
    assert params.tobytes() == want_params.tobytes()
    assert valid.shape == want_valid.shape and (valid == want_valid).all()


def test_degeneracy_threshold_scales_with_extent():
    # same shape at 1000x the scale must behave the same way, just as a
    # collinear triple is rejected at any scale
    shape = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    line = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
    src = np.stack([shape * 1e-3, shape, line * 1e-3, line * 1e3])
    _, valid = fit_affine_batch(src, np.stack([shape] * 4))
    assert valid.tolist() == [True, True, False, False]


def test_points_roundtrip_and_validation():
    arr = points_to_array(np.array([[1, 2], [3, 4]]))
    assert arr.shape == (2, 2) and arr.dtype == np.float64
    assert points_to_array(np.zeros((0, 2))).shape == (0, 2)
    assert points_to_array(np.zeros(0)).shape == (0, 2)
    for bad in ([[1.0, 2.0, 3.0]], [1.0, 2.0], [[[1.0, 2.0]]]):
        with pytest.raises(InputValidationError, match="shape"):
            points_to_array(np.array(bad))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputValidationError, match="finite"):
            points_to_array(np.array([[0.0, 1.0], [value, 2.0]]))


_FINITE = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    params=st.lists(_FINITE, min_size=6, max_size=6),
    pts=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=20),
)
def test_transform_points_equals_per_point_reference(params, pts):
    t = AffineTransform2D.from_params(params)
    moved = transform_points(t, np.array(pts))
    want = [[t.a11 * x + t.a12 * y + t.tx, t.a21 * x + t.a22 * y + t.ty] for x, y in pts]
    # bit for bit, signed zeros included
    assert moved.tobytes() == np.array(want).tobytes()


def test_apply_params_batch_rows_equal_single_maps():
    rng = np.random.default_rng(4)
    params = rng.normal(0.0, 3.0, (5, 6))
    pts = rng.uniform(-100.0, 100.0, (7, 2))
    xs, ys = apply_params(params, pts)
    assert xs.shape == ys.shape == (7, 5)
    for row, x, y in zip(params, xs.T, ys.T):
        moved = transform_points(AffineTransform2D.from_params(row), pts)
        assert x.tobytes() == moved[:, 0].tobytes() and y.tobytes() == moved[:, 1].tobytes()


coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
side = st.floats(min_value=0.1, max_value=80, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(coord, coord, side, side, coord, coord, side, side)
# corners that round so that the intersection exceeds the union
@example(32.0, 0.0, 1.8114590411706715, 1.0, 32.0, 0.0, 1.8114590411706715, 1.0)
def test_iou_bounds_property(cx1, cy1, w1, h1, cx2, cy2, w2, h2):
    a = BBox(cx1, cy1, w1, h1)
    b = BBox(cx2, cy2, w2, h2)
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert iou_table(np.array([[cx1, cy1, w1, h1]]), np.array([[cx2, cy2, w2, h2]]))[0, 0] == v
    assert iou(b, a) == v
    # intersection can never exceed the smaller area's share of the union
    assert v <= min(a.area, b.area) / max(a.area, b.area) + 1e-12


def _box_rows(center, side):
    """(n, 4) cx, cy, w, h arrays of up to 12 rows, empty ones included."""
    row = st.tuples(center, center, side, side)
    return st.lists(row, max_size=12).map(lambda rows: np.array(rows, float).reshape(-1, 4))


_ULP_1E6 = float(np.spacing(1e6))
BOX_FAMILIES = {
    # half-pixel grid: touching edges, nested boxes and duplicates
    "grid": _box_rows(
        st.integers(0, 12).map(lambda k: k / 2.0), st.integers(1, 8).map(lambda k: k / 2.0)
    ),
    # centres a few ulps apart near 1e6, with sides down to a single ulp,
    # where the corners round past the box and an IOU can come out negative
    "near 1e6": _box_rows(
        st.integers(-6, 6).map(lambda k: 1e6 + k * _ULP_1E6 / 2),
        st.one_of(st.floats(1e-9, 1e-3), st.integers(1, 6).map(lambda k: k * _ULP_1E6 / 2)),
    ),
    # areas that overflow to inf, and corners that overflow too
    "huge": _box_rows(st.floats(-1.7e308, 1.7e308), st.floats(1e150, 1.7e308)),
    # areas that underflow to 0, which score 0 / 0 = NaN against each other
    "tiny": _box_rows(st.integers(0, 4).map(float), st.floats(1e-200, 1e-150)),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(BOX_FAMILIES)).flatmap(lambda k: st.tuples(*[BOX_FAMILIES[k]] * 2)))
@example((np.zeros((0, 4)), np.zeros((0, 4))))
@example((np.array([[1e6 + _ULP_1E6, 1e6 + _ULP_1E6, _ULP_1E6, _ULP_1E6]]),) * 2)
@example((np.array([[0.0, 0.0, 1e-200, 1e-200]]), np.array([[3.0, 0.0, 1e-200, 1e-200]])))
def test_best_iou_is_the_table_row_maximum(sides):
    gt, pred = sides
    with np.errstate(all="ignore"):
        want = iou_table(gt, pred).max(axis=1, initial=0.0)
        got = best_iou(gt, pred)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(gt),)
    assert np.array_equal(got, want, equal_nan=True)


def test_best_iou_floors_a_negative_iou_and_keeps_a_nan():
    # a box one ulp wide and high: its corners round outward to two ulps
    # apart, the intersection with itself is 4 times its area, and the
    # union comes out negative; the IOU of -2.0 is clamped to 0
    c = 1e6 + _ULP_1E6
    box = np.array([[c, c, _ULP_1E6, _ULP_1E6]])
    assert iou_table(box, box).tolist() == [[0.0]]
    assert best_iou(box, box).tolist() == [0.0]
    # disjoint boxes whose areas underflow to 0 score 0 / 0, with the
    # table's own warning and no other
    gt, pred = np.array([[0.0, 0.0, 1e-200, 1e-200]]), np.array([[5.0, 0.0, 1e-200, 1e-200]])
    with pytest.warns(RuntimeWarning) as table_said:
        assert np.isnan(iou_table(gt, pred).max(axis=1, initial=0.0)).all()
    with pytest.warns(RuntimeWarning) as best_said:
        assert np.isnan(best_iou(gt, pred)).all()
    assert [str(w.message) for w in best_said] == [str(w.message) for w in table_said]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width, want", [(1e154, 1.0), (1.5e154, 2 / 3)])
def test_iou_of_two_areas_that_sum_past_the_float_range(width, want):
    # each area, 1e308 or 1.5e308, is finite, but their sum overflowed:
    # the union came out inf and the IOU 0, with an overflow warning
    gt, pred = (500.0, 500.0, 1e154, 1e154), (500.0, 500.0, width, 1e154)
    v = iou(BBox(*gt), BBox(*pred))
    assert v == pytest.approx(want, rel=1e-15)
    assert iou_rows(np.array(gt), np.array(pred)) == v
    assert best_iou(np.array([gt]), np.array([pred])).tolist() == [v]


def test_median_is_bit_equal_to_numpy():
    rng = np.random.default_rng(16)
    for n in range(1, 60):
        for draw in (
            rng.uniform(0.0, 1.0, n),
            rng.lognormal(0.0, 4.0, n),
            rng.integers(0, 4, n) / 3.0,  # ties
            np.full(n, 0.1),
        ):
            assert median(draw) == float(np.median(draw))
            assert median(list(draw)) == float(np.median(draw))
    # halved after adding: the two middle values are not averaged as a / 2 + b / 2
    assert median([5e-324, 5e-324]) == 5e-324
