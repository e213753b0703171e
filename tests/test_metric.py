"""Tests for performance values, IPD aggregation and cross-validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdkit.errors import IncompleteResultsError, InputValidationError, NoInstancesError
from ipdkit.geometry import BBox, iou, iou_table
from ipdkit.matching import InstancePairing
from ipdkit.metric import (
    CrossValCell,
    IpdResult,
    PerfRecord,
    closest_domain,
    cross_validation,
    domain_pairs,
    evaluate_pair,
)
from ipdkit.report import write_report

from helpers import box_array, image_labels


def _record(p_real, p_synth, image_id="img", idx=0):
    return PerfRecord(
        image_id=image_id,
        real_index=idx,
        synth_index=idx,
        p_real=p_real,
        p_synth=p_synth,
    )


def _grid_boxes(rng, n):
    # half-pixel centers and sides on a small grid: touching edges,
    # nested boxes and exact duplicates all occur
    cx, cy = rng.integers(0, 12, (2, n)) / 2.0
    w, h = rng.integers(1, 8, (2, n)) / 2.0
    return [BBox(*v, 0.5) for v in zip(cx, cy, w, h)]


def _continuous_boxes(rng, n):
    cx, cy = rng.uniform(0.0, 50.0, (2, n))
    w, h = rng.uniform(0.5, 30.0, (2, n))
    return [BBox(*v, 0.5) for v in zip(cx, cy, w, h)]


class TestIouTable:
    def test_values_match_pairwise_iou(self):
        gt = [BBox(0.0, 0.0, 2.0, 2.0), BBox(5.0, 5.0, 2.0, 2.0)]
        pred = [BBox(0.0, 0.0, 2.0, 2.0, 0.9), BBox(1.0, 0.0, 2.0, 2.0, 0.8)]
        table = iou_table(box_array(gt), box_array(pred, True)[:, :4])
        assert table.shape == (2, 2)
        assert table[0, 0] == 1.0
        assert table[0, 1] == pytest.approx(1.0 / 3.0)
        assert table[1, 0] == 0.0

        rng = np.random.default_rng(7)
        for make in (_grid_boxes, _continuous_boxes):
            for _ in range(20):
                gt, pred = make(rng, rng.integers(1, 15)), make(rng, rng.integers(1, 15))
                table = iou_table(box_array(gt, True)[:, :4], box_array(pred, True)[:, :4])
                assert table.shape == (len(gt), len(pred))
                for i, g in enumerate(gt):
                    for j, p in enumerate(pred):
                        assert table[i, j] == iou(g, p)

    def test_empty_sides(self):
        empty, box = box_array([]), box_array([(0, 0, 1, 1)])
        assert iou_table(empty, empty).shape == (0, 0)
        assert iou_table(box, empty).shape == (1, 0)
        assert iou_table(empty, box).shape == (0, 1)


class TestPerfRecord:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(InputValidationError):
            _record(1.2, 0.5)
        with pytest.raises(InputValidationError):
            _record(0.5, -0.1)

    def test_rejects_negative_indices(self):
        with pytest.raises(InputValidationError):
            PerfRecord("i", -1, 0, 0.5, 0.5)


class TestIpd:
    def test_hand_computed_mean(self):
        records = [_record(0.9, 0.6), _record(0.5, 0.5, idx=1), _record(0.0, 0.3, idx=2)]
        result = IpdResult(tuple(records))
        assert result.ipd == pytest.approx((0.3 + 0.0 + 0.3) / 3.0, abs=1e-12)
        assert result.instance_count == 3

    def test_empty_records_raise(self):
        with pytest.raises(NoInstancesError, match="no matched instance pairs"):
            IpdResult(())

    def test_unmatched_totals_pass_through(self):
        result = IpdResult((_record(0.5, 0.5),), unmatched_real_total=2, unmatched_synth_total=3)
        assert result.unmatched_real_total == 2
        assert result.unmatched_synth_total == 3

    def test_breakdown_partitions_by_image(self):
        records = [
            _record(1.0, 0.0, image_id="a", idx=0),
            _record(0.5, 0.5, image_id="a", idx=1),
            _record(0.0, 0.25, image_id="b", idx=0),
        ]
        result = IpdResult(tuple(records))
        by_image = {image_id: (v, c) for image_id, v, c in result.per_image_breakdown}
        assert by_image["a"] == (pytest.approx(0.5), 2)
        assert by_image["b"] == (pytest.approx(0.25), 1)

    def test_keeps_its_records_and_lists_images_by_first_record(self):
        records = (
            _record(0.25, 0.0, image_id="b", idx=0),
            _record(1.0, 0.5, image_id="a", idx=0),
            _record(0.0, 0.75, image_id="b", idx=1),
        )
        result = IpdResult(records)
        assert result.records == records
        assert result.per_image_breakdown == (("b", 0.5, 2), ("a", 0.5, 1))

    @settings(deadline=None, max_examples=60)
    @given(
        values=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        n_images=st.integers(1, 4),
    )
    def test_algebraic_identities(self, values, n_images):
        records = [
            _record(pr, ps, image_id=f"img{i % n_images}", idx=i)
            for i, (pr, ps) in enumerate(values)
        ]
        result = IpdResult(tuple(records))

        expected = math.fsum(abs(pr - ps) for pr, ps in values) / len(values)
        assert abs(result.ipd - expected) <= 1e-12
        # one left-to-right sum in record order, which the reports print
        total = 0.0
        for pr, ps in values:
            total += abs(pr - ps)
        assert result.ipd == total / len(values)
        assert 0.0 <= result.ipd <= 1.0

        # order of the two domains cannot matter
        swapped = IpdResult(tuple(_record(ps, pr, image_id=r.image_id, idx=r.real_index)
                                  for r, (pr, ps) in zip(records, values)))
        assert abs(result.ipd - swapped.ipd) <= 1e-12

        # identical profiles mean a zero gap, exactly
        same = IpdResult(tuple(_record(pr, pr, image_id=r.image_id, idx=r.real_index)
                               for r, (pr, _) in zip(records, values)))
        assert same.ipd == 0.0

        # per-image means recombine to the aggregate, count-weighted
        weighted = math.fsum(v * c for _, v, c in result.per_image_breakdown)
        assert abs(weighted / result.instance_count - result.ipd) <= 1e-12


class TestIpdResultValidation:
    def test_rejects_negative_unmatched_counts(self):
        with pytest.raises(InputValidationError):
            IpdResult((_record(0.5, 0.5),), unmatched_real_total=-1)
        with pytest.raises(InputValidationError):
            IpdResult((_record(0.5, 0.5),), unmatched_synth_total=-1)


def _labels(image_id, gt, pred):
    return image_labels(image_id, gt, pred, frame=(100, 100))


class TestEvaluatePair:
    def test_hand_built_image_pair(self):
        # real: GT#0 detected perfectly, GT#1 missed entirely
        real = _labels(
            "img0",
            [BBox(10, 10, 4, 4), BBox(50, 50, 4, 4)],
            [BBox(10, 10, 4, 4, 0.9)],
        )
        # synth: GT#0 detected at IOU 1/3, GT#1 detected perfectly
        synth = _labels(
            "img0",
            [BBox(20, 20, 4, 4), BBox(70, 70, 4, 4)],
            [BBox(22, 20, 4, 4, 0.8), BBox(70, 70, 4, 4, 0.7)],
        )
        pairing = InstancePairing(
            pairs=((0, 0, 1.0), (1, 1, 2.0)),
            unmatched_real=(),
            unmatched_synth=(),
            gate_distance=5.0,
        )
        result = evaluate_pair([real], [synth], [pairing], 0.25)
        ids = [(r.image_id, r.real_index, r.synth_index) for r in result.records]
        assert ids == [("img0", 0, 0), ("img0", 1, 1)]
        assert [r.p_real for r in result.records] == [1.0, 0.0]
        assert [r.p_synth for r in result.records] == [pytest.approx(1.0 / 3.0), 1.0]
        # |1.0 - 1/3| and |0.0 - 1.0| averaged
        assert result.ipd == pytest.approx((2.0 / 3.0 + 1.0) / 2.0, abs=1e-12)
        assert result.instance_count == 2

    def test_conf_threshold_drops_predictions(self):
        real = _labels("img0", [BBox(10, 10, 4, 4)], [BBox(10, 10, 4, 4, 0.2)])
        synth = _labels("img0", [BBox(10, 10, 4, 4)], [BBox(10, 10, 4, 4, 0.9)])
        pairing = InstancePairing(
            pairs=((0, 0, 0.0),), unmatched_real=(), unmatched_synth=(), gate_distance=1.0
        )
        low = evaluate_pair([real], [synth], [pairing], conf_threshold=0.1)
        high = evaluate_pair([real], [synth], [pairing], conf_threshold=0.5)
        assert low.ipd == 0.0
        # real's only prediction fell below the threshold, so p_real drops to 0
        assert high.ipd == 1.0

    def test_clutter_image_takes_the_table_row_maximum(self):
        # 20 GT boxes under 400 random predictions, most of them far from
        # every GT box, some below the confidence threshold
        rng = np.random.default_rng(18)
        sides = []
        for _ in range(2):
            gt = np.column_stack([rng.uniform(0, 640, (20, 2)), rng.uniform(6, 40, (20, 2))])
            near = gt[rng.integers(0, 20, 40)] + rng.normal(0.0, 4.0, (40, 4)) * [1, 1, 0, 0]
            far = np.column_stack([rng.uniform(0, 640, (360, 2)), rng.uniform(4, 60, (360, 2))])
            pred = np.concatenate([near, far])
            conf = rng.uniform(0.0, 1.0, 400)
            sides.append((gt, pred, conf))
        real, synth = (
            image_labels("img0", gt.tolist(), np.column_stack([pred, conf]).tolist(), (640, 640))
            for gt, pred, conf in sides
        )
        pairs = tuple((i, 19 - i, 1.0) for i in range(20))
        pairing = InstancePairing(pairs, (), (), gate_distance=5.0)
        result = evaluate_pair([real], [synth], [pairing], conf_threshold=0.25)
        (gt_r, pred_r, conf_r), (gt_s, pred_s, conf_s) = sides
        want_r = iou_table(gt_r, pred_r[conf_r >= 0.25]).max(axis=1, initial=0.0)
        want_s = iou_table(gt_s, pred_s[conf_s >= 0.25]).max(axis=1, initial=0.0)
        assert [r.p_real for r in result.records] == want_r.tolist()
        assert [r.p_synth for r in result.records] == want_s[::-1].tolist()
        assert 0 < np.count_nonzero(want_r) < 20 and 0 < np.count_nonzero(want_s) < 20

    def test_unmatched_counts_accumulate(self):
        real = _labels("img0", [BBox(10, 10, 4, 4), BBox(50, 50, 4, 4)], [])
        synth = _labels("img0", [BBox(10, 10, 4, 4)], [])
        pairing = InstancePairing(
            pairs=((0, 0, 0.5),), unmatched_real=(1,), unmatched_synth=(), gate_distance=2.0
        )
        result = evaluate_pair([real], [synth], [pairing], conf_threshold=0.25)
        assert result.unmatched_real_total == 1
        assert result.unmatched_synth_total == 0

    def test_length_mismatch_raises(self):
        real = _labels("img0", [BBox(10, 10, 4, 4)], [])
        with pytest.raises(InputValidationError):
            evaluate_pair([real], [], [], conf_threshold=0.25)

    @pytest.mark.parametrize(
        "n_real, n_synth, pairs, unmatched_real, unmatched_synth",
        [
            (1, 1, ((0, 0, 0.5), (1, 1, 0.5)), (), ()),
            # accepted, with 2 unmatched real instances counted of the 4, before
            (5, 5, ((0, 0, 0.5),), (1, 2), (1, 2, 3, 4)),
            (5, 5, ((0, 0, 0.5),), (1, 2, 3, 4), (1, 2)),
        ],
    )
    def test_pairing_beyond_boxes_raises(
        self, n_real, n_synth, pairs, unmatched_real, unmatched_synth
    ):
        real, synth = (
            _labels("img0", [BBox(10 * i, 10, 4, 4) for i in range(n)], [])
            for n in (n_real, n_synth)
        )
        pairing = InstancePairing(pairs, unmatched_real, unmatched_synth, gate_distance=2.0)
        with pytest.raises(InputValidationError, match="pairing for image 'img0' covers"):
            evaluate_pair([real], [synth], [pairing], conf_threshold=0.25)

    def test_rejects_bad_threshold(self):
        with pytest.raises(InputValidationError):
            evaluate_pair([], [], [], conf_threshold=1.5)


DOMAINS = ("Real", "Principled", "Hapke")
TABLE_RESULTS = {
    ("Real", ("Real", "Principled")): 0.2256,
    ("Real", ("Real", "Hapke")): 0.3152,
    ("Principled", ("Principled", "Hapke")): 0.0511,
    ("Principled", ("Real", "Principled")): 0.3808,
    ("Hapke", ("Principled", "Hapke")): 0.0261,
    ("Hapke", ("Real", "Hapke")): 0.4638,
}


class TestCrossValidation:
    def test_column_order(self):
        assert domain_pairs(DOMAINS) == [
            ("Principled", "Hapke"),
            ("Real", "Hapke"),
            ("Real", "Principled"),
        ]

    def test_matrix_layout_and_blanks(self):
        matrix = cross_validation(DOMAINS, TABLE_RESULTS)
        assert [row[0].train_domain for row in matrix] == list(DOMAINS)
        blanks = [
            (i, j)
            for i, row in enumerate(matrix)
            for j, cell in enumerate(row)
            if cell.ipd is None
        ]
        assert blanks == [(0, 0), (1, 1), (2, 2)]
        assert matrix[0][2].ipd == 0.2256
        assert matrix[1][0].ipd == 0.0511
        assert matrix[2][1].ipd == 0.4638

    def test_pair_key_order_does_not_matter(self):
        flipped = {(t, (p[1], p[0])): v for (t, p), v in TABLE_RESULTS.items()}
        assert cross_validation(DOMAINS, flipped) == cross_validation(DOMAINS, TABLE_RESULTS)

    def test_accepts_ipd_result_values(self):
        results = {key: IpdResult((_record(v, 0.0),)) for key, v in TABLE_RESULTS.items()}
        assert cross_validation(DOMAINS, results) == cross_validation(DOMAINS, TABLE_RESULTS)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.booleans(), min_size=len(TABLE_RESULTS), max_size=len(TABLE_RESULTS)))
    def test_any_pair_orientation_gives_the_same_matrix(self, flips):
        results = {
            (train, pair[::-1] if flip else pair): value
            for ((train, pair), value), flip in zip(TABLE_RESULTS.items(), flips)
        }
        assert cross_validation(DOMAINS, results) == cross_validation(DOMAINS, TABLE_RESULTS)

    @pytest.mark.parametrize("first_detailed", [False, True])
    @pytest.mark.parametrize("second_detailed", [False, True])
    @pytest.mark.parametrize("first_reversed", [False, True])
    def test_a_second_entry_for_a_filled_cell_raises(
        self, first_detailed, second_detailed, first_reversed
    ):
        # an equal second entry was dropped and the first entry's
        # IpdResult kept, before
        key, flipped = ("Real", ("Real", "Principled")), ("Real", ("Principled", "Real"))
        first, second = (flipped, key) if first_reversed else (key, flipped)
        value = TABLE_RESULTS[key]
        detailed = IpdResult((_record(value, 0.0),))
        rest = {k: v for k, v in TABLE_RESULTS.items() if k != key}
        results = {
            first: detailed if first_detailed else value,
            second: detailed if second_detailed else value,
            **rest,
        }
        with pytest.raises(InputValidationError) as exc:
            cross_validation(DOMAINS, results)
        assert str(exc.value) == (
            f"entry #1 train='Real' pair={second[1]!r} fills the same cell as "
            f"entry #0 train='Real' pair={first[1]!r}"
        )

    @pytest.mark.parametrize("position, first, second", [(0, 0, 6), (3, 3, 6), (6, 5, 6)])
    def test_entries_may_be_a_sequence_that_repeats_a_key_exactly(self, position, first, second):
        # a Mapping cannot hold an exact repeat; a sequence can, and the
        # refusal names both entries by position
        entries = list(TABLE_RESULTS.items())
        assert cross_validation(DOMAINS, entries) == cross_validation(DOMAINS, TABLE_RESULTS)
        key = ("Hapke", ("Real", "Hapke"))
        assert entries[5][0] == key
        entries.insert(position, (key, 0.4638))
        with pytest.raises(InputValidationError) as exc:
            cross_validation(DOMAINS, entries)
        assert str(exc.value) == (
            f"entry #{second} train='Hapke' pair=('Real', 'Hapke') fills the same "
            f"cell as entry #{first} train='Hapke' pair=('Real', 'Hapke')"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 1.5])
    def test_an_ipd_outside_0_1_names_its_entry(self, bad):
        entries = [*TABLE_RESULTS.items()]
        entries[2] = (entries[2][0], bad)
        with pytest.raises(InputValidationError) as exc:
            cross_validation(DOMAINS, entries)
        assert str(exc.value) == (
            f"entry #2 train='Principled' pair=('Principled', 'Hapke'): "
            f"ipd must lie in [0, 1], got {bad!r}"
        )

    @pytest.mark.parametrize("value", ["0.25", True, None, [0.25]])
    def test_value_that_is_not_a_result_or_a_real_number_raises(self, value):
        # a str and a bool were coerced with float() into 0.25 and 1.0, before
        pair = ("a", "b")
        with pytest.raises(InputValidationError, match="not an IpdResult or a real number"):
            cross_validation(["a", "b"], {("a", pair): 0.25, ("b", pair): value})

    def test_numpy_reals_are_taken(self):
        pair = ("a", "b")
        results = {("a", pair): np.float64(0.25), ("b", pair): np.int64(1)}
        matrix = cross_validation(["a", "b"], results)
        assert [cell.ipd for row in matrix for cell in row] == [0.25, 1.0]

    def test_missing_cell_raises(self):
        partial = dict(TABLE_RESULTS)
        del partial[("Hapke", ("Real", "Hapke"))]
        with pytest.raises(IncompleteResultsError, match="Hapke"):
            cross_validation(DOMAINS, partial)

    def test_conflicting_duplicate_raises(self):
        conflicted = dict(TABLE_RESULTS)
        conflicted[("Real", ("Principled", "Real"))] = 0.9
        with pytest.raises(InputValidationError):
            cross_validation(DOMAINS, conflicted)

    def test_requires_two_unique_domains(self):
        with pytest.raises(InputValidationError):
            cross_validation(["only"], {})
        with pytest.raises(InputValidationError):
            cross_validation(["a", "a"], {})

    @pytest.mark.parametrize(
        "key",
        [
            # each was dropped from the matrix without a word, before
            ("Q", ("Real", "Hapke")),
            ("Real", ("Real", "Q")),
            ("Real", ("Real", "Real")),
            ("Hapke", ("Real", "Principled")),
        ],
    )
    def test_result_that_fills_no_cell_raises(self, key):
        with pytest.raises(InputValidationError) as exc:
            cross_validation(DOMAINS, {**TABLE_RESULTS, key: 0.01})
        entry = f"entry #6 train={key[0]!r} pair={key[1]!r}"
        assert str(exc.value) == f"{entry} fills no cell of the matrix"

    def test_cell_validation(self):
        with pytest.raises(InputValidationError):
            CrossValCell("Real", ("Real", "Hapke"), None)
        with pytest.raises(InputValidationError):
            CrossValCell("Real", ("Principled", "Hapke"), 0.5)
        # 1.5 was taken, and bolded, before
        for bad in (math.nan, math.inf, -0.5, 1.5):
            with pytest.raises(InputValidationError, match=rf"ipd must lie in \[0, 1\], got {bad}"):
                CrossValCell("Real", ("Real", "Hapke"), bad)
        # ("X",) and ("X", "X", "Y") were taken, before
        for pair in (("X",), ("X", "X"), ("X", "X", "Y")):
            with pytest.raises(InputValidationError, match="is not two distinct domains"):
                CrossValCell("X", pair, 0.1)


class TestClosestDomain:
    def test_real_row_prefers_smaller_ipd(self):
        matrix = cross_validation(DOMAINS, TABLE_RESULTS)
        assert closest_domain(matrix[0]) == "Principled"

    def test_tie_breaks_by_name(self):
        row = [
            CrossValCell("X", ("X", "b"), 0.5),
            CrossValCell("X", ("a", "X"), 0.5),
        ]
        assert closest_domain(row) == "a"

    def test_no_candidates_raises(self):
        row = [CrossValCell("X", ("a", "b"), None)]
        with pytest.raises(InputValidationError):
            closest_domain(row)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_the_bold_cells_hold_the_closest_domain_first_by_name(self, data):
        # one notion of "closest": a small grid of values makes ties common
        names = st.sampled_from("pqrstu")
        domains = data.draw(st.lists(names, min_size=2, max_size=5, unique=True))
        pairs = domain_pairs(domains)
        grid = st.sampled_from([0.0, 0.125, 0.25])
        results = {(train, p): data.draw(grid) for train in domains for p in pairs if train in p}
        lines = write_report(domains, results).splitlines()[2:]
        for train, row, line in zip(domains, cross_validation(domains, results), lines):
            name, *texts = line[2:-2].split(" | ")
            assert name == train
            bold = [p for p, text in zip(pairs, texts) if text.startswith("**")]
            closest = closest_domain(row)
            assert next(p for p in pairs if set(p) == {train, closest}) in bold
            assert closest == min(d for p in bold for d in p if d != train)
