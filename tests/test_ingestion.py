"""Tests for label parsing, manifests, dataset pairing and report formats."""

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipdkit.errors import InputValidationError, LoadError, ParseError
from ipdkit.geometry import AffineTransform2D, BBox
from ipdkit.ingestion import (
    DatasetManifest,
    ImageLabels,
    ManifestEntry,
    _read_uniform,
    from_json,
    load_dataset,
    merge_pairings,
    pair_datasets,
    parse_label_arrays,
    parse_label_file,
    read_manifest,
    serialize_labels,
)
from ipdkit.metric import CrossValCell, IpdResult, PerfRecord, cross_validation
from ipdkit.report import ipd_result_to_dict, write_ipd_report, write_report
from ipdkit.scenegen import DetectorProfile, SceneSpec

from helpers import box_array, image_labels

DIMS = (640, 480)


class TestParseLabelArrays:
    def test_pixel_mode(self):
        arrays = parse_label_arrays("0 100 200 40 30\n", "pixel", DIMS)
        assert arrays.tolist() == [[100.0, 200.0, 40.0, 30.0]]
        arrays = parse_label_arrays("2 10.5 20.5 5 5 0.75\n", "pixel", DIMS, predictions=True)
        assert arrays.tolist() == [[10.5, 20.5, 5.0, 5.0, 0.75]]

    def test_normalized_mode_scales_each_axis(self):
        arrays = parse_label_arrays("0 0.5 0.5 0.1 0.1\n", "normalized", DIMS)
        assert arrays.tolist() == [[320.0, 240.0, 64.0, 48.0]]

    def test_blank_lines_and_comments_skipped(self):
        text = "\n# header\n0 1 1 2 2\n   \n# trailing\n"
        assert len(parse_label_arrays(text, "pixel", DIMS)) == 1

    def test_error_names_source_and_line(self):
        with pytest.raises(ParseError) as exc:
            parse_label_arrays("0 1 1 2 2\n0 1 1\n", "pixel", DIMS, source="labels/х.txt")
        assert "labels/х.txt:2:" in str(exc.value)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "line",
        [
            "0 1 1 2",  # too few fields
            "0 1 1 2 2 0.5 9",  # too many fields
            "x 1 1 2 2",  # class_id not an integer
            "0 a 1 2 2",  # non-numeric coordinate
            "0 1 1 0 2",  # zero width
            "0 1 1 2 -1",  # negative height
            "0 1 1 2 2 1.5",  # confidence out of range
            "0 nan 1 2 2",  # non-finite
            "0 100 100 1e-200 1e-200",  # area underflows to 0
            "0 100 100 1e200 1e200",  # area overflows to inf
            # the same two through the per-line scan
            "# scan\n0 100 100 1e-200 1e-200",
            "# scan\n0 100 100 1e200 1e200",
        ],
    )
    def test_bad_lines_rejected(self, line):
        # a line of six fields is read as a prediction file's
        with pytest.raises(ParseError):
            parse_label_arrays(line + "\n", "pixel", DIMS, predictions=len(line.split()) == 6)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputValidationError):
            parse_label_arrays("", "spherical", DIMS)

    @pytest.mark.parametrize("dims", [(0, 480), (640, -1)])
    def test_non_positive_image_dims_rejected(self, dims):
        side = int(dims[0] > 0)
        with pytest.raises(InputValidationError, match=rf"image_dims\[{side}\] must be positive"):
            parse_label_arrays("0 1 1 2 2\n", "pixel", dims)

    @pytest.mark.parametrize(
        "dims, side", [((10**400, 5), 0), ((5, 10**400), 1)], ids=["1e400-5", "5-1e400"]
    )
    def test_image_dims_past_float_range_rejected(self, dims, side):
        # an OverflowError of the frame rule's int-to-float, before
        with pytest.raises(InputValidationError, match=rf"image_dims\[{side}\] lies past"):
            parse_label_arrays("0 1 1 2 2\n", "pixel", dims)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a line the scan stops at, then a field-count error
            ("0 1 1 2 2\n0 a 1 2 2\n0 1 1\n", "non-numeric field"),
            # a box-rule error is found after the scan, and still wins
            ("0 1 1 2 2\n0 1 1 0 2\n0 1 1\n", "box sides must be positive"),
            # so do a line of the other kind and a center outside the frame
            ("0 1 1 2 2\n0 1 1 2 2 0.5\n0 1 1\n", "GT box carries a confidence"),
            ("0 1 1 2 2\n0 5000 1 2 2\n0 1 1\n", r"center \(5000\.0, 1\.0\) falls outside"),
        ],
    )
    def test_earlier_bad_line_wins_over_a_field_count_error(self, text, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_label_arrays(text, "pixel", DIMS)
        assert exc.value.line_no == 2

    def test_six_field_nan_confidence_is_not_a_gt_box(self):
        text = "0 1 1 2 2 0.5\n0 1 1 2 2 nan\n"
        with pytest.raises(ParseError, match="confidence must be finite") as exc:
            parse_label_arrays(text, "pixel", DIMS, predictions=True)
        assert exc.value.line_no == 2
        with pytest.raises(ParseError, match="GT box carries a confidence") as exc:
            parse_label_arrays("0 1 1 2 2\n0 1 1 2 2 nan\n", "pixel", DIMS)
        assert exc.value.line_no == 2

    def test_the_first_bad_line_aborts_whichever_rule_it_breaks(self):
        # a confidence on line 2 and three fields on line 5 of a GT file:
        # reported at line 5, before
        text = "0 1 1 2 2\n0 3 3 2 2 0.5\n0 5 5 2 2\n\n0 1 1\n"
        with pytest.raises(ParseError) as exc:
            parse_label_arrays(text, "pixel", DIMS, source="g.txt")
        assert str(exc.value) == "g.txt:2: GT box carries a confidence"

    @pytest.mark.parametrize("comment", ["", "# scan\n"])
    @pytest.mark.parametrize("predictions", [False, True])
    def test_a_mixed_file_is_refused_at_its_first_line_of_the_other_kind(
        self, predictions, comment
    ):
        # the parser took a mixed file, before; only ImageLabels refused it
        gt, pred = "0 1 1 2 2\n", "0 3 3 2 2 0.5\n"
        own, other = (pred, gt) if predictions else (gt, pred)
        text = comment + own * 2 + other + own + other
        assert _read_uniform(text.splitlines(), "pixel", DIMS, predictions) is None
        with pytest.raises(ParseError) as exc:
            parse_label_arrays(text, "pixel", DIMS, source="f.txt", predictions=predictions)
        message = "prediction lacks a confidence" if predictions else "GT box carries a confidence"
        assert str(exc.value) == f"f.txt:{3 + bool(comment)}: {message}"

    def test_class_id_beyond_64_bits_loads(self):
        text = f"0 1 1 2 2\n{2**63} 3 3 2 2\n{-(2**70)} 5 5 2 2\n"
        assert _read_uniform(text.splitlines(), "pixel", DIMS, False) is None
        arrays = parse_label_arrays(text, "pixel", DIMS)
        assert arrays.tolist() == [[1, 1, 2, 2], [3, 3, 2, 2], [5, 5, 2, 2]]

    def test_arrays_hold_pixel_units_in_the_files_columns(self):
        gt = parse_label_arrays("3 0.5 0.5 0.1 0.2\n", "normalized", DIMS)
        pred = parse_label_arrays("1 0.25 0.5 0.5 0.5 0.75\n", "normalized", DIMS, predictions=True)
        assert gt.tolist() == [[320.0, 240.0, 64.0, 96.0]]
        assert pred.tolist() == [[160.0, 240.0, 320.0, 240.0, 0.75]]
        empty = "# only a comment\n"
        assert parse_label_arrays(empty, "pixel", DIMS).shape == (0, 4)
        assert parse_label_arrays(empty, "pixel", DIMS, predictions=True).shape == (0, 5)


def _reference_parse(text, mode, dims, source="<string>", predictions=False):
    """Per-line parser of a GT file, or of a prediction file: every box
    line must be of the file's kind and becomes a BBox, which checks its
    own rules, with its center inside the frame expanded by 10% on each
    side, so the first bad line raises."""
    width, height = dims
    boxes = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (5, 6):
            raise ParseError(
                f"expected 5 or 6 fields, got {len(fields)}", source=source, line_no=line_no
            )
        if (len(fields) == 6) != predictions:
            kind = "prediction lacks" if predictions else "GT box carries"
            raise ParseError(f"{kind} a confidence", source=source, line_no=line_no)
        try:
            int(fields[0])
        except ValueError:
            raise ParseError(
                f"class_id must be an integer, got {fields[0]!r}", source=source, line_no=line_no
            ) from None
        try:
            cx, cy, w, h = (float(v) for v in fields[1:5])
            confidence = float(fields[5]) if len(fields) == 6 else None
        except ValueError as e:
            raise ParseError(f"non-numeric field: {e}", source=source, line_no=line_no) from None
        if mode == "normalized":
            cx, w = cx * width, w * width
            cy, h = cy * height, h * height
        try:
            boxes.append(BBox(cx, cy, w, h, confidence))
        except InputValidationError as e:
            raise ParseError(str(e), source=source, line_no=line_no) from None
        if not (-0.1 * width <= cx <= 1.1 * width and -0.1 * height <= cy <= 1.1 * height):
            raise ParseError(
                f"box center ({cx}, {cy}) falls outside the expanded frame",
                source=source,
                line_no=line_no,
            )
    return boxes


# box centers by coordinate mode: pixel ones reach past the frame
# expanded by 10% on each side, normalized ones stay within it, so that
# normalized texts are mostly accepted; 1e308 overflows to inf in
# normalized mode
_MODES = ["pixel", "normalized"]
_ODD_COORD = st.sampled_from(["-0.0", "1e308"])
_COORD = {
    "pixel": st.floats(-100.0, 800.0).map(repr) | st.integers(-100, 800).map(str) | _ODD_COORD,
    "normalized": st.floats(-0.1, 1.1).map(repr) | st.integers(0, 1).map(str) | _ODD_COORD,
}
_SIDE = st.floats(1e-3, 500.0).map(repr) | st.integers(1, 500).map(str)
_CONF = st.floats(0.0, 1.0).map(repr) | st.sampled_from(["0", "1", "1.0", "0.5"])
_CLASS = st.integers(0, 9).map(str) | st.integers(-(2**63), 2**63 - 1).map(str)
# a line that breaks one rule: the bad kinds of test_bad_lines_rejected,
# a nan confidence and a float class id
_BAD_FIELDS = {
    "too_few": ["0", "1", "1", "2"],
    "too_many": ["0", "1", "1", "2", "2", "0.5", "9"],
    "class_not_int": ["x", "1", "1", "2", "2"],
    "class_float": ["1.0", "1", "1", "2", "2"],
    "non_numeric": ["0", "a", "1", "2", "2"],
    "zero_width": ["0", "1", "1", "0", "2"],
    "negative_height": ["0", "1", "1", "2", "-1"],
    "confidence_range": ["0", "1", "1", "2", "2", "1.5"],
    "non_finite": ["0", "nan", "1", "2", "2"],
    "nan_confidence": ["0", "1", "1", "2", "2", "nan"],
}


@st.composite
def _label_line(draw, allow_bad, predictions, mode):
    # a box line of the file's kind or, as a bad line, of the other kind
    kinds = ["box"] * 8 + ["comment", "blank"] + ["bad", "other"] * allow_bad
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["# header", "  # 0 1 1 2 2", "#"]))
    if kind == "bad":
        fields = _BAD_FIELDS[draw(st.sampled_from(sorted(_BAD_FIELDS)))]
    else:
        fields = [draw(_CLASS), draw(_COORD[mode]), draw(_COORD[mode]), draw(_SIDE), draw(_SIDE)]
        if predictions != (kind == "other"):
            fields.append(draw(_CONF))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + sep.join(fields) + draw(st.sampled_from(["", " ", "\t "]))


@st.composite
def _label_text(draw):
    """A label file's text, its coordinate mode and whether it is a
    prediction file."""
    # texts without bad lines exercise the accepting path
    mode = draw(st.sampled_from(_MODES))
    predictions = draw(st.booleans())
    lines = draw(st.lists(_label_line(draw(st.booleans()), predictions, mode), max_size=12))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text, mode, predictions


class TestArrayParserMatchesPerLineReference:
    @settings(max_examples=400, deadline=None)
    @given(drawn=_label_text())
    def test_same_boxes_or_same_error(self, drawn):
        text, mode, predictions = drawn
        try:
            expected = _reference_parse(text, mode, DIMS, "f.txt", predictions)
        except ParseError as e:
            with pytest.raises(ParseError) as exc:
                parse_label_arrays(text, mode, DIMS, "f.txt", predictions)
            assert (exc.value.line_no, str(exc.value)) == (e.line_no, str(e))
            return
        arrays = parse_label_arrays(text, mode, DIMS, "f.txt", predictions)
        assert np.array_equal(arrays, box_array(expected, predictions))


def _assert_matches_reference(text, mode, predictions):
    try:
        expected = _reference_parse(text, mode, DIMS, "f.txt", predictions)
    except ParseError as e:
        with pytest.raises(ParseError) as exc:
            parse_label_arrays(text, mode, DIMS, "f.txt", predictions)
        assert (exc.value.line_no, str(exc.value)) == (e.line_no, str(e))
        return
    arrays = parse_label_arrays(text, mode, DIMS, "f.txt", predictions)
    expected = box_array(expected, predictions)
    # bit for bit, -0.0 included
    assert arrays.shape == expected.shape and arrays.tobytes() == expected.tobytes()


# tokens that Python's int and float and numpy's text reader treat alike
# (+1, 007, 1e400, -0.0, inf, nan) or differently (the reader refuses an
# underscore, non-ASCII digits and class ids beyond int64)
_ODD_TOKENS = [
    "+1", "007", "1_0", "١", "１", "1e400", "-0.0", "inf", "nan", str(2**63), str(-(2**63) - 1)
]


@st.composite
def _uniform_label_text(draw):
    """A label file's text of one kind and no comment, which numpy's
    reader takes, its coordinate mode and whether it is a prediction
    file."""
    mode = draw(st.sampled_from(_MODES))
    n_fields = draw(st.sampled_from([5, 6]))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        fields = [draw(_CLASS), draw(_COORD[mode]), draw(_COORD[mode]), draw(_SIDE), draw(_SIDE)]
        if n_fields == 6:
            fields.append(draw(_CONF))
        if draw(st.integers(0, 3)) == 0:
            fields[draw(st.integers(0, n_fields - 1))] = draw(st.sampled_from(_ODD_TOKENS))
        lines.append(draw(st.sampled_from([" ", "\t", "\xa0", "　", " \t"])).join(fields))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text, mode, n_fields == 6


class TestNumpyReaderMatchesPerLineReference:
    @settings(max_examples=400, deadline=None)
    @given(drawn=_uniform_label_text())
    def test_uniform_texts(self, drawn):
        _assert_matches_reference(*drawn)

    @pytest.mark.parametrize(
        "text",
        [
            # one 6-field row to a file object, two lines to splitlines
            "0 1 1 2 2 0.5\n0 1 1\x852 3 0.5\n",
            "0 1 1 2 2\n0 1\x00 1 2 2\n",
            "0 1 1 2 2\n0\x00 1 1 2 2\n",
            "0 1 1 2 2\n# a comment after the first box line\n0 3 3 2 2\n",
            "1_0 1 1 2 2\n١ 1 1 2 2\n",
            "1.0 1 1 2 2\n",
            "-0.0 1 1 2 2\n",
        ],
    )
    def test_texts_the_reader_refuses(self, text):
        # a text whose first line has six fields is a prediction file's
        _assert_matches_reference(text, "pixel", len(text.splitlines()[0].split()) == 6)

    def test_a_class_id_read_through_float_with_a_warning_is_refused(self, monkeypatch):
        # numpy 1.23 on reads "1.5" into an int64 field through float, and
        # only warns; the scan must then judge the file
        loadtxt = np.loadtxt

        def loadtxt_that_warns(lines, dtype, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt(["1 1 1 2 2"], dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_that_warns)
        with pytest.raises(ParseError, match="class_id must be an integer"):
            parse_label_arrays("1.5 1 1 2 2\n", "pixel", DIMS)

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n", "# only\n  # comments\n"])
    def test_no_box_lines_is_empty_without_a_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = parse_label_arrays(text, "pixel", DIMS)
        assert arrays.shape == (0, 4)

    @pytest.mark.parametrize(
        "text, reader",
        [
            ("0 0.1 0.1 0.2 0.2\n1 0.3 0.3 0.2 0.2\n", True),
            ("0 0.1 0.1 0.2 0.2 0.5\n1 0.3 0.3 0.2 0.2 0.25\n", True),
            ("# scan\n0 0.1 0.1 0.2 0.2\n", False),
            ("# scan\n0 0.1 0.1 0.2 0.2 0.5\n1 0.3 0.3 0.2 0.2 0.25\n", False),
        ],
    )
    @pytest.mark.parametrize("mode", ["pixel", "normalized"])
    def test_both_paths_return_contiguous_typed_arrays(self, text, reader, mode):
        predictions = "0.5" in text
        assert (_read_uniform(text.splitlines(), mode, DIMS, predictions) is not None) == reader
        arrays = parse_label_arrays(text, mode, DIMS, predictions=predictions)
        assert arrays.shape[1] == 4 + predictions
        assert arrays.dtype == np.float64 and arrays.flags.c_contiguous
        if reader:  # no view into the reader's record buffer
            assert arrays.base is None


# values at the edges of BBox's rules: NaN, infinities, signed zeros,
# subnormal and huge sides (1e-160 and 1e160 squared leave the range),
# and confidences one ulp outside [0, 1]
_EXTREME = st.floats(allow_nan=False).map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-310", "1e-200", "1e-160", "1e160", "1e308"]
)
_EXTREME_CONF = st.floats(-0.5, 1.5).map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "0", "1", repr(-5e-324), repr(math.nextafter(1.0, 2.0))]
)


@st.composite
def _extreme_box_fields(draw):
    # a coordinate mode, and an ordinary box with one or two values made
    # extreme, so that one rule decides the line
    mode = draw(st.sampled_from(_MODES))
    fields = [draw(_COORD[mode]), draw(_COORD[mode]), draw(_SIDE), draw(_SIDE)]
    for i in draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)):
        fields[i] = draw(_EXTREME)
    confidence = draw(st.none() | _CONF | _EXTREME_CONF)
    return mode, fields + ([] if confidence is None else [confidence])


class TestBoxRuleMasksMatchBBox:
    @settings(max_examples=400, deadline=None)
    @given(drawn=_extreme_box_fields(), scan=st.booleans())
    def test_a_line_is_refused_as_bbox_refuses_it(self, drawn, scan):
        mode, fields = drawn
        # a zero-width line follows: were a line flagged by the masks and
        # accepted by BBox, the parser would return without refusing it
        lines = [["0", *fields], ["0", "1", "1", "0", "2", *fields[4:]]]
        text = "# scan\n" * scan + "".join(" ".join(line) + "\n" for line in lines)
        _assert_matches_reference(text, mode, len(fields) == 5)


class TestSerializeLabels:
    @pytest.mark.parametrize("mode", ["pixel", "normalized"])
    def test_round_trip_is_exact(self, mode, tmp_path):
        for first, second in ((None, None), (0.7512345, 0.25)):
            boxes = [BBox(100.25, 200.5, 40.125, 30.0, first), BBox(10.5, 20.5, 5.0, 5.0, second)]
            predictions = first is not None
            arrays = box_array(boxes, predictions)
            text = serialize_labels(arrays, mode, DIMS)
            assert serialize_labels(boxes, mode, DIMS) == text
            assert [line.split()[0] for line in text.splitlines()] == ["0", "0"]
            assert np.array_equal(parse_label_arrays(text, mode, DIMS, predictions=predictions), arrays)
            (tmp_path / "labels.txt").write_text(text)
            assert parse_label_file(tmp_path / "labels.txt", mode, DIMS, predictions) == boxes

    def test_empty_input_gives_empty_text(self):
        assert serialize_labels([], "pixel", DIMS) == ""


class TestImageLabels:
    def test_gt_with_confidence_rejected(self):
        message = r"GT boxes of image 'img' must be an \(n, 4\) array, got shape \(1, 5\)"
        with pytest.raises(InputValidationError, match=message):
            ImageLabels("img", 100, 100, np.array([[10.0, 10.0, 4.0, 4.0, 0.5]]), np.zeros((0, 5)))

    def test_prediction_without_confidence_rejected(self):
        message = r"prediction boxes of image 'img' must be an \(n, 5\) array, got shape \(1, 4\)"
        with pytest.raises(InputValidationError, match=message):
            ImageLabels("img", 100, 100, np.zeros((0, 4)), np.array([[10.0, 10.0, 4.0, 4.0]]))

    @pytest.mark.parametrize(
        "gt, pred, message",
        [
            # (n, 3) arrays were taken on both sides, and failed inside the
            # pipeline, before
            ((2, 3), (0, 5), r"GT boxes .* got shape \(2, 3\)"),
            ((0, 4), (2, 3), r"prediction boxes .* got shape \(2, 3\)"),
            ((4,), (0, 5), r"GT boxes .* got shape \(4,\)"),
            ((0, 4), (1, 5, 1), r"prediction boxes .* got shape \(1, 5, 1\)"),
        ],
    )
    def test_an_array_of_another_shape_is_refused(self, gt, pred, message):
        with pytest.raises(InputValidationError, match=message):
            ImageLabels("img", 100, 100, np.full(gt, 50.0), np.full(pred, 0.5))

    @pytest.mark.parametrize(
        "gt, pred, message",
        [
            # a NaN confidence was accepted, and pred_boxes raised on it
            (
                [[50.0, 50, 4, 4]],
                [[50.0, 50, 4, 4, math.nan], [50.0, 50, -4, 4, 1.5]],
                "prediction box 0 of image 'a': confidence must be finite, got nan",
            ),
            (
                [[50.0, 50, 4, 4], [50.0, 50, 0, 4]],
                [[50.0, 50, 4, 4, 1.5]],
                r"GT box 1 of image 'a': box sides must be positive, got w=0\.0, h=4\.0",
            ),
            ([[math.inf, 50, 4, 4]], np.zeros((0, 5)), "GT box 0 of image 'a': cx must be finite"),
            (
                np.zeros((0, 4)),
                [[50.0, 50, 1e200, 1e200, 0.5]],
                "prediction box 0 of image 'a': box area must be positive and finite",
            ),
        ],
    )
    def test_a_box_that_breaks_a_box_rule_is_refused(self, gt, pred, message):
        with pytest.raises(InputValidationError, match=message):
            ImageLabels("a", 100, 100, np.array(gt), np.array(pred))

    @pytest.mark.parametrize(
        "image_id, frame, message",
        [
            ("", (100, 100), "image_id must be non-empty"),
            ("img", (0, 100), "width_px must be positive"),
            ("img", (100, -5), "height_px must be positive"),
            # taken with empty arrays, before
            pytest.param("img", (math.nan, 5), "width_px must be positive", id="img-nan-5"),
            # an OverflowError of the frame rule's int-to-float, before
            pytest.param("img", (10**400, 5), "width_px lies past", id="img-1e400-5"),
            pytest.param("img", (5, 10**400), "height_px lies past", id="img-5-1e400"),
        ],
    )
    def test_empty_id_and_non_positive_dimensions_rejected(self, image_id, frame, message):
        with pytest.raises(InputValidationError, match=message):
            image_labels(image_id, (), (), frame=frame)

    def test_center_overhang_allowance(self):
        # centers may overhang the frame by 10% per side
        image_labels("img", (BBox(-10.0, 110.0, 4, 4),), (), frame=(100, 100))
        with pytest.raises(InputValidationError):
            image_labels("img", (BBox(-10.1, 50.0, 4, 4),), (), frame=(100, 100))

    def test_overhang_error_names_the_first_offending_box(self):
        gt = (BBox(50, 50, 4, 4), BBox(50, 111.5, 4, 4))
        pred = (BBox(-20.25, 50, 4, 4, 0.5),)
        with pytest.raises(InputValidationError, match=r"\(50\.0, 111\.5\)"):
            image_labels("img", gt, pred, frame=(100, 100))
        with pytest.raises(InputValidationError, match=r"\(-20\.25, 50\.0\)"):
            image_labels("img", gt[:1], pred, frame=(100, 100))

    def test_the_gt_side_is_checked_before_the_prediction_side(self):
        # both sides' box rules came before the frame rule, so the
        # prediction's sides were named, before
        with pytest.raises(InputValidationError) as exc:
            ImageLabels(
                "a", 100, 100, np.array([[500.0, 50, 4, 4]]), np.array([[50.0, 50, -4, 4, 0.5]])
            )
        assert str(exc.value) == (
            "GT box 0 of image 'a': box center (500.0, 50.0) falls outside the expanded frame"
        )

    @pytest.mark.parametrize(
        "bad_line",
        [
            "0 inf 1 2 2",  # a box rule each
            "0 1 1 0 2",
            "0 100 100 1e-200 1e-200",
            "0 5000 1 2 2",  # the frame rule, worded two ways before
        ],
    )
    def test_a_bad_box_is_worded_alike_at_every_entry_point(self, bad_line):
        good_line = "0 1 1 2 2"
        words = []
        for text in (f"{good_line}\n{bad_line}\n", f"# scan\n{good_line}\n{bad_line}\n"):
            with pytest.raises(ParseError) as exc:
                parse_label_arrays(text, "pixel", DIMS, source="g.txt")
            line_no = text.count("\n")
            words.append(str(exc.value).removeprefix(f"g.txt:{line_no}: "))
        gt = np.array([[float(v) for v in line.split()[1:]] for line in (good_line, bad_line)])
        with pytest.raises(InputValidationError) as exc:
            ImageLabels("a", *DIMS, gt, np.zeros((0, 5)))
        words.append(str(exc.value).removeprefix("GT box 1 of image 'a': "))
        assert words[0] == words[1] == words[2] != str(exc.value)

    def test_equality_is_identity(self):
        # a generated __eq__ would raise on the arrays' ambiguous truth value
        gt, pred = [(10.0, 20.0, 4.0, 4.0)], [(11.0, 20.0, 4.0, 4.0, 0.5)]
        a = image_labels("img", gt, pred, frame=(100, 100))
        assert a == a
        assert a != image_labels("img", gt, pred, frame=(100, 100))

    def test_boxes_are_built_from_the_arrays(self):
        gt = (BBox(10.0, 20.0, 4.0, 4.0),)
        pred = (BBox(11.0, 20.0, 4.0, 4.0, 0.5), BBox(30.0, 30.0, 2.0, 6.0, 1.0))
        labels = image_labels("img", gt, pred, frame=(100, 100))
        assert labels.gt_boxes == gt and labels.pred_boxes == pred
        assert labels.gt_boxes is labels.gt_boxes
        with pytest.raises(AttributeError):
            labels.gt_boxes = ()


def _manifest(**overrides):
    doc = {
        "dataset_id": "real",
        "coordinate_mode": "pixel",
        "entries": [
            {
                "image_id": "img0",
                "gt_label_path": "img0_gt.txt",
                "pred_label_path": "img0_pred.txt",
                "width_px": 640,
                "height_px": 480,
            }
        ],
        "pairing": [["img0", "s_img0"]],
    }
    doc.update(overrides)
    return doc


class TestDatasetManifest:
    def test_json_round_trip(self):
        m = from_json(DatasetManifest, _manifest(), "manifest")
        assert from_json(DatasetManifest, json.loads(m.to_json()), "manifest") == m
        assert m.dataset_id == "real"
        assert m.pairing == (("img0", "s_img0"),)

    def test_duplicate_image_id_rejected(self):
        doc = _manifest()
        doc["entries"] = doc["entries"] * 2
        with pytest.raises(InputValidationError, match="img0"):
            from_json(DatasetManifest, doc, "manifest")

    @pytest.mark.parametrize(
        "frame, name", [((10**400, 5), "width_px"), ((5, 10**400), "height_px")]
    )
    def test_an_entry_with_a_side_past_floats_range_is_refused(self, frame, name):
        # it was refused only when its label files were read, before
        with pytest.raises(InputValidationError, match=f"{name} lies past float's range"):
            ManifestEntry("a", "g.txt", "p.txt", *frame)

    def test_invalid_json_reported_with_line(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text('{"dataset_id": "x",\n not json}')
        with pytest.raises(LoadError, match=r"manifest\.json: .*line 2 column 2"):
            read_manifest(mpath)

    def test_missing_keys_rejected(self):
        with pytest.raises(InputValidationError):
            from_json(DatasetManifest, {"dataset_id": "x"}, "manifest")

    @pytest.mark.parametrize(
        "doc, message",
        [
            # ignored, and a manifest without entries read as empty, before
            (_manifest(entires=[]), "unknown key 'entires'"),
            ({k: v for k, v in _manifest().items() if k != "entries"}, "missing field 'entries'"),
            (_manifest(entries=[{"image_id": "a"}]), "entries[0]: missing field 'gt_label_path'"),
            # the class's own refusals, located the same way
            (_manifest(entries=[{**_manifest()["entries"][0], "width_px": 0}]),
             "entries[0]: width_px must be positive"),
            (_manifest(entries=[{**_manifest()["entries"][0], "image_id": ""}]),
             "entries[0]: manifest entry needs an image_id"),
            (_manifest(dataset_id=""), "dataset_id must be non-empty"),
        ],
    )
    def test_unknown_and_missing_keys_are_named(self, doc, message):
        with pytest.raises(InputValidationError) as exc:
            from_json(DatasetManifest, doc, "manifest m.json")
        assert str(exc.value) == f"manifest m.json: {message}"


_ids = st.text(min_size=1, max_size=8)


@st.composite
def _span(draw, low, high, strict=False):
    a, b = sorted(draw(st.floats(low, high)) for _ in range(2))
    assume(a < b or not strict)
    return a, b


@st.composite
def _profiles(draw):
    low, high = draw(_span(0.0, 1.0))
    assume(low > 0.0)
    return DetectorProfile(low, high, draw(st.floats(0.0, 1.0, exclude_max=True)))


_scene_specs = st.builds(
    SceneSpec,
    n_instances=st.integers(0, 10**6),
    frame=st.tuples(st.integers(1, 10**5), st.integers(1, 10**5)),
    transform=st.builds(
        AffineTransform2D,
        st.floats(0.1, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(0.1, 10.0),
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
    ),
    center_noise_sigma=st.floats(0.0, 100.0),
    dropout_real=st.floats(0.0, 1.0, exclude_max=True),
    dropout_synth=st.floats(0.0, 1.0, exclude_max=True),
    detector_profile_real=_profiles(),
    detector_profile_synth=_profiles(),
    rng_seed=st.integers(0, 2**64),
    size_range=_span(1e-3, 1e3),
    min_separation_factor=st.floats(0.0, 100.0),
    center_region=_span(0.0, 1.0, strict=True),
    confidence_range=_span(0.0, 1.0),
)

_sizes = st.integers(1, 10**5)
_entries = st.builds(ManifestEntry, _ids, st.text(), st.text(), _sizes, _sizes)
_manifests = st.builds(
    DatasetManifest,
    _ids,
    st.sampled_from(["normalized", "pixel"]),
    st.lists(_entries, max_size=5, unique_by=lambda e: e.image_id).map(tuple),
    st.lists(st.tuples(_ids, _ids), max_size=5).map(tuple),
)


class TestFromJson:
    @settings(max_examples=50, deadline=None)
    @given(st.one_of(_scene_specs, _manifests))
    def test_a_valid_value_comes_back_equal_through_json(self, value):
        doc = json.loads(json.dumps(asdict(value)))
        assert from_json(type(value), doc, "doc") == value

    def test_a_dataclass_may_be_an_array_of_its_fields(self):
        doc = {"n_instances": 2, "transform": [1, 0, 0, 1, 5, -5], "detector_profile_real": [0.8]}
        with pytest.raises(InputValidationError, match="profile_real: missing field 'high'"):
            from_json(SceneSpec, doc, "spec")
        doc["detector_profile_real"].append(0.9)
        spec = from_json(SceneSpec, doc, "spec")
        assert spec.transform == AffineTransform2D.translation(5.0, -5.0)
        assert spec.detector_profile_real == DetectorProfile(0.8, 0.9)
        doc["transform"].append(1)
        with pytest.raises(InputValidationError, match="transform: expected a JSON object"):
            from_json(SceneSpec, doc, "spec")

    def test_a_whole_float_is_an_int_and_an_int_a_float(self):
        entry = {"image_id": "a", "gt_label_path": "g", "pred_label_path": "p"}
        m = from_json(ManifestEntry, {**entry, "width_px": 1280.0, "height_px": 960}, "e")
        assert (m.width_px, type(m.width_px)) == (1280, int)
        spec = from_json(SceneSpec, {"n_instances": 1, "center_noise_sigma": 2}, "s")
        assert (spec.center_noise_sigma, type(spec.center_noise_sigma)) == (2.0, float)

    def test_an_integer_past_float_range_is_refused(self):
        # json reads 1 followed by 400 zeros as an int that float() overflows on
        doc = json.loads('{"n_instances": 1, "center_noise_sigma": 1%s}' % ("0" * 400))
        with pytest.raises(InputValidationError, match="s: center_noise_sigma: expected a number"):
            from_json(SceneSpec, doc, "s")
        # an int field took it, and a float() of it raised OverflowError
        # further on, before
        with pytest.raises(InputValidationError, match="s: n_instances: expected a whole number"):
            from_json(SceneSpec, {"n_instances": 10**400}, "s")

    def test_a_field_of_a_type_the_rule_does_not_know_is_a_type_error(self):
        @dataclass(frozen=True)
        class Tagged:
            tags: frozenset[str]

        with pytest.raises(TypeError, match="from_json cannot decode a field of type"):
            from_json(Tagged, {"tags": ["a"]}, "t")


class TestLoadDataset:
    def _write_dataset(self, tmp_path):
        (tmp_path / "img0_gt.txt").write_text("0 100 100 40 30\n")
        (tmp_path / "img0_pred.txt").write_text("0 101 99 40 30 0.9\n")
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(_manifest()))
        return mpath

    def test_loads_labels_and_pairing(self, tmp_path):
        labels, manifest = load_dataset(self._write_dataset(tmp_path))
        assert len(labels) == 1
        assert labels[0].image_id == "img0"
        assert labels[0].gt_boxes == (BBox(100.0, 100.0, 40.0, 30.0),)
        assert labels[0].pred_boxes[0].confidence == 0.9
        assert manifest.dataset_id == "real"
        assert manifest.pairing == (("img0", "s_img0"),)

    def test_label_paths_resolve_against_the_manifest_directory(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        (tmp_path / "elsewhere").mkdir()
        self._write_dataset(tmp_path / "data")
        monkeypatch.chdir(tmp_path / "elsewhere")
        for path in (tmp_path / "data" / "manifest.json", "../data/manifest.json"):
            labels, _ = load_dataset(path)
            assert labels[0].gt_boxes == (BBox(100.0, 100.0, 40.0, 30.0),)

    def test_error_names_failing_entry(self, tmp_path):
        mpath = self._write_dataset(tmp_path)
        (tmp_path / "img0_gt.txt").write_text("garbage line\n")
        with pytest.raises(LoadError, match="img0"):
            load_dataset(mpath)

    def test_missing_label_file(self, tmp_path):
        mpath = self._write_dataset(tmp_path)
        (tmp_path / "img0_pred.txt").unlink()
        with pytest.raises(LoadError):
            load_dataset(mpath)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(LoadError):
            load_dataset(tmp_path / "nope.json")

    def test_malformed_manifest_names_the_file(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"dataset_id": "d"}))
        with pytest.raises(LoadError, match="manifest.json"):
            read_manifest(mpath)
        with pytest.raises(LoadError, match="manifest.json"):
            load_dataset(mpath)


def _labels(image_id):
    return image_labels(image_id, [(10, 10, 4, 4)], frame=(100, 100))


class TestPairing:
    def test_merge_requires_agreement(self):
        a = [("r0", "s0"), ("r1", "s1")]
        assert merge_pairings(a, []) == (("r0", "s0"), ("r1", "s1"))
        assert merge_pairings([], a) == (("r0", "s0"), ("r1", "s1"))
        assert merge_pairings(a, list(reversed(a))) == (("r0", "s0"), ("r1", "s1"))
        with pytest.raises(LoadError):
            merge_pairings(a, [("r0", "s1")])
        with pytest.raises(LoadError):
            merge_pairings([], [])
        # a pair repeated in one table only: the merged table must not
        # drop the repeat that pair_datasets would refuse
        with pytest.raises(LoadError):
            merge_pairings(a, a + a[:1])

    def test_pair_datasets_resolves_ids(self):
        real = [_labels("r0"), _labels("r1")]
        synth = [_labels("s0"), _labels("s1")]
        pairs = pair_datasets(real, synth, [("r1", "s0"), ("r0", "s1")])
        assert [(a.image_id, b.image_id) for a, b in pairs] == [("r1", "s0"), ("r0", "s1")]

    def test_dangling_id_is_named(self):
        real = [_labels("r0")]
        synth = [_labels("s0")]
        with pytest.raises(LoadError, match="r9"):
            pair_datasets(real, synth, [("r9", "s0")])
        with pytest.raises(LoadError, match="s9"):
            pair_datasets(real, synth, [("r0", "s9")])

    def test_double_pairing_rejected(self):
        real = [_labels("r0")]
        synth = [_labels("s0"), _labels("s1")]
        with pytest.raises(LoadError, match="r0"):
            pair_datasets(real, synth, [("r0", "s0"), ("r0", "s1")])
        real.append(_labels("r1"))
        with pytest.raises(LoadError, match="synth image 's0' paired twice"):
            pair_datasets(real, synth, [("r0", "s0"), ("r1", "s0")])

    def test_empty_pairing_table_rejected(self):
        with pytest.raises(LoadError, match="pairing table is empty"):
            pair_datasets([_labels("r0")], [_labels("s0")], [])


DOMAINS = ("Real", "Principled", "Hapke")
RESULTS = {
    ("Real", ("Real", "Principled")): 0.2256,
    ("Real", ("Real", "Hapke")): 0.3152,
    ("Principled", ("Principled", "Hapke")): 0.0511,
    ("Principled", ("Real", "Principled")): 0.3808,
    ("Hapke", ("Principled", "Hapke")): 0.0261,
    ("Hapke", ("Real", "Hapke")): 0.4638,
}


class TestWriteReport:
    def test_markdown_bolds_row_minima_and_blanks_diagonal(self):
        text = write_report(DOMAINS, RESULTS, fmt="markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| Train\\Eval |")
        assert "‖Principled − Hapke‖" in lines[0]
        assert lines[2] == "| Real | - | 0.3152 | **0.2256** |"
        assert lines[3] == "| Principled | **0.0511** | - | 0.3808 |"
        assert lines[4] == "| Hapke | **0.0261** | 0.4638 | - |"

    def test_csv_round_trips_values(self):
        text = write_report(DOMAINS, RESULTS, fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "Train\\Eval"
        assert rows[1][1] == ""
        assert float(rows[1][3]) == 0.2256
        assert float(rows[3][2]) == 0.4638

    def test_json_round_trips_matrix(self):
        doc = json.loads(write_report(DOMAINS, RESULTS, fmt="json", provenance={"seed": 7}))
        ipds = {(c["train"], tuple(c["pair"])): c["ipd"] for c in doc["cells"]}
        parsed = [
            [CrossValCell(train, tuple(pair), ipds[(train, tuple(pair))]) for pair in doc["columns"]]
            for train in doc["domains"]
        ]
        assert parsed == cross_validation(DOMAINS, RESULTS)
        assert doc["provenance"] == {"seed": 7}

    def test_json_embeds_details_for_ipd_results(self):
        detailed = {
            key: IpdResult(
                tuple(PerfRecord("img", i, i, v, 0.0) for i in range(4)),
                unmatched_real_total=1,
            )
            for key, v in RESULTS.items()
        }
        doc = json.loads(write_report(DOMAINS, detailed, fmt="json"))
        with_detail = [c for c in doc["cells"] if "detail" in c]
        assert len(with_detail) == 6
        assert with_detail[0]["detail"]["instance_count"] == 4

    def test_output_is_stable_across_calls(self):
        a = write_report(DOMAINS, RESULTS, fmt="json", provenance={"seed": 7})
        b = write_report(DOMAINS, RESULTS, fmt="json", provenance={"seed": 7})
        assert a == b

    def test_unknown_format_rejected(self):
        with pytest.raises(InputValidationError):
            write_report(DOMAINS, RESULTS, fmt="yaml")


class TestIpdReport:
    def setup_method(self):
        values = [("a", 1.0, 0.0), ("a", 0.5, 0.5), ("b", 0.0, 0.0), ("b", 1.0, 1.0)]
        self.result = IpdResult(
            tuple(PerfRecord(img, i % 2, i % 2, *pv) for i, (img, *pv) in enumerate(values)),
            unmatched_real_total=1,
            unmatched_synth_total=2,
        )
        self.doc = {
            "ipd": 0.25,
            "instance_count": 4,
            "unmatched_real_total": 1,
            "unmatched_synth_total": 2,
            "per_image_breakdown": [
                {"image_id": "a", "ipd_contribution": 0.5, "pair_count": 2},
                {"image_id": "b", "ipd_contribution": 0.0, "pair_count": 2},
            ],
        }

    def test_result_dict_holds_the_derived_fields(self):
        assert ipd_result_to_dict(self.result) == self.doc

    def test_json_report_round_trip(self):
        text = write_ipd_report(self.result, provenance={"gate": 5.0})
        doc = json.loads(text)
        assert doc["result"] == self.doc
        assert doc["provenance"] == {"gate": 5.0}

    def test_markdown_totals_row(self):
        text = write_ipd_report(self.result, fmt="markdown")
        assert "| **all** | **0.2500** | 4 |" in text.splitlines()[-1]

    def test_markdown_escapes_ids_that_json_and_csv_keep(self):
        # a backslash just before a `|` is doubled, so it cannot escape the escape
        ids = ("left|right", "two\r\nlines\rand\nmore", r"a\|b", r"a\\|b")
        result = IpdResult(tuple(PerfRecord(i, 0, 0, 1.0, 0.5) for i in ids))
        lines = write_ipd_report(result, fmt="markdown").split("\n")
        assert lines[2:6] == [
            "| left\\|right | 0.5000 | 1 |",
            "| two lines and more | 0.5000 | 1 |",
            r"| a\\\|b | 0.5000 | 1 |",
            r"| a\\\\\|b | 0.5000 | 1 |",
        ]
        rows = list(csv.reader(io.StringIO(write_ipd_report(result, fmt="csv"))))
        assert [row[0] for row in rows[1:5]] == list(ids)
        doc = json.loads(write_ipd_report(result))
        assert [row["image_id"] for row in doc["result"]["per_image_breakdown"]] == list(ids)
        pair = ("a|b", "c")
        lines = write_report(["a|b", "c"], {("a|b", pair): 0.5, ("c", pair): 0.25}).splitlines()
        assert lines[0] == "| Train\\Eval | ‖a\\|b − c‖ |"
        assert lines[2] == "| a\\|b | **0.5000** |"

    def test_csv_has_header_and_total(self):
        rows = list(csv.reader(io.StringIO(write_ipd_report(self.result, fmt="csv"))))
        assert rows[0] == ["image", "ipd_contribution", "pair_count"]
        assert rows[-1][0] == "all"
        assert float(rows[-1][1]) == 0.25

    def test_unknown_format_rejected(self):
        with pytest.raises(InputValidationError):
            write_ipd_report(self.result, fmt="xml")
