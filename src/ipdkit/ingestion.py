"""Dataset input: label files, JSON manifests and pairing. Reports are
written by the report module.

Label files are plain text, one box per line:

    class_id cx cy w h [confidence]

A GT file has five fields a line and a prediction file six; the reader
is told the file's kind and the image's frame. The class id is checked
to be an integer and then ignored: ipdkit measures a single-class task,
and serialize_labels writes 0. parse_label_arrays is the one label
parser. It reads a file into one float64 array of the columns after the
class id, in pixels: (n, 4) cx, cy, w, h rows in a GT file, and (n, 5)
rows with the confidence last in a prediction file. Each input rule has
one function that checks it and words its refusal: check_frame a frame's
sides (positive, and held by a float), _first_bad_box the first box of an
array that breaks a box rule of geometry.box_rule_mask (finite values,
positive sides, a confidence in [0, 1], a positive and finite area) or
the frame rule (a center at most 10% of the frame outside it), and
_read_text an input file's text (UTF-8, a byte-order mark dropped).
numpy's C text reader is only an accelerator: its arrays are returned
only when it took every line with the kind's dtype and no box is bad.
Every other file (comments, a line of the other kind, a number the
reader does not parse, a class id beyond int64, a malformed line, a bad
box) goes through a per-line scan with Python's int and float. Both
accept the same language and give the same bits, and the scan alone
locates every error: the first bad line in file order, whichever rule it
breaks. ImageLabels holds an image's GT and prediction arrays and checks
each, GT first, for its shape and then its boxes again, for arrays that
come from no file. The pipeline, the scene generator and the AP
baseline use only these arrays. BBox tuples, BBox(*row) of either kind,
are built from them only for callers that ask for them, such as the
benchmark's dataset builder: parse_label_file and
ImageLabels.gt_boxes/pred_boxes. serialize_labels writes either form.

A manifest is one JSON document describing a dataset's images and,
optionally, the real<->synth pairing. read_json reads every JSON input
file, and from_json decodes each into a frozen dataclass
(DatasetManifest here, SceneSpec and the cells file in the CLI) by one
rule on its field types: a str takes a string, an int a whole number
(1280.0 is 1280), a float any number, neither a boolean nor an integer
past float's range; tuple[T, ...] and tuple[T, U] an array of that
length, T | None null or a T, and a dataclass an object of its fields or
an array of them in order. An unknown key or a missing required field is
refused. Errors name a field path: entries[1].width_px.
load_dataset(path) reads a manifest and loads every image it lists
through load_entry, with label paths taken relative to the manifest's
directory. Loading is atomic: the first bad line or missing file aborts
the whole dataset with a located error. merge_pairings reconciles the
two manifests' pairings, and pair_datasets checks the result once,
against both datasets: their loaded images, or just their manifest
entries when only one pair is to be loaded.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache, cached_property
from pathlib import Path
from types import UnionType
from typing import Sequence, TypeVar, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import InputValidationError, LoadError, ParseError
from .geometry import BBox, box_rule_error, box_rule_mask

_COORDINATE_MODES = ("normalized", "pixel")


def _require_mode(coordinate_mode: str) -> None:
    if coordinate_mode not in _COORDINATE_MODES:
        raise InputValidationError(
            f"coordinate_mode must be one of {_COORDINATE_MODES}, got {coordinate_mode!r}"
        )


def check_frame(sides: Sequence[int], names: Sequence[str]) -> None:
    """The rule of a frame's sides: raise an InputValidationError naming
    the first side that is not positive or that no float holds, since the
    frame rule and normalized labels scale floats by the sides."""
    for side, name in zip(sides, names):
        if not side > 0:  # NaN too
            raise InputValidationError(f"{name} must be positive")
        try:
            float(side)
        except OverflowError:
            raise InputValidationError(f"{name} lies past float's range") from None


def _first_bad_box(boxes: np.ndarray, image_dims: tuple[int, int]) -> tuple[int, str] | None:
    """The first row of a box array, cx and cy first, that breaks a box
    rule or the frame rule (a center at most 10% of the frame outside it),
    and the words of its error; None when every row keeps them."""
    width, height = image_dims
    cx, cy = boxes[:, 0], boxes[:, 1]
    inside = (-0.1 * width <= cx) & (cx <= 1.1 * width)
    inside &= (-0.1 * height <= cy) & (cy <= 1.1 * height)
    bad = box_rule_mask(boxes)
    bad |= ~inside
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    values = boxes[row].tolist()
    words = box_rule_error(*values)
    return row, words or f"box center ({values[0]}, {values[1]}) falls outside the expanded frame"


@dataclass(frozen=True, eq=False)
class ImageLabels:
    """All labels of one image, in pixel units, as float64 arrays of a
    label file's columns after the class id, one row per box: gt is
    (n, 4) cx, cy, w, h and pred (m, 5), the confidence last.

    Every box keeps the box rules, and its center may overhang the frame
    by 10% on each side. gt_boxes and pred_boxes are the same boxes as BBox
    tuples, built the first time they are read. Two ImageLabels are equal
    only when they are one.
    """

    image_id: str
    width_px: int
    height_px: int
    gt: np.ndarray
    pred: np.ndarray

    def __post_init__(self):
        if not self.image_id:
            raise InputValidationError("image_id must be non-empty")
        check_frame((self.width_px, self.height_px), ("width_px", "height_px"))
        image = f"image {self.image_id!r}"
        for name, boxes, columns in (("GT", self.gt, 4), ("prediction", self.pred, 5)):
            if boxes.ndim != 2 or boxes.shape[1] != columns:
                raise InputValidationError(
                    f"{name} boxes of {image} must be an (n, {columns}) array, "
                    f"got shape {boxes.shape}"
                )
            if bad := _first_bad_box(boxes, (self.width_px, self.height_px)):
                row, words = bad
                raise InputValidationError(f"{name} box {row} of {image}: {words}")

    @cached_property
    def gt_boxes(self) -> tuple[BBox, ...]:
        return tuple(BBox(*row) for row in self.gt.tolist())

    @cached_property
    def pred_boxes(self) -> tuple[BBox, ...]:
        return tuple(BBox(*row) for row in self.pred.tolist())


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    gt_label_path: str
    pred_label_path: str
    width_px: int
    height_px: int

    def __post_init__(self):
        if not self.image_id:
            raise InputValidationError("manifest entry needs an image_id")
        check_frame((self.width_px, self.height_px), ("width_px", "height_px"))


@dataclass(frozen=True)
class DatasetManifest:
    """One dataset: its images plus (optionally) the real<->synth pairing.

    A manifest declares one side of a pair, so the pairing is checked in
    pair_datasets, against both loaded datasets.
    """

    dataset_id: str
    coordinate_mode: str
    entries: tuple[ManifestEntry, ...]
    pairing: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.dataset_id:
            raise InputValidationError("dataset_id must be non-empty")
        _require_mode(self.coordinate_mode)
        ids = [e.image_id for e in self.entries]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise InputValidationError(f"duplicate image_id {dup!r} in manifest entries")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


# The columns of a box line, read by numpy's C text reader: the class id,
# read as int64 only so that the reader refuses what int() refuses, then
# cx, cy, w, h and, on a prediction line, the confidence.
_ROW_DTYPES = {
    n: np.dtype([("class_id", np.int64), ("values", np.float64, (n - 1,))]) for n in (5, 6)
}


def _to_pixels(boxes: np.ndarray, coordinate_mode: str, image_dims: tuple[int, int]) -> None:
    """Scale the cx, cy, w, h columns of box rows to pixels in place, in
    normalized mode."""
    if coordinate_mode == "normalized":
        width, height = image_dims
        with np.errstate(over="ignore"):  # an overflow to inf breaks the box rules
            boxes[:, :4] *= np.array([width, height, width, height], dtype=np.float64)


def _read_uniform(
    lines: list[str], coordinate_mode: str, image_dims: tuple[int, int], predictions: bool
) -> np.ndarray | None:
    """Read a GT or prediction file's box lines with numpy's C text reader,
    or return None where it refuses a line or warns, and where a box breaks
    a box rule or the frame rule, so that the scan words the error.

    The reader splits on the whitespace str.split splits on, parses each
    float through PyOS_string_to_double as float() does, and takes only
    ASCII [+-]digits as a class id (older numpy, which falls back to float
    with a DeprecationWarning, is held to that), so every text it accepts
    the scan accepts with the same bits. It refuses the rest: a `#`, a line
    of the other kind or of another field count, an underscore or
    non-ASCII digit in a number, NUL, a class id beyond int64, and every
    line the scan calls malformed. It warns of a text without a box line.
    """
    try:
        with warnings.catch_warnings():
            # numpy from 1.23 until that deprecation expired reads a class
            # id such as 1.0 through float with only a DeprecationWarning;
            # make that, and the warning of empty input, a refusal too
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=_ROW_DTYPES[5 + predictions], comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    boxes = rows["values"].copy()
    _to_pixels(boxes, coordinate_mode, image_dims)
    return None if _first_bad_box(boxes, image_dims) else boxes


def _scan(
    lines: list[str],
    coordinate_mode: str,
    image_dims: tuple[int, int],
    predictions: bool,
    source: str,
) -> np.ndarray:
    """Read the box lines of a GT or prediction file one at a time through
    Python's int and float, skipping blank lines and `#` comments, and
    raise a ParseError at the first bad line in file order.

    A malformed line, or one of the other kind, ends the scan; it is raised
    only if every box before it keeps the box and frame rules, and
    otherwise the first box that breaks one.
    """
    n_values = 4 + predictions  # cx, cy, w, h and, on a prediction line, the confidence
    values: list[float] = []
    line_nos: list[int] = []
    error: str | None = None  # what is wrong with line line_no, where the scan stopped
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        n = len(fields)
        if n not in (5, 6):
            error = f"expected 5 or 6 fields, got {n}"
            break
        if (n == 6) != predictions:
            error = f"{'prediction lacks' if predictions else 'GT box carries'} a confidence"
            break
        try:
            int(fields[0])
        except ValueError:
            error = f"class_id must be an integer, got {fields[0]!r}"
            break
        try:
            values += list(map(float, fields[1:]))
        except ValueError as e:
            error = f"non-numeric field: {e}"
            break
        line_nos.append(line_no)

    boxes = np.array(values, dtype=np.float64).reshape(-1, n_values)
    _to_pixels(boxes, coordinate_mode, image_dims)
    if bad := _first_bad_box(boxes, image_dims):
        row, error = bad
        line_no = line_nos[row]
    if error is not None:
        raise ParseError(error, source=source, line_no=line_no)
    return boxes


def parse_label_arrays(
    text: str,
    coordinate_mode: str,
    image_dims: tuple[int, int],
    source: str = "<string>",
    predictions: bool = False,
) -> np.ndarray:
    """Parse the lines of a GT label file, or of a prediction file when
    predictions is true, into a pixel-unit box array: (n, 4) cx, cy, w, h
    rows, or (n, 5) with the confidence last.

    Blank lines and `#` comments are skipped. In normalized mode cx/w are
    scaled by the image width and cy/h by the height. A ParseError names
    the first bad line in file order, whichever rule it breaks: a box
    rule, the kind rule or the frame rule.
    """
    _require_mode(coordinate_mode)
    check_frame(image_dims, ("image_dims[0]", "image_dims[1]"))

    # the reader gets the scan's lines: a file object would not break
    # lines at \x85 or \u2028
    lines = text.splitlines()
    args = lines, coordinate_mode, image_dims, predictions
    # the reader refuses every file holding a `#`; spare it the attempt
    boxes = None if "#" in text else _read_uniform(*args)
    return boxes if boxes is not None else _scan(*args, source)


def _read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 input file, a leading byte-order mark dropped.
    A failure to read or decode it is a LoadError naming `what` and the path."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise LoadError(f"cannot read {what} {path}: {e}") from e


def read_label_arrays(
    path: str | Path,
    coordinate_mode: str,
    image_dims: tuple[int, int],
    predictions: bool = False,
) -> np.ndarray:
    """parse_label_arrays on the text of a GT or prediction label file,
    located by its path."""
    p = Path(path)
    text = _read_text(p, "label file")
    return parse_label_arrays(text, coordinate_mode, image_dims, str(p), predictions)


def parse_label_file(
    path: str | Path,
    coordinate_mode: str,
    image_dims: tuple[int, int],
    predictions: bool = False,
) -> list[BBox]:
    rows = read_label_arrays(path, coordinate_mode, image_dims, predictions).tolist()
    return [BBox(*row) for row in rows]


def serialize_labels(
    boxes: np.ndarray | Sequence[BBox], coordinate_mode: str, image_dims: tuple[int, int]
) -> str:
    """Label-file text of a box array (or of a sequence of BBoxes), one
    line per box with class id 0: the inverse of parse_label_arrays, exact
    in pixel mode."""
    _require_mode(coordinate_mode)
    width, height = image_dims
    if isinstance(boxes, np.ndarray):
        rows = boxes.tolist()
    else:
        rows = [(b.cx, b.cy, b.w, b.h, b.confidence)[: 5 - (b.confidence is None)] for b in boxes]
    lines = []
    for cx, cy, w, h, *confidence in rows:
        if coordinate_mode == "normalized":
            cx, w = cx / width, w / width
            cy, h = cy / height, h / height
        lines.append(" ".join(["0", *map(repr, (cx, cy, w, h, *confidence))]))
    return "\n".join(lines) + ("\n" if lines else "")


def read_json(path: str | Path, what: str) -> object:
    """Read a JSON input file's text and decode it. A failure to do
    either, or a key repeated in one object, is a LoadError naming `what`
    and the path."""
    p = Path(path)
    text = _read_text(p, what)

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(key for key in obj if sum(key == k for k, _ in pairs) > 1)
            raise LoadError(f"{what} {p}: key {key!r} is repeated in one object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise LoadError(f"{what} {p}: {e}") from e


@cache
def _json_fields(cls: type) -> dict[str, tuple[object, bool]]:
    """Each field of a dataclass: its type, and whether it lacks a default."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING) for f in fields(cls)}


def _refusal(path: str, message: str) -> InputValidationError:
    return InputValidationError(f"{path}: {message}" if path else message)


def _decode(kind: object, value: object, path: str) -> object:
    """from_json's typing rule, applied to one value at a field path."""
    if kind is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    elif kind is int or kind is float:
        # type(), not isinstance: a JSON true is an int to isinstance
        if type(value) is float and (kind is float or value.is_integer()) or type(value) is int:
            try:
                float(value)  # an integer literal past float's range, for either kind
            except OverflowError:
                pass
            else:
                return kind(value)
        expected = "a whole number" if kind is int else "a number"
    elif is_dataclass(kind):
        spec = _json_fields(kind)
        if isinstance(value, list) and len(value) <= len(spec):
            value = dict(zip(spec, value))
        if not isinstance(value, dict):
            name = kind.__name__
            raise _refusal(path, f"expected a JSON object or array of {name} fields, got {value!r}")
        unknown = [k for k in value if k not in spec]
        missing = [k for k, (_, required) in spec.items() if required and k not in value]
        if unknown or missing:
            problem = f"unknown key {unknown[0]!r}" if unknown else f"missing field {missing[0]!r}"
            raise _refusal(path, problem)
        kwargs = {k: _decode(spec[k][0], v, f"{path}.{k}" if path else k) for k, v in value.items()}
        try:
            return kind(**kwargs)
        except ValueError as e:
            raise _refusal(path, str(e)) from e
    elif get_origin(kind) in (Union, UnionType):  # T | None, in that order
        return None if value is None else _decode(get_args(kind)[0], value, path)
    elif get_origin(kind) is tuple:
        args = get_args(kind)
        variadic = args[-1] is Ellipsis
        if isinstance(value, list) and (variadic or len(value) == len(args)):
            items = zip(args[:1] * len(value) if variadic else args, value)
            return tuple(_decode(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(items))
        expected = "an array" if variadic else f"an array of {len(args)}"
    else:
        raise TypeError(f"from_json cannot decode a field of type {kind!r}")
    raise _refusal(path, f"expected {expected}, got {value!r}")


def from_json(cls: type, doc: object, where: str):
    """Build the frozen dataclass cls from a decoded JSON document by the
    typing rule in the module docstring. Every refusal, the class's own
    included, is an InputValidationError prefixed `where: field path: `."""
    try:
        return _decode(cls, doc, "")
    except InputValidationError as e:
        raise InputValidationError(f"{where}: {e}") from e


def read_manifest(path: str | Path) -> DatasetManifest:
    """Read and decode a manifest file; any failure is a LoadError naming it."""
    try:
        return from_json(DatasetManifest, read_json(path, "manifest"), f"manifest {Path(path)}")
    except InputValidationError as e:
        raise LoadError(str(e)) from e


def load_entry(entry: ManifestEntry, coordinate_mode: str, root: Path) -> ImageLabels:
    """Load the labels of one manifest entry, its label paths taken
    relative to root; any failure is a LoadError naming the entry."""
    dims = (entry.width_px, entry.height_px)
    try:
        gt, pred = (
            read_label_arrays(root / path, coordinate_mode, dims, predictions)
            for path, predictions in ((entry.gt_label_path, False), (entry.pred_label_path, True))
        )
        return ImageLabels(entry.image_id, entry.width_px, entry.height_px, gt, pred)
    except (ParseError, LoadError, InputValidationError) as e:
        raise LoadError(f"entry {entry.image_id!r}: {e}") from e


def load_dataset(path: str | Path) -> tuple[list[ImageLabels], DatasetManifest]:
    """Read a manifest and load every image of its dataset, atomically.

    Relative label paths are resolved against the manifest's directory.
    Returns the labels in entry order and the manifest.
    """
    manifest = read_manifest(path)
    root = Path(path).parent
    labels = [load_entry(entry, manifest.coordinate_mode, root) for entry in manifest.entries]
    return labels, manifest


def merge_pairings(
    real_pairing: Sequence[tuple[str, str]],
    synth_pairing: Sequence[tuple[str, str]],
) -> tuple[tuple[str, str], ...]:
    """Combine the pairing tables of the two manifests; when both declare
    one they must hold the same pairs, in any order. A pair repeated in
    one table only is a disagreement: pair_datasets sees one table."""
    a, b = tuple(real_pairing), tuple(synth_pairing)
    if a and b and sorted(a) != sorted(b):
        raise LoadError("the two manifests declare conflicting pairings")
    if not (a or b):
        raise LoadError("neither manifest declares a real<->synth pairing")
    return a or b


# the items pair_datasets pairs by their image_id
_Image = TypeVar("_Image", ImageLabels, ManifestEntry)


def pair_datasets(
    real_labels: Sequence[_Image],
    synth_labels: Sequence[_Image],
    pairing: Sequence[tuple[str, str]],
) -> list[tuple[_Image, _Image]]:
    """Resolve the pairing table into aligned (real, synth) pairs of
    images: the loaded ImageLabels, or the ManifestEntry items, which
    check the table before any label file is read."""
    if not pairing:
        raise LoadError("pairing table is empty")
    real_by_id = {lab.image_id: lab for lab in real_labels}
    synth_by_id = {lab.image_id: lab for lab in synth_labels}
    seen_real: set[str] = set()
    seen_synth: set[str] = set()
    out: list[tuple[ImageLabels, ImageLabels]] = []
    for rid, sid in pairing:
        if rid in seen_real:
            raise LoadError(f"real image {rid!r} paired twice")
        if sid in seen_synth:
            raise LoadError(f"synth image {sid!r} paired twice")
        seen_real.add(rid)
        seen_synth.add(sid)
        if rid not in real_by_id:
            raise LoadError(f"pairing references unknown real image {rid!r}")
        if sid not in synth_by_id:
            raise LoadError(f"pairing references unknown synth image {sid!r}")
        out.append((real_by_id[rid], synth_by_id[sid]))
    return out
