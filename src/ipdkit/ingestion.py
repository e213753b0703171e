"""Dataset input: label files, JSON manifests and pairing. Reports are
written by the report module.

Label files are plain text, one box per line:

    class_id cx cy w h [confidence]

Five fields mark a GT box, six a prediction. The class id is checked to
be an integer and then ignored: ipdkit measures a single-class task, and
serialize_labels writes 0. parse_label_arrays is the one label parser. It
reads a file into a BoxArrays: an (n, 4) float64 cx, cy, w, h array in
pixels and an (n,) confidence vector that is NaN on a GT line. The box
rules (finite values, positive sides, a confidence in [0, 1], a positive
and finite area) are checked on a file's arrays by geometry.box_rule_mask.
numpy's C text reader is only an accelerator: it reads a file whose lines
all have one field count and no comment, and its arrays are returned only
when it took every line and every box keeps the box rules. Every other
file (comments, GT and prediction lines mixed, a number the reader does
not parse, a class id beyond int64, a malformed line, a bad box) goes
through a per-line scan with Python's int and float. Both accept the same
language and give the same bits, and the scan alone words and locates
every error: the first bad line in file order, worded by box_rule_error.
ImageLabels holds an image's GT and prediction arrays and checks the
image rules (which side carries confidences, the 10% frame overhang) the
same way. The pipeline, the scene generator and the AP baseline use only
these arrays. BBox tuples are built from them only for callers that ask
for them, such as the benchmark's dataset builder: parse_label_file,
BoxArrays.boxes and ImageLabels.gt_boxes/pred_boxes. serialize_labels
writes either form.

A manifest is one JSON document describing a dataset's images and,
optionally, the real<->synth pairing. read_json reads every JSON input
file, and from_json decodes each into a frozen dataclass (DatasetManifest
here, SceneSpec and the cells file in the CLI) by one rule on its field
types: a str takes a string, an int a whole number (1280.0 is 1280), a
float any number, and neither a boolean; tuple[T, ...] and tuple[T, U] an
array of that length, T | None null or a T, and a dataclass an object of
its fields or an array of them in order. An unknown key or a missing
required field is refused. Errors name a field path: entries[1].width_px.
load_dataset(path) reads a manifest and loads every image it lists
through load_entry, with label paths taken relative to the manifest's
directory. Loading is atomic: the first bad line or missing file aborts
the whole dataset with a located error. merge_pairings reconciles the two
manifests' pairings, and pair_datasets checks the result once, against
both datasets: their loaded images, or just their manifest entries when
only one pair is to be loaded.
"""

from __future__ import annotations

import json
import math
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


@dataclass(frozen=True, eq=False)
class BoxArrays:
    """The boxes of one label file, one row per box in file order.

    xywh is (n, 4) float64 cx, cy, w, h; confidence is (n,) float64 with
    NaN for "no confidence" (a GT box). No class id is kept. Every row
    satisfies the box rules of geometry.box_rule_error, which
    parse_label_arrays checks and the scene generator's SceneSpec
    guarantees. Equality is exact, NaN-aware on confidence.
    """

    xywh: np.ndarray
    confidence: np.ndarray

    def boxes(self) -> tuple[BBox, ...]:
        return tuple(
            BBox(cx, cy, w, h, None if math.isnan(c) else c)
            for (cx, cy, w, h), c in zip(self.xywh.tolist(), self.confidence.tolist())
        )

    def __len__(self) -> int:
        return len(self.xywh)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxArrays):
            return NotImplemented
        return np.array_equal(self.xywh, other.xywh) and np.array_equal(
            self.confidence, other.confidence, equal_nan=True
        )


@dataclass(frozen=True)
class ImageLabels:
    """All labels of one image, in pixel units: the GT and prediction
    boxes as BoxArrays.

    Box centers may overhang the frame by 10% on each side; GT boxes must
    not carry a confidence, predictions must. gt_boxes and pred_boxes are
    the same boxes as BBox tuples, built the first time they are read.
    """

    image_id: str
    width_px: int
    height_px: int
    gt: BoxArrays
    pred: BoxArrays

    def __post_init__(self):
        if not self.image_id:
            raise InputValidationError("image_id must be non-empty")
        if self.width_px <= 0 or self.height_px <= 0:
            raise InputValidationError("image dimensions must be positive")
        if not np.isnan(self.gt.confidence).all():
            raise InputValidationError(
                f"GT box in image {self.image_id!r} carries a confidence"
            )
        if np.isnan(self.pred.confidence).any():
            raise InputValidationError(
                f"prediction in image {self.image_id!r} lacks a confidence"
            )
        cx, cy = np.concatenate([self.gt.xywh[:, :2], self.pred.xywh[:, :2]]).T
        inside = (-0.1 * self.width_px <= cx) & (cx <= 1.1 * self.width_px)
        inside &= (-0.1 * self.height_px <= cy) & (cy <= 1.1 * self.height_px)
        if not inside.all():
            first = int(np.argmin(inside))
            raise InputValidationError(
                f"box center ({cx[first].tolist()}, {cy[first].tolist()}) falls outside "
                f"the expanded frame of image {self.image_id!r}"
            )

    @cached_property
    def gt_boxes(self) -> tuple[BBox, ...]:
        return self.gt.boxes()

    @cached_property
    def pred_boxes(self) -> tuple[BBox, ...]:
        return self.pred.boxes()


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
        if self.width_px <= 0 or self.height_px <= 0:
            raise InputValidationError(
                f"entry {self.image_id!r}: image dimensions must be positive"
            )


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


def _to_pixels(xywh: np.ndarray, coordinate_mode: str, image_dims: tuple[int, int]) -> np.ndarray:
    """Scale cx, cy, w, h rows to pixels in place, in normalized mode."""
    if coordinate_mode == "normalized":
        width, height = image_dims
        with np.errstate(over="ignore"):  # an overflow to inf breaks the box rules
            xywh *= np.array([width, height, width, height], dtype=np.float64)
    return xywh


def _read_uniform(
    lines: list[str], coordinate_mode: str, image_dims: tuple[int, int]
) -> BoxArrays | None:
    """Read box lines that all have the field count of the first with
    numpy's C text reader, or return None: where the reader refuses a line
    and where a box breaks a box rule, so that the scan words the error.

    The reader splits on the whitespace str.split splits on, parses each
    float through PyOS_string_to_double as float() does, and takes only
    ASCII [+-]digits as a class id (older numpy, which falls back to float
    with a DeprecationWarning, is held to that), so every text it accepts
    the scan accepts with the same bits. It refuses the rest: a `#`, mixed
    field counts, an underscore or non-ASCII digit in a number, NUL, a
    class id beyond int64, and every line the scan calls malformed. It is
    not run without a box line, where it would warn of empty input.
    """
    first = next((fields for raw in lines if (fields := raw.split())), None)
    if first is None or len(first) not in _ROW_DTYPES:
        return None
    try:
        with warnings.catch_warnings():
            # numpy from 1.23 until that deprecation expired reads a class
            # id such as 1.0 through float with only a DeprecationWarning;
            # make that a refusal too
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype=_ROW_DTYPES[len(first)], comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    values = rows["values"]
    given = len(first) == 6
    xywh = _to_pixels(values[:, :4].copy(), coordinate_mode, image_dims)
    confidence = values[:, 4].copy() if given else np.full(len(rows), math.nan)
    return None if box_rule_mask(xywh, confidence, given).any() else BoxArrays(xywh, confidence)


def _scan(
    lines: list[str], coordinate_mode: str, image_dims: tuple[int, int], source: str
) -> BoxArrays:
    """Read box lines one at a time through Python's int and float,
    skipping blank lines and `#` comments, and raise a ParseError at the
    first bad line in file order.

    A malformed line ends the scan; it is raised only if every box before
    it passes the box rules, and otherwise the first box that breaks one.
    """
    values: list[float] = []  # cx, cy, w, h, confidence per box (NaN: none given)
    given: list[bool] = []
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
        try:
            int(fields[0])
        except ValueError:
            error = f"class_id must be an integer, got {fields[0]!r}"
            break
        try:
            row = list(map(float, fields[1:]))
        except ValueError as e:
            error = f"non-numeric field: {e}"
            break
        if n == 5:
            row.append(math.nan)
        values += row
        given.append(n == 6)
        line_nos.append(line_no)

    table = np.array(values, dtype=np.float64).reshape(-1, 5)
    xywh = _to_pixels(np.ascontiguousarray(table[:, :4]), coordinate_mode, image_dims)
    confidence = table[:, 4].copy()
    bad = box_rule_mask(xywh, confidence, np.array(given, dtype=bool))
    if bad.any():
        i = int(np.argmax(bad))
        row = xywh[i].tolist() + [confidence[i].tolist() if given[i] else None]
        error, line_no = box_rule_error(*row), line_nos[i]
    if error is not None:
        raise ParseError(error, source=source, line_no=line_no)
    return BoxArrays(xywh, confidence)


def parse_label_arrays(
    text: str,
    coordinate_mode: str,
    image_dims: tuple[int, int],
    source: str = "<string>",
) -> BoxArrays:
    """Parse label lines into pixel-unit box arrays.

    Blank lines and `#` comments are skipped. In normalized mode cx/w are
    scaled by the image width and cy/h by the height. A ParseError names
    the first bad line in file order, whichever rule it breaks.
    """
    _require_mode(coordinate_mode)
    width, height = image_dims
    if width <= 0 or height <= 0:
        raise InputValidationError("image_dims must be positive")

    # the reader gets the scan's lines: a file object would not break
    # lines at \x85 or \u2028
    lines = text.splitlines()
    # the reader refuses every file holding a `#`; spare it the attempt
    arrays = None if "#" in text else _read_uniform(lines, coordinate_mode, image_dims)
    return arrays if arrays is not None else _scan(lines, coordinate_mode, image_dims, source)


def read_label_arrays(
    path: str | Path,
    coordinate_mode: str,
    image_dims: tuple[int, int],
) -> BoxArrays:
    """parse_label_arrays on a UTF-8 label file, located by its path; a
    leading byte-order mark is dropped."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise LoadError(f"cannot read label file {p}: {e}") from e
    return parse_label_arrays(text, coordinate_mode, image_dims, source=str(p))


def parse_label_file(
    path: str | Path,
    coordinate_mode: str,
    image_dims: tuple[int, int],
) -> list[BBox]:
    return list(read_label_arrays(path, coordinate_mode, image_dims).boxes())


def serialize_labels(
    boxes: BoxArrays | Sequence[BBox], coordinate_mode: str, image_dims: tuple[int, int]
) -> str:
    """Label-file text of a BoxArrays (or of a sequence of BBoxes), one
    line per box with class id 0: the inverse of parse_label_arrays, exact
    in pixel mode."""
    _require_mode(coordinate_mode)
    width, height = image_dims
    if isinstance(boxes, BoxArrays):
        rows = zip(boxes.xywh.tolist(), boxes.confidence.tolist())
    else:
        rows = (
            ((b.cx, b.cy, b.w, b.h), math.nan if b.confidence is None else b.confidence)
            for b in boxes
        )
    lines = []
    for (cx, cy, w, h), confidence in rows:
        if coordinate_mode == "normalized":
            cx, w = cx / width, w / width
            cy, h = cy / height, h / height
        parts = ["0", repr(cx), repr(cy), repr(w), repr(h)]
        if not math.isnan(confidence):
            parts.append(repr(confidence))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def read_json(path: str | Path, what: str) -> object:
    """Read a UTF-8 JSON file (a leading byte-order mark dropped) and decode
    it. A failure to do either, or a key repeated in one object, is a
    LoadError naming `what` and the path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise LoadError(f"cannot read {what} {p}: {e}") from e

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
                return kind(value)
            except OverflowError:  # an integer literal past float's range
                pass
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
        return ImageLabels(
            image_id=entry.image_id,
            width_px=entry.width_px,
            height_px=entry.height_px,
            gt=read_label_arrays(root / entry.gt_label_path, coordinate_mode, dims),
            pred=read_label_arrays(root / entry.pred_label_path, coordinate_mode, dims),
        )
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
