"""Instance Performance Difference: per-instance detection quality compared
across paired real/synthetic images.

A GT box's performance value is the best IOU any predicted box achieves
against it, 0 when none overlaps it: geometry.best_iou, which scores
only the GT/prediction pairs whose boxes can overlap. evaluate_pair
keeps one PerfRecord per matched real/synth instance pair, and its
IpdResult holds those records: IPD is the mean absolute difference of
their performance values, and the per-image breakdown splits that mean
by image. cross_validation arranges IPDs into the train-domain x
domain-pair matrix used for dataset comparison, each cell filled by
exactly one entry: the one owner of that layout, which write_report renders.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import IncompleteResultsError, InputValidationError, NoInstancesError
from .geometry import best_iou
from .matching import InstancePairing

if TYPE_CHECKING:
    from .ingestion import ImageLabels


@dataclass(frozen=True)
class PerfRecord:
    """Performance values of one matched instance pair."""

    image_id: str
    real_index: int
    synth_index: int
    p_real: float
    p_synth: float

    def __post_init__(self):
        for name in ("p_real", "p_synth"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise InputValidationError(f"{name} must lie in [0, 1], got {v!r}")
        if self.real_index < 0 or self.synth_index < 0:
            raise InputValidationError("instance indices must be non-negative")


@dataclass(frozen=True)
class IpdResult:
    """The matched records of one evaluation and the instances left
    unmatched on each side. No records raise: zero matched pairs means the
    registration/matching produced nothing to compare, not a gap of 0.

    ipd is the mean |p_real - p_synth| over the records, summed left to
    right in record order. Each per_image_breakdown row is (image_id, that
    image's mean, its record count), images in the order their first
    record appears.
    """

    records: tuple[PerfRecord, ...]
    unmatched_real_total: int = 0
    unmatched_synth_total: int = 0

    def __post_init__(self):
        if not self.records:
            raise NoInstancesError("no matched instance pairs to aggregate")
        if self.unmatched_real_total < 0 or self.unmatched_synth_total < 0:
            raise InputValidationError("counts must be non-negative")

    @property
    def instance_count(self) -> int:
        return len(self.records)

    @property
    def ipd(self) -> float:
        total = 0.0
        for rec in self.records:
            total += abs(rec.p_real - rec.p_synth)
        return total / len(self.records)

    @property
    def per_image_breakdown(self) -> tuple[tuple[str, float, int], ...]:
        by_image: dict[str, list[float]] = {}
        for rec in self.records:
            by_image.setdefault(rec.image_id, []).append(abs(rec.p_real - rec.p_synth))
        return tuple(
            (image_id, float(np.mean(diffs)), len(diffs)) for image_id, diffs in by_image.items()
        )


@dataclass(frozen=True)
class CrossValCell:
    """One cell of the cross-validation matrix: eval_pair is two distinct
    domains, and ipd, in [0, 1], is None exactly when the evaluated pair
    does not involve the training domain. result is
    the IpdResult of the one entry that filled the cell, if that entry was
    one; it takes no part in equality."""

    train_domain: str
    eval_pair: tuple[str, str]
    ipd: float | None
    result: IpdResult | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.eval_pair) != 2 or self.eval_pair[0] == self.eval_pair[1]:
            raise InputValidationError(f"cell pair {self.eval_pair} is not two distinct domains")
        involved = self.train_domain in self.eval_pair
        if involved and self.ipd is None:
            raise InputValidationError(
                f"cell ({self.train_domain}, {self.eval_pair}) requires an ipd value"
            )
        if not involved and self.ipd is not None:
            raise InputValidationError(
                f"cell ({self.train_domain}, {self.eval_pair}) must be blank"
            )
        if self.ipd is not None:
            check_ipd(self.ipd)


def check_ipd(ipd: float) -> None:
    """Raise unless an IPD value lies in [0, 1], as every mean of |p_real - p_synth| does."""
    if not 0.0 <= ipd <= 1.0:
        raise InputValidationError(f"ipd must lie in [0, 1], got {ipd!r}")


def check_conf_threshold(conf_threshold: float) -> None:
    """Raise unless the confidence threshold lies in [0, 1]."""
    if not (math.isfinite(conf_threshold) and 0.0 <= conf_threshold <= 1.0):
        raise InputValidationError("conf_threshold must lie in [0, 1]")


def evaluate_pair(
    real_labels: Sequence["ImageLabels"],
    synth_labels: Sequence["ImageLabels"],
    pairings: Sequence[InstancePairing],
    conf_threshold: float,
) -> IpdResult:
    """Run the per-image performance extraction over aligned image pairs.

    The three sequences are index-aligned: element i describes the same
    real/synth image pair, and each pairing covers its image's GT boxes on
    both sides. Predictions below conf_threshold are dropped,
    and a GT box's performance value is its best IOU against the
    predictions left (0 when none overlaps it). Records are
    accumulated image by image, within an image by real instance index.
    """
    if not (len(real_labels) == len(synth_labels) == len(pairings)):
        raise InputValidationError(
            "real_labels, synth_labels and pairings must have equal lengths "
            f"(got {len(real_labels)}, {len(synth_labels)}, {len(pairings)})"
        )
    check_conf_threshold(conf_threshold)

    records: list[PerfRecord] = []
    for real, synth, pairing in zip(real_labels, synth_labels, pairings):
        labeled = len(real.gt), len(synth.gt)
        n_pairs = len(pairing.pairs)
        covered = n_pairs + len(pairing.unmatched_real), n_pairs + len(pairing.unmatched_synth)
        if covered != labeled:
            raise InputValidationError(
                f"pairing for image {real.image_id!r} covers {covered} of its {labeled} "
                "labeled (real, synthetic) instances"
            )
        perf_real, perf_synth = (
            best_iou(labels.gt, labels.pred[labels.pred[:, 4] >= conf_threshold, :4])
            for labels in (real, synth)
        )
        for r_idx, s_idx, _ in sorted(pairing.pairs):
            values = float(perf_real[r_idx]), float(perf_synth[s_idx])
            records.append(PerfRecord(real.image_id, r_idx, s_idx, *values))
    return IpdResult(
        tuple(records),
        sum(len(pairing.unmatched_real) for pairing in pairings),
        sum(len(pairing.unmatched_synth) for pairing in pairings),
    )


def domain_pairs(domains: Sequence[str]) -> list[tuple[str, str]]:
    """Column order of the cross-validation matrix: all unordered domain
    pairs, later-listed domains first. For three domains this puts the
    blank cells on the diagonal."""
    return list(reversed(list(itertools.combinations(domains, 2))))


def entry_name(idx: int, train: str, pair: Sequence[str]) -> str:
    """How cross_validation names its idx-th entry, for (train, pair)."""
    return f"entry #{idx} train={train!r} pair={tuple(pair)!r}"


def cross_validation(
    domains: Sequence[str],
    results: Mapping | Sequence,
) -> list[list[CrossValCell]]:
    """Build the matrix of per-training-domain IPDs.

    results maps (train_domain, (domain_a, domain_b)) to an IpdResult or a
    bare ipd in [0, 1], a real number that is not a bool, or is a sequence
    of such (key, value) entries; pair order inside keys does not matter.
    Each cell whose pair involves the training domain is filled by exactly
    one entry: an entry that fills no such cell, a second entry for a
    filled cell, or a bad value raises, naming the entry by position and key.
    """
    if len(domains) < 2:
        raise InputValidationError("cross_validation requires at least 2 domains")
    if len(set(domains)) != len(domains):
        raise InputValidationError("domain names must be unique")
    pairs = domain_pairs(domains)
    filled = [(train, pair) for train in domains for pair in pairs if train in pair]
    columns = {(train, frozenset(pair)): pair for train, pair in filled}
    cells: dict[tuple[str, frozenset], tuple[str, CrossValCell]] = {}
    entries = results.items() if isinstance(results, Mapping) else results
    for idx, ((train, pair), value) in enumerate(entries):
        key = (train, frozenset(pair))
        entry = entry_name(idx, train, pair)
        if len(pair) != 2 or key not in columns:
            raise InputValidationError(f"{entry} fills no cell of the matrix")
        if key in cells:
            raise InputValidationError(f"{entry} fills the same cell as {cells[key][0]}")
        if isinstance(value, IpdResult):
            ipd, result = value.ipd, value
        elif isinstance(value, numbers.Real) and not isinstance(value, bool):
            ipd, result = float(value), None
        else:
            raise InputValidationError(f"{entry} is {value!r}, not an IpdResult or a real number")
        try:
            cells[key] = entry, CrossValCell(train, columns[key], ipd, result)
        except InputValidationError as e:
            raise InputValidationError(f"{entry}: {e}") from e

    missing = [f"train={t!r} pair={p!r}" for t, p in filled if (t, frozenset(p)) not in cells]
    if missing:
        raise IncompleteResultsError(f"missing cross-validation cells: {', '.join(missing)}")
    return [
        [
            cells[(train, frozenset(pair))][1] if train in pair else CrossValCell(train, pair, None)
            for pair in pairs
        ]
        for train in domains
    ]


def closest_domain(row: Sequence[CrossValCell]) -> str:
    """The domain whose pair with the row's training domain has the
    smallest IPD in this row, ties broken by name; its cell is one of the
    row's bold cells in the markdown report."""
    candidates = [(c.ipd, *set(c.eval_pair) - {c.train_domain}) for c in row if c.ipd is not None]
    if not candidates:
        raise InputValidationError("no filled cells in this row")
    return min(candidates)[1]
