"""Command-line surface: evaluate dataset pairs, assemble cross-validation
tables, show one image pair's registration, and generate test scenes.

ipd, crossval and register share one per-pair step: align_pair registers
and matches an image pair under a PipelineConfig and returns a
PairOutcome, whose provenance_row is the pair's row in every report.
evaluate_dataset_pair runs it over a dataset pair without argparse.

Exit codes: 0 success, 2 bad input (parse/validation/load), 3 zero
matched instance pairs. A bad flag value is an argparse usage error:
exit 2, with the flag named on stderr, before any file is read. Each
flag's type= converts its text and runs the library's own check on the
value. All randomness flows from --seed; per image pair
a sub-seed is derived by hashing the image ids, so results do not depend
on evaluation order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputValidationError, IpdKitError, NoInstancesError
from .geometry import AffineTransform2D
from .ingestion import (
    ImageLabels, from_json, load_dataset, load_entry, merge_pairings, pair_datasets, read_json,
    read_manifest,
)
from .matching import InstancePairing, default_gate_distance, match_instances
from .metric import IpdResult, check_conf_threshold, check_ipd, cross_validation, evaluate_pair
from .registration import RegistrationConfig, RegistrationResult, register
from .report import write_ipd_report, write_report
from .scenegen import DetectorProfile, SceneSpec, check_rng_seed, emit_dataset, random_affine


def stable_subseed(seed: int, real_id: str, synth_id: str) -> int:
    """Per-image-pair seed, independent of evaluation order."""
    digest = hashlib.sha256(f"{seed}|{real_id}|{synth_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class PipelineConfig:
    """The flags that decide an evaluation: the master seed, the
    registration budget, the matching gate (None: half the median real GT
    diagonal) and the confidence threshold below which predictions are
    dropped. A value its flag would refuse raises InputValidationError."""

    seed: int = 0
    max_iterations: int = RegistrationConfig.max_iterations
    gate: float | None = None
    conf_threshold: float = 0.25

    def __post_init__(self):
        RegistrationConfig(max_iterations=self.max_iterations)
        # match_instances allows an infinite gate, which a JSON report
        # cannot hold
        if self.gate is not None and not 0.0 < self.gate < math.inf:
            raise InputValidationError("gate must be a positive, finite distance")
        check_conf_threshold(self.conf_threshold)


@dataclass(frozen=True)
class PairOutcome:
    """One image pair after registration and matching. registration is
    None when a side has no GT box, which leaves every instance
    unmatched; the pairing holds the gate it was matched inside."""

    real_id: str
    synth_id: str
    sub_seed: int
    registration: RegistrationResult | None
    pairing: InstancePairing

    def provenance_row(self) -> dict:
        """The pair's row in the ipd and crossval reports and in register's output."""
        row: dict = {
            "real_image": self.real_id, "synth_image": self.synth_id, "sub_seed": self.sub_seed
        }
        reg, pairing = self.registration, self.pairing
        if reg is None:
            row["registration"] = "skipped (empty side)"
        else:
            row["registration"] = {
                "transform": list(reg.transform.params()),
                "iterations_used": reg.iterations_used,
                "hypothesis_count": reg.hypothesis_count,
                "used_fallback": reg.used_fallback,
            }
            row["gate_distance"] = pairing.gate_distance
        row.update(
            matched=len(pairing.pairs),
            unmatched_real=len(pairing.unmatched_real),
            unmatched_synth=len(pairing.unmatched_synth),
        )
        return row


def align_pair(real: ImageLabels, synth: ImageLabels, config: PipelineConfig) -> PairOutcome:
    """Register one image pair's synthetic GT centers onto the real ones,
    seeded by the pair's sub-seed, then match them inside the gate."""
    real_id, synth_id = real.image_id, synth.image_id
    sub_seed = stable_subseed(config.seed, real_id, synth_id)
    real_gt, synth_gt = real.gt.xywh, synth.gt.xywh
    if len(real_gt) == 0 or len(synth_gt) == 0:
        unmatched = tuple(range(len(real_gt))), tuple(range(len(synth_gt)))
        return PairOutcome(real_id, synth_id, sub_seed, None, InstancePairing((), *unmatched))
    real_centers = real_gt[:, :2]
    synth_centers = synth_gt[:, :2]
    cfg = RegistrationConfig(max_iterations=config.max_iterations, rng_seed=sub_seed)
    reg = register(synth_centers, real_centers, cfg)
    if reg.fallback is not None:
        print(
            f"warning: pair ({real_id}, {synth_id}) {reg.fallback}; "
            "fell back to centroid translation",
            file=sys.stderr,
        )
    gate = default_gate_distance(real_gt) if config.gate is None else config.gate
    pairing = match_instances(reg.transform, synth_centers, real_centers, gate)
    return PairOutcome(real_id, synth_id, sub_seed, reg, pairing)


def evaluate_dataset_pair(
    pairs: Sequence[tuple[ImageLabels, ImageLabels]],
    config: PipelineConfig,
) -> tuple[IpdResult, list[PairOutcome]]:
    """registration -> matching -> per-instance evaluation over all image
    pairs; returns the result and each image pair's outcome."""
    outcomes = [align_pair(real, synth, config) for real, synth in pairs]
    reals = [real for real, _ in pairs]
    synths = [synth for _, synth in pairs]
    pairings = [outcome.pairing for outcome in outcomes]
    result = evaluate_pair(reals, synths, pairings, config.conf_threshold)
    return result, outcomes


def _pipeline_provenance(config: PipelineConfig) -> dict:
    return {
        "seed": config.seed,
        "conf_threshold": config.conf_threshold,
        "gate": "auto (half median GT diagonal)" if config.gate is None else config.gate,
        "registration_config": {"max_iterations": config.max_iterations},
    }


def _config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(args.seed, args.max_iterations, args.gate, args.conf_threshold)


def _load_pairs(
    real_manifest: str, synth_manifest: str
) -> tuple[list[tuple[ImageLabels, ImageLabels]], str]:
    real_labels, real_m = load_dataset(real_manifest)
    synth_labels, synth_m = load_dataset(synth_manifest)
    pairing = merge_pairings(real_m.pairing, synth_m.pairing)
    pairs = pair_datasets(real_labels, synth_labels, pairing)
    return pairs, f"{real_m.dataset_id}|{synth_m.dataset_id}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_ipd(args: argparse.Namespace) -> int:
    config = _config(args)
    pairs, dataset_pair_id = _load_pairs(args.real_manifest, args.synth_manifest)
    result, outcomes = evaluate_dataset_pair(pairs, config)
    provenance = {
        "command": "ipd",
        "real_manifest": args.real_manifest,
        "synth_manifest": args.synth_manifest,
        "dataset_pair_id": dataset_pair_id,
        **_pipeline_provenance(config),
        "pairs": [outcome.provenance_row() for outcome in outcomes],
    }
    print(f"IPD {result.ipd:.6f}")
    _emit(write_ipd_report(result, fmt=args.format, provenance=provenance), args.out)
    return 0


@dataclass(frozen=True)
class _Cell:
    """A cells-file cell: a precomputed ipd, or the two manifests to evaluate."""

    train: str
    pair: tuple[str, str]
    ipd: float | None = None
    real_manifest: str | None = None
    synth_manifest: str | None = None

    def __post_init__(self):
        if self.ipd is not None:
            check_ipd(self.ipd)


@dataclass(frozen=True)
class _CellsFile:
    """A cells file whose cells fill each matrix cell exactly once, checked
    before any manifest is read."""

    domains: tuple[str, ...]
    cells: tuple[_Cell, ...]

    def __post_init__(self):
        first_of: dict[tuple[str, frozenset], int] = {}
        for idx, cell in enumerate(self.cells):
            manifests = (cell.real_manifest, cell.synth_manifest)
            if manifests.count(None) != (0 if cell.ipd is None else 2):
                raise InputValidationError(
                    f"cell #{idx} needs either an 'ipd' value or manifest paths, not both"
                )
            first = first_of.setdefault((cell.train, frozenset(cell.pair)), idx)
            if first != idx:
                raise InputValidationError(f"cell #{idx} fills the same cell as cell #{first}")
        # the matrix's layout rules, on a placeholder value per cell
        cross_validation(self.domains, {(c.train, c.pair): 0.0 for c in self.cells})


def cmd_crossval(args: argparse.Namespace) -> int:
    doc = read_json(args.cells, "cells file")
    cells_file = from_json(_CellsFile, doc, f"cells file {args.cells}")
    config = _config(args)
    results: dict[tuple[str, tuple[str, str]], object] = {}
    computed: list[dict] = []
    for idx, cell in enumerate(cells_file.cells):
        train, pair = cell.train, cell.pair
        if cell.ipd is not None:
            results[(train, pair)] = cell.ipd
        else:
            pairs, pair_id = _load_pairs(cell.real_manifest, cell.synth_manifest)
            try:
                results[(train, pair)], outcomes = evaluate_dataset_pair(pairs, config)
            except NoInstancesError as e:
                raise NoInstancesError(f"cells file {args.cells}: cell #{idx}: {e}") from e
            rows = [outcome.provenance_row() for outcome in outcomes]
            computed.append(
                {"train": train, "pair": list(pair), "dataset_pair_id": pair_id, "pairs": rows}
            )

    matrix = cross_validation(cells_file.domains, results)
    provenance = {
        "command": "crossval",
        "cells_file": args.cells,
        **_pipeline_provenance(config),
        "computed_cells": computed,
    }
    _emit(write_report(matrix, fmt=args.format, provenance=provenance), args.out)
    return 0


def cmd_register(args: argparse.Namespace) -> int:
    paths = (args.real_manifest, args.synth_manifest)
    real_m, synth_m = (read_manifest(path) for path in paths)
    # the whole pairing table is checked on the manifests' entries, and
    # only the shown pair's label files are read
    pairing = merge_pairings(real_m.pairing, synth_m.pairing)
    entries = pair_datasets(real_m.entries, synth_m.entries, pairing)
    pair = next((p for p in entries if p[0].image_id == args.real_image_id), None)
    if pair is None:
        raise InputValidationError(f"no image pair has the real image {args.real_image_id!r}")
    real, synth = (
        load_entry(entry, manifest.coordinate_mode, Path(path).parent)
        for entry, manifest, path in zip(pair, (real_m, synth_m), paths)
    )
    outcome = align_pair(real, synth, PipelineConfig(args.seed, args.max_iterations, args.gate))
    doc = {
        "pair": outcome.provenance_row(),
        "matches": outcome.pairing.pairs,
        "unmatched_real_indices": outcome.pairing.unmatched_real,
        "unmatched_synth_indices": outcome.pairing.unmatched_synth,
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_scenegen(args: argparse.Namespace) -> int:
    if args.spec_file is not None:
        docs = read_json(args.spec_file, "spec file")
        if not isinstance(docs, list) or not docs:
            raise InputValidationError("spec file must hold a non-empty JSON list of scene specs")
        specs = [from_json(SceneSpec, d, f"scene spec #{i}") for i, d in enumerate(docs)]
    else:
        low, high = args.instances
        master = np.random.default_rng(args.seed)
        specs = []
        for _ in range(args.scenes):
            n = int(master.integers(low, high + 1))
            t = random_affine(master, args.frame) if args.transform == "random" else args.transform
            specs.append(
                SceneSpec(
                    n_instances=n,
                    frame=args.frame,
                    transform=t,
                    center_noise_sigma=args.sigma,
                    dropout_real=args.dropout_real,
                    dropout_synth=args.dropout_synth,
                    detector_profile_real=args.profile_real,
                    detector_profile_synth=args.profile_synth,
                    rng_seed=int(master.integers(0, 2**63)),
                )
            )
    real_path, synth_path, truth_path = emit_dataset(args.out, specs)
    print(f"real manifest: {real_path}")
    print(f"synth manifest: {synth_path}")
    print(f"truth: {truth_path}")
    return 0


def _flag_type(convert, check=None):
    """An argparse type=: convert the flag's text, then run check, the
    library's own validation, on the value. A ValueError from either (an
    InputValidationError is one) becomes a usage error, exit 2, that
    names the flag and its text."""

    def flag_type(text: str):
        try:
            value = convert(text)
            if check is not None:
                check(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {e}") from e
        return value

    return flag_type


def _spec_flag(convert, field: str):
    """A scenegen flag's type=: SceneSpec's own check of the field it sets."""
    return _flag_type(convert, lambda value: SceneSpec(0, **{field: value}))


def _check_at_least_one(n: int) -> None:
    if n < 1:
        raise ValueError("must be at least 1")


def _instance_span(text: str) -> tuple[int, int]:
    bounds = [int(v) for v in text.split(":")]
    if len(bounds) == 1:
        return bounds[0], bounds[0]
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise ValueError("expected COUNT or LOW:HIGH with LOW <= HIGH")
    return bounds[0], bounds[1]


def _profile(text: str) -> DetectorProfile:
    values = [float(v) for v in text.split(":")]
    if len(values) > 3:
        raise ValueError("expected LOW[:HIGH[:MISS_RATE]]")
    return DetectorProfile(*values) if len(values) > 1 else DetectorProfile(values[0], values[0])


def _frame(text: str) -> tuple[int, int]:
    w, sep, h = text.lower().partition("x")
    if not sep:
        raise ValueError("expected WIDTHxHEIGHT")
    return int(w), int(h)


def _transform(text: str) -> AffineTransform2D | str:
    """'random' stays as it is: cmd_scenegen draws each scene's map from
    the master RNG."""
    if text == "random":
        return text
    if text == "identity":
        return AffineTransform2D.identity()
    return AffineTransform2D.from_params(text.split(","))


def _add_align_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=PipelineConfig.seed, help="master RNG seed")
    sp.add_argument(
        "--max-iterations",
        type=_flag_type(int, lambda n: PipelineConfig(max_iterations=n)),
        default=PipelineConfig.max_iterations,
        help="registration budget, in synthetic bases tried (each at most once)",
    )
    sp.add_argument(
        "--gate",
        type=_flag_type(float, lambda gate: PipelineConfig(gate=gate)),
        default=None,
        help="matching gate distance in px (default: half the median GT diagonal)",
    )


def _add_pipeline_flags(sp: argparse.ArgumentParser, default_format: str) -> None:
    _add_align_flags(sp)
    sp.add_argument(
        "--conf-threshold",
        type=_flag_type(float, lambda t: PipelineConfig(conf_threshold=t)),
        default=PipelineConfig.conf_threshold,
        help="drop predictions below this confidence",
    )
    sp.add_argument("--format", choices=("csv", "json", "markdown"), default=default_format)
    sp.add_argument("--out", default=None, help="report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipdkit",
        description="Instance-level gap evaluation between paired real/synthetic detection datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ipd = sub.add_parser("ipd", help="evaluate one real/synth dataset pair")
    p_ipd.add_argument("real_manifest", help="path to the real dataset manifest")
    p_ipd.add_argument("synth_manifest", help="path to the synthetic dataset manifest")
    _add_pipeline_flags(p_ipd, default_format="json")
    p_ipd.set_defaults(func=cmd_ipd)

    p_cv = sub.add_parser("crossval", help="assemble the cross-validation table")
    p_cv.add_argument(
        "cells",
        help="JSON file with 'domains' and 'cells' (each cell: train, pair, and "
        "either a precomputed ipd or real/synth manifest paths)",
    )
    _add_pipeline_flags(p_cv, default_format="markdown")
    p_cv.set_defaults(func=cmd_crossval)

    p_reg = sub.add_parser(
        "register", help="show registration and matching on one image pair, as ipd runs them"
    )
    p_reg.add_argument("real_manifest", help="path to the real dataset manifest")
    p_reg.add_argument("synth_manifest", help="path to the synthetic dataset manifest")
    p_reg.add_argument("real_image_id", help="the real image of the pair to show")
    _add_align_flags(p_reg)
    p_reg.set_defaults(func=cmd_register)

    p_gen = sub.add_parser("scenegen", help="generate paired test scenes with ground truth")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--scenes", type=_flag_type(int, _check_at_least_one), default=1)
    span_type = _flag_type(_instance_span, lambda span: SceneSpec(span[0]))
    p_gen.add_argument("--instances", type=span_type, default="30", help="count or low:high span")
    p_gen.add_argument("--seed", type=_flag_type(int, check_rng_seed), default=0)
    p_gen.add_argument(
        "--sigma", type=_spec_flag(float, "center_noise_sigma"), default=0.0, help="center noise (px)"
    )
    p_gen.add_argument("--dropout-real", type=_spec_flag(float, "dropout_real"), default=0.0)
    p_gen.add_argument("--dropout-synth", type=_spec_flag(float, "dropout_synth"), default=0.0)
    for flag in ("--profile-real", "--profile-synth"):
        p_gen.add_argument(
            flag, type=_flag_type(_profile), default="0.9", help="low[:high[:miss_rate]]"
        )
    p_gen.add_argument("--frame", type=_spec_flag(_frame, "frame"), default="1280x960")
    p_gen.add_argument(
        "--transform",
        type=_flag_type(_transform),
        default="identity",
        help="'identity', 'random', or 6 comma-separated affine params",
    )
    p_gen.add_argument("--spec-file", default=None, help="JSON list of scene specs")
    p_gen.set_defaults(func=cmd_scenegen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoInstancesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IpdKitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
