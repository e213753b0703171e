"""Command-line surface: evaluate dataset pairs, assemble cross-validation
tables, show one image pair's registration, and generate test scenes.

ipd, crossval and register share one per-pair step: align_pair registers
and matches an image pair under a PipelineConfig and returns a
PairOutcome, whose provenance_row is the pair's row in every report.
evaluate_dataset_pair runs it over a dataset pair without argparse.

Exit codes: 0 success, 2 bad input (parse/validation/load), 3 zero
matched instance pairs. A bad flag value, or a per-scene scenegen flag
given with --spec-file, is an argparse usage error: exit 2, with the
flag named on stderr, before any file is read. Each flag's type=
converts its text and runs the library's own check on the value. All
randomness flows from --seed; per image pair a sub-seed is derived by
hashing the image ids, so results do not depend on evaluation order.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputValidationError, IpdKitError, LoadError, NoInstancesError
from .geometry import AffineTransform2D
from .ingestion import (
    ImageLabels, from_json, load_dataset, load_entry, merge_pairings, pair_datasets, read_json,
    read_manifest,
)
from .matching import InstancePairing, default_gate_distance, match_instances
from .metric import IpdResult, check_conf_threshold, cross_validation, entry_name, evaluate_pair
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
    if len(real.gt) == 0 or len(synth.gt) == 0:
        unmatched = tuple(range(len(real.gt))), tuple(range(len(synth.gt)))
        return PairOutcome(real_id, synth_id, sub_seed, None, InstancePairing((), *unmatched))
    real_centers, synth_centers = real.gt[:, :2], synth.gt[:, :2]
    cfg = RegistrationConfig(max_iterations=config.max_iterations, rng_seed=sub_seed)
    reg = register(synth_centers, real_centers, cfg)
    if reg.fallback is not None:
        print(
            f"warning: pair ({real_id}, {synth_id}) {reg.fallback}; "
            "fell back to centroid translation",
            file=sys.stderr,
        )
    gate = default_gate_distance(real.gt) if config.gate is None else config.gate
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


def _evaluate_manifests(
    real_manifest: str, synth_manifest: str, config: PipelineConfig
) -> tuple[IpdResult, dict]:
    """ipd's evaluation of a manifest pair, which crossval runs for each
    computed cell: the result, and the report's dataset_pair_id and
    per-pair rows."""
    real_labels, real_m = load_dataset(real_manifest)
    synth_labels, synth_m = load_dataset(synth_manifest)
    pairing = merge_pairings(real_m.pairing, synth_m.pairing)
    pairs = pair_datasets(real_labels, synth_labels, pairing)
    result, outcomes = evaluate_dataset_pair(pairs, config)
    return result, {
        "dataset_pair_id": f"{real_m.dataset_id}|{synth_m.dataset_id}",
        "pairs": [outcome.provenance_row() for outcome in outcomes],
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_ipd(args: argparse.Namespace) -> int:
    config = _config(args)
    result, evaluated = _evaluate_manifests(args.real_manifest, args.synth_manifest, config)
    provenance = {
        "command": "ipd",
        "real_manifest": args.real_manifest,
        "synth_manifest": args.synth_manifest,
        **_pipeline_provenance(config),
        **evaluated,
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
        manifests = (self.real_manifest, self.synth_manifest)
        if manifests.count(None) != (0 if self.ipd is None else 2):
            raise InputValidationError("needs either an 'ipd' value or both manifest paths")


@dataclass(frozen=True)
class _CellsFile:
    """A cells file that cross_validation takes, checked before any
    manifest is read."""

    domains: tuple[str, ...]
    cells: tuple[_Cell, ...]

    def __post_init__(self):
        # the matrix's rules, with 0.0 standing in for each computed cell's IPD
        entries = [((c.train, c.pair), 0.0 if c.ipd is None else c.ipd) for c in self.cells]
        cross_validation(self.domains, entries)


def cmd_crossval(args: argparse.Namespace) -> int:
    doc = read_json(args.cells, "cells file")
    cells_file = from_json(_CellsFile, doc, f"cells file {args.cells}")
    config = _config(args)
    results: list[tuple[tuple[str, tuple[str, str]], object]] = []
    computed: list[dict] = []
    for idx, cell in enumerate(cells_file.cells):
        value: object = cell.ipd
        if value is None:
            where = f"cells file {args.cells}: {entry_name(idx, cell.train, cell.pair)}"
            try:
                value, evaluated = _evaluate_manifests(
                    cell.real_manifest, cell.synth_manifest, config
                )
            except NoInstancesError as e:
                raise NoInstancesError(f"{where}: {e}") from e
            except IpdKitError as e:
                raise LoadError(f"{where}: {e}") from e
            computed.append({"train": cell.train, "pair": list(cell.pair), **evaluated})
        results.append(((cell.train, cell.pair), value))

    provenance = {
        "command": "crossval",
        "cells_file": args.cells,
        **_pipeline_provenance(config),
        "computed_cells": computed,
    }
    _emit(write_report(cells_file.domains, results, args.format, provenance), args.out)
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


class _SceneSource(argparse.Action):
    """Store a scenegen flag that describes the scenes: --spec-file, or one
    of the per-scene flags that a spec file replaces. Giving both kinds is
    a usage error, whichever comes first."""

    def __call__(self, parser, namespace, values, option_string=None):
        first = getattr(namespace, "first_scene_source", None)
        if first is not None and (first.dest == "spec_file") != (self.dest == "spec_file"):
            other = first.option_strings[0]
            raise argparse.ArgumentError(self, f"not allowed with argument {other}")
        namespace.first_scene_source = first or self
        setattr(namespace, self.dest, values)


def _flag_type(convert, check=None):
    """An argparse type=: convert the flag's text, then run check, the
    library's own validation, on the value. A ValueError from either (an
    InputValidationError is one), or an OverflowError of an integer past
    float's range, becomes a usage error, exit 2, that names the flag and
    its text."""

    def flag_type(text: str):
        try:
            value = convert(text)
            if check is not None:
                check(value)
        except (ValueError, OverflowError) as e:
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
    low, high = bounds[0], bounds[-1]
    if len(bounds) > 2 or low > high:
        raise ValueError("expected COUNT or LOW:HIGH with LOW <= HIGH")
    if high >= 2**63:  # cmd_scenegen draws each scene's count as an int64
        raise ValueError("a count must be below 2**63")
    return low, high


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
    add_source = functools.partial(p_gen.add_argument, action=_SceneSource)
    add_source("--scenes", type=_flag_type(int, _check_at_least_one), default=1)
    span_type = _flag_type(_instance_span, lambda span: SceneSpec(span[0]))
    add_source("--instances", type=span_type, default="30", help="count or low:high span")
    add_source("--seed", type=_flag_type(int, check_rng_seed), default=0)
    add_source(
        "--sigma", type=_spec_flag(float, "center_noise_sigma"), default=0.0, help="center noise (px)"
    )
    add_source("--dropout-real", type=_spec_flag(float, "dropout_real"), default=0.0)
    add_source("--dropout-synth", type=_spec_flag(float, "dropout_synth"), default=0.0)
    for flag in ("--profile-real", "--profile-synth"):
        add_source(flag, type=_flag_type(_profile), default="0.9", help="low[:high[:miss_rate]]")
    add_source("--frame", type=_spec_flag(_frame, "frame"), default="1280x960")
    add_source(
        "--transform",
        type=_flag_type(_transform),
        default="identity",
        help="'identity', 'random', or 6 comma-separated affine params",
    )
    add_source("--spec-file", default=None, help="JSON list of scene specs, for the flags above")
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
