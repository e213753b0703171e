"""Instance-level gap evaluation between paired real/synthetic detection
datasets: registration, matching, per-instance performance extraction,
and the cross-validation report."""

from .baselines import PrCurvePoint, average_precision, pr_curve
from .errors import (
    IncompleteResultsError,
    InputValidationError,
    IpdKitError,
    LoadError,
    NoInstancesError,
    ParseError,
    UndefinedApError,
)
from .geometry import (
    AffineTransform2D,
    BBox,
    best_iou,
    fit_affine_batch,
    iou,
    iou_table,
)
from .ingestion import (
    BoxArrays,
    DatasetManifest,
    ImageLabels,
    ManifestEntry,
    load_dataset,
    merge_pairings,
    pair_datasets,
    parse_label_arrays,
    parse_label_file,
    read_label_arrays,
    serialize_labels,
)
from .matching import (
    InstancePairing,
    assignment_min_cost,
    default_gate_distance,
    match_instances,
)
from .metric import (
    CrossValCell,
    IpdResult,
    PerfRecord,
    closest_domain,
    cross_validation,
    evaluate_pair,
)
from .registration import RegistrationConfig, RegistrationResult, register
from .report import write_ipd_report, write_report
from .scenegen import (
    DetectorProfile,
    SceneIous,
    SceneSpec,
    emit_dataset,
    generate_scene_pair,
    oracle_ipd,
    perturb_box_to_target_iou,
    pooled_oracle_ipd,
    random_affine,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform2D",
    "BBox",
    "BoxArrays",
    "CrossValCell",
    "DatasetManifest",
    "DetectorProfile",
    "ImageLabels",
    "IncompleteResultsError",
    "InputValidationError",
    "InstancePairing",
    "IpdKitError",
    "IpdResult",
    "LoadError",
    "ManifestEntry",
    "NoInstancesError",
    "ParseError",
    "PerfRecord",
    "PrCurvePoint",
    "RegistrationConfig",
    "RegistrationResult",
    "SceneIous",
    "SceneSpec",
    "UndefinedApError",
    "assignment_min_cost",
    "average_precision",
    "best_iou",
    "closest_domain",
    "cross_validation",
    "default_gate_distance",
    "emit_dataset",
    "evaluate_pair",
    "fit_affine_batch",
    "generate_scene_pair",
    "iou",
    "iou_table",
    "load_dataset",
    "match_instances",
    "merge_pairings",
    "oracle_ipd",
    "pair_datasets",
    "parse_label_arrays",
    "parse_label_file",
    "perturb_box_to_target_iou",
    "pooled_oracle_ipd",
    "pr_curve",
    "random_affine",
    "read_label_arrays",
    "register",
    "serialize_labels",
    "write_ipd_report",
    "write_report",
]
