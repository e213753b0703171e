"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv) so exit codes and stdout can
be asserted directly.
"""

import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ipdkit.cli as cli
from ipdkit import InputValidationError, registration
from ipdkit.cli import PipelineConfig, align_pair, evaluate_dataset_pair, main, stable_subseed
from ipdkit.geometry import AffineTransform2D, transform_points
from ipdkit.ingestion import (
    DatasetManifest,
    ManifestEntry,
    load_dataset,
    pair_datasets,
    serialize_labels,
)
from ipdkit.scenegen import DetectorProfile, SceneSpec, emit_dataset, random_affine

from helpers import image_labels, left_turning_bases

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _scenegen(tmp_path, capsys, *extra):
    outdir = tmp_path / "data"
    code, out, err = run_cli(
        [
            "scenegen",
            "--out", str(outdir),
            "--scenes", "2",
            "--instances", "10:14",
            "--seed", "5",
            "--profile-real", "0.9",
            "--profile-synth", "0.6",
            *extra,
        ],
        capsys,
    )
    assert code == 0, err
    return outdir


class TestScenegen:
    def test_writes_manifests_and_truth(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys)
        assert (outdir / "manifest_real.json").exists()
        assert (outdir / "manifest_synth.json").exists()
        truth = json.loads((outdir / "truth.json").read_text())
        assert len(truth["scenes"]) == 2
        # constant profiles 0.9 vs 0.6 pin the true gap at 0.3
        assert truth["oracle_ipd"] == pytest.approx(0.3, abs=2e-3)

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a = _scenegen(tmp_path / "a", capsys)
        b = _scenegen(tmp_path / "b", capsys)
        assert (a / "truth.json").read_text() == (b / "truth.json").read_text()

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(
            json.dumps(
                [
                    {
                        "n_instances": 8,
                        "detector_profile_real": [0.8, 0.8],
                        "detector_profile_synth": [0.8, 0.8],
                        "rng_seed": 3,
                    }
                ]
            )
        )
        outdir = tmp_path / "data"
        code, out, err = run_cli(
            ["scenegen", "--out", str(outdir), "--spec-file", str(spec_path)], capsys
        )
        assert code == 0, err
        truth = json.loads((outdir / "truth.json").read_text())
        assert truth["oracle_ipd"] == pytest.approx(0.0, abs=1e-3)

    def test_spec_keys_left_out_take_scenespec_defaults(self, tmp_path, capsys):
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(json.dumps([{"n_instances": 9, "rng_seed": 4}]))
        outdir = tmp_path / "data"
        code, out, err = run_cli(
            ["scenegen", "--out", str(outdir), "--spec-file", str(spec_path)], capsys
        )
        assert code == 0, err
        emit_dataset(tmp_path / "direct", [SceneSpec(9, rng_seed=4)])
        files = sorted(p.relative_to(outdir) for p in outdir.rglob("*") if p.is_file())
        assert len(files) == 7
        for f in files:
            assert (outdir / f).read_bytes() == (tmp_path / "direct" / f).read_bytes()

    def test_spec_file_separation_factor(self, tmp_path, capsys):
        # 200 instances fit the frame at 2 x 12 px separation, not at the
        # default 5 x 12 px
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(
            json.dumps([{"n_instances": 200, "min_separation_factor": 2, "rng_seed": 1}])
        )
        code, out, err = run_cli(
            ["scenegen", "--out", str(tmp_path / "data"), "--spec-file", str(spec_path)], capsys
        )
        assert code == 0, err

    def test_spec_file_size_and_region(self, tmp_path, capsys):
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(
            json.dumps(
                [
                    {
                        "n_instances": 8,
                        "size_range": [20, 24],
                        "min_separation_factor": 2,
                        "center_region": [0.4, 0.6],
                    }
                ]
            )
        )
        outdir = tmp_path / "data"
        code, out, err = run_cli(
            ["scenegen", "--out", str(outdir), "--spec-file", str(spec_path)], capsys
        )
        assert code == 0, err
        rows = [
            [float(v) for v in line.split()[1:]]
            for line in (outdir / "synth" / "scene0000_gt.txt").read_text().splitlines()
        ]
        assert len(rows) == 8
        for cx, cy, w, h in rows:
            assert 20 <= w <= 24 and 20 <= h <= 24
            assert 0.4 * 1280 <= cx <= 0.6 * 1280 and 0.4 * 960 <= cy <= 0.6 * 960

    def test_spec_file_profile_as_a_dict(self, tmp_path, capsys):
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(
            json.dumps(
                [
                    {
                        "n_instances": 10,
                        "detector_profile_real": {"low": 0.5, "high": 0.5},
                        "detector_profile_synth": {"low": 0.9, "high": 0.9, "miss_rate": 0.0},
                        "rng_seed": 4,
                    }
                ]
            )
        )
        outdir = tmp_path / "data"
        code, out, err = run_cli(
            ["scenegen", "--out", str(outdir), "--spec-file", str(spec_path)], capsys
        )
        assert code == 0, err
        truth = json.loads((outdir / "truth.json").read_text())
        assert truth["oracle_ipd"] == pytest.approx(0.4, abs=2e-3)

    def test_explicit_transform_carries_the_synthetic_centers(self, tmp_path, capsys):
        params = (1.1, 0.2, -0.15, 0.95, 30.0, -20.0)
        outdir = _scenegen(
            tmp_path, capsys, "--transform", ",".join(map(str, params)), "--sigma", "0"
        )
        truth = json.loads((outdir / "truth.json").read_text())
        for scene in truth["scenes"]:
            real, synth = (
                np.loadtxt(outdir / side / f"{scene['image_id']}_gt.txt", ndmin=2)[:, 1:3]
                for side in ("real", "synth")
            )
            r, s = np.array(scene["correspondence"]).T
            moved = transform_points(AffineTransform2D.from_params(params), synth[s])
            assert np.array_equal(real[r], moved)

    def test_negative_seed_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(json.dumps([{"n_instances": 3, "rng_seed": -1}]))
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            ["scenegen", "--out", str(out_dir), "--spec-file", str(spec_path)], capsys
        )
        assert code == 2
        assert "rng_seed must be >= 0" in err
        with pytest.raises(SystemExit) as exc:
            main(["scenegen", "--out", str(out_dir), "--seed", "-5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unplaceable_scene_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # the first scene's label files were written before the second
        # scene failed, before
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(
            json.dumps([{"n_instances": 5}, {"n_instances": 50, "frame": [200, 200]}])
        )
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            ["scenegen", "--out", str(out_dir), "--spec-file", str(spec_path)], capsys
        )
        assert code == 2
        assert "could not place 50 instances" in err
        assert not out_dir.exists()

    def test_bad_profile_is_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenegen", "--out", str(tmp_path / "x"), "--profile-real", "0.9:oops"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "profile" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--instances", "9:3"),
            ("--instances", "1:2:3"),
            ("--profile-synth", "0.9:0.5"),
            ("--profile-real", "0.5:0.6:0.1:0"),
            ("--frame", "640"),
            ("--transform", "1,0,0,1"),
            ("--transform", "spin"),
            ("--transform", "1,0,0,1,inf,0"),
            # each a scene spec's error without the flag's name, before
            ("--sigma", "-1"),
            ("--sigma", "nan"),
            ("--dropout-real", "1.5"),
            ("--dropout-synth", "nan"),
            ("--frame", "0x5"),
            ("--instances", "-3"),
            # exit 0 and two manifests without entries, before
            ("--scenes", "0"),
            ("--scenes", "-3"),
        ],
    )
    def test_bad_flag_is_a_usage_error_before_any_file_is_written(
        self, tmp_path, capsys, flag, value
    ):
        outdir = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["scenegen", "--out", str(outdir), flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: bad value {value!r}" in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n_instances": -4}, "n_instances"),
            # a numpy OverflowError, exit 1, before size_range had to be finite
            ({"n_instances": 1, "size_range": [1, "inf"]}, "size_range"),
            # a zero-width real GT box, refused only when loaded, before
            ({"n_instances": 1, "transform": [0, 0, 0, 1, 0, 0]}, "transform row"),
            # silently ignored, so all 6 GT lines were written, before
            ({"n_instances": 6, "dropout_rael": 0.5, "rng_seed": 2}, "unknown key 'dropout_rael'"),
            ({"n_instances": 1, "transform": "random"}, "transform: expected a JSON object"),
            # an AttributeError traceback, exit 1, before
            (5, "JSON object"),
            # boxes of zero area, written with exit 0 and refused by ipd, before
            (
                {"n_instances": 5, "size_range": [1e-200, 1e-200], "min_separation_factor": 0},
                "size_range",
            ),
            ({"n_instances": 5, "transform": [1e-200, 0, 0, 1e-200, 640, 480]}, "transform row"),
            # centers carried to inf, refused after numpy overflow warnings, before
            ({"n_instances": 5, "transform": [1e306, 0, 0, 1e-306, 0, 0]}, "transform"),
            # json.dumps writes inf as the token Infinity, which json.loads reads
            ({"n_instances": 1, "transform": [1, 0, 0, 1, math.inf, 0]}, "tx must be finite"),
            # 400,000 placement attempts over 3 s, then exit 2 naming nan px, before
            (
                {"n_instances": 1000, "frame": [20000, 20000], "min_separation_factor": math.nan},
                "min_separation_factor must be finite",
            ),
        ],
    )
    def test_bad_spec_file_is_exit_2(self, tmp_path, capsys, spec, message):
        p = tmp_path / "specs.json"
        p.write_text(json.dumps([spec]))
        code, out, err = run_cli(
            ["scenegen", "--out", str(tmp_path / "x"), "--spec-file", str(p)], capsys
        )
        assert code == 2
        assert "spec #0" in err and message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read spec file"),
            ("[{", "spec file"),
            ('{"n_instances": 1}', "JSON list of scene specs"),
            # exit 0 and two manifests without entries, before
            ("[]", "non-empty JSON list of scene specs"),
        ],
    )
    def test_unusable_spec_file_is_exit_2(self, tmp_path, capsys, text, message):
        p = tmp_path / "specs.json"
        if text is not None:
            p.write_text(text)
        code, out, err = run_cli(
            ["scenegen", "--out", str(tmp_path / "x"), "--spec-file", str(p)], capsys
        )
        assert code == 2
        assert message in err


class TestIpd:
    def test_pipeline_recovers_constructed_gap(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys, "--transform", "random", "--sigma", "0.5")
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            [
                "ipd",
                str(outdir / "manifest_real.json"),
                str(outdir / "manifest_synth.json"),
                "--seed", "11",
                "--out", str(report_path),
            ],
            capsys,
        )
        assert code == 0, err
        assert out.startswith("IPD 0.")
        doc = json.loads(report_path.read_text())
        truth = json.loads((outdir / "truth.json").read_text())
        assert doc["result"]["ipd"] == pytest.approx(truth["oracle_ipd"], abs=2e-3)
        assert doc["provenance"]["seed"] == 11
        assert len(doc["provenance"]["pairs"]) == 2

    def test_empty_gt_file_skips_its_pair(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys)
        (outdir / "real" / "scene0001_gt.txt").write_text("")
        real_labels, _ = load_dataset(outdir / "manifest_real.json")
        assert real_labels[1].gt.xywh.shape == (0, 4)
        assert real_labels[1].gt_boxes == ()
        synth_labels, _ = load_dataset(outdir / "manifest_synth.json")
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            [
                "ipd",
                str(outdir / "manifest_real.json"),
                str(outdir / "manifest_synth.json"),
                "--out", str(report),
            ],
            capsys,
        )
        assert code == 0, err
        rows = json.loads(report.read_text())["provenance"]["pairs"]
        assert rows[1]["registration"] == "skipped (empty side)"
        assert (rows[1]["matched"], rows[1]["unmatched_real"]) == (0, 0)
        assert rows[1]["unmatched_synth"] == len(synth_labels[1].gt)

    def test_two_gt_pair_falls_back_with_a_warning_naming_it(self, tmp_path, capsys):
        specs = [SceneSpec(12, rng_seed=1), SceneSpec(2, rng_seed=2)]
        real, synth, _ = emit_dataset(tmp_path / "data", specs)
        report = tmp_path / "report.json"
        code, out, err = run_cli(["ipd", str(real), str(synth), "--out", str(report)], capsys)
        assert code == 0, err
        assert err == (
            "warning: pair (scene0001, scene0001) has too few points for an affine fit; "
            "fell back to centroid translation\n"
        )
        rows = json.loads(report.read_text())["provenance"]["pairs"]
        assert [row["registration"]["used_fallback"] for row in rows] == [False, True]
        assert rows[1]["matched"] == 2

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys, "--transform", "random")
        argv = [
            "ipd",
            str(outdir / "manifest_real.json"),
            str(outdir / "manifest_synth.json"),
            "--seed", "7",
        ]
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv + ["--out", str(a_path)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(b_path)], capsys)[0] == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    @pytest.mark.parametrize("class_id", [7, -3, 2**70], ids=["7", "-3", "2**70"])
    def test_class_ids_leave_the_report_unchanged(self, tmp_path, capsys, class_id):
        outdir = _scenegen(tmp_path, capsys, "--transform", "random")
        report = tmp_path / "report.json"
        argv = [
            "ipd",
            str(outdir / "manifest_real.json"),
            str(outdir / "manifest_synth.json"),
            "--out", str(report),
        ]

        def run():
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            return out, report.read_bytes()

        want = run()
        for path in [*(outdir / "real").glob("*.txt"), *(outdir / "synth").glob("*.txt")]:
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(f"{class_id} {line.split(' ', 1)[1]}" for line in lines))
        assert run() == want

    def test_markdown_format_to_stdout(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys)
        code, out, err = run_cli(
            [
                "ipd",
                str(outdir / "manifest_real.json"),
                str(outdir / "manifest_synth.json"),
                "--format", "markdown",
            ],
            capsys,
        )
        assert code == 0, err
        assert "| **all** |" in out

    def test_markdown_rows_keep_their_columns_whatever_the_image_id(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys, "--scenes", "4")
        manifests = [outdir / "manifest_real.json", outdir / "manifest_synth.json"]
        # the ids left|right, two<CR><LF>lines, a\|b and a\\|b, as JSON strings
        ids = ['"left|right"', '"two\\r\\nlines"', r'"a\\|b"', r'"a\\\\|b"']
        for path in manifests:
            text = path.read_text()
            for idx, image_id in enumerate(ids):
                text = text.replace(f'"scene{idx:04d}"', image_id)
            path.write_text(text)
        code, out, err = run_cli(["ipd", *map(str, manifests), "--format", "markdown"], capsys)
        assert code == 0, err
        lines = out.splitlines()[1:]
        assert lines[2].startswith("| left\\|right | ")
        assert lines[3].startswith("| two lines | ")
        assert lines[4].startswith(r"| a\\\|b | ")
        assert lines[5].startswith(r"| a\\\\\|b | ")
        # a `|` after an even number of backslashes (none included) splits the row
        assert [len(re.findall(r"(?<!\\)(?:\\\\)*\|", line)) for line in lines] == [4] * 7

    def test_dangling_pairing_id_is_exit_2_naming_the_id(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys)
        mpath = outdir / "manifest_real.json"
        doc = json.loads(mpath.read_text())
        doc["pairing"][0][1] = "scene9999"
        mpath.write_text(json.dumps(doc))
        # the synth manifest still declares the old pairing; drop it so the
        # broken one is authoritative
        spath = outdir / "manifest_synth.json"
        sdoc = json.loads(spath.read_text())
        sdoc["pairing"] = []
        spath.write_text(json.dumps(sdoc))
        code, out, err = run_cli(["ipd", str(mpath), str(spath)], capsys)
        assert code == 2
        assert "scene9999" in err

    @pytest.mark.parametrize(
        "real_pairing, synth_pairing, message",
        [
            (
                [["scene0000", "scene0000"], ["scene0000", "scene0001"]],
                [],
                "real image 'scene0000' paired twice",
            ),
            ([["ghost", "also_ghost"]], [], "unknown real image 'ghost'"),
            # a pair repeated in the synth manifest only
            (
                [["scene0000", "scene0000"], ["scene0001", "scene0001"]],
                [
                    ["scene0000", "scene0000"],
                    ["scene0001", "scene0001"],
                    ["scene0000", "scene0000"],
                ],
                "conflicting pairings",
            ),
        ],
    )
    def test_bad_pairing_is_exit_2(self, tmp_path, capsys, real_pairing, synth_pairing, message):
        outdir = _scenegen(tmp_path, capsys)
        paths = []
        for side, pairing in (("real", real_pairing), ("synth", synth_pairing)):
            path = outdir / f"manifest_{side}.json"
            doc = json.loads(path.read_text())
            doc["pairing"] = pairing
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        code, out, err = run_cli(["ipd", *paths], capsys)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "field, value", [("width_px", 1280.9), ("height_px", True), ("width_px", "1280")]
    )
    def test_image_size_that_is_not_a_whole_number_is_exit_2(
        self, tmp_path, capsys, field, value
    ):
        # int() read 1280.9 as 1280 and true as 1, without a word
        outdir = _scenegen(tmp_path, capsys)
        path = outdir / "manifest_real.json"
        doc = json.loads(path.read_text())
        doc["entries"][1][field] = value
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["ipd", str(path), str(outdir / "manifest_synth.json")], capsys)
        assert code == 2
        assert f"entries[1].{field}: expected a whole number" in err

    @pytest.mark.parametrize("name", ["manifest_real.json", "real/scene0001_gt.txt"])
    def test_file_that_is_not_utf8_is_exit_2(self, tmp_path, capsys, name):
        # a UnicodeDecodeError traceback, exit 1, before
        outdir = _scenegen(tmp_path, capsys)
        (outdir / name).write_bytes(b"\xff\n")
        manifests = [str(outdir / "manifest_real.json"), str(outdir / "manifest_synth.json")]
        code, out, err = run_cli(["ipd", *manifests], capsys)
        assert code == 2
        assert "cannot read" in err and name.split("/")[-1] in err

    def test_zero_matched_pairs_is_exit_3(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys, "--sigma", "4.0")
        code, out, err = run_cli(
            [
                "ipd",
                str(outdir / "manifest_real.json"),
                str(outdir / "manifest_synth.json"),
                "--gate", "1e-9",
            ],
            capsys,
        )
        assert code == 3
        assert "error" in err

    def test_missing_manifest_is_exit_2(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["ipd", str(tmp_path / "nope.json"), str(tmp_path / "nope2.json")], capsys
        )
        assert code == 2

    def test_perfect_predictions_on_both_sides_give_ipd_0(self, tmp_path, capsys):
        # the first box's corners round so that its IOU with itself came
        # out at 1.000000000000004, which the performance record refused
        gt = ["0 32.0 40.0 1.8114590411706715 1.0", "0 10 10 4 4", "0 70 20 5 3", "0 50 80 6 6"]
        for side in ("real", "synth"):
            (tmp_path / f"{side}_gt.txt").write_text("\n".join(gt) + "\n")
            (tmp_path / f"{side}_pred.txt").write_text("".join(f"{g} 0.9\n" for g in gt))
            entry = {
                "image_id": "img",
                "gt_label_path": f"{side}_gt.txt",
                "pred_label_path": f"{side}_pred.txt",
                "width_px": 100,
                "height_px": 100,
            }
            doc = {"dataset_id": side, "coordinate_mode": "pixel", "entries": [entry]}
            doc["pairing"] = [["img", "img"]]
            (tmp_path / f"manifest_{side}.json").write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["ipd", str(tmp_path / "manifest_real.json"), str(tmp_path / "manifest_synth.json")],
            capsys,
        )
        assert code == 0, err
        assert out.startswith("IPD 0.000000\n")
        assert json.loads(out[out.index("{"):])["result"]["ipd"] == 0.0


CELLS = {
    "domains": ["Real", "Principled", "Hapke"],
    "cells": [
        {"train": "Real", "pair": ["Real", "Principled"], "ipd": 0.2256},
        {"train": "Real", "pair": ["Real", "Hapke"], "ipd": 0.3152},
        {"train": "Principled", "pair": ["Principled", "Hapke"], "ipd": 0.0511},
        {"train": "Principled", "pair": ["Real", "Principled"], "ipd": 0.3808},
        {"train": "Hapke", "pair": ["Principled", "Hapke"], "ipd": 0.0261},
        {"train": "Hapke", "pair": ["Real", "Hapke"], "ipd": 0.4638},
    ],
}

GOLDEN_MARKDOWN = (
    "| Train\\Eval | ‖Principled − Hapke‖ | ‖Real − Hapke‖ | ‖Real − Principled‖ |\n"
    "| --- | --- | --- | --- |\n"
    "| Real | - | 0.3152 | **0.2256** |\n"
    "| Principled | **0.0511** | - | 0.3808 |\n"
    "| Hapke | **0.0261** | 0.4638 | - |\n"
)


class TestCrossval:
    def test_injected_cells_render_golden_markdown(self, tmp_path, capsys):
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps(CELLS))
        code, out, err = run_cli(["crossval", str(cells_path)], capsys)
        assert code == 0, err
        assert out == GOLDEN_MARKDOWN

    def test_computed_cells_from_manifests(self, tmp_path, capsys):
        outdir = _scenegen(tmp_path, capsys)
        cells = {
            "domains": ["real", "synth"],
            "cells": [
                {
                    "train": "real",
                    "pair": ["real", "synth"],
                    "real_manifest": str(outdir / "manifest_real.json"),
                    "synth_manifest": str(outdir / "manifest_synth.json"),
                },
                {"train": "synth", "pair": ["real", "synth"], "ipd": 0.31},
            ],
        }
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps(cells))
        code, out, err = run_cli(
            ["crossval", str(cells_path), "--format", "json"], capsys
        )
        assert code == 0, err
        doc = json.loads(out)
        computed = [c for c in doc["cells"] if c["train"] == "real"]
        assert computed[0]["ipd"] == pytest.approx(0.3, abs=2e-3)
        assert "detail" in computed[0]
        assert len(doc["provenance"]["computed_cells"]) == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            (None, "cannot read cells file"),
            ("{", "cells file"),
            ({"domains": ["a", "b"]}, "missing field 'cells'"),
            ({"domains": ["a", "b"], "cells": [{"train": "a", "pair": ["a"], "ipd": 0.1}]},
             "cells[0].pair: expected an array of 2"),
            ({"domains": ["a", "b"], "cells": [{"train": "a", "pair": ["a", "b"]}]},
             "cell #0 needs either an 'ipd' value or manifest paths"),
            # a ValueError traceback, exit 1, before
            ({"domains": ["a", "b"], "cells": [{"train": "a", "pair": ["a", "b"], "ipd": "x"}]},
             "cells[0].ipd"),
            # refused without the file or the cell named, and only after
            # every computed cell was evaluated, before
            *(
                ({"domains": ["a", "b"],
                  "cells": [{"train": "b", "pair": ["a", "b"], "real_manifest": "nope_r.json",
                             "synth_manifest": "nope_s.json"},
                            {"train": "a", "pair": ["a", "b"], "ipd": bad}]},
                 f"cells.json: cells[1]: ipd must lie in [0, 1], got {bad!r}")
                for bad in (math.nan, math.inf, -0.5, 1.5)
            ),
            # the ipd was taken and the manifests never read, before
            ({"domains": ["a", "b"], "cells": [{"train": "a", "pair": ["a", "b"], "ipd": 0.1,
                                               "real_manifest": "r.json",
                                               "synth_manifest": "s.json"}]},
             "cell #0 needs either an 'ipd' value or manifest paths, not both"),
            # evaluated, then dropped from the matrix, before; refused now
            # before its manifests (which do not exist) are read
            ({"domains": ["a", "b"], "cells": [{"train": "q", "pair": ["a", "b"],
                                               "real_manifest": "nope_r.json",
                                               "synth_manifest": "nope_s.json"}]},
             "result train='q' pair=('a', 'b') fills no cell"),
            ({"domains": ["a", "b"], "cells": [{"train": "a", "pair": ["a", "a"], "ipd": 0.1}]},
             "result train='a' pair=('a', 'a') fills no cell"),
            ({"domains": ["a", "b", "c"],
              "cells": [{"train": "c", "pair": ["a", "b"], "ipd": 0.01}]},
             "result train='c' pair=('a', 'b') fills no cell"),
            # the later cell silently won, before
            ({"domains": ["a", "b"],
              "cells": [{"train": "a", "pair": ["a", "b"], "ipd": 0.1},
                        {"train": "b", "pair": ["a", "b"], "ipd": 0.2},
                        {"train": "a", "pair": ["a", "b"], "ipd": 0.9}]},
             "cells.json: cell #2 fills the same cell as cell #0"),
            # taken as one cell, before
            ({"domains": ["a", "b"],
              "cells": [{"train": "a", "pair": ["a", "b"], "ipd": 0.1},
                        {"train": "a", "pair": ["b", "a"], "ipd": 0.1},
                        {"train": "b", "pair": ["a", "b"], "ipd": 0.2}]},
             "cells.json: cell #1 fills the same cell as cell #0"),
            # both evaluated, before; refused now before its manifests
            # (which do not exist) are read
            ({"domains": ["a", "b"],
              "cells": [{"train": "a", "pair": ["a", "b"], "real_manifest": "nope_r.json",
                         "synth_manifest": "nope_s.json"},
                        {"train": "b", "pair": ["a", "b"], "ipd": 0.2},
                        {"train": "a", "pair": ["b", "a"], "real_manifest": "nope_r.json",
                         "synth_manifest": "nope_s.json"}]},
             "cells.json: cell #2 fills the same cell as cell #0"),
        ],
    )
    def test_bad_cells_file_is_exit_2(self, tmp_path, capsys, doc, message):
        cells_path = tmp_path / "cells.json"
        if doc is not None:
            cells_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(["crossval", str(cells_path)], capsys)
        assert code == 2
        assert message in err

    def test_cell_without_instance_pairs_is_exit_3_naming_it(self, tmp_path, capsys):
        outdir = tmp_path / "data"
        assert main(["scenegen", "--out", str(outdir), "--instances", "0"]) == 0
        cells = json.loads(json.dumps(CELLS))
        del cells["cells"][1]["ipd"]
        cells["cells"][1]["real_manifest"] = str(outdir / "manifest_real.json")
        cells["cells"][1]["synth_manifest"] = str(outdir / "manifest_synth.json")
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps(cells))
        capsys.readouterr()
        code, out, err = run_cli(["crossval", str(cells_path)], capsys)
        assert code == 3 and out == ""
        # only "error: no matched instance pairs to aggregate", before
        assert err == (
            f"error: cells file {cells_path}: cell #1: no matched instance pairs to aggregate\n"
        )

    def test_missing_cell_is_exit_2(self, tmp_path, capsys):
        partial = {"domains": CELLS["domains"], "cells": CELLS["cells"][:-1]}
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps(partial))
        code, out, err = run_cli(["crossval", str(cells_path)], capsys)
        assert code == 2
        assert "Hapke" in err


@pytest.mark.parametrize("seed", [1, 2])
def test_ipd_does_not_depend_on_the_order_of_label_lines(tmp_path, capsys, seed):
    # a metamorphic relation: every label file's lines in a seeded shuffle,
    # among blank and `#` comment lines (which send every file through the
    # line scan), give the same registrations, counts, stderr and IPD
    data = tmp_path / "data"
    gen = ["scenegen", "--out", str(data), "--scenes", "10", "--instances", "15:30"]
    gen += ["--seed", str(seed), "--transform", "random", "--sigma", "0.5"]
    assert main([*gen, "--dropout-real", "0.2", "--dropout-synth", "0.2"]) == 0
    shuffled = tmp_path / "shuffled"
    shutil.copytree(data, shuffled)
    rng = np.random.default_rng(seed)
    for path in sorted(shuffled.glob("*/*.txt")):
        lines = path.read_text().splitlines()
        mixed = ["# shuffled", ""]
        for i in rng.permutation(len(lines)):
            mixed += [lines[i], "" if rng.random() < 0.5 else "# box"]
        path.write_text("\n".join(mixed) + "\n")
    capsys.readouterr()
    runs = []
    for root in (data, shuffled):
        manifests = [str(root / "manifest_real.json"), str(root / "manifest_synth.json")]
        report = root / "report.json"
        code, _, err = run_cli(["ipd", *manifests, "--out", str(report)], capsys)
        assert code == 0, err
        doc = json.loads(report.read_text())
        runs.append((doc["result"]["ipd"], doc["provenance"]["pairs"], err))
    (want_ipd, want_rows, want_err), (ipd, rows, err) = runs
    assert rows == want_rows and err == want_err
    assert abs(ipd - want_ipd) <= 1e-12


def test_inputs_saved_with_a_byte_order_mark_give_the_same_reports(tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark; a label file,
    # a manifest and a cells file each read as their copies without one
    real, synth, _ = emit_dataset(tmp_path, [SceneSpec(14, rng_seed=1), SceneSpec(9, rng_seed=2)])
    cells = tmp_path / "cells.json"
    cells.write_text(
        json.dumps(
            {
                "domains": ["R", "S"],
                "cells": [
                    {"train": "R", "pair": ["R", "S"], "real_manifest": str(real),
                     "synth_manifest": str(synth)},
                    {"train": "S", "pair": ["R", "S"], "ipd": 0.31},
                ],
            }
        ),
        encoding="utf-8",
    )
    runs = [["ipd", str(real), str(synth)], ["crossval", str(cells), "--format", "json"]]
    want = [run_cli(argv, capsys) for argv in runs]
    assert [code for code, _, _ in want] == [0, 0]
    for path in (tmp_path / "real" / "scene0000_gt.txt", synth, cells):
        text = path.read_text(encoding="utf-8")
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert [run_cli(argv, capsys) for argv in runs] == want, path
        path.write_text(text, encoding="utf-8")


def test_a_byte_order_mark_past_the_first_line_is_refused_at_its_line(tmp_path, capsys):
    real, synth, _ = emit_dataset(tmp_path, [SceneSpec(9, rng_seed=1)])
    path = tmp_path / "real" / "scene0000_gt.txt"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join([first, "\ufeff", *rest]), encoding="utf-8")
    code, out, err = run_cli(["ipd", str(real), str(synth)], capsys)
    assert (code, out) == (2, "")
    assert f"{path}:2: class_id must be an integer, got '\\ufeff0'" in err



@pytest.mark.parametrize("kind", ["manifest", "cells file", "spec file"])
def test_a_key_repeated_in_one_object_is_exit_2_naming_it(tmp_path, capsys, kind):
    # json.loads keeps a repeated key's last value, so the first was
    # dropped without a word, before
    real, synth, _ = emit_dataset(tmp_path, [SceneSpec(9, rng_seed=1)])
    if kind == "manifest":
        path, key = real, "dataset_id"
        text = real.read_text(encoding="utf-8").rstrip()[:-1] + ', "dataset_id": "again"}'
        argv = ["ipd", str(real), str(synth)]
    elif kind == "cells file":
        path, key = tmp_path / "cells.json", "ipd"
        text = (
            '{"domains": ["a", "b"], "cells": [{"train": "a", "pair": ["a", "b"], '
            '"ipd": 0.1, "ipd": 0.2}, {"train": "b", "pair": ["a", "b"], "ipd": 0.3}]}'
        )
        argv = ["crossval", str(path)]
    else:
        path, key = tmp_path / "specs.json", "n_instances"
        text = '[{"n_instances": 5, "rng_seed": 1, "n_instances": 6}]'
        argv = ["scenegen", "--out", str(tmp_path / "x"), "--spec-file", str(path)]
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {kind} {path}: key {key!r} is repeated in one object\n"
    assert not (tmp_path / "x").exists()


def _ipd_rows(manifests, tmp_path, *flags) -> dict[str, dict]:
    """The provenance rows of an ipd report, by real image id."""
    report = tmp_path / "ipd_report.json"
    assert main(["ipd", *manifests, "--out", str(report), *flags]) == 0
    rows = json.loads(report.read_text())["provenance"]["pairs"]
    return {row["real_image"]: row for row in rows}


class TestRegister:
    def _manifests(self, tmp_path, specs):
        real, synth, _ = emit_dataset(tmp_path / "data", specs)
        return [str(real), str(synth)]

    def test_prints_the_pair_row_then_its_matches(self, tmp_path, capsys):
        shift = AffineTransform2D(1.0, 0.0, 0.0, 1.0, 40.0, -25.0)
        manifests = self._manifests(tmp_path, [SceneSpec(6, transform=shift, rng_seed=1)])
        code, out, err = run_cli(["register", *manifests, "scene0000"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert list(doc) == ["pair", "matches", "unmatched_real_indices", "unmatched_synth_indices"]
        reg = doc["pair"]["registration"]
        assert reg["transform"] == pytest.approx([1.0, 0.0, 0.0, 1.0, 40.0, -25.0], abs=1e-9)
        assert reg["used_fallback"] is False
        assert [(r, s) for r, s, _ in doc["matches"]] == [(i, i) for i in range(6)]
        assert doc["unmatched_real_indices"] == doc["unmatched_synth_indices"] == []

    def test_two_point_sets_fall_back_with_warning(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(2, rng_seed=3)])
        code, out, err = run_cli(["register", *manifests, "scene0000"], capsys)
        assert code == 0
        assert json.loads(out)["pair"]["registration"]["used_fallback"] is True
        assert err == (
            "warning: pair (scene0000, scene0000) has too few points for an affine fit; "
            "fell back to centroid translation\n"
        )

    def test_empty_side_prints_the_skipped_row_of_ipd(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(12, rng_seed=1), SceneSpec(0, rng_seed=4)])
        code, out, err = run_cli(["register", *manifests, "scene0001"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["pair"] == _ipd_rows(manifests, tmp_path)["scene0001"]
        assert doc["pair"]["registration"] == "skipped (empty side)"
        assert doc["matches"] == doc["unmatched_real_indices"] == []

    def test_unknown_real_image_is_exit_2(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(4, rng_seed=1)])
        code, out, err = run_cli(["register", *manifests, "scene0009"], capsys)
        assert code == 2
        assert "no image pair has the real image 'scene0009'" in err

    def test_report_flags_are_rejected(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(4, rng_seed=1)])
        for flag, value in (("--format", "json"), ("--mode", "normalized"), ("--width", "640")):
            with pytest.raises(SystemExit) as exc:
                main(["register", *manifests, "scene0000", flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_label_parse_error_names_file_and_line(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(4, rng_seed=1)])
        label = tmp_path / "data" / "synth" / "scene0000_gt.txt"
        label.write_text("0 1 1 2 2\nbroken\n")
        code, out, err = run_cli(["register", *manifests, "scene0000"], capsys)
        assert code == 2
        assert f"{label}:2:" in err

    def test_reads_only_the_shown_pairs_label_files(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(6, rng_seed=1), SceneSpec(6, rng_seed=2)])
        for side in ("real", "synth"):
            (tmp_path / "data" / side / "scene0001_gt.txt").write_text("broken\n")
        code, out, err = run_cli(["register", *manifests, "scene0000"], capsys)
        assert code == 0, err
        assert json.loads(out)["pair"]["real_image"] == "scene0000"
        # ipd loads every entry, and stops at the broken file
        code, out, err = run_cli(["ipd", *manifests], capsys)
        assert code == 2 and "scene0001_gt.txt:1:" in err

    def test_checks_the_whole_pairing_table(self, tmp_path, capsys):
        manifests = self._manifests(tmp_path, [SceneSpec(6, rng_seed=1), SceneSpec(6, rng_seed=2)])
        for path in manifests:
            doc = json.loads(Path(path).read_text())
            doc["pairing"][1][1] = "scene9999"
            Path(path).write_text(json.dumps(doc))
        code, out, err = run_cli(["register", *manifests, "scene0000"], capsys)
        assert code == 2
        assert "pairing references unknown synth image 'scene9999'" in err

    def test_rows_equal_the_ipd_rows_on_fifty_pairs(self, tmp_path, capsys):
        # 3 of these pairs were seeded differently when register took its
        # sub-seed from the label paths instead of the image ids
        outdir = tmp_path / "d"
        flags = ["--instances", "20:40", "--transform", "random", "--sigma", "0.5"]
        flags += ["--dropout-real", "0.1", "--dropout-synth", "0.1", "--seed", "0"]
        assert main(["scenegen", "--out", str(outdir), "--scenes", "50", *flags]) == 0
        manifests = [str(outdir / "manifest_real.json"), str(outdir / "manifest_synth.json")]
        rows = _ipd_rows(manifests, tmp_path)
        capsys.readouterr()
        assert len(rows) == 50
        for image_id, row in rows.items():
            code, out, err = run_cli(["register", *manifests, image_id], capsys)
            assert code == 0, err
            assert json.loads(out)["pair"] == row


def test_evaluate_dataset_pair_runs_without_argparse(tmp_path, capsys):
    outdir = _scenegen(tmp_path, capsys, "--transform", "random")
    manifests = [str(outdir / "manifest_real.json"), str(outdir / "manifest_synth.json")]
    report = tmp_path / "report.json"
    flags = ["--seed", "3", "--max-iterations", "500", "--gate", "9", "--conf-threshold", "0.5"]
    assert main(["ipd", *manifests, "--out", str(report), *flags]) == 0
    doc = json.loads(report.read_text())
    real, real_m = load_dataset(manifests[0])
    synth, _ = load_dataset(manifests[1])
    pairs = pair_datasets(real, synth, real_m.pairing)
    config = PipelineConfig(seed=3, max_iterations=500, gate=9.0, conf_threshold=0.5)
    result, outcomes = evaluate_dataset_pair(pairs, config)
    assert result.ipd == doc["result"]["ipd"]
    assert [outcome.provenance_row() for outcome in outcomes] == doc["provenance"]["pairs"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iterations", 0),
        # evaluate_dataset_pair once wrote "gate_distance": Infinity, which
        # is not JSON, into the report
        ("gate", math.inf),
        ("gate", math.nan),
        ("gate", 0.0),
        ("conf_threshold", 1.5),
    ],
)
def test_pipeline_config_refuses_what_its_flag_refuses(field, value):
    with pytest.raises(InputValidationError):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command in ("ipd", "crossval", "register")
        for flag, value in (
            ("--conf-threshold", "1.5"),
            ("--gate", "-1"),
            # exit 0 and a report holding "gate": Infinity, which is not JSON, before
            ("--gate", "inf"),
            ("--max-iterations", "0"),
        )
        if command != "register" or flag != "--conf-threshold"
    ],
)
def test_bad_flag_is_exit_2_before_any_file_is_read(tmp_path, capsys, command, flag, value):
    missing = [str(tmp_path / "nope_real.json"), str(tmp_path / "nope_synth.json")]
    inputs = {"ipd": missing, "crossval": missing[:1], "register": [*missing, "scene0000"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert flag in err and "nope_" not in err


# one wrong-typed value per case, put at keys inside a valid document of
# the input; each was coerced into another value or refused without its
# field path, before
WRONG_TYPED = [
    ("manifest", ["entries", 0, "image_id"], None, "entries[0].image_id"),
    ("manifest", ["entries", 0, "gt_label_path"], False, "entries[0].gt_label_path"),
    ("manifest", ["entries", 1, "pred_label_path"], ["a"], "entries[1].pred_label_path"),
    ("manifest", ["entries", 1, "width_px"], 2.7, "entries[1].width_px"),
    ("manifest", ["entries", 0, "height_px"], True, "entries[0].height_px"),
    ("manifest", ["entries", 0, "width_px"], "5", "entries[0].width_px"),
    ("manifest", ["pairing"], ["ab"], "pairing[0]"),
    ("spec", [0, "n_instances"], 2.7, "n_instances"),
    ("spec", [0, "rng_seed"], True, "rng_seed"),
    ("spec", [0, "n_instances"], "5", "n_instances"),
    ("spec", [0, "frame"], [640.5, 480], "frame[0]"),
    ("spec", [0, "detector_profile_real"], [None, 0.8], "detector_profile_real.low"),
    ("cells", ["cells", 0, "train"], None, "cells[0].train"),
    ("cells", ["cells", 0, "ipd"], "0.25", "cells[0].ipd"),
    ("cells", ["cells", 1, "ipd"], True, "cells[1].ipd"),
    ("cells", ["cells", 0, "pair"], "RS", "cells[0].pair"),
    ("cells", ["domains"], "RS", "domains"),
]


@pytest.mark.parametrize("kind, keys, value, path", WRONG_TYPED)
def test_wrong_typed_json_value_is_exit_2_naming_its_field(
    tmp_path, capsys, kind, keys, value, path
):
    if kind == "manifest":
        outdir = _scenegen(tmp_path, capsys)
        target = outdir / "manifest_real.json"
        doc = json.loads(target.read_text())
        argv = ["ipd", str(target), str(outdir / "manifest_synth.json")]
    elif kind == "spec":
        target = tmp_path / "specs.json"
        doc = [{"n_instances": 3, "frame": [640, 480], "rng_seed": 1}]
        argv = ["scenegen", "--out", str(tmp_path / "x"), "--spec-file", str(target)]
    else:
        target = tmp_path / "cells.json"
        doc = {
            "domains": ["R", "S"],
            "cells": [
                {"train": "R", "pair": ["R", "S"], "ipd": 0.25},
                {"train": "S", "pair": ["R", "S"], "ipd": 0.5},
            ],
        }
        argv = ["crossval", str(target)]
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    target.write_text(json.dumps(doc))
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert f"{path}: expected" in err


def test_align_pair_gate_defaults_to_half_median_diagonal():
    centers = [(0.0, 0.0), (100.0, 50.0), (230.0, 10.0), (310.0, 90.0), (420.0, 30.0)]
    gt = [(x, y, 6.0, 8.0) for x, y in centers]
    real, synth = image_labels("a", gt), image_labels("b", gt)
    outcome = align_pair(real, synth, PipelineConfig())
    assert (outcome.real_id, outcome.synth_id) == ("a", "b")
    assert outcome.sub_seed == stable_subseed(0, "a", "b")
    assert outcome.pairing.gate_distance == pytest.approx(5.0)
    assert [(r, s) for r, s, _ in outcome.pairing.pairs] == [(i, i) for i in range(5)]
    assert align_pair(real, synth, PipelineConfig(gate=2.5)).pairing.gate_distance == 2.5


def test_align_pair_leaves_an_empty_side_unregistered():
    real = image_labels("a", [(10.0, 10.0, 6.0, 8.0), (40.0, 10.0, 6.0, 8.0)])
    outcome = align_pair(real, image_labels("b", []), PipelineConfig(seed=3))
    assert (outcome.sub_seed, outcome.registration) == (stable_subseed(3, "a", "b"), None)
    pairing = outcome.pairing
    assert (pairing.pairs, pairing.unmatched_real, pairing.unmatched_synth) == ((), (0, 1), ())
    assert outcome.provenance_row()["registration"] == "skipped (empty side)"


def test_a_pair_with_only_collinear_synthetic_bases_warns_so(capsys):
    # collinear on both sides: every synthetic basis is degenerate, so the
    # search tries none, although both sides have 8 points
    gt = [(100.0 + 30.0 * i, 100.0 + 60.0 * i, 6.0, 8.0) for i in range(8)]
    outcome = align_pair(image_labels("a", gt), image_labels("b", gt), PipelineConfig())
    reg = outcome.registration
    assert (reg.iterations_used, reg.hypothesis_count, reg.used_fallback) == (0, 0, True)
    assert reg.fallback == "has only collinear synthetic bases"
    assert capsys.readouterr().err == (
        "warning: pair (a, b) has only collinear synthetic bases; "
        "fell back to centroid translation\n"
    )


def test_a_pair_that_fits_no_hypothesis_warns_that_no_fit_was_valid(capsys):
    # a collinear real side: no real basis turns left, so no synthetic
    # basis is fitted anywhere, and the search tries each of the 47
    # left-turning synthetic bases once, within the budget
    real_gt = [(100.0 + 30.0 * i, 100.0 + 60.0 * i, 6.0, 8.0) for i in range(8)]
    synth_gt = [(100.0 + 40.0 * i, 100.0 + 30.0 * (i * i % 5), 6.0, 8.0) for i in range(8)]
    config = PipelineConfig(max_iterations=50)
    outcome = align_pair(image_labels("a", real_gt), image_labels("b", synth_gt), config)
    reg = outcome.registration
    assert (reg.iterations_used, reg.hypothesis_count, reg.used_fallback) == (47, 0, True)
    assert reg.fallback == "had no valid affine fit in 47 iterations"
    synth = np.array(synth_gt)[:, :2]
    k = registration._BASIS_NEIGHBOURS
    assert len(left_turning_bases(synth[np.lexsort(synth.T)], k)) == 47
    assert capsys.readouterr().err == (
        "warning: pair (a, b) had no valid affine fit in 47 iterations; "
        "fell back to centroid translation\n"
    )


def _one_image_pair(tmp_path, real, synth) -> list[str]:
    """The two manifests of a dataset pair of one 1000 x 1000 image "a",
    whose real and synthetic labels are the ImageLabels real and synth."""
    for side, labels in (("real", real), ("synth", synth)):
        for kind, boxes in (("gt", labels.gt), ("pred", labels.pred)):
            text = serialize_labels(boxes, "pixel", (1000, 1000))
            (tmp_path / f"{side}_{kind}.txt").write_text(text)
        entry = ManifestEntry("a", f"{side}_gt.txt", f"{side}_pred.txt", 1000, 1000)
        manifest = DatasetManifest(side, "pixel", (entry,), (("a", "a"),))
        (tmp_path / f"manifest_{side}.json").write_text(manifest.to_json())
    return [str(tmp_path / f"manifest_{side}.json") for side in ("real", "synth")]


def test_ipd_runs_on_a_real_side_that_lists_every_box_twice(tmp_path, capsys):
    # a zero layout scale leaves every map of this pair with no inlier:
    # registration falls back instead of ending the run with a traceback.
    # Every hypothesis passes the refine gate, as 3 synthetic points
    # leave no check point, and the warning says no refined map scored
    centers = [(200.0, 300.0), (600.0, 250.0), (450.0, 700.0)]
    synth_gt = [(x, y, 20.0, 30.0) for x, y in centers]
    real_gt = [(x + 12.3, y - 4.7, 20.0, 30.0) for x, y in centers for _ in range(2)]
    real, synth = (
        image_labels("a", gt, [(*box, 0.9) for box in gt]) for gt in (real_gt, synth_gt)
    )
    manifests = _one_image_pair(tmp_path, real, synth)
    code, out, err = run_cli(["ipd", *manifests, "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("IPD 0.000000\n")
    assert err == (
        "warning: pair (a, a) had no refined map score an inlier in 3 iterations; "
        "fell back to centroid translation\n"
    )
    reg = align_pair(real, synth, PipelineConfig()).registration
    assert reg.fallback == "had no refined map score an inlier in 3 iterations"


def test_huge_boxes_give_a_strict_json_report_and_no_warning(tmp_path, capsys):
    # every box passes the box rules (area 1.7e8), but two diagonals added
    # overflow, and so does iw * ih of two boxes disjoint along y
    centers = [(100.0, 100.0), (400.0, 150.0), (700.0, 300.0), (250.0, 600.0), (800.0, 800.0)]
    gt = [(x, y, 1.7e308, 1e-300) for x, y in [*centers, (500.0, 450.0)]]
    labels = image_labels("a", gt, [(*box, 0.9) for box in gt])
    report = tmp_path / "report.json"
    manifests = _one_image_pair(tmp_path, labels, labels)
    code, out, err = run_cli(["ipd", *manifests, "--out", str(report)], capsys)
    assert (code, err) == (0, "")

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    row = json.loads(report.read_text(), parse_constant=refuse)["provenance"]["pairs"][0]
    assert row["gate_distance"] == 8.5e307


def test_boxes_whose_areas_sum_past_the_float_range_score_their_iou(tmp_path, capsys):
    # each area, 1e308 or 1.5e308, is finite, but a GT box's and its
    # prediction's add to inf: every IOU scored 0 and IPD 0.000000 with an
    # overflow warning, before. Real predictions score 1, synthetic 2/3.
    centers = [(200.0, 200.0), (700.0, 250.0), (400.0, 600.0), (800.0, 750.0), (300.0, 850.0)]
    gt = [(x, y, 1e154, 1e154) for x, y in centers]
    real, synth = (
        image_labels("a", gt, [(x, y, w, 1e154, 0.9) for x, y in centers])
        for w in (1e154, 1.5e154)
    )
    manifests = _one_image_pair(tmp_path, real, synth)
    code, out, err = run_cli(["ipd", *manifests, "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("IPD 0.333333\n")


def _bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    # registered first: a dataclass looks its module up while being built
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_contract(tmp_path, capsys, monkeypatch):
    """The benchmark's layer trace wraps these names in the ipdkit.cli
    namespace and reads the positional arguments of register (the config
    at index 2) and match_instances (the point lists at 1 and 2)."""
    names = _bench_module("spans").LAYER_OF
    calls = {name: [] for name in names}
    for name in names:

        def wrapper(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    outdir = _scenegen(tmp_path, capsys, "--transform", "random")
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        [
            "ipd",
            str(outdir / "manifest_real.json"),
            str(outdir / "manifest_synth.json"),
            "--seed", "3",
            "--max-iterations", "500",
            "--out", str(report),
        ],
        capsys,
    )
    assert code == 0, err
    assert [name for name in names if not calls[name]] == []
    rows = json.loads(report.read_text())["provenance"]["pairs"]
    assert [args[2].rng_seed for args in calls["register"]] == [r["sub_seed"] for r in rows]
    assert all(args[2].max_iterations == 500 for args in calls["register"])
    assert len(calls["match_instances"]) == len(rows)
    for args, row in zip(calls["match_instances"], rows):
        assert len(args[1]) == row["matched"] + row["unmatched_synth"]
        assert len(args[2]) == row["matched"] + row["unmatched_real"]


def test_bench_counters_match_the_label_arrays(tmp_path, capsys, monkeypatch):
    """The benchmark's counters read gt_boxes, pred_boxes and each
    prediction's confidence after ipd returns; built lazily from the
    label arrays, they must count what the arrays hold."""
    spans = _bench_module("spans")
    for name in spans.LAYER_OF:  # the Recorder's wrappers are undone at teardown
        monkeypatch.setattr(cli, name, getattr(cli, name))
    outdir = _scenegen(tmp_path, capsys, "--transform", "random")
    manifests = [str(outdir / "manifest_real.json"), str(outdir / "manifest_synth.json")]
    recorder = spans.Recorder(cli)
    argv = ["ipd", *manifests, "--conf-threshold", "0.75", "--out", str(tmp_path / "r.json")]
    assert recorder.run_main(argv) == 0
    counts = recorder.counts()
    labels = [lab for path in manifests for lab in load_dataset(path)[0]]
    assert counts["ingestion.boxes"] == sum(len(lab.gt) + len(lab.pred) for lab in labels)
    kept = [int((lab.pred.confidence >= 0.75).sum()) for lab in labels]
    assert 0 < sum(kept) < sum(len(lab.pred) for lab in labels)
    assert counts["metric.iou_cells"] == sum(len(lab.gt) * k for lab, k in zip(labels, kept))


def test_bench_trace_records_every_layer(tmp_path, monkeypatch):
    """bench/run.py --trace 1 wraps the LAYER_OF names in ipdkit.cli and
    counts from what load_dataset (labels first) and match_instances
    return; the CLI's loading path must keep that trace whole."""
    spans = _bench_module("spans")
    assert [name for name in spans.LAYER_OF if not callable(getattr(cli, name, None))] == []
    for name in spans.LAYER_OF:  # the Recorder's wrappers are undone at teardown
        monkeypatch.setattr(cli, name, getattr(cli, name))
    specs = [SceneSpec(12, rng_seed=seed) for seed in (1, 2)]
    real, synth, _ = emit_dataset(tmp_path / "data", specs)
    recorder = spans.Recorder(cli)
    argv = ["ipd", str(real), str(synth), "--out", str(tmp_path / "report.json")]
    assert recorder.run_main(argv) == 0
    counts = recorder.counts()
    assert counts["ingestion.boxes"] > 0 and counts["matching.pairs"] > 0
    recorder.write(str(tmp_path / "spans.jsonl"), {})
    summary = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[-1])["summary"]
    assert summary["nested"]
    assert sorted(summary["busy"]) == ["ingestion", "matching", "metric", "registration"]


# SHA-256 of every file the benchmark's dataset builder leaves after it
# redraws the detections of two of its "mid" scenes and adds clutter. The
# builder goes through perturb_box_to_target_iou, parse_label_file,
# serialize_labels and iou, so this pins what the benchmark measures
# against a one-ulp drift in any of them, or a broken import.
BENCH_DIGESTS = Path(__file__).parent / "data" / "bench_workloads_sha256.json"


def test_bench_dataset_builder_files_are_pinned(tmp_path):
    workloads = _bench_module("workloads")
    emit_dataset(tmp_path, workloads.scene_specs("mid")[:2])
    workloads._redraw_detections(tmp_path, 7)
    workloads._add_clutter(tmp_path, 7)
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert got == json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))


# SHA-256 of the CLI's stdout on one seeded dataset: the ipd report in
# every format, a crossval report with a computed cell in every format, and register
# on a full pair and on a two-GT pair that falls back.
CLI_DIGESTS = Path(__file__).parent / "data" / "cli_outputs_sha256.json"


def _cli_outputs(tmp_path, capsys, monkeypatch) -> dict[str, str]:
    rng = np.random.default_rng(16)
    common = dict(
        center_noise_sigma=0.5,
        dropout_real=0.1,
        dropout_synth=0.1,
        detector_profile_synth=DetectorProfile(0.5, 0.9, 0.1),
    )
    specs = [
        SceneSpec(14, transform=random_affine(rng, (1280, 960)), rng_seed=1, **common),
        SceneSpec(20, transform=random_affine(rng, (1280, 960)), rng_seed=2, **common),
        SceneSpec(2, rng_seed=3),  # too few points: the registration falls back
        SceneSpec(0, rng_seed=4),  # an empty side: the pair is skipped
    ]
    emit_dataset(tmp_path, specs)
    # the reports echo the manifest paths, so they are given relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cells.json").write_text(
        json.dumps(
            {
                "domains": ["R", "S"],
                "cells": [
                    {"train": "R", "pair": ["R", "S"], "real_manifest": "manifest_real.json",
                     "synth_manifest": "manifest_synth.json"},
                    {"train": "S", "pair": ["R", "S"], "ipd": 0.31},
                ],
            }
        )
    )
    manifests = ["manifest_real.json", "manifest_synth.json"]
    runs = {f"ipd.{f}": ["ipd", *manifests, "--format", f] for f in ("json", "csv", "markdown")}
    for f in ("json", "csv", "markdown"):
        runs[f"crossval.{f}"] = ["crossval", "cells.json", "--format", f]
    for scene in ("scene0000", "scene0002"):
        runs[f"register.{scene}"] = ["register", *manifests, scene]
    digests = {}
    for name, argv in runs.items():
        code, out, err = run_cli([*argv, "--seed", "7"], capsys)
        assert code == 0, err
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return digests


def test_cli_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    got = _cli_outputs(tmp_path, capsys, monkeypatch)
    want = json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))
    moved = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not moved, moved


class TestStableSubseed:
    def test_depends_on_every_component(self):
        base = stable_subseed(1, "a", "b")
        assert stable_subseed(1, "a", "b") == base
        assert stable_subseed(2, "a", "b") != base
        assert stable_subseed(1, "x", "b") != base
        assert stable_subseed(1, "a", "x") != base


def test_ipd_run_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, a start-up cost of
    # every ipd run; geometry.median takes its place
    real, synth, _ = emit_dataset(tmp_path, [SceneSpec(12, rng_seed=1)])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["ipd", str(real), str(synth), "--out", str(tmp_path / "r.json")]
    probe = (
        "import sys, ipdkit.cli; "
        f"code = ipdkit.cli.main({argv!r}); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "0 False"


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the runtime must not import it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, ipdkit.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
