"""Benchmark of `ipdkit ipd` on three seeded workloads.

    python3 bench/run.py [--workload mid|dense|clutter|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Per workload it generates (or reuses) the seeded dataset, times set-up
(fresh interpreters importing `ipdkit.cli`), then runs whole `ipdkit ipd`
invocations, one process each, until S seconds have passed and at least
two have run. The first report is checked by `checker.py`; every later
report must be byte-identical to it. Each image pair is one operation; it
fails when its pairing recovers under 95% of the generator's true
correspondence. Failures are expected only on `dense` (registration
misses the true correspondence at ~200 instances); a failed pair on any
other workload makes the exit code 1.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 each untraced `ipd` run is followed by a traced
one (`launch.py --trace`), and the JSON carries the per-layer metrics.
Timings are medians over the runs; peak_rss_mb is the largest peak of any
run, because the peak of identical runs varied by up to 10% on dense
while the largest of a few runs repeats. Exit code 2 means the program
under test (`src/ipdkit`) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"

SETUP_SAMPLES = 5  # import-only interpreters per run, besides one per ipd run
MIN_ROUNDS = 2  # two reports to compare byte for byte
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ipd_wall_s": "s",
    "image_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
    "instances_recovered": "count",
}
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.ipdkit_s": "s",
    "ingestion.load_s": "s",
    "ingestion.boxes": "count",
    "registration.register_s": "s",
    "registration.iterations": "count",
    "registration.hypotheses": "count",
    "registration.budget_exhausted": "count",
    "registration.fallbacks": "count",
    "matching.match_s": "s",
    "matching.cost_cells": "count",
    "matching.pairs": "count",
    "metric.evaluate_s": "s",
    "metric.iou_cells": "count",
    "cli.self_s": "s",
}
# the layers whose busy time the traced run reports, by span layer
BUSY_METRIC = {
    "ingestion": "ingestion.load_s",
    "registration": "registration.register_s",
    "matching": "matching.match_s",
    "metric": "metric.evaluate_s",
}


class ChildError(Exception):
    pass


class Runner:
    """Spawns `launch.py` children in one scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def spawn(self, ipd_args: list[str] | None = None, spans: Path | None = None) -> dict:
        timing = self.work / "timing.json"
        timing.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "launch.py"), str(timing)]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        if ipd_args is not None:
            cmd += ["--", *ipd_args]
        with open(self.work / "stdout.txt", "w") as out, open(self.work / "stderr.txt", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=self.env, timeout=CHILD_TIMEOUT_S)
            exited = time.monotonic()
        if proc.returncode != 0 or not timing.is_file():
            stderr = (self.work / "stderr.txt").read_text()[-2000:]
            raise ChildError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {stderr}")
        rec = json.loads(timing.read_text())
        rec.update(spawned=spawned, exited=exited, stdout=(self.work / "stdout.txt").read_text())
        return rec


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object for the JSON line."""
    import checker
    import workloads

    ds = workloads.build(name, seed, CACHE)
    work = CACHE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    report_path = work / "report.json"
    ipd_args = ["ipd", str(ds.manifest_real), str(ds.manifest_synth)]
    ipd_args += ["--seed", str(workloads.FIXED_SEED), "--out", str(report_path)]
    errors: list[str] = []
    try:
        runner.spawn()  # warm-up: byte-compiles a fresh checkout, fills the file cache
        setup = []
        for _ in range(SETUP_SAMPLES):
            rec = runner.spawn()
            setup.append(rec["imported"] - rec["spawned"])

        walls, rates, rss, traced = [], [], [], []
        reference = check = None
        start = time.monotonic()
        while len(walls) < MIN_ROUNDS or time.monotonic() - start < seconds:
            rec = runner.spawn(ipd_args)
            report = report_path.read_bytes()
            setup.append(rec["imported"] - rec["spawned"])
            walls.append(rec["exited"] - rec["spawned"])
            rates.append(ds.n_pairs / (rec["end"] - rec["imported"]))
            rss.append(rec["max_rss_kb"] / 1024.0)
            if reference is None:
                reference = report
                check = checker.check_report(ds.root, report.decode("utf-8"), rec["stdout"])
                errors.extend(check.errors)
            elif report != reference:
                errors.append("two ipd runs with the same inputs wrote different reports")
            if trace:
                spans = ds.root / "spans.jsonl"
                rec = runner.spawn(ipd_args, spans=spans)
                if report_path.read_bytes() != reference:
                    errors.append("the traced run wrote a different report")
                summary = json.loads(spans.read_text().splitlines()[-1])["summary"]
                if not summary["nested"]:
                    errors.append("layer spans overlap or fall outside the cli span")
                summary["wall_s"] = rec["exited"] - rec["spawned"]
                summary["after_import_s"] = rec["end"] - rec["imported"]
                traced.append(summary)
    except (ChildError, subprocess.TimeoutExpired) as e:
        errors.append(str(e))
        return {"correct": False, "attempted": max(1, ds.n_pairs), "failed": 0, "metrics": {}, "errors": errors}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(walls)
    values = {
        "setup_s": _median(setup),
        "ipd_wall_s": _median(walls),
        "image_pairs_per_s": _median(rates),
        "peak_rss_mb": max(rss),
        "instances_recovered": check.instances_recovered,
    }
    units = END_TO_END
    notes = [
        f"{rounds} ipd runs of {ds.n_pairs} image pairs, {len(setup)} set-up samples",
        f"IPD {check.reported_ipd:.6f}, expected from truth {check.expected_ipd:.6f}",
        f"true correspondences {check.true_instances}, recovered {check.instances_recovered}",
    ]
    if check.failed_pairs:
        notes.append("failed pairs: " + " ".join(check.failed_pairs))
    if trace:
        values, units = _layer_values(traced, errors), PER_LAYER
        overhead = _median(t["wall_s"] for t in traced) - _median(walls)
        notes.append(
            f"tracing overhead {overhead:+.4f} s per ipd run "
            f"({100 * overhead / _median(walls):+.2f}% of the untraced wall time)"
        )
        notes.append(
            f"traced ipd {_median(t['after_import_s'] for t in traced):.4f} s after import, "
            f"cli span {_median(t['cli_s'] for t in traced):.4f} s = layer spans + cli.self_s"
        )
        notes.append(f"spans: {ds.root / 'spans.jsonl'}")
    return {
        "correct": not errors,
        "attempted": rounds * check.attempted,
        "failed": rounds * check.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "errors": errors,
        "notes": notes,
    }


def _layer_values(traced: list[dict], errors: list[str]) -> dict:
    counts = traced[0]["counts"]
    if any(t["counts"] != counts for t in traced):
        errors.append("layer counters differ between traced runs of the same inputs")
    values = {f"import.{k}_s": _median(t["imports"][k] for t in traced) for k in ("numpy", "scipy", "ipdkit")}
    for layer, metric in BUSY_METRIC.items():
        values[metric] = _median(t["busy"].get(layer, 0.0) for t in traced)
    values["cli.self_s"] = _median(t["cli_self_s"] for t in traced)
    values.update((k, counts[k]) for k in PER_LAYER if k in counts)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("mid", "dense", "clutter", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "ipdkit" / "cli.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'ipdkit'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = ("mid", "dense", "clutter") if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"== {name} (seed {args.seed}): attempted {res['attempted']} pairs, failed {res['failed']}")
        for line in res.get("notes", []):
            print(f"   {line}")
        for metric, m in res["metrics"].items():
            print(f"   {metric} = {m['value']:.6g} {m['unit']}")
        for line in res["errors"]:
            print(f"   ERROR: {line}")

    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (
            results[names[0]]["metrics"]
            if len(names) == 1
            else {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
        ),
    }
    print(json.dumps(final))
    unexpected = any(r["failed"] for n, r in results.items() if n != "dense")
    return 0 if final["correct"] and not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
