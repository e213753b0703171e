"""Layer spans for the traced benchmark run, recorded from outside the
package by wrapping the public functions that `ipdkit.cli` calls.

`ipdkit.cli` imports each layer function by name, so the wrappers replace
those names in the `ipdkit.cli` namespace; the package itself is not
changed. A span is (layer, start, end, pair), with `pair` the image
pair's registration sub-seed (the `sub_seed` of its report row) or None
for spans that cover the whole dataset. Spans and the objects counters
are read from stay in memory; counters are computed and everything is
written out only after `ipd` has returned, so the traced time holds no
counting work.
"""

from __future__ import annotations

import json
import time

# ipdkit.cli name -> layer it belongs to
LAYER_OF = {
    "load_dataset": "ingestion",
    "merge_pairings": "ingestion",
    "pair_datasets": "ingestion",
    "register": "registration",
    "default_gate_distance": "matching",
    "match_instances": "matching",
    "evaluate_pair": "metric",
}


class Recorder:
    def __init__(self, cli):
        self.cli = cli
        self.spans: list[tuple[str, float, float, int | None]] = []
        # (function name, args, result) of every wrapped call, for counters
        self.calls: list[tuple[str, tuple, object]] = []
        self.pair: int | None = None
        for name in LAYER_OF:
            setattr(cli, name, self._wrap(name, getattr(cli, name)))

    def _wrap(self, name, fn):
        layer = LAYER_OF[name]
        spans, calls = self.spans, self.calls

        def wrapper(*args, **kwargs):
            if name == "register":
                self.pair = args[2].rng_seed
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            spans.append((layer, start, end, None if layer in ("ingestion", "metric") else self.pair))
            calls.append((name, args, out))
            return out

        return wrapper

    def run_main(self, argv) -> int:
        start = time.perf_counter()
        code = self.cli.main(argv)
        self.spans.append(("cli", start, time.perf_counter(), None))
        return code

    def counts(self) -> dict[str, int]:
        c = dict.fromkeys(
            (
                "ingestion.boxes",
                "registration.iterations",
                "registration.hypotheses",
                "registration.budget_exhausted",
                "registration.fallbacks",
                "matching.cost_cells",
                "matching.pairs",
                "metric.iou_cells",
            ),
            0,
        )
        for name, args, out in self.calls:
            if name == "load_dataset":
                c["ingestion.boxes"] += sum(len(x.gt_boxes) + len(x.pred_boxes) for x in out[0])
            elif name == "register":
                cfg = args[2]
                c["registration.iterations"] += out.iterations_used
                c["registration.hypotheses"] += out.hypothesis_count
                c["registration.fallbacks"] += int(out.used_fallback)
                exhausted = not out.used_fallback and out.iterations_used >= cfg.max_iterations
                c["registration.budget_exhausted"] += int(exhausted)
            elif name == "match_instances":
                c["matching.cost_cells"] += len(args[1]) * len(args[2])
                c["matching.pairs"] += len(out.pairs)
            elif name == "evaluate_pair":
                reals, synths, _, threshold = args[:4]
                # computed from the inputs: GT boxes x surviving predictions
                for labels in (*reals, *synths):
                    kept = sum(1 for b in labels.pred_boxes if b.confidence >= threshold)
                    c["metric.iou_cells"] += len(labels.gt_boxes) * kept
        return c

    def write(self, path: str, imports: dict[str, float]) -> None:
        """Spans as JSON lines, then one summary line: import times,
        counters, per-layer busy time and the cli self time."""
        cli_start, cli_end = next((s, e) for layer, s, e, _ in self.spans if layer == "cli")
        inner = sorted((s, e, layer) for layer, s, e, _ in self.spans if layer != "cli")
        nested = all(cli_start <= s <= e <= cli_end for s, e, _ in inner) and all(
            a[1] <= b[0] for a, b in zip(inner, inner[1:])
        )
        busy: dict[str, float] = {}
        for s, e, layer in inner:
            busy[layer] = busy.get(layer, 0.0) + (e - s)
        summary = {
            "imports": imports,
            "counts": self.counts(),
            "busy": busy,
            "cli_s": cli_end - cli_start,
            "cli_self_s": (cli_end - cli_start) - sum(busy.values()),
            "nested": nested,
        }
        with open(path, "w", encoding="utf-8") as f:
            for layer, s, e, pair in self.spans:
                f.write(json.dumps({"layer": layer, "start": s, "end": e, "pair": pair}) + "\n")
            f.write(json.dumps({"summary": summary}) + "\n")
