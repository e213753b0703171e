"""Count how well registration and matching recover the true
correspondence on the seeded correctness families.

Each family is a run of scene pairs built by test_registration._scenes
(a random affine map, 0.5 px center noise, the family's dropout per
side). test_registration._align registers pair i with rng_seed=i and
matches it inside the default gate. Per family it prints the pairs, the
misses (pairs below 95% recall of the true correspondence), the
fallbacks, the matched pairs, the wrong pairs among them, the
registration iterations and the seconds. The last line is one JSON
object of those counts, keyed by family.

    PYTHONPATH=src python tests/recovery.py [--out FILE]

pytest does not collect this file: its name does not start with test_.
"""

import argparse
import json
import time

from ipdkit import RegistrationConfig

from test_registration import _align, _scenes

# name -> master seed, pairs, instance range [low, high), dropout, layout
FAMILIES = {
    "heavy30": (30, 300, (20, 61), 0.3, {"min_separation_factor": 2.0}),
    "heavy50": (50, 100, (20, 61), 0.5, {"min_separation_factor": 2.0}),
    "small": (10, 400, (4, 11), 0.1, {}),
    "typical": (5, 300, (20, 41), 0.1, {}),
}


def recovery(master_seed, pairs, n_range, dropout, layout) -> dict:
    counts = dict.fromkeys(("pairs", "misses", "fallbacks", "matched", "wrong", "iterations"), 0)
    start = time.perf_counter()
    scenes = _scenes(master_seed, pairs, n_range, dropout, **layout)
    for i, (real, synth, corr) in enumerate(scenes):
        reg, pairing = _align(real.gt, synth.gt, RegistrationConfig(rng_seed=i))
        found, truth = {(r, s) for r, s, _ in pairing.pairs}, set(corr)
        counts["pairs"] += 1
        counts["misses"] += bool(truth) and len(found & truth) / len(truth) < 0.95
        counts["fallbacks"] += reg.used_fallback
        counts["matched"] += len(found)
        counts["wrong"] += len(found - truth)
        counts["iterations"] += reg.iterations_used
    counts["seconds"] = round(time.perf_counter() - start, 2)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the last line, the JSON counts, to this file")
    args = parser.parse_args()
    results = {}
    for name, family in FAMILIES.items():
        results[name] = recovery(*family)
        print(name, *(f"{key}={value}" for key, value in results[name].items()), flush=True)
    line = json.dumps(results, sort_keys=True)
    print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(line + "\n")


if __name__ == "__main__":
    main()
