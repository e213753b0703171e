"""Child-process entry point: runs `ipdkit` exactly as its console script
does (`ipdkit.cli.main`) and writes timings to a side file.

    python3 bench/launch.py TIMING_FILE [--trace SPANS_FILE] [-- IPDKIT_ARGS...]

Without IPDKIT_ARGS it only imports `ipdkit.cli` (a set-up sample). The
timing file gets one JSON object: monotonic clock readings after the
import and at exit (CLOCK_MONOTONIC is shared by all processes, so the
parent can subtract its own spawn time) and the peak resident set size.
With --trace the imports are timed one by one and the layer spans of
`bench/spans.py` are recorded; nothing is added to the untraced path
before `ipdkit.cli` is imported.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    timing_file = argv.pop(0)
    spans_file = None
    if argv[:1] == ["--trace"]:
        spans_file = argv[1]
        argv = argv[2:]
    ipd_argv = argv[1:] if argv[:1] == ["--"] else None

    if spans_file is None:
        import ipdkit.cli

        imported = time.monotonic()
        recorder = None
    else:
        t0 = time.monotonic()
        import numpy  # noqa: F401

        t1 = time.monotonic()
        import scipy.optimize  # noqa: F401

        t2 = time.monotonic()
        import ipdkit.cli

        imported = time.monotonic()
        imports = {"numpy": t1 - t0, "scipy": t2 - t1, "ipdkit": imported - t2}
        import spans

        recorder = spans.Recorder(ipdkit.cli)

    code = 0
    if ipd_argv is not None:
        code = recorder.run_main(ipd_argv) if recorder else ipdkit.cli.main(ipd_argv)
    end = time.monotonic()

    import json
    import resource

    with open(timing_file, "w", encoding="utf-8") as f:
        json.dump(
            {
                "imported": imported,
                "end": end,
                "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            f,
        )
    if recorder is not None:
        recorder.write(spans_file, imports)
    return code


if __name__ == "__main__":
    sys.exit(main())
