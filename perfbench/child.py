"""One pass of one workload in a fresh process; the last stdout line is JSON.

Started by ``run.py``, which passes the monotonic time just before it
started this process, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="monotonic start time")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the spans of a traced pass here")
    args = parser.parse_args(argv)

    import workloads  # imports frobtab, inside the set-up time

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    res = workloads.run_pass(args.workload, args.seed, args.size, args.t0, tracer)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "wall_s": res.wall_s,
        "setup_s": res.setup_s,
        "setup_slowdown": res.setup_slowdown,
        "peak_rss_mb": res.peak_rss_mb,
        "latencies_s": res.latencies_s,
        "slowdowns": res.slowdowns,
        "attempted": res.attempted,
        "failed": res.failed,
        "correct": res.correct,
        "problems": res.problems[:5],
    }
    if tracer is not None:
        ranks = workloads.span_ranks(res.outputs) if args.workload == "verify-grid" else None
        out["layers"] = tracer.layer_metrics(res.wall_s, ranks)
        out["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
