"""frobtab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass is a fresh single-threaded Python
process (``child.py``), because a command-line user pays for cold caches on
every call.  Passes run one after another for about ``--seconds``, and at
least ``MIN_PASSES`` times.

Times are reported at the reference speed (see ``workloads.reference_chunk``):
``calibrated_wall_s`` divides each item's latency by the host's slowdown
around it, takes each item's median over the passes (every pass submits the
same items in the same order) and sums them; ``setup_s`` is the median over
passes of set-up time divided by the slowdown just after it.  The items'
time and the set-up time as measured are printed too, unbounded.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with the tracing overhead against the untraced ones; the spans of the
last traced pass go to ``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a result
was printed, even one with failed items; it is 1 when a pass crashed and 2
when the checkout holds no ``src/frobtab``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import LAYER_UNITS  # noqa: E402

MIN_PASSES = 3
TAIL_BEYOND = 10  # items beyond the reported tail percentile
PASS_TIMEOUT_S = 120

E2E_UNITS = {
    "calibrated_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """The caller's environment for one process and one thread of frobtab."""
    env = dict(os.environ)
    env.pop("FROBTAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, size: str, traced: bool, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        suffix = "" if size == "full" else f"-{size}"
        cmd += ["--trace", "--spans", str(out_dir / f"spans-{workload}{suffix}.tsv")]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def item_tail(passes: list[dict]) -> dict:
    """Latency at the highest percentile with TAIL_BEYOND items beyond it.

    Every pass submits the same items in the same order, so each item's
    latency is first taken as its median over the passes.
    """
    per_item = sorted(statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in passes)))
    k = max(len(per_item) - TAIL_BEYOND - 1, 0)
    return {
        "ms": per_item[k] * 1e3,
        "percentile": 100.0 * (k + 1) / len(per_item),
        "items": len(per_item),
        "beyond": len(per_item) - k - 1,
    }


def calibrated_wall(passes: list[dict]) -> float:
    """Sum over items of each item's median calibrated latency over the passes."""
    return sum(
        statistics.median(lat / slow for lat, slow in item)
        for item in zip(*(zip(p["latencies_s"], p["slowdowns"]) for p in passes))
    )


def end_to_end(passes: list[dict]) -> dict:
    return {
        "calibrated_wall_s": calibrated_wall(passes),
        "setup_s": statistics.median(p["setup_s"] / p["setup_slowdown"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the small grid used by the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frobtab" / "__init__.py").is_file():
        print(f"error: no src/frobtab under {ROOT}", file=sys.stderr)
        return 2
    from workloads import REF_NOMINAL_S, WORKLOADS  # imports frobtab

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    env = child_env()
    # compile the package once, so no pass pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import frobtab"], env=env, cwd=ROOT,
                   check=True, timeout=PASS_TIMEOUT_S)

    modes = (False, True) if args.trace else (False,)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    durations: list[float] = []
    try:
        # start another pass only if it is expected to end within --seconds
        while (len(durations) < MIN_PASSES * len(modes)
               or time.monotonic() - start + statistics.median(durations) <= args.seconds):
            is_traced = modes[len(durations) % len(modes)]
            t = time.monotonic()
            res = run_child(args.workload, args.seed, size, is_traced, env)
            durations.append(time.monotonic() - t)
            (traced if is_traced else plain).append(res)
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    first = passes[0]
    print(f"workload {args.workload}  grid {WORKLOADS[args.workload].grids[size]}  "
          f"seed {args.seed}  "
          f"python {first['python']}  nproc {first['nproc']}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    values = end_to_end(plain)
    notes = {
        "calibrated_wall_s": "items at the reference speed; each item's median over passes",
        "setup_s": "at the reference speed; median over passes",
        "peak_rss_mb": "median over passes",
    }
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<17} {values[name]:12.4f} {unit:<5} ({notes[name]})")
    for name, what in (("wall_s", "items"), ("setup_s", "set-up")):
        q1, med, q3 = statistics.quantiles([p[name] for p in plain], n=4)
        print(f"  measured {what:<8} {med:12.4f} s     (median over passes; "
              f"quartiles {q1:.4f} {q3:.4f})")
    slow = statistics.median(s for p in plain for s in p["slowdowns"])
    print(f"  host slowdown     {slow:12.4f} ratio (reference chunk time over "
          f"{REF_NOMINAL_S * 1e3:g} ms, median over items)")
    # reported, not bounded: its run-to-run spread exceeds any allowed bound
    tail = item_tail(plain)
    print(f"  item_tail_ms      {tail['ms']:12.4f} ms    (p{tail['percentile']:.1f} of "
          f"{tail['items']} items, {tail['beyond']} beyond; each item's latency is its "
          f"median over passes)")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"  fail_ratio        {failed / attempted:12.4f} ratio ({failed}/{attempted} items)")
    correct = all(p["correct"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"  problem: {problem}")

    if args.trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_ratio"] = calibrated_wall(traced) / values["calibrated_wall_s"]
        print("  per layer (median over traced passes):")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<36} {layers[name]:14.4f} {unit}")
        for name in sorted({a for p in traced for a in p["absent"]}):
            print(f"  absent: {name}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
