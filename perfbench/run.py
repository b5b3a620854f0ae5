"""Benchmark of ringspectra's spectrum sweeps, large-modulus evaluation and
dual-engine oracle, with end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; the package is imported from
src/ without being installed.  Every workload runs in fresh processes of
perfbench/workloads.py with one worker.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The same object, the set-up times and the traced spans are also written
under perfbench/out/.  --smoke runs one round of every workload, with its
checks, and exits 0 only if all of them pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "large-m", "oracle")
SETUPS = 5  # set-ups timed per run; setup_s is their median
TIME_LIMIT = 170  # seconds for a whole run, all of its processes included


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start workloads.py, wait for it, and return (start time, its JSON)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workloads.py {' '.join(args)} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workloads.py {' '.join(args)} exited {proc.returncode}")
    return started, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    os.makedirs(OUT, exist_ok=True)
    if trace:
        spans = os.path.join(OUT, f"{workload}-seed{seed}.spans.jsonl")
        _, res = run_child(common + ["--trace", "1", "--spans", spans], deadline)
        metrics = res["layers"]
        extra = {
            "round_walls": res["round_walls"],
            "durations": res["durations"],
            "spans": os.path.relpath(spans, HERE),
        }
    else:
        setups = []
        for _ in range(SETUPS - 1):
            started, ready = run_child(common + ["--setup-only"], deadline)
            setups.append(ready["ready"] - started)
        started, res = run_child(common + ["--trace", "0"], deadline)
        setups.append(res["ready"] - started)
        metrics = {
            "evals_per_s": (res["evals_per_s"], "1/s"),
            "op_p50_ms": (res["op_p50_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        extra = {
            "round_walls": res["round_walls"],
            "durations": res["durations"],
            "setups_s": setups,
        }
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({**result, **extra}, fh, indent=1, sort_keys=True)
    return result


def smoke() -> int:
    deadline = time.monotonic() + 3 * TIME_LIMIT
    ok = True
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
        _, res = run_child(args, deadline)
        passed = res["correct"] and res["failed"] == 0
        ok = ok and passed
        print(
            f"{workload}: {'ok' if passed else 'FAILED'}"
            f" ({res['attempted']} operations, {res['failed']} failed)"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one checked round of each workload")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
