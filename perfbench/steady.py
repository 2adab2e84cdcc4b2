"""Steadiness self-check: run one workload repeatedly and judge the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload heap-tvla --seeds 1,2,3,4,5 \
        [--repeat 2] [--seconds 10] [--trace 0] [--save runs.json]

Each seed runs ``--repeat`` times.  For every metric the tool prints
the median, the quartiles and the spread (interquartile distance as a
share of the median) over all runs.  It fails (exit 1) if a run fails,
if a deterministic value differs between runs of one seed, or if a
timing's spread exceeds its bound in ``BENCHMARK.json`` (``setup_s``
is reported but never judged on spread).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT]

from perfbench.stats import quartiles, spread  # noqa: E402

#: end-to-end metrics that are pure functions of the seed
DETERMINISTIC = ("cert_bytes", "alarm_count")

#: traced counters that depend on timing, not only on the seed
TIMING_DEPENDENT_COUNTS = ("py.gc_gen2",)


def deterministic(workload: str, name: str, unit: str) -> bool:
    if name in DETERMINISTIC:
        return True
    # serve traffic interleaves differently from run to run, so its
    # counters follow the interleaving
    return (
        unit == "count"
        and workload != "serve-mixed"
        and name not in TIMING_DEPENDENT_COUNTS
    )


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def judge(
    workload: str,
    runs: Dict[int, List[dict]],
    bounds: Dict[str, float],
) -> List[str]:
    """Problems found in the runs (seed -> results of that seed)."""
    problems = []
    every = [result for results in runs.values() for result in results]
    for result in every:
        if not result["correct"] or result["failed"]:
            problems.append(f"a run failed: {result['failed']} of {result['attempted']}")
    names = every[0]["metrics"]
    for name, entry in names.items():
        if deterministic(workload, name, entry["unit"]):
            for seed, results in runs.items():
                values = {r["metrics"][name]["value"] for r in results}
                if len(values) > 1:
                    problems.append(f"{name} differs between runs of seed {seed}: {sorted(values)}")
        elif name in bounds and name != "setup_s":
            values = [r["metrics"][name]["value"] for r in every]
            if spread(values) > bounds[name]:
                problems.append(
                    f"{name} spread {spread(values):.3f} exceeds its bound {bounds[name]}"
                )
    return problems


def report(runs: Dict[int, List[dict]], bounds: Dict[str, float]) -> str:
    every = [result for results in runs.values() for result in results]
    lines = [f"{'metric':<36} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}"]
    for name, entry in every[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in every]
        q1, mid, q3 = quartiles(values)
        bound = bounds.get(name)
        lines.append(
            f"{name:<36} {q1:>12.5g} {mid:>12.5g} {q3:>12.5g} "
            f"{spread(values):>8.3f} {'' if bound is None else bound:>6}"
            f"  {entry['unit']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write every run's result here (JSON)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: Dict[int, List[dict]] = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        for _ in range(args.repeat):
            runs.setdefault(seed, []).append(
                run_once(args.workload, seed, seconds, args.trace)
            )
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    print(report(runs, bounds))
    problems = judge(args.workload, runs, bounds)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
