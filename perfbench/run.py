"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload heap-tvla --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` runs the same inputs untraced and then traced,
prints a self-time tree, writes the spans under ``.perfbench/``, and
prints every per-layer metric.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: environment variables that switch the measured code path
FORBIDDEN_ENV = ("REPRO_PACKED", "REPRO_INTERPRETED")

#: per-layer metrics measured from serve responses (0 on batch workloads)
SERVE_ONLY_LAYERS = (
    "serve.queue_wait_ms.p50",
    "serve.queue_wait_ms.p90",
    "serve.service_ms.p50",
    "serve.rejected",
)


def metric_units(trace: bool) -> dict:
    """Name -> unit of every metric a run prints, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    section = manifest["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _problems(messages, limit: int = 10) -> None:
    for message in messages[:limit]:
        print(f"perfbench: {message}", file=sys.stderr)


# -- batch workloads ---------------------------------------------------------------


def run_batch(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    from perfbench import batch, calibrate, inputs, layers, spans
    from perfbench.stats import peak_rss_mb

    clients = inputs.batch_inputs(workload, seed)
    if not trace:
        setup = batch.measure_setup(workload, workdir)
        with calibrate.pinned(calibrate.cpu_pair()[0]):
            ops = batch.window(workload, clients, seconds, workdir)
        rss = peak_rss_mb()
        batch.post_checks(workload, ops)
        metrics = batch.end_to_end(ops, setup, rss)
        return ops, metrics, batch.raw_medians(ops), True

    recorder = spans.SpanRecorder()
    with calibrate.pinned(calibrate.cpu_pair()[0]):
        plain = batch.window(workload, clients, seconds, workdir)
        layers.install(recorder)
        try:
            ops = batch.window(workload, clients, seconds, workdir, recorder)
        finally:
            recorder.uninstall()
    batch.post_checks(workload, ops)
    metrics = layers.layer_metrics(recorder.spans, recorder.counters)
    metrics.update(batch.bytes_per_source_byte(ops))
    metrics.update(dict.fromkeys(SERVE_ONLY_LAYERS, 0.0))
    untraced = sum(op.certify_s + op.check_s for op in batch.first_pass(plain))
    traced = sum(op.certify_s + op.check_s for op in batch.first_pass(ops))
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100
    gap, ok = _trace_report(workload, seed, recorder.spans)
    metrics["trace.selftime_gap_pct"] = gap
    return ops, metrics, {"traced_s": traced, "untraced_s": untraced}, ok


def _trace_report(workload: str, seed: int, recorded) -> tuple:
    """Print the self-time tree, write the spans, and check that self
    times sum to every root's wall time."""
    from perfbench import config, spans

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    spans.dump(recorded, path)
    print(f"self-time tree ({workload}, seed {seed}; spans in {path}):")
    print(spans.self_time_tree(recorded))
    gap = spans.selftime_gap(recorded)
    ok = gap <= config.SELFTIME_TOLERANCE
    if not ok:
        _problems([f"self times miss root wall time by {gap:.2%}"])
    return gap * 100, ok


# -- serve workload ----------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool, workdir: str):
    from perfbench import calibrate, config, inputs, layers, serve, spans
    from perfbench.stats import percentile

    plan = inputs.serve_mixed(seed, seconds)
    daemon_cpu, generator_cpu = calibrate.cpu_pair()
    with calibrate.pinned(generator_cpu):
        if trace:
            plain = serve.drive(plan, workdir, False, 1, daemon_cpu)
            run = serve.drive(plan, workdir, True, 1, daemon_cpu)
        else:
            run = serve.drive(plan, workdir, False, config.SETUP_SAMPLES, daemon_cpu)
    sources = [answer.request.source for answer in run.low + run.high]
    truths = serve.plain_truths(sources)
    answers = serve.judge(run.low + run.high, truths)
    answers = serve.scale(answers, run.child["calibration"])
    run.low, run.high = answers[: len(run.low)], answers[len(run.low):]
    late_ms = [answer.late_s * 1000 for answer in answers]
    meta = {
        "generator_late_ms_p90": percentile(late_ms, 0.9),
        "generator_late_ms_max": max(late_ms),
        "paths": _path_counts(answers),
    }
    meta.update(serve.high_rate_latency(run))
    if not trace:
        return answers, serve.end_to_end(run, truths), meta, True
    recorded = [spans.Span(**span) for span in run.child["spans"]]
    metrics = layers.layer_metrics(recorded, run.child["counters"])
    metrics.update(serve.serve_layers(run, truths))
    untraced = _median_service(serve.scale(plain.low + plain.high, plain.child["calibration"]))
    traced = _median_service(answers)
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100
    gap, ok = _trace_report("serve-mixed", seed, recorded)
    metrics["trace.selftime_gap_pct"] = gap
    return answers, metrics, meta, ok


def _median_service(answers) -> float:
    from perfbench.stats import median

    return median([answer.service_ms for answer in answers])


def _path_counts(answers) -> dict:
    counts: dict = {}
    for answer in answers:
        path = (answer.payload.get("served") or {}).get("path", "?")
        key = f"{answer.request.kind}->{path}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


# -- entry point -------------------------------------------------------------------


def parse_args(argv):
    from perfbench import config

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    forbidden = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if forbidden:
        print(
            f"perfbench: refusing to run with {', '.join(forbidden)} set: "
            "it switches the measured code path",
            file=sys.stderr,
        )
        return 2
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro comes from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"), prefix="run-")
    try:
        if args.workload == "serve-mixed":
            ops, metrics, meta, trace_ok = run_serve(args.seed, args.seconds, trace, workdir)
        else:
            ops, metrics, meta, trace_ok = run_batch(
                args.workload, args.seed, args.seconds, trace, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    _problems([f"{op.label}: {problem}" for op in failed for problem in op.problems])
    units = metric_units(trace)
    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
        }
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not failed and trace_ok,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
