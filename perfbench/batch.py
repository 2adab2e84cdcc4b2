"""The three batch workloads: certify then check each client.

``oneshot-suite`` builds a fresh session and a fresh checker per client
(one ``repro certify`` plus one ``repro check``); ``heap-tvla`` and
``interproc-library`` certify in one warm session and check with one
warm checker.  A *pass* runs every client once on fresh state; a run
makes one pass per ``config.PASS_SECONDS[workload]`` of ``--seconds``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import calibrate, config, inputs, oracle
from perfbench.inputs import Client
from perfbench.spans import SpanRecorder
from perfbench.stats import median, percentile

ENGINES = {
    "oneshot-suite": "auto",
    "heap-tvla": "tvla-relational",
    "interproc-library": "interproc",
}


@dataclass
class State:
    """What a pass certifies and checks with (None: built per client)."""

    session: object = None
    checker: object = None


def make_state(workload: str, workdir: str) -> State:
    """Imports, session and checker construction, and prewarm.

    The warm workloads certify and check one small client that shares
    nothing with the measured ones, so the checker has derived its
    abstraction before the first measured check, whichever client the
    seed puts first."""
    from repro.api import CertifyOptions, CertifySession
    from repro.cert.check import CertificateChecker
    from repro.easl.library import get_spec

    spec = get_spec(config.SPEC)
    if workload == "oneshot-suite":
        return State()
    engine = ENGINES[workload]
    options = CertifyOptions(emit_certificate=True)
    if workload == "interproc-library":
        options = CertifyOptions(
            emit_certificate=True, summary_db=tempfile.mkdtemp(dir=workdir)
        )
    session = CertifySession(spec, engine=engine, options=options)
    session.prewarm([engine])
    checker = CertificateChecker()
    warm = session.certify(inputs.warmup_source(workload))
    if not checker.check(warm.certificate).ok:
        raise RuntimeError(f"{workload}: the warm-up certificate was rejected")
    return State(session, checker)


def measure_setup(workload: str, workdir: str) -> List[float]:
    """Process start to ready, in fresh processes."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(config.SETUP_SAMPLES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload, workdir],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
    return samples


@dataclass
class Op:
    """One client certified and checked.  The ``raw_`` times are
    measured wall times; ``certify_s`` and ``check_s`` are the same
    times scaled to the reference host (see :mod:`perfbench.calibrate`)
    once the window ends."""

    client: Client
    pass_index: int
    certify_at: Tuple[float, float]
    check_at: Tuple[float, float]
    alarms: list
    problems: List[str] = field(default_factory=list)
    certify_s: float = 0.0
    check_s: float = 0.0
    cert_hash: str = ""
    canonical_bytes: int = 0
    text_bytes: int = 0

    @property
    def label(self) -> str:
        return self.client.name

    @property
    def raw_certify_s(self) -> float:
        return self.certify_at[1] - self.certify_at[0]

    @property
    def raw_check_s(self) -> float:
        return self.check_at[1] - self.check_at[0]


def _timed(recorder: Optional[SpanRecorder], name: str, fn, *args):
    started = time.perf_counter()
    if recorder is None:
        result = fn(*args)
    else:
        result = recorder.call(name, fn, *args)
    return result, (started, time.perf_counter())


def _oneshot_certify(source: str):
    from repro.api import CertifyOptions, CertifySession
    from repro.easl.library import get_spec

    session = CertifySession(
        get_spec(config.SPEC), engine="auto", options=CertifyOptions(emit_certificate=True)
    )
    return session.certify(source)


def _oneshot_check(certificate):
    from repro.cert.check import CertificateChecker

    return CertificateChecker().check(certificate)


def run_op(
    workload: str,
    client: Client,
    state: State,
    pass_index: int,
    recorder: Optional[SpanRecorder],
    calibrator: calibrate.Calibrator,
) -> Op:
    if state.session is None:
        certify, check = _oneshot_certify, _oneshot_check
    else:
        certify, check = state.session.certify, state.checker.check
    calibrator.sample()
    report, certify_at = _timed(recorder, "bench.certify", certify, client.source)
    calibrator.sample()
    result, check_at = _timed(recorder, "bench.check", check, report.certificate)
    calibrator.sample()
    op = Op(client, pass_index, certify_at, check_at, list(report.alarms))
    op.problems += oracle.accepted(result)
    if client.expected_lines is not None:
        op.problems += oracle.expected_lines(report.alarms, client.expected_lines)
    payload = report.certificate.payload
    text = oracle.pretty_text(payload).encode()
    op.cert_hash = hashlib.sha256(text).hexdigest()
    op.text_bytes = len(text)
    if pass_index == 0:
        op.canonical_bytes = oracle.canonical_bytes(payload)
    return op


def window(
    workload: str,
    clients: List[Client],
    seconds: float,
    workdir: str,
    recorder: Optional[SpanRecorder] = None,
) -> List[Op]:
    """``seconds / config.PASS_SECONDS[workload]`` whole passes over
    the clients (at least one); times are scaled once the window ends."""
    ops: List[Op] = []
    calibrator = calibrate.Calibrator()
    passes = max(1, round(seconds / config.PASS_SECONDS[workload]))
    for pass_index in range(passes):
        state = make_state(workload, workdir)
        for client in clients:
            ops.append(run_op(workload, client, state, pass_index, recorder, calibrator))
    for op in ops:
        op.certify_s = op.raw_certify_s * calibrator.factor(*op.certify_at)
        op.check_s = op.raw_check_s * calibrator.factor(*op.check_at)
    return ops


def post_checks(workload: str, ops: List[Op]) -> None:
    """Oracles run after the timed window: certificates repeat byte for
    byte across passes, and (heap) bounded exploration finds no error
    without an alarm."""
    first: Dict[str, Op] = {}
    for op in ops:
        seen = first.setdefault(op.client.name, op)
        if seen.cert_hash != op.cert_hash:
            op.problems.append("certificate differs between passes")
    if workload == "heap-tvla":
        for op in first.values():
            op.problems += oracle.covers_exploration(op.client.source, op.alarms)


def first_pass(ops: List[Op]) -> List[Op]:
    return [op for op in ops if op.pass_index == 0]


def end_to_end(ops: List[Op], setup: List[float], rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric for a batch workload.

    A batch has no offered rate and no store, so the serve-shaped names
    carry their batch meaning (see perfbench/README.md): a request is
    one client's certify + check, a hit is a check, and a miss or a
    near-hit is a certify."""
    certify_ms = [op.certify_s * 1000 for op in ops]
    check_ms = [op.check_s * 1000 for op in ops]
    request_ms = [c + k for c, k in zip(certify_ms, check_ms)]
    busy_s = sum(request_ms) / 1000
    good = [op for op in ops if not op.problems]
    once = first_pass(ops)
    return {
        "setup_s": median(setup),
        "peak_rss_mb": rss_mb,
        "ok_rate": len(good) / len(ops),
        "certify_p50_ms": median(certify_ms),
        "check_p50_ms": median(check_ms),
        "clients_per_s": len(ops) / busy_s,
        "cert_bytes": sum(op.canonical_bytes for op in once),
        "alarm_count": sum(len(op.alarms) for op in once),
        "req_p50_ms.low": median(request_ms),
        "req_p90_ms.low": percentile(request_ms, 0.9),
        "goodput_rps.high": len(good) / busy_s,
        "hit_p50_ms": median(check_ms),
        "near_hit_p50_ms": median(certify_ms),
        "miss_p50_ms": median(certify_ms),
    }


def raw_medians(ops: List[Op]) -> Dict[str, float]:
    """The unscaled medians, printed beside the metrics."""
    return {
        "raw_certify_p50_ms": median([op.raw_certify_s * 1000 for op in ops]),
        "raw_check_p50_ms": median([op.raw_check_s * 1000 for op in ops]),
    }


def bytes_per_source_byte(ops: List[Op]) -> Dict[str, float]:
    once = first_pass(ops)
    source = sum(len(op.client.source.encode()) for op in once)
    return {
        "cert.bytes_per_src_byte.canonical": sum(op.canonical_bytes for op in once) / source,
        "cert.bytes_per_src_byte.text": sum(op.text_bytes for op in once) / source,
    }
