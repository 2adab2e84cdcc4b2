"""The ``serve-mixed`` workload: an open-loop generator in this process
drives a daemon child over keep-alive connections.

Each request is timed from its *scheduled* send time, so a stall also
counts against the requests queued behind it; how late the generator
itself ran is reported separately.  The schedule comes from
:func:`perfbench.inputs.serve_mixed` and is complete before the daemon
starts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import config, oracle
from perfbench.calibrate import Calibrator
from perfbench.inputs import Request, ServePlan
from perfbench.stats import median, percentile

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_child.py")


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 24
            )
        assert self.reader is not None
        data = json.dumps(body).encode() if body is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n".encode()
            + data
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b"{}"
        return status, json.loads(payload)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.writer = None


@dataclass
class Answer:
    """One response.  ``due`` and ``done`` read CLOCK_MONOTONIC;
    ``scale`` maps this request's times to the reference host."""

    request: Request
    status: int
    payload: dict
    due: float  # scheduled send time
    done: float  # response received
    late_s: float  # how late the generator sent it
    problems: Tuple[str, ...] = ()
    scale: float = 1.0

    @property
    def latency_s(self) -> float:
        """Raw latency from the scheduled send time."""
        return self.done - self.due

    @property
    def latency_ms(self) -> float:
        """Scaled latency; a failed request never meets any limit."""
        return float("inf") if self.problems else self.latency_s * self.scale * 1000

    @property
    def service_ms(self) -> float:
        """Scaled time the daemon reports spending on the request."""
        seconds = (self.payload.get("timings") or {}).get("seconds") or 0.0
        return float(seconds) * self.scale * 1000

    @property
    def label(self) -> str:
        return f"{self.request.kind} request"


def _certify_body(source: str) -> dict:
    return {"source": source, "spec": config.SPEC, "engine": "tvla-relational"}


async def _open_loop(
    port: int, requests: Sequence[Request], connections: int
) -> List[Answer]:
    loop = asyncio.get_running_loop()
    idle: asyncio.Queue = asyncio.Queue()
    conns = [Connection(port) for _ in range(connections)]
    for conn in conns:
        idle.put_nowait(conn)
    answers: List[Answer] = []

    async def send(conn: Connection, request: Request, due: float, late: float):
        try:
            status, payload = await conn.request(
                "POST", "/certify", _certify_body(request.source)
            )
            answers.append(Answer(request, status, payload, due, loop.time(), late))
        finally:
            idle.put_nowait(conn)

    start = loop.time() + 0.05
    tasks = []
    for request in requests:
        due = start + request.at
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await idle.get()
        tasks.append(
            asyncio.create_task(send(conn, request, due, max(0.0, loop.time() - due)))
        )
    try:
        await asyncio.gather(*tasks)
    finally:
        for conn in conns:
            await conn.close()
    return answers


async def _sequential(port: int, sources: Sequence[str]) -> List[Tuple[int, dict]]:
    conn = Connection(port)
    try:
        return [
            await conn.request("POST", "/certify", _certify_body(source))
            for source in sources
        ]
    finally:
        await conn.close()


async def _healthy(port: int) -> bool:
    conn = Connection(port)
    try:
        status, payload = await conn.request("GET", "/healthz")
        return status == 200 and bool(payload.get("ok"))
    finally:
        await conn.close()


class Daemon:
    """A daemon child: started, timed to ``/healthz``, and stopped."""

    def __init__(self, workdir: str, workers: int, trace: bool, cpu: int) -> None:
        self.store = tempfile.mkdtemp(dir=workdir, prefix="store-")
        self.out = self.store + ".json"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                CHILD,
                self.store,
                str(workers),
                "1" if trace else "0",
                self.out,
                str(cpu),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError("serve daemon failed to start")
        self.port = int(line[1])
        if not asyncio.run(_healthy(self.port)):
            self.stop()
            raise RuntimeError("serve daemon is not healthy")
        self.setup_s = time.perf_counter() - started

    def stop(self) -> dict:
        """SIGTERM the child, wait for it, and return what it wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not os.path.exists(self.out):
            raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
        with open(self.out, "r", encoding="utf-8") as handle:
            return json.load(handle)


def workers() -> int:
    return max(1, min(config.SERVE_MAX_WORKERS, os.cpu_count() or 1))


@dataclass
class Run:
    setup: List[float]
    low: List[Answer]
    high: List[Answer]
    child: dict


def drive(
    plan: ServePlan, workdir: str, trace: bool, setup_samples: int, cpu: int
) -> Run:
    """Start the daemon on ``cpu`` (timing ``setup_samples`` starts),
    warm the store with the base sources, then run the low and high
    phases."""
    setup = []
    for _ in range(setup_samples - 1):
        daemon = Daemon(workdir, workers(), False, cpu)
        setup.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(workdir, workers(), trace, cpu)
    setup.append(daemon.setup_s)
    try:
        # certify every base source, then hit it once so the checker
        # has built it: every timed hit takes the warm hit path
        warm = asyncio.run(_sequential(daemon.port, plan.base + plan.base))
        if any(status != 200 for status, _payload in warm):
            raise RuntimeError("serve warm-up request failed")
        low = asyncio.run(_open_loop(daemon.port, plan.low, workers()))
        high = asyncio.run(_open_loop(daemon.port, plan.high, workers()))
    finally:
        child = daemon.stop()
    return Run(setup, low, high, child)


# -- correctness -----------------------------------------------------------------


@dataclass
class Truth:
    """A plain session's verdict and certificate for one source."""

    report: object
    cert_hash: str
    canonical_bytes: int
    text_bytes: int
    problems: Tuple[str, ...]


def plain_truths(sources: Sequence[str]) -> Dict[str, Truth]:
    """Certify every distinct source in a plain session (outside any
    timed window) and check each certificate with a checker."""
    from repro.api import CertifyOptions, CertifySession
    from repro.cert.check import CertificateChecker
    from repro.easl.library import get_spec

    session = CertifySession(
        get_spec(config.SPEC),
        engine="tvla-relational",
        options=CertifyOptions(emit_certificate=True),
    )
    checker = CertificateChecker()
    truths: Dict[str, Truth] = {}
    for source in sources:
        if source in truths:
            continue
        report = session.certify(source)
        payload = report.certificate.payload
        truths[source] = Truth(
            report,
            oracle.certificate_hash(payload),
            oracle.canonical_bytes(payload),
            len(oracle.pretty_text(payload).encode()),
            tuple(oracle.accepted(checker.check(report.certificate))),
        )
    return truths


def judge(answers: Sequence[Answer], truths: Dict[str, Truth]) -> List[Answer]:
    judged = []
    for answer in answers:
        problems: List[str] = []
        status = (answer.payload.get("verdict") or {}).get("status")
        if answer.status != 200 or status not in ("ok", "accepted"):
            problems.append(f"HTTP {answer.status}, verdict status {status!r}")
        else:
            truth = truths[answer.request.source]
            problems += truth.problems
            problems += oracle.same_verdict(
                answer.payload, truth.report, truth.cert_hash
            )
        judged.append(dataclasses.replace(answer, problems=tuple(problems)))
    return judged


def scale(answers: Sequence[Answer], samples) -> List[Answer]:
    """Scale each answer by the daemon's calibration around it."""
    calibrator = Calibrator()
    calibrator.samples = [tuple(sample) for sample in samples]
    return [
        dataclasses.replace(answer, scale=calibrator.factor(answer.due, answer.done))
        for answer in answers
    ]


# -- metrics ---------------------------------------------------------------------


def _latencies_ms(answers: Sequence[Answer]) -> List[float]:
    return [answer.latency_ms for answer in answers]


def _service_ms(answers: Sequence[Answer]) -> List[float]:
    return [answer.service_ms for answer in answers if answer.status == 200]


def _kind(answers: Sequence[Answer], kind: str) -> List[Answer]:
    return [answer for answer in answers if answer.request.kind == kind]


def _p50(values: List[float]) -> float:
    return median(values) if values else float("nan")


def phase_span(answers: Sequence[Answer]) -> float:
    """Seconds from a phase's first scheduled send to its last answer."""
    start = min(answer.due - answer.request.at for answer in answers)
    return max(answer.done for answer in answers) - start


def high_rate_latency(run: Run) -> Dict[str, float]:
    """Latency at the high rate.  Reported beside the metrics, not as
    one: queueing behind certifications and collector pauses move these
    percentiles by more than any bound between seeds."""
    return {
        "req_p50_ms.high": median(_latencies_ms(run.high)),
        "req_p90_ms.high": percentile(_latencies_ms(run.high), 0.9),
    }


def end_to_end(run: Run, truths: Dict[str, Truth]) -> Dict[str, float]:
    """Every end-to-end metric; the batch-shaped names carry their
    serve meaning (see perfbench/README.md)."""
    answers = run.low + run.high
    good = [answer for answer in answers if not answer.problems]
    high_ok_in_limit = [
        answer
        for answer in run.high
        if not answer.problems
        and answer.latency_s * 1000 <= config.SERVE_LATENCY_LIMIT_MS
    ]
    high_done = [answer for answer in run.high if answer.status == 200]
    high_span = phase_span(run.high)
    distinct = {answer.request.source for answer in answers}
    return {
        "setup_s": median(run.setup),
        "peak_rss_mb": float(run.child["peak_rss_mb"]),
        "ok_rate": len(good) / len(answers),
        "certify_p50_ms": _p50(
            _service_ms(_kind(answers, "miss") + _kind(answers, "near_hit"))
        ),
        "check_p50_ms": _p50(_service_ms(_kind(answers, "hit"))),
        "clients_per_s": len(high_done) / high_span,
        "cert_bytes": sum(truths[source].canonical_bytes for source in distinct),
        "alarm_count": sum(len(truths[source].report.alarms) for source in distinct),
        "req_p50_ms.low": median(_latencies_ms(run.low)),
        "req_p90_ms.low": percentile(_latencies_ms(run.low), 0.9),
        "goodput_rps.high": len(high_ok_in_limit) / high_span,
        "hit_p50_ms": _p50(_latencies_ms(_kind(run.low, "hit"))),
        "near_hit_p50_ms": _p50(_latencies_ms(_kind(run.low, "near_hit"))),
        "miss_p50_ms": _p50(_latencies_ms(_kind(run.low, "miss"))),
    }


def serve_layers(run: Run, truths: Dict[str, Truth]) -> Dict[str, float]:
    """Per-layer metrics measured from responses (not from spans)."""
    answers = [a for a in run.low + run.high if a.status == 200]
    service = _service_ms(answers)
    waits = []
    for answer in answers:
        served = answer.payload.get("served") or {}
        seconds = (answer.payload.get("timings") or {}).get("seconds") or 0.0
        # certify-path stanzas measure enqueue to answer; subtract the
        # service time to get the wait in the queue
        waits.append(max(0.0, float(served.get("queued_seconds", 0.0)) - seconds) * 1000)
    distinct = {answer.request.source for answer in run.low + run.high}
    source_bytes = sum(len(source.encode()) for source in distinct)
    return {
        "serve.queue_wait_ms.p50": _p50(waits),
        "serve.queue_wait_ms.p90": percentile(waits, 0.9) if waits else 0.0,
        "serve.service_ms.p50": _p50(service),
        "serve.rejected": sum(1 for a in run.low + run.high if a.status in (429, 503)),
        "cert.bytes_per_src_byte.canonical": sum(
            truths[s].canonical_bytes for s in distinct
        ) / source_bytes,
        "cert.bytes_per_src_byte.text": sum(truths[s].text_bytes for s in distinct)
        / source_bytes,
    }
