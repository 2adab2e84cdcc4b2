"""The ``serve-mixed`` daemon process.

Run as ``python3 perfbench/serve_child.py STORE WORKERS TRACE OUT CPU``:
pinned to CPU, it starts a :class:`repro.serve.http.ServeDaemon` (thread workers, on-disk
store at STORE, ephemeral port) after prewarming the service, prints
``READY <port>``, serves until SIGTERM, then writes its peak RSS, its
speed calibration (see :mod:`perfbench.calibrate`) and, when TRACE is
1, its spans and counters to OUT (JSON).  With TRACE 1 the span
wrappers are installed before the daemon serves.
"""

import asyncio
import json
import os
import signal
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: how often the daemon process times the calibration loop (seconds)
CALIBRATION_PERIOD_S = 0.25


async def serve(store: str, workers: int) -> None:
    from repro.serve.http import ServeDaemon
    from repro.serve.service import ServeConfig

    from perfbench import config

    daemon = ServeDaemon(
        config=ServeConfig(
            host="127.0.0.1",
            port=0,
            specs=(config.SPEC,),
            workers=workers,
            worker_mode="thread",
            store_path=store,
        )
    )
    daemon.service.prewarm()
    await daemon.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"READY {daemon.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await daemon.stop()


def calibrate_until(calibrator, stop: threading.Event) -> None:
    while not stop.wait(CALIBRATION_PERIOD_S):
        calibrator.sample()


def main(store: str, workers: int, trace: bool, out: str, cpu: int) -> None:
    from perfbench.calibrate import Calibrator, pin
    from perfbench.stats import peak_rss_mb

    # the worker threads share one interpreter lock, so one CPU costs
    # them little, and the calibration loop then runs where they do
    pin(cpu)
    recorder = None
    if trace:
        from perfbench import layers
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)
    # loops timestamped on the clock the load generator times requests
    # with (both processes read the same CLOCK_MONOTONIC)
    calibrator = Calibrator(clock=time.monotonic, loop_clock=time.thread_time)
    stop = threading.Event()
    sampler = threading.Thread(target=calibrate_until, args=(calibrator, stop))
    sampler.start()
    try:
        asyncio.run(serve(store, workers))
    finally:
        stop.set()
        sampler.join()
    result = {"peak_rss_mb": peak_rss_mb(), "calibration": calibrator.samples}
    if recorder is not None:
        recorder.uninstall()
        result["spans"] = [span.__dict__ for span in recorder.spans]
        result["counters"] = recorder.counters
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4], int(sys.argv[5]))
