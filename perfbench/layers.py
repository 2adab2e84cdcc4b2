"""Which public ``repro`` functions the traced run wraps, and the
counters read off their results.

Span names are the per-layer metric prefixes of ``BENCHMARK.json``;
:func:`layer_metrics` turns a recorder's spans and counters into those
metrics.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable

from perfbench.spans import Span, SpanRecorder, layer_totals

#: per-layer metrics that are self times of a span name
SELF_TIME_LAYERS = {
    "lang.parse.self_s": "lang.parse",
    "lang.inline.self_s": "lang.inline",
    "certifier.transform.self_s": "certifier.transform",
    "tvp.specialize.self_s": "tvp.specialize",
    "derivation.derive.self_s": "derivation.derive",
    "tvla.run.self_s": "tvla.run",
    "interproc.certify.self_s": "interproc.certify",
    "cert.emit.self_s": "cert.emit",
    "cert.check.self_s": "cert.check",
    "incr.recertify.self_s": "incr.recertify",
}

#: per-layer metrics that are inclusive times of a span name
INCLUSIVE_LAYERS = {
    "store.summary.get_s": "store.summary.get",
    "store.summary.put_s": "store.summary.put",
    "cert.model.text_s": "cert.model.text",
    "store.cas.put_s": "store.cas.put",
    "store.cas.get_s": "store.cas.get",
    "store.io.write_s": "store.io.write",
}

CALL_COUNTS = {
    "lang.parse.calls": "lang.parse",
    "derivation.derive.calls": "derivation.derive",
}

#: counters recorded by the ``after`` hooks below
COUNTERS = (
    "tvla.iterations",
    "tvla.max_structures",
    "tvla.transfer_hits",
    "tvla.transfer_misses",
    "interproc.contexts",
    "interproc.edge_visits",
    "interproc.summary_updates",
    "store.summary.loaded",
    "store.summary.stored",
    "store.summary.rejects",
    "cert.check.edges",
    "cert.check.nodes",
    "incr.fallbacks",
    "store.cas.hits",
    "store.cas.misses",
    "store.io.bytes_written",
    "store.io.fsyncs",
    "py.gc_s",
    "py.gc_gen2",
)

#: child spans of ``cert.check`` that make up the checker's front end
#: (derive runs inside ``session.artifacts``)
CHECK_FRONT_END = ("lang.parse", "session.artifacts")


def _tvla_after(rec: SpanRecorder, args, result, outer) -> None:
    rec.count("tvla.iterations", result.iterations)
    rec.peak("tvla.max_structures", result.max_structures)
    rec.count("tvla.transfer_hits", result.transfer_hits)
    rec.count("tvla.transfer_misses", result.transfer_misses)


def _interproc_after(rec: SpanRecorder, args, report, outer) -> None:
    stats = report.stats
    rec.count("interproc.contexts", stats.get("contexts", 0))
    rec.count("interproc.edge_visits", stats.get("edge_visits", 0))
    rec.count("interproc.summary_updates", stats.get("summary_updates", 0))
    rec.count("store.summary.loaded", stats.get("summaries_loaded", 0))
    rec.count("store.summary.stored", stats.get("summaries_stored", 0))
    rec.count("store.summary.rejects", stats.get("summary_rejects", 0))


def _check_after(rec: SpanRecorder, args, result, outer) -> None:
    rec.count("cert.check.edges", result.edges)
    rec.count("cert.check.nodes", result.nodes)


def _recertify_after(rec: SpanRecorder, args, report, outer) -> None:
    if report is None:
        rec.count("incr.fallbacks")


def _cas_get_after(rec: SpanRecorder, args, cert, outer) -> None:
    if outer == "store.cas.get":
        return  # nested lookup inside another store read
    rec.count("store.cas.misses" if cert is None else "store.cas.hits")


def _write_after(rec: SpanRecorder, args, result, outer) -> None:
    io, text = args[0], args[2]
    rec.count("store.io.bytes_written", len(text.encode("utf-8")))
    if io.fsync:
        rec.count("store.io.fsyncs")


def _append_after(rec: SpanRecorder, args, result, outer) -> None:
    io, line = args[0], args[2]
    rec.count("store.io.bytes_written", len(line.encode("utf-8")) + 1)
    if io.fsync:
        rec.count("store.io.fsyncs")


def _fsync_dir_after(rec: SpanRecorder, args, result, outer) -> None:
    if args[0].fsync:
        rec.count("store.io.fsyncs")


def install(rec: SpanRecorder) -> None:
    """Wrap every measured layer.  Every module that imports a wrapped
    function by name is loaded first, so the wrapper reaches it."""
    import repro.api
    import repro.cert.emit
    import repro.cert.model
    import repro.incr
    import repro.incr.core
    import repro.lang.inline
    import repro.lang.types
    import repro.tvp.specialize
    from repro.api import CertifySession
    from repro.cert.check import CertificateChecker
    from repro.cert.model import ConformanceCertificate
    from repro.certifier.interproc import InterproceduralCertifier
    from repro.certifier.transform import ClientTransformer
    from repro.serve.service import CertificationService
    from repro.store.cas import CertificateStore
    from repro.store.io import StoreIO
    from repro.store.summary import SummaryStore
    from repro.tvla.engine import TvlaEngine

    rec.patch_function(repro.lang.types, "parse_program", "lang.parse")
    rec.patch_function(repro.lang.inline, "inline_program", "lang.inline")
    rec.patch_method(ClientTransformer, "transform_inlined", "certifier.transform")
    rec.patch_function(
        repro.tvp.specialize, "specialized_translation", "tvp.specialize"
    )
    # the package re-exports ``derive`` under the submodule's own name
    derive_module = importlib.import_module("repro.derivation.derive")
    rec.patch_function(derive_module, "derive", "derivation.derive")
    rec.patch_method(CertifySession, "artifacts", "session.artifacts")
    rec.patch_method(TvlaEngine, "run", "tvla.run", _tvla_after)
    rec.patch_method(
        InterproceduralCertifier, "certify", "interproc.certify", _interproc_after
    )
    rec.patch_method(SummaryStore, "get", "store.summary.get")
    rec.patch_method(SummaryStore, "put", "store.summary.put")
    rec.patch_function(repro.cert.emit, "build_certificate", "cert.emit")
    rec.patch_method(ConformanceCertificate, "text", "cert.model.text")
    rec.patch_function(repro.cert.model, "canonical_text", "cert.model.text")
    rec.patch_method(CertificateChecker, "check", "cert.check", _check_after)
    rec.patch_function(
        repro.incr.core, "recertify", "incr.recertify", _recertify_after
    )
    rec.patch_method(CertificateStore, "put", "store.cas.put")
    for name in ("get", "get_by_hash", "get_lineage"):
        rec.patch_method(CertificateStore, name, "store.cas.get", _cas_get_after)
    rec.patch_method(StoreIO, "atomic_write_text", "store.io.write", _write_after)
    rec.patch_method(StoreIO, "append_line", "store.io.write", _append_after)
    rec.patch_method(StoreIO, "fsync_dir", "store.io.fsync_dir", _fsync_dir_after)
    rec.patch_method(CertificationService, "_process", "serve.request")
    rec.watch_gc()


def layer_metrics(spans: Iterable[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Every span- and counter-derived per-layer metric."""
    spans = list(spans)
    totals = layer_totals(spans)
    metrics: Dict[str, float] = {}
    for metric, name in SELF_TIME_LAYERS.items():
        metrics[metric] = totals.get(name, (0, 0.0, 0.0))[1]
    for metric, name in INCLUSIVE_LAYERS.items():
        metrics[metric] = totals.get(name, (0, 0.0, 0.0))[2]
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = totals.get(name, (0, 0.0, 0.0))[0]
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    lookups = metrics["tvla.transfer_hits"] + metrics["tvla.transfer_misses"]
    metrics["tvla.memo_hit_ratio"] = (
        metrics["tvla.transfer_hits"] / lookups if lookups else 0.0
    )
    check_ids = {span.id for span in spans if span.name == "cert.check"}
    metrics["cert.check.front_s"] = sum(
        span.duration
        for span in spans
        if span.parent in check_ids and span.name in CHECK_FRONT_END
    )
    return metrics
