"""Tests for the tracing layer and the bounded caches."""

import json
import pickle

import pytest

from repro.runtime.cache import LRUCache, stable_key
from repro.runtime.trace import (
    NULL_TRACER,
    CollectingTracer,
    TraceEvent,
    current_tracer,
    phase,
    use_tracer,
    validate_trace_record,
    write_events,
)


class TestPhaseTracing:
    def test_default_tracer_is_noop(self):
        assert current_tracer() is NULL_TRACER
        with phase("fixpoint", engine="fds") as meta:
            meta["iterations"] = 3  # must not raise without a tracer

    def test_collects_events_with_meta_and_duration(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            with phase("fixpoint", engine="fds") as meta:
                meta["iterations"] = 7
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event.phase == "fixpoint"
        assert event.seconds >= 0
        assert event.meta == {"engine": "fds", "iterations": 7}

    def test_tracer_restored_after_block(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_event_emitted_even_on_exception(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            with pytest.raises(RuntimeError):
                with phase("fixpoint"):
                    raise RuntimeError("budget exceeded")
        (event,) = tracer.events
        assert event.meta["error"] == "RuntimeError"

    def test_nested_phases_both_emit(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            with phase("outer"):
                with phase("inner"):
                    pass
        assert [e.phase for e in tracer.events] == ["inner", "outer"]

    def test_totals_sums_per_phase(self):
        tracer = CollectingTracer()
        tracer.emit(TraceEvent("derive", 1.0))
        tracer.emit(TraceEvent("derive", 0.5))
        tracer.emit(TraceEvent("fixpoint", 0.25))
        assert tracer.totals() == {"derive": 1.5, "fixpoint": 0.25}

    def test_events_are_picklable(self):
        event = TraceEvent("derive", 0.1, {"spec": "CMP"}, job="j1", ts=1.0)
        clone = pickle.loads(pickle.dumps(event))
        assert clone.phase == "derive" and clone.job == "j1"

    def test_jsonl_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_events(
            str(path),
            [
                TraceEvent("parse", 0.01, {"spec": "CMP"}, job="a", ts=5.0),
                TraceEvent("fixpoint", 0.2, {"iterations": 9}),
            ],
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert validate_trace_record(record) == []
        assert records[0]["job"] == "a"

    def test_validate_rejects_malformed(self):
        assert validate_trace_record([]) != []
        assert validate_trace_record({"phase": "", "seconds": 1, "ts": 0})
        assert validate_trace_record({"phase": "x", "seconds": -1, "ts": 0})
        assert validate_trace_record({"phase": "x", "seconds": 1}) != []


class TestEmitPhaseBytes:
    """The emit phase's ``bytes`` is a whole-certificate render; only a
    tracer reads it, so untraced certification must not pay for it."""

    @staticmethod
    def _count_text_calls(monkeypatch):
        from repro.cert.model import ConformanceCertificate

        calls = []
        original = ConformanceCertificate.text

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(ConformanceCertificate, "text", counting)
        return calls

    @staticmethod
    def _certify(engine="fds", **options):
        from repro.api import CertifyOptions, CertifySession
        from repro.easl.library import cmp_spec
        from repro.suite import by_name

        session = CertifySession(
            cmp_spec(),
            engine=engine,
            options=CertifyOptions(emit_certificate=True, **options),
        )
        return session.certify(by_name("fig3").source)

    @pytest.mark.parametrize("engine", ["fds", "tvla-relational"])
    def test_null_tracer_never_renders_certificate(self, monkeypatch, engine):
        calls = self._count_text_calls(monkeypatch)
        report = self._certify(engine)
        assert report.certificate is not None
        assert calls == []

    def test_partial_certificate_not_rendered_untraced(self, monkeypatch):
        calls = self._count_text_calls(monkeypatch)
        report = self._certify(
            "tvla-relational", max_steps=1, ladder=("tvla-relational",)
        )
        assert report.certificate.partial
        assert calls == []

    def test_collecting_tracer_receives_bytes(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            report = self._certify()
        (event,) = [e for e in tracer.events if e.phase == "emit"]
        assert event.meta["bytes"] == len(report.certificate.text())


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(maxsize=4, name="t")
        assert cache.get_or_create("a", lambda: 1) == 1
        assert cache.get_or_create("a", lambda: 2) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_lru_ordered(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_factory_runs_once_per_key(self):
        calls = []
        cache = LRUCache(maxsize=8)
        for _ in range(3):
            cache.get_or_create("k", lambda: calls.append(1))
        assert len(calls) == 1


class TestStableKey:
    def test_unhashable_values_do_not_raise(self):
        key = stable_key({"budget": [1, 2], "flags": {"a": True}})
        hash(key)  # must be hashable

    def test_order_insensitive_for_mappings_and_sets(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})
        assert stable_key({1, 2, 3}) == stable_key({3, 2, 1})

    def test_distinguishes_different_values(self):
        assert stable_key([1, 2]) != stable_key([2, 1])
        assert stable_key({"a": 1}) != stable_key({"a": 2})

    def test_plain_hashables_pass_through(self):
        assert stable_key("x") == "x"
        assert stable_key(7) == 7
        assert stable_key(None) is None

    def test_unhashable_non_container_degrades_to_repr(self):
        class Weird:
            __hash__ = None  # type: ignore[assignment]

            def __repr__(self):
                return "<weird>"

        key = stable_key(Weird())
        assert key == ("repr", "Weird", "<weird>")
