"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import random
import threading

import pytest

from perfbench import config, inputs, layers, oracle, run, spans, steady
from perfbench.spans import Span, SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


# -- oracles -------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig3():
    from repro.api import CertifyOptions, CertifySession
    from repro.easl.library import get_spec
    from repro.suite import by_name

    program = by_name("fig3")
    session = CertifySession(
        get_spec("cmp"), engine="auto", options=CertifyOptions(emit_certificate=True)
    )
    return program, session.certify(program.source)


def test_suite_oracle_accepts_the_right_answer_and_rejects_a_wrong_one(fig3):
    program, report = fig3
    assert oracle.expected_lines(report.alarms, program.expected_error_lines) == []
    wrong = sorted(program.expected_error_lines)[1:]
    assert oracle.expected_lines(report.alarms, wrong)
    assert oracle.expected_lines(report.alarms[1:], program.expected_error_lines)


def test_checker_oracle_rejects_tampered_certificates(fig3):
    from repro.cert.check import CertificateChecker
    from repro.cert.model import ConformanceCertificate

    _program, report = fig3
    checker = CertificateChecker()
    assert oracle.accepted(checker.check(report.certificate)) == []

    dropped = copy.deepcopy(report.certificate.payload)
    dropped["verdict"]["alarms"] = dropped["verdict"]["alarms"][1:]
    assert oracle.accepted(checker.check(ConformanceCertificate(dropped)))

    edited = copy.deepcopy(report.certificate.payload)
    edited["source"] = edited["source"] + "\n"
    assert oracle.accepted(checker.check(ConformanceCertificate(edited)))


def test_serve_oracle_rejects_a_wrong_verdict_or_certificate(fig3):
    from repro.cert.model import alarms_to_json

    _program, report = fig3
    cert_hash = oracle.certificate_hash(report.certificate.payload)
    payload = {
        "verdict": {
            "subject": report.subject,
            "engine": report.engine,
            "certified": report.certified,
            "status": "accepted",
        },
        "alarms": alarms_to_json(report.alarms),
        "certificate": {"hash": cert_hash},
    }
    assert oracle.same_verdict(payload, report, cert_hash) == []
    wrong = copy.deepcopy(payload)
    wrong["alarms"] = wrong["alarms"][1:]
    assert oracle.same_verdict(wrong, report, cert_hash)
    other = copy.deepcopy(payload)
    other["certificate"]["hash"] = "0" * 64
    assert oracle.same_verdict(other, report, cert_hash)


def test_exploration_oracle_flags_an_unalarmed_failure():
    source = inputs.heap_client((2, 2, 1, 2), random.Random(0))
    from repro.api import CertifySession
    from repro.easl.library import get_spec

    report = CertifySession(get_spec("cmp"), engine="tvla-relational").certify(source)
    assert report.alarms
    assert oracle.covers_exploration(source, report.alarms) == []
    assert oracle.covers_exploration(source, [])


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["oneshot-suite", "heap-tvla", "interproc-library"])
def test_batch_inputs_are_a_function_of_the_seed(workload):
    first = inputs.batch_inputs(workload, 1)
    assert first == inputs.batch_inputs(workload, 1)
    assert first != inputs.batch_inputs(workload, 2)


def test_serve_plan_is_a_function_of_the_seed_and_keeps_the_mix():
    plan = inputs.serve_mixed(1, 4.0)
    assert plan == inputs.serve_mixed(1, 4.0)
    assert plan != inputs.serve_mixed(2, 4.0)
    block = sum(config.MIX_BLOCK.values())
    kinds = [request.kind for request in plan.low + plan.high]
    for start in range(0, len(plan.low) - block + 1, block):
        window = kinds[start : start + block]
        assert {k: window.count(k) for k in config.MIX_BLOCK} == config.MIX_BLOCK
    # hits repeat only sources served before their phase began
    assert {r.source for r in plan.low if r.kind == "hit"} <= set(plan.base)
    assert len({r.source for r in plan.low if r.kind != "hit"}) == len(
        [r for r in plan.low if r.kind != "hit"]
    )


def test_two_seeds_print_the_same_metric_names(monkeypatch, capsys):
    monkeypatch.setattr(config, "HEAP_DESIGN", ((2, 2, 1, 2), (3, 2, 1, 2)))
    names = {entry["name"] for entry in manifest()["end_to_end"]}
    results = []
    for seed in (1, 2):
        argv = ["--workload", "heap-tvla", "--seed", str(seed), "--seconds", "0.01"]
        assert run.main(argv) == 0
        results.append(last_json_line(capsys.readouterr().out))
    assert inputs.heap_tvla(1) != inputs.heap_tvla(2)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
    assert [e["name"] for e in manifest()["per_layer"]] == list(run.metric_units(True))


def test_run_refuses_a_switched_code_path(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PACKED", "1")
    argv = ["--workload", "heap-tvla", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""


# -- spans ---------------------------------------------------------------------


def test_self_time_arithmetic_is_exact_on_a_synthetic_tree():
    tree = [
        Span(1, None, "root", 0.0, 8.0, 1),
        Span(2, 1, "a", 1.0, 3.0, 1),
        Span(3, 2, "a.leaf", 1.5, 2.0, 1),
        Span(4, 1, "b", 4.0, 7.5, 1),
        Span(5, 4, "b.x", 4.0, 5.0, 1),
        Span(6, 4, "b.y", 4.5, 6.0, 1),  # overlaps b.x: covered once
        Span(7, None, "other", 10.0, 10.25, 2),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 2.5, 2: 1.5, 3: 0.5, 4: 1.5, 5: 1.0, 6: 1.5, 7: 0.25}
    # b.x and b.y overlap, so op 1's self times sum past its wall time
    assert spans.selftime_gap(tree) == pytest.approx(0.5 / 8.0)
    nested = [s for s in tree if s.id != 6]
    assert spans.selftime_gap(nested) == 0.0
    totals = spans.layer_totals(nested)
    assert totals["root"] == (1, spans.self_times(nested)[1], 8.0)
    assert totals["b"] == (1, 2.5, 3.5)


def test_recorder_links_parents_per_thread_and_shares_op_ids():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner():
        return recorder.call("inner", lambda: 7)

    assert recorder.call("outer", inner) == 7
    recorder.call("second", lambda: None)
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].op == by_name["outer"].op
    assert by_name["second"].parent is None
    assert by_name["second"].op != by_name["outer"].op

    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(recorder.call("elsewhere", recorder.parent_name))
    )
    recorder.call("holder", lambda: (thread.start(), thread.join(timeout=10)))
    assert not thread.is_alive()
    assert seen == ["elsewhere"]
    elsewhere = [span for span in recorder.spans if span.name == "elsewhere"][0]
    assert elsewhere.parent is None


def test_install_wraps_every_lookup_site_and_uninstall_restores_it():
    import repro.api
    import repro.lang.types

    original = repro.lang.types.parse_program
    assert repro.api.parse_program is original
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        assert repro.lang.types.parse_program is not original
        assert repro.api.parse_program is repro.lang.types.parse_program
        assert repro.api.parse_program.__perfbench_original__ is original
    finally:
        recorder.uninstall()
    assert repro.lang.types.parse_program is original
    assert repro.api.parse_program is original


# -- steadiness judge ----------------------------------------------------------


def _result(cert_bytes, latency):
    return {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {
            "cert_bytes": {"value": cert_bytes, "unit": "bytes"},
            "certify_p50_ms": {"value": latency, "unit": "ms"},
        },
    }


def test_steadiness_judge_flags_drift_and_spread():
    bounds = {"certify_p50_ms": 0.2, "cert_bytes": 0.1}
    steadyish = {1: [_result(10, 100), _result(10, 101)], 2: [_result(12, 99)]}
    assert steady.judge("heap-tvla", steadyish, bounds) == []
    drifting = {1: [_result(10, 100), _result(11, 100)]}
    assert any("differs" in p for p in steady.judge("heap-tvla", drifting, bounds))
    noisy = {s: [_result(10, v)] for s, v in enumerate((50, 100, 150, 200))}
    assert any("spread" in p for p in steady.judge("heap-tvla", noisy, bounds))
