"""Correctness oracles: each returns a list of problems (empty = ok)."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence

from perfbench import config


def canonical_bytes(payload: Dict[str, object]) -> int:
    """Size of the canonical serialization (the hashing form)."""
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def pretty_text(payload: Dict[str, object]) -> str:
    """The pretty serialization (what ``--emit-cert`` writes and the
    store hashes)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def certificate_hash(payload: Dict[str, object]) -> str:
    """The store's content address of a certificate payload."""
    return hashlib.sha256(pretty_text(payload).encode()).hexdigest()


def expected_lines(alarms: Iterable, expected: Sequence[int]) -> List[str]:
    """Suite oracle: the alarm lines equal the hand-written answer."""
    got = sorted({alarm.line for alarm in alarms})
    want = sorted(expected)
    if got == want:
        return []
    return [f"alarm lines {got} != expected {want}"]


def accepted(result) -> List[str]:
    """Checker oracle: the certificate was accepted."""
    if result.ok:
        return []
    return [f"checker rejected the certificate: {result.kind} {result.detail}"]


def covers_exploration(source: str, alarms: Iterable) -> List[str]:
    """Soundness oracle: every call site that bounded concrete
    exploration sees fail carries an alarm."""
    from repro.easl.library import get_spec
    from repro.lang.types import parse_program
    from repro.runtime.interp import ExplorationBudget, explore

    program = parse_program(source, get_spec(config.SPEC))
    truth = explore(program, ExplorationBudget(max_paths=config.HEAP_ORACLE_PATHS))
    missed = truth.failing_sites() - {alarm.site_id for alarm in alarms}
    if not missed:
        return []
    return [f"exploration finds failing sites {sorted(missed)} without an alarm"]


def verdict_signature(
    subject: object, engine: object, certified: object, alarms: object
) -> str:
    """The canonical verdict text compared between serve and a plain
    session: the analysis claims, without transport bookkeeping."""
    return json.dumps(
        {
            "subject": subject,
            "engine": engine,
            "certified": certified,
            "alarms": alarms,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def report_signature(report) -> str:
    from repro.cert.model import alarms_to_json

    return verdict_signature(
        report.subject, report.engine, report.certified, alarms_to_json(report.alarms)
    )


def response_signature(payload: Dict[str, object]) -> str:
    verdict = payload.get("verdict") or {}
    return verdict_signature(
        verdict.get("subject"),
        verdict.get("engine"),
        verdict.get("certified"),
        payload.get("alarms", []),
    )


def same_verdict(
    payload: Dict[str, object], report, cert_hash: Optional[str]
) -> List[str]:
    """Serve oracle: a served verdict (and certificate) is byte-identical
    to the plain session's for the same source."""
    problems = []
    if response_signature(payload) != report_signature(report):
        problems.append("served verdict differs from a plain session's")
    served = (payload.get("certificate") or {}).get("hash")
    if served != cert_hash:
        problems.append(f"served certificate {served} != plain session's {cert_hash}")
    return problems
