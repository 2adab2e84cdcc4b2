"""Seeded input generation: every input of every workload, and the
whole serve schedule, is a pure function of the workload seed and is
built before any timing starts."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from perfbench import config


@dataclass(frozen=True)
class Client:
    """One batch input: a name, its Jlite source, and (for the suite)
    the hand-written expected error lines."""

    name: str
    source: str
    expected_lines: Optional[Tuple[int, ...]] = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def oneshot_suite(seed: int) -> List[Client]:
    """The 29 suite programs, in a seeded order."""
    from repro import suite

    clients = [
        Client(p.name, p.source, tuple(sorted(p.expected_error_lines)))
        for p in suite.all_programs()
    ]
    _rng("oneshot-suite", seed).shuffle(clients)
    return clients


def heap_client(params: Tuple[int, int, int, int], rng: random.Random) -> str:
    """``make_heap_client(*params)`` with its sets and holder fields
    renamed by ``rng``.

    Renaming keeps every name's length, so the client's certificate
    size and alarms do not depend on the draw, while its text, its
    predicate names and their order do."""
    from repro.bench.synthetic import make_heap_client

    sets, fields = params[0], params[1]
    source = make_heap_client(*params)
    letters = "abcdefghijklmnopqrstuvwxyz"
    set_names = rng.sample([f"q{c}" for c in letters], sets)
    field_names = rng.sample([f"f{c}{d}" for c in letters for d in range(10)], fields)
    renames = {f"v{i}": name for i, name in enumerate(set_names)}
    renames.update({f"it{k}": name for k, name in enumerate(field_names)})
    return re.sub(r"\b(v\d+|it\d+)\b", lambda m: renames[m.group(1)], source)


def heap_tvla(seed: int) -> List[Client]:
    """The fixed ``config.HEAP_DESIGN``, in its fixed order, with seeded
    identifier names.

    The order stays fixed because a client's cost depends on how much
    the warm session already holds (its collector pauses grow with it):
    in a seeded order the middle client's certify time moved by 2x
    between seeds."""
    rng = _rng("heap-tvla", seed)
    return [
        Client("heap_{}x{}x{}x{}".format(*params), heap_client(params, rng))
        for params in config.HEAP_DESIGN
    ]


def interproc_library(seed: int) -> List[Client]:
    from repro.bench.synthetic import make_shared_library

    rng = _rng("interproc-library", seed)
    client_seeds = rng.sample(range(1 << 30), config.LIBRARY_CLIENTS)
    return [
        Client(
            f"library_client{client_seed}",
            make_shared_library(
                config.LIBRARY_STATEMENTS,
                seed=config.LIBRARY_SEED,
                client_seed=client_seed,
            ),
        )
        for client_seed in client_seeds
    ]


def warmup_source(workload: str) -> str:
    """A small client a warm workload certifies while it sets up.  The
    library client uses another library, so the summary DB holds none
    of the measured clients' summaries when timing starts."""
    from repro.bench.synthetic import make_heap_client, make_shared_library

    if workload == "heap-tvla":
        return make_heap_client(2, 2, 1, 2)
    return make_shared_library(200, seed=config.LIBRARY_SEED + 1)


# -- serve-mixed ----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One scheduled request: send offset (s, from phase start), the
    path it is meant to take, and the source it certifies."""

    at: float
    kind: str  # "hit" | "near_hit" | "miss"
    source: str


@dataclass(frozen=True)
class ServePlan:
    base: Tuple[str, ...]
    low: Tuple[Request, ...]
    high: Tuple[Request, ...]
    low_seconds: float
    high_seconds: float


def _serve_source(rng: random.Random) -> str:
    from repro.bench.synthetic import make_client

    sets, iters, ops = config.SERVE_CLIENT_SHAPE
    return make_client(num_sets=sets, num_iters=iters, num_ops=ops, rng=rng)


def _parses(source: str) -> bool:
    from repro.easl.library import get_spec
    from repro.lang.types import parse_program

    try:
        parse_program(source, get_spec(config.SPEC))
    except Exception:
        return False
    return True


def _phase(
    rng: random.Random, rate: float, seconds: float, served: List[str]
) -> Tuple[Request, ...]:
    """An open-loop schedule at ``rate`` requests/s over ``seconds``;
    the mix is exact in every block of requests, shuffled within it.

    Hits repeat the base sources, served before timing starts, so every
    hit is a hit however the daemon keeps up, and the share of hits
    that the daemon's checker sees for the first time stays alike
    across seeds.  Near-hits edit any source served before the phase
    began."""
    from repro.fuzz.edits import apply_edit

    base = served[: config.SERVE_BASE_SOURCES]
    pool = list(served)
    seen = set(served)
    count = max(1, round(rate * seconds))
    kinds: List[str] = []
    while len(kinds) < count:
        block = [kind for kind, n in config.MIX_BLOCK.items() for _ in range(n)]
        rng.shuffle(block)
        kinds += block
    requests = []
    for index, kind in enumerate(kinds[:count]):
        if kind == "hit":
            source = rng.choice(base)
        elif kind == "near_hit":
            source = rng.choice(pool)
            while source in seen or not _parses(source):
                source, _edit = apply_edit(source, rng)
        else:
            source = _serve_source(rng)
            while source in seen:
                source = _serve_source(rng)
            seen.add(source)
            served.append(source)
        if kind == "near_hit":
            seen.add(source)
            served.append(source)
        requests.append(Request(index / rate, kind, source))
    return tuple(requests)


def serve_mixed(seed: int, seconds: float) -> ServePlan:
    rng = _rng("serve-mixed", seed)
    base: List[str] = []
    while len(base) < config.SERVE_BASE_SOURCES:
        source = _serve_source(rng)
        if source not in base:
            base.append(source)
    served = list(base)
    low_seconds = seconds * config.SERVE_LOW_LENGTH
    high_seconds = seconds * config.SERVE_HIGH_LENGTH
    low = _phase(rng, config.SERVE_RATE_LOW, low_seconds, served)
    high = _phase(rng, config.SERVE_RATE_HIGH, high_seconds, served)
    return ServePlan(tuple(base), low, high, low_seconds, high_seconds)


def batch_inputs(workload: str, seed: int) -> List[Client]:
    return {
        "oneshot-suite": oneshot_suite,
        "heap-tvla": heap_tvla,
        "interproc-library": interproc_library,
    }[workload](seed)
