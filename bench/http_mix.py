"""``http-mix``: a closed loop of two keep-alive clients against ``semint serve``.

The server is a child process over store M. Each client thread owns one
plain ``http.client`` connection with the library's default socket options
and sends its next request only after reading the previous reply, because
facade callers are scripts that wait for each reply. Requests are dealt from
shuffled decks of 100 with fixed route counts, so every run has the same mix.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import threading
import time
from pathlib import Path
from urllib.parse import quote, urlencode

import check
import gen
from common import (
    SETUPS,
    Outcome,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    python_cmd,
    read_line,
    stop,
)
from semint import store

#: route -> requests per deck of 100
MIX = {
    "interop": 40,
    "transform": 15,
    "find": 15,
    "mappings": 10,
    "assessment": 10,
    "operations": 5,
    "term": 2,
    "schema": 2,
    # the three thresholds miss the one-snapshot cache
    "interop_min_confidence": 1,
}
#: the window runs until 1000 requests, so the p90 has 100 samples above it
MIN_SAMPLES = {"M": 1000, "tiny": 50}
#: per part of the window, so a stalled server cannot hold a run past its deadline
HARD_SECONDS = 40.0


def request_pool(model: gen.Model, seed: int) -> dict[str, list[check.Request]]:
    rng = random.Random(f"http-{seed}")
    terms = model.all_terms()

    def get(route: str, path: str, **params) -> check.Request:
        query = f"?{urlencode(params)}" if params else ""
        return check.Request(route, "GET", path + query)

    pool: dict[str, list[check.Request]] = {route: [] for route in MIX}
    for _ in range(200):
        a, b = gen.term_pair(rng, model)
        pool["interop"].append(get("interop", "/interop", a=a, b=b))
    # thresholds alternate, so every run deals them in equal numbers
    for _ in range(2):
        for threshold in gen.MIN_CONFIDENCE_THRESHOLDS:
            a, b = gen.term_pair(rng, model)
            pool["interop_min_confidence"].append(
                get("interop_min_confidence", "/interop", a=a, b=b, min_confidence=threshold)
            )
    for _ in range(60):
        cw_id, source, _target = rng.choice(model.crosswalks)
        body = {"instance": gen.instance_doc(rng, model, model.schema(source)), "crosswalk": cw_id}
        pool["transform"].append(
            check.Request("transform", "POST", "/transform", json.dumps(body).encode("utf-8"))
        )
    for _ in range(60):
        pool["find"].append(get("find", "/find", term=rng.choice(model.fdo_terms), expand="referential"))
        pool["mappings"].append(get("mappings", "/mappings", subject=rng.choice(terms)))
    for fdo_id in rng.sample(model.fdo_ids, min(50, len(model.fdo_ids))):
        pool["assessment"].append(get("assessment", f"/fdos/{quote(fdo_id, safe='')}/assessment"))
    for info in model.schemas:
        pool["operations"].append(get("operations", "/operations", schema=info.curie, reachable="true"))
        pool["schema"].append(get("schema", f"/schemas/{quote(info.curie, safe='')}"))
    for term in rng.sample(terms, 30):
        pool["term"].append(get("term", f"/terms/{quote(term, safe='')}"))
    return pool


class Deck:
    """Endless request indices: shuffled decks with the ``MIX`` route counts.

    Each route deals its pool's requests in turn, so the share of every
    request, like that of each ``min_confidence`` threshold, is the same in
    every run.
    """

    def __init__(self, pool: dict[str, list[check.Request]], seed: int):
        self.requests: list[check.Request] = []
        self._by_route: dict[str, list[int]] = {}
        for route, reqs in pool.items():
            self._by_route[route] = list(range(len(self.requests), len(self.requests) + len(reqs)))
            self.requests.extend(reqs)
        self._turn = {route: 0 for route in pool}
        self._rng = random.Random(f"deck-{seed}")
        self._hand: list[int] = []
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            if not self._hand:
                hand = [self._deal(route) for route, count in MIX.items() for _ in range(count)]
                self._rng.shuffle(hand)
                self._hand = hand[::-1]
            return self._hand.pop()

    def _deal(self, route: str) -> int:
        indices = self._by_route[route]
        turn = self._turn[route]
        self._turn[route] = turn + 1
        return indices[turn % len(indices)]


def _send(conn: http.client.HTTPConnection, request: check.Request) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if request.body is not None else {}
    conn.request(request.method, request.path, body=request.body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _start_server(store_dir: Path, log: Path) -> tuple[subprocess.Popen, int]:
    cmd = python_cmd("-u", "-m", "semint.cli", "--store", str(store_dir), "serve", "--bind", "127.0.0.1:0")
    with log.open("wb") as err:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), text=True
        )
    line = read_line(proc, 120.0)
    if not line.startswith("serving on http://"):
        stop(proc)
        raise RuntimeError(f"server did not start: {line!r}; see {log}")
    return proc, int(line.strip().rsplit(":", 1)[1])


def _setup(work: Path, sizes: gen.Sizes, seed: int, k: int, pool=None):
    """Generate store M, start a server over it and warm it up."""
    t0 = time.perf_counter()
    store_dir = work / f"store-{k}"
    model = gen.write_store(sizes, seed, store_dir)
    proc, port = _start_server(store_dir, work / f"server-{k}.log")
    pool = pool or request_pool(model, seed)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for reqs in pool.values():
            status, _ = _send(conn, reqs[0])
            if status != 200:
                raise RuntimeError(f"warm-up {reqs[0].path} gave {status}")
    except BaseException:
        stop(proc)
        raise
    finally:
        conn.close()
    return time.perf_counter() - t0, model, pool, store_dir, proc, port


def _drive(port: int, deck: Deck, min_seconds: float, min_samples: int, max_requests: int | None):
    """Closed loop over two connections; returns records and transport errors."""
    records: list[tuple[int, float, float, int, bytes]] = []
    bodies: dict[bytes, bytes] = {}
    errors: list[str] = []
    lock = threading.Lock()
    started = time.perf_counter()
    state = {"issued": 0}

    def more() -> bool:
        with lock:
            if max_requests is not None:
                if state["issued"] >= max_requests:
                    return False
            else:
                elapsed = time.perf_counter() - started
                if elapsed >= HARD_SECONDS or (elapsed >= min_seconds and len(records) >= min_samples):
                    return False
            state["issued"] += 1
            return True

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while more():
                index = deck.next()
                t0 = time.perf_counter()
                try:
                    status, body = _send(conn, deck.requests[index])
                except (OSError, http.client.HTTPException) as exc:
                    errors.append(f"request {index}: {exc!r}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    continue
                t1 = time.perf_counter()
                with lock:
                    records.append((index, t0, t1, status, bodies.setdefault(body, body)))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, errors


def run(work: Path, sizes: gen.Sizes, seed: int, seconds: float, trace: bool, tracer=None) -> Outcome:
    """Set-ups and thirds of the window alternate, each third on a new server,
    so slow spells of the machine and of one process spread over the run."""
    parts = 1 if trace else SETUPS
    setups: list[float] = []
    digests = set()
    records: list = []
    errors: list[str] = []
    window = 0.0
    peaks: list[float] = []
    pool = deck = None
    for k in range(parts):
        elapsed, model, pool, store_dir, proc, port = _setup(work, sizes, seed, k, pool)
        try:
            setups.append(elapsed)
            digests.add(gen.store_digest(store_dir))
            deck = deck or Deck(pool, seed)
            if trace:
                part, part_errors = _drive(port, deck, 0.0, 0, MIN_SAMPLES[sizes.name])
            else:
                floor = -(-MIN_SAMPLES[sizes.name] // parts)
                part, part_errors = _drive(port, deck, seconds / parts, floor, None)
            peaks.append(peak_rss_mb(proc.pid))
        finally:
            stop(proc)
        records += part
        errors += part_errors
        if part:
            window += max(r[2] for r in part) - min(r[1] for r in part)

    notes = [f"store {sizes.name}: {model.counts} digest={sorted(digests)[0][:16]}"]
    failed = len(errors) + (len(digests) - 1)
    attempted = len(records) + len(errors)
    if trace:
        return _traced(store_dir, deck, records, tracer, notes, attempted, failed)

    engine = store.load_store(store_dir)
    expected: dict[int, tuple[int, bytes]] = {}
    for index in sorted({r[0] for r in records}):
        expected[index] = check.expected_http(engine, deck.requests[index])
    bad = check.http_mismatches(expected, [(r[0], r[3], r[4]) for r in records])
    notes.extend(bad[:3])
    latencies = [(r[2] - r[1]) * 1000.0 for r in records]
    notes.append(f"http-mix: {len(records)} requests in {window:.2f}s")
    return Outcome(
        metrics={
            "ops_per_s": len(records) / window,
            "p50_ms": median(latencies),
            # not the p99: that sits on the uncached closure builds, whose time the
            # machine's speed drift and the server's GIL contention both scale
            "slow_ms": percentile(latencies, 0.90),
            "setup_s": median(setups),
            # a rare overlap of two uncached closure builds lifts one server's peak
            "peak_rss_mb": median(peaks),
        },
        attempted=attempted,
        failed=failed + len(bad),
        notes=notes,
    )


def _traced(store_dir: Path, deck: Deck, records, tracer, notes, attempted: int, failed: int) -> Outcome:
    """Replay the recorded requests in-process, untraced then traced.

    The untraced replay gives each request's in-process time (engine calls
    plus render); the client latency minus it is the service gap. The traced
    replay gives the per-layer spans and the tracing overhead.
    """
    sequence = [r[0] for r in sorted(records, key=lambda r: r[1])]
    engine = store.load_store(store_dir)
    engine.terminology.compute_closure()
    inproc: dict[int, float] = {}
    t0 = time.perf_counter()
    for position, index in enumerate(sequence):
        s = time.perf_counter()
        check.expected_http(engine, deck.requests[index])
        inproc[position] = time.perf_counter() - s
    untraced = time.perf_counter() - t0

    del engine
    with tracer.installed():
        with tracer.op("http setup"):
            engine = store.load_store(store_dir)
            engine.terminology.compute_closure()
        expected: dict[int, tuple[int, bytes]] = {}
        t0 = time.perf_counter()
        for index in sequence:
            with tracer.op(f"http {deck.requests[index].route}"):
                expected[index] = check.expected_http(engine, deck.requests[index])
        traced = time.perf_counter() - t0

    bad = check.http_mismatches(expected, [(r[0], r[3], r[4]) for r in records])
    notes.extend(bad[:3])
    ordered = sorted(records, key=lambda r: r[1])
    gaps = [(r[2] - r[1] - inproc[i]) * 1000.0 for i, r in enumerate(ordered)]
    return Outcome(
        metrics={
            "service.gap_p50_ms": median(gaps),
            "service.gap_p99_ms": percentile(gaps, 0.99),
            "trace.overhead_ratio": traced / untraced,
        },
        attempted=attempted,
        failed=failed + len(bad),
        notes=notes,
    )
