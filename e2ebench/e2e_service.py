"""Workload ``service-mixed``: closed-loop client traffic against the
resident daemon (``repro-cli serve --port 0``, default ``--workers 1``).

Two clients, each a :class:`repro.service.ServiceClient` on its own
thread, send their requests one at a time.  Requests are built from
seeded ``generate_networks`` nets across the bench tightness levels:
about 70% ``analyse`` (fcfs/dm/edf in turn), 15% ``admission`` (a
renamed, rescaled copy of an existing stream) and 15% ``ttr`` sweeps of
16 points.  Each distinct request is sent again twice by the same
client after its first reply — once verbatim, once re-spelled (shuffled
key order, defaults written out) — so misses and hits repeat exactly
and the value-keyed cache is exercised.  No request carries a ``mode``
override, as normal clients do not set one.

Every reply must be byte-equal to the offline
:func:`repro.api.execute_request_doc` of the request that was sent.

End-to-end numbers come from the daemon subprocess only.  The traced
run serves the same stream from an in-process
:class:`repro.service.AnalysisServer` on a background loop with the
tracer's wrappers installed, alternating with untraced in-process passes
to measure the tracing overhead.
"""

from __future__ import annotations

import asyncio
import copy
import os
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from e2e_common import (
    ROOT,
    Context,
    Mismatch,
    Outcome,
    canonical,
    child_env,
    median,
    metric,
    percentile,
    run_passes,
    same_counters,
    vm_hwm_mb,
)
from e2e_trace import NAME, REQUEST, ContextThreadPool, Tracer, median_ms

CLIENTS = 2
#: distinct requests per client, by scale
DISTINCT = {"full": 200, "tiny": 10}
#: a request is repeated verbatim LAG sends later, re-spelled 2·LAG later
LAG = 4
SWEEP_POINTS = 16
#: positions, within each block of 20 requests, of the non-analyse ops
ADMISSION_AT = (3, 10, 17)
SWEEP_AT = (6, 13, 19)
POLICIES = ("fcfs", "dm", "edf")
CLIENT_THREAD = "e2e-client"


# ------------------------------------------------------------- requests

def _networks(seed: int, n: int):
    from repro.perf.batch import generate_networks
    from repro.perf.bench import TIGHTNESS_CYCLE

    per_level = -(-n // len(TIGHTNESS_CYCLE))
    nets = []
    for li, x in enumerate(TIGHTNESS_CYCLE):
        nets.extend(generate_networks(
            per_level, seed=f"e2e-service:{seed}:{li}", d_over_t=(x * 0.6, x)))
    Random(f"e2e-service-order:{seed}").shuffle(nets)
    return nets[:n]


def _request_doc(i: int, net) -> Dict[str, Any]:
    from repro.profibus import network_to_dict
    from repro.schemas import API_SCHEMA

    doc: Dict[str, Any] = {"schema": API_SCHEMA,
                           "network": network_to_dict(net)}
    slot = i % 20
    if slot in SWEEP_AT:
        ring, top = net.ring_latency(), 4 * net.ttr
        doc.update(op="sweep", sweep_param="ttr", sweep_values=[
            ring + (top - ring) * k // (SWEEP_POINTS - 1)
            for k in range(SWEEP_POINTS)])
    elif slot in ADMISSION_AT:
        masters = doc["network"]["masters"]
        master = masters[i % len(masters)]
        stream = dict(copy.deepcopy(master["streams"][0]), name=f"adm{i}")
        stream["T"] = stream["T"] * 3 // 2
        stream["D"] = stream["D"] * 3 // 2
        doc.update(op="admission", policy=POLICIES[i % 3],
                   admission_master=master["address"],
                   admission_stream=stream)
    else:
        doc.update(op="analyse", policy=POLICIES[i % 3])
    return doc


def _shuffled(obj: Any, rng: Random) -> Any:
    """Same value, keys in a random order (lists keep their order — it
    is meaningful)."""
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng) for k, v in items}
    if isinstance(obj, list):
        return [_shuffled(v, rng) for v in obj]
    return obj


def _respell(doc: Dict[str, Any], rng: Random) -> Dict[str, Any]:
    """A value-equal spelling of ``doc``: every default written out and
    every key order shuffled."""
    doc = copy.deepcopy(doc)
    for master in doc["network"]["masters"]:
        for stream in master["streams"]:
            stream.setdefault("J", 0)
            stream.setdefault("high_priority", True)
            if "cycle" in stream:
                stream["cycle"].setdefault("short_ack", False)
                stream["cycle"].setdefault("max_retry", None)
    doc.setdefault("refined", False)
    doc.setdefault("stats_after", 0)
    if doc["op"] == "sweep":
        doc.setdefault("policy", "dm")
        doc.setdefault("policies", list(POLICIES))
    return _shuffled(doc, rng)


def _schedule(n: int) -> List[Tuple[int, str]]:
    """Send order of one client: ``(distinct index, spelling)``; every
    repeat follows its original by at least LAG sends."""
    seq = []
    for i in range(n + 2 * LAG):
        if i < n:
            seq.append((i, "orig"))
        if LAG <= i < n + LAG:
            seq.append((i - LAG, "repeat"))
        if i >= 2 * LAG:
            seq.append((i - 2 * LAG, "respelled"))
    return seq


#: one planned send: (request doc, expected result bytes, op)
Send = Tuple[Dict[str, Any], bytes, str]


def build_plans(seed: int, scale: str) -> List[List[Send]]:
    """Per client, the sends with the offline answer each must match.
    The offline answers are computed here, before any timing."""
    from repro import api
    from repro.profibus.serialization import network_from_dict

    n = DISTINCT[scale]
    nets = _networks(seed, CLIENTS * n)
    rng = Random(f"e2e-service-respell:{seed}")
    keys = set()
    plans = []
    for c in range(CLIENTS):
        originals, respelled, expected = [], [], []
        for i in range(n):
            doc = _request_doc(c * n + i, nets[c * n + i])
            twin = _respell(doc, rng)
            want = canonical(api.execute_request_doc(doc))
            if canonical(api.execute_request_doc(twin)) != want:
                raise Mismatch(f"offline answer of re-spelled request "
                               f"{c}/{i} differs from the original's")
            fp = network_from_dict(doc["network"]).fingerprint()
            keys.add(api.AnalysisRequest.from_dict(doc).cache_key(fp))
            originals.append(doc)
            respelled.append(twin)
            expected.append(want)
        plan = []
        for i, spelling in _schedule(n):
            sent = respelled[i] if spelling == "respelled" else originals[i]
            plan.append((sent, expected[i], sent["op"]))
        plans.append(plan)
    if len(keys) != CLIENTS * n:
        # a shared key would make hits depend on client timing
        raise RuntimeError("service-mixed: distinct requests share a "
                           "cache key; pick another seed")
    return plans


# ------------------------------------------------------------ the loop

@dataclass
class ClientLog:
    """What one client saw: per reply ``(op, rtt_ms, cached,
    server_elapsed_ms)``, failures and mismatches."""

    replies: List[Tuple[str, float, bool, float]] = field(
        default_factory=list)
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)


def _client(address, plan: List[Send], log: ClientLog,
            barrier: threading.Barrier) -> None:
    from repro.service import ServiceClient, ServiceError

    with ServiceClient(*address, timeout=60.0) as client:
        barrier.wait()
        for k, (doc, expected, op) in enumerate(plan):
            t0 = time.perf_counter()
            try:
                reply = client.request(op, doc)
            except ServiceError as exc:
                if exc.error_type == "connection":
                    log.failed += len(plan) - k
                    return
                log.failed += 1
                continue
            except OSError:  # timeout: the stream is no longer in step
                log.failed += len(plan) - k
                return
            rtt = (time.perf_counter() - t0) * 1000.0
            if canonical(reply.result) != expected:
                log.mismatches.append(f"send #{k} ({op})")
            log.replies.append((op, rtt, reply.cached, reply.elapsed_ms))


def _closed_loop(address, plans) -> Tuple[float, List[ClientLog]]:
    logs = [ClientLog() for _ in plans]
    barrier = threading.Barrier(len(plans) + 1, timeout=60)
    threads = [
        threading.Thread(target=_client, args=(address, plan, log, barrier),
                         name=f"{CLIENT_THREAD}-{k}")
        for k, (plan, log) in enumerate(zip(plans, logs))
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=170)
    wall = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError("service-mixed: a client did not finish")
    for k, log in enumerate(logs):
        if log.mismatches:
            raise Mismatch(f"client {k}: reply differs from the offline "
                           f"answer at {log.mismatches[:3]}")
    return wall, logs


@dataclass
class PassResult:
    """One pass of the stream against one fresh server."""

    setup_s: float
    wall: float
    logs: List[ClientLog]
    cache: Dict[str, int]
    rss_mb: float

    @property
    def replies(self):
        return [r for log in self.logs for r in log.replies]

    def counters(self) -> Dict[str, Any]:
        per_op: Dict[str, int] = {}
        for op, *_ in self.replies:
            per_op[op] = per_op.get(op, 0) + 1
        return {
            "requests_per_op": dict(sorted(per_op.items())),
            "cache_hits": self.cache["hits"],
            "cache_misses": self.cache["misses"],
            "cache_evictions": self.cache["evictions"],
        }


def _daemon_pass(plans) -> PassResult:
    """Spawn the daemon, time spawn → first ping, run the closed loop,
    read the cache counters and peak RSS, shut it down."""
    from repro.service import ServiceClient

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=child_env(), cwd=ROOT)
    try:
        banner = proc.stdout.readline().strip()
        if not banner.startswith("listening on "):
            raise RuntimeError(f"unexpected daemon banner {banner!r}")
        host, _, port = banner.removeprefix("listening on ").rpartition(":")
        address = (host, int(port))
        with ServiceClient(*address) as ctl:
            ctl.ping()
        setup_s = time.perf_counter() - t0
        wall, logs = _closed_loop(address, plans)
        with ServiceClient(*address) as ctl:
            cache = ctl.stats()["cache"]
            rss_mb = vm_hwm_mb(proc.pid)
            ctl.shutdown()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"daemon exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
    return PassResult(setup_s, wall, logs, cache, rss_mb)


def _inprocess_pass(plans, tracer: Optional[Tracer] = None) -> PassResult:
    """The same stream against an in-process server on a background
    event loop (its executor hop carries the span context)."""
    from repro.service import AnalysisServer

    box: Dict[str, Any] = {}
    ready = threading.Event()

    def serve() -> None:
        loop = asyncio.new_event_loop()
        loop.set_default_executor(ContextThreadPool(
            max_workers=min(32, (os.cpu_count() or 1) + 4),
            thread_name_prefix="e2e-server-exec"))
        server = box["server"] = AnalysisServer(port=0)
        box["loop"] = loop

        async def main() -> None:
            try:
                box["address"] = await server.start()
            finally:
                ready.set()
            await server.serve_until_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    thread = threading.Thread(target=serve, name="e2e-server-loop",
                              daemon=True)
    if tracer is not None:
        _install(tracer)
    try:
        thread.start()
        if not ready.wait(60) or "address" not in box:
            raise RuntimeError("in-process server did not start")
        wall, logs = _closed_loop(box["address"], plans)
        cache = box["server"].cache.snapshot()
    finally:
        if "loop" in box and thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                box["server"].stop(), box["loop"]).result(timeout=30)
        thread.join(timeout=60)
        if tracer is not None:
            tracer.restore()
    if thread.is_alive():
        raise RuntimeError("in-process server did not stop")
    return PassResult(0.0, wall, logs, cache, 0.0)


def _install(tracer: Tracer) -> None:
    from repro import api
    from repro.perf.cache import ResultCache
    from repro.profibus import serialization
    from repro.profibus.network import Network
    from repro.service import protocol
    from repro.service.server import AnalysisServer

    tracer.wrap(AnalysisServer, "_dispatch", "service.request",
                new_request=True)
    tracer.wrap(protocol, "decode_line", "service.protocol.decode")
    tracer.wrap(protocol, "encode", "service.protocol.encode")
    tracer.wrap(api.AnalysisRequest, "from_dict", "api.from_dict")
    tracer.wrap(api.AnalysisRequest, "cache_key", "api.cache_key")
    tracer.wrap(serialization, "network_from_dict", "profibus.parse")
    tracer.wrap(Network, "fingerprint", "profibus.fingerprint")
    tracer.wrap(Network, "with_ttr", "profibus.with_ttr")
    tracer.wrap(ResultCache, "get", "perf.cache.get")
    tracer.wrap(api, "execute_request_doc", "api.execute",
                name_fn=lambda doc, *a, **k: f"api.execute.{doc['op']}")


# ------------------------------------------------------------- metrics

def _rtts(replies, cached: Optional[bool] = None) -> List[float]:
    return [r[1] for r in replies if cached is None or r[2] is cached]


def run(ctx: Context) -> Outcome:
    plans = build_plans(ctx.seed, ctx.scale)
    if ctx.trace:
        return _run_traced(ctx, plans)
    passes = run_passes(ctx, lambda i: _daemon_pass(plans))
    counters = same_counters([p.counters() for p in passes])
    replies = [r for p in passes for r in p.replies]
    attempted = sum(len(plan) for plan in plans) * len(passes)
    failed = sum(log.failed for p in passes for log in p.logs)
    rate = median([len(p.replies) / p.wall for p in passes])
    setup_s = median([p.setup_s for p in passes])
    rss = median([p.rss_mb for p in passes])
    hits, misses = _rtts(replies, True), _rtts(replies, False)
    p50 = percentile(_rtts(replies), 50)
    named = {
        "requests_per_s": metric(rate, "1/s"),
        "hit_p50_ms": metric(percentile(hits, 50) if hits else 0.0, "ms"),
        "miss_p50_ms": metric(percentile(misses, 50) if misses else 0.0,
                              "ms"),
        "p99_ms": metric(percentile(_rtts(replies), 99), "ms"),
        "failed_ratio": metric(failed / attempted, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "samples": metric(len(replies), "count"),
        "passes": metric(len(passes), "count"),
    }
    return Outcome(
        attempted=attempted, failed=failed,
        metrics={"setup_s": setup_s, "peak_rss_mb": rss,
                 "throughput_per_s": rate, "p50_ms": p50},
        named=named, counters=counters)


def _parses_per_miss(tracer: Tracer) -> float:
    """Network parses per request that missed the cache (a miss is a
    request whose span tree reaches ``api.execute_request_doc``)."""
    per_request: Dict[Any, Counter] = defaultdict(Counter)
    for span in tracer.spans:
        if span[REQUEST] is not None:
            per_request[span[REQUEST]][span[NAME]] += 1
    misses = [names for names in per_request.values()
              if any(n.startswith("api.execute.") for n in names)]
    if not misses:
        return 0.0
    return sum(names["profibus.parse"] for names in misses) / len(misses)


def _run_traced(ctx: Context, plans) -> Outcome:
    daemon = _daemon_pass(plans)
    outside = [rtt - elapsed for _op, rtt, _c, elapsed in daemon.replies]
    tracer = Tracer()
    plain: List[float] = []
    traced: List[PassResult] = []

    def pair(_i: int) -> None:
        plain.append(_inprocess_pass(plans).wall)
        traced.append(_inprocess_pass(plans, tracer))

    run_passes(ctx, pair)
    counters = same_counters([p.counters() for p in [daemon] + traced])
    counters["parses_per_miss"] = _parses_per_miss(tracer)
    spans = tracer.durations(exclude_threads=CLIENT_THREAD)
    layer = {
        "service.outside_ms_p50": percentile(outside, 50),
        "service.protocol.decode_ms": median_ms(
            spans["service.protocol.decode"]),
        "service.protocol.encode_ms": median_ms(
            spans["service.protocol.encode"]),
        "api.from_dict_ms": median_ms(spans["api.from_dict"]),
        "api.cache_key_ms": median_ms(spans["api.cache_key"]),
        "profibus.parse_ms": median_ms(spans["profibus.parse"]),
        "profibus.fingerprint_ms": median_ms(spans["profibus.fingerprint"]),
        "profibus.parses_per_miss": counters["parses_per_miss"],
        "profibus.with_ttr_ms": median_ms(spans["profibus.with_ttr"]),
        "perf.cache.get_ms": median_ms(spans["perf.cache.get"]),
        "service.cache.hits": daemon.cache["hits"],
        "service.cache.misses": daemon.cache["misses"],
        "service.cache.evictions": daemon.cache["evictions"],
        "trace.overhead_pct": (median([p.wall for p in traced])
                               / median(plain) - 1.0) * 100.0,
    }
    front = tracer.children_ns(("profibus.parse", "profibus.fingerprint"))
    for op in ("analyse", "admission", "sweep"):
        name = f"api.execute.{op}"
        compute = [(s[4] - s[3]) - front.get(s[0], 0)
                   for s in tracer.spans if s[2] == name]
        layer[f"api.compute_ms.{op}"] = (median(compute) / 1e6
                                         if compute else 0.0)
    tracer.dump(ctx.out_path(f"spans-service-mixed-{ctx.seed}.jsonl"))
    attempted = sum(len(plan) for plan in plans) * (1 + len(traced))
    failed = sum(log.failed for p in [daemon] + traced for log in p.logs)
    return Outcome(attempted=attempted, failed=failed, metrics=layer,
                   counters=counters)
