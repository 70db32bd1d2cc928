"""Workload ``monitor-replay``: the streaming path, in-process.

``repro.cli.main(["simulate", "--scenario", "factory-cell",
"--export-trace", F, …])`` runs the token-bus simulator (dm policy) and
exports its frame log; ``repro.cli.main(["monitor", …, "--trace", F,
"--json"])`` ingests the file and checks it against the analytic
bounds.  Both run in this process with stdout captured.  No analysis
request is involved beyond the monitor's own.

The plant is the fixed factory-cell scenario and the simulator is
deterministic, so the seed does not change this workload's inputs.

Correctness: the monitor's rows must equal, byte for byte, the rows of
an in-process ``validate_network`` run of the same simulation, and
every row must be sound.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from typing import Any, Dict, List

from e2e_common import (
    Context,
    Mismatch,
    Outcome,
    canonical,
    cold_start_s,
    median,
    metric,
    run_passes,
    same_counters,
    vm_hwm_mb,
)
from e2e_trace import Tracer

SCENARIO = "factory-cell"
POLICY = "dm"
HORIZON_MS = {"full": 2000.0, "tiny": 100.0}
#: recorder capacity: far above any horizon used, so nothing is dropped
TRACE_EVENTS = 2_000_000

COLD_START = (
    "from repro import cli, monitor, api\n"
    "cli.build_parser()\n"
)


def _reference(horizon_ms: float) -> bytes:
    from repro.monitor import validation_row_doc
    from repro.scenarios import factory_cell_network
    from repro.sim import BusTrace, TokenBusConfig, validate_network

    net = factory_cell_network()
    horizon = int(horizon_ms * net.phy.baud_rate / 1000)
    report = validate_network(
        net, POLICY, horizon,
        config=TokenBusConfig(policy="ap-dm",
                              tracer=BusTrace(max_events=TRACE_EVENTS)))
    if not report.all_sound:
        raise Mismatch("offline validate_network run is not all sound")
    return canonical([validation_row_doc(r) for r in report.rows])


def _cli(argv: List[str]) -> tuple:
    from repro import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue()


def _one_pass(ctx: Context, reference: bytes) -> Dict[str, Any]:
    path = ctx.out_path(f"replay-{ctx.seed}.jsonl")
    sim_s, code, text = _cli([
        "simulate", "--scenario", SCENARIO, "--policy", POLICY,
        "--horizon-ms", str(HORIZON_MS[ctx.scale]),
        "--export-trace", str(path), "--trace-events", str(TRACE_EVENTS)])
    if code != 0:
        raise Mismatch(f"simulate exited {code}: bounds not all sound")
    written = re.search(r"\((\d+) events\)", text)
    simulated = re.search(r"\(events=(\d+)\)", text)
    if not written or not simulated:
        raise RuntimeError(f"unexpected simulate output: {text[:200]!r}")
    mon_s, code, text = _cli([
        "monitor", "--scenario", SCENARIO, "--policy", POLICY,
        "--trace", str(path), "--json"])
    doc = json.loads(text)
    if canonical(doc["rows"]) != reference:
        raise Mismatch("monitor rows differ from the in-process "
                       "validate_network rows")
    if code != 0 or not all(r["verdict"] == "sound" for r in doc["rows"]):
        raise Mismatch(f"monitor exited {code}; rows not all sound")
    trace_events = int(written.group(1))
    export_bytes = path.stat().st_size
    path.unlink()
    return {
        "sim_s": sim_s,
        "mon_s": mon_s,
        "wall": sim_s + mon_s,
        "counters": {
            "sim_events": int(simulated.group(1)),
            "trace_events": trace_events,
            "monitor_events": doc["detail"]["events"],
            "export_bytes": export_bytes,
            "rows": len(doc["rows"]),
        },
    }


def run(ctx: Context) -> Outcome:
    reference = _reference(HORIZON_MS[ctx.scale])
    if ctx.trace:
        return _run_traced(ctx, reference)
    setup_s = cold_start_s(COLD_START)
    passes = run_passes(ctx, lambda i: _one_pass(ctx, reference))
    counters = same_counters([p["counters"] for p in passes])
    sim_rate = median([counters["sim_events"] / p["sim_s"] for p in passes])
    mon_rate = median([counters["trace_events"] / p["mon_s"]
                       for p in passes])
    p50 = median([p["sim_s"] for p in passes]) * 1000.0
    rss = vm_hwm_mb()
    named = {
        "sim_events_per_s": metric(sim_rate, "1/s"),
        "monitor_events_per_s": metric(mon_rate, "1/s"),
        "failed_ratio": metric(0.0, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "passes": metric(len(passes), "count"),
    }
    return Outcome(
        attempted=len(passes) * 2, failed=0,
        metrics={"setup_s": setup_s, "peak_rss_mb": rss,
                 "throughput_per_s": mon_rate, "p50_ms": p50},
        named=named, counters=counters)


def _install(tracer: Tracer) -> None:
    from repro import cli, monitor
    from repro.monitor import engine, report, trace_io

    tracer.wrap(cli, "validate_network", "sim.run")
    tracer.wrap(monitor, "write_trace_jsonl", "sim.export")
    tracer.wrap(monitor, "read_trace", "monitor.read")
    tracer.wrap(trace_io.IngestedTrace, "to_doc", "monitor.to_doc")
    tracer.wrap(trace_io, "trace_from_doc", "monitor.redecode")
    tracer.wrap(engine.TraceMonitor, "feed_all", "monitor.check")
    tracer.wrap(engine.TraceMonitor, "report", "monitor.check")
    tracer.wrap(report.MonitorReport, "to_dict", "monitor.report")
    tracer.wrap(trace_io, "event_from_doc", "monitor.event_from_doc",
                count_only=True)


def _run_traced(ctx: Context, reference: bytes) -> Outcome:
    tracer = Tracer()
    plain: List[float] = []
    traced: List[Dict[str, Any]] = []

    def pair(_i: int) -> None:
        plain.append(_one_pass(ctx, reference)["wall"])
        _install(tracer)
        try:
            traced.append(_one_pass(ctx, reference))
        finally:
            tracer.restore()

    run_passes(ctx, pair)
    counters = same_counters([p["counters"] for p in traced])
    decodes = tracer.counts["monitor.event_from_doc"] / len(traced)
    counters["decodes_per_event"] = decodes / counters["trace_events"]
    spans = tracer.durations()

    def per_pass_s(name: str) -> float:
        # every span of one name, summed, per traced pass
        total = sum(d for d, _self in spans[name]) / 1e9
        return total / len(traced)

    layer = {
        "sim.run_s": per_pass_s("sim.run"),
        "sim.events": counters["sim_events"],
        "sim.export_s": per_pass_s("sim.export"),
        "sim.export_bytes": counters["export_bytes"],
        "monitor.read_s": per_pass_s("monitor.read"),
        "monitor.to_doc_s": per_pass_s("monitor.to_doc"),
        "monitor.redecode_s": per_pass_s("monitor.redecode"),
        "monitor.check_s": per_pass_s("monitor.check"),
        "monitor.report_s": per_pass_s("monitor.report"),
        "monitor.decodes_per_event": counters["decodes_per_event"],
        "trace.overhead_pct": (median([p["wall"] for p in traced])
                               / median(plain) - 1.0) * 100.0,
    }
    tracer.dump(ctx.out_path(f"spans-monitor-replay-{ctx.seed}.jsonl"))
    return Outcome(attempted=len(traced) * 2, failed=0, metrics=layer,
                   counters=counters)
