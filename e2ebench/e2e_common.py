"""Shared plumbing for the end-to-end benchmark: repository location,
timing helpers, memory readings, cold-start measurement and the
result document.

Every workload module exposes ``run(ctx) -> Outcome``; :mod:`run`
turns the outcome into the one-line JSON result the benchmark prints.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Output directory for exported traces and span dumps, inside the checkout.
OUT_DIR = ROOT / ".e2ebench_out"

#: The end-to-end metrics every workload reports, with their units.
#: Each workload maps them onto its own path (see README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
}

#: The per-layer metrics of a traced run.  A layer a workload does not
#: reach reports 0 (no calls, no time).
PER_LAYER_UNITS = {
    "service.outside_ms_p50": "ms",
    "service.protocol.decode_ms": "ms",
    "service.protocol.encode_ms": "ms",
    "api.from_dict_ms": "ms",
    "api.cache_key_ms": "ms",
    "profibus.parse_ms": "ms",
    "profibus.fingerprint_ms": "ms",
    "profibus.parses_per_miss": "count",
    "perf.cache.get_ms": "ms",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.evictions": "count",
    "api.compute_ms.analyse": "ms",
    "api.compute_ms.admission": "ms",
    "api.compute_ms.sweep": "ms",
    "perf.vector.pack_ms": "ms",
    "perf.vector.lanes_ms.fcfs": "ms",
    "perf.vector.lanes_ms.dm": "ms",
    "perf.vector.lanes_ms.edf": "ms",
    "perf.vector.fallback_networks": "count",
    "perf.batch.pool_fixed_ms": "ms",
    "perf.batch.chunk_pickle_bytes": "bytes",
    "perf.stats.iterations.generic": "count",
    "perf.stats.iterations.fast": "count",
    "perf.stats.iterations.vectorized": "count",
    "profibus.sweep.iterations_per_row": "count",
    "profibus.with_ttr_ms": "ms",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.export_s": "s",
    "sim.export_bytes": "bytes",
    "monitor.read_s": "s",
    "monitor.to_doc_s": "s",
    "monitor.redecode_s": "s",
    "monitor.check_s": "s",
    "monitor.report_s": "s",
    "monitor.decodes_per_event": "count",
    "trace.overhead_pct": "%",
}


class Mismatch(Exception):
    """An output differs from the offline reference: the run is wrong,
    not slow, and the benchmark exits non-zero without a result."""


@dataclass
class Context:
    """What the command line hands to a workload."""

    seed: int
    seconds: float
    trace: bool
    scale: str = "full"
    nproc: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))

    def out_path(self, name: str) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        return OUT_DIR / name


@dataclass
class Outcome:
    """A workload's finished measurement.

    ``metrics`` maps contract metric names (end-to-end, or per-layer on
    a traced run) to plain numbers; ``named`` the workload's own named end-to-end figures
    with their units; ``counters`` the deterministic counts that must
    repeat exactly across runs of one seed.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    named: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    counters: Dict[str, Any] = field(default_factory=dict)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def median(values: List[float]) -> float:
    return statistics.median(values)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start_s(code: str, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter running ``code`` — the
    set-up a user of the in-process path pays before the first answer."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return median(times)


def run_passes(ctx: Context, one_pass: Callable[[int], Any]) -> List[Any]:
    """Run ``one_pass(i)`` until ``ctx.seconds`` of wall time are used
    (always at least once); returns every pass's result."""
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < ctx.seconds:
        results.append(one_pass(len(results)))
    return results


def same_counters(per_pass: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The counters of the first pass, after checking every pass
    produced exactly the same ones (the workload is deterministic)."""
    first = per_pass[0]
    for i, other in enumerate(per_pass[1:], start=2):
        if other != first:
            raise Mismatch(f"pass {i} counters {other} differ from pass 1 "
                           f"counters {first}")
    return first


def canonical(doc: Any) -> bytes:
    """The wire form of a document (the protocol's key order)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
