"""Workload ``analysis-grid``: in-process batch analysis.

``analyse_many`` runs over a seeded acceptance grid (networks cycling
through the bench tightness levels × fcfs/dm/edf) three ways: default
mode with ``workers=1``, default mode with ``workers=nproc`` (the
process pool), and ``mode="vectorized"`` with ``workers=1``.  Then
``ttr_sweep`` runs in the default mode over a few seeded networks on
dense TTR grids.  The request front end and transport do no work here.

Correctness: the three grid runs must give identical rows, a seeded
sample must agree with the ``generic`` mode, and the sweep rows must
equal a ``generic``-mode sweep.  Every timed call gets fresh network
instances (a pickle round trip drops the instance-keyed memos), made
outside the timed region.
"""

from __future__ import annotations

import pickle
import time
from random import Random
from typing import Any, Dict, List

from e2e_common import (
    Context,
    Mismatch,
    Outcome,
    cold_start_s,
    median,
    metric,
    run_passes,
    same_counters,
    vm_hwm_mb,
)
from e2e_trace import Tracer, median_ms

#: (grid networks, sweep networks, points per sweep, generic sample)
SIZES = {"full": (2000, 4, 200, 60), "tiny": (40, 1, 12, 8)}

COLD_START = (
    "from repro.perf import vector\n"
    "from repro.perf.batch import analyse_many, generate_networks\n"
    "vector.backend_name()\n"
    "analyse_many(generate_networks(3, seed=0), workers=1, mode='vectorized')\n"
)


def _noop(_item: Any) -> None:
    """The pool's fixed cost is measured by mapping this over the grid."""
    return None


def _grid(seed: int, n: int):
    from repro.perf.batch import generate_networks
    from repro.perf.bench import TIGHTNESS_CYCLE

    per_level = -(-n // len(TIGHTNESS_CYCLE))
    nets = []
    for li, x in enumerate(TIGHTNESS_CYCLE):
        nets.extend(generate_networks(
            per_level, seed=f"e2e-grid:{seed}:{li}", d_over_t=(x * 0.6, x)))
    return nets[:n]


def _sweep_values(net, points: int) -> List[int]:
    ring, top = net.ring_latency(), 4 * net.ttr
    return [ring + (top - ring) * k // (points - 1) for k in range(points)]


def _iterations() -> Dict[str, int]:
    from repro.perf.stats import counters

    snap = counters.snapshot()
    counters.reset()
    return {k: snap[k] for k in ("generic", "fast", "vectorized")}


class Setup:
    """The grid, its references, and the fresh-instance blobs."""

    def __init__(self, seed: int, scale: str, nproc: int) -> None:
        from repro.perf import vector
        from repro.perf.batch import analyse_many, generate_networks
        from repro.perf.config import analysis_mode_set
        from repro.profibus.sweep import ttr_sweep

        n, n_sweep, points, n_sample = SIZES[scale]
        self.nproc = nproc
        self.grid_blob = pickle.dumps(_grid(seed, n))
        sweep_nets = generate_networks(n_sweep, seed=f"e2e-sweep:{seed}")
        self.sweep_blob = pickle.dumps(sweep_nets)
        self.sweep_values = [_sweep_values(net, points) for net in sweep_nets]
        self.n_analyses = 3 * n
        self.fallback = len(vector.pack_networks(self.fresh()).fallback)
        sample = sorted(Random(f"e2e-grid-sample:{seed}").sample(
            range(n), n_sample))
        fresh = self.fresh()
        self.sample = sample
        self.sample_rows = analyse_many([fresh[i] for i in sample],
                                        workers=1, mode="generic")
        with analysis_mode_set("generic"):
            self.sweep_ref = [
                ttr_sweep(net, values) for net, values in
                zip(pickle.loads(self.sweep_blob), self.sweep_values)]
        _iterations()  # drop the reference runs' counts

    def fresh(self):
        return pickle.loads(self.grid_blob)

    def check(self, serial, pooled, vectorized, sweeps) -> None:
        if pooled != serial:
            raise Mismatch("pooled analyse_many rows differ from serial")
        if vectorized != serial:
            raise Mismatch("vectorized analyse_many rows differ from serial")
        by_index = {(r.index, r.policy): r for r in serial}
        for ref in self.sample_rows:
            got = by_index[(self.sample[ref.index], ref.policy)]
            if (got.schedulable, got.worst_response, got.worst_slack,
                    got.tcycle) != (ref.schedulable, ref.worst_response,
                                    ref.worst_slack, ref.tcycle):
                raise Mismatch(f"grid row {got} disagrees with generic {ref}")
        if sweeps != self.sweep_ref:
            raise Mismatch("ttr_sweep rows differ from the generic sweep")


def _one_pass(setup: Setup) -> Dict[str, Any]:
    from repro.perf.batch import analyse_many
    from repro.profibus import sweep as sweep_mod

    _iterations()
    timings: Dict[str, Any] = {}
    iterations: Dict[str, Dict[str, int]] = {}
    rows = {}
    for phase, workers, mode in (("serial", 1, None),
                                 ("pooled", setup.nproc, None),
                                 ("vectorized", 1, "vectorized")):
        nets = setup.fresh()
        t0 = time.perf_counter()
        rows[phase] = analyse_many(nets, workers=workers, mode=mode)
        timings[phase] = time.perf_counter() - t0
        iterations[phase] = _iterations()
    sweeps, sweep_s = [], []
    for net, values in zip(pickle.loads(setup.sweep_blob),
                           setup.sweep_values):
        t0 = time.perf_counter()
        sweeps.append(sweep_mod.ttr_sweep(net, values))
        sweep_s.append(time.perf_counter() - t0)
    iterations["sweep"] = _iterations()
    setup.check(rows["serial"], rows["pooled"], rows["vectorized"], sweeps)
    n_rows = sum(len(s) for s in sweeps)
    return {
        "timings": timings,
        "sweep_s": sweep_s,
        "wall": sum(timings.values()) + sum(sweep_s),
        "counters": {
            "analyses_per_phase": setup.n_analyses,
            "iterations": iterations,
            "fallback_networks": setup.fallback,
            "sweep_rows": n_rows,
            "schedulable_rows": sum(r.schedulable for r in rows["serial"]),
        },
    }


def run(ctx: Context) -> Outcome:
    setup = Setup(ctx.seed, ctx.scale, ctx.nproc)
    if ctx.trace:
        return _run_traced(ctx, setup)
    setup_s = cold_start_s(COLD_START)
    passes = run_passes(ctx, lambda i: _one_pass(setup))
    counters = same_counters([p["counters"] for p in passes])

    def rate(phase: str) -> float:
        return median([setup.n_analyses / p["timings"][phase]
                       for p in passes])

    sweep_calls = [s for p in passes for s in p["sweep_s"]]
    sweep_rows = median([counters["sweep_rows"] / sum(p["sweep_s"])
                         for p in passes])
    rss = vm_hwm_mb()
    p50 = median(sweep_calls) * 1000.0
    named = {
        "analyses_per_s": metric(rate("serial"), "1/s"),
        "pooled_analyses_per_s": metric(rate("pooled"), "1/s"),
        "vectorized_analyses_per_s": metric(rate("vectorized"), "1/s"),
        "sweep_rows_per_s": metric(sweep_rows, "1/s"),
        "failed_ratio": metric(0.0, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "pool_workers": metric(ctx.nproc, "count"),
        "passes": metric(len(passes), "count"),
    }
    attempted = len(passes) * (3 * setup.n_analyses + counters["sweep_rows"])
    return Outcome(
        attempted=attempted, failed=0,
        metrics={"setup_s": setup_s, "peak_rss_mb": rss,
                 "throughput_per_s": rate("serial"), "p50_ms": p50},
        named=named, counters=counters)


def _install(tracer: Tracer, fallback: List[int]) -> None:
    from repro.perf import batch, vector
    from repro.profibus import serialization
    from repro.profibus import sweep as sweep_mod
    from repro.profibus.network import Network

    tracer.wrap(batch, "analyse_many", "perf.batch.analyse_many")
    tracer.wrap(vector, "pack_networks", "perf.vector.pack",
                on_result=lambda pack, *a, **k: fallback.append(
                    len(pack.fallback)))
    tracer.wrap(vector, "batch_summaries", "perf.vector.lanes",
                name_fn=lambda pack, policy: f"perf.vector.lanes.{policy}")
    tracer.wrap(sweep_mod, "ttr_sweep", "profibus.sweep")
    tracer.wrap(Network, "with_ttr", "profibus.with_ttr")
    tracer.wrap(serialization, "network_from_dict", "profibus.parse")
    tracer.wrap(Network, "fingerprint", "profibus.fingerprint")


def _pool_fixed(setup: Setup) -> Dict[str, float]:
    """A pooled map of a no-op over the grid with the chunking
    ``analyse_many`` uses: the pool's fixed cost, plus the bytes its
    chunks pickle to."""
    from repro.perf.batch import pooled_map

    jobs = list(enumerate(setup.fresh()))
    chunksize = max(1, len(jobs) // (setup.nproc * 4))
    t0 = time.perf_counter()
    pooled_map(_noop, jobs, workers=setup.nproc, chunksize=chunksize)
    fixed_ms = (time.perf_counter() - t0) * 1000.0
    size = sum(len(pickle.dumps(jobs[i:i + chunksize]))
               for i in range(0, len(jobs), chunksize))
    return {"ms": fixed_ms, "bytes": size}


def _run_traced(ctx: Context, setup: Setup) -> Outcome:
    tracer = Tracer()
    plain: List[float] = []
    traced: List[Dict[str, Any]] = []
    pools: List[Dict[str, float]] = []
    fallback: List[int] = []

    def pair(_i: int) -> None:
        plain.append(_one_pass(setup)["wall"])
        _install(tracer, fallback)
        try:
            traced.append(_one_pass(setup))
        finally:
            tracer.restore()
        pools.append(_pool_fixed(setup))

    run_passes(ctx, pair)
    counters = same_counters([p["counters"] for p in traced])
    spans = tracer.durations()
    iters = {k: sum(phase[k] for phase in counters["iterations"].values())
             for k in ("generic", "fast", "vectorized")}
    sweep_iters = sum(counters["iterations"]["sweep"].values())
    layer = {
        "perf.vector.pack_ms": median_ms(spans["perf.vector.pack"]),
        "perf.vector.fallback_networks": fallback[0] if fallback else 0,
        "perf.batch.pool_fixed_ms": median([p["ms"] for p in pools]),
        "perf.batch.chunk_pickle_bytes": pools[0]["bytes"],
        "profibus.sweep.iterations_per_row":
            sweep_iters / counters["sweep_rows"],
        "profibus.with_ttr_ms": median_ms(spans["profibus.with_ttr"]),
        "profibus.parse_ms": median_ms(spans["profibus.parse"]),
        "profibus.fingerprint_ms": median_ms(spans["profibus.fingerprint"]),
        "trace.overhead_pct": (median([p["wall"] for p in traced])
                               / median(plain) - 1.0) * 100.0,
    }
    for policy in ("fcfs", "dm", "edf"):
        layer[f"perf.vector.lanes_ms.{policy}"] = median_ms(
            spans[f"perf.vector.lanes.{policy}"])
    for kind, count in iters.items():
        layer[f"perf.stats.iterations.{kind}"] = count
    if len(set(fallback)) > 1:
        raise Mismatch(f"fallback network counts vary: {fallback}")
    tracer.dump(ctx.out_path(f"spans-analysis-grid-{ctx.seed}.jsonl"))
    attempted = len(traced) * (3 * setup.n_analyses + counters["sweep_rows"])
    return Outcome(attempted=attempted, failed=0, metrics=layer,
                   counters=counters)
