#!/usr/bin/env python3
"""End-to-end benchmark of profibus-rt.

    python3 e2ebench/run.py --workload service-mixed --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``service-mixed`` (daemon traffic), ``analysis-grid``
(in-process batch analysis and sweeps), ``monitor-replay`` (simulate,
export, monitor).  Every answer is checked against the offline path; a
wrong answer exits 1 without a result.  The last line of standard
output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones, from wrappers around each layer's
public functions, plus the tracing overhead.  The line before it
(``report …``) carries the workload's named metrics and its
deterministic counters, which repeat exactly across runs of one seed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_common import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    SRC,
    Context,
    Mismatch,
    metric,
)

WORKLOADS = ("service-mixed", "analysis-grid", "monitor-replay")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the benchmark's tests")
    return p.parse_args(argv)


def _layer_table(metrics) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}"
                     for name, m in metrics.items())


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import e2e_grid
    import e2e_monitor
    import e2e_service

    module = {"service-mixed": e2e_service, "analysis-grid": e2e_grid,
              "monitor-replay": e2e_monitor}[args.workload]
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), scale=args.scale)
    try:
        outcome = module.run(ctx)
    except Mismatch as exc:
        print(f"e2ebench: {args.workload}: WRONG ANSWER: {exc}",
              file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if ctx.trace else END_TO_END_UNITS
    metrics = {name: metric(outcome.metrics.get(name, 0), unit)
               for name, unit in units.items()}
    if ctx.trace:
        print(_layer_table(metrics))
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "named": outcome.named, "counters": outcome.counters,
    }, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
