"""Collect the run records in .bench_out/ into one BENCH_<label>.json file.

    python3 benchmarks/summarize.py benchmarks/BENCH_0.json

For every workload it keeps the median and quartiles of each end-to-end
metric over the ``--trace 0`` runs (one per seed), the per-layer metrics of
the ``--trace 1`` runs (median over seeds), the failed operations by name,
and the environment the runs recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / q2 if q2 else None,
        "runs": len(values),
    }


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    records = [
        json.loads(p.read_text()) for p in sorted((ROOT / ".bench_out").glob("*-trace*.json"))
    ]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in spec["workloads"]:
        runs = [r for r in records if r["workload"] == wl["name"]]
        e2e = defaultdict(list)
        layers = defaultdict(list)
        failed: dict = {}
        for r in runs:
            target = layers if r["trace"] else e2e
            for name, m in r["metrics"].items():
                target[name].append(m["value"])
            for name, f in r["failed_ops"].items():
                failed[name] = {"known_defect": f["known_defect"], "detail": f["detail"]}
            out["environment"] = {k: v for k, v in r["environment"].items() if k != "seed"}
        out["workloads"][wl["name"]] = {
            "why": wl["why"],
            "seeds": sorted({r["seed"] for r in runs if not r["trace"]}),
            "trace_seeds": sorted({r["seed"] for r in runs if r["trace"]}),
            "end_to_end": {k: _spread(v) for k, v in e2e.items()},
            "per_layer": {k: statistics.median(v) for k, v in layers.items()},
            "failed_ops": failed,
        }
    Path(sys.argv[1]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
