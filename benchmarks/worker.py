"""One repetition of a workload, in a fresh interpreter so every cache is cold.

    python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1 --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until smqdyn is imported and the
workload's inputs are built.  The last stdout line is one JSON object with
the repetition's timings, operation results and (when traced) layer metrics.

    python3 benchmarks/worker.py --cli-probe ARGS...

runs ``smqdyn.cli.main(ARGS)`` in this process and reports its import time,
``main`` time, generating-function cache misses and an output digest.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _require_checkout_package(module) -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        sys.exit(f"smqdyn was imported from {module.__file__}, not from {src}")


def cli_probe(argv: list[str]) -> dict:
    start = time.perf_counter()
    from smqdyn import cli, renewal

    import_s = time.perf_counter() - start
    _require_checkout_package(cli)
    import contextlib
    import hashlib
    import io

    buf = io.StringIO()
    before = renewal.generating_function.cache_info().misses
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    main_s = time.perf_counter() - start
    return {
        "import_s": import_s,
        "main_s": main_s,
        "gf_misses": renewal.generating_function.cache_info().misses - before,
        "probe_digest": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
    }


def _layer_metrics(rec, phases) -> dict[str, float]:
    out: dict[str, float] = {}
    for phase in phases:
        suffix = "s" if phase == "cold" else "warm_s"
        for name, secs in rec.layer_seconds(phase).items():
            out[f"{name}.{suffix}"] = secs
    cold = rec.counters["cold"]
    out.update(cold)
    mc_s = sum(
        out.get(f"montecarlo.{fn}.s", 0.0)
        for fn in ("estimate_generating_function", "estimate_jump_probability",
                   "simulate_two_state")
    )
    if mc_s > 0:
        out["montecarlo.traj_per_s"] = cold["montecarlo.trajectories"] / mc_s
    if "warm" in phases:
        for key in ("hits", "misses"):
            out[f"renewal.generating_function.warm_{key}"] = rec.counters["warm"][
                f"renewal.generating_function.{key}"
            ]
    return out


def _cli_metrics(info: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    imports = sorted(v["import_s"] for v in info.values() if "import_s" in v)
    if imports:
        out["cli.import_s"] = imports[len(imports) // 2]
    for cmd, v in info.items():
        for key in ("proc_s", "main_s", "gf_misses", "out_bytes"):
            if key in v:
                out[f"cli.{cmd}.{key}"] = v[key]
    return out


def main() -> int:
    if sys.argv[1:2] == ["--cli-probe"]:
        print(json.dumps(cli_probe(sys.argv[2:])))
        return 0
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["diagnostics", "oracles", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args()

    import smqdyn

    _require_checkout_package(smqdyn)
    if args.workload == "cli":
        import smqdyn.cli  # every command pays this import
    import numpy as np
    import scipy
    import workloads
    from smqdyn import renewal

    inputs = getattr(workloads, f"{args.workload}_inputs")(args.seed)
    raw_setup_s = time.monotonic() - args.spawned

    from tracing import Recorder

    rec = Recorder(bool(args.trace))
    ops = workloads.Ops(rec)
    setup_s = raw_setup_s / ops.slowdown
    # The traced run repeats the task set in the same process (warm caches);
    # CLI commands are separate processes, so their caches never warm.
    phases = ["cold", "warm"] if args.trace and args.workload != "cli" else ["cold"]
    wall, raw_wall, slowdown = {}, {}, {}
    cli_info = {}
    gf = renewal.generating_function
    for phase in phases:
        rec.phase = phase
        before = gf.cache_info()
        busy, scaled = rec.busy_s, ops.scaled_s
        if args.workload == "cli":
            cli_info = workloads.run_cli(inputs, ops, ROOT, probe=bool(args.trace))
        else:
            getattr(workloads, f"run_{args.workload}")(inputs, ops)
        raw_wall[phase] = rec.busy_s - busy
        wall[phase] = ops.scaled_s - scaled
        slowdown[phase] = raw_wall[phase] / wall[phase]
        after = gf.cache_info()
        rec.count("renewal.generating_function.hits", after.hits - before.hits)
        rec.count("renewal.generating_function.misses", after.misses - before.misses)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall["cold"],
        "raw_wall_s": raw_wall["cold"],
        "warm_wall_s": wall.get("warm"),
        "slowdown": slowdown["cold"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ops": ops.results,
        "notes": {k: v for k, v in rec.counters["cold"].items() if k.endswith("_diff")},
        "digests": {cmd: v["digest"] for cmd, v in cli_info.items() if "digest" in v},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        result["layers"] = {**_layer_metrics(rec, phases), **_cli_metrics(cli_info)}
        result["layers"]["bench.slowdown"] = slowdown["cold"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(trace_path)
        result["spans_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
