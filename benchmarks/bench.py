"""smqdyn benchmark: end-to-end and per-layer metrics for one workload.

    python3 benchmarks/bench.py --workload {diagnostics,oracles,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; smqdyn is imported from ``src/``.
The load is one closed loop: a single caller runs repetitions of the
workload's task set one after another, each in a fresh interpreter
(``worker.py``) so that every cache starts cold, as it does for a user.

``--trace 0`` repeats until ``--seconds`` are spent (at least two
repetitions) and reports the median over repetitions of each end-to-end
metric named in BENCHMARK.json.  Times are given at a fixed reference
machine speed (see ``tracing.machine_slowdown``).
``--trace 1`` runs one untraced and one traced repetition; the traced one
records a span around every call into a smqdyn layer, then repeats the task
set in the same process for warm-cache numbers, and the per-layer metrics
come from it.  Every operation is checked against an
independent reference; the last stdout line is the JSON result, and a full
record (environment, every repetition, every failed operation) is written
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
BLAS_THREADS = "1"  # the matrices are tiny; one thread keeps timings steady


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int, versions: dict) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _repetition(workload: str, seed: int, trace: int) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--spawned", repr(spawned)],
        capture_output=True, text=True, env=_worker_env(), cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["elapsed_s"] = time.monotonic() - spawned
    return rep


def _determinism_ops(reps: list[dict]) -> None:
    """Each repetition's CLI output digests must match another repetition's.

    Identical flags must give byte-identical output, so every command in
    every repetition is one more operation: its digest against repetition 0
    (repetition 0 is compared with repetition 1).
    """
    for k, rep in enumerate(reps):
        other = reps[1 if k == 0 else 0]["digests"]
        for cmd, digest in rep["digests"].items():
            ok = other.get(cmd) == digest
            op = {"name": f"cli.{cmd}.determinism", "ok": ok}
            if not ok:
                op.update(known=False, detail="output differs between identical runs")
            rep["ops"].append(op)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=["diagnostics", "oracles", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    if not (ROOT / "src" / "smqdyn" / "__init__.py").is_file():
        sys.exit(f"no smqdyn sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.monotonic()
    if args.trace:
        reps = [_repetition(args.workload, args.seed, 0),
                _repetition(args.workload, args.seed, 1)]
    else:
        reps = []
        while True:
            reps.append(_repetition(args.workload, args.seed, 0))
            spent = time.monotonic() - start
            typical = statistics.median(r["elapsed_s"] for r in reps)
            if len(reps) >= MIN_REPS and spent + typical > args.seconds:
                break
    if args.workload == "cli":
        _determinism_ops(reps)
    env = _environment(args.seed, reps[0]["versions"])

    ops = [op for rep in reps for op in rep["ops"]]
    failed = [op for op in ops if not op["ok"]]
    attempted = len(ops)
    failed_frac = len(failed) / attempted
    measured = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1.0 - failed_frac,
    }
    if args.trace:
        untraced, traced = reps
        measured = dict(traced["layers"])
        measured["bench.trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        measured["bench.failed_frac"] = failed_frac
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }

    by_name: dict[str, dict] = {}
    for op in failed:
        entry = by_name.setdefault(
            op["name"], {"count": 0, "known_defect": op["known"], "detail": op["detail"]}
        )
        entry["count"] += 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "run_s": time.monotonic() - start,
        "failed_frac": failed_frac,
        "failed_ops": by_name,
        "metrics": metrics,
        "repetitions": reps,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"failed_frac": failed_frac, "failed_ops": by_name}, sort_keys=True))
    print(json.dumps({
        "correct": not any(not op["known"] for op in failed),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
