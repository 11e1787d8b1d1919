"""drsim benchmark: one workload per invocation.

    python3 bench/run.py --workload sim_poly --seed 0 --seconds 20 --trace 0

A closed loop with one caller: each operation starts when the previous one
has finished, in one single-threaded process at a time, with BLAS pinned to
one thread. Every process runs from a fresh interpreter, so set-up time
counts ``import drsim`` and peak RSS belongs to the workload alone.

--trace 0  Four processes in turn; each sets up and runs passes of the
           workload back to back for a quarter of --seconds. Prints the
           end-to-end metrics.
--trace 1  One process whose set-up is traced. It runs untraced passes for
           half of --seconds, then at most three traced passes within the
           other half, and prints the per-layer metrics (tracer.py) with the
           tracing overhead. Spans are written to .bench_out/.

Gated end-to-end metrics, lower is better, every workload:
  setup_s       process start, before ``import drsim``, until the inputs are
                ready; median over the four processes
  wall_s        one pass of the workload (fixed work); median over passes
  tick_us_p50   host us per simulated tick of one operation, median over
                operations (a study covers the 3001 ticks of its truth table)
  peak_rss_mib  peak RSS of one process; median over the four processes
Host times are scaled to the reference host speed (calibrate.py). Printed
but not gated: tick_us_p90 (or the highest percentile with ten operations
above it, named), failed_frac with its base, msgs_sent and max_error_m
(sim_*), anfis_mae_m (study_compare) and src_lines.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
program is built from src/ of the checkout this file lives in; without it,
or with an unclassified file in scenarios/, the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Measuring processes per run. Each sets up once and runs passes for an equal
# share of --seconds; pooling them averages out per-process effects such as
# memory layout, and gives one set-up sample each.
MEASURE_PROCESSES = 4
TIMEOUT_S = 170.0  # whole invocation, below the 180 s limit
TAIL_BEYOND = 10  # a percentile is reported only with this many samples above it

# Gated metrics: every workload reports each of them (see BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tick_us_p50": "us",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One caller, single-threaded: BLAS gets one thread of the two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Every process compiles from source: no first-run bytecode cache effect.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(role: str, args, seconds: float, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {role} process")
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--role", role,
        "--spawned-at", repr(time.monotonic()),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no result")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(n: int) -> int | None:
    """Highest percentile up to p90 with TAIL_BEYOND samples above it."""
    if n <= TAIL_BEYOND:
        return None
    q = min(90, math.floor(100.0 * (n - TAIL_BEYOND) / n))
    return q if q > 50 else None


def src_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "drsim").glob("*.py")):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for line in f if line.strip())
    return total


def pool(procs: list[dict]) -> dict:
    """Merge the measuring processes; outputs must agree across them too."""
    res = dict(procs[0])
    for key in ("pass_walls", "samples", "failures"):
        res[key] = [x for p in procs for x in p[key]]
    res["attempted"] = sum(p["attempted"] for p in procs)
    res["failed"] = sum(p["failed"] for p in procs)
    for p in procs[1:]:
        for key, digest in p["digests"].items():
            if procs[0]["digests"].get(key, digest) != digest:
                res["failed"] += 1
                res["failures"].append(f"{key}: output digest differs between processes")
    res["peak_rss_mib"] = statistics.median(p["peak_rss_mib"] for p in procs)
    return res


def measure(args, deadline: float) -> tuple[dict, list[str], dict]:
    share = args.seconds / MEASURE_PROCESSES
    procs = [spawn("measure", args, share, deadline) for _ in range(MEASURE_PROCESSES)]
    res = pool(procs)
    walls = res["pass_walls"]
    if not walls:
        raise BenchError("no pass ran every operation without an exception")
    tick_us = [scaled * 1e6 / ticks for _, ticks, _, scaled in res["samples"]]
    tick_us_raw = [raw * 1e6 / ticks for _, ticks, raw, _ in res["samples"]]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "wall_s": statistics.median(w[1] for w in walls),
        "tick_us_p50": statistics.median(tick_us),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    raw = {
        "setup_s": statistics.median(p["setup_s_raw"] for p in procs),
        "wall_s": statistics.median(w[0] for w in walls),
        "tick_us_p50": statistics.median(tick_us_raw),
    }
    is_sim = args.workload.startswith("sim_")
    n_ops = len(tick_us)
    op_name = "runs" if is_sim else "studies"
    lines = [
        "host times are scaled to the reference host speed; raw host times in brackets",
        f"setup_s       {metrics['setup_s']:.4f} s    [{raw['setup_s']:.4f}]"
        f"  median of {len(procs)} fresh processes",
        f"wall_s        {metrics['wall_s']:.4f} s    [{raw['wall_s']:.4f}]"
        f"  median of {len(walls)} passes of {res['ops_per_pass']} {op_name}",
        f"tick_us_p50   {metrics['tick_us_p50']:.2f} us   [{raw['tick_us_p50']:.2f}]"
        f"  median over {n_ops} {op_name}",
    ]
    q_tail = tail_percentile(n_ops)
    if q_tail is None:
        lines.append(f"tick_us_tail  n/a          fewer than {TAIL_BEYOND} of {n_ops} {op_name} above p50")
    else:
        value, beyond = percentile(tick_us, q_tail)
        name = "tick_us_p90" if q_tail == 90 else f"tick_us_p{q_tail}"
        lines.append(f"{name:<13} {value:.2f} us   {beyond} of {n_ops} {op_name} above it")
    q = res["quality"]
    lines += [
        f"peak_rss_mib  {metrics['peak_rss_mib']:.1f} MiB  median over the processes",
        f"failed_frac   {res['failed'] / res['attempted']:.4f} ratio"
        f" ({res['failed']} failed / {res['attempted']} operations attempted)",
    ]
    if is_sim:
        lines += [
            f"msgs_sent     {q['msgs_sent']} count  one pass of {res['ops_per_pass']} runs",
            f"max_error_m   {q['max_error_m']:.6g} m   worst report.max_error in one pass",
        ]
    else:
        lines.append(
            f"anfis_mae_m   {q['anfis_mae_m']:.6g} m   held-out ANFIS MAE over the horizons"
        )
    return metrics, lines, res


def trace(args, deadline: float) -> tuple[dict, list[str], dict]:
    res = spawn("trace", args, args.seconds, deadline)
    per_layer = res["per_layer"]
    lines = [
        f"tracing overhead: traced wall_s {res['wall_s_traced']:.4f} s"
        f" / untraced wall_s {res['wall_s_untraced']:.4f} s"
        f" = {per_layer['trace.overhead_ratio']:.3f}",
        f"spans written to {res['spans_path']}",
        "per-layer figures cover one set-up plus one traced pass",
    ]
    units = res["per_layer_units"]
    lines += [f"  {name:<40} {value:.6g} {units[name]}" for name, value in per_layer.items()]
    return {name: per_layer[name] for name in units}, lines, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    if not (ROOT / "src" / "drsim" / "__init__.py").is_file():
        print(f"error: no drsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        workloads.classify_scenarios(ROOT / "scenarios")
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
        if args.trace:
            metrics, lines, res = trace(args, deadline)
            units = res["per_layer_units"]
        else:
            metrics, lines, res = measure(args, deadline)
            units = END_TO_END
    except (BenchError, workloads.BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    blas = res["blas"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"closed loop, 1 caller, 1 process at a time; BLAS {blas['name']} {blas['version']}"
        f" with {blas['threads']} thread(s)"
    )
    for line in lines:
        print(line)
    print(f"src_lines     {src_lines()} non-blank lines in src/drsim/*.py (not gated)")
    for failure in res["failures"]:
        print(f"FAILED: {failure}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
