"""One benchmark process for one workload; started by run.py, never by hand.

Roles:
  measure  build the inputs, then run passes back to back for --seconds;
  trace    build the inputs traced, run untraced passes for half of
           --seconds, then at most three traced passes within the other half.

--spawned-at is the parent's time.monotonic() just before it started this
process, so set-up time counts interpreter start and ``import drsim``. Host
times are reported raw and scaled to the reference host speed (calibrate.py).
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import calibrate  # binds numpy.linalg.lstsq before a traced run patches it

ROOT = Path(__file__).resolve().parent.parent
RANK_WARNING = "consequent system is rank deficient"
CALIBRATION_SHARE = 0.03  # kernel time after an operation, as a share of its time
SETUP_CALIBRATION_S = 0.2
FIRST_CALIBRATION_S = 0.2  # before the first operation
TRACED_PASSES_MAX = 3  # bounds the spans kept in memory


class State:
    """Operation accounting shared by all passes of one process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.first_pass = None  # list of Outcome, from the first clean pass

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def run_passes(workloads, ops, seconds: float, state: State, cal, tracer=None, max_passes=None):
    """Run whole passes until ``seconds`` have elapsed (at least one pass,
    at most ``max_passes``).

    Each operation is bracketed by calibration bursts; its scaled time uses
    the mean speed factor of the bursts before and after it. An operation
    that raises is not timed; one whose output fails a check is timed and
    counted as failed. Returns, per pass in which every operation ran, its
    (raw, scaled) wall time: the sum of its operation times, checks and
    calibration excluded. Also returns (key, ticks, raw, scaled) per timed
    operation and the number of outputs whose digest differed from the first
    output of the same input in this process.
    """
    walls, samples, mismatches = [], [], 0
    op_id = 1
    factor = cal.burst(FIRST_CALIBRATION_S)
    t_begin = time.perf_counter()
    while not walls or (
        time.perf_counter() - t_begin < seconds and len(walls) != max_passes
    ):
        raw_wall, wall, executed, outcomes = 0.0, 0.0, 0, []
        for op in ops:
            state.attempted += 1
            if tracer is not None:
                tracer.begin_op(op_id)
            op_id += 1
            try:
                t0 = time.perf_counter()
                out = workloads.execute(op)
                dt = time.perf_counter() - t0
            except Exception as exc:  # an operation failure is counted, not fatal
                state.fail(f"{op.key}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            next_factor = cal.burst(CALIBRATION_SHARE * dt)
            scaled = dt * (factor + next_factor) / 2.0
            factor = next_factor
            executed += 1
            raw_wall += dt
            wall += scaled
            samples.append((op.key, op.ticks, dt, scaled))
            try:
                outcome = workloads.check(op, out)
            except workloads.OpFailure as exc:
                state.fail(str(exc))
                continue
            first = state.first_digest.setdefault(op.key, outcome.digest)
            if outcome.digest != first:
                mismatches += 1
                state.fail(f"{op.key}: output digest changed within the process")
                continue
            outcomes.append(outcome)
        if executed == len(ops):
            walls.append((raw_wall, wall))
        elif time.perf_counter() - t_begin >= seconds:
            break
        if state.first_pass is None and len(outcomes) == len(ops):
            state.first_pass = outcomes
    return walls, samples, mismatches


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def quality(outcomes) -> dict:
    """Fidelity of one clean pass; a workload has either runs or one study."""
    return {
        "msgs_sent": sum(o.msgs_sent for o in outcomes),
        "max_error_m": max((o.max_error for o in outcomes), default=0.0),
        "anfis_mae_m": max((o.anfis_mae for o in outcomes), default=0.0),
    }


def median_scaled(walls) -> float:
    return statistics.median(w[1] for w in walls) if walls else 0.0


def trace_passes(workloads, ops, args, state: State, cal, tracer, tracing) -> dict:
    """Untraced passes, then traced ones; per-layer metrics and overhead."""
    warnings.filterwarnings("ignore", message=RANK_WARNING)
    walls, samples, _ = run_passes(workloads, ops, args.seconds / 2, state, cal)
    gc.collect()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.filterwarnings("always", message=RANK_WARNING)
            traced_walls, _, mismatches = run_passes(
                workloads, ops, args.seconds / 2, state, cal, tracer, TRACED_PASSES_MAX
            )
    finally:
        tracer.uninstall()
    tracer.note_warnings(caught)
    by_key: dict[str, list[float]] = {}
    for key, ticks, _, scaled in samples:
        by_key.setdefault(key, []).append(scaled * 1e6 / ticks)
    tick_us = {key: statistics.median(v) for key, v in by_key.items()}
    untraced, traced = median_scaled(walls), median_scaled(traced_walls)
    overhead = traced / untraced if untraced else 0.0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)
    return {
        "per_layer": tracer.metrics(len(traced_walls), tick_us, overhead, mismatches),
        "per_layer_units": dict(tracing.PER_LAYER),
        "wall_s_untraced": untraced,
        "wall_s_traced": traced,
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    tracer = tracing = None
    if args.role == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.filterwarnings("always", message=RANK_WARNING)
            import workloads

            ops = workloads.build(args.workload, args.seed, ROOT)
        tracer.uninstall()
        tracer.note_warnings(caught)
    else:
        warnings.filterwarnings("ignore", message=RANK_WARNING)
        import workloads

        ops = workloads.build(args.workload, args.seed, ROOT)
    setup_s = time.monotonic() - args.spawned_at

    import drsim

    if Path(drsim.__file__).resolve().parent != ROOT / "src" / "drsim":
        raise SystemExit(f"drsim imported from {drsim.__file__}, not from this checkout")
    setup_factor = calibrate.Calibrator(workloads.SETUP_KERNELS).burst(SETUP_CALIBRATION_S)
    result = {
        "setup_s_raw": setup_s,
        "setup_s": setup_s * setup_factor,
        "ops_per_pass": len(ops),
    }

    cal = calibrate.Calibrator(workloads.KERNELS[args.workload])
    state = State()
    gc.collect()
    if args.role == "measure":
        walls, samples, _ = run_passes(workloads, ops, args.seconds, state, cal)
        result["pass_walls"] = walls
        result["samples"] = samples
    else:
        result.update(trace_passes(workloads, ops, args, state, cal, tracer, tracing))
    result.update(
        attempted=state.attempted,
        failed=state.failed,
        failures=state.failures,
        digests=state.first_digest,
        quality=quality(state.first_pass or []),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        blas=blas_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
