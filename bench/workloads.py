"""Workload inputs, operations and output checks for the drsim benchmark.

A workload is a fixed list of operations; one pass runs each once. An
operation is either a *run* (``harness.run_scenario`` plus rendering the
``report.csv`` row and ``series.to_csv()`` that ``drsim run --out`` writes)
or a *study* (``harness.run_comparison`` plus ``to_csv()``). Nothing is
written to disk by an operation.

Functions of ``drsim`` are always reached through their module
(``harness.run_scenario``), so that the traced run can patch them there.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from drsim import harness
from drsim.qos_metrics import CoherenceReport

# Every file in scenarios/ must be listed here; run.py refuses to start
# otherwise, so a new stock file cannot be skipped unnoticed. Study files go
# to run_comparison only: load_scenario accepts them without complaint.
RUN_FILES = (
    "circular_loose.yaml",
    "constant_accel.yaml",
    "constant_velocity.yaml",
    "maneuver_inflight.yaml",
    "sinusoid_tight.yaml",
    "waypoint_snap.yaml",
)
STUDY_FILES = ("sinusoid_comparison.yaml",)

WORKLOADS = ("sim_poly", "sim_channel", "sim_anfis", "study_compare")

# Calibration kernels (calibrate.py) that resemble each workload's work.
KERNELS = {
    "sim_poly": ("tick",),
    "sim_channel": ("tick",),
    "sim_anfis": ("tick",),
    "study_compare": ("dense",),
}
SETUP_KERNELS = ("tick", "dense")

# sim_channel: one scenario per trajectory kind, taken from these stock files.
CHANNEL_SOURCES = (
    "constant_velocity.yaml",
    "constant_accel.yaml",
    "sinusoid_tight.yaml",
    "circular_loose.yaml",
    "waypoint_snap.yaml",
)
CHANNEL_DURATION = 150.0
# Threshold sends are seconds apart, so only a delay spread near a second
# lets a later update overtake an earlier one and reach the stale discard.
CHANNEL = {"base_delay": 1.0, "jitter": 0.9, "loss": 0.1, "reorder_allowed": True}
CHANNEL_TH_OR = 0.3
CHANNEL_BLEND_WINDOW = 0.5

# sim_anfis: corrector bundle trained on the sinusoid_tight trajectory.
ANFIS_SOURCE = "sinusoid_tight.yaml"
ANFIS_TRAIN_DURATION = 300.0
ANFIS_HORIZON = 10
ANFIS_TRAIN = {
    "regime": "hybrid",
    "epochs": 2,
    "eta": 0.001,
    "split": 0.7,
    "n_terms": 7,
    "rule_base": "grid",
    "shape": "bell",
}

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_CHANNEL_SEED = 0


class BenchError(Exception):
    """The benchmark cannot run on this checkout."""


class OpFailure(Exception):
    """An operation broke an invariant or changed its output."""


def classify_scenarios(scen_dir: Path) -> None:
    """Check that scenarios/ holds exactly the files this benchmark classifies."""
    if not scen_dir.is_dir():
        raise BenchError(f"no scenarios directory at {scen_dir}")
    present = {p.name for p in scen_dir.iterdir()}
    known = set(RUN_FILES) | set(STUDY_FILES)
    if present - known:
        raise BenchError(f"unclassified files in scenarios/: {sorted(present - known)}")
    if known - present:
        raise BenchError(f"stock files missing from scenarios/: {sorted(known - present)}")
    for name in RUN_FILES + STUDY_FILES:
        cfg = _read_yaml(scen_dir / name)
        is_study = "horizons" in cfg or "train" in cfg
        if is_study != (name in STUDY_FILES):
            kind = "study" if is_study else "run"
            raise BenchError(f"scenarios/{name} reads as a {kind} file but is not classified so")


def _read_yaml(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return yaml.safe_load(f)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One operation: a run of a scenario or a comparison study."""

    key: str
    kind: str  # "run" | "study"
    payload: object  # Scenario or ComparisonStudy
    ticks: int  # simulated ticks the operation covers
    golden: str | None = None  # pinned digest, if any


@dataclass
class Outcome:
    digest: str
    msgs_sent: int = 0
    max_error: float = 0.0
    anfis_mae: float = 0.0


def execute(op: Op):
    """The timed part of an operation."""
    if op.kind == "run":
        result = harness.run_scenario(op.payload)
        report_csv = CoherenceReport.csv_header() + "\n" + result.report.to_csv_row() + "\n"
        return result, report_csv, result.series.to_csv()
    result = harness.run_comparison(op.payload)
    return result, result.to_csv()


def check(op: Op, out) -> Outcome:
    """Invariants and the golden digest of one operation's output (untimed)."""
    if op.kind == "run":
        return _check_run(op, *out)
    return _check_study(op, *out)


def _check_run(op: Op, result, report_csv: str, errors_csv: str) -> Outcome:
    r = result.report
    if r.messages_sent != r.messages_delivered + r.messages_dropped:
        raise OpFailure(
            f"{op.key}: sent {r.messages_sent} != delivered {r.messages_delivered}"
            f" + dropped {r.messages_dropped}"
        )
    if r.bytes_sent != r.messages_sent * op.payload.message_size_bytes:
        raise OpFailure(f"{op.key}: bytes_sent {r.bytes_sent} != sent x message size")
    errors = np.asarray(result.series.e_pos + result.series.e_or, dtype=float)
    if not (np.all(np.isfinite(errors)) and math.isfinite(r.max_error)):
        raise OpFailure(f"{op.key}: non-finite error sample")
    digest = sha256(report_csv + errors_csv)
    if op.golden is not None and digest != op.golden:
        raise OpFailure(f"{op.key}: output digest {digest[:12]} differs from golden {op.golden[:12]}")
    return Outcome(digest, msgs_sent=r.messages_sent, max_error=r.max_error)


def _check_study(op: Op, result, csv_text: str) -> Outcome:
    study = op.payload
    for p in study.predictors:
        if len(result.mae[p]) != len(study.horizons):
            raise OpFailure(f"{op.key}: {len(result.mae[p])} {p} rows for {len(study.horizons)} horizons")
        if not all(math.isfinite(v) for v in result.mae[p]):
            raise OpFailure(f"{op.key}: non-finite {p} MAE")
    lines = csv_text.splitlines()
    if len(lines) != 1 + len(study.horizons):
        raise OpFailure(f"{op.key}: {len(lines) - 1} CSV rows for {len(study.horizons)} horizons")
    if op.golden is not None:
        # ANFIS columns depend on the BLAS build, so only first/second are pinned.
        header = lines[0].split(",")
        cols = [0] + [header.index(p) for p in ("first", "second") if p in header]
        pinned = "\n".join(",".join(line.split(",")[c] for c in cols) for line in lines) + "\n"
        digest = sha256(pinned)
        if digest != op.golden:
            raise OpFailure(f"{op.key}: first/second digest {digest[:12]} differs from golden")
    mae = result.mae.get("anfis", [])
    return Outcome(sha256(csv_text), anfis_mae=float(np.mean(mae)) if mae else 0.0)


def _ticks(duration: float, tick: float) -> int:
    return int(round(duration / tick)) + 1


def _run_op(key: str, sc, golden: str | None) -> Op:
    return Op(key, "run", sc, _ticks(sc.duration, sc.tick), golden)


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)


def _patrol(waypoints: list, duration: float) -> list:
    """Repeat a closed waypoint route until it covers the duration."""
    if list(waypoints[0][1:]) != list(waypoints[-1][1:]):
        raise BenchError("waypoint route is not closed; cannot repeat it as a patrol")
    if not waypoints[-1][0] > waypoints[0][0]:
        raise BenchError("waypoint route takes no time; cannot repeat it as a patrol")
    route = [list(w) for w in waypoints]
    while route[-1][0] < duration:
        offset = route[-1][0] - waypoints[0][0]
        route.extend([w[0] + offset, *w[1:]] for w in waypoints[1:])
    return route


def channel_configs(scen_dir: Path, seed: int) -> list[dict]:
    """sim_channel scenario dicts: stock trajectories over a jittery, lossy link.

    The seed sets each scenario's channel seed (loss and jitter draws) and the
    start phase of the periodic trajectories.
    """
    rng = random.Random(seed)
    cfgs = []
    for name in CHANNEL_SOURCES:
        src = _read_yaml(scen_dir / name)
        traj = copy.deepcopy(src["trajectory"])
        if traj["kind"] == "waypoint-script":
            traj["waypoints"] = _patrol(traj["waypoints"], CHANNEL_DURATION)
        elif traj["kind"] == "sinusoid-weave":
            traj["phase"] = rng.uniform(0.0, 2.0 * math.pi)
        elif traj["kind"] == "circular":
            traj["phase0"] = rng.uniform(0.0, 2.0 * math.pi)
        dr = dict(src["dr"])
        dr.setdefault("th_or", CHANNEL_TH_OR)
        dr.update(convergence="blend", blend_window=CHANNEL_BLEND_WINDOW)
        cfgs.append(
            {
                "name": "channel-" + Path(name).stem,
                "seed": rng.randrange(2**31),
                "tick": src["tick"],
                "duration": CHANNEL_DURATION,
                "trajectory": traj,
                "dr": dr,
                "channel": dict(CHANNEL),
                "profile": {"name": "loosely-coupled"},
            }
        )
    return cfgs


def _train_anfis_scenario(scen_dir: Path, out_dir: Path):
    src = _read_yaml(scen_dir / ANFIS_SOURCE)
    study = harness.study_from_dict(
        {
            "seed": src["seed"],
            "tick": src["tick"],
            "duration": ANFIS_TRAIN_DURATION,
            "trajectory": src["trajectory"],
            "horizons": [ANFIS_HORIZON],
            "predictors": ["second", "anfis"],
            "train": ANFIS_TRAIN,
        }
    )
    bundle = harness.train_bundle(study, ANFIS_HORIZON)
    path = out_dir / f"anfis_bundle_{os.getpid()}.json"
    bundle.save(path)
    try:
        cfg = dict(src)
        cfg["dr"] = dict(src["dr"], predictor="anfis", anfis_net=str(path))
        return harness.scenario_from_dict(cfg)
    finally:
        path.unlink()


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """Set-up: load or generate the workload's inputs; returns one pass of ops.

    Only sim_channel depends on the seed; the other workloads use the stock
    files as shipped.
    """
    scen_dir = root / "scenarios"
    golden = _golden()
    if workload == "sim_poly":
        pins = golden["sim_poly"]
        return [
            _run_op(Path(n).stem, harness.load_scenario(scen_dir / n), pins[Path(n).stem])
            for n in RUN_FILES
        ]
    if workload == "sim_channel":
        pins = golden["sim_channel_seed0"] if seed == GOLDEN_CHANNEL_SEED else {}
        return [
            _run_op(cfg["name"], harness.scenario_from_dict(cfg), pins.get(cfg["name"]))
            for cfg in channel_configs(scen_dir, seed)
        ]
    if workload == "sim_anfis":
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        return [_run_op("sinusoid_tight-anfis", _train_anfis_scenario(scen_dir, out_dir), None)]
    if workload == "study_compare":
        ops = []
        for n in STUDY_FILES:
            study = harness.load_study(scen_dir / n)
            ticks = _ticks(study.duration, study.tick)
            ops.append(Op(Path(n).stem, "study", study, ticks, golden["study_compare"][Path(n).stem]))
        return ops
    raise BenchError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
