"""Scenario orchestration: truth -> sender gate -> channel -> receiver -> metrics.

Also hosts the predictor comparison study (train a neuro-fuzzy residual
corrector, then score every configured predictor over a range of lookahead
horizons) and the parameter sweep driver. Everything is seeded and
single-threaded, so identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import anfis
from .anfis import AnfisBundle, AnfisNetwork, TrainingSet, build_network
from .dead_reckoning import DrConfig, display, gate, row_norms
from .errors import ValidationError
from .kinematics import Order, Trajectory, truth_arrays, wrap_angles
from .kinematics import sample_truth  # noqa: F401 -- bench/tracer.py wraps it here
from .netsim import Channel, ChannelConfig
from .qos_metrics import (
    CoherenceReport,
    ErrorSeries,
    QosProfile,
    format_sig,
    integrated_error,
    verdict,
    violation_windows,
)

DEFAULT_MESSAGE_SIZE = 144  # bytes per update, order of a full entity-state packet


@dataclass(frozen=True)
class Scenario:
    name: str
    trajectory: Trajectory
    dr: DrConfig
    channel: ChannelConfig
    profile: QosProfile
    tick: float
    duration: float
    seed: int = 0
    message_size_bytes: int = DEFAULT_MESSAGE_SIZE

    def __post_init__(self):
        if not (math.isfinite(self.tick) and self.tick > 0.0):
            raise ValidationError(f"tick must be positive, got {self.tick}")
        if self.duration < self.tick:
            raise ValidationError("duration must cover at least one tick")
        if self.message_size_bytes <= 0:
            raise ValidationError("message_size_bytes must be positive")
        last_tick = self.n_ticks * self.tick
        if not self.trajectory.covers(last_tick):
            raise ValidationError(
                f"scenario duration {self.duration} s is longer than its trajectory's "
                f"duration {self.trajectory.duration} s (last tick at t={last_tick})"
            )

    @property
    def n_ticks(self) -> int:
        """Ticks after t = 0; the run samples n_ticks + 1 times."""
        return int(round(self.duration / self.tick))


def _keys(cls) -> frozenset:
    """The keys a config section read into dataclass cls may hold: its field names."""
    return frozenset(f.name for f in dataclasses.fields(cls))


def _checked(cfg, allowed: frozenset, where: str) -> dict:
    """cfg, if it is a mapping with keys from allowed only; otherwise a
    ValidationError that names where, and the first key not allowed."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(cfg).__name__}")
    for key in cfg:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(sorted(allowed))}"
            )
    return cfg


def _trajectory_from_config(cfg: dict, duration: float, tick: float) -> Trajectory:
    cfg = dict(cfg)
    kind = cfg.pop("kind")
    duration = float(cfg.pop("duration", duration))
    tick = float(cfg.pop("tick", tick))
    return Trajectory(kind=kind, params=cfg, duration=duration, tick=tick)


def _dr_from_config(cfg: dict, base_dir: Path | None) -> DrConfig:
    cfg = dict(_checked(cfg, _keys(DrConfig) - {"anfis_bundle"} | {"anfis_net"}, "dr"))
    bundle = None
    net_path = cfg.pop("anfis_net", None)
    if net_path is not None:
        path = Path(net_path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        bundle = AnfisBundle.load(path)
    return DrConfig(
        th_pos=float(cfg.get("th_pos", 1.0)),
        th_or=float(cfg.get("th_or", math.inf)),
        heartbeat=float(cfg.get("heartbeat", 5.0)),
        order=Order(cfg.get("order", "second")),
        convergence=cfg.get("convergence", "snap"),
        blend_window=float(cfg.get("blend_window", 0.5)),
        predictor=cfg.get("predictor", "polynomial"),
        anfis_bundle=bundle,
    )


def scenario_from_dict(cfg: dict, base_dir: Path | None = None) -> Scenario:
    if isinstance(cfg, dict):
        study_only = sorted(cfg.keys() & (_keys(ComparisonStudy) - _keys(Scenario)))
        if study_only:
            raise ValidationError(
                f"key {study_only[0]!r} belongs to a study file; use drsim compare or drsim train"
            )
    _checked(cfg, _keys(Scenario), "run file")
    tick = float(cfg["tick"])
    duration = float(cfg["duration"])
    seed = int(cfg.get("seed", 0))
    chan_cfg = dict(_checked(cfg.get("channel", {}), _keys(ChannelConfig), "channel"))
    chan_cfg.setdefault("seed", seed)
    return Scenario(
        name=str(cfg.get("name", "scenario")),
        trajectory=_trajectory_from_config(cfg["trajectory"], duration, tick),
        dr=_dr_from_config(cfg.get("dr", {}), base_dir),
        channel=ChannelConfig(
            base_delay=float(chan_cfg.get("base_delay", 0.0)),
            jitter=float(chan_cfg.get("jitter", 0.0)),
            loss=float(chan_cfg.get("loss", 0.0)),
            seed=int(chan_cfg["seed"]),
            reorder_allowed=bool(chan_cfg.get("reorder_allowed", False)),
        ),
        profile=QosProfile.from_config(cfg.get("profile", {"name": "loosely-coupled"})),
        tick=tick,
        duration=duration,
        seed=seed,
        message_size_bytes=int(cfg.get("message_size_bytes", DEFAULT_MESSAGE_SIZE)),
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        cfg = yaml.safe_load(f)
    return scenario_from_dict(cfg, base_dir=path.parent)


@dataclass
class RunResult:
    report: CoherenceReport
    series: ErrorSeries
    send_times: list[float] = field(default_factory=list)
    delivery_times: list[float] = field(default_factory=list)


def run_scenario(sc: Scenario) -> RunResult:
    """Simulate one sender/receiver pair over one channel on the tick grid.

    Each stage works on the whole run at once: truth for every tick, then
    the sender's updates segment by segment, the channel's fate for each
    update in send order, and the receiver's display for every tick.
    """
    truth = truth_arrays(sc.trajectory, np.arange(sc.n_ticks + 1) * sc.tick)
    log = gate(truth, sc.dr)
    send_times = truth.time[log.rows].tolist()
    channel = Channel(sc.channel)
    fates = [channel.transit(now) for now in send_times]
    due = np.array([math.inf if d is None else d for d in fates])
    first, shown_pos, shown_or = display(truth, log, due, sc.dr)
    series = ErrorSeries.from_arrays(
        sc.tick,
        truth.time[first:],
        row_norms(truth.position[first:] - shown_pos),
        np.abs(wrap_angles(truth.orientation[first:] - shown_or)),
    )

    delivered = np.flatnonzero(np.isfinite(due))
    delivery_times = np.sort(due[delivered]).tolist()
    report = CoherenceReport()
    report.messages_sent = channel.sent
    report.messages_delivered = len(delivered)
    report.messages_dropped = channel.dropped
    report.bytes_sent = channel.sent * sc.message_size_bytes
    report.heartbeats = log.heartbeats
    report.v_dev_max_send = log.v_dev_max
    if len(delivered):
        transit = due[delivered] - truth.time[np.asarray(log.rows)[delivered]]
        report.max_prop_delay = max(0.0, float(np.max(transit)))
    if len(series):
        report.max_error = max(series.e_pos)
        report.integrated_error = integrated_error(series)
        report.violation_windows = violation_windows(series, sc.dr.th_pos)
        report.total_violation_time = sum(w.length for w in report.violation_windows)
    report.passed, report.reasons = verdict(report, sc.profile, sc.channel)
    return RunResult(report, series, send_times, delivery_times)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("th_pos", "base_delay", "loss")


@dataclass(frozen=True)
class SweepRow:
    value: float
    messages_sent: int = 0
    max_error: float = 0.0
    total_violation_time: float = 0.0
    error: str = ""


def _scenario_with(sc: Scenario, axis: str, value: float) -> Scenario:
    if axis == "th_pos":
        return dataclasses.replace(sc, dr=dataclasses.replace(sc.dr, th_pos=value))
    if axis == "base_delay":
        return dataclasses.replace(sc, channel=dataclasses.replace(sc.channel, base_delay=value))
    if axis == "loss":
        return dataclasses.replace(sc, channel=dataclasses.replace(sc.channel, loss=value))
    raise ValidationError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def sweep(base: Scenario, axis: str, values: list[float]) -> list[SweepRow]:
    """One seeded run per value; per-row failures are reported, not fatal."""
    if axis not in SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ValidationError("sweep needs at least one value")
    rows = []
    for value in values:
        try:
            run = run_scenario(_scenario_with(base, axis, float(value)))
            rows.append(
                SweepRow(
                    value=float(value),
                    messages_sent=run.report.messages_sent,
                    max_error=run.report.max_error,
                    total_violation_time=run.report.total_violation_time,
                )
            )
        except Exception as exc:
            rows.append(SweepRow(value=float(value), error=str(exc)))
    return rows


def sweep_csv(axis: str, rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write(f"{axis},messages_sent,max_error,total_violation_time,error\n")
    for r in rows:
        buf.write(
            f"{format_sig(r.value)},{r.messages_sent},{format_sig(r.max_error)},"
            f"{format_sig(r.total_violation_time)},{r.error}\n"
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Predictor comparison study
# ---------------------------------------------------------------------------

PREDICTOR_NAMES = ("first", "second", "anfis")


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 4
    eta: float = 0.01
    regime: str = "hybrid"
    split: float = 0.7
    n_terms: int = 7
    rule_base: str = "grid"
    shape: str = "bell"
    obs_noise_pos: float = 0.0
    center_jitter: float = 0.0

    def __post_init__(self):
        if self.regime not in ("gd", "hybrid"):
            raise ValidationError(f"unknown training regime {self.regime!r}")
        if not 0.0 < self.split < 1.0:
            raise ValidationError(f"split must be in (0, 1), got {self.split}")
        if self.obs_noise_pos < 0.0:
            raise ValidationError("observation noise must be >= 0")


@dataclass(frozen=True)
class ComparisonStudy:
    trajectory: Trajectory
    tick: float
    duration: float
    horizons: tuple[int, ...] = tuple(range(1, 11))
    predictors: tuple[str, ...] = ("second", "anfis")
    train: TrainSpec = field(default_factory=TrainSpec)
    seed: int = 0

    def __post_init__(self):
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValidationError("horizons must be positive tick counts")
        for p in self.predictors:
            if p not in PREDICTOR_NAMES:
                raise ValidationError(f"unknown predictor {p!r}")


def study_from_dict(cfg: dict) -> ComparisonStudy:
    _checked(cfg, _keys(ComparisonStudy), "study file")
    tick = float(cfg["tick"])
    duration = float(cfg["duration"])
    train_cfg = dict(_checked(cfg.get("train", {}), _keys(TrainSpec), "train"))
    return ComparisonStudy(
        trajectory=_trajectory_from_config(cfg["trajectory"], duration, tick),
        tick=tick,
        duration=duration,
        horizons=tuple(int(h) for h in cfg.get("horizons", range(1, 11))),
        predictors=tuple(cfg.get("predictors", ["second", "anfis"])),
        train=TrainSpec(
            epochs=int(train_cfg.get("epochs", 4)),
            eta=float(train_cfg.get("eta", 0.01)),
            regime=train_cfg.get("regime", "hybrid"),
            split=float(train_cfg.get("split", 0.7)),
            n_terms=int(train_cfg.get("n_terms", 7)),
            rule_base=train_cfg.get("rule_base", "grid"),
            shape=train_cfg.get("shape", "bell"),
            obs_noise_pos=float(train_cfg.get("obs_noise_pos", 0.0)),
            center_jitter=float(train_cfg.get("center_jitter", 0.0)),
        ),
        seed=int(cfg.get("seed", 0)),
    )


def load_study(path) -> ComparisonStudy:
    with open(path, encoding="utf-8") as f:
        return study_from_dict(yaml.safe_load(f))


@dataclass
class MotionTable:
    """Per-tick truth arrays plus the (possibly noisy) observed positions."""

    times: np.ndarray  # (N,)
    truth_pos: np.ndarray  # (N, 3)
    vel: np.ndarray  # (N, 3)
    acc: np.ndarray  # (N, 3)
    orient: np.ndarray  # (N,)
    obs_pos: np.ndarray  # (N, 3)
    dev: np.ndarray  # (N, 3); one-tick second-order deviation, row 0 is zero
    tick: float


def build_motion_table(
    traj: Trajectory, tick: float, duration: float, obs_noise_pos: float, seed: int
) -> MotionTable:
    n = int(round(duration / tick)) + 1
    times = np.arange(n) * tick
    truth = truth_arrays(traj, np.minimum(times, traj.duration))
    truth_pos, vel, acc = truth.position, truth.velocity, truth.acceleration
    orient = truth.orientation
    obs_pos = truth_pos
    if obs_noise_pos > 0.0:
        rng = np.random.default_rng(seed)
        obs_pos = truth_pos + rng.normal(0.0, obs_noise_pos, truth_pos.shape)
    # Observed one-tick residual of the second-order model; the feature that
    # tells the corrector how wrong plain extrapolation currently is.
    dev = np.zeros_like(obs_pos)
    extrap_prev = obs_pos[:-1] + vel[:-1] * tick + 0.5 * acc[:-1] * tick * tick
    dev[1:] = obs_pos[1:] - extrap_prev
    return MotionTable(times, truth_pos, vel, acc, orient, obs_pos, dev, tick)


def _base_prediction(table: MotionTable, idx: np.ndarray, h_sec: float, order: Order) -> np.ndarray:
    pos = table.obs_pos[idx]
    vel = table.vel[idx]
    if Order(order) is Order.FIRST:
        return pos + vel * h_sec
    return pos + vel * h_sec + 0.5 * table.acc[idx] * h_sec * h_sec


def _axis_ranges(table: MotionTable, train_idx: np.ndarray) -> list[list[tuple[float, float]]]:
    """Declared input ranges per axis: deviation, velocity, orientation."""
    ranges = []
    orient_span = max(0.5 * math.pi, float(np.max(np.abs(table.orient[train_idx]))) * 1.001)
    for k in range(3):
        dev_span = float(np.max(np.abs(table.dev[train_idx, k]))) or 1.0
        vel_span = float(np.max(np.abs(table.vel[train_idx, k]))) or 1.0
        ranges.append(
            [(-dev_span, dev_span), (-vel_span, vel_span), (-orient_span, orient_span)]
        )
    return ranges


def _axis_training_set(
    table: MotionTable, train_idx: np.ndarray, horizon_ticks: int, axis: int
) -> TrainingSet:
    h_sec = horizon_ticks * table.tick
    base = _base_prediction(table, train_idx, h_sec, Order.SECOND)
    targets = table.truth_pos[train_idx + horizon_ticks, axis] - base[:, axis]
    feats = np.column_stack(
        [table.dev[train_idx, axis], table.vel[train_idx, axis], table.orient[train_idx]]
    )
    return TrainingSet(feats, targets)


def _axis_network(spec: TrainSpec, ranges: list[tuple[float, float]], seed: int) -> AnfisNetwork:
    """The untrained corrector of one axis over its (deviation, velocity,
    orientation) input ranges."""
    return build_network(
        [("deviation", *ranges[0]), ("velocity", *ranges[1]), ("orientation", *ranges[2])],
        n_terms=spec.n_terms,
        shape=spec.shape,
        rule_base=spec.rule_base,
        eta=spec.eta,
        seed=seed,
        center_jitter=spec.center_jitter,
    )


def _study_table(study: ComparisonStudy) -> MotionTable:
    return build_motion_table(
        study.trajectory, study.tick, study.duration, study.train.obs_noise_pos, study.seed
    )


def train_bundle(
    study: ComparisonStudy, horizon_ticks: int, table: MotionTable | None = None
) -> AnfisBundle:
    """Train the per-axis corrector networks for one prediction horizon.

    table is the study's motion table, built here when not given.
    """
    if table is None:
        table = _study_table(study)
    n = len(table.times)
    split_idx = int(n * study.train.split)
    train_idx = np.arange(1, split_idx - horizon_ticks)
    if len(train_idx) < 2:
        raise ValidationError("study too short for this horizon/split")
    ranges = _axis_ranges(table, train_idx)
    train = anfis.train_hybrid if study.train.regime == "hybrid" else anfis.train_gd
    nets = []
    for axis in range(3):
        data = _axis_training_set(table, train_idx, horizon_ticks, axis)
        seed = study.seed + 7919 * axis + 104729 * horizon_ticks
        nets.append(_axis_network(study.train, ranges[axis], seed))
        train(nets[-1], data, study.train.epochs)
    return AnfisBundle(nets, h_ref=horizon_ticks * study.tick, feature_tick=study.tick)


@dataclass
class ComparisonResult:
    horizons: tuple[int, ...]
    predictors: tuple[str, ...]
    mae: dict[str, list[float]]  # predictor -> per-horizon mean absolute error

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("horizon," + ",".join(self.predictors) + "\n")
        for row, h in enumerate(self.horizons):
            vals = ",".join(format_sig(self.mae[p][row]) for p in self.predictors)
            buf.write(f"{h},{vals}\n")
        return buf.getvalue()


def run_comparison(study: ComparisonStudy) -> ComparisonResult:
    """Score each configured predictor at each horizon on held-out time."""
    table = _study_table(study)
    n = len(table.times)
    split_idx = int(n * study.train.split)
    mae: dict[str, list[float]] = {p: [] for p in study.predictors}
    for h in study.horizons:
        test_idx = np.arange(split_idx, n - h)
        if len(test_idx) < 1:
            raise ValidationError(f"no test samples left at horizon {h}")
        h_sec = h * study.tick
        truth_ahead = table.truth_pos[test_idx + h]
        bundle = train_bundle(study, h, table) if "anfis" in study.predictors else None
        for p in study.predictors:
            if p == "anfis":
                base = _base_prediction(table, test_idx, h_sec, Order.SECOND)
                corr = bundle.corrections(
                    table.dev[test_idx], table.vel[test_idx], table.orient[test_idx], h_sec
                )
                pred = base + corr
            else:
                pred = _base_prediction(table, test_idx, h_sec, Order(p))
            err = np.linalg.norm(pred - truth_ahead, axis=1)
            mae[p].append(float(np.mean(err)))
    return ComparisonResult(tuple(study.horizons), tuple(study.predictors), mae)


def make_residual_task(
    traj: Trajectory,
    tick: float,
    duration: float,
    horizon_ticks: int,
    n_samples: int,
    axis: int = 0,
    obs_noise_pos: float = 0.0,
    seed: int = 0,
    n_terms: int = 7,
    rule_base: str = "compact",
    shape: str = "bell",
    eta: float = 0.05,
    center_jitter: float = 0.0,
) -> tuple[AnfisNetwork, TrainingSet]:
    """Desk-scale residual-learning task: untrained network plus its data."""
    table = build_motion_table(traj, tick, duration, obs_noise_pos, seed)
    last = len(table.times) - horizon_ticks
    idx = np.arange(1, last)
    if len(idx) < n_samples:
        raise ValidationError(f"trajectory yields only {len(idx)} samples, need {n_samples}")
    idx = idx[:n_samples]
    ranges = _axis_ranges(table, idx)[axis]
    data = _axis_training_set(table, idx, horizon_ticks, axis)
    spec = TrainSpec(
        n_terms=n_terms, rule_base=rule_base, shape=shape, eta=eta, center_jitter=center_jitter
    )
    return _axis_network(spec, ranges, seed), data
