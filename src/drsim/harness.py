"""Scenario orchestration: truth -> sender gate -> channel -> receiver -> metrics.

Also hosts the predictor comparison study (train a neuro-fuzzy residual
corrector, then score every configured predictor over a range of lookahead
horizons) and the parameter sweep driver. Everything is seeded and
single-threaded, so identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import math
import numbers
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import anfis
from .anfis import AnfisBundle, AnfisNetwork, TrainingSet, build_network, features
from .dead_reckoning import DrConfig, display, gate, predict_positions, row_norms
from .errors import DegenerateFiringError, ValidationError
from .kinematics import Order, StateArrays, Trajectory, truth_arrays, wrap_angles
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

@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str = "scenario"
    trajectory: Trajectory
    dr: DrConfig = field(default_factory=DrConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    profile: QosProfile = field(default_factory=QosProfile.loosely_coupled)
    tick: float
    duration: float
    seed: int = 0
    message_size_bytes: int = 144  # bytes per update, order of a full entity-state packet
    truth: StateArrays = field(init=False, repr=False, compare=False)  # at every tick
    # The anfis corrector's output (N, 3) at every row of truth; None without a corrector.
    corrections: np.ndarray | None = field(init=False, repr=False, compare=False)
    # The bundle the corrections came from: the scenario's own copy, which dr
    # holds; a run fails if dr holds another.
    _bundle: AnfisBundle | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "truth", _checked_truth(self, "scenario"))
        if self.message_size_bytes <= 0:
            raise ValidationError("message_size_bytes must be positive")
        bundle, corrections = self.dr.anfis_bundle, None  # a bundle comes with the anfis predictor
        if bundle is not None:
            if bundle.feature_tick != self.tick:
                ticks = f"{bundle.feature_tick} s tick, but the run's tick is {self.tick} s"
                raise ValidationError(f"'anfis_net' was trained on a {ticks}")
            # A copy, so that later edits to the bundle passed in cannot reach its corrections.
            bundle = copy.deepcopy(bundle)
            object.__setattr__(self, "dr", dataclasses.replace(self.dr, anfis_bundle=bundle))
            try:
                corrections = bundle.residuals(features(self.truth, bundle.feature_tick))
            except DegenerateFiringError as exc:
                t = self.truth.time[exc.rows[0]]
                raise ValidationError(
                    f"'anfis_net' fires no rule at t = {t} s: its inputs there are too far "
                    "outside every term"
                ) from None
        object.__setattr__(self, "corrections", corrections)
        object.__setattr__(self, "_bundle", bundle)

    @property
    def n_ticks(self) -> int:
        """Ticks after t = 0; the run samples n_ticks + 1 times."""
        return len(self.truth.time) - 1


def _checked_truth(config: Scenario | ComparisonStudy, what: str) -> StateArrays:
    """The truth of config, a run or a study, at t = 0 and each whole tick, after
    checking that there is a tick and that truth is finite at every one. The
    tick count is floored (3.5 s at a 1 s tick is 3) after a relative 1e-9
    allowance, so that a multiple whose quotient rounds low counts (0.3 / 0.1)."""
    tick, duration, trajectory = config.tick, config.duration, config.trajectory
    if not (math.isfinite(tick) and tick > 0.0):
        raise ValidationError(f"tick must be positive, got {tick}")
    if not duration >= tick:
        raise ValidationError("duration must cover at least one tick")
    times = np.arange(math.floor(duration / tick * (1.0 + 1e-9)) + 1) * tick
    last_tick = float(times[-1])
    if not trajectory.covers(last_tick):
        raise ValidationError(
            f"{what} duration {duration} s is longer than its trajectory's "
            f"duration {trajectory.duration} s (last tick at t={last_tick})"
        )
    try:  # fail at load, and without numpy's warning, on a motion law that overflows
        with np.errstate(all="ignore"):
            return truth_arrays(trajectory, times)
    except ValidationError as exc:
        given = ", ".join(f"{k}={np.asarray(v).tolist()}" for k, v in trajectory.params.items())
        raise ValidationError(
            f"a {trajectory.kind} trajectory with {given} overflows by t = {last_tick}: {exc}"
        ) from None


def _keys(cls) -> frozenset:
    return frozenset(f.name for f in dataclasses.fields(cls) if f.init)


# Field types a config file holds; a tuple field reads a list of one of them.
_SCALARS = (bool, int, float, str, Order)
# The values a flag, an integer or a number field takes: a bool is neither of the last two.
_KINDS = {
    bool: (bool, "true or false"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
}


def _from_file(tp) -> bool:
    return tp in _SCALARS or (typing.get_origin(tp) is tuple and typing.get_args(tp)[0] in _SCALARS)


def _convert(tp, value):
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_convert(typing.get_args(tp)[0], v) for v in value)
    if tp in _KINDS:
        kind, what = _KINDS[tp]
        if not isinstance(value, kind) or (tp is not bool and isinstance(value, bool)):
            raise TypeError(f"expected {what}, got {value!r}")
    return tp(value)


def _mapping(cfg, where: str) -> dict:
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(cfg).__name__}")
    return cfg


def _read_section(cls, cfg, where: str, raw=()) -> dict:
    """The keyword arguments for dataclass cls that cfg, a config file's section
    where, sets. A key is a field of cls of a type in _SCALARS, its value
    converted by that type, or one of raw, left for the caller to read. Fields
    cfg leaves out take their defaults. Errors name where and the key."""
    cfg = _mapping(cfg, where)
    types = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name in raw or _from_file(types[f.name])]
    allowed = {f.name for f in fields} | set(raw)
    values = {}
    for key, value in cfg.items():
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(sorted(allowed))}"
            )
        try:
            values[key] = value if key in raw else _convert(types[key], value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad value for {key!r} in {where}: {exc}") from None
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in cfg:
            raise ValidationError(f"missing key {f.name!r} in {where}")
    return values


def _trajectory_from_config(cfg, duration: float) -> Trajectory:
    """kind and duration, by default the run's, are the section's own keys;
    the others are parameters of the kind, which Trajectory checks."""
    cfg = _mapping(cfg, "trajectory")
    own = {key: cfg[key] for key in ("kind", "duration") if key in cfg}
    params = {key: value for key, value in cfg.items() if key not in own}
    return Trajectory(
        **_read_section(Trajectory, {"duration": duration, **own}, "trajectory"), params=params
    )


def _dr_from_config(cfg, base_dir: Path | None) -> DrConfig:
    dr = _read_section(DrConfig, cfg, "dr", raw=("anfis_net",))
    net_path = dr.pop("anfis_net", None)
    if net_path is not None:  # relative to the run file; an absolute path stays as it is
        dr["anfis_bundle"] = AnfisBundle.load(Path(base_dir or ".", net_path))
    return DrConfig(**dr)


# A named profile's bounds are fixed; a file sets bounds only in a custom one.
_NAMED_PROFILES = (QosProfile.tightly_coupled(), QosProfile.loosely_coupled())


def _profile_from_config(cfg) -> QosProfile:
    cfg = _mapping(cfg, "profile")
    named = [p for p in _NAMED_PROFILES if p.name == cfg.get("name")]
    extra = [key for key in cfg if key != "name"]
    if named and extra:
        raise ValidationError(
            f"key {extra[0]!r} in profile: the {named[0].name} profile has fixed bounds; "
            "set them in a custom profile"
        )
    return named[0] if named else QosProfile(**_read_section(QosProfile, cfg, "profile"))


def scenario_from_dict(cfg: dict, base_dir: Path | None = None) -> Scenario:
    if isinstance(cfg, dict):
        study_only = sorted(cfg.keys() & (_keys(ComparisonStudy) - _keys(Scenario)))
        if study_only:
            raise ValidationError(
                f"key {study_only[0]!r} belongs to a study file; use drsim compare or drsim train"
            )
    run = _read_section(Scenario, cfg, "run file", raw=("trajectory", "dr", "channel", "profile"))
    run["trajectory"] = _trajectory_from_config(run["trajectory"], run["duration"])
    if "dr" in run:
        run["dr"] = _dr_from_config(run["dr"], base_dir)
    if "profile" in run:
        run["profile"] = _profile_from_config(run["profile"])
    channel = _read_section(ChannelConfig, run.pop("channel", {}), "channel")
    # A channel without a seed of its own draws from the run's.
    channel.setdefault("seed", run.get("seed", 0))
    return Scenario(**run, channel=ChannelConfig(**channel))


# libyaml's parser where PyYAML was built with it: it builds the same values as
# the pure-Python SafeLoader, several times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _read_config(path) -> object:
    """The document of the YAML file at path, read as yaml.safe_load reads it."""
    with open(path, encoding="utf-8") as f:
        return yaml.load(f, Loader=_YAML_LOADER)


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_config(path), base_dir=path.parent)


@dataclass
class RunResult:
    report: CoherenceReport
    series: ErrorSeries
    send_times: list[float] = field(default_factory=list)
    delivery_times: list[float] = field(default_factory=list)


def run_scenario(sc: Scenario) -> RunResult:
    """Simulate one sender/receiver pair over one channel on the tick grid.

    Each stage works on the whole run at once: the truth and the corrector's
    output computed at load, then the sender's updates segment by segment, the
    channel's fate for each update in send order, and the receiver's display
    for every tick. sc.dr must still hold the bundle sc loaded.
    """
    if sc.dr.anfis_bundle is not sc._bundle:
        raise ValidationError("'anfis_net' was replaced after load; build the scenario again")
    truth = sc.truth
    log = gate(truth, sc.dr, sc.corrections)
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
        transit = due[delivered] - truth.time[log.rows[delivered]]
        report.max_prop_delay = max(0.0, float(np.max(transit)))
    if len(series):
        report.max_error = max(series.e_pos)
        report.integrated_error = integrated_error(series)
        report.violation_windows = violation_windows(series, sc.dr.th_pos)
        report.total_violation_time = sum(w.length for w in report.violation_windows)
    report.passed, report.reasons = verdict(report, sc.profile, sc.channel, len(series) > 0)
    return RunResult(report, series, send_times, delivery_times)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

# Each axis a sweep can vary, with the Scenario section it is a key of.
SWEEP_AXES = {"th_pos": "dr", "base_delay": "channel", "loss": "channel"}


@dataclass(frozen=True)
class SweepRow:
    value: float
    messages_sent: int = 0
    max_error: float = 0.0
    total_violation_time: float = 0.0
    error: str = ""


def _scenario_with(sc: Scenario, axis: str, value: float) -> Scenario:
    """sc with axis set to value. Only its dr or channel section changes, which
    checks itself, and no axis changes the bundle, so the copy keeps sc's truth
    and corrections instead of computing them again."""
    name = SWEEP_AXES[axis]
    run = copy.copy(sc)
    object.__setattr__(run, name, dataclasses.replace(getattr(sc, name), **{axis: value}))
    return run


def sweep(base: Scenario, axis: str, values: list[float]) -> list[SweepRow]:
    """One seeded run per value; per-row failures are reported, not fatal."""
    if axis not in SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
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
    """A study's training settings.

    Training reads split, n_terms, shape and obs_noise_pos. It reads nothing of
    epochs, eta, regime and rule_base: each axis is one ridge solve at its
    initial premises (anfis.train_networks), regime accepts only hybrid and
    rule_base only grid. The four keys stay, checked at load as before, only so
    that the benchmark's training settings (ANFIS_TRAIN in bench/workloads.py)
    load and read back."""

    epochs: int = 4
    eta: float = 0.01
    regime: str = "hybrid"
    split: float = 0.7
    n_terms: int = 7
    rule_base: str = "grid"
    shape: str = "bell"
    obs_noise_pos: float = 0.0

    def __post_init__(self):
        for key, value, allowed in (
            ("regime", self.regime, ("hybrid",)),
            ("rule_base", self.rule_base, ("grid",)),
            ("shape", self.shape, tuple(anfis.SHAPES)),
        ):
            if value not in allowed:
                raise ValidationError(f"unknown {key!r} in train: {value!r}; choose from {allowed}")
        if not 0.0 < self.split < 1.0:
            raise ValidationError(f"split must be in (0, 1), got {self.split}")
        for key, low in (("epochs", 1), ("n_terms", 1), ("eta", 0), ("obs_noise_pos", 0)):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= low):
                raise ValidationError(f"{key!r} in train must be >= {low}, got {value}")


@dataclass(frozen=True)
class ComparisonStudy:
    trajectory: Trajectory
    tick: float
    duration: float
    horizons: tuple[int, ...] = tuple(range(1, 11))
    predictors: tuple[str, ...] = ("second", "anfis")
    train: TrainSpec = field(default_factory=TrainSpec)
    seed: int = 0
    table: MotionTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        truth = _checked_truth(self, "study")
        if self.seed < 0:
            raise ValidationError(f"'seed' in study file must be >= 0, got {self.seed}")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValidationError("horizons must be positive tick counts")
        for p in self.predictors:
            if p not in PREDICTOR_NAMES:
                raise ValidationError(f"unknown predictor {p!r}")
        for key, values in (("horizons", self.horizons), ("predictors", self.predictors)):
            for v in values:
                if values.count(v) > 1:
                    raise ValidationError(f"{key!r} in study file lists {v!r} more than once")
        # Last: the observation noise draws from the seed checked above.
        object.__setattr__(self, "table", build_motion_table(self, truth))


def study_from_dict(cfg: dict) -> ComparisonStudy:
    study = _read_section(ComparisonStudy, cfg, "study file", raw=("trajectory", "train"))
    study["trajectory"] = _trajectory_from_config(study["trajectory"], study["duration"])
    study["train"] = TrainSpec(**_read_section(TrainSpec, study.get("train", {}), "train"))
    return ComparisonStudy(**study)


def load_study(path) -> ComparisonStudy:
    return study_from_dict(_read_config(path))


@dataclass
class MotionTable:
    """A study's truth on its tick grid, and the same rows as observed."""

    truth: StateArrays
    observed: StateArrays  # truth with the (possibly noisy) observed positions
    inputs: np.ndarray  # (3, N, 3); the corrector's inputs at each observed row


def build_motion_table(study: ComparisonStudy, truth: StateArrays) -> MotionTable:
    observed = truth
    if study.train.obs_noise_pos > 0.0:
        rng = np.random.default_rng(study.seed)
        noise = rng.normal(0.0, study.train.obs_noise_pos, truth.position.shape)
        observed = dataclasses.replace(truth, position=truth.position + noise)
    return MotionTable(truth, observed, features(observed, study.tick))


def _training_sets(
    table: MotionTable, split_idx: int, horizons: list[int], tick: float
) -> list[TrainingSet]:
    """Per axis, one set for all of horizons: the corrector's inputs at rows
    1 .. split_idx - max(horizons) - 1, the rows whose target every horizon
    reaches before the split, with one target column per horizon h, in the
    order of horizons: the residual of second-order projection h ticks ahead."""
    n = split_idx - max(horizons) - 1
    observed, rows = table.observed, slice(1, n + 1)
    half_a, second = 0.5 * observed.acceleration, DrConfig()
    targets = np.empty((3, n, len(horizons)))
    for j, h in enumerate(horizons):
        pred = predict_positions(observed, half_a, rows, np.array([h * tick]), second, None)
        targets[:, :, j] = (table.truth.position[1 + h : n + 1 + h] - pred).T
    return [TrainingSet(table.inputs[k, rows], targets[k]) for k in range(3)]


def _axis_network(spec: TrainSpec, data: TrainingSet) -> AnfisNetwork:
    """The untrained corrector of one axis for data's (deviation, velocity,
    orientation) inputs.

    Each input's range is symmetric about zero and reaches its largest
    magnitude in the set, or 1 for an input that is zero throughout; the
    orientation's reaches 0.1% past it, and at least pi/2. An input that holds
    one value over the set gets one term, the others spec.n_terms: terms of an
    input that never varies fire at fixed degrees, so their rules would only
    repeat each other."""
    hi, lo = data.inputs.max(axis=0), data.inputs.min(axis=0)
    dev_span, vel_span, orient_span = np.maximum(hi, -lo).tolist()
    spans = (dev_span or 1.0, vel_span or 1.0, max(0.5 * math.pi, orient_span * 1.001))
    names = ("deviation", "velocity", "orientation")
    return build_network(
        [(name, -span, span) for name, span in zip(names, spans)],
        n_terms=[1 if same else spec.n_terms for same in (hi == lo).tolist()],
        shape=spec.shape,
    )


def train_bundle(
    study: ComparisonStudy, horizon_ticks: int | tuple[int, ...]
) -> AnfisBundle | tuple[AnfisBundle, ...]:
    """Train the per-axis corrector networks for one prediction horizon, or a
    bundle for each of a tuple of horizons, returned in the tuple's order.

    The horizons asked for train together with the study's own, so a study
    horizon's bundle is the same whether asked for alone or with other study
    horizons. All train on the rows whose target the longest of them reaches
    before the split (_training_sets). Each axis builds one network from those rows
    (_axis_network) and trains every horizon's consequents at its premises with
    one forward pass and one ridge solve (anfis.train_networks). A study too
    short for its longest horizon fails, naming that horizon.
    """
    many = isinstance(horizon_ticks, tuple)
    ticks = horizon_ticks if many else (horizon_ticks,)
    if min(ticks) < 1:
        raise ValidationError(f"horizon {min(ticks)} must be a positive tick count")
    ordered = sorted(set(study.horizons) | set(ticks))
    split_idx = int(len(study.table.truth.time) * study.train.split)
    longest = ordered[-1]
    n = split_idx - longest - 1  # rows 1 .. n train every horizon
    too_short = (
        f"study too short for horizon {longest}: {max(n, 0)} training row(s) before the split"
    )
    if n < 1:
        raise ValidationError(too_short)
    sets = _training_sets(study.table, split_idx, ordered, study.tick)
    axes = []
    for axis, data in zip(anfis.AXIS_NAMES, sets):
        net = _axis_network(study.train, data)
        if n < net.n_rules:
            rules = f"the {net.n_rules} rules of its {axis} network"
            raise ValidationError(f"{too_short}, fewer than {rules}")
        axes.append(anfis.train_networks(net, data))
    bundles = {
        h: AnfisBundle([nets[j] for nets in axes], h * study.tick, study.tick)
        for j, h in enumerate(ordered)
    }
    return tuple(bundles[h] for h in ticks) if many else bundles[horizon_ticks]


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
    """Score each configured predictor at each horizon on held-out time, as runs predict."""
    table = study.table
    observed, n = table.observed, len(table.truth.time)
    split_idx = int(n * study.train.split)
    horizons = tuple(study.horizons)
    for h in horizons:
        if split_idx >= n - h:
            raise ValidationError(f"no test samples left at horizon {h}")
    if "anfis" in study.predictors:
        # Horizon h holds out rows split_idx .. n - h - 1, a prefix of the
        # shortest horizon's: one scoring pass serves them all.
        bundles = train_bundle(study, horizons)
        held_out = table.inputs[:, split_idx : n - min(horizons)]
        residuals = anfis.bundle_residuals(bundles, held_out, [n - h - split_idx for h in horizons])
    half_a = 0.5 * observed.acceleration
    mae: dict[str, list[float]] = {p: [] for p in study.predictors}
    for j, h in enumerate(horizons):
        test = slice(split_idx, n - h)
        dt = np.array([h * study.tick])  # one horizon for every row
        truth_ahead = table.truth.position[split_idx + h :]
        for p in study.predictors:
            if p == "anfis":
                config = DrConfig(predictor="anfis", anfis_bundle=bundles[j])
                residual = residuals[j]
            else:
                config, residual = DrConfig(order=p), None
            pred = predict_positions(observed, half_a, test, dt, config, residual)
            err = np.linalg.norm(pred - truth_ahead, axis=1)
            mae[p].append(float(np.mean(err)))
    return ComparisonResult(horizons, tuple(study.predictors), mae)
