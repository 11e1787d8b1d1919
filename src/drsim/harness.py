"""Scenario orchestration: truth -> sender gate -> channel -> receiver -> metrics.

Also hosts the predictor comparison study (train a neuro-fuzzy residual
corrector, then score every configured predictor over a range of lookahead
horizons) and the parameter sweep driver. Everything is seeded and
single-threaded, so identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np
import yaml

from . import anfis
from .anfis import AnfisBundle, TrainingSet, build_network, features
from .config import FiniteNonNegative, FinitePositive, NonNegativeInt, OpenFraction, PositiveInt
from .config import mapping, read_section, type_fields
from .dead_reckoning import DrConfig, Predictor, SendLog, check_corrector, display, gate, row_norms
from .errors import DegenerateFiringError, ValidationError
from .kinematics import Correction, StateArrays, Trajectory, predict_positions
from .kinematics import truth_arrays, wrap_angles
from .kinematics import sample_truth  # noqa: F401 -- bench/tracer.py wraps it here
from .netsim import ChannelConfig, fates
from .qos_metrics import (
    NAMED_PROFILES,
    NOTHING_DISPLAYED,
    CoherenceReport,
    ErrorSeries,
    QosProfile,
    fixed_bounds,
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
    tick: FinitePositive
    duration: FinitePositive
    seed: NonNegativeInt = 0
    message_size_bytes: PositiveInt = 144  # bytes per update, order of a full entity-state packet
    truth: StateArrays = field(init=False, repr=False, compare=False)  # at every tick
    # At every row of truth, None without a corrector: all a run reads of it, taken at load.
    correction: Correction | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        type_fields(self, "run file")
        object.__setattr__(self, "truth", _checked_truth(self))
        bundle, correction = self.dr.anfis_bundle, None  # a bundle comes with the anfis predictor
        if bundle is not None:
            if bundle.feature_tick != self.tick:
                ticks = f"{bundle.feature_tick} s tick, but the run's tick is {self.tick} s"
                raise ValidationError(f"'anfis_net' was trained on a {ticks}")
            try:
                correction = bundle.correction(self.truth)
            except DegenerateFiringError as exc:
                t = self.truth.time[exc.rows[0]]
                raise ValidationError(
                    f"'anfis_net' fires no rule at t = {t} s: its inputs there are too far "
                    "outside every term"
                ) from None
        object.__setattr__(self, "correction", correction)


def _checked_truth(config: Scenario | ComparisonStudy) -> StateArrays:
    """The truth of config, a run or a study, at t = 0 and each whole tick, after
    checking that its duration holds a tick before any array is made, and that
    truth is finite at each. The tick count is floored (3.5 s at a 1 s tick is
    3) after a relative 1e-9 allowance, so that a multiple whose quotient rounds
    low counts (0.3 / 0.1); a last tick that rounds past the duration is taken
    at the duration (7 x 0.1 s is 0.7000000000000001 s)."""
    tick, duration, trajectory = config.tick, config.duration, config.trajectory
    ticks = duration / tick * (1.0 + 1e-9)
    if not (duration >= tick and math.isfinite(ticks)):
        raise ValidationError(
            f"duration must hold a finite count of {tick} s ticks, at least one, got {duration}"
        )
    times = np.minimum(np.arange(math.floor(ticks) + 1) * tick, duration)
    try:  # fail at load, and without numpy's warning, on a motion law that overflows
        with np.errstate(all="ignore"):
            return truth_arrays(trajectory, times)
    except ValidationError as exc:
        given = ", ".join(f"{k}={np.asarray(v).tolist()}" for k, v in trajectory.params.items())
        raise ValidationError(
            f"a {trajectory.kind} trajectory with {given} overflows by t = {times[-1]}: {exc}"
        ) from None


def _keys(cls) -> frozenset:
    return frozenset(f.name for f in dataclasses.fields(cls) if f.init)


def _trajectory_from_config(cfg) -> Trajectory:
    """kind is the section's own key; the others are parameters of the kind,
    which Trajectory checks."""
    cfg = mapping(cfg, "trajectory")
    own = {key: value for key, value in cfg.items() if key == "kind"}
    params = {key: value for key, value in cfg.items() if key != "kind"}
    return Trajectory(**read_section(Trajectory, own, "trajectory"), params=params)


def _dr_from_config(cfg, base_dir: Path | None) -> DrConfig:
    dr = read_section(DrConfig, cfg, "dr", raw={"anfis_net": str})
    net_path = dr.pop("anfis_net", None)
    check_corrector(dr.get("predictor", DrConfig.predictor), net_path, "anfis_net")
    if net_path is not None:
        try:  # relative to the run file; an absolute path stays as it is
            dr["anfis_bundle"] = AnfisBundle.load(Path(base_dir or ".", net_path))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or text, or no bundle
            raise ValidationError(f"cannot load 'anfis_net' {net_path!r} in dr: {exc}") from None
    return DrConfig(**dr)


def _profile_from_config(cfg) -> QosProfile:
    cfg = mapping(cfg, "profile")
    named = [name for name in NAMED_PROFILES if name == cfg.get("name")]
    extra = [key for key in cfg if key != "name"]
    if named and extra:  # a file sets bounds only in a custom profile
        raise fixed_bounds(named[0], extra[0])
    if named:
        return QosProfile(name=named[0], **NAMED_PROFILES[named[0]])
    return QosProfile(**read_section(QosProfile, cfg, "profile"))


def scenario_from_dict(cfg: dict, base_dir: Path | None = None) -> Scenario:
    if isinstance(cfg, dict):
        study_only = sorted(cfg.keys() & (_keys(ComparisonStudy) - _keys(Scenario)))
        if study_only:
            raise ValidationError(
                f"key {study_only[0]!r} belongs to a study file; use drsim compare or drsim train"
            )
    run = read_section(Scenario, cfg, "run file")
    run["trajectory"] = _trajectory_from_config(run["trajectory"])
    if "dr" in run:
        run["dr"] = _dr_from_config(run["dr"], base_dir)
    if "profile" in run:
        run["profile"] = _profile_from_config(run["profile"])
    channel = read_section(ChannelConfig, run.pop("channel", {}), "channel")
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
    """Simulate one sender/receiver pair over one channel on the tick grid: the
    gate's send log from truth, dr and the load-time correction, then its delivery."""
    return _deliver(sc, sc.dr, sc.channel, gate(sc.truth, sc.dr, sc.correction), sc.correction)


def _deliver(
    sc: Scenario, dr: DrConfig, link: ChannelConfig, log: SendLog, correction: Correction | None
) -> RunResult:
    """sc's run with dr, link and correction in place of its own, from log, the
    gate's send log for them: the channel's fate for each update in send order,
    the receiver's display at every tick, the error series, the report and the
    verdict."""
    truth = sc.truth
    send_times = truth.time[log.rows].tolist()
    due = fates(link, send_times)
    first, shown_pos, shown_or = display(truth, log, due, dr, correction)
    series = ErrorSeries.from_arrays(
        sc.tick,
        truth.time[first:],
        row_norms(truth.position[first:] - shown_pos),
        np.abs(wrap_angles(truth.orientation[first:] - shown_or)),
    )

    delivered = np.flatnonzero(np.isfinite(due))
    delivery_times = np.sort(due[delivered]).tolist()
    report = CoherenceReport()
    report.messages_sent = len(due)
    report.messages_delivered = len(delivered)
    report.messages_dropped = len(due) - len(delivered)
    report.bytes_sent = len(due) * sc.message_size_bytes
    report.heartbeats = log.heartbeats
    report.v_dev_max_send = log.v_dev_max
    if len(delivered):
        transit = due[delivered] - truth.time[log.rows[delivered]]
        report.max_prop_delay = max(0.0, float(np.max(transit)))
    if len(series):
        report.max_error = float(series.e_pos.max())
        report.integrated_error = integrated_error(series)
        report.violation_windows = violation_windows(series, dr.th_pos)
        report.total_violation_time = sum(w.length for w in report.violation_windows)
    report.passed, report.reasons = verdict(report, sc.profile, link, len(series) > 0)
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


def sweep(base: Scenario, axis: str, values: list[float]) -> list[SweepRow]:
    """One seeded run per value, as run_scenario runs base with axis set to it;
    per-row failures are reported, not fatal. A channel axis changes nothing the
    gate reads, so one send log serves every value; a dr axis gates per value. A
    run whose receiver displayed nothing gets the verdict's reason as its error:
    its zero errors would otherwise read as a perfect run."""
    if axis not in SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
    if not values:
        raise ValidationError("sweep needs at least one value")
    rows, log, section = [], None, SWEEP_AXES[axis]
    for value in values:
        try:
            changed = dataclasses.replace(getattr(base, section), **{axis: float(value)})
            dr, link = (changed, base.channel) if section == "dr" else (base.dr, changed)
            if log is None or section == "dr":
                log = gate(base.truth, dr, base.correction)
            run = _deliver(base, dr, link, log, base.correction)
            rows.append(
                SweepRow(
                    value=float(value),
                    messages_sent=run.report.messages_sent,
                    max_error=run.report.max_error,
                    total_violation_time=run.report.total_violation_time,
                    error="" if len(run.series) else NOTHING_DISPLAYED,
                )
            )
        except Exception as exc:
            rows.append(SweepRow(value=float(value), error=str(exc)))
    return rows


def sweep_csv(axis: str, rows: list[SweepRow]) -> str:
    """rows as CSV under a header naming axis; csv quotes an error cell that
    holds a comma or a quote, so every row reads back as five fields."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow((axis, "messages_sent", "max_error", "total_violation_time", "error"))
    for r in rows:
        out.writerow(
            (
                format_sig(r.value),
                r.messages_sent,
                format_sig(r.max_error),
                format_sig(r.total_violation_time),
                r.error,
            )
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Predictor comparison study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    """A study's training settings.

    Training reads split, n_terms, shape and obs_noise_pos. It reads nothing of
    epochs, eta, regime and rule_base: each axis is one ridge solve at its
    initial premises (anfis.train_networks). The four keys stay, checked at
    load, only so that the benchmark's training settings (ANFIS_TRAIN in
    bench/workloads.py) load and read back."""

    epochs: PositiveInt = 4
    eta: FiniteNonNegative = 0.01
    regime: Literal["hybrid"] = "hybrid"
    split: OpenFraction = 0.7
    n_terms: PositiveInt = 7
    rule_base: Literal["grid"] = "grid"
    shape: anfis.Shape = "bell"
    obs_noise_pos: FiniteNonNegative = 0.0

    def __post_init__(self):
        type_fields(self, "train")


@dataclass(frozen=True)
class ComparisonStudy:
    trajectory: Trajectory
    tick: FinitePositive
    duration: FinitePositive
    horizons: tuple[PositiveInt, ...] = tuple(range(1, 11))
    predictors: tuple[Predictor, ...] = ("second", "anfis")
    train: TrainSpec = field(default_factory=TrainSpec)
    seed: NonNegativeInt = 0
    table: MotionTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        type_fields(self, "study file")
        truth = _checked_truth(self)
        for key, values in (("horizons", self.horizons), ("predictors", self.predictors)):
            if not values:
                raise ValidationError(f"{key!r} in study file lists no {key[:-1]}")
            for v in values:
                if values.count(v) > 1:
                    raise ValidationError(f"{key!r} in study file lists {v!r} more than once")
        # Last: the observation noise draws from the seed typed above.
        object.__setattr__(self, "table", build_motion_table(self, truth))


def study_from_dict(cfg: dict) -> ComparisonStudy:
    study = read_section(ComparisonStudy, cfg, "study file")
    study["trajectory"] = _trajectory_from_config(study["trajectory"])
    study["train"] = TrainSpec(**read_section(TrainSpec, study.get("train", {}), "train"))
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
    targets = np.empty((3, n, len(horizons)))
    for j, h in enumerate(horizons):
        pred = predict_positions(observed, "second", rows, np.array([h * tick]))
        targets[:, :, j] = (table.truth.position[1 + h : n + 1 + h] - pred).T
    return [TrainingSet(table.inputs[k, rows], targets[k]) for k in range(3)]


def _axis_inputs(spec: TrainSpec, data: TrainingSet) -> tuple[list, list[int]]:
    """The (name, lo, hi) of each of data's (deviation, velocity, orientation)
    inputs and its term count, for build_network: the untrained corrector of one
    axis is build_network(*_axis_inputs(spec, data), shape=spec.shape).

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
    inputs = [(name, -span, span) for name, span in zip(names, spans)]
    return inputs, [1 if same else spec.n_terms for same in (hi == lo).tolist()]


def train_bundle(
    study: ComparisonStudy, horizon_ticks: int | tuple[int, ...]
) -> AnfisBundle | tuple[AnfisBundle, ...]:
    """Train the per-axis corrector networks for one prediction horizon, or a
    bundle for each of a tuple of horizons, returned in the tuple's order.

    The horizons asked for train together with the study's own, so a study
    horizon's bundle is the same whether asked for alone or with other study
    horizons. All train on the rows whose target the longest of them reaches
    before the split (_training_sets). Each axis builds one network from those rows
    (_axis_inputs) and trains every horizon's consequents at its premises with
    one forward pass and one ridge solve (anfis.train_networks). A study too
    short for its longest horizon fails, naming that horizon; so does one with
    fewer training rows than an axis network has rules, naming n_terms too,
    before that network is built.
    """
    many = isinstance(horizon_ticks, tuple)
    ticks = horizon_ticks if many else (horizon_ticks,)
    if not ticks:
        raise ValidationError(f"horizons {horizon_ticks} name no horizon to train")
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
        inputs, counts = _axis_inputs(study.train, data)
        rules = math.prod(counts)
        if n < rules:  # before build_network makes the network's (terms x rules) arrays
            where = f"its {axis} network at n_terms {study.train.n_terms}"
            raise ValidationError(f"{too_short}, fewer than the {rules} rules of {where}")
        net = build_network(inputs, counts, study.train.shape)
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
    n = len(table.truth.time)
    split_idx = int(n * study.train.split)
    horizons = tuple(study.horizons)
    for h in horizons:
        if split_idx >= n - h:
            raise ValidationError(f"no test samples left at horizon {h}")
    if "anfis" in study.predictors:
        # Horizon h holds out rows split_idx .. n - h - 1, a prefix of the
        # shortest horizon's: one scoring pass serves them all.
        bundles = train_bundle(study, horizons)
        residuals = anfis.bundle_residuals(bundles, table.inputs[:, split_idx : n - min(horizons)])
    held = table.observed[split_idx:]  # its row k, and each correction's, is row split_idx + k
    mae: dict[str, list[float]] = {p: [] for p in study.predictors}
    for j, h in enumerate(horizons):
        test = slice(0, n - h - split_idx)
        dt = np.array([h * study.tick])  # one horizon for every row
        truth_ahead = table.truth.position[split_idx + h :]
        for p in study.predictors:
            correction = Correction(residuals[j], bundles[j].h_ref) if p == "anfis" else None
            pred = predict_positions(held, p, test, dt, correction)
            err = np.linalg.norm(pred - truth_ahead, axis=1)
            mae[p].append(float(np.mean(err)))
    return ComparisonResult(horizons, tuple(study.predictors), mae)
