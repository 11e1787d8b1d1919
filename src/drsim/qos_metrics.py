"""Spatial/temporal coherence measurement for a dead-reckoning run.

Collects the positional/orientation error time series, finds threshold
violation windows, integrates error as a left Riemann sum, checks the
a-priori worst-case error bound, and grades the run against a QoS profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .config import FinitePositive, NonNegative, convert, type_fields
from .dead_reckoning import _TIME_EPS, DrConfig
from .errors import ValidationError
from .kinematics import EntityState, angle_diff
from .netsim import ChannelConfig

# The verdict's reason for a run whose receiver never displayed a state.
NOTHING_DISPLAYED = "the receiver displayed nothing: no update arrived before the run ended"
_SIG = "%.9g"


def format_sig(x: float) -> str:
    """Stable 9-significant-digit float rendering used in every CSV."""
    return _SIG % x


# The fixed bounds of each named profile; other bounds make a custom profile.
NAMED_PROFILES = {
    "tightly-coupled": {"max_latency": 0.100, "max_loss": 0.02, "max_error": math.inf},
    "loosely-coupled": {"max_latency": 0.300, "max_loss": 0.05, "max_error": math.inf},
}


def fixed_bounds(name: str, key: str) -> ValidationError:
    """The error for a bound, key, set in the named profile name."""
    fixed = f"the {name} profile has fixed bounds; set them in a custom profile"
    return ValidationError(f"key {key!r} in profile: {fixed}")


@dataclass(frozen=True, kw_only=True)
class QosProfile:
    """The bounds a run is graded against: one of the two named classes, or
    custom bounds (the default name)."""

    name: Literal["tightly-coupled", "loosely-coupled", "custom"] = "custom"
    max_latency: NonNegative
    max_loss: NonNegative
    max_error: NonNegative = math.inf

    def __post_init__(self):
        type_fields(self, "profile")
        for key, bound in NAMED_PROFILES.get(self.name, {}).items():
            if getattr(self, key) != bound:
                raise fixed_bounds(self.name, key)

    @classmethod
    def tightly_coupled(cls) -> "QosProfile":
        return cls(name="tightly-coupled", **NAMED_PROFILES["tightly-coupled"])

    @classmethod
    def loosely_coupled(cls) -> "QosProfile":
        return cls(name="loosely-coupled", **NAMED_PROFILES["loosely-coupled"])


class ErrorSeries:
    """Uniformly spaced (t, positional error, orientation error) samples, as
    three float64 arrays."""

    def __init__(self, tick: float):
        self.tick = convert(FinitePositive, tick, "tick", "ErrorSeries")
        self.times = self.e_pos = self.e_or = np.empty(0)

    @classmethod
    def from_arrays(cls, tick: float, times, e_pos, e_or) -> "ErrorSeries":
        """A series holding samples already computed on the tick grid; float64
        arrays are kept as given."""
        series = cls(tick)
        series.times = np.asarray(times, dtype=float)
        series.e_pos = np.asarray(e_pos, dtype=float)
        series.e_or = np.asarray(e_or, dtype=float)
        return series

    def __len__(self) -> int:
        return len(self.times)

    def record(self, truth: EntityState, displayed: EntityState) -> None:
        if abs(truth.time - displayed.time) > _TIME_EPS:
            raise ValidationError(
                f"truth at {truth.time} and display at {displayed.time} are misaligned"
            )
        t = truth.time
        if len(self.times):
            expected = float(self.times[0]) + len(self.times) * self.tick
            if abs(t - expected) > 1e-6 * max(1.0, abs(expected)):
                raise ValidationError(f"sample at {t} breaks the uniform grid (expected {expected})")
        e_pos = np.linalg.norm(truth.position - displayed.position)
        e_or = abs(angle_diff(truth.orientation, displayed.orientation))
        self.times = np.append(self.times, t)
        self.e_pos = np.append(self.e_pos, e_pos)
        self.e_or = np.append(self.e_or, e_or)

    def to_csv(self) -> str:
        """The series as CSV text: a header, then one row per sample.

        One % renders every row: a column whose values all have the bits of
        its first (0.0 and -0.0 differ) is rendered once, into the row
        template, and the others are interleaved into one flat tuple.
        """
        n = len(self.times)
        cells, varying = [], []
        for column in (self.times, self.e_pos, self.e_or):
            if n and (column.view(np.int64) == column[:1].view(np.int64)).all():
                cells.append(format_sig(float(column[0])))
            else:
                cells.append(_SIG)
                varying.append(column)
        row = ",".join(cells) + "\n"
        values = np.column_stack(varying).ravel().tolist() if varying else ()
        return "t,e_pos,e_or\n" + (row * n) % tuple(values)


def integrated_error(series: ErrorSeries) -> float:
    """Left Riemann sum of positional error over the sampled span."""
    if len(series) < 1:
        raise ValidationError("cannot integrate an empty series")
    return float(np.sum(series.e_pos) * series.tick)


@dataclass(frozen=True)
class ViolationWindow:
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


def violation_windows(series: ErrorSeries, th_pos: float) -> list[ViolationWindow]:
    """Maximal contiguous runs of samples with positional error above th_pos."""
    th_pos = convert(NonNegative, th_pos, "th_pos", "violation_windows")
    above = np.concatenate(([False], series.e_pos > th_pos, [False]))
    edges = np.flatnonzero(above[1:] != above[:-1])  # each window's start, then its stop
    edges[1::2] -= 1  # each window's last sample
    bounds = series.times[edges].tolist()
    return [ViolationWindow(start, end) for start, end in zip(bounds[::2], bounds[1::2])]


@dataclass
class CoherenceReport:
    """Per-run QoS verdict with message accounting."""

    max_error: float = 0.0
    integrated_error: float = 0.0
    violation_windows: list[ViolationWindow] = field(default_factory=list)
    total_violation_time: float = 0.0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    heartbeats: int = 0
    max_prop_delay: float = 0.0
    v_dev_max_send: float = 0.0
    passed: bool = True
    reasons: list[str] = field(default_factory=list)

    def _csv_columns(self) -> dict[str, str]:
        """report.csv's columns in order: name -> this report's text."""
        return {
            "messages_sent": str(self.messages_sent),
            "messages_delivered": str(self.messages_delivered),
            "messages_dropped": str(self.messages_dropped),
            "bytes_sent": str(self.bytes_sent),
            "heartbeats": str(self.heartbeats),
            "max_error": format_sig(self.max_error),
            "integrated_error": format_sig(self.integrated_error),
            "violation_count": str(len(self.violation_windows)),
            "total_violation_time": format_sig(self.total_violation_time),
            "max_prop_delay": format_sig(self.max_prop_delay),
            "verdict": "pass" if self.passed else "fail",
        }

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls()._csv_columns())

    def to_csv_row(self) -> str:
        return ",".join(self._csv_columns().values())

    def to_text(self) -> str:
        lines = [
            f"messages sent        : {self.messages_sent}",
            f"messages delivered   : {self.messages_delivered}",
            f"messages dropped     : {self.messages_dropped}",
            f"bytes sent           : {self.bytes_sent}",
            f"heartbeat refreshes  : {self.heartbeats}",
            f"max position error   : {format_sig(self.max_error)} m",
            f"integrated error     : {format_sig(self.integrated_error)} m*s",
            f"violation windows    : {len(self.violation_windows)}"
            f" (total {format_sig(self.total_violation_time)} s)",
            f"max propagation delay: {format_sig(self.max_prop_delay)} s",
            f"verdict              : {'PASS' if self.passed else 'FAIL'}",
        ]
        lines.extend(f"  - {r}" for r in self.reasons)
        return "\n".join(lines) + "\n"


def check_emax_bound(
    report: CoherenceReport, channel: ChannelConfig, dr: DrConfig, accel_bound: float
) -> tuple[float, bool]:
    """A-priori worst-case error bound and whether the run respected it.

    The bound stacks the three ways error accumulates: the sender gate lets
    the mirror drift up to th_pos; held-state acceleration mismatch can grow
    error for at most one heartbeat plus one worst-case transit; and the
    velocity mismatch present at a send keeps acting during transit.
    """
    accel_bound = convert(NonNegative, accel_bound, "accel_bound", "check_emax_bound")
    dt_max = channel.base_delay + channel.jitter
    bound = (
        dr.th_pos
        + 0.5 * accel_bound * (dr.heartbeat + dt_max) ** 2
        + report.v_dev_max_send * dt_max
    )
    return bound, report.max_error <= bound


def verdict(
    report: CoherenceReport, profile: QosProfile, channel: ChannelConfig, displayed: bool = True
) -> tuple[bool, list[str]]:
    """Grade the run's channel and observed error against a QoS profile. A run
    whose receiver never displayed a state (displayed false) observed no error."""
    reasons = []
    worst_latency = channel.base_delay + channel.jitter
    if worst_latency > profile.max_latency + _TIME_EPS:  # 0.2 + 0.1 rounds above 0.3
        reasons.append(
            f"latency {format_sig(worst_latency)} s exceeds "
            f"{profile.name} bound {format_sig(profile.max_latency)} s"
        )
    if channel.loss > profile.max_loss:
        reasons.append(
            f"loss {format_sig(channel.loss)} exceeds "
            f"{profile.name} bound {format_sig(profile.max_loss)}"
        )
    if math.isfinite(profile.max_error) and report.max_error > profile.max_error:
        reasons.append(
            f"max error {format_sig(report.max_error)} m exceeds "
            f"budget {format_sig(profile.max_error)} m"
        )
    if not displayed:
        reasons.append(NOTHING_DISPLAYED)
    return (not reasons), reasons
