"""Ground-truth trajectory generation and kinematic extrapolation.

Trajectories are analytic: the velocity and acceleration fields returned by
:func:`sample_truth` are the exact derivatives of the position law, so
extrapolation error measured against them is purely a property of the
predictor, never of the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import RangeError, ValidationError

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle into [-pi, pi)."""
    wrapped = (theta + math.pi) % TWO_PI - math.pi
    if wrapped >= math.pi:  # float modulo can land exactly on the modulus
        wrapped -= TWO_PI
    return wrapped


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference a - b, wrapped into [-pi, pi)."""
    return wrap_angle(a - b)


class Order(str, Enum):
    FIRST = "first"
    SECOND = "second"


def _vec3(value, name: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a 3-vector, got {value!r}") from None
    if arr.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EntityState:
    """Kinematic snapshot: the unit of truth and of transmission."""

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    orientation: float = 0.0
    angular_rate: float = 0.0
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position, "position"))
        object.__setattr__(self, "velocity", _vec3(self.velocity, "velocity"))
        object.__setattr__(self, "acceleration", _vec3(self.acceleration, "acceleration"))
        for name in ("orientation", "angular_rate", "time"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.time < 0.0:
            raise ValidationError(f"time must be non-negative, got {self.time}")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))


_ORIGIN = (0.0, 0.0, 0.0)
_VECTORS = frozenset({"p0", "v", "v0", "a", "amplitude", "drift", "center"})

# Each kind's parameters with their defaults; None marks a required parameter.
TRAJECTORY_PARAMS = {
    "constant-velocity": {"p0": None, "v": None, "theta0": 0.0, "omega": 0.0},
    "constant-acceleration": {"p0": None, "v0": None, "a": None, "theta0": 0.0, "omega": 0.0},
    "sinusoid-weave": {
        "amplitude": None, "freq": None, "p0": _ORIGIN, "drift": _ORIGIN, "phase": 0.0,
        "yaw_amp": 0.0, "yaw_phase": 0.0, "theta0": 0.0, "omega": 0.0,
    },
    "circular": {"radius": None, "omega": None, "center": _ORIGIN, "phase0": 0.0},
    "waypoint-script": {"waypoints": None, "theta0": 0.0, "omega": 0.0},
}


def _param(kind: str, key: str, value):
    """A trajectory parameter as the motion law reads it: a read-only 3-vector if
    key is in _VECTORS, the read-only (K, 4) waypoint table, else a finite float."""
    name = f"{key!r} in a {kind} trajectory"
    # as in every other section, a flag or text is no number
    flagged = any(isinstance(v, (bool, str)) for v in np.array(value, dtype=object).flat)
    if key in _VECTORS:
        if flagged:
            raise ValidationError(f"{name} must be a 3-vector of numbers, got {value!r}")
        return _vec3(value, name)
    try:
        arr = np.array(math.nan if flagged else value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = np.array(math.nan)  # fails the checks below
    if key != "waypoints":
        if arr.shape != () or not np.isfinite(arr):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        return float(arr)
    if not (arr.ndim == 2 and arr.shape[1] == 4 and len(arr) and np.all(np.isfinite(arr))
            and np.all(np.diff(arr[:, 0]) > 0.0)):
        raise ValidationError(f"{name} must be finite [t, x, y, z] rows, t increasing, got {value!r}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Analytic motion law: kind plus a kind-specific numeric parameter record.

    params may hold only the parameters TRAJECTORY_PARAMS lists for the kind;
    after construction it holds all of them, defaults filled in, as _param converts them.
    """

    kind: str
    params: Mapping[str, object]
    duration: float

    def __post_init__(self):
        table = TRAJECTORY_PARAMS.get(self.kind)
        if table is None:
            raise ValidationError(f"unknown trajectory kind {self.kind!r}")
        for key in self.params:
            if key not in table:
                raise ValidationError(
                    f"unknown key {key!r} in a {self.kind} trajectory; "
                    f"expected one of {', '.join(sorted(table))}"
                )
        for key, default in table.items():
            if default is None and key not in self.params:
                raise ValidationError(f"missing key {key!r} in a {self.kind} trajectory")
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValidationError(f"duration must be positive, got {self.duration}")
        params = {**table, **self.params}
        object.__setattr__(self, "params", {k: _param(self.kind, k, v) for k, v in params.items()})

    def covers(self, t: float) -> bool:
        """Whether t lies in [0, duration], allowing for rounding in tick times."""
        tol = 1e-9 * max(1.0, self.duration)
        return -tol <= t <= self.duration + tol


def _theta_law(params: Mapping[str, object], t: np.ndarray) -> tuple[np.ndarray, float]:
    """Default orientation law: constant angular rate."""
    return params["theta0"] + params["omega"] * t, params["omega"]


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` over an array, rounding exactly as the scalar does: the
    second remainder is its fix-up, mapping a remainder rounded up to 2pi to 0
    and keeping [0, 2pi) as it is.

    Wrapping again changes no bit. A wrapped w is r - pi, rounded, for an r in
    [0, 2pi). w + pi is exact: it is r where r >= pi/2, and below that pi - |w|,
    exact by Sterbenz's lemma. It lies in [0, 2pi), so both remainders keep it,
    and subtracting pi gives w back exactly.
    """
    return np.remainder(np.remainder(theta + math.pi, TWO_PI), TWO_PI) - math.pi


@dataclass(frozen=True, eq=False)
class StateArrays:
    """EntityState over N times: one row per time, each field as EntityState holds it."""

    position: np.ndarray  # (N, 3)
    velocity: np.ndarray  # (N, 3)
    acceleration: np.ndarray  # (N, 3)
    orientation: np.ndarray  # (N,)
    angular_rate: np.ndarray  # (N,)
    time: np.ndarray  # (N,)

    @classmethod
    def of(cls, states: list[EntityState]) -> "StateArrays":
        """The given states, one row each."""
        return cls(*(np.array([getattr(s, f.name) for s in states]) for f in fields(cls)))


def _motion(traj: Trajectory, t: np.ndarray):
    """The motion law at clamped times t (N,): position, velocity and
    acceleration (N, 3), heading (N,) wrapped once, angular rate (N,)."""
    p, kind, n = traj.params, traj.kind, len(t)
    tc = t[:, None]

    if kind == "constant-velocity":
        pos, vel, acc = p["p0"] + p["v"] * tc, np.broadcast_to(p["v"], (n, 3)), np.zeros((n, 3))
        theta, omega = _theta_law(p, t)

    elif kind == "constant-acceleration":
        pos = p["p0"] + p["v0"] * tc + 0.5 * p["a"] * tc * tc
        vel = p["v0"] + p["a"] * tc
        acc = np.broadcast_to(p["a"], (n, 3))
        theta, omega = _theta_law(p, t)

    elif kind == "sinusoid-weave":
        amp, freq = p["amplitude"], p["freq"]
        arg = freq * t + p["phase"]
        sin_arg = np.sin(arg)[:, None]
        pos = p["p0"] + p["drift"] * tc + amp * sin_arg
        vel = p["drift"] + amp * freq * np.cos(arg)[:, None]
        acc = -amp * freq * freq * sin_arg
        # Yaw may follow the weave so that heading carries the weave phase.
        theta, omega0 = _theta_law(p, t)
        theta = theta + p["yaw_amp"] * np.sin(arg + p["yaw_phase"])
        omega = omega0 + p["yaw_amp"] * freq * np.cos(arg + p["yaw_phase"])

    elif kind == "circular":
        radius, om = p["radius"], p["omega"]
        ang = om * t + p["phase0"]
        c, s, zero = np.cos(ang), np.sin(ang), np.zeros(n)
        pos = p["center"] + radius * np.column_stack([c, s, zero])
        vel = radius * om * np.column_stack([-s, c, zero])
        acc = -radius * om * om * np.column_stack([c, s, zero])
        # Heading = velocity direction; its rate is exactly om.
        theta = ang + (0.5 * math.pi if om >= 0 else -0.5 * math.pi)
        omega = om

    else:  # waypoint-script
        times, points = p["waypoints"][:, 0], p["waypoints"][:, 1:]
        pos = np.where(tc <= times[0], points[0], points[-1])
        vel = np.zeros((n, 3))
        inner = (t > times[0]) & (t < times[-1])
        if inner.any():
            ti = t[inner]
            i = np.searchsorted(times, ti, side="right") - 1
            span = times[i + 1] - times[i]
            frac = (ti - times[i]) / span
            step = points[i + 1] - points[i]
            vel[inner] = step / span[:, None]
            pos[inner] = points[i] + frac[:, None] * step
        acc = np.zeros((n, 3))
        theta, omega = _theta_law(p, t)

    omega = np.broadcast_to(np.asarray(omega, dtype=float), (n,))
    return pos, vel, acc, wrap_angles(theta), omega


def _clamped(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    for bound in (t.min(initial=0.0), t.max(initial=0.0)):
        if not traj.covers(bound):
            raise RangeError(f"t={bound} outside [0, {traj.duration}]")
    return np.minimum(np.maximum(t, 0.0), traj.duration)


def sample_truth(traj: Trajectory, t: float) -> EntityState:
    """Exact entity state at time t in [0, duration]."""
    t = _clamped(traj, np.array([float(t)]))
    pos, vel, acc, theta, omega = _motion(traj, t)
    return EntityState(pos[0], vel[0], acc[0], theta[0], omega[0], t[0])


def truth_arrays(traj: Trajectory, times: np.ndarray) -> StateArrays:
    """Exact entity states at every time in [0, duration]: sample_truth by rows."""
    t = _clamped(traj, np.asarray(times, dtype=float))
    pos, vel, acc, theta, omega = _motion(traj, t)
    # Typed parameters fix every shape, but a product of finite ones can overflow.
    names = ("position", "velocity", "acceleration", "orientation", "angular_rate")
    for name, arr in zip(names, (pos, vel, acc, theta, omega)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be finite")
    # EntityState wraps the heading it is given once more.
    return StateArrays(pos, vel, acc, wrap_angles(theta), omega, t)


def advance(position, velocity, half_accel, dt: np.ndarray) -> np.ndarray:
    """position + velocity * dt + half_accel * dt * dt, rounded as written and as
    :func:`extrapolate` rounds it, for dt (N, 1) or (1,); half_accel None leaves
    out the last term (first order)."""
    pos = position + velocity * dt
    if half_accel is not None:
        acc = half_accel * dt
        acc *= dt  # in place: one (N, 3) temporary, not two
        pos += acc
    return pos


def extrapolate(base: EntityState, t: float, order: Order = Order.SECOND) -> EntityState:
    """Project a state forward to time t by first- or second-order kinematics.

    First order advances position along the stored velocity; second order adds
    the half-acceleration-delta-squared term and advances velocity as well.
    Orientation is always advanced at the stored angular rate (first order)
    and re-wrapped.
    """
    dt = t - base.time
    if dt < 0.0:
        raise RangeError(f"cannot extrapolate backwards: t={t} < base.time={base.time}")
    order = Order(order)
    if order is Order.FIRST:
        pos = base.position + base.velocity * dt
        vel = base.velocity
    else:
        pos = base.position + base.velocity * dt + 0.5 * base.acceleration * dt * dt
        vel = base.velocity + base.acceleration * dt
    theta = wrap_angle(base.orientation + base.angular_rate * dt)
    return EntityState(pos, vel, base.acceleration, theta, base.angular_rate, t)


def max_speed_bound(traj: Trajectory) -> float:
    """Analytic upper bound on ||velocity|| over the trajectory."""
    p = traj.params
    if traj.kind == "constant-velocity":
        return float(np.linalg.norm(p["v"]))
    if traj.kind == "constant-acceleration":
        return float(np.linalg.norm(p["v0"]) + np.linalg.norm(p["a"]) * traj.duration)
    if traj.kind == "sinusoid-weave":
        return float(np.linalg.norm(p["drift"]) + np.linalg.norm(p["amplitude"]) * abs(p["freq"]))
    if traj.kind == "circular":
        return abs(p["radius"]) * abs(p["omega"])
    wps = p["waypoints"]
    if len(wps) < 2:
        return 0.0
    seg_v = np.diff(wps[:, 1:], axis=0) / np.diff(wps[:, 0])[:, None]
    return float(np.max(np.linalg.norm(seg_v, axis=1)))


def accel_deviation_bound(traj: Trajectory, order: Order = Order.SECOND) -> float:
    """Analytic bound on ||A_true(t) - A_model|| for a model refreshed anywhere.

    For a second-order model the held acceleration is some earlier true value,
    so the deviation is bounded by the acceleration's total swing; a
    first-order model holds zero acceleration, so the bound is the peak
    magnitude itself.
    """
    p = traj.params
    if traj.kind in ("constant-velocity", "waypoint-script"):
        peak = 0.0
    elif traj.kind == "constant-acceleration":
        peak = float(np.linalg.norm(p["a"]))
    elif traj.kind == "sinusoid-weave":
        peak = float(np.linalg.norm(p["amplitude"])) * p["freq"] * p["freq"]
    else:  # circular
        peak = abs(p["radius"]) * p["omega"] ** 2
    if Order(order) is Order.FIRST:
        return peak
    if traj.kind == "constant-acceleration":
        return 0.0  # held acceleration equals the true constant
    return 2.0 * peak
