"""Ground-truth trajectory generation and kinematic extrapolation.

Trajectories are analytic: the velocity and acceleration fields returned by
:func:`sample_truth` are the exact derivatives of the position law, so
extrapolation error measured against them is purely a property of the
predictor, never of the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .config import Finite, Vec3, Waypoints, read_section, type_fields
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
# read_section's {key: type} per kind: its required parameters, then all (Finite if unlisted).
_TYPES = dict.fromkeys(("p0", "v", "v0", "a", "amplitude", "drift", "center"), Vec3)
_TYPES["waypoints"] = Waypoints
_SPECS = {
    kind: ({k: _TYPES.get(k, Finite) for k, d in table.items() if d is None},
           {k: _TYPES.get(k, Finite) for k in table})
    for kind, table in TRAJECTORY_PARAMS.items()
}


def _param(value):
    """A typed parameter as the motion law reads it: a list (a 3-vector, or the
    (K, 4) waypoint table) as a read-only array, a number as it is."""
    if isinstance(value, tuple):
        value = np.array(value)
        value.flags.writeable = False
    return value


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Analytic motion law: kind plus a kind-specific numeric parameter record,
    defined at every t >= 0 (a waypoint script holds its last point). How long
    it is sampled is the run's or the study's to say.

    params may hold only the parameters TRAJECTORY_PARAMS lists for the kind, read
    as a file's are; after construction it holds all of them, defaults filled in.
    """

    kind: str
    params: dict[str, object]

    def __post_init__(self):
        type_fields(self, "trajectory")
        if self.kind not in TRAJECTORY_PARAMS:
            raise ValidationError(f"unknown trajectory kind {self.kind!r}")
        required, types = _SPECS[self.kind]
        given = read_section(required, self.params, f"a {self.kind} trajectory", raw=types)
        params = {**TRAJECTORY_PARAMS[self.kind], **given}
        object.__setattr__(self, "params", {k: _param(v) for k, v in params.items()})


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

    def __getitem__(self, rows: slice) -> "StateArrays":
        """The states at rows, each field a view."""
        return StateArrays(*(getattr(self, f.name)[rows] for f in fields(self)))


def _motion(traj: Trajectory, t: np.ndarray):
    """The motion law at times t (N,), a RangeError if one is not >= 0:
    position, velocity and acceleration (N, 3), heading (N,) wrapped once,
    angular rate (N,). Each is a contiguous array of its own, a constant one
    included: arithmetic on a stride-0 broadcast view runs several times slower."""
    if not t.min(initial=0.0) >= 0.0:  # NaN fails too
        raise RangeError(f"t={t.min()} outside [0, inf)")
    p, kind, n = traj.params, traj.kind, len(t)
    tc = t[:, None]

    if kind == "constant-velocity":
        pos, vel, acc = p["p0"] + p["v"] * tc, np.tile(p["v"], (n, 1)), np.zeros((n, 3))
        theta, omega = _theta_law(p, t)

    elif kind == "constant-acceleration":
        pos = p["p0"] + p["v0"] * tc + 0.5 * p["a"] * tc * tc
        vel = p["v0"] + p["a"] * tc
        acc = np.tile(p["a"], (n, 1))
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

    if np.ndim(omega) == 0:
        omega = np.full(n, float(omega))
    return pos, vel, acc, wrap_angles(theta), omega


def sample_truth(traj: Trajectory, t: float) -> EntityState:
    """Exact entity state at time t >= 0."""
    t = np.array([float(t)])
    pos, vel, acc, theta, omega = _motion(traj, t)
    return EntityState(pos[0], vel[0], acc[0], theta[0], omega[0], t[0])


def truth_arrays(traj: Trajectory, times: np.ndarray) -> StateArrays:
    """Exact entity states at every time t >= 0: sample_truth by rows."""
    t = np.array(times, dtype=float)  # a copy: the rows own their times
    pos, vel, acc, theta, omega = _motion(traj, t)
    # Typed parameters fix every shape, but a product of finite ones can overflow.
    names = ("position", "velocity", "acceleration", "orientation", "angular_rate")
    for name, arr in zip(names, (pos, vel, acc, theta, omega)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be finite")
    return StateArrays(pos, vel, acc, theta, omega, t)


@dataclass(frozen=True, eq=False)
class Correction:
    """A term on second-order extrapolation: column (N, 3) holds its value h_ref
    seconds past each row of a truth table, which a gap of dt scales by scales(dt)."""

    column: np.ndarray
    h_ref: float

    def scales(self, dt: np.ndarray) -> np.ndarray:
        """(dt / h_ref)^3 per gap, the leading-order growth of the second-order
        remainder, by np.float_power: it calls pow per element as Python's **
        does, where np.power multiplies and rounds some cubes differently."""
        return np.float_power(dt / self.h_ref, 3.0)


def predict_positions(
    truth: StateArrays, predictor: str, rows, dt: np.ndarray, correction: Correction | None = None
) -> np.ndarray:
    """Positions (K, 3) of the truth states at rows (one, one per gap, or many with
    one gap) dt (K,) seconds on, by the law :func:`extrapolate` reads from the
    predictor's name and rounded as it rounds it; correction is added scaled."""
    gap = dt[:, None]
    pos = truth.position[rows] + truth.velocity[rows] * gap
    if predictor != "first":
        acc = (0.5 * truth.acceleration[rows]) * gap
        acc *= gap  # in place: one (K, 3) temporary, not two
        pos += acc
    if correction is not None:
        pos += correction.column[rows] * correction.scales(dt)[:, None]
    return pos


def predict_headings(truth: StateArrays, rows, dt: np.ndarray) -> np.ndarray:
    """Headings (K,) :func:`extrapolate` gives dt (K,) seconds after the truth
    states at rows, bit for bit in one wrap: wrapping a wrapped angle changes no bit."""
    return wrap_angles(truth.orientation[rows] + truth.angular_rate[rows] * dt)


def extrapolate(base: EntityState, t: float, predictor: str = "second") -> EntityState:
    """Project a state forward to time t by the kinematics a predictor name
    extrapolates: first order for "first", second order for any other.

    First order advances position along the stored velocity; second order adds
    the half-acceleration-delta-squared term and advances velocity as well.
    Orientation is always advanced at the stored angular rate (first order)
    and re-wrapped.
    """
    dt = t - base.time
    if dt < 0.0:
        raise RangeError(f"cannot extrapolate backwards: t={t} < base.time={base.time}")
    if predictor == "first":
        pos = base.position + base.velocity * dt
        vel = base.velocity
    else:
        pos = base.position + base.velocity * dt + 0.5 * base.acceleration * dt * dt
        vel = base.velocity + base.acceleration * dt
    theta = wrap_angle(base.orientation + base.angular_rate * dt)
    return EntityState(pos, vel, base.acceleration, theta, base.angular_rate, t)


def max_speed_bound(traj: Trajectory, duration: float) -> float:
    """Analytic upper bound on ||velocity|| over t in [0, duration]."""
    p = traj.params
    if traj.kind == "constant-velocity":
        return float(np.linalg.norm(p["v"]))
    if traj.kind == "constant-acceleration":
        return float(np.linalg.norm(p["v0"]) + np.linalg.norm(p["a"]) * duration)
    if traj.kind == "sinusoid-weave":
        return float(np.linalg.norm(p["drift"]) + np.linalg.norm(p["amplitude"]) * abs(p["freq"]))
    if traj.kind == "circular":
        return abs(p["radius"]) * abs(p["omega"])
    wps = p["waypoints"]
    if len(wps) < 2:
        return 0.0
    seg_v = np.diff(wps[:, 1:], axis=0) / np.diff(wps[:, 0])[:, None]
    return float(np.max(np.linalg.norm(seg_v, axis=1)))


def accel_deviation_bound(traj: Trajectory, predictor: str = "second") -> float:
    """Analytic bound on ||A_true(t) - A_model|| for a predictor's model
    refreshed anywhere: first order for "first", second order for any other.

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
    if predictor == "first":
        return peak
    if traj.kind == "constant-acceleration":
        return 0.0  # held acceleration equals the true constant
    return 2.0 * peak
