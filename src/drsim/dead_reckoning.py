"""Sender-side update gating and receiver-side remote-entity reconstruction.

The sender runs a mirror of the receiver's predictor and emits an update only
when the mirror deviates from truth beyond the configured thresholds, or when
the heartbeat timer expires. The receiver extrapolates between updates and
either snaps to an arriving update or blends toward it over a short window.

:class:`SenderModel` and :class:`ReceiverModel` step one tick at a time.
:func:`gate` and :func:`display` compute the same results for a whole run
from truth arrays, and are what runs use; the per-tick classes are the
reference that tests hold them to. With the anfis predictor, :func:`gate`
evaluates the corrector once per run, at every truth row.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ValidationError
from .kinematics import (
    EntityState,
    Order,
    StateArrays,
    angle_diff,
    extrapolate,
    project,
    wrap_angle,
    wrap_angles,
)

_TIME_EPS = 1e-9

CONVERGENCE_MODES = ("snap", "blend")
PREDICTOR_KINDS = ("polynomial", "anfis")


@dataclass
class DrConfig:
    th_pos: float = 1.0
    th_or: float = math.inf
    heartbeat: float = 5.0
    order: Order = Order.SECOND
    convergence: str = "snap"
    blend_window: float = 0.5
    predictor: str = "polynomial"
    anfis_bundle: object = None

    def __post_init__(self):
        if math.isnan(self.th_pos) or self.th_pos < 0.0:
            raise ValidationError(f"th_pos must be >= 0, got {self.th_pos}")
        if math.isnan(self.th_or) or self.th_or < 0.0:
            raise ValidationError(f"th_or must be >= 0, got {self.th_or}")
        if not (math.isfinite(self.heartbeat) and self.heartbeat > 0.0):
            raise ValidationError(f"heartbeat must be positive, got {self.heartbeat}")
        self.order = Order(self.order)
        if self.convergence not in CONVERGENCE_MODES:
            raise ValidationError(f"unknown convergence mode {self.convergence!r}")
        if self.convergence == "blend" and not self.blend_window > 0.0:
            raise ValidationError("blend window must be positive")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValidationError(f"unknown predictor {self.predictor!r}")
        if self.predictor == "anfis" and self.anfis_bundle is None:
            raise ValidationError("anfis predictor requires a trained bundle")
        if self.predictor == "anfis" and self.order is not Order.SECOND:
            raise ValidationError(
                f"'order' must be second with the anfis predictor, got {self.order.value}"
            )


@dataclass(frozen=True)
class UpdateMessage:
    """The only thing that crosses the simulated network."""

    entity_id: str
    state: EntityState
    seq: int
    sent_at: float

    def __post_init__(self):
        if self.seq < 0:
            raise ValidationError(f"seq must be >= 0, got {self.seq}")
        if abs(self.sent_at - self.state.time) > _TIME_EPS:
            raise ValidationError(
                f"sent_at={self.sent_at} must equal state.time={self.state.time}"
            )


def predict(state: EntityState, t: float, config: DrConfig) -> EntityState:
    """The shared prediction both sender mirror and receiver use."""
    base = extrapolate(state, t, config.order)
    if config.predictor == "anfis":
        pos = config.anfis_bundle.predict([state], t - state.time)
        return EntityState(
            pos, base.velocity, base.acceleration, base.orientation, base.angular_rate, t
        )
    return base


@dataclass
class SenderModel:
    config: DrConfig
    entity_id: str = "entity-0"
    last_sent: UpdateMessage | None = None
    next_seq: int = 0
    heartbeat_emissions: int = 0
    threshold_emissions: int = 0
    v_dev_max: float = 0.0
    _last_now: float = field(default=-math.inf, repr=False)

    def step(self, truth: EntityState, now: float) -> UpdateMessage | None:
        """Gate test at one tick; returns the emitted update or None."""
        if abs(now - truth.time) > _TIME_EPS:
            raise ValidationError(f"now={now} must match truth.time={truth.time}")
        if now < self._last_now - _TIME_EPS:
            raise RangeError(f"sender time regressed: {now} < {self._last_now}")
        self._last_now = now

        reason = None
        if self.last_sent is None:
            reason = "initial"
        else:
            mirror = predict(self.last_sent.state, now, self.config)
            dev_pos = float(np.linalg.norm(truth.position - mirror.position))
            dev_or = abs(angle_diff(truth.orientation, mirror.orientation))
            if dev_pos >= self.config.th_pos or dev_or >= self.config.th_or:
                reason = "threshold"
            elif now - self.last_sent.sent_at >= self.config.heartbeat - _TIME_EPS:
                reason = "heartbeat"
            if reason is not None:
                v_dev = float(np.linalg.norm(truth.velocity - mirror.velocity))
                self.v_dev_max = max(self.v_dev_max, v_dev)

        if reason is None:
            return None
        msg = UpdateMessage(self.entity_id, truth, self.next_seq, now)
        self.last_sent = msg
        self.next_seq += 1
        if reason == "heartbeat":
            self.heartbeat_emissions += 1
        elif reason == "threshold":
            self.threshold_emissions += 1
        return msg


@dataclass
class ReceiverModel:
    config: DrConfig
    last_update: UpdateMessage | None = None
    last_seq: int = -1
    stale_discarded: int = 0
    _blend_offset_pos: np.ndarray | None = None
    _blend_offset_or: float = 0.0
    _blend_start: float = 0.0
    _blend_until: float = -math.inf
    _last_read: float = field(default=-math.inf, repr=False)

    def apply(self, msg: UpdateMessage, now: float) -> None:
        """Apply an arriving update; stale sequence numbers are discarded."""
        if now < msg.sent_at - _TIME_EPS:
            raise ValidationError(f"delivery at {now} precedes send at {msg.sent_at}")
        if msg.seq <= self.last_seq:
            self.stale_discarded += 1
            return
        if self.config.convergence == "blend" and self.last_update is not None:
            shown = self.read(now)
            target = predict(msg.state, now, self.config)
            self._blend_offset_pos = shown.position - target.position
            self._blend_offset_or = angle_diff(shown.orientation, target.orientation)
            self._blend_start = now
            self._blend_until = now + self.config.blend_window
        self.last_update = msg
        self.last_seq = msg.seq

    def read(self, now: float) -> EntityState | None:
        """Displayed state at now, or None before the first update."""
        if now < self._last_read - _TIME_EPS:
            raise RangeError(f"receiver read time regressed: {now} < {self._last_read}")
        self._last_read = now
        if self.last_update is None:
            return None
        state = predict(self.last_update.state, max(now, self.last_update.state.time), self.config)
        if self._blend_offset_pos is not None and now < self._blend_until:
            # Residual offset from the pre-update display decays linearly to zero.
            remain = 1.0 - (now - self._blend_start) / self.config.blend_window
            pos = state.position + self._blend_offset_pos * remain
            theta = wrap_angle(state.orientation + self._blend_offset_or * remain)
            return EntityState(
                pos, state.velocity, state.acceleration, theta, state.angular_rate, now
            )
        return state


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of d (N, 3), rounded as np.linalg.norm
    rounds one 3-vector: a BLAS dot per row (np.linalg.norm(d, axis=1) sums
    differently)."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def predict_positions(
    base: StateArrays, t: np.ndarray, config: DrConfig, residual: np.ndarray
) -> np.ndarray:
    """Positions (K, 3) :func:`predict` gives at times t (K,), with the same rounding.

    base holds one state (fields (3,) and scalars) or one state per time.
    residual is the bundle's reference-horizon correction of each base state;
    only the anfis predictor reads it.
    """
    dt = t - base.time
    if config.predictor == "anfis":
        # AnfisBundle.predict extrapolates to base.time + dt, which can round away from t.
        pos = project(base, (base.time + dt) - base.time, config.order)
        return pos + residual * config.anfis_bundle.scales(dt)[:, None]
    return project(base, dt, config.order)


def predict_headings(base: StateArrays, t: np.ndarray, config: DrConfig) -> np.ndarray:
    """Headings (K,) :func:`predict` gives at times t (K,), with the same rounding:
    extrapolate() wraps, its EntityState wraps again, and the anfis path builds
    one more EntityState."""
    theta = wrap_angles(wrap_angles(base.orientation + base.angular_rate * (t - base.time)))
    return wrap_angles(theta) if config.predictor == "anfis" else theta


@dataclass
class SendLog:
    """The updates a sender emits over a run, in sequence order."""

    rows: np.ndarray  # (M,) truth row of each update; its seq is its index here
    residuals: np.ndarray  # (M, 3) anfis correction of each update; zero otherwise
    heartbeats: int = 0
    v_dev_max: float = 0.0


def gate(truth: StateArrays, config: DrConfig) -> SendLog:
    """:meth:`SenderModel.step` at every row of truth (one row per tick).

    With the anfis predictor, one pass first evaluates the corrector at every
    row: a one-state history's features depend only on its truth row. After
    each update, the mirror deviation at every tick up to the next heartbeat
    is one array expression, and the first tick over a threshold, else the
    heartbeat tick, sends the next update.
    """
    t = truth.time
    times = t.tolist()
    n = len(times)
    heartbeat_due = config.heartbeat - _TIME_EPS
    check_or = config.th_or < math.inf
    residuals = np.zeros((n, 3))  # the corrector's output at each row
    if config.predictor == "anfis":  # zero deviation: a one-state history observes none
        residuals = config.anfis_bundle.residuals(residuals, truth.velocity, truth.orientation)
    rows, heartbeats, v_dev_max = [], 0, 0.0
    row = last = 0
    while True:
        rows.append(row)
        last, base, residual = row, truth.take(row), residuals[row]
        if last == n - 1:
            break
        # The first tick due for a heartbeat (n if none is). The test is
        # monotone in time; the steps after the bisection apply it exactly.
        beat = bisect.bisect_left(times, times[last] + heartbeat_due, last + 1)
        while beat > last + 1 and times[beat - 1] - times[last] >= heartbeat_due:
            beat -= 1
        while beat < n and times[beat] - times[last] < heartbeat_due:
            beat += 1
        span = slice(last + 1, min(beat + 1, n))
        tt = t[span]
        over = row_norms(truth.position[span] - predict_positions(base, tt, config, residual))
        over = over >= config.th_pos
        if check_or:
            theta = predict_headings(base, tt, config)
            over |= np.abs(wrap_angles(truth.orientation[span] - theta)) >= config.th_or
        first_over = int(over.argmax())
        if over[first_over]:
            row = last + 1 + first_over
        elif beat < n:
            row = beat
            heartbeats += 1
        else:
            break
        mirror_vel = base.velocity
        if config.order is Order.SECOND:
            mirror_vel = base.velocity + base.acceleration * (t[row] - t[last])
        v_dev_max = max(v_dev_max, float(np.linalg.norm(truth.velocity[row] - mirror_vel)))
    return SendLog(np.array(rows), residuals[rows], heartbeats, v_dev_max)


def display(
    truth: StateArrays, log: SendLog, due: np.ndarray, config: DrConfig
) -> tuple[int, np.ndarray, np.ndarray]:
    """:meth:`ReceiverModel.read` at every row of truth, given each update's
    delivery time (inf when lost).

    Returns the first row with a displayed state, and the displayed positions
    and headings from that row on. The receiver shows the highest seq among
    the deliveries due so far: a running maximum over the deliveries in
    dispatch order, which also passes over stale ones.

    With blend convergence, each applied delivery after the first blends from
    what the previous one showed. All offsets are one array pass over the
    (previous, new) pairs; only a delivery inside the previous one's open
    window, whose display still carries that offset, then takes a Python step
    in seq order.
    """
    order = np.argsort(due, kind="stable")  # dispatch order: by due, then seq
    order = order[np.isfinite(due[order])]
    newest = np.maximum.accumulate(order)  # seq shown after each dispatch
    rows, residuals = log.rows, log.residuals
    n_msgs = len(rows)
    offset_pos = np.zeros((n_msgs, 3))
    offset_or = np.zeros(n_msgs)
    blend_start = np.zeros(n_msgs)
    blend_until = np.full(n_msgs, -math.inf)

    def predicted(seqs: np.ndarray, now: np.ndarray):
        base = truth.take(rows[seqs])
        at = np.maximum(now, base.time)
        pos = predict_positions(base, at, config, residuals[seqs])
        return pos, predict_headings(base, at, config)

    if config.convergence == "blend":
        applied = order[np.flatnonzero(np.diff(newest, prepend=-1) > 0)]
        prev, new = applied[:-1], applied[1:]
        now = due[new]
        blend_start[new] = now
        blend_until[new] = now + config.blend_window
        shown_pos, shown_or = predicted(prev, now)
        target = truth.take(rows[new])
        target_pos = predict_positions(target, now, config, residuals[new])
        target_or = predict_headings(target, now, config)
        offset_pos[new] = shown_pos - target_pos
        offset_or[new] = wrap_angles(shown_or - target_or)
        for k in np.flatnonzero(now < blend_until[prev]).tolist():
            # As ReceiverModel.read: the display still carries the previous offset.
            p, q = prev[k], new[k]
            remain = 1.0 - (now[k] - blend_start[p]) / config.blend_window
            theta = wrap_angles(wrap_angles(shown_or[k] + offset_or[p] * remain))
            offset_pos[q] = shown_pos[k] + offset_pos[p] * remain - target_pos[k]
            offset_or[q] = wrap_angles(theta - target_or[k])

    delivered = np.searchsorted(due[order], truth.time, side="right")
    first = int(np.searchsorted(delivered, 1))
    seqs, now = newest[delivered[first:] - 1], truth.time[first:]
    pos, theta = predicted(seqs, now)
    blending = now < blend_until[seqs]
    if blending.any():
        s = seqs[blending]
        remain = 1.0 - (now[blending] - blend_start[s]) / config.blend_window
        pos[blending] = pos[blending] + offset_pos[s] * remain[:, None]
        # ReceiverModel.read wraps, and its EntityState wraps again.
        theta[blending] = wrap_angles(wrap_angles(theta[blending] + offset_or[s] * remain))
    return first, pos, theta
