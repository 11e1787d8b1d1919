"""Sender-side update gating and receiver-side remote-entity reconstruction.

The sender runs a mirror of the receiver's predictor and emits an update only
when the mirror deviates from truth beyond the configured thresholds, or when
the heartbeat timer expires. The receiver extrapolates between updates and
either snaps to an arriving update or blends toward it over a short window.

:class:`SenderModel` and :class:`ReceiverModel` step one tick at a time.
:func:`gate` and :func:`display` compute the same results for a whole run
from truth arrays, and are what runs use; the per-tick classes are the
reference that tests hold them to. With the anfis predictor, :func:`gate`
reads the corrector's output at every truth row, which a scenario computes
once, at load.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .anfis import features
from .errors import RangeError, ValidationError
from .kinematics import (
    TWO_PI,
    EntityState,
    Order,
    StateArrays,
    advance,
    angle_diff,
    extrapolate,
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
        if self.predictor != "anfis" and self.anfis_bundle is not None:
            raise ValidationError(f"'anfis_net' needs the anfis predictor, got {self.predictor!r}")
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
    # one-tick deviation at state's row (anfis.features); zero without a corrector or a row before
    deviation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.seq < 0:
            raise ValidationError(f"seq must be >= 0, got {self.seq}")
        if abs(self.sent_at - self.state.time) > _TIME_EPS:
            raise ValidationError(
                f"sent_at={self.sent_at} must equal state.time={self.state.time}"
            )


def predict(msg: UpdateMessage, t: float, config: DrConfig) -> EntityState:
    """The shared prediction both sender mirror and receiver use, from msg's state."""
    state = msg.state
    base = extrapolate(state, t, config.order)
    if config.predictor == "anfis":
        bundle = config.anfis_bundle
        inputs = features(StateArrays.of([state]), bundle.feature_tick, msg.deviation)
        scale = bundle.scales(np.array([t - state.time]))
        pos = base.position + bundle.residuals(inputs)[0] * scale
        return replace(base, position=pos)
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
    _previous: EntityState | None = field(default=None, repr=False)  # truth at the last step

    def step(self, truth: EntityState, now: float) -> UpdateMessage | None:
        """Gate test at one tick; returns the emitted update or None."""
        if abs(now - truth.time) > _TIME_EPS:
            raise ValidationError(f"now={now} must match truth.time={truth.time}")
        if now < self._last_now - _TIME_EPS:
            raise RangeError(f"sender time regressed: {now} < {self._last_now}")
        self._last_now = now
        previous, self._previous = self._previous, truth

        reason = None
        if self.last_sent is None:
            reason = "initial"
        else:
            mirror = predict(self.last_sent, now, self.config)
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
        deviation = np.zeros(3)
        bundle = self.config.anfis_bundle
        if bundle is not None and previous is not None:
            rows = StateArrays.of([previous, truth])
            deviation = features(rows, bundle.feature_tick)[:, 1, 0]  # each axis's, at truth's row
        msg = UpdateMessage(self.entity_id, truth, self.next_seq, now, deviation)
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
            target = predict(msg, now, self.config)
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
        state = predict(self.last_update, max(now, self.last_update.state.time), self.config)
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
    return np.sqrt(np.vecdot(d, d))


def predict_positions(
    truth: StateArrays, half_a: np.ndarray, rows, dt: np.ndarray, config: DrConfig, residual
) -> np.ndarray:
    """Positions (K, 3) :func:`predict` gives dt (K,) seconds after the truth
    states at rows (one row, one per time, or many with one dt), with the same
    rounding. half_a is truth's half acceleration; only the anfis predictor
    reads residual, the bundle's reference-horizon correction of each state."""
    half = half_a[rows] if config.order is Order.SECOND else None
    pos = advance(truth.position[rows], truth.velocity[rows], half, dt[:, None])
    if config.predictor == "anfis":
        pos += residual * config.anfis_bundle.scales(dt)[:, None]
    return pos


def predict_headings(truth: StateArrays, rows, dt: np.ndarray, config: DrConfig) -> np.ndarray:
    """Headings (K,) :func:`predict` gives dt (K,) seconds after the truth
    states at rows, with the same rounding: wrapping a wrapped angle changes no
    bit, so one wrap stands for those of extrapolate() and each EntityState."""
    return wrap_angles(truth.orientation[rows] + truth.angular_rate[rows] * dt)


@dataclass
class SendLog:
    """The updates a sender emits over a run, in sequence order."""

    rows: np.ndarray  # (M,) truth row of each update; its seq is its index here
    residuals: np.ndarray  # (M, 3) anfis correction of each update; zero otherwise
    heartbeats: int = 0
    v_dev_max: float = 0.0


# The certificates' allowance for rounding, per unit of the largest magnitude
# a prediction and its check add up: a generous bound on the few roundings
# each makes, at about 2^-53 relative apiece.
_ROUNDING = 64.0 * float(np.finfo(float).eps)


def live_tests(truth: StateArrays, config: DrConfig) -> tuple[bool, bool]:
    """Whether the position test and the heading test of :func:`gate` can
    fire on truth. False is a proof that the test never fires.

    A test is idle when truth moves by the law its prediction extrapolates,
    taken from row 0, up to a measured residual r, and its threshold exceeds
    what that residual and rounding allow. Extrapolating the law from an
    update's row gives the law again, so mirror and truth differ by the
    residuals at the two rows (for positions, plus the velocity residual
    carried over the gap) and bounded rounding:

    - Heading: the angular rate is bit-constant, every heading is
      O[0] + omega t up to r modulo 2pi, and th_or > 2r plus the rounding of
      angles up to 2pi + |O[0]| + |omega| t_end in magnitude.
    - Position: a polynomial predictor, a bit-constant acceleration (zero
      for first order), positions and velocities within r_P and r_V of the
      constant-acceleration law on every axis, and th_pos >
      sqrt(3) (2 r_P + r_V gap) plus the rounding of |P| + |V| t_end +
      |A| t_end^2, where gap, the longest a segment looks ahead, is a
      heartbeat plus the widest tick (at most t_end).
    """
    tau = truth.time - truth.time[0]
    t_end = float(tau[-1])
    heading = config.th_or < math.inf
    if heading and (truth.angular_rate[1:] == truth.angular_rate[:-1]).all():
        o0, omega = float(truth.orientation[0]), float(truth.angular_rate[0])
        r = truth.orientation - (o0 + omega * tau)
        r -= TWO_PI * np.rint(r / TWO_PI)  # modulo 2pi, as the wraps take it
        scale = 2.0 * math.pi + abs(o0) + abs(omega) * t_end
        heading = not config.th_or > 2.0 * np.abs(r).max() + _ROUNDING * scale

    acc, a = truth.acceleration.T, truth.acceleration[0]
    position = not (
        config.predictor == "polynomial"
        and (acc[:, 1:] == acc[:, :-1]).all()
        and (config.order is Order.SECOND or not a.any())
    )
    if not position:
        law = np.array([truth.position[0], truth.velocity[0], a])  # p0, v0, a by rows
        powers = np.array([np.ones_like(tau), tau, 0.5 * tau * tau])  # 1, t, t^2/2
        # Transposed to (3, N), each numpy loop runs over the rows, not the 3 axes.
        r_p = np.abs(truth.position.T - law.T @ powers).max()
        r_v = np.abs(truth.velocity.T - law[1:].T @ powers[:2]).max()
        gap = min(config.heartbeat + np.diff(truth.time).max(initial=0.0), t_end)
        # Bounds |P| + |V| t_end + |A| t_end^2 over every row, from the law.
        p_max, v_max, a_max = np.abs(law).max(axis=1).tolist()
        scale = p_max + r_p + (v_max + r_v) * t_end + a_max * t_end * t_end
        bound = math.sqrt(3.0) * (2.0 * r_p + r_v * gap) + _ROUNDING * scale
        position = not config.th_pos > bound
    return position, heading


def gate(truth: StateArrays, config: DrConfig, corrections: np.ndarray | None) -> SendLog:
    """:meth:`SenderModel.step` at every row of truth (one row per tick).

    With the anfis predictor, corrections holds the corrector's output at
    every row of truth (Scenario.corrections, computed at load); other
    predictors ignore it.
    After each update, the mirror deviation at every tick up to the next
    heartbeat is one array expression, and the first tick over a threshold,
    else the heartbeat tick, sends the next update. Velocity deviations come
    after, in one pass.

    Only the tests that can fire are evaluated. :func:`live_tests` proves,
    once per run, that a test is idle when the mirror reproduces truth's own
    motion law (a constant turn rate, or the constant-acceleration track of
    a polynomial predictor) up to a measured residual and bounded rounding,
    below the threshold. Leaving such a test out changes no send, so the log
    is bit for bit the one both tests give; with neither live, the updates
    are the heartbeat chain.
    """
    half_a = 0.5 * truth.acceleration
    times = truth.time.tolist()
    n = len(times)
    heartbeat_due = config.heartbeat - _TIME_EPS
    residuals = corrections if config.predictor == "anfis" else np.zeros((n, 3))

    def position_over(last, span, dt):
        pos = predict_positions(truth, half_a, last, dt, config, residuals[last])
        pos -= truth.position[span]  # predicted minus true: the negation has the same norms
        return row_norms(pos) >= config.th_pos

    def heading_over(last, span, dt):
        theta = predict_headings(truth, last, dt, config)
        return np.abs(wrap_angles(truth.orientation[span] - theta)) >= config.th_or

    live = list(itertools.compress((position_over, heading_over), live_tests(truth, config)))
    rows, heartbeats, row = [], 0, 0
    while True:
        rows.append(row)
        last, t0 = row, times[row]
        if last == n - 1:
            break
        # The first tick due for a heartbeat (n if none is). The test is
        # monotone in time; the steps after the bisection apply it exactly.
        beat = bisect.bisect_left(times, t0 + heartbeat_due, last + 1)
        while beat > last + 1 and times[beat - 1] - t0 >= heartbeat_due:
            beat -= 1
        while beat < n and times[beat] - t0 < heartbeat_due:
            beat += 1
        if live:
            span = slice(last + 1, min(beat + 1, n))
            dt = truth.time[span] - t0
            over = live[0](last, span, dt)
            for test in live[1:]:
                over |= test(last, span, dt)
            first_over = int(over.argmax())
            if over[first_over]:
                row = last + 1 + first_over
                continue
        if beat >= n:
            break
        row = beat
        heartbeats += 1
    rows = np.array(rows)
    prev, sent = rows[:-1], rows[1:]
    mirror_vel = truth.velocity[prev]
    if config.order is Order.SECOND:
        lag = truth.time[sent] - truth.time[prev]
        mirror_vel = mirror_vel + truth.acceleration[prev] * lag[:, None]
    v_dev = row_norms(truth.velocity[sent] - mirror_vel)
    return SendLog(rows, residuals[rows], heartbeats, float(v_dev.max(initial=0.0)))


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
    half_a = 0.5 * truth.acceleration

    def predicted(seqs: np.ndarray, now: np.ndarray):
        r = rows[seqs]
        t0 = truth.time[r]
        dt = np.maximum(now, t0) - t0
        pos = predict_positions(truth, half_a, r, dt, config, residuals[seqs])
        return pos, predict_headings(truth, r, dt, config)

    if config.convergence == "blend":
        applied = order[np.flatnonzero(np.diff(newest, prepend=-1) > 0)]
        prev, new = applied[:-1], applied[1:]
        now = due[new]
        blend_start[new] = now
        blend_until[new] = now + config.blend_window
        shown_pos, shown_or = predicted(prev, now)
        target_pos, target_or = predicted(new, now)  # a delivery is due no earlier than sent
        offset_pos[new] = shown_pos - target_pos
        offset_or[new] = wrap_angles(shown_or - target_or)
        for k in np.flatnonzero(now < blend_until[prev]).tolist():
            # As ReceiverModel.read: the display still carries the previous offset.
            p, q = prev[k], new[k]
            remain = 1.0 - (now[k] - blend_start[p]) / config.blend_window
            theta = wrap_angles(shown_or[k] + offset_or[p] * remain)
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
        # ReceiverModel.read wraps, and its EntityState wraps again: one wrap stands for both.
        theta[blending] = wrap_angles(theta[blending] + offset_or[s] * remain)
    return first, pos, theta
