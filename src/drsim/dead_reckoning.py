"""Sender-side update gating and receiver-side remote-entity reconstruction.

The sender runs a mirror of the receiver's predictor and emits an update only
when the mirror deviates from truth beyond the configured thresholds, or when
the heartbeat timer expires. The receiver extrapolates between updates and
either snaps to an arriving update or blends toward it over a short window.

:class:`SenderModel` and :class:`ReceiverModel` step one tick at a time.
:func:`gate` and :func:`display` compute the same results for a whole run
from truth arrays, and are what runs use; the per-tick classes are the
reference that tests hold them to. Of a corrector, the whole-run functions read
only the Correction a scenario computes at load; the per-tick models run it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .anfis import AnfisBundle, features
from .config import FinitePositive, NonNegative, Positive, bad_value, type_fields
from .errors import RangeError, ValidationError
from .kinematics import (
    TWO_PI,
    Correction,
    EntityState,
    StateArrays,
    angle_diff,
    extrapolate,
    predict_headings,
    predict_positions,
    wrap_angle,
    wrap_angles,
)

_TIME_EPS = 1e-9

PREDICTORS = ("first", "second", "anfis")  # run files and study files alike
Predictor = Literal[PREDICTORS]


@dataclass(frozen=True)
class DrConfig:
    """The gate and the prediction sender and receiver share, and the receiver's
    convergence. predictor anfis is second order corrected by anfis_bundle."""

    th_pos: NonNegative = 1.0
    th_or: NonNegative = math.inf
    heartbeat: FinitePositive = 5.0
    predictor: Predictor = "second"
    convergence: Literal["snap", "blend"] = "snap"
    blend_window: Positive = 0.5
    anfis_bundle: AnfisBundle | None = None

    def __post_init__(self):
        type_fields(self, "dr")
        if not isinstance(self.anfis_bundle, (AnfisBundle, type(None))):
            raise bad_value("anfis_bundle", "dr", "an AnfisBundle", self.anfis_bundle)
        check_corrector(self.predictor, self.anfis_bundle, "anfis_bundle")


def check_corrector(predictor: str, bundle, key: str) -> None:
    """The anfis predictor takes the bundle key sets (None if unset), and no
    other predictor does: key is anfis_net in a file, anfis_bundle in code."""
    if (predictor == "anfis") != (bundle is not None):
        problem = f"needs a bundle in {key!r}" if bundle is None else f"reads no {key!r}"
        raise ValidationError(f"'predictor' in dr is {predictor!r}, which {problem}")


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
    base = extrapolate(state, t, config.predictor)
    if config.anfis_bundle is None:
        return base
    correction = config.anfis_bundle.correction(StateArrays.of([state]), msg.deviation)
    pos = base.position + correction.column[0] * correction.scales(np.array([t - state.time]))
    return replace(base, position=pos)


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


@dataclass
class SendLog:
    """The updates a sender emits over a run, in sequence order."""

    rows: np.ndarray  # (M,) truth row of each update; its seq is its index here
    heartbeats: int = 0
    v_dev_max: float = 0.0


# The certificates' allowance for rounding, per unit of the largest magnitude
# a prediction and its check add up: a generous bound on the few roundings
# each makes, at about 2^-53 relative apiece.
_ROUNDING = 64.0 * float(np.finfo(float).eps)


def live_tests(
    truth: StateArrays, config: DrConfig, correction: Correction | None = None
) -> tuple[bool, bool]:
    """Whether the position test and the heading test of :func:`gate`, with
    correction, can fire on truth. False is a proof that the test never fires.

    A test is idle when truth moves by the law its prediction extrapolates,
    taken from row 0, up to a measured residual r, and its threshold exceeds
    what that residual and rounding allow. Extrapolating the law from an
    update's row gives the law again, so mirror and truth differ by the
    residuals at the two rows (for positions, plus the velocity residual
    carried over the gap) and bounded rounding:

    - Heading: the angular rate is bit-constant, every heading is
      O[0] + omega t up to r modulo 2pi, and th_or > 2r plus the rounding of
      angles up to 2pi + |O[0]| + |omega| t_end in magnitude.
    - Position: no correction (its term breaks the law), a bit-constant
      acceleration (zero with predictor first), positions and velocities within
      r_P and r_V of the constant-acceleration law on every axis, and th_pos >
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
        correction is None
        and (acc[:, 1:] == acc[:, :-1]).all()
        and (config.predictor != "first" or not a.any())
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


def gate(truth: StateArrays, config: DrConfig, correction: Correction | None) -> SendLog:
    """:meth:`SenderModel.step` at every row of truth (one row per tick), with
    a corrected run's correction at every row (Scenario.correction), else None.

    After each update, the mirror deviation at every tick up to the next
    heartbeat is one array expression, and the first tick over a threshold,
    else the heartbeat tick, sends the next update. Velocity deviations come
    after, in one pass.

    Only the tests that can fire are evaluated. :func:`live_tests` proves,
    once per run, that a test is idle when the mirror reproduces truth's own
    motion law (a constant turn rate, or the constant-acceleration track of
    an uncorrected predictor) up to a measured residual and bounded rounding,
    below the threshold. Leaving such a test out changes no send, so the log
    is bit for bit the one both tests give; with neither live, the updates
    are the heartbeat chain.
    """
    times = truth.time.tolist()
    n = len(times)
    heartbeat_due = config.heartbeat - _TIME_EPS

    def position_over(last, span, dt):
        pos = predict_positions(truth, config.predictor, last, dt, correction)
        pos -= truth.position[span]  # predicted minus true: the negation has the same norms
        return row_norms(pos) >= config.th_pos

    def heading_over(last, span, dt):
        theta = predict_headings(truth, last, dt)
        return np.abs(wrap_angles(truth.orientation[span] - theta)) >= config.th_or

    tests = live_tests(truth, config, correction)
    live = list(itertools.compress((position_over, heading_over), tests))
    rows, heartbeats, row = [], 0, 0
    while True:
        rows.append(row)
        last, t0 = row, times[row]
        if last == n - 1:
            break
        # The first tick due for a heartbeat (n if none is): float subtraction
        # is monotone, so the gaps from t0 are sorted as the times are.
        beat = bisect.bisect_left(times, heartbeat_due, last + 1, key=lambda t: t - t0)
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
    if config.predictor != "first":
        lag = truth.time[sent] - truth.time[prev]
        mirror_vel = mirror_vel + truth.acceleration[prev] * lag[:, None]
    v_dev = row_norms(truth.velocity[sent] - mirror_vel)
    return SendLog(rows, heartbeats, float(v_dev.max(initial=0.0)))


def display(
    truth: StateArrays, log: SendLog, due: np.ndarray, config: DrConfig,
    correction: Correction | None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """:meth:`ReceiverModel.read` at every row of truth, given each update's
    delivery time (inf when lost) and the correction :func:`gate` read.

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
    n_msgs = len(log.rows)
    offset_pos = np.zeros((n_msgs, 3))
    offset_or = np.zeros(n_msgs)
    blend_start = np.zeros(n_msgs)
    blend_until = np.full(n_msgs, -math.inf)

    def predicted(seqs: np.ndarray, now: np.ndarray):
        r = log.rows[seqs]
        t0 = truth.time[r]
        dt = np.maximum(now, t0) - t0
        pos = predict_positions(truth, config.predictor, r, dt, correction)
        return pos, predict_headings(truth, r, dt)

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
