"""Seeded lossy channel: per-packet delay, jitter and Bernoulli loss.

A run draws the fates of all its updates at once through fates. Channel and
EventQueue are the per-message reference it is held to: Channel draws one
fate at a time and EventQueue, the single source of simulated time, delivers
it. Everything random is drawn from one seeded generator per link, so a
(config, scenario) pair fully determines the event trace.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .config import FiniteNonNegative, NonNegativeInt, Probability, type_fields
from .errors import RangeError, SimulationError, ValidationError


@dataclass(frozen=True)
class ChannelConfig:
    base_delay: FiniteNonNegative = 0.0
    jitter: FiniteNonNegative = 0.0
    loss: Probability = 0.0
    seed: NonNegativeInt = 0
    reorder_allowed: bool = False

    def __post_init__(self):
        type_fields(self, "channel")
        if self.jitter > self.base_delay:
            raise ValidationError(
                f"jitter {self.jitter} exceeds base_delay {self.base_delay}; "
                "delivery could precede the send"
            )


@dataclass(order=True)
class _Event:
    due: float
    seq: int
    kind: str = field(compare=False)
    payload: object = field(compare=False)


class EventQueue:
    """Time-ordered event set; equal due times dispatch in insertion order."""

    def __init__(self, now: float = 0.0):
        self.now = now
        self._heap: list[_Event] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, due: float, kind: str, payload) -> None:
        if due < self.now:
            raise RangeError(f"cannot schedule at {due} before now={self.now}")
        heapq.heappush(self._heap, _Event(due, self._counter, kind, payload))
        self._counter += 1

    def run_until(self, t_end: float, handlers: Mapping[str, Callable]) -> int:
        """Dispatch every event with due <= t_end; returns the event count."""
        if t_end < self.now:
            raise RangeError(f"t_end={t_end} is before now={self.now}")
        count = 0
        while self._heap and self._heap[0].due <= t_end:
            ev = heapq.heappop(self._heap)
            self.now = ev.due
            handler = handlers.get(ev.kind)
            if handler is None:
                raise SimulationError(f"no handler for event kind {ev.kind!r} at t={ev.due}")
            try:
                handler(ev.payload, ev.due)
            except Exception as exc:
                raise SimulationError(
                    f"handler for {ev.kind!r} event at t={ev.due} failed: {exc}"
                ) from exc
            count += 1
        self.now = t_end
        return count


def fates(link: ChannelConfig, times: list[float]) -> np.ndarray:
    """The fates of messages sent at times over link, in send order: each due
    time, inf for a lost message. Bit for bit what a fresh Channel(link)'s loop
    of transit gives them.

    One block of draws serves them all. Each message takes the next draw for
    its loss and, when kept on a jittery link, the next for its jitter, which it
    maps as Generator.uniform does."""
    loss, base, jitter = link.loss, link.base_delay, link.jitter
    span = jitter - (-jitter)
    rng = np.random.default_rng(link.seed)
    draws = iter(rng.random(len(times) * (2 if jitter > 0.0 else 1)).tolist())
    due, last = [], -math.inf
    for now in times:
        if next(draws) < loss:
            due.append(math.inf)
            continue
        delay = base
        if jitter > 0.0:
            delay += -jitter + span * next(draws)
        d = now + delay
        if not link.reorder_allowed:
            d = max(d, last)
        last = d
        due.append(d)
    return np.array(due, dtype=float)


class Channel:
    """Unicast point-to-point link with seeded loss and uniform jitter, one
    message at a time: the per-message reference that runs are held to. A run
    draws all its fates at once through fates."""

    def __init__(self, config: ChannelConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.sent = 0
        self.dropped = 0
        self._last_due = -math.inf

    def transit(self, now: float) -> float | None:
        """Draw the fate of one message sent at now: its delivery time, or None
        when it is lost. Draws one random() and, with jitter, one uniform()."""
        self.sent += 1
        if self.rng.random() < self.config.loss:
            self.dropped += 1
            return None
        delay = self.config.base_delay
        if self.config.jitter > 0.0:
            delay += self.rng.uniform(-self.config.jitter, self.config.jitter)
        due = now + delay
        if not self.config.reorder_allowed:
            due = max(due, self._last_due)
        self._last_due = due
        return due

    def send(self, queue: EventQueue, msg, now: float) -> bool:
        """Drop or enqueue one message; returns True when delivery is scheduled."""
        due = self.transit(now)
        if due is None:
            return False
        queue.schedule(due, "deliver", msg)
        return True
