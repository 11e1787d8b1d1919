"""Seeded discrete-event channel: per-packet delay, jitter and Bernoulli loss.

The event queue is the single source of simulated time. Everything random is
drawn from one seeded generator per channel, so a (config, scenario) pair
fully determines the event trace.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import RangeError, SimulationError, ValidationError


@dataclass(frozen=True)
class ChannelConfig:
    base_delay: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    seed: int = 0
    reorder_allowed: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.base_delay) and self.base_delay >= 0.0):
            raise ValidationError(f"base_delay must be >= 0, got {self.base_delay}")
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValidationError(f"jitter must be >= 0, got {self.jitter}")
        if self.jitter > self.base_delay:
            raise ValidationError(
                f"jitter {self.jitter} exceeds base_delay {self.base_delay}; "
                "delivery could precede the send"
            )
        if not 0.0 <= self.loss <= 1.0:
            raise ValidationError(f"loss must be in [0, 1], got {self.loss}")


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


class Channel:
    """Unicast point-to-point link with seeded loss and uniform jitter."""

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
