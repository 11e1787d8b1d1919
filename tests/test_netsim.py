import math

import numpy as np
import pytest

from drsim.dead_reckoning import UpdateMessage
from drsim.errors import RangeError, SimulationError, ValidationError
from drsim.kinematics import EntityState
from drsim.netsim import Channel, ChannelConfig, EventQueue


def msg(t, seq=0):
    return UpdateMessage("e", EntityState([0, 0, 0], [0, 0, 0], [0, 0, 0], time=t), seq, t)


class TestChannelConfig:
    def test_jitter_must_not_exceed_delay(self):
        with pytest.raises(ValidationError):
            ChannelConfig(base_delay=0.05, jitter=0.1)

    def test_loss_probability_bounds(self):
        with pytest.raises(ValidationError):
            ChannelConfig(loss=1.5)
        ChannelConfig(loss=1.0)  # boundary is legal


class TestEventQueue:
    def test_empty_run_advances_clock(self):
        q = EventQueue()
        assert q.run_until(5.0, {}) == 0
        assert q.now == 5.0

    def test_fifo_tie_break(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, "ev", "first")
        q.schedule(1.0, "ev", "second")
        q.run_until(2.0, {"ev": lambda payload, due: seen.append(payload)})
        assert seen == ["first", "second"]

    def test_only_due_events_dispatch(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, "ev", 1)
        q.schedule(3.0, "ev", 3)
        q.run_until(2.0, {"ev": lambda p, d: seen.append(p)})
        assert seen == [1]
        q.run_until(4.0, {"ev": lambda p, d: seen.append(p)})
        assert seen == [1, 3]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.run_until(5.0, {})
        with pytest.raises(RangeError):
            q.schedule(4.0, "ev", None)

    def test_cannot_run_backwards(self):
        q = EventQueue()
        q.run_until(5.0, {})
        with pytest.raises(RangeError):
            q.run_until(4.0, {})

    def test_handler_error_identifies_event(self):
        q = EventQueue()
        q.schedule(1.0, "boom", None)

        def explode(payload, due):
            raise ValueError("broken payload")

        with pytest.raises(SimulationError, match="boom.*t=1.0"):
            q.run_until(2.0, {"boom": explode})

    def test_missing_handler_is_an_error(self):
        q = EventQueue()
        q.schedule(1.0, "orphan", None)
        with pytest.raises(SimulationError, match="orphan"):
            q.run_until(2.0, {})


class TestChannel:
    def test_deterministic_delay(self):
        q = EventQueue()
        chan = Channel(ChannelConfig(base_delay=0.1))
        chan.send(q, msg(1.0), 1.0)
        deliveries = []
        q.run_until(2.0, {"deliver": lambda m, due: deliveries.append(due)})
        assert deliveries == [pytest.approx(1.1)]

    def test_total_loss_never_delivers(self):
        q = EventQueue()
        chan = Channel(ChannelConfig(loss=1.0))
        for i in range(100):
            chan.send(q, msg(float(i), i), float(i))
        assert chan.dropped == 100
        assert len(q) == 0

    def test_loss_rate_within_binomial_bound(self):
        n, tau = 100_000, 0.05
        chan = Channel(ChannelConfig(loss=tau, seed=99))
        q = EventQueue()
        for i in range(n):
            chan.send(q, msg(0.0, i), 0.0)
        rate = chan.dropped / n
        assert abs(rate - tau) <= 4 * math.sqrt(tau * (1 - tau) / n)

    def test_jitter_bounded(self):
        q = EventQueue()
        chan = Channel(ChannelConfig(base_delay=0.1, jitter=0.04, seed=5, reorder_allowed=True))
        n = 2000
        for i in range(n):
            chan.send(q, msg(0.0, i), 0.0)
        dues = []
        q.run_until(1.0, {"deliver": lambda m, due: dues.append(due)})
        assert len(dues) == n
        assert min(dues) >= 0.1 - 0.04 - 1e-12
        assert max(dues) <= 0.1 + 0.04 + 1e-12

    def test_causality(self):
        chan = Channel(ChannelConfig(base_delay=0.2, jitter=0.2, seed=8))
        q = EventQueue()
        pairs = []
        for i in range(500):
            t = i * 0.01
            q.run_until(t, {"deliver": lambda m, due: pairs.append((m.sent_at, due))})
            chan.send(q, msg(t, i), t)
        q.run_until(100.0, {"deliver": lambda m, due: pairs.append((m.sent_at, due))})
        assert all(due >= sent for sent, due in pairs)

    def test_fifo_preserves_send_order(self):
        chan = Channel(ChannelConfig(base_delay=0.1, jitter=0.09, seed=21))
        q = EventQueue()
        order = []
        for i in range(300):
            t = i * 0.01
            q.run_until(t, {"deliver": lambda m, due: order.append(m.seq)})
            chan.send(q, msg(t, i), t)
        q.run_until(10.0, {"deliver": lambda m, due: order.append(m.seq)})
        assert order == sorted(order)

    def test_reordering_happens_when_allowed(self):
        chan = Channel(ChannelConfig(base_delay=0.1, jitter=0.09, seed=21, reorder_allowed=True))
        q = EventQueue()
        order = []
        for i in range(300):
            t = i * 0.01
            q.run_until(t, {"deliver": lambda m, due: order.append(m.seq)})
            chan.send(q, msg(t, i), t)
        q.run_until(10.0, {"deliver": lambda m, due: order.append(m.seq)})
        assert order != sorted(order)

    def test_seed_determinism(self):
        def trace(seed):
            chan = Channel(ChannelConfig(base_delay=0.1, jitter=0.05, loss=0.1, seed=seed))
            q = EventQueue()
            events = []
            for i in range(200):
                chan.send(q, msg(0.0, i), 0.0)
            q.run_until(1.0, {"deliver": lambda m, due: events.append((m.seq, due))})
            return events, chan.dropped

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)
