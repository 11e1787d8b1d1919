import math

import numpy as np
import pytest

from drsim.dead_reckoning import (
    DrConfig,
    ReceiverModel,
    SenderModel,
    UpdateMessage,
    predict,
)
from drsim.errors import RangeError, ValidationError
from drsim.kinematics import EntityState, StateArrays, Trajectory, predict_headings, sample_truth


def state(p, v=(0, 0, 0), a=(0, 0, 0), theta=0.0, omega=0.0, t=0.0):
    return EntityState(p, v, a, theta, omega, t)


class TestDrConfig:
    def test_defaults_valid(self):
        cfg = DrConfig()
        assert cfg.heartbeat == 5.0
        assert cfg.predictor == "second"

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValidationError):
            DrConfig(th_pos=-1.0)

    def test_blend_needs_window(self):
        with pytest.raises(ValidationError):
            DrConfig(convergence="blend", blend_window=0.0)

    def test_anfis_needs_bundle(self):
        with pytest.raises(ValidationError):
            DrConfig(predictor="anfis")


class TestUpdateMessage:
    def test_sent_at_must_match_state_time(self):
        with pytest.raises(ValidationError):
            UpdateMessage("e", state((0, 0, 0), t=1.0), seq=0, sent_at=2.0)


class TestSenderGate:
    def test_first_step_always_emits(self):
        sender = SenderModel(DrConfig(th_pos=1.0))
        msg = sender.step(state((0, 0, 0)), 0.0)
        assert msg is not None and msg.seq == 0

    def test_inside_threshold_stays_silent(self):
        # deviation 0.5 m against th_pos 1.0, one second after the last send
        sender = SenderModel(DrConfig(th_pos=1.0, heartbeat=5.0))
        sender.step(state((0, 0, 0)), 0.0)
        assert sender.step(state((0.5, 0, 0), t=1.0), 1.0) is None

    def test_heartbeat_fires_at_five_seconds(self):
        sender = SenderModel(DrConfig(th_pos=1.0, heartbeat=5.0))
        sender.step(state((0, 0, 0)), 0.0)
        assert sender.step(state((0, 0, 0), t=4.9), 4.9) is None
        msg = sender.step(state((0, 0, 0), t=5.0), 5.0)
        assert msg is not None
        assert sender.heartbeat_emissions == 1

    def test_zero_threshold_emits_every_step(self):
        sender = SenderModel(DrConfig(th_pos=0.0))
        count = 0
        for i in range(50):
            if sender.step(state((0, 0, 0), t=i * 0.1), i * 0.1) is not None:
                count += 1
        assert count == 50

    def test_orientation_gate(self):
        sender = SenderModel(DrConfig(th_pos=math.inf, th_or=0.1, heartbeat=100.0))
        sender.step(state((0, 0, 0), theta=0.0), 0.0)
        assert sender.step(state((0, 0, 0), theta=0.05, t=1.0), 1.0) is None
        assert sender.step(state((0, 0, 0), theta=0.15, t=2.0), 2.0) is not None

    def test_threshold_uses_configured_order(self):
        # accelerating truth: a first-order mirror drifts, a second-order one does not
        truth = [state((0.5 * t * t, 0, 0), (t, 0, 0), (1, 0, 0), t=t) for t in (0.0, 1.0)]
        first = SenderModel(DrConfig(th_pos=0.4, predictor="first"))
        second = SenderModel(DrConfig(th_pos=0.4, predictor="second"))
        for s in (first, second):
            s.step(truth[0], 0.0)
        assert first.step(truth[1], 1.0) is not None  # drift 0.5 >= 0.4
        assert second.step(truth[1], 1.0) is None  # exact model

    def test_seq_strictly_increases(self):
        sender = SenderModel(DrConfig(th_pos=0.0))
        seqs = [sender.step(state((0, 0, 0), t=float(i)), float(i)).seq for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert sender.last_sent.seq == sender.next_seq - 1

    def test_time_regression_raises(self):
        sender = SenderModel(DrConfig())
        sender.step(state((0, 0, 0), t=1.0), 1.0)
        with pytest.raises(RangeError):
            sender.step(state((0, 0, 0), t=0.5), 0.5)

    def test_now_must_match_truth_time(self):
        sender = SenderModel(DrConfig())
        with pytest.raises(ValidationError):
            sender.step(state((0, 0, 0), t=1.0), 2.0)


class TestReceiver:
    def test_read_before_any_update_is_none(self):
        recv = ReceiverModel(DrConfig())
        assert recv.read(1.0) is None

    def test_first_message_snaps(self):
        recv = ReceiverModel(DrConfig())
        msg = UpdateMessage("e", state((0, 0, 0), (1, 0, 0), t=10.0), 0, 10.0)
        recv.apply(msg, 10.0)
        shown = recv.read(12.0)
        assert shown.position[0] == pytest.approx(2.0)

    def test_read_at_message_time_is_exact(self):
        recv = ReceiverModel(DrConfig())
        msg = UpdateMessage("e", state((3, 1, 0), (1, 2, 0), t=4.0), 0, 4.0)
        recv.apply(msg, 4.0)
        shown = recv.read(4.0)
        assert np.array_equal(shown.position, msg.state.position)

    def test_stale_discard(self):
        recv = ReceiverModel(DrConfig())
        newer = UpdateMessage("e", state((5, 0, 0), t=5.0), 5, 5.0)
        stale = UpdateMessage("e", state((3, 0, 0), t=3.0), 3, 3.0)
        recv.apply(newer, 5.0)
        recv.apply(stale, 5.5)  # late arrival of an older update
        assert recv.last_seq == 5
        assert recv.stale_discarded == 1
        assert recv.read(5.5).position[0] == pytest.approx(5.0)

    def test_delivery_before_send_rejected(self):
        recv = ReceiverModel(DrConfig())
        msg = UpdateMessage("e", state((0, 0, 0), t=5.0), 0, 5.0)
        with pytest.raises(ValidationError):
            recv.apply(msg, 4.0)

    def test_read_time_regression_raises(self):
        recv = ReceiverModel(DrConfig())
        recv.read(5.0)
        with pytest.raises(RangeError):
            recv.read(4.0)


class TestBlendConvergence:
    def setup_method(self):
        self.cfg = DrConfig(convergence="blend", blend_window=1.0)
        self.recv = ReceiverModel(self.cfg)
        first = UpdateMessage("e", state((0, 0, 0), (1, 0, 0), t=0.0), 0, 0.0)
        self.recv.apply(first, 0.0)
        # displayed position at t=1 is (1,0,0); the correction jumps truth to (2,0,0)
        second = UpdateMessage("e", state((2, 0, 0), (1, 0, 0), t=1.0), 1, 1.0)
        self.recv.apply(second, 1.0)

    def test_offset_exactly_halved_mid_window(self):
        shown = self.recv.read(1.5)
        # target path is at 2.5; the -1 offset has decayed to -0.5
        assert shown.position[0] == pytest.approx(2.0)

    def test_start_of_window_keeps_old_display(self):
        shown = self.recv.read(1.0)
        assert shown.position[0] == pytest.approx(1.0)

    def test_after_window_tracks_pure_extrapolation(self):
        shown = self.recv.read(2.5)
        assert shown.position[0] == pytest.approx(3.5)

    def test_snap_mode_jumps_immediately(self):
        recv = ReceiverModel(DrConfig(convergence="snap"))
        recv.apply(UpdateMessage("e", state((0, 0, 0), (1, 0, 0), t=0.0), 0, 0.0), 0.0)
        recv.read(1.0)
        recv.apply(UpdateMessage("e", state((2, 0, 0), (1, 0, 0), t=1.0), 1, 1.0), 1.0)
        assert recv.read(1.0).position[0] == pytest.approx(2.0)


class TestMirrorSymmetry:
    def test_sender_mirror_matches_receiver_display_bitwise(self):
        # lossless zero-delay snap: both sides evaluate the same prediction
        cfg = DrConfig(th_pos=0.5, predictor="second")
        traj = Trajectory(
            "sinusoid-weave",
            {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8},
        )
        sender, recv = SenderModel(cfg), ReceiverModel(cfg)
        for i in range(201):
            now = i * 0.1
            truth = sample_truth(traj, now)
            msg = sender.step(truth, truth.time)
            if msg is not None:
                recv.apply(msg, truth.time)
            mirror = predict(sender.last_sent, truth.time, cfg)
            shown = recv.read(truth.time)
            assert np.array_equal(mirror.position, shown.position)
            assert mirror.orientation == shown.orientation


class TestGateProperties:
    def _run(self, cfg, traj, duration, tick=0.1):
        sender, recv = SenderModel(cfg), ReceiverModel(cfg)
        errors, send_times = [], []
        n = int(round(duration / tick))
        for i in range(n + 1):
            truth = sample_truth(traj, i * tick)
            msg = sender.step(truth, truth.time)
            if msg is not None:
                recv.apply(msg, truth.time)
                send_times.append(truth.time)
            shown = recv.read(truth.time)
            errors.append(float(np.linalg.norm(truth.position - shown.position)))
        return errors, send_times

    def test_gate_soundness_zero_delay(self):
        cfg = DrConfig(th_pos=0.5)
        traj = Trajectory(
            "sinusoid-weave",
            {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8},
        )
        errors, _ = self._run(cfg, traj, 40.0)
        assert max(errors) < cfg.th_pos

    def test_heartbeat_liveness(self):
        cfg = DrConfig(th_pos=math.inf, heartbeat=5.0)
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0]})
        _, send_times = self._run(cfg, traj, 47.0)
        gaps = np.diff(send_times)
        assert np.all(gaps <= 5.0 + 0.1 + 1e-9)

    def test_infinite_threshold_message_count(self):
        # ceil(duration / heartbeat) heartbeats plus the initial update
        cfg = DrConfig(th_pos=math.inf, heartbeat=5.0)
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0]})
        _, send_times = self._run(cfg, traj, 60.0)
        assert len(send_times) == 13

    def test_message_count_monotone_in_threshold(self):
        traj = Trajectory(
            "sinusoid-weave",
            {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8},
        )
        counts = []
        for th in (0.1, 0.2, 0.5, 1.0, 2.0):
            _, send_times = self._run(DrConfig(th_pos=th), traj, 30.0)
            counts.append(len(send_times))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


# Headings at and beside the seam (state() wraps them), and rates that carry
# them a hair past it.
SEAM_HEADINGS = [-math.pi, np.nextafter(-math.pi, 0.0), 0.0, np.nextafter(math.pi, 0.0)]
SEAM_RATES = [-4e-16, 4e-16, -math.pi / 2, math.pi / 2, 0.3]


@pytest.mark.parametrize("t0", [0.0, 3.7])
@pytest.mark.parametrize("omega", SEAM_RATES)
@pytest.mark.parametrize("theta", SEAM_HEADINGS)
def test_predicted_headings_round_as_predict(theta, omega, t0):
    """The heading law of the gate and the display equals predict()'s bit for
    bit, also where the prediction lands on the wrap seam."""
    base = state((1, 2, 3), (1, 0, 0), (0, 1, 0), theta=theta, omega=omega, t=t0)
    truth = StateArrays.of([base])  # one wrapped row
    msg = UpdateMessage("e", base, 0, t0)
    t = t0 + np.arange(1, 51) * 0.1
    got = predict_headings(truth, 0, t - t0)
    for cfg in (DrConfig(predictor="first"), DrConfig(predictor="second")):
        want = np.array([predict(msg, now, cfg).orientation for now in t.tolist()])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
