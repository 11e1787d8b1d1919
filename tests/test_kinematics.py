import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim.errors import RangeError, ValidationError
from drsim.kinematics import (
    EntityState,
    Order,
    Trajectory,
    advance,
    extrapolate,
    max_speed_bound,
    sample_truth,
    truth_arrays,
    wrap_angle,
    wrap_angles,
)


def state(p, v, a=(0, 0, 0), theta=0.0, omega=0.0, t=0.0):
    return EntityState(p, v, a, theta, omega, t)


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(1.0) == 1.0
        assert wrap_angle(-math.pi) == -math.pi

    def test_pi_wraps_to_minus_pi(self):
        assert wrap_angle(math.pi) == -math.pi

    @given(st.floats(-1e6, 1e6))
    def test_always_in_half_open_interval(self, theta):
        w = wrap_angle(theta)
        assert -math.pi <= w < math.pi

    def test_near_wrap_difference(self):
        # 3.1 vs -3.1 differ by 0.0832 rad the short way around, not 6.2
        d = abs(wrap_angle(3.1 - (-3.1)))
        assert d == pytest.approx(2 * math.pi - 6.2, abs=1e-12)


@given(st.floats(-1e6, 1e6))
def test_wrap_angles_rounds_as_the_scalar(theta):
    assert wrap_angles(np.array([theta]))[0] == wrap_angle(theta)


# Where a wrap's fix-up step can act, and around it.
WRAP_SEAM = [
    s * x
    for s in (1.0, -1.0)
    for x in (
        math.pi,
        np.nextafter(math.pi, 0.0),
        np.nextafter(math.pi, 4.0),
        2 * math.pi,
        3 * math.pi,
        0.0,
        1e-300,
    )
]
angles = st.one_of(
    st.sampled_from(WRAP_SEAM),
    st.builds(
        lambda k, e: (2 * k + 1) * math.pi + e, st.integers(-300, 300), st.floats(-1e-14, 1e-14)
    ),
    st.floats(-1e3, 1e3),
)


def bits(x) -> list[int]:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def fixed_up(theta: np.ndarray) -> np.ndarray:
    """wrap_angle's steps over an array: one remainder, then the fix-up."""
    wrapped = np.remainder(theta + math.pi, 2 * math.pi) - math.pi
    return np.where(wrapped >= math.pi, wrapped - 2 * math.pi, wrapped)


@settings(max_examples=500)
@given(st.lists(angles, min_size=1, max_size=16))
def test_one_wrap_stands_for_repeated_wraps(theta):
    """wrap_angles rounds as the fix-up does, and wrapping a wrapped angle
    changes no bit: one wrap of a predicted heading equals the two or three
    that the per-tick models make."""
    theta = np.array(WRAP_SEAM + theta)
    once = wrap_angles(theta)
    assert bits(once) == bits(fixed_up(theta))
    assert bits(fixed_up(fixed_up(theta))) == bits(once)
    assert bits(fixed_up(fixed_up(fixed_up(theta)))) == bits(once)
    assert bits([wrap_angle(wrap_angle(wrap_angle(x))) for x in theta.tolist()]) == bits(once)


def test_wrap_seam_reaches_the_fix_up():
    # a remainder that rounds up to 2 pi: where the second remainder acts
    plain = np.remainder(np.array(WRAP_SEAM) + math.pi, 2 * math.pi)
    assert (plain == 2 * math.pi).any()


class TestEntityState:
    def test_orientation_normalized(self):
        s = state((0, 0, 0), (0, 0, 0), theta=3 * math.pi)
        assert s.orientation == pytest.approx(-math.pi)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            state((0, float("nan"), 0), (0, 0, 0))

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            state((0, 0, 0), (0, 0, 0), t=-1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            EntityState([0, 0], [0, 0, 0], [0, 0, 0])

    def test_positions_read_only(self):
        s = state((1, 2, 3), (0, 0, 0))
        with pytest.raises(ValueError):
            s.position[0] = 9.0


class TestSampleTruth:
    def test_constant_velocity_linear(self):
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0]}, duration=10.0)
        s = sample_truth(traj, 3.0)
        assert np.allclose(s.position, [3, 0, 0])

    def test_initial_state_at_zero(self):
        for kind, params in [
            ("constant-velocity", {"p0": [1, 2, 3], "v": [1, 0, 0]}),
            ("constant-acceleration", {"p0": [1, 2, 3], "v0": [0, 1, 0], "a": [0, 0, 1]}),
            ("waypoint-script", {"waypoints": [[0, 1, 2, 3], [5, 4, 5, 6]]}),
        ]:
            traj = Trajectory(kind, params, duration=5.0)
            s = sample_truth(traj, 0.0)
            assert np.allclose(s.position, [1, 2, 3])
            assert s.time == 0.0

    def test_sinusoid_symbolic_derivative(self):
        # x(t) = sin(t): at t = pi/2 the position is 1 and the velocity is cos(pi/2) = 0
        traj = Trajectory("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": 1.0}, duration=10.0)
        s = sample_truth(traj, math.pi / 2)
        assert s.position[0] == pytest.approx(1.0, abs=1e-12)
        assert s.velocity[0] == pytest.approx(0.0, abs=1e-12)
        assert s.acceleration[0] == pytest.approx(-1.0, abs=1e-12)

    def test_circular_velocity_tangent(self):
        traj = Trajectory("circular", {"radius": 2.0, "omega": 0.5}, duration=20.0)
        s = sample_truth(traj, 0.0)
        assert np.allclose(s.position, [2, 0, 0])
        assert np.allclose(s.velocity, [0, 1.0, 0])
        assert s.angular_rate == 0.5

    def test_waypoint_segment_velocity(self):
        traj = Trajectory(
            "waypoint-script",
            {"waypoints": [[0, 0, 0, 0], [10, 20, 0, 0]]},
            duration=10.0,
        )
        s = sample_truth(traj, 5.0)
        assert np.allclose(s.position, [10, 0, 0])
        assert np.allclose(s.velocity, [2, 0, 0])

    def test_out_of_range_raises(self):
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0]}, duration=10.0)
        with pytest.raises(RangeError):
            sample_truth(traj, 10.5)
        with pytest.raises(RangeError):
            sample_truth(traj, -0.5)

    def test_numeric_derivatives_match_fields(self):
        # central differences on the position law reproduce velocity/acceleration
        cases = [
            ("sinusoid-weave", {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.7}),
            ("circular", {"radius": 5.0, "omega": 0.4}),
            ("constant-acceleration", {"p0": [0, 0, 0], "v0": [1, 0, 0], "a": [0, 1, 0]}),
        ]
        h = 1e-6
        for kind, params in cases:
            traj = Trajectory(kind, params, duration=20.0)
            for t in (1.0, 7.3, 15.0):
                sm, s, sp = (sample_truth(traj, t + dt) for dt in (-h, 0.0, h))
                v_num = (sp.position - sm.position) / (2 * h)
                a_num = (sp.velocity - sm.velocity) / (2 * h)
                assert np.allclose(v_num, s.velocity, atol=1e-6)
                assert np.allclose(a_num, s.acceleration, atol=1e-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            Trajectory("spline", {}, duration=1.0)


class TestTruthArrays:
    KINDS = [
        ("constant-velocity", {"p0": [1, 2, 3], "v": [1.5, -0.5, 0], "omega": 0.3}),
        ("constant-acceleration", {"p0": [0, 0, 0], "v0": [1, 0, 0], "a": [0, 1, 0.2]}),
        ("sinusoid-weave", {"amplitude": [0, 2, 0], "freq": 0.7, "yaw_amp": 0.5}),
        ("circular", {"radius": 5.0, "omega": -0.4, "phase0": 1.0}),
        ("waypoint-script", {"waypoints": [[2, 0, 0, 0], [9, 14, 0, 0], [15, 14, 7, 0]]}),
    ]

    def test_rows_are_sample_truth(self):
        times = np.arange(201) * 0.1
        for kind, params in self.KINDS:
            traj = Trajectory(kind, params, duration=20.0)
            rows = truth_arrays(traj, times)
            for i, t in enumerate(times.tolist()):
                s = sample_truth(traj, t)
                assert np.array_equal(rows.position[i], s.position)
                assert np.array_equal(rows.velocity[i], s.velocity)
                assert np.array_equal(rows.acceleration[i], s.acceleration)
                assert rows.orientation[i] == s.orientation
                assert rows.angular_rate[i] == s.angular_rate
                assert rows.time[i] == s.time

    def test_out_of_range_raises(self):
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0]}, duration=10.0)
        with pytest.raises(RangeError):
            truth_arrays(traj, [0.0, 10.5])


class TestExtrapolate:
    def test_second_order_hand_oracle(self):
        # 0 + 2*2 + 0.5*1*4 = 6; v = 2 + 1*2 = 4
        s = state((0, 0, 0), (2, 0, 0), (1, 0, 0))
        e = extrapolate(s, 2.0, Order.SECOND)
        assert e.position[0] == pytest.approx(6.0)
        assert e.velocity[0] == pytest.approx(4.0)

    def test_first_order_ignores_acceleration(self):
        s = state((0, 0, 0), (2, 0, 0), (1, 0, 0))
        e = extrapolate(s, 2.0, Order.FIRST)
        assert e.position[0] == pytest.approx(4.0)
        assert e.velocity[0] == pytest.approx(2.0)

    def test_zero_dt_identity(self):
        s = state((1, 2, 3), (4, 5, 6), (7, 8, 9), theta=0.5, omega=0.1, t=3.0)
        for order in Order:
            e = extrapolate(s, 3.0, order)
            assert np.array_equal(e.position, s.position)
            assert np.array_equal(e.velocity, s.velocity)
            assert e.orientation == s.orientation
            assert e.time == 3.0

    def test_backwards_raises(self):
        s = state((0, 0, 0), (0, 0, 0), t=5.0)
        with pytest.raises(RangeError):
            extrapolate(s, 4.0)

    def test_orientation_first_order_and_wrapped(self):
        s = state((0, 0, 0), (0, 0, 0), theta=3.0, omega=1.0)
        e = extrapolate(s, 1.0, Order.SECOND)
        assert e.orientation == pytest.approx(wrap_angle(4.0))
        assert -math.pi <= e.orientation < math.pi

    @given(
        st.floats(0, 10),
        st.floats(0, 10),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    @settings(max_examples=50)
    def test_first_order_is_a_flow(self, t1, t2, v, p):
        t1, t2 = sorted((t1, t2))
        s = state((p, 0, 0), (v, 0, 0), (0.3, 0, 0))
        via = extrapolate(extrapolate(s, t1, Order.FIRST), t2, Order.FIRST)
        direct = extrapolate(s, t2, Order.FIRST)
        assert np.allclose(via.position, direct.position, atol=1e-12)
        assert np.allclose(via.velocity, direct.velocity)

    def test_second_order_exact_on_constant_acceleration(self):
        traj = Trajectory(
            "constant-acceleration",
            {"p0": [0, 0, 0], "v0": [2, 1, 0], "a": [1, 0, 0.5]},
            duration=60.0,
        )
        for t0 in (0.0, 13.7, 42.0):
            base = sample_truth(traj, t0)
            for dt in (0.1, 1.0, 8.5):
                if t0 + dt > 60.0:
                    continue
                pred = extrapolate(base, t0 + dt, Order.SECOND)
                truth = sample_truth(traj, t0 + dt)
                assert np.allclose(pred.position, truth.position, atol=1e-9)
                assert np.allclose(pred.velocity, truth.velocity, atol=1e-9)


_VEC3 = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)


@given(
    st.lists(st.tuples(_VEC3, _VEC3, _VEC3, st.floats(0.0, 1e3)), min_size=1, max_size=8),
    st.sampled_from(list(Order)),
)
def test_advance_rows_are_extrapolate(rows, order):
    """Each row of advance, from one state per row or from the first state alone,
    is extrapolate's position from base time 0, bit for bit."""
    pos, vel, acc, dt = (np.array(col, dtype=float) for col in zip(*rows))
    half = 0.5 * acc if order is Order.SECOND else None
    per_row = advance(pos, vel, half, dt[:, None])
    from_first = advance(pos[0], vel[0], None if half is None else half[0], dt[:, None])
    for i, (p, v, a, step) in enumerate(rows):
        assert per_row[i].tobytes() == extrapolate(state(p, v, a), step, order).position.tobytes()
        first = extrapolate(state(pos[0], vel[0], acc[0]), step, order).position
        assert from_first[i].tobytes() == first.tobytes()


def test_max_speed_bound_dominates_samples():
    cases = [
        Trajectory("sinusoid-weave", {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8}, 30.0),
        Trajectory("circular", {"radius": 10, "omega": 0.5}, 30.0),
        Trajectory("waypoint-script", {"waypoints": [[0, 0, 0, 0], [10, 30, 0, 0], [30, 30, 40, 0]]}, 30.0),
    ]
    for traj in cases:
        bound = max_speed_bound(traj)
        speeds = [
            float(np.linalg.norm(sample_truth(traj, t).velocity))
            for t in np.linspace(0, traj.duration, 301)
        ]
        assert max(speeds) <= bound + 1e-9
