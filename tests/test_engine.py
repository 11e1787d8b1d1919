"""The array engine in run_scenario against the per-tick models.

The reference steps SenderModel, Channel.send, EventQueue, ReceiverModel and
ErrorSeries.record once per tick, as a simulation reads most naturally. The
engine must give exactly the same report, series, send times and delivery
times: threshold tests are exact comparisons, so one rounding difference can
move a send by a tick.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim import anfis
from drsim.anfis import AnfisBundle, build_network
from drsim.dead_reckoning import (
    DrConfig,
    ReceiverModel,
    SenderModel,
    SendLog,
    UpdateMessage,
    gate,
    live_tests,
    predict,
)
from drsim.harness import RunResult, Scenario, run_scenario
from drsim.kinematics import (
    EntityState,
    StateArrays,
    Trajectory,
    sample_truth,
    wrap_angle,
    wrap_angles,
)
from drsim.netsim import Channel, ChannelConfig, EventQueue
from drsim.qos_metrics import (
    CoherenceReport,
    ErrorSeries,
    QosProfile,
    integrated_error,
    verdict,
    violation_windows,
)
from reference import count_scoring_passes

DURATION = 60.0

TRAJECTORIES = {
    "constant-velocity": {"p0": [0, 0, 0], "v": [5.0, 1.0, 0.0], "omega": 0.2},
    "constant-acceleration": {"p0": [0, 0, 0], "v0": [3.0, 0.0, 0.0], "a": [1.0, 0.3, 0.0]},
    "sinusoid-weave": {
        "drift": [1.0, 0.0, 0.0],
        "amplitude": [0.0, 2.0, 0.0],
        "freq": 0.8,
        "phase": 0.4,
        "yaw_amp": 0.6,
    },
    "circular": {"radius": 30.0, "omega": 0.3, "phase0": 1.0},
    "waypoint-script": {
        "waypoints": [[0, 0, 0, 0], [12, 40, 0, 0], [24, 40, 35, 0], [40, 0, 35, 0], [60, 0, 0, 0]],
        "omega": 0.1,
    },
}

# Delays that spread over seconds let later updates overtake earlier ones.
JITTERY = ChannelConfig(base_delay=1.0, jitter=0.9, loss=0.1, seed=11, reorder_allowed=True)


def reference_run(sc: Scenario, stale_counts: list | None = None) -> RunResult:
    """One tick at a time through the per-tick models."""
    sender = SenderModel(sc.dr, entity_id=sc.name)
    receiver = ReceiverModel(sc.dr)
    channel = Channel(sc.channel)
    queue = EventQueue()
    series = ErrorSeries(sc.tick)
    result = RunResult(report=CoherenceReport(), series=series)
    max_prop = 0.0

    def on_deliver(msg, due):
        nonlocal max_prop
        receiver.apply(msg, due)
        result.report.messages_delivered += 1
        result.delivery_times.append(due)
        max_prop = max(max_prop, due - msg.sent_at)

    handlers = {"deliver": on_deliver}
    for t in sc.truth.time:  # the run's tick times, the last clamped to its duration
        truth = sample_truth(sc.trajectory, t)
        msg = sender.step(truth, truth.time)
        if msg is not None:
            channel.send(queue, msg, truth.time)
            result.send_times.append(truth.time)
        queue.run_until(truth.time, handlers)
        displayed = receiver.read(truth.time)
        if displayed is not None:
            series.record(truth, displayed)
    queue.run_until(math.inf, handlers)
    if stale_counts is not None:
        stale_counts.append(receiver.stale_discarded)

    report = result.report
    report.messages_sent = channel.sent
    report.messages_dropped = channel.dropped
    report.bytes_sent = channel.sent * sc.message_size_bytes
    report.heartbeats = sender.heartbeat_emissions
    report.v_dev_max_send = sender.v_dev_max
    report.max_prop_delay = max_prop
    if len(series):
        report.max_error = max(series.e_pos)
        report.integrated_error = integrated_error(series)
        report.violation_windows = violation_windows(series, sc.dr.th_pos)
        report.total_violation_time = sum(w.length for w in report.violation_windows)
    report.passed, report.reasons = verdict(report, sc.profile, sc.channel, len(series) > 0)
    return result


def scenario(kind: str, dr: DrConfig, channel: ChannelConfig = JITTERY, tick=0.1) -> Scenario:
    traj = Trajectory(kind, TRAJECTORIES[kind])
    return Scenario(
        name=kind,
        trajectory=traj,
        dr=dr,
        channel=channel,
        profile=QosProfile.loosely_coupled(),
        tick=tick,
        duration=DURATION,
    )


def assert_same_run(sc: Scenario, stale_counts: list | None = None) -> RunResult:
    ref = reference_run(sc, stale_counts)
    run = run_scenario(sc)
    assert dataclasses.asdict(run.report) == dataclasses.asdict(ref.report)
    for name in ("times", "e_pos", "e_or"):
        ours, theirs = getattr(run.series, name), getattr(ref.series, name)
        assert (ours.dtype, ours.tobytes()) == (theirs.dtype, theirs.tobytes()), name
    assert run.send_times == ref.send_times
    assert run.delivery_times == ref.delivery_times
    return ref


def test_every_kind_and_order_over_a_jittery_lossy_reordering_link():
    stale = []
    for kind in TRAJECTORIES:
        for predictor in ("first", "second"):
            dr = DrConfig(
                th_pos=0.5, th_or=0.2, predictor=predictor, convergence="blend", blend_window=0.5
            )
            ref = assert_same_run(scenario(kind, dr), stale)
            assert ref.report.messages_dropped > 0
    # The link must reach the stale discard, or the running maximum goes untested.
    assert sum(stale) > 0


@pytest.mark.parametrize(
    "dr, channel",
    [
        (DrConfig(th_pos=0.3), ChannelConfig(base_delay=0.1, jitter=0.08, loss=0.2, seed=3)),
        (DrConfig(th_pos=0.3, convergence="blend"), ChannelConfig(base_delay=0.1, seed=3)),
        (DrConfig(th_pos=0.0), ChannelConfig()),
        (DrConfig(th_pos=math.inf, th_or=math.inf), ChannelConfig(base_delay=0.3)),
        (DrConfig(th_pos=0.5), ChannelConfig(base_delay=0.2, loss=1.0)),
    ],
    ids=["fifo-jitter", "blend-fixed-delay", "every-tick", "heartbeats-only", "all-lost"],
)
def test_channel_and_gate_corners(dr, channel):
    assert_same_run(scenario("sinusoid-weave", dr, channel))


def test_fine_tick():
    dr = DrConfig(th_pos=0.4, th_or=0.3, convergence="blend", blend_window=0.3)
    assert_same_run(scenario("circular", dr, tick=0.02))


def blend_chain_depth(sc: Scenario) -> int:
    """assert_same_run(sc), returning the longest run of consecutive applied
    deliveries that each land inside the previous one's open blend window, as
    the reference receiver sees them."""
    depth = longest = 0

    def apply(self, msg, now, inner=ReceiverModel.apply):
        nonlocal depth, longest
        if msg.seq > self.last_seq:  # applied, not stale
            depth = depth + 1 if now < self._blend_until else 0
            longest = max(longest, depth)
        inner(self, msg, now)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReceiverModel, "apply", apply)
        assert_same_run(sc)
    return longest


@pytest.mark.parametrize(
    "th_pos, blend_window, channel, depth",
    [
        (0.05, 2.0, ChannelConfig(base_delay=0.3, seed=5), 70),
        (
            0.1,
            1.5,
            ChannelConfig(base_delay=0.5, jitter=0.4, loss=0.05, seed=9, reorder_allowed=True),
            18,
        ),
    ],
    ids=["fixed-delay", "jittery-lossy-reordering"],
)
def test_deep_blend_chains(th_pos, blend_window, channel, depth):
    """Each delivery in a chain blends from a display that still carries the
    previous offset, so the offsets form a recurrence the whole chain deep."""
    dr = DrConfig(th_pos=th_pos, th_or=0.2, convergence="blend", blend_window=blend_window)
    assert blend_chain_depth(scenario("sinusoid-weave", dr, channel)) == depth


def fixed_bundle(h_ref: float = 0.5, n_terms: int = 3, feature_tick: float = 0.1) -> AnfisBundle:
    """Three grid networks with fixed nonzero consequents, trained by nothing,
    for runs at a feature_tick tick."""
    nets = []
    for axis in range(3):
        net = build_network(
            [("deviation", -1.0, 1.0), ("velocity", -40.0, 40.0), ("orientation", -4.0, 4.0)],
            n_terms=n_terms,
        )
        net.z = np.linspace(-0.02, 0.03, net.n_rules) * (axis + 1)
        nets.append(net)
    return AnfisBundle(nets, h_ref=h_ref, feature_tick=feature_tick)


def corrector_passes(action) -> list[list[int]]:
    """The forward passes on each axis of each anfis.bundle_residuals call that
    action() makes (count_scoring_passes)."""
    with pytest.MonkeyPatch.context() as mp:
        passes = count_scoring_passes(mp)
        action()
    return passes


def assert_one_corrector_pass(sc: Scenario) -> None:
    """Loading an anfis scenario evaluates the corrector once, at every truth
    row, one pass per axis and row block, and its run evaluates it not at all."""
    blocks = -(-len(sc.truth.time) // anfis._RESIDUAL_ROWS)
    assert corrector_passes(lambda: dataclasses.replace(sc)) == [[blocks] * 3]
    assert corrector_passes(lambda: run_scenario(sc)) == []


ANFIS_CASES = [
    pytest.param(kind, convergence, 3, 0.1, id=f"{kind}-{convergence}")
    for kind in ("sinusoid-weave", "circular")
    for convergence in ("snap", "blend")
] + [
    # 343 rules: a matrix-vector product over many rows rounds unlike one row's dot.
    pytest.param("sinusoid-weave", "blend", 7, 0.1, id="grid-343-rules"),
    # 1,201 rows: updates past the end of the corrector's first 1,024-row block.
    pytest.param("circular", "snap", 3, 0.05, id="rows-past-one-block"),
]


@pytest.mark.parametrize("kind, convergence, n_terms, tick", ANFIS_CASES)
def test_anfis_predictor(kind, convergence, n_terms, tick):
    dr = DrConfig(
        th_pos=0.5,
        th_or=0.3,
        predictor="anfis",
        anfis_bundle=fixed_bundle(n_terms=n_terms, feature_tick=tick),
        convergence=convergence,
    )
    sc = scenario(kind, dr, tick=tick)
    ref = assert_same_run(sc)
    assert ref.report.messages_sent > ref.report.heartbeats + 1  # threshold sends happen
    assert_one_corrector_pass(sc)


@pytest.mark.parametrize(
    "kind, th_pos, tick",
    [
        ("circular", math.inf, 0.05),  # heartbeats only, 100 rows apart
        ("sinusoid-weave", 2.0, 0.05),  # updates 39-51 rows apart
        ("sinusoid-weave", 1.0, 0.05),  # 31-40 rows apart
        ("circular", 0.5, 0.05),  # 25-33 rows apart
        ("circular", math.inf, 0.02),  # heartbeats only, 250 rows apart over 3,001 rows
    ],
)
def test_anfis_gate_at_any_update_density(kind, th_pos, tick):
    """However far apart updates come, the gate reads the corrector's output
    from one load-time pass over every row, and the run equals the per-tick
    reference, which evaluates it at each update's own row."""
    dr = DrConfig(th_pos=th_pos, predictor="anfis", anfis_bundle=fixed_bundle(feature_tick=tick))
    sc = scenario(kind, dr, tick=tick)
    assert_same_run(sc)
    assert_one_corrector_pass(sc)


@pytest.mark.parametrize("th_or", [0.3, 1e-15])
@pytest.mark.parametrize("predictor", ["first", "second", "anfis"])
def test_heading_on_the_wrap_seam(predictor, th_or):
    """Truth heads exactly at -pi every 4 s (pi/2 rad/s from 0, ticks of 0.1 s),
    on the seam where wrapped headings jump from near +pi to -pi. At th_or
    1e-15 the rounding of the predicted heading decides most sends."""
    params = {"p0": [0, 0, 0], "v": [5.0, 1.0, 0.0], "theta0": 0.0, "omega": math.pi / 2}
    bundle = fixed_bundle() if predictor == "anfis" else None
    dr = DrConfig(th_pos=0.5, th_or=th_or, predictor=predictor, anfis_bundle=bundle)
    sc = Scenario(
        name="wrap-seam",
        trajectory=Trajectory("constant-velocity", params),
        dr=dr,
        channel=JITTERY,
        tick=0.1,
        duration=DURATION,
    )
    assert (sc.truth.orientation == -math.pi).sum() == 10
    assert_same_run(sc)


def test_heading_deviation_is_truth_less_mirror():
    """The gate tests |wrap(truth - mirror)|, the heading deviation SenderModel
    takes with angle_diff. th_or is set to the reference's deviation at the first
    tick where it reaches a new peak and |wrap(x)| exceeds |wrap(-x)| in the last
    bit, so a gate that wrapped mirror - truth would not send there."""
    dr = DrConfig(th_pos=math.inf, heartbeat=DURATION)  # the t = 0 update is mirrored throughout
    sc = scenario("sinusoid-weave", dr, ChannelConfig())
    first = UpdateMessage(sc.name, sample_truth(sc.trajectory, 0.0), 0, 0.0)
    peak = 0.0
    for i in range(1, len(sc.truth.time)):
        truth = sample_truth(sc.trajectory, i * sc.tick)
        x = truth.orientation - predict(first, truth.time, dr).orientation
        dev = abs(wrap_angle(x))
        if dev > peak and abs(wrap_angle(-x)) < dev:
            break
        peak = max(peak, dev)
    else:
        pytest.fail("no tick tells the two operand orders apart")
    ref = assert_same_run(dataclasses.replace(sc, dr=dataclasses.replace(dr, th_or=dev)))
    assert ref.send_times[:2] == [0.0, truth.time]


def reference_log(truth: StateArrays, dr: DrConfig) -> tuple[list[int], int, float]:
    """SenderModel.step at every row of truth: the rows sent, the heartbeat
    count and the largest velocity deviation at a send."""
    sender = SenderModel(dr)
    rows = []
    for i in range(len(truth.time)):
        state = EntityState(
            truth.position[i],
            truth.velocity[i],
            truth.acceleration[i],
            truth.orientation[i],
            truth.angular_rate[i],
            truth.time[i],
        )
        if sender.step(state, state.time) is not None:
            rows.append(i)
    return rows, sender.heartbeat_emissions, sender.v_dev_max


def uniform_motion(n: int, tick: float, a=(0.0, 0.0, 0.0), v0=(3.0, 1.0, 0.0)) -> StateArrays:
    """n rows of constant acceleration a from v0 at the origin, heading zero."""
    t = np.arange(n) * tick
    a, v0 = np.array(a), np.array(v0)
    tc = t[:, None]
    pos, vel = v0 * tc + 0.5 * a * tc * tc, v0 + a * tc
    return StateArrays(pos, vel, np.tile(a, (n, 1)), np.zeros(n), np.zeros(n), t)


def assert_gate_is_reference(truth: StateArrays, dr: DrConfig) -> SendLog:
    """gate on truth equals SenderModel.step at every row; returns its log."""
    log = gate(truth, dr, None)
    rows, heartbeats, v_dev_max = reference_log(truth, dr)
    assert log.rows.tolist() == rows
    assert log.heartbeats == heartbeats
    assert log.v_dev_max == v_dev_max
    return log


def _snapped_heading():
    """No turn rate, and a heading that snaps by 0.5 rad at t = 7 s."""
    truth = uniform_motion(200, 0.1)
    orientation = np.where(truth.time < 7.0, 0.0, 0.5)
    return dataclasses.replace(truth, orientation=orientation), DrConfig(th_pos=1.0, th_or=0.3)


def _heading_jitter_both_ways():
    """A constant turn rate from row 0 on, with later headings 0.01 rad ahead
    of it on even rows and behind it on odd ones: after the first heartbeat,
    mirror and truth differ by twice that residual."""
    truth = uniform_motion(200, 0.1)
    sign = np.where(np.arange(200) % 2 == 0, 1.0, -1.0)
    sign[0] = 0.0
    orientation = wrap_angles(0.1 * truth.time + 0.01 * sign)
    truth = dataclasses.replace(truth, orientation=orientation, angular_rate=np.full(200, 0.1))
    return truth, DrConfig(th_pos=1.0, th_or=0.015)


def _velocity_off_the_law():
    """Positions on the law, velocities 2 cm/s off it after row 0: a mirror
    from a later row drifts 2 cm a second."""
    truth = uniform_motion(200, 0.1)
    velocity = truth.velocity.copy()
    velocity[1:] += [0.02, 0.0, 0.0]
    return dataclasses.replace(truth, velocity=velocity), DrConfig(th_pos=0.05)


def _position_jitter_both_ways():
    """Positions on the law at row 0, then 1 cm off it in y, ahead on even
    rows and behind on odd ones: mirror and truth differ by 2 cm."""
    truth = uniform_motion(200, 0.1)
    sign = np.where(np.arange(200) % 2 == 0, 1.0, -1.0)
    sign[0] = 0.0
    position = truth.position + 0.01 * sign[:, None] * [0.0, 1.0, 0.0]
    return dataclasses.replace(truth, position=position), DrConfig(th_pos=0.019)


def _velocity_off_the_law_past_a_heartbeat():
    """Velocities off the law after row 0 on every axis, with a heartbeat of
    5.05 s at a 0.1 s tick: the deviation reaches th_pos only 5.1 s after an
    update, at the heartbeat tick, which then sends on the threshold."""
    truth = uniform_motion(200, 0.1)
    velocity = truth.velocity.copy()
    velocity[1:] += 0.02
    th_pos = math.sqrt(3.0) * 0.02 * 5.08
    return dataclasses.replace(truth, velocity=velocity), DrConfig(th_pos=th_pos, heartbeat=5.05)


def _position_off_the_law():
    """A constant acceleration, and positions that step 5 cm off its law at t = 7 s."""
    truth = uniform_motion(200, 0.1, a=(1.0, 0.3, 0.0))
    position = truth.position.copy()
    position[70:] += [0.0, 0.05, 0.0]
    return dataclasses.replace(truth, position=position), DrConfig(th_pos=0.04)


def _first_order_under_acceleration():
    """Truth exactly on a constant-acceleration law, which first order leaves out."""
    return uniform_motion(200, 0.1, a=(0.4, 0.0, 0.0)), DrConfig(th_pos=0.5, predictor="first")


@pytest.mark.parametrize(
    "build, live",
    [
        (_snapped_heading, (False, True)),
        (_heading_jitter_both_ways, (False, True)),
        (_position_off_the_law, (True, False)),
        (_position_jitter_both_ways, (True, False)),
        (_velocity_off_the_law, (True, False)),
        (_velocity_off_the_law_past_a_heartbeat, (True, False)),
        (_first_order_under_acceleration, (True, False)),
    ],
    ids=[
        "heading-snap-at-zero-rate",
        "heading-jitter-both-ways",
        "position-off-the-law",
        "position-jitter-both-ways",
        "velocity-off-the-law",
        "velocity-off-the-law-past-a-heartbeat",
        "first-order-under-acceleration",
    ],
)
def test_certificates_refuse_motion_the_mirror_misses(build, live):
    """Each truth strays from its test's law by enough to cross the
    threshold, so that test must stay live, and it sends on the threshold."""
    truth, dr = build()
    assert live_tests(truth, dr) == live
    log = assert_gate_is_reference(truth, dr)
    assert len(log.rows) - 1 > log.heartbeats


def test_constant_rate_across_the_seam_is_certified():
    """10^4 s of a constant turn rate crosses the +-pi seam over a thousand
    times, yet wrapped headings stay on the law within rounding far below
    th_or 1e-6, so neither test can fire and the updates are the heartbeats."""
    n, omega = 10_001, 0.7
    t = np.arange(n) * 1.0
    truth = dataclasses.replace(
        uniform_motion(n, 1.0),
        orientation=wrap_angles(0.3 + omega * t),
        angular_rate=np.full(n, omega),
    )
    assert (np.diff(truth.orientation) < -math.pi).sum() > 1000
    dr = DrConfig(th_pos=0.5, th_or=1e-6, predictor="first")
    assert live_tests(truth, dr) == (False, False)
    log = assert_gate_is_reference(truth, dr)
    assert log.rows.tolist() == list(range(0, n, 5))


@pytest.mark.parametrize("kind", sorted(TRAJECTORIES))
def test_stock_kinds_certify_their_law(kind):
    """Every kind but sinusoid-weave turns at a constant rate, so its heading
    test is idle at th_or 0.3; constant velocity, and constant acceleration
    under second order, follow the polynomial predictor's own law."""
    for predictor in ("first", "second"):
        sc = scenario(kind, DrConfig(th_pos=0.5, th_or=0.3, predictor=predictor))
        polynomial = kind == "constant-velocity" or (
            kind == "constant-acceleration" and predictor == "second"
        )
        assert live_tests(sc.truth, sc.dr) == (not polynomial, kind == "sinusoid-weave")


@pytest.mark.parametrize(
    "kind, params, predictor, th_pos, th_or",
    [
        # Measured residuals of 0: the certificate's law rounds as truth does.
        ("constant-velocity", {"p0": [0, 0, 0], "v": [5.3, 1.7, 0.0]}, "first", 1e-15, math.inf),
        (
            "constant-velocity",
            {"p0": [0, 0, 0], "v": [5.3, 1.7, 0.0], "theta0": -3.0, "omega": -0.3},
            "first",
            math.inf,
            1e-15,
        ),
        (
            "constant-acceleration",
            TRAJECTORIES["constant-acceleration"],
            "second",
            1e-15,
            math.inf,
        ),
        ("circular", TRAJECTORIES["circular"], "second", math.inf, 1e-15),
    ],
    ids=[
        "constant-velocity-th_pos",
        "constant-velocity-th_or",
        "constant-acceleration-th_pos",
        "circular-th_or",
    ],
)
def test_rounding_decides_the_sends(kind, params, predictor, th_pos, th_or):
    """Below the certificates' rounding allowance a truth on its test's law
    still sends on that threshold, because the mirror's rounding crosses it:
    the test must stay live, and the run equal the reference."""
    sc = Scenario(
        name=kind,
        trajectory=Trajectory(kind, params),
        dr=DrConfig(th_pos=th_pos, th_or=th_or, predictor=predictor),
        channel=JITTERY,
        tick=0.1,
        duration=DURATION,
    )
    position, heading = live_tests(sc.truth, sc.dr)
    assert heading if th_pos == math.inf else position
    ref = assert_same_run(sc)
    assert ref.report.messages_sent > ref.report.heartbeats + 1


def thresholds(usual: st.SearchStrategy) -> st.SearchStrategy:
    """usual thresholds, zero, or tiny ones, where rounding decides the sends."""
    tiny = st.floats(-15.0, -6.0).map(lambda e: 10.0**e)  # log-uniform in [1e-15, 1e-6]
    return st.one_of(usual, st.just(0.0), tiny)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(TRAJECTORIES)),
    tick=st.sampled_from([0.1, 0.05, 0.25]),
    th_pos=thresholds(st.floats(0.05, 3.0)),
    th_or=thresholds(st.one_of(st.just(math.inf), st.floats(0.05, 1.0))),
    heartbeat=st.floats(0.3, 6.0),
    predictor=st.sampled_from(["first", "second", "anfis"]),
    blend_window=st.one_of(st.none(), st.floats(0.05, 2.0)),
    base_delay=st.floats(0.0, 2.0),
    jitter_share=st.floats(0.0, 1.0),
    loss=st.floats(0.0, 0.5),
    reorder=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_configurations(
    kind, tick, th_pos, th_or, heartbeat, predictor, blend_window, base_delay, jitter_share, loss,
    reorder, seed,
):
    # "anfis" draws the corrector, on the second order it corrects
    anfis = predictor == "anfis"
    dr = DrConfig(
        th_pos=th_pos,
        th_or=th_or,
        heartbeat=heartbeat,
        predictor=predictor,
        convergence="snap" if blend_window is None else "blend",
        blend_window=blend_window or 0.5,
        anfis_bundle=fixed_bundle(feature_tick=tick) if anfis else None,
    )
    channel = ChannelConfig(
        base_delay=base_delay,
        jitter=base_delay * jitter_share,
        loss=loss,
        seed=seed,
        reorder_allowed=reorder,
    )
    assert_same_run(scenario(kind, dr, channel, tick=tick))
