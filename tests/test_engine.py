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

from drsim.anfis import AnfisBundle, build_network
from drsim.dead_reckoning import DrConfig, ReceiverModel, SenderModel
from drsim.harness import RunResult, Scenario, run_scenario
from drsim.kinematics import Order, Trajectory, sample_truth
from drsim.netsim import Channel, ChannelConfig, EventQueue
from drsim.qos_metrics import (
    CoherenceReport,
    ErrorSeries,
    QosProfile,
    integrated_error,
    verdict,
    violation_windows,
)

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
    for i in range(int(round(sc.duration / sc.tick)) + 1):
        truth = sample_truth(sc.trajectory, i * sc.tick)
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
    traj = Trajectory(kind, TRAJECTORIES[kind], duration=DURATION)
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
    assert run.series.times == ref.series.times
    assert run.series.e_pos == ref.series.e_pos
    assert run.series.e_or == ref.series.e_or
    assert run.send_times == ref.send_times
    assert run.delivery_times == ref.delivery_times
    return ref


def test_every_kind_and_order_over_a_jittery_lossy_reordering_link():
    stale = []
    for kind in TRAJECTORIES:
        for order in (Order.FIRST, Order.SECOND):
            dr = DrConfig(th_pos=0.5, th_or=0.2, order=order, convergence="blend", blend_window=0.5)
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


def fixed_bundle(h_ref: float = 0.5, n_terms: int = 3) -> AnfisBundle:
    """Three grid networks with fixed nonzero consequents, trained by nothing."""
    nets = []
    for axis in range(3):
        net = build_network(
            [("deviation", -1.0, 1.0), ("velocity", -40.0, 40.0), ("orientation", -4.0, 4.0)],
            n_terms=n_terms,
            rule_base="grid",
            seed=axis,
        )
        net.z = np.linspace(-0.02, 0.03, net.n_rules) * (axis + 1)
        nets.append(net)
    return AnfisBundle(nets, h_ref=h_ref, feature_tick=0.1)


def corrector_passes(sc: Scenario) -> list[int]:
    """The rows in each AnfisBundle.residuals call that run_scenario(sc) makes."""
    passes, inner = [], AnfisBundle.residuals

    def residuals(self, dev, vel, orient):
        passes.append(len(orient))
        return inner(self, dev, vel, orient)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AnfisBundle, "residuals", residuals)
        run_scenario(sc)
    return passes


def assert_one_corrector_pass(sc: Scenario) -> None:
    """An anfis run evaluates the corrector once, at every truth row; the same
    run with the polynomial predictor, its bundle still set, evaluates none."""
    assert corrector_passes(sc) == [len(sc.truth.time)]
    polynomial = dataclasses.replace(sc, dr=dataclasses.replace(sc.dr, predictor="polynomial"))
    assert corrector_passes(polynomial) == []


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
        anfis_bundle=fixed_bundle(n_terms=n_terms),
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
    """However far apart updates come, the gate evaluates the corrector in one
    pass over every row, and the run equals the per-tick reference, which
    evaluates it at each update's own row."""
    dr = DrConfig(th_pos=th_pos, predictor="anfis", anfis_bundle=fixed_bundle())
    sc = scenario(kind, dr, tick=tick)
    assert_same_run(sc)
    assert_one_corrector_pass(sc)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(TRAJECTORIES)),
    tick=st.sampled_from([0.1, 0.05, 0.25]),
    th_pos=st.floats(0.05, 3.0),
    th_or=st.one_of(st.just(math.inf), st.floats(0.05, 1.0)),
    heartbeat=st.floats(0.3, 6.0),
    order=st.sampled_from(list(Order)),
    blend_window=st.one_of(st.none(), st.floats(0.05, 2.0)),
    base_delay=st.floats(0.0, 2.0),
    jitter_share=st.floats(0.0, 1.0),
    loss=st.floats(0.0, 0.5),
    reorder=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_configurations(
    kind, tick, th_pos, th_or, heartbeat, order, blend_window, base_delay, jitter_share, loss,
    reorder, seed,
):
    dr = DrConfig(
        th_pos=th_pos,
        th_or=th_or,
        heartbeat=heartbeat,
        order=order,
        convergence="snap" if blend_window is None else "blend",
        blend_window=blend_window or 0.5,
    )
    channel = ChannelConfig(
        base_delay=base_delay,
        jitter=base_delay * jitter_share,
        loss=loss,
        seed=seed,
        reorder_allowed=reorder,
    )
    assert_same_run(scenario(kind, dr, channel, tick=tick))
