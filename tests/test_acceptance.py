"""End-to-end acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS line (run with -s or check the captured output on failure).
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from drsim.anfis import build_network, forward_batch, loss, train_hybrid
from drsim.dead_reckoning import DrConfig
from drsim.harness import (
    ComparisonStudy,
    TrainSpec,
    load_scenario,
    load_study,
    run_comparison,
    run_scenario,
    sweep,
    train_bundle,
)
from drsim.kinematics import (
    Trajectory,
    accel_deviation_bound,
    extrapolate,
    max_speed_bound,
    sample_truth,
)
from drsim.netsim import Channel, ChannelConfig, EventQueue
from drsim.qos_metrics import CoherenceReport, QosProfile, check_emax_bound, verdict
from reference import make_residual_task

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

STOCK_SCENARIOS = (
    "constant_velocity.yaml",
    "constant_accel.yaml",
    "sinusoid_tight.yaml",
    "circular_loose.yaml",
    "waypoint_snap.yaml",
    "maneuver_inflight.yaml",
)


def _report(number, description):
    print(f"[criterion {number:2d}] PASS - {description}")


@pytest.fixture(scope="module")
def stock_comparison():
    study = load_study(SCENARIO_DIR / "sinusoid_comparison.yaml")
    t0 = time.perf_counter()
    result = run_comparison(study)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stock_runs():
    return {name: run_scenario(load_scenario(SCENARIO_DIR / name)) for name in STOCK_SCENARIOS}


def test_criterion_01_extrapolation_exactness():
    t0 = time.perf_counter()
    traj = Trajectory(
        "constant-acceleration",
        {"p0": [0, 0, 0], "v0": [2, 1, 0], "a": [1.0, 0.0, 0.0]},
    )
    ticks = np.arange(0, 601) * 0.1
    bases = [sample_truth(traj, t) for t in ticks]
    horizon_steps = range(5, 101, 5)  # 0.5 s .. 10 s on the tick grid
    worst = 0.0
    for i, base in enumerate(bases):
        for steps in horizon_steps:
            if i + steps > 600:
                break
            truth = bases[i + steps]
            pred = extrapolate(base, truth.time, "second")
            worst = max(worst, float(np.max(np.abs(pred.position - truth.position))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(1, f"second-order exact on constant acceleration (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_heartbeat_message_count():
    sc = load_scenario(SCENARIO_DIR / "constant_velocity.yaml")
    sc = dataclasses.replace(sc, dr=dataclasses.replace(sc.dr, th_pos=math.inf))
    run = run_scenario(sc)
    assert abs(run.report.messages_sent - 13) <= 1
    _report(2, f"infinite threshold yields {run.report.messages_sent} messages over 60 s (13 +- 1)")


def test_criterion_03_threshold_gating():
    t0 = time.perf_counter()
    traj = Trajectory(
        "sinusoid-weave",
        {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8},
    )
    base = load_scenario(SCENARIO_DIR / "sinusoid_tight.yaml")
    zero_delay = dataclasses.replace(
        base,
        trajectory=traj,
        channel=ChannelConfig(),
        dr=DrConfig(th_pos=0.5),
        duration=60.0,
    )
    run = run_scenario(zero_delay)
    slack = max_speed_bound(traj, zero_delay.duration) * zero_delay.tick
    assert max(run.series.e_pos) <= 0.5 + slack
    rows = sweep(zero_delay, "th_pos", [0.1, 0.2, 0.5, 1.0])
    counts = [r.messages_sent for r in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"gating bounds error (max {max(run.series.e_pos):.3f}) and counts {counts} ({elapsed:.2f}s)")


def test_criterion_04_qos_profile_boundaries():
    report = CoherenceReport()
    tight = QosProfile.tightly_coupled()
    loose = QosProfile.loosely_coupled()
    ok, _ = verdict(report, tight, ChannelConfig(base_delay=0.100, loss=0.02))
    assert ok
    ok, _ = verdict(report, tight, ChannelConfig(base_delay=0.101, loss=0.02))
    assert not ok
    ok, _ = verdict(report, tight, ChannelConfig(base_delay=0.100, loss=0.021))
    assert not ok
    ok, _ = verdict(report, loose, ChannelConfig(base_delay=0.300, loss=0.05))
    assert ok
    ok, _ = verdict(report, loose, ChannelConfig(base_delay=0.301, loss=0.05))
    assert not ok
    ok, _ = verdict(report, loose, ChannelConfig(base_delay=0.300, loss=0.051))
    assert not ok
    _report(4, "coupling profiles inclusive at 100ms/2% and 300ms/5%, fail just past")


def test_criterion_05_channel_statistics():
    from drsim.dead_reckoning import UpdateMessage
    from drsim.kinematics import EntityState

    t0 = time.perf_counter()
    n, tau = 100_000, 0.05
    chan = Channel(ChannelConfig(base_delay=0.1, jitter=0.04, loss=tau, seed=77))
    queue = EventQueue()
    template = EntityState([0, 0, 0], [0, 0, 0], [0, 0, 0], time=0.0)
    for i in range(n):
        chan.send(queue, UpdateMessage("e", template, i, 0.0), 0.0)
    rate = chan.dropped / n
    assert 0.045 <= rate <= 0.055
    dues, seqs = [], []
    queue.run_until(1.0, {"deliver": lambda m, due: (dues.append(due), seqs.append(m.seq))})
    dues = np.asarray(dues)
    assert np.all(dues >= 0.1 - 0.04 - 1e-12) and np.all(dues <= 0.1 + 0.04 + 1e-12)
    assert seqs == sorted(seqs)  # FIFO when reordering is disabled
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, f"loss {rate:.4f} in [0.045, 0.055], jitter bounded, FIFO kept ({elapsed:.2f}s)")


def test_criterion_06_anfis_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    net = build_network([("a", -1, 1), ("b", -2, 2), ("c", -3, 3)], n_terms=7)
    net.z = rng.normal(0, 2, net.n_rules)
    X = rng.uniform(-1.2, 1.2, (1000, 3)) * np.array([1.0, 2.0, 3.0])
    out, beta = forward_batch(net, X)
    assert np.max(np.abs(beta.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(out >= net.z.min()) and np.all(out <= net.z.max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, f"partition of unity, hull bound ({elapsed:.2f}s)")


def test_criterion_07_training_progress():
    traj = Trajectory("sinusoid-weave", {"amplitude": [1.0, 0, 0], "freq": 1.0})
    net, data = make_residual_task(
        traj, tick=0.1, duration=120.0, horizon_ticks=10, n_samples=500
    )
    # 7 x 7 x 1 rules: the orientation holds one value on this trajectory
    assert [s.n_terms for s in net.inputs] == [7, 7, 1] and len(data) == 500
    initial = loss(net, data)
    trained = train_hybrid(net, data)
    assert trained <= 0.5 * initial
    _report(7, f"one ridge solve leaves {trained / initial:.1%} of the initial loss")


def test_criterion_08_horizon_study_pattern(stock_comparison):
    result, elapsed = stock_comparison
    second, anfis_col = result.mae["second"], result.mae["anfis"]
    assert all(a < b for a, b in zip(second, second[1:])), "second-order must grow with horizon"
    assert anfis_col[-1] < 0.5 * second[-1]
    spread = max(anfis_col) / min(anfis_col)
    assert spread < 2.0
    assert elapsed < 60.0
    _report(
        8,
        f"corrector {anfis_col[-1] / second[-1]:.1%} of second-order at horizon 10, "
        f"column spread {spread:.2f}x ({elapsed:.1f}s)",
    )


def test_criterion_09_inflight_incoherence(stock_runs):
    sc = load_scenario(SCENARIO_DIR / "maneuver_inflight.yaml")
    run = stock_runs["maneuver_inflight.yaml"]
    dt_max = sc.channel.base_delay + sc.channel.jitter
    assert run.report.violation_windows, "the delayed run must show transient violations"
    sends = np.asarray(run.send_times)
    for w in run.report.violation_windows:
        ok = np.any((sends <= w.start + 1e-9) & (w.start <= sends + dt_max + 1e-9))
        assert ok, f"violation window at t={w.start} is not tied to an in-flight update"

    zero = dataclasses.replace(sc, channel=ChannelConfig())
    zero_run = run_scenario(zero)
    assert all(w.length <= sc.tick + 1e-9 for w in zero_run.report.violation_windows)
    _report(
        9,
        f"{len(run.report.violation_windows)} windows all start during transit; "
        f"zero-delay windows: {len(zero_run.report.violation_windows)}",
    )


def test_criterion_10_emax_bound(stock_runs):
    margins = []
    for name in STOCK_SCENARIOS:
        sc = load_scenario(SCENARIO_DIR / name)
        run = stock_runs[name]
        accel_bound = accel_deviation_bound(sc.trajectory, sc.dr.predictor)
        bound, ok = check_emax_bound(run.report, sc.channel, sc.dr, accel_bound)
        assert ok, f"{name}: observed {run.report.max_error} exceeds bound {bound}"
        margins.append(run.report.max_error / bound if bound > 0 else 0.0)
    _report(10, f"a-priori bound holds on all stock scenarios (worst usage {max(margins):.1%})")


def test_criterion_11_determinism(stock_runs):
    for name in STOCK_SCENARIOS:
        sc = load_scenario(SCENARIO_DIR / name)
        again = run_scenario(sc)
        assert again.series.to_csv() == stock_runs[name].series.to_csv()
        assert again.report.to_csv_row() == stock_runs[name].report.to_csv_row()

    sc = load_scenario(SCENARIO_DIR / "sinusoid_tight.yaml")
    reseeded = dataclasses.replace(
        sc, channel=dataclasses.replace(sc.channel, seed=sc.channel.seed + 1)
    )
    a, b = stock_runs["sinusoid_tight.yaml"], run_scenario(reseeded)
    assert a.send_times == b.send_times  # truth and gating are seed-independent
    assert a.delivery_times != b.delivery_times
    _report(11, "byte-identical reruns; reseeding changes transit, not truth or gating")


# sinusoid_tight as shipped, and four weaves the corrector was not trained on.
GATED_VARIANTS = {
    "as-shipped": {},
    "freq-0.7": {"freq": 0.7},
    "freq-0.9": {"freq": 0.9},
    "phase-1.0": {"phase": 1.0},
    "amplitude-2.5": {"amplitude": [0.0, 2.5, 0.0]},
}


@pytest.fixture(scope="module")
def gated_reports():
    """Per variant, the (second order, anfis) reports of sinusoid_tight's run
    gated by its own settings, the anfis one by a bundle trained as the sim_anfis
    benchmark trains it: the shipped weave over 300 s, a 7^3 bell grid, horizon
    10 ticks."""
    sc = load_scenario(SCENARIO_DIR / "sinusoid_tight.yaml")
    kind, params = sc.trajectory.kind, sc.trajectory.params
    study = ComparisonStudy(
        trajectory=Trajectory(kind, params),
        tick=sc.tick,
        duration=300.0,
        horizons=(10,),
        train=TrainSpec(split=0.7, n_terms=7, shape="bell"),
        seed=sc.seed,
    )
    learned = dataclasses.replace(sc.dr, predictor="anfis", anfis_bundle=train_bundle(study, 10))
    reports = {}
    for name, change in GATED_VARIANTS.items():
        run = dataclasses.replace(sc, trajectory=Trajectory(kind, {**params, **change}))
        reports[name] = tuple(
            run_scenario(dataclasses.replace(run, dr=dr)).report for dr in (sc.dr, learned)
        )
    return reports


@pytest.mark.parametrize("name", GATED_VARIANTS)
def test_criterion_12_learned_gate_sends_fewer_updates(gated_reports, name):
    second, learned = gated_reports[name]
    assert learned.messages_sent < second.messages_sent
    _report(12, f"{name}: anfis sends {learned.messages_sent}, second order {second.messages_sent}")


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP items 10 and 12: the corrector does not carry over to "
                "another weave frequency (12.18 m*s against 9.18 at freq 0.9)",
            ),
        )
        if name == "freq-0.9"
        else name
        for name in GATED_VARIANTS
    ],
)
def test_criterion_12_learned_gate_integrated_error_no_worse(gated_reports, name):
    second, learned = gated_reports[name]
    assert learned.integrated_error <= second.integrated_error
    _report(
        12,
        f"{name}: anfis integrated error {learned.integrated_error:.2f} m*s, "
        f"second order {second.integrated_error:.2f}",
    )
