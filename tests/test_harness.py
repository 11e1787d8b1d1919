import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from drsim import anfis, cli, harness
from drsim.anfis import AnfisBundle, features, forward_batch
from drsim.dead_reckoning import DrConfig, SenderModel, gate, predict, predict_positions
from drsim.errors import ValidationError
from drsim.harness import (
    ComparisonStudy,
    Scenario,
    TrainSpec,
    load_scenario,
    load_study,
    run_comparison,
    run_scenario,
    scenario_from_dict,
    study_from_dict,
    sweep,
    sweep_csv,
    train_bundle,
)
from drsim.kinematics import TRAJECTORY_PARAMS, Order, Trajectory, sample_truth, truth_arrays
from drsim.netsim import ChannelConfig
from drsim.qos_metrics import QosProfile
from reference import (
    count_scoring_passes,
    count_training_events,
    make_residual_task,
    reference_bundles,
)
from test_engine import assert_same_run, corrector_passes, fixed_bundle

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def weave(duration=30.0):
    return Trajectory(
        "sinusoid-weave",
        {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8},
        duration=duration,
    )


def scenario(traj=None, dr=None, channel=None, tick=0.1, duration=30.0, **kw):
    return Scenario(
        name=kw.pop("name", "test"),
        trajectory=traj or weave(duration),
        dr=dr or DrConfig(th_pos=0.5),
        channel=channel or ChannelConfig(),
        profile=kw.pop("profile", QosProfile.loosely_coupled()),
        tick=tick,
        duration=duration,
        **kw,
    )


class TestRunScenario:
    def test_constant_velocity_first_order_only_heartbeats(self):
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [2, 0, 0]}, duration=60.0)
        sc = scenario(traj=traj, dr=DrConfig(th_pos=1.0, order=Order.FIRST), duration=60.0)
        run = run_scenario(sc)
        assert run.report.messages_sent == 13  # initial + 12 heartbeats
        assert run.report.heartbeats == 12
        assert run.report.max_error < 1e-9

    def test_zero_threshold_sends_every_tick(self):
        sc = scenario(dr=DrConfig(th_pos=0.0), duration=10.0)
        run = run_scenario(sc)
        assert run.report.messages_sent == 101

    def test_conservation_and_bandwidth(self):
        sc = scenario(
            channel=ChannelConfig(base_delay=0.1, jitter=0.05, loss=0.2, seed=7),
            duration=60.0,
            dr=DrConfig(th_pos=0.3),
        )
        run = run_scenario(sc)
        r = run.report
        assert r.messages_sent == r.messages_delivered + r.messages_dropped
        assert r.bytes_sent == r.messages_sent * sc.message_size_bytes
        assert r.messages_dropped > 0

    def test_seed_changes_drops_not_truth(self):
        def run_with(seed):
            sc = scenario(
                channel=ChannelConfig(base_delay=0.1, loss=0.3, seed=seed),
                dr=DrConfig(th_pos=0.3),
                duration=30.0,
            )
            return run_scenario(sc)

        a, b = run_with(1), run_with(2)
        assert a.send_times == b.send_times  # sender is channel-independent
        assert a.delivery_times != b.delivery_times

    def test_byte_identical_outputs_across_runs(self):
        sc = scenario(channel=ChannelConfig(base_delay=0.1, jitter=0.03, loss=0.1, seed=3))
        a, b = run_scenario(sc), run_scenario(sc)
        assert a.series.to_csv() == b.series.to_csv()
        assert a.report.to_csv_row() == b.report.to_csv_row()

    def test_violations_only_in_flight(self):
        sc = load_scenario(SCENARIO_DIR / "maneuver_inflight.yaml")
        run = run_scenario(sc)
        dt = sc.channel.base_delay + sc.channel.jitter
        assert run.report.violation_windows
        sends = np.asarray(run.send_times)
        for w in run.report.violation_windows:
            candidates = sends[(sends <= w.start + 1e-9) & (sends >= w.start - dt - 1e-9)]
            assert candidates.size, f"window at {w.start} has no in-flight update"

    def test_stale_heartbeat_read_is_exact_at_message_time(self):
        # quiet period: the display at the message timestamp equals the message state
        traj = Trajectory("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0]}, duration=10.0)
        sc = scenario(traj=traj, dr=DrConfig(th_pos=math.inf), duration=10.0)
        run = run_scenario(sc)
        assert run.report.max_error < 1e-12


class TestTickCount:
    """A run's last tick falls at or before its duration, never past it: round()
    took 3.5 s at a 1 s tick to 4 ticks, past the trajectory's end."""

    @pytest.mark.parametrize(
        "duration, tick, n_ticks",
        [(2.5, 1.0, 2), (3.5, 1.0, 3), (3.0, 1.0, 3), (0.3, 0.1, 3), (30.0, 0.1, 300)],
    )
    def test_whole_ticks_within_duration(self, duration, tick, n_ticks):
        sc = scenario(tick=tick, duration=duration)
        assert sc.n_ticks == n_ticks
        assert run_scenario(sc).series.times[-1] == pytest.approx(n_ticks * tick)
        table = ComparisonStudy(sc.trajectory, tick, duration).table
        assert len(table.truth.time) == n_ticks + 1


class TestTruthSampledOnce:
    """A run or a study samples truth once, when it loads; running, sweeping
    and training read what the load sampled."""

    @pytest.fixture
    def samples(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return truth_arrays(*args)

        monkeypatch.setattr(harness, "truth_arrays", counted)
        return calls

    def test_run_file(self, samples):
        sc = load_scenario(SCENARIO_DIR / "maneuver_inflight.yaml")
        assert len(samples) == 1
        run_scenario(sc)
        assert len(samples) == 1

    def test_sweep_samples_once_per_value(self, samples):
        # a sweep row changes only dr or channel, so it reuses the base's truth
        base = scenario()
        samples.clear()
        rows = sweep(base, "th_pos", [0.2, 0.5, 1.0]) + sweep(base, "loss", [0.0, 0.5])
        assert len(samples) == 0
        assert [r.error for r in rows] == [""] * 5

    def test_study_file(self, samples, tmp_path):
        study = load_study(tiny_study_file(tmp_path))
        assert len(samples) == 1
        train_bundle(study, 3)
        run_comparison(study)
        assert len(samples) == 1


class TestLoadedBundle:
    """A scenario's runs correct with its bundle as it was at load."""

    def test_bundle_edited_after_load_leaves_runs_as_loaded(self):
        bundle = fixed_bundle()
        sc = scenario(dr=DrConfig(th_pos=0.5, predictor="anfis", anfis_bundle=bundle))
        before = run_scenario(sc).report
        for net in bundle.networks:
            net.z *= 50.0
        bundle.h_ref *= 2.0
        edited = scenario(dr=DrConfig(th_pos=0.5, predictor="anfis", anfis_bundle=bundle))
        assert run_scenario(sc).report == before
        assert run_scenario(edited).report.messages_sent != before.messages_sent

    def test_bundle_replaced_after_load_fails_the_run(self):
        sc = scenario(dr=DrConfig(th_pos=0.5, predictor="anfis", anfis_bundle=fixed_bundle()))
        sc.dr.anfis_bundle = fixed_bundle()
        with pytest.raises(ValidationError, match="'anfis_net' was replaced after load"):
            run_scenario(sc)


class TestSweep:
    def test_threshold_sweep_monotone_messages(self):
        rows = sweep(scenario(duration=30.0), "th_pos", [0.1, 0.2, 0.5, 1.0])
        counts = [r.messages_sent for r in rows]
        assert counts == sorted(counts, reverse=True) or all(
            a >= b for a, b in zip(counts, counts[1:])
        )

    def test_zero_loss_drops_nothing(self):
        rows = sweep(scenario(), "loss", [0.0])
        assert rows[0].error == ""
        run = run_scenario(scenario())
        assert run.report.messages_dropped == 0

    def test_delay_sweep_grows_violation_time(self):
        sc = load_scenario(SCENARIO_DIR / "maneuver_inflight.yaml")
        rows = sweep(sc, "base_delay", [0.0, 0.1, 0.3])
        times = [r.total_violation_time for r in rows]
        assert times[0] <= times[1] <= times[2]
        assert times[2] > 0

    def test_row_equals_a_fresh_run(self):
        base = scenario(channel=ChannelConfig(loss=0.1, seed=4))
        row = sweep(base, "loss", [0.3])[0]
        fresh = run_scenario(scenario(channel=ChannelConfig(loss=0.3, seed=4))).report
        assert (row.messages_sent, row.max_error) == (fresh.messages_sent, fresh.max_error)
        assert row.total_violation_time == fresh.total_violation_time
        assert base.channel.loss == 0.1

    @pytest.mark.parametrize(
        "axis, values", [("th_pos", [0.2, 0.5, 1.0]), ("loss", [0.0, 0.1, 0.3])]
    )
    def test_anfis_sweep_evaluates_the_corrector_once(self, tmp_path, axis, values):
        """Loading and sweeping an anfis scenario makes one corrector pass, at
        load; each row equals the run of a scenario loaded with its value."""
        fixed_bundle().save(tmp_path / "bundle.json")
        cfg = {
            "tick": 0.1,
            "duration": 30.0,
            "seed": 4,
            "trajectory": {"kind": "sinusoid-weave", "amplitude": [0, 2, 0], "freq": 0.8,
                           "drift": [1, 0, 0], "yaw_amp": 0.6},
            "dr": {"th_pos": 0.5, "th_or": 0.3, "predictor": "anfis", "anfis_net": "bundle.json"},
            "channel": {"base_delay": 0.1, "loss": 0.1},
        }
        rows = []
        passes = corrector_passes(
            lambda: rows.extend(sweep(scenario_from_dict(cfg, tmp_path), axis, values))
        )
        assert passes == [301]
        section = harness.SWEEP_AXES[axis]
        for row, value in zip(rows, values):
            fresh = scenario_from_dict(dict(cfg, **{section: dict(cfg[section], **{axis: value})}),
                                       tmp_path)
            report = run_scenario(fresh).report
            assert row == harness.SweepRow(
                value, report.messages_sent, report.max_error, report.total_violation_time
            )

    def test_bad_axis_rejected(self):
        with pytest.raises(ValidationError):
            sweep(scenario(), "heartbeat", [1.0])

    def test_row_error_reported_not_fatal(self):
        sc = scenario(channel=ChannelConfig(base_delay=0.1, jitter=0.1, seed=1))
        rows = sweep(sc, "base_delay", [0.05, 0.2])  # 0.05 < jitter violates the config
        assert rows[0].error != ""
        assert rows[1].error == ""
        csv_text = sweep_csv("base_delay", rows)
        assert "jitter" in csv_text

    def test_csv_stable_header(self):
        rows = sweep(scenario(), "th_pos", [0.5])
        assert sweep_csv("th_pos", rows).startswith(
            "th_pos,messages_sent,max_error,total_violation_time,error"
        )


class TestComparison:
    def test_second_order_exact_on_constant_acceleration(self):
        traj = Trajectory(
            "constant-acceleration",
            {"p0": [0, 0, 0], "v0": [1, 0, 0], "a": [0.5, 0, 0]},
            duration=40.0,
        )
        study = ComparisonStudy(
            trajectory=traj,
            tick=0.1,
            duration=40.0,
            horizons=(1, 5, 10),
            predictors=("second",),
        )
        res = run_comparison(study)
        assert all(v < 1e-9 for v in res.mae["second"])

    def test_second_order_error_grows_with_horizon(self):
        study = ComparisonStudy(
            trajectory=weave(60.0),
            tick=0.1,
            duration=60.0,
            horizons=tuple(range(1, 8)),
            predictors=("first", "second"),
        )
        res = run_comparison(study)
        for name in ("first", "second"):
            col = res.mae[name]
            assert all(a < b for a, b in zip(col, col[1:]))

    def test_csv_mirrors_table_shape(self):
        study = ComparisonStudy(
            trajectory=weave(40.0),
            tick=0.1,
            duration=40.0,
            horizons=(1, 2),
            predictors=("first", "second"),
        )
        text = run_comparison(study).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "horizon,first,second"
        assert len(lines) == 3

    def test_trained_bundle_beats_plain_extrapolation(self):
        traj = Trajectory(
            "sinusoid-weave",
            {"amplitude": [1.0, 0, 0], "freq": 1.0, "yaw_amp": 1.0},
            duration=120.0,
        )
        study = ComparisonStudy(
            trajectory=traj,
            tick=0.1,
            duration=120.0,
            horizons=(10,),
            predictors=("second", "anfis"),
            seed=5,
        )
        res = run_comparison(study)
        assert res.mae["anfis"][0] < res.mae["second"][0]


    def test_study_predicts_as_the_gate_and_the_reference(self, monkeypatch):
        """At each held-out row and horizon, the study's anfis prediction equals,
        bit for bit, the gate's mirror prediction from that row (predict_positions
        on the gate's corrector pass), predict() from the update SenderModel sends
        there, and AnfisBundle.predict on the two states up to the row. A 1/8 s
        tick keeps every tick time exact, so a gap of h ticks is h / 8 s in all four."""
        traj = Trajectory(
            "sinusoid-weave",
            {"amplitude": [0, 2, 0], "drift": [1, 0, 0], "freq": 0.8, "yaw_amp": 0.6},
            duration=40.0,
        )
        study = ComparisonStudy(
            trajectory=traj, tick=0.125, duration=40.0, horizons=(1, 4, 9),
            predictors=("anfis",), train=TrainSpec(n_terms=3),
        )
        seen = []

        def recorded(*args):
            pos = predict_positions(*args)
            if args[4].predictor == "anfis":  # not a training target
                seen.append((args, pos))
            return pos

        monkeypatch.setattr(harness, "predict_positions", recorded)
        run_comparison(study)
        assert len(seen) == len(study.horizons)
        truth = study.table.truth
        states = [sample_truth(traj, t) for t in truth.time.tolist()]
        moved = False
        for h, ((_, _, test, dt, config, _), study_pos) in zip(study.horizons, seen):
            rows = np.arange(len(states))[test]
            bundle, ahead = config.anfis_bundle, truth.time[rows + h]
            assert np.array_equal(ahead - truth.time[rows], np.full(len(rows), dt[0]))
            every_tick = DrConfig(th_pos=0.0, predictor="anfis", anfis_bundle=bundle)
            log = gate(truth, every_tick, bundle.residuals(features(truth, bundle.feature_tick)))
            assert np.array_equal(log.rows, np.arange(len(states)))
            half_a = 0.5 * truth.acceleration
            gate_pos = predict_positions(
                truth, half_a, rows, ahead - truth.time[rows], every_tick, log.residuals[rows]
            )
            assert gate_pos.tobytes() == study_pos.tobytes()
            sender = SenderModel(every_tick)
            sent = [sender.step(s, s.time) for s in states]
            for k, i in enumerate(rows.tolist()):
                mirror = predict(sent[i], ahead[k], every_tick).position
                assert mirror.tobytes() == study_pos[k].tobytes()
                two_states = bundle.predict(states[i - 1 : i + 1], dt[0])
                assert two_states.tobytes() == study_pos[k].tobytes()
                moved |= not np.array_equal(bundle.predict(states[i : i + 1], dt[0]), two_states)
        assert moved  # the deviation reaches the output: a zero one would predict otherwise


class TestResidualTask:
    def test_shapes_and_determinism(self):
        traj = Trajectory("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": 1.0}, duration=120.0)
        net, data = make_residual_task(traj, 0.1, 120.0, horizon_ticks=10, n_samples=500)
        assert len(data) == 500
        assert data.inputs.shape == (500, 3)
        assert net.n_rules == 49
        _, data2 = make_residual_task(traj, 0.1, 120.0, horizon_ticks=10, n_samples=500)
        assert np.array_equal(data.inputs, data2.inputs)
        assert np.array_equal(data.targets, data2.targets)

    def test_too_short_trajectory_rejected(self):
        traj = Trajectory("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": 1.0}, duration=5.0)
        with pytest.raises(ValidationError):
            make_residual_task(traj, 0.1, 5.0, horizon_ticks=10, n_samples=500)


def spike_study(horizons=(1, 2, 6, 8), **train) -> ComparisonStudy:
    """x and y zigzag at 1 and 0.5 m/s, then x jumps 3 m from t = 20.75 to 20.85 s.

    A study trains on rows 1 .. 209 - h for its longest horizon h, so only a
    study whose horizons are all 1 tick reaches the jump (row 208): its x
    network has wider deviation and velocity ranges than a study's with longer
    horizons."""
    waypoints = [[float(t), float(t % 2), 0.5 * (t % 2), 0.0] for t in range(21)]
    waypoints += [[20.75, 0.75, 0.0, 0.0], [20.85, 3.75, 0.0, 0.0], [30.0, 3.75, 0.0, 0.0]]
    traj = Trajectory("waypoint-script", {"waypoints": waypoints, "omega": 0.05}, duration=30.0)
    return ComparisonStudy(
        traj, 0.1, 30.0, horizons=horizons, predictors=("anfis",), train=TrainSpec(**train)
    )


class TestHorizonsTrainedTogether:
    """A study trains all its horizons on the rows they share: per axis, one
    network, one forward pass and one solve with a column per horizon. Its
    bundles equal the plain loop's (reference_bundles) bit for bit, and
    train_bundle gives any horizon, in the study or not, the bundle it has when
    trained with the study's horizons."""

    @pytest.fixture
    def passes(self, monkeypatch):
        return count_training_events(monkeypatch)

    @staticmethod
    def check(study, passes):
        """Trains study's horizons together, then one at a time, each training
        with one pass and one solve per axis; returns the bundles of the first."""
        for kind in passes:
            kind.clear()
        together = train_bundle(study, tuple(study.horizons))
        assert passes == ([1] * 3, [1] * 3)
        alone = [train_bundle(study, h) for h in study.horizons]
        expected = [b.to_dict() for b in reference_bundles(study, tuple(study.horizons))]
        assert [b.to_dict() for b in together] == expected
        assert [b.to_dict() for b in alone] == expected
        for bundle in together:  # one premise set per axis
            assert all(a.inputs == b.inputs for a, b in zip(bundle.networks, together[0].networks))
        return together

    def test_stock_study(self, passes):
        # The ten horizons' 3 x 10 networks: 3 passes and 3 solves of 10 columns.
        self.check(load_study(SCENARIO_DIR / "sinusoid_comparison.yaml"), passes)

    def test_stock_comparison(self, passes, monkeypatch):
        # The whole study: 3 training passes and 3 solves, then 3 scoring passes.
        scoring = count_scoring_passes(monkeypatch)
        run_comparison(load_study(SCENARIO_DIR / "sinusoid_comparison.yaml"))
        assert passes == ([1] * 3, [1] * 3) and scoring == [[1] * 3]

    def test_rows_straddle_a_block_edge(self, passes, monkeypatch):
        # In 69-row blocks, the 274 rows the horizons share hold 3 full blocks
        # and 67 rows more; the plain loop sums the same blocks.
        monkeypatch.setattr(anfis, "_GRAM_ROWS", 69)
        study = ComparisonStudy(
            weave(40.0), 0.1, 40.0, horizons=(1, 3, 5), predictors=("anfis",),
            train=TrainSpec(n_terms=5),
        )
        self.check(study, passes)

    def test_horizon_outside_the_study_trains_with_its_horizons(self, passes):
        # h = 1 alone would reach the jump; trained with the study's horizons,
        # it takes their rows and premises, in one pass and one solve per axis.
        study = spike_study(horizons=(2, 6, 8), n_terms=5)
        bundle = train_bundle(study, 1)
        assert passes == ([1] * 3, [1] * 3)
        assert bundle.to_dict() == reference_bundles(study, (1,))[0].to_dict()
        premises = [net.to_dict()["inputs"] for net in bundle.networks]
        together = self.check(study, passes)
        assert premises == [net.to_dict()["inputs"] for net in together[0].networks]
        alone = train_bundle(spike_study(horizons=(1,), n_terms=5), 1)
        assert premises[0] != alone.networks[0].to_dict()["inputs"]

    @pytest.mark.parametrize("horizon, match", [
        (1, "horizon 1: 2 training row\\(s\\) before the split, fewer than the 25 rules of its y"),
        (3, "horizon 3: 0 training row\\(s\\) before the split$"),
    ])
    def test_study_too_short_names_its_longest_horizon(self, horizon, match):
        study = ComparisonStudy(
            weave(40.0), 0.1, 40.0, horizons=(1,), train=TrainSpec(n_terms=5, split=0.01)
        )
        with pytest.raises(ValidationError, match=match):
            train_bundle(study, horizon)


class TestHorizonsScoredTogether:
    """A study scores all its horizons from one forward pass per axis and
    distinct premise set, and each horizon's corrections equal, bit for bit,
    those of its bundle scored alone over its own held-out rows."""

    @pytest.fixture
    def passes(self, monkeypatch):
        return count_scoring_passes(monkeypatch)

    def test_stock_study(self, passes):
        # Every horizon holds out fewer than 1,024 rows: one block, and the ten
        # networks of an axis have equal premises.
        run_comparison(load_study(SCENARIO_DIR / "sinusoid_comparison.yaml"))
        assert passes == [[1] * 3]

    def test_unequal_networks_make_their_own_pass(self, passes):
        # A study of h = 1 alone reaches the jump, so its x network has ranges
        # of its own; y and z equal those of the study of longer horizons.
        bundles = (train_bundle(spike_study(horizons=(1,), n_terms=5), 1),
                   *train_bundle(spike_study(horizons=(2, 6), n_terms=5), (2, 6)))
        inputs = spike_study(horizons=(1,), n_terms=5).table.inputs
        residuals = anfis.bundle_residuals(bundles, inputs, [50, 40, 30])
        assert passes == [[2, 1, 1]]
        for bundle, residual in zip(bundles, residuals):
            assert residual.tobytes() == bundle.residuals(inputs[:, : len(residual)]).tobytes()

    def test_rows_straddle_a_block_edge(self, passes, monkeypatch):
        # In 44-row blocks, the horizons' 90, 89, 85 and 83 held-out rows end in
        # the third block for h = 1 and 2 and in the second for h = 6 and 8; every
        # block makes one pass per axis for all four horizons.
        monkeypatch.setattr(anfis, "_RESIDUAL_ROWS", 44)
        study = spike_study(n_terms=5)
        seen = []

        def recorded(*args):
            if args[4].predictor == "anfis":  # not a training target
                seen.append((args[2], args[4].anfis_bundle, args[5]))
            return predict_positions(*args)

        monkeypatch.setattr(harness, "predict_positions", recorded)
        run_comparison(study)
        assert passes == [[3, 3, 3]]
        assert [t.stop - t.start for t, _, _ in seen] == [90, 89, 85, 83]
        monkeypatch.setattr(anfis, "_RESIDUAL_ROWS", 1024)
        for test, bundle, residual in seen:
            assert residual.tobytes() == bundle.residuals(study.table.inputs[:, test]).tobytes()


def test_epochs_and_eta_leave_training_unchanged():
    """Training is one ridge solve per network: it reads neither key."""
    bundles = [
        train_bundle(
            ComparisonStudy(
                weave(40.0), 0.1, 40.0, horizons=(1, 3), train=TrainSpec(n_terms=3, **train)
            ),
            (1, 3),
        )
        for train in ({"epochs": 1, "eta": 0.0}, {"epochs": 4, "eta": 0.5})
    ]
    assert [b.to_dict() for b in bundles[0]] == [b.to_dict() for b in bundles[1]]


def term_counts(bundle) -> list[list[int]]:
    return [[spec.n_terms for spec in net.inputs] for net in bundle.networks]


@pytest.fixture(scope="module")
def stock_bundle():
    return train_bundle(load_study(SCENARIO_DIR / "sinusoid_comparison.yaml"), 10)


@pytest.fixture(scope="module")
def tight_study():
    """The sinusoid_tight trajectory over 300 s, trained on a 7^3 grid at h = 10."""
    src = yaml.safe_load((SCENARIO_DIR / "sinusoid_tight.yaml").read_text(encoding="utf-8"))
    return study_from_dict(
        {
            "seed": src["seed"],
            "tick": src["tick"],
            "duration": 300.0,
            "trajectory": src["trajectory"],
            "horizons": [10],
            "train": {"n_terms": 7},
        }
    )


@pytest.fixture(scope="module")
def tight_bundle(tight_study):
    return train_bundle(tight_study, 10)


class TestOneTermInputs:
    """An input that holds one value over the training rows gets one term."""

    def test_stock_study_velocity_of_y_and_z(self, stock_bundle):
        # amplitude [1, 0, 0]: the y and z velocity is 0 on every row
        assert [net.n_rules for net in stock_bundle.networks] == [343, 49, 49]
        assert term_counts(stock_bundle) == [[7, 7, 7], [7, 1, 7], [7, 1, 7]]

    def test_sinusoid_tight_trajectory(self, tight_bundle):
        # x velocity is the 1 m/s drift; z deviation and velocity are both 0
        assert [net.n_rules for net in tight_bundle.networks] == [49, 343, 7]
        assert term_counts(tight_bundle) == [[7, 1, 7], [7, 7, 7], [1, 1, 7]]

    def test_mixed_bundle_round_trips_bit_identical(self, tight_study, tight_bundle, tmp_path):
        bundle = tight_bundle
        bundle.save(tmp_path / "bundle.json")
        loaded = AnfisBundle.load(tmp_path / "bundle.json")
        assert term_counts(loaded) == term_counts(bundle)
        table = tight_study.table
        rng = np.random.default_rng(17)
        extra = np.empty((3, 100, 3))
        extra[:, :, 0] = rng.normal(0.0, 0.01, (3, 100))
        extra[:, :, 1] = rng.normal(0.0, 2.0, (3, 100))
        extra[:, :, 2] = rng.uniform(-1.0, 1.0, 100)
        inputs = np.concatenate([table.inputs, extra], axis=1)
        expected = bundle.residuals(inputs)
        assert np.array_equal(loaded.residuals(inputs), expected)

    def test_one_term_input_value_does_not_move_the_output(self, stock_bundle):
        net = stock_bundle.networks[1]  # y: deviation, velocity (one term), orientation
        rng = np.random.default_rng(23)
        x = np.column_stack(
            [rng.normal(0.0, 1e-3, 300), np.zeros(300), rng.uniform(-1.5, 1.5, 300)]
        )
        out = forward_batch(net, x)[0]
        assert np.ptp(out) > 0.0
        for value in (-3.0, 0.5, 12.0):
            x[:, 1] = value
            np.testing.assert_allclose(forward_batch(net, x)[0], out, rtol=1e-12, atol=0)


class TestConfigFiles:
    def test_all_stock_scenarios_load(self):
        files = sorted(SCENARIO_DIR.glob("*.yaml"))
        assert len(files) >= 6
        for f in files:
            if "comparison" in f.name:
                continue
            sc = load_scenario(f)
            assert sc.tick > 0

    def test_stock_files_read_as_safe_load_reads_them(self):
        for f in sorted(SCENARIO_DIR.glob("*.yaml")):
            assert harness._read_config(f) == yaml.safe_load(f.read_text(encoding="utf-8"))

    def test_round_trip_fields(self, tmp_path):
        cfg = {
            "name": "rt",
            "seed": 9,
            "tick": 0.05,
            "duration": 12.0,
            "message_size_bytes": 200,
            "trajectory": {"kind": "circular", "radius": 4.0, "omega": 0.5},
            "dr": {"th_pos": 0.7, "th_or": 0.2, "heartbeat": 3.0, "order": "first",
                   "convergence": "blend", "blend_window": 0.4},
            "channel": {"base_delay": 0.2, "jitter": 0.1, "loss": 0.01,
                        "reorder_allowed": True},
            "profile": {"name": "custom", "max_latency": 0.5, "max_loss": 0.1,
                        "max_error": 2.0},
        }
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        sc = load_scenario(path)
        assert sc.seed == 9
        assert sc.dr.order is Order.FIRST
        assert sc.dr.convergence == "blend"
        assert sc.channel.reorder_allowed is True
        assert sc.channel.seed == 9  # inherits the scenario seed
        assert sc.profile.max_error == 2.0
        assert sc.message_size_bytes == 200

    def test_infinite_threshold_parses(self, tmp_path):
        text = (
            "tick: 0.1\n"
            "duration: 1.0\n"
            "trajectory: {kind: constant-velocity, p0: [0, 0, 0], v: [1, 0, 0]}\n"
            "dr: {th_pos: .inf}\n"
        )
        path = tmp_path / "sc.yaml"
        path.write_text(text, encoding="utf-8")
        assert math.isinf(load_scenario(path).dr.th_pos)

    def test_scenario_longer_than_trajectory_rejected(self, tmp_path):
        cfg = yaml.safe_load((SCENARIO_DIR / "sinusoid_tight.yaml").read_text(encoding="utf-8"))
        cfg["trajectory"]["duration"] = 60.0
        cfg["duration"] = 90.0
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"duration 90\.0 s .* duration 60\.0 s"):
            load_scenario(path)
        cfg["duration"] = 60.0
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert load_scenario(path).n_ticks == 600


# Each trajectory kind with only the parameters it requires.
MINIMAL_PARAMS = {
    "constant-velocity": {"p0": [0, 0, 0], "v": [1, 0, 0]},
    "constant-acceleration": {"p0": [0, 0, 0], "v0": [1, 0, 0], "a": [0, 1, 0]},
    "sinusoid-weave": {"amplitude": [1, 0, 0], "freq": 1.0},
    "circular": {"radius": 2.0, "omega": 0.5},
    "waypoint-script": {"waypoints": [[0, 0, 0, 0], [5, 1, 0, 0]]},
}

RUN_CFG = {
    "tick": 0.1,
    "duration": 1.0,
    "trajectory": {"kind": "constant-velocity", "p0": [0, 0, 0], "v": [1, 0, 0]},
    "dr": {"th_pos": 0.5},
    "channel": {"base_delay": 0.1},
}


class TestConfigKeys:
    """A misspelt or misplaced key fails at load time and names the key."""

    @pytest.mark.parametrize(
        "section, key",
        [(None, "tick_size"), ("dr", "th_pso"), ("channel", "lost"), (None, "truth"), (None, "table")],
    )
    def test_unknown_run_key_rejected(self, tmp_path, section, key):
        cfg = yaml.safe_load(yaml.safe_dump(RUN_CFG))
        (cfg if section is None else cfg[section])[key] = 1.0
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        where = "run file" if section is None else section
        with pytest.raises(ValidationError, match=f"unknown key '{key}' in {where}"):
            load_scenario(path)

    def test_trajectory_key_outside_its_kind_rejected(self, tmp_path):
        cfg = yaml.safe_load(yaml.safe_dump(RUN_CFG))
        cfg["trajectory"]["freq"] = 1.0  # not a constant-velocity parameter
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown key 'freq' in a constant-velocity"):
            load_scenario(path)

    @pytest.mark.parametrize("kind", sorted(MINIMAL_PARAMS))
    def test_each_kind_loads_with_only_its_required_parameters(self, kind):
        required = {k for k, default in TRAJECTORY_PARAMS[kind].items() if default is None}
        assert set(MINIMAL_PARAMS[kind]) == required
        cfg = dict(RUN_CFG, trajectory={"kind": kind, **MINIMAL_PARAMS[kind]})
        traj = scenario_from_dict(cfg).trajectory
        expected = {**TRAJECTORY_PARAMS[kind], **MINIMAL_PARAMS[kind]}
        assert traj.params.keys() == expected.keys()
        for key, value in expected.items():
            assert np.array_equal(traj.params[key], value), key
        for key in required:
            cfg = dict(RUN_CFG, trajectory={"kind": kind, **MINIMAL_PARAMS[kind]})
            del cfg["trajectory"][key]
            with pytest.raises(ValidationError, match=f"missing key '{key}' in a {kind}"):
                scenario_from_dict(cfg)

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("profile", {"name": "custom", "max_latency": 0.5, "max_loss": 0.1, "max_eror": 0.01},
             "max_eror"),
            ("profile", {"name": "tightly-coupled", "max_loss": 0.5}, "max_loss"),
            ("dr", {"th_pos": "abc"}, "th_pos"),
            ("channel", {"reorder_allowed": "false"}, "reorder_allowed"),
            ("profile", {"max_latency": math.nan, "max_loss": 0.1}, "max_latency"),
            ("profile", {"max_latency": 0.5, "max_loss": 0.1, "max_error": math.nan}, "max_error"),
            ("profile", {"max_latency": 0.5, "max_loss": -0.5}, "max_loss"),
        ],
        ids=[
            "profile-typo", "named-profile-override", "non-numeric", "quoted-bool",
            "nan-latency", "nan-error", "negative-loss",
        ],
    )
    def test_bad_section_rejected(self, tmp_path, section, value, key):
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(dict(RUN_CFG, **{section: value})), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"'{key}' in {section}"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "kind, params, key, match",
        [
            ("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0]}, "v", "3-vector"),
            ("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0, 0]}, "v", "3-vector"),
            ("constant-velocity", {"p0": [0, 0], "v": [1, 0, 0]}, "p0", "3-vector"),
            ("constant-velocity", {"p0": [0, 0, 0, 0], "v": [1, 0, 0]}, "p0", "3-vector"),
            ("constant-velocity", {"p0": [0, 0, 0], "v": "fast"}, "v", "3-vector"),
            ("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": "abc"}, "freq", "finite number"),
            ("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": math.nan}, "freq", "finite number"),
            ("sinusoid-weave", {"amplitude": [1, 0], "freq": 1.0}, "amplitude", "3-vector"),
            ("circular", {"radius": [1, 2], "omega": 1.0}, "radius", "finite number"),
            ("circular", {"radius": 1, "omega": 1, "center": [0, math.nan, 0]}, "center", "finite"),
            ("constant-acceleration", {"p0": [0, 0, 0], "v0": [0, 0, 0], "a": [math.inf, 0, 0]},
             "a", "finite"),
            ("constant-velocity", {"p0": [0, 0, 0], "v": [1, 0, 0], "theta0": "x"}, "theta0",
             "finite number"),
            ("waypoint-script", {"waypoints": []}, "waypoints", "rows"),
            ("waypoint-script", {"waypoints": [[0, 0, 0], [1, 1, 0]]}, "waypoints", "rows"),
            ("waypoint-script", {"waypoints": [[1, 0, 0, 0], [0, 1, 0, 0]]}, "waypoints",
             "t increasing"),
            # a flag or text is no number, as in every other section
            ("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": "1e-1"}, "freq",
             "finite number, got '1e-1'"),
            ("sinusoid-weave", {"amplitude": [1, 0, 0], "freq": True}, "freq",
             "finite number, got True"),
            ("sinusoid-weave", {"amplitude": ["1", True, 0], "freq": 0.1}, "amplitude",
             r"3-vector of numbers, got \['1', True, 0\]"),
            ("constant-velocity", {"p0": [0, 0, 0], "v": [1, False, 0]}, "v",
             "3-vector of numbers"),
            ("waypoint-script", {"waypoints": [[0, 0, 0, 0], [1, "2", 0, 0]]}, "waypoints",
             r"rows, t increasing, got \[\[0, 0, 0, 0\], \[1, '2', 0, 0\]\]"),
            ("waypoint-script", {"waypoints": [[0, 0, 0, 0], [True, 1, 0, 0]]}, "waypoints",
             "rows"),
        ],
        ids=[
            "v-2", "v-4", "p0-2", "p0-4", "v-text", "freq-text", "freq-nan", "amplitude-2",
            "radius-list", "center-nan", "a-inf", "theta0-text", "waypoints-empty",
            "waypoints-3-columns", "waypoints-decreasing", "freq-numeric-text", "freq-flag",
            "amplitude-text-and-flag", "v-flag", "waypoint-text-cell", "waypoint-flag-time",
        ],
    )
    def test_bad_trajectory_parameter_rejected(self, kind, params, key, match):
        cfg = dict(RUN_CFG, trajectory={"kind": kind, **params})
        with pytest.raises(ValidationError, match=f"'{key}' in a {kind} trajectory must .*{match}"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize(
        "params, named",
        [
            (
                {"kind": "constant-acceleration", "p0": [0, 0, 0], "v0": [0, 0, 0],
                 "a": [1e307, 0, 0]},
                r"a=\[1e\+307, 0.0, 0.0\]",
            ),
            ({"kind": "constant-velocity", "p0": [0, 0, 0], "v": [0, 1e308, 0]},
             r"v=\[0.0, 1e\+308, 0.0\]"),
            # Finite at both ends (sin is 0 at t = 0, about 1e-16 at 10 s), not
            # in between: the whole tick grid is checked.
            (
                {"kind": "sinusoid-weave", "p0": [1e308, 0, 0], "amplitude": [1e308, 0, 0],
                 "freq": math.pi / 10},
                r"amplitude=\[1e\+308, 0.0, 0.0\]",
            ),
        ],
        ids=["acceleration", "velocity", "sinusoid-midway"],
    )
    def test_trajectory_that_overflows_by_its_end_rejected(self, params, named):
        """Finite at t = 0, not at the duration: rejected at load, naming the
        kind and parameters, with no numpy warning (a warning fails the suite)."""
        cfg = dict(RUN_CFG, duration=10.0, trajectory=params)
        match = f"a {params['kind']} trajectory with .*{named}.* overflows by t = 10.0"
        with pytest.raises(ValidationError, match=match):
            scenario_from_dict(cfg)

    def test_trajectory_parameters_are_read_only_arrays_and_floats(self):
        traj = Trajectory("waypoint-script", {"waypoints": [[0, 0, 0, 0], [2, 1, 0, 0]]}, 2.0)
        assert traj.params["waypoints"].shape == (2, 4)
        assert not traj.params["waypoints"].flags.writeable
        assert type(traj.params["omega"]) is float
        circle = Trajectory("circular", {"radius": 1, "omega": 2}, 2.0)
        assert not circle.params["center"].flags.writeable
        assert type(circle.params["radius"]) is float

    @pytest.mark.parametrize(
        "where, key, value, match",
        [
            ("train", "epochs", 0, "'epochs' in train must be >= 1"),
            ("train", "n_terms", 0, "'n_terms' in train must be >= 1"),
            ("train", "eta", -1.0, "'eta' in train must be >= 0"),
            ("train", "rule_base", "grdi", "unknown 'rule_base' in train: 'grdi'"),
            ("train", "rule_base", "compact", "unknown 'rule_base' in train: 'compact'"),
            ("train", "regime", "gd", "unknown 'regime' in train: 'gd'"),
            ("train", "shape", "bel", "unknown 'shape' in train: 'bel'"),
            ("train", "obs_noise_pos", math.nan, "'obs_noise_pos' in train must be >= 0"),
            ("study file", "seed", -1, "'seed' in study file must be >= 0"),
            ("run file", "seed", -1, "seed must be >= 0"),  # the channel inherits it
            ("channel", "seed", -1, "seed must be >= 0"),
            # an integer key takes only an integer, a number key no flag or text
            ("train", "epochs", 2.7, "'epochs' in train: expected an integer, got 2.7"),
            ("train", "n_terms", 3.9, "'n_terms' in train: expected an integer, got 3.9"),
            ("study file", "horizons", [1.5, 2], "'horizons' in study file: expected an integer"),
            ("study file", "seed", 3.9, "'seed' in study file: expected an integer, got 3.9"),
            ("channel", "seed", True, "'seed' in channel: expected an integer, got True"),
            ("run file", "message_size_bytes", "144", "expected an integer, got '144'"),
            ("train", "eta", True, "'eta' in train: expected a number, got True"),
            ("train", "split", "0.7", "'split' in train: expected a number, got '0.7'"),
            ("run file", "tick", "1e-1", "'tick' in run file: expected a number, got '1e-1'"),
        ],
    )
    def test_bad_setting_rejected_at_load(self, tmp_path, where, key, value, match):
        if where in ("train", "study file"):
            cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
            (cfg["train"] if where == "train" else cfg)[key] = value
            load = study_from_dict
        else:
            cfg = yaml.safe_load(yaml.safe_dump(RUN_CFG))
            (cfg["channel"] if where == "channel" else cfg)[key] = value
            load = scenario_from_dict
        with pytest.raises(ValidationError, match=match):
            load(cfg)

    def test_anfis_predictor_with_first_order_rejected_at_load(self, tmp_path):
        # the corrector corrects a second-order extrapolation, so it takes no other order
        fixed_bundle().save(tmp_path / "bundle.json")
        dr = {"predictor": "anfis", "anfis_net": "bundle.json", "order": "first"}
        with pytest.raises(ValidationError, match="'order' must be second with the anfis"):
            scenario_from_dict(dict(RUN_CFG, dr=dr), base_dir=tmp_path)

    def test_anfis_net_without_anfis_predictor_rejected_at_load(self, tmp_path):
        # a polynomial run would load the bundle and never read it
        fixed_bundle().save(tmp_path / "bundle.json")
        dr = {"predictor": "polynomial", "anfis_net": "bundle.json"}
        with pytest.raises(ValidationError, match="'anfis_net' needs the anfis predictor"):
            scenario_from_dict(dict(RUN_CFG, dr=dr), base_dir=tmp_path)

    def test_anfis_net_that_fires_no_rule_rejected_at_load(self, tmp_path):
        """Velocity terms on [-1, 1] m/s with exponent 200 reach zero in double
        precision 3 m/s past their outer centre: an entity accelerating at 10
        m/s^2 gets there at t = 0.4 s, and the x network fires no rule from that
        tick on."""
        bundle = fixed_bundle()
        for net in bundle.networks:
            velocity = net.inputs[1]
            velocity.lo, velocity.hi = -1.0, 1.0
            velocity.params[1] = 200.0
        bundle.save(tmp_path / "bundle.json")
        trajectory = {"kind": "constant-acceleration", "p0": [0, 0, 0], "v0": [0, 0, 0],
                      "a": [10, 0, 0]}
        dr = {"predictor": "anfis", "anfis_net": "bundle.json"}
        match = r"'anfis_net' fires no rule at t = 0\.4 s: its inputs there are too far outside"
        with pytest.raises(ValidationError, match=match):
            scenario_from_dict(dict(RUN_CFG, trajectory=trajectory, dr=dr), base_dir=tmp_path)

    def test_anfis_net_of_another_tick_rejected_at_load(self, tmp_path):
        # the corrector's deviation feature is a one-tick deviation at the bundle's tick
        fixed_bundle(feature_tick=0.05).save(tmp_path / "bundle.json")
        dr = {"predictor": "anfis", "anfis_net": "bundle.json"}
        match = r"'anfis_net' was trained on a 0\.05 s tick, but the run's tick is 0\.1 s"
        with pytest.raises(ValidationError, match=match):
            scenario_from_dict(dict(RUN_CFG, dr=dr), base_dir=tmp_path)

    def test_minimal_files_take_the_dataclass_defaults(self, tmp_path):
        cfg = {"seed": 5, "tick": 0.1, "duration": 1.0, "trajectory": RUN_CFG["trajectory"]}
        sc = scenario_from_dict(cfg)
        assert sc.dr == DrConfig()
        assert sc.channel == ChannelConfig(seed=5)
        assert sc.profile == QosProfile.loosely_coupled()
        study_cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
        del study_cfg["train"]
        assert study_from_dict(study_cfg).train == TrainSpec()

    @pytest.mark.parametrize("tick", [0.0, -0.1, math.nan])
    def test_study_tick_must_be_positive(self, tmp_path, tick):
        cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
        with pytest.raises(ValidationError, match="tick must be positive"):
            study_from_dict(dict(cfg, tick=tick))

    def test_study_longer_than_trajectory_rejected(self):
        study_file = SCENARIO_DIR / "sinusoid_comparison.yaml"
        cfg = yaml.safe_load(study_file.read_text(encoding="utf-8"))
        cfg["trajectory"]["duration"] = 10.0
        cfg["duration"] = 60.0
        with pytest.raises(ValidationError, match=r"duration 60\.0 s .* duration 10\.0 s"):
            study_from_dict(cfg)
        cfg["duration"] = 10.0
        assert study_from_dict(cfg).duration == 10.0

    @pytest.mark.parametrize("key", ["horizons", "train", "predictors"])
    def test_study_key_in_run_file_rejected(self, tmp_path, key):
        cfg = dict(RUN_CFG, **{key: [1]})
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"key '{key}' belongs to a study file"):
            load_scenario(path)

    def test_stock_study_file_does_not_run(self, capsys):
        assert cli.main(["run", str(SCENARIO_DIR / "sinusoid_comparison.yaml")]) == 1
        assert "'horizons' belongs to a study file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [(None, "dr"), ("train", "epoch"), ("train", "center_jitter"), (None, "truth"),
         (None, "table")],
    )
    def test_unknown_study_key_rejected(self, tmp_path, section, key):
        cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
        (cfg if section is None else cfg[section])[key] = 1
        path = tmp_path / "bad_study.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        where = "study file" if section is None else section
        with pytest.raises(ValidationError, match=f"unknown key '{key}' in {where}"):
            load_study(path)

    def test_repeated_study_predictor_rejected(self, tmp_path):
        # Each copy would append its MAE to the one list keyed by the name.
        cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
        cfg["predictors"] = ["first", "second", "second"]
        with pytest.raises(ValidationError, match="'predictors' .* lists 'second' more than once"):
            study_from_dict(cfg)

    def test_repeated_study_horizon_rejected(self, tmp_path):
        # Each copy would write its row of the compare CSV again.
        cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
        cfg["horizons"] = [3, 1, 3]
        with pytest.raises(ValidationError, match="'horizons' .* lists 3 more than once"):
            study_from_dict(cfg)

    def test_benchmark_training_settings_load(self, monkeypatch):
        """The training settings the sim_anfis benchmark workload sends load as
        its set-up loads them, each key to its TrainSpec field."""
        workloads = bench_module(monkeypatch, "workloads")
        src = yaml.safe_load((SCENARIO_DIR / workloads.ANFIS_SOURCE).read_text(encoding="utf-8"))
        study = study_from_dict(
            {
                "seed": src["seed"],
                "tick": src["tick"],
                "duration": workloads.ANFIS_TRAIN_DURATION,
                "trajectory": src["trajectory"],
                "horizons": [workloads.ANFIS_HORIZON],
                "train": workloads.ANFIS_TRAIN,
            }
        )
        assert {key: getattr(study.train, key) for key in workloads.ANFIS_TRAIN} == (
            workloads.ANFIS_TRAIN
        )

    def test_noisy_study_checks_its_seed_before_drawing(self, tmp_path):
        cfg = yaml.safe_load(tiny_study_file(tmp_path).read_text(encoding="utf-8"))
        cfg["seed"], cfg["train"]["obs_noise_pos"] = -1, 0.01
        with pytest.raises(ValidationError, match="'seed' in study file must be >= 0"):
            study_from_dict(cfg)

    def test_section_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(dict(RUN_CFG, dr=[0.5])), encoding="utf-8")
        with pytest.raises(ValidationError, match="dr must be a mapping"):
            load_scenario(path)


def tiny_study_file(tmp_path):
    cfg = {
        "seed": 3,
        "tick": 0.1,
        "duration": 60.0,
        "trajectory": {
            "kind": "sinusoid-weave",
            "amplitude": [1.0, 0.0, 0.0],
            "freq": 1.0,
            "yaw_amp": 1.0,
        },
        "horizons": [1, 3],
        "predictors": ["second", "anfis"],
        "train": {"regime": "hybrid", "epochs": 1, "eta": 0.0, "rule_base": "grid", "n_terms": 2},
    }
    path = tmp_path / "study.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def bench_module(monkeypatch, name: str):
    """bench/<name>.py, imported by path for the duration of the test."""
    path = SCENARIO_DIR.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look a module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_patches_and_restores_its_targets(monkeypatch):
    """The traced benchmark wraps drsim names it looks up by hand: each must still
    exist, and uninstall must put every original back."""
    tracer = bench_module(monkeypatch, "tracer").Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        replaced = [vars(owner)[attr] is not original for owner, attr, original in patched]
    finally:
        tracer.uninstall()
    assert patched and all(replaced)
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["run", str(SCENARIO_DIR / "constant_velocity.yaml"), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.csv").read_text().startswith("messages_sent")
        assert (tmp_path / "errors.csv").read_text().startswith("t,e_pos,e_or")
        assert "PASS" in capsys.readouterr().out

    def test_run_qos_fail_exit_two(self, tmp_path):
        cfg = {
            "tick": 0.1,
            "duration": 2.0,
            "trajectory": {"kind": "constant-velocity", "p0": [0, 0, 0], "v": [1, 0, 0]},
            "channel": {"base_delay": 0.25},
            "profile": {"name": "tightly-coupled"},
        }
        path = tmp_path / "fail.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 2

    def test_run_that_displays_nothing_exit_two(self, tmp_path, capsys):
        cfg = {
            "tick": 0.1,
            "duration": 2.0,
            "trajectory": {"kind": "constant-velocity", "p0": [0, 0, 0], "v": [1, 0, 0]},
            "channel": {"loss": 1.0},
            "profile": {"name": "custom", "max_latency": 0.5, "max_loss": 1.0, "max_error": 0.5},
        }
        path = tmp_path / "lost.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 2
        assert "the receiver displayed nothing" in capsys.readouterr().out

    def test_error_exit_one(self, capsys):
        assert cli.main(["run", "/nonexistent/path.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_bundle_error_names_the_key(self, tmp_path, capsys):
        bundle = {"kind": "anfis-bundle", "h_ref": 1.0, "feature_tick": 0.1}
        (tmp_path / "bundle.json").write_text(json.dumps(bundle), encoding="utf-8")
        cfg = dict(RUN_CFG, dr={"predictor": "anfis", "anfis_net": "bundle.json"})
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 1
        assert "missing key 'networks'" in capsys.readouterr().err

    def test_compare_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = cli.main(["compare", str(tiny_study_file(tmp_path)), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "horizon,second,anfis"
        assert len(lines) == 3

    def test_train_then_run_with_bundle(self, tmp_path, capsys):
        study = tiny_study_file(tmp_path)
        bundle_path = tmp_path / "bundle.json"
        assert cli.main(["train", str(study), "--save", str(bundle_path), "--horizon", "3"]) == 0
        capsys.readouterr()
        cfg = {
            "tick": 0.1,
            "duration": 10.0,
            "trajectory": {
                "kind": "sinusoid-weave",
                "amplitude": [1.0, 0.0, 0.0],
                "freq": 1.0,
                "yaw_amp": 1.0,
            },
            "dr": {"th_pos": 0.3, "predictor": "anfis", "anfis_net": "bundle.json"},
        }
        sc_path = tmp_path / "anfis_run.yaml"
        sc_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli.main(["run", str(sc_path)]) == 0
        printed = capsys.readouterr().out
        # The CLI-trained bundle gates the run as the per-tick reference does.
        ref = assert_same_run(load_scenario(sc_path))
        assert printed == ref.report.to_text()
        assert ref.report.messages_sent > ref.report.heartbeats + 1  # threshold sends happen

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_train_rejects_horizon_below_one_before_training(
        self, tmp_path, capsys, monkeypatch, horizon
    ):
        trained = []
        monkeypatch.setattr(anfis, "train_networks", lambda *args: trained.append(args))
        study, bundle_path = tiny_study_file(tmp_path), tmp_path / "bundle.json"
        argv = ["train", str(study), "--save", str(bundle_path), "--horizon", horizon]
        assert cli.main(argv) == 1
        assert trained == [] and not bundle_path.exists()
        assert f"horizon {horizon} must be a positive tick count" in capsys.readouterr().err

    def test_train_horizon_trains_with_the_study_horizons(self, tmp_path, capsys):
        # The study's horizons are 1 and 3: h = 2 trains on their shared rows,
        # at the premises of their bundles, and h = 419 leaves no row to train.
        study_path = tiny_study_file(tmp_path)
        argv = ["train", str(study_path), "--save", str(tmp_path / "bundle.json"), "--horizon"]
        assert cli.main([*argv, "2"]) == 0
        saved, study = AnfisBundle.load(tmp_path / "bundle.json"), load_study(study_path)
        assert saved.to_dict() == train_bundle(study, 2).to_dict()
        premises = [net.to_dict()["inputs"] for net in train_bundle(study, 3).networks]
        assert [net.to_dict()["inputs"] for net in saved.networks] == premises
        (tmp_path / "bundle.json").unlink()
        capsys.readouterr()
        assert cli.main([*argv, "419"]) == 1
        assert "study too short for horizon 419" in capsys.readouterr().err
        assert not (tmp_path / "bundle.json").exists()

    def test_train_prints_rule_and_term_counts(self, tmp_path, capsys):
        bundle_path = tmp_path / "bundle.json"
        study = SCENARIO_DIR / "sinusoid_comparison.yaml"
        assert cli.main(["train", str(study), "--save", str(bundle_path), "--horizon", "10"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"trained corrector bundle at horizon 10 ticks -> {bundle_path}",
            "  x: 343 rules; terms deviation 7, velocity 7, orientation 7",
            "  y: 49 rules; terms deviation 7, velocity 1, orientation 7",
            "  z: 49 rules; terms deviation 7, velocity 1, orientation 7",
        ]
        assert term_counts(AnfisBundle.load(bundle_path)) == [[7, 7, 7], [7, 1, 7], [7, 1, 7]]

    def test_sweep_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            [
                "sweep",
                str(SCENARIO_DIR / "sinusoid_tight.yaml"),
                "--axis",
                "th_pos",
                "--values",
                "0.2,0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().startswith("th_pos,")
