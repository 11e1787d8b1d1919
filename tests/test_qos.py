import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim.dead_reckoning import DrConfig
from drsim.errors import ValidationError
from drsim.kinematics import EntityState
from drsim.netsim import ChannelConfig
from drsim.qos_metrics import (
    CoherenceReport,
    ErrorSeries,
    QosProfile,
    check_emax_bound,
    integrated_error,
    verdict,
    violation_windows,
)


def state(p, theta=0.0, t=0.0):
    return EntityState(p, [0, 0, 0], [0, 0, 0], theta, 0.0, t)


def assert_same_array(values, expected):
    """values is a float64 array with the bits of expected, -0.0 and NaN included."""
    expected = np.asarray(expected, dtype=float)
    assert (values.dtype, values.tobytes()) == (expected.dtype, expected.tobytes())


def series_from_errors(errors, tick=0.1, t0=0.0):
    s = ErrorSeries(tick)
    for i, e in enumerate(errors):
        t = t0 + i * tick
        s.record(state([e, 0, 0], t=t), state([0, 0, 0], t=t))
    return s


class TestRecordError:
    def test_identical_states_record_zero(self):
        s = ErrorSeries(0.1)
        s.record(state([1, 2, 3], theta=0.4), state([1, 2, 3], theta=0.4))
        assert_same_array(s.times, [0.0])
        assert_same_array(s.e_pos, [0.0])
        assert_same_array(s.e_or, [0.0])

    def test_euclidean_345(self):
        s = ErrorSeries(0.1)
        s.record(state([0, 0, 0]), state([3, 4, 0]))
        assert s.e_pos[0] == pytest.approx(5.0)

    def test_orientation_wraps_short_way(self):
        s = ErrorSeries(0.1)
        s.record(state([0, 0, 0], theta=3.1), state([0, 0, 0], theta=-3.1))
        assert s.e_or[0] == pytest.approx(2 * math.pi - 6.2, abs=1e-12)

    @pytest.mark.parametrize("tick", [0.0, math.nan, math.inf])
    def test_bad_tick_rejected(self, tick):
        match = (r"^bad value for 'tick' in ErrorSeries: expected a number in \(0, inf\), "
                 rf"got {tick}$")
        with pytest.raises(ValidationError, match=match):
            ErrorSeries(tick)

    def test_time_mismatch_rejected(self):
        s = ErrorSeries(0.1)
        with pytest.raises(ValidationError):
            s.record(state([0, 0, 0], t=1.0), state([0, 0, 0], t=1.5))

    def test_grid_break_rejected(self):
        s = series_from_errors([1.0, 1.0])
        with pytest.raises(ValidationError):
            s.record(state([0, 0, 0], t=5.0), state([0, 0, 0], t=5.0))

    def test_csv_shape(self):
        s = series_from_errors([0.25, 0.5])
        lines = s.to_csv().strip().split("\n")
        assert lines[0] == "t,e_pos,e_or"
        assert lines[1].split(",")[1] == "0.25"

    @pytest.mark.parametrize(
        "e_pos, e_or, times",
        [
            ([], [], None),
            ([0.5], [-0.0], None),
            ([0.5, 0.5, 0.5], [0.0, 0.0, 0.0], None),
            ([-0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], None),
            ([0.0, 0.0, -0.0], [math.nan, math.nan, 1.0], None),
            ([1.0, 1.0 + 1e-12, 1.0], [0.1, 0.2, 0.1], None),
            ([0.5, 0.5, 0.5], [-0.0, -0.0, -0.0], [2.0, 2.0, 2.0]),
            ([0.0, -0.0, 0.0], [0.25, 0.5, 0.75], [0.0, -0.0, 0.0]),
        ],
        ids=[
            "empty", "one-row", "constant", "signed-zeros", "zeros-last-and-nan", "below-9-digits",
            "all-columns-constant", "zero-then-negative-zero",
        ],
    )
    def test_csv_renders_each_row_as_its_values(self, e_pos, e_or, times):
        """A column rendered once into the row template reads as rendering
        every row's own values: 0.0 and -0.0 print differently."""
        times = np.arange(len(e_pos)) * 0.1 if times is None else times
        s = ErrorSeries.from_arrays(0.1, times, e_pos, e_or)
        rows = "".join(f"{t:.9g},{p:.9g},{o:.9g}\n" for t, p, o in zip(s.times, s.e_pos, s.e_or))
        assert s.to_csv() == "t,e_pos,e_or\n" + rows

    def test_recorded_series_keeps_arrays(self):
        """A series built by record holds float64 arrays, empty before the first
        sample: the empty series renders as its header, the one-row series as
        its one row."""
        s = ErrorSeries(0.1)
        assert s.to_csv() == "t,e_pos,e_or\n"
        s.record(state([0, 0, 0], theta=0.5, t=0.2), state([0, 3, 4], theta=0.5, t=0.2))
        assert_same_array(s.times, [0.2])
        assert_same_array(s.e_pos, [5.0])
        assert_same_array(s.e_or, [0.0])
        assert s.to_csv() == "t,e_pos,e_or\n0.2,5,0\n"


class TestIntegratedError:
    def test_constant_error_exact(self):
        s = series_from_errors([2.0] * 50, tick=0.1)
        assert integrated_error(s) == pytest.approx(2.0 * 5.0)

    def test_linear_ramp_left_sum(self):
        tick = 0.01
        n = 100
        s = series_from_errors([i * tick for i in range(n)], tick=tick)
        assert abs(integrated_error(s) - 0.5) <= tick

    def test_zero_error_integrates_to_zero(self):
        s = series_from_errors([0.0] * 10)
        assert integrated_error(s) == 0.0

    def test_empty_series_is_error(self):
        with pytest.raises(ValidationError):
            integrated_error(ErrorSeries(0.1))

    def test_pointwise_dominance(self):
        base = [0.5, 1.0, 0.2, 0.8]
        bigger = [x + 0.1 for x in base]
        assert integrated_error(series_from_errors(bigger)) > integrated_error(
            series_from_errors(base)
        )


class TestViolationWindows:
    def test_all_below_is_empty(self):
        assert violation_windows(series_from_errors([0.1, 0.2, 0.1]), 0.5) == []

    def test_hand_case(self):
        s = series_from_errors([1.0, 1.0, 3.0, 3.0, 1.0], tick=0.1)
        windows = violation_windows(s, 2.0)
        assert len(windows) == 1
        w = windows[0]
        assert w.start == pytest.approx(0.2)
        assert w.end == pytest.approx(0.3)
        assert w.peak == pytest.approx(3.0)
        assert w.length == pytest.approx(0.1)

    def test_zero_threshold_covers_positive_samples(self):
        s = series_from_errors([0.0, 0.4, 0.4, 0.0, 0.2])
        windows = violation_windows(s, 0.0)
        covered = sum(round(w.length / 0.1) + 1 for w in windows)
        assert covered == 3  # the three strictly positive samples

    @pytest.mark.parametrize("th", [math.nan, -0.5])
    def test_bad_threshold_rejected(self, th):
        # a NaN threshold compares false with every error, so it would report a clean run
        match = (r"^bad value for 'th_pos' in violation_windows: expected a number >= 0, "
                 rf"got {th}$")
        with pytest.raises(ValidationError, match=match):
            violation_windows(series_from_errors([1.0, 3.0]), th)

    @given(st.lists(st.floats(0, 2), min_size=1, max_size=60), st.floats(0, 1.5))
    @settings(max_examples=80)
    def test_matches_bruteforce_scan(self, errors, th):
        tick = 0.5
        s = series_from_errors(errors, tick=tick)
        windows = violation_windows(s, th)
        # oracle: explicit index scan over the recorded samples
        recorded = s.e_pos
        runs = []
        i = 0
        while i < len(recorded):
            if recorded[i] > th:
                j = i
                while j + 1 < len(recorded) and recorded[j + 1] > th:
                    j += 1
                runs.append((i * tick, j * tick, max(recorded[i : j + 1])))
                i = j + 1
            else:
                i += 1
        assert len(windows) == len(runs)
        for w, (start, end, peak) in zip(windows, runs):
            assert w.start == pytest.approx(start)
            assert w.end == pytest.approx(end)
            assert w.peak == pytest.approx(peak)


EMAX_BOUND_ERROR = (
    r"^bad value for 'accel_bound' in check_emax_bound: expected a number >= 0, got {}$"
)


class TestEmaxBound:
    def test_zero_delay_first_order_flat_truth(self):
        # no acceleration and no transit: the bound collapses to the threshold
        report = CoherenceReport(max_error=0.0, v_dev_max_send=0.0)
        bound, ok = check_emax_bound(
            report, ChannelConfig(), DrConfig(th_pos=1.0, predictor="first"), 0.0
        )
        assert bound == pytest.approx(1.0)
        assert ok

    def test_heartbeat_term_dominates_zero_delay(self):
        report = CoherenceReport(max_error=3.0, v_dev_max_send=2.0)
        dr = DrConfig(th_pos=1.0, heartbeat=5.0)
        bound, ok = check_emax_bound(report, ChannelConfig(), dr, 1.0)
        assert bound == pytest.approx(1.0 + 0.5 * 25.0)  # v_dev term vanishes at DT=0
        assert ok

    def test_transit_terms_enter_with_delay(self):
        report = CoherenceReport(max_error=0.0, v_dev_max_send=2.0)
        dr = DrConfig(th_pos=1.0, heartbeat=5.0)
        chan = ChannelConfig(base_delay=0.1, jitter=0.05)
        bound, _ = check_emax_bound(report, chan, dr, 1.0)
        assert bound == pytest.approx(1.0 + 0.5 * (5.15) ** 2 + 2.0 * 0.15)

    def test_unsatisfied_when_bound_tightened(self):
        report = CoherenceReport(max_error=2.0, v_dev_max_send=0.0)
        dr = DrConfig(th_pos=1.0, heartbeat=5.0)
        _, ok = check_emax_bound(report, ChannelConfig(), dr, 0.0)
        assert not ok  # bound is th_pos = 1.0 < observed 2.0

    def test_negative_accel_bound_rejected(self):
        with pytest.raises(ValidationError, match=EMAX_BOUND_ERROR.format(-1.0)):
            check_emax_bound(CoherenceReport(), ChannelConfig(), DrConfig(), -1.0)

    def test_nan_accel_bound_rejected(self):
        # a NaN bound makes the bound NaN, which no run respects
        with pytest.raises(ValidationError, match=EMAX_BOUND_ERROR.format("nan")):
            check_emax_bound(CoherenceReport(), ChannelConfig(), DrConfig(), math.nan)


class TestVerdict:
    def test_tightly_boundary_inclusive(self):
        ok, reasons = verdict(
            CoherenceReport(),
            QosProfile.tightly_coupled(),
            ChannelConfig(base_delay=0.100, loss=0.02),
        )
        assert ok and reasons == []

    def test_tightly_latency_fail_only(self):
        ok, reasons = verdict(
            CoherenceReport(),
            QosProfile.tightly_coupled(),
            ChannelConfig(base_delay=0.150, loss=0.01),
        )
        assert not ok
        assert len(reasons) == 1
        assert "latency" in reasons[0]

    def test_tightly_loss_fail(self):
        ok, reasons = verdict(
            CoherenceReport(),
            QosProfile.tightly_coupled(),
            ChannelConfig(base_delay=0.05, loss=0.021),
        )
        assert not ok
        assert "loss" in reasons[0]

    def test_loosely_boundary_inclusive(self):
        # 0.2 + 0.1 sums to 0.30000000000000004: on the bound, up to rounding
        for channel in (
            ChannelConfig(base_delay=0.300, loss=0.05),
            ChannelConfig(base_delay=0.2, jitter=0.1, loss=0.05),
        ):
            ok, reasons = verdict(CoherenceReport(), QosProfile.loosely_coupled(), channel)
            assert ok, reasons

    def test_custom_error_budget(self):
        profile = QosProfile(max_latency=1.0, max_loss=1.0, max_error=0.5)
        ok, reasons = verdict(CoherenceReport(max_error=0.6), profile, ChannelConfig())
        assert not ok
        assert "error" in reasons[0]

    def test_jitter_counts_toward_latency(self):
        ok, _ = verdict(
            CoherenceReport(),
            QosProfile.tightly_coupled(),
            ChannelConfig(base_delay=0.09, jitter=0.02),
        )
        assert not ok


def test_report_text_and_csv_row():
    report = CoherenceReport(
        max_error=1.5,
        integrated_error=2.0,
        messages_sent=10,
        messages_delivered=9,
        messages_dropped=1,
        bytes_sent=1440,
        heartbeats=2,
        passed=False,
        reasons=["latency 0.2 s exceeds tightly-coupled bound 0.1 s"],
    )
    row = report.to_csv_row()
    assert row.split(",")[0] == "10"
    assert row.endswith("fail")
    assert CoherenceReport.csv_header().count(",") == row.count(",")
    assert "FAIL" in report.to_text()
