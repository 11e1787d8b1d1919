"""Span tracer for the traced benchmark run.

It wraps public functions of each ``drsim`` module from outside, by
replacing the name where callers look it up: a module global such as
``harness.sample_truth`` or a class attribute such as ``SenderModel.step``.
``drsim`` itself is not edited. A wrapper passes arguments, results and
exceptions through unchanged.

Each call records a span (id, name, start, end, parent span, operation id)
in memory; ``write`` saves them when the run ends. A span's self time is its
duration minus the time its child spans cover. Operation 0 is the set-up;
the traced passes number their operations from 1.
"""

from __future__ import annotations

import functools
import re
import time
from array import array
from collections import defaultdict

import numpy as np

from drsim import anfis, dead_reckoning, harness, kinematics, netsim, qos_metrics

STOCK_TICK_KEYS = (
    "circular_loose",
    "constant_accel",
    "constant_velocity",
    "maneuver_inflight",
    "sinusoid_tight",
    "waypoint_snap",
)

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [
        ("kinematics.sample_truth.calls", "count"),
        ("kinematics.sample_truth.self_s", "s"),
        ("kinematics.state_checks.calls", "count"),
        ("kinematics.state_checks.self_s", "s"),
        ("kinematics.extrapolate.calls", "count"),
        ("kinematics.extrapolate.self_s", "s"),
        ("kinematics.truth_dup_ratio", "ratio"),
    ]
    + [
        (f"dead_reckoning.{span}.{stat}", unit)
        for span in ("sender_step", "predict", "receiver_read", "receiver_apply")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("dead_reckoning.sends_initial", "count"),
        ("dead_reckoning.sends_threshold", "count"),
        ("dead_reckoning.sends_heartbeat", "count"),
        ("dead_reckoning.stale_discarded", "count"),
        ("dead_reckoning.empty_reads", "count"),
        ("dead_reckoning.send_ratio", "ratio"),
        ("netsim.channel_send.calls", "count"),
        ("netsim.channel_send.self_s", "s"),
        ("netsim.run_until.calls", "count"),
        ("netsim.run_until.self_s", "s"),
        ("netsim.events_dispatched", "count"),
        ("netsim.dropped", "count"),
        ("netsim.delivered_ratio", "ratio"),
        ("netsim.idle_poll_ratio", "ratio"),
        ("qos_metrics.record.calls", "count"),
        ("qos_metrics.record.self_s", "s"),
        ("qos_metrics.pass_s", "s"),
        ("qos_metrics.to_csv.self_s", "s"),
        ("qos_metrics.violation_windows", "count"),
        ("anfis.forward_batch.calls", "count"),
        ("anfis.forward_batch.self_s", "s"),
        ("anfis.forward_batch.rows_per_call", "rows"),
        ("anfis.layer1.self_s", "s"),
        ("anfis.layer2.self_s", "s"),
        ("anfis.layer3.self_s", "s"),
        ("anfis.lstsq.calls", "count"),
        ("anfis.lstsq.self_s", "s"),
        ("anfis.train_hybrid.self_s", "s"),
        ("anfis.bundle_predict.calls", "count"),
        ("anfis.bundle_predict.self_s", "s"),
        ("anfis.consequent_rank_ratio", "ratio"),
        ("harness.run_scenario.self_s", "s"),
        ("harness.build_motion_table.calls", "count"),
        ("harness.build_motion_table.self_s", "s"),
        ("harness.train_bundle.calls", "count"),
        ("harness.train_bundle.self_s", "s"),
        ("harness.load_s", "s"),
    ]
    + [(f"harness.tick_us.{key}", "us") for key in STOCK_TICK_KEYS]
    + [
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
        ("trace.digest_mismatches", "count"),
    ]
)

_RANK_RE = re.compile(r"rank deficient \((\d+)/(\d+)\)")
_LOAD = "harness.load"
_QOS_PASS = ("qos_metrics.integrated_error", "qos_metrics.violation_windows", "qos_metrics.verdict")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # Span columns, one entry per finished span.
        self.span_id = array("q")
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("q")
        # Per phase (0 = set-up, 1 = traced passes): self time and calls per name.
        self.self_s = ([], [])
        self.calls = ([], [])
        self.counts = (defaultdict(float), defaultdict(float))
        self.truth_keys: tuple[set, set] = (set(), set())
        self.op_id = 0
        self.phase = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.phase = 0 if op_id == 0 else 1

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for phase in (0, 1):
                self.self_s[phase].append(0.0)
                self.calls[phase].append(0)
        return self._index[name]

    def count(self, key: str, n: float = 1.0) -> None:
        self.counts[self.phase][key] += n

    def wrap(self, name: str, fn, pre=None, post=None):
        """A pass-through wrapper recording one span per call.

        ``pre(args)`` runs before the call; ``post(args, result, pre_value)``
        after it returns, outside the span.
        """
        idx = self._name(name)
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.span_id.append(sid)
                tracer.span_name.append(idx)
                tracer.start.append(t0)
                tracer.end.append(t1)
                tracer.parent.append(parent)
                tracer.span_op.append(tracer.op_id)
                tracer.self_s[tracer.phase][idx] += dur - frame[1]
                tracer.calls[tracer.phase][idx] += 1
            if post is not None:
                post(args, result, token)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, pre, post))
        else:
            wrapped = self.wrap(name, original, pre, post)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        count = self.count
        p = self._patch

        def truth_seen(args, result, _):
            self.truth_keys[self.phase].add((self.op_id, id(args[0]), float(args[1])))

        p(harness, "sample_truth", "kinematics.sample_truth", post=truth_seen)
        p(kinematics.EntityState, "__post_init__", "kinematics.state_checks")
        p(dead_reckoning, "extrapolate", "kinematics.extrapolate")
        p(anfis, "extrapolate", "kinematics.extrapolate")

        def sender_pre(args):
            return args[0].heartbeat_emissions, args[0].threshold_emissions

        def sender_post(args, msg, before):
            if msg is None:
                return
            heartbeats, thresholds = args[0].heartbeat_emissions, args[0].threshold_emissions
            if heartbeats > before[0]:
                count("sends_heartbeat")
            elif thresholds > before[1]:
                count("sends_threshold")
            else:
                count("sends_initial")

        p(dead_reckoning.SenderModel, "step", "dead_reckoning.sender_step", sender_pre, sender_post)
        p(dead_reckoning, "predict", "dead_reckoning.predict")
        p(
            dead_reckoning.ReceiverModel,
            "read",
            "dead_reckoning.receiver_read",
            post=lambda a, shown, _: shown is None and count("empty_reads"),
        )
        p(
            dead_reckoning.ReceiverModel,
            "apply",
            "dead_reckoning.receiver_apply",
            pre=lambda a: a[0].stale_discarded,
            post=lambda a, _, before: count("stale_discarded", a[0].stale_discarded - before),
        )

        p(netsim.Channel, "send", "netsim.channel_send", post=lambda a, ok, _: ok or count("dropped"))

        def polled(args, dispatched, _):
            count("events_dispatched", dispatched)
            if dispatched == 0:
                count("idle_polls")

        p(netsim.EventQueue, "run_until", "netsim.run_until", post=polled)

        p(qos_metrics.ErrorSeries, "record", "qos_metrics.record")
        p(qos_metrics.ErrorSeries, "to_csv", "qos_metrics.to_csv")
        p(harness, "integrated_error", "qos_metrics.integrated_error")
        p(
            harness,
            "violation_windows",
            "qos_metrics.violation_windows",
            post=lambda a, windows, _: count("violation_windows", len(windows)),
        )
        p(harness, "verdict", "qos_metrics.verdict")

        p(anfis, "forward_batch", "anfis.forward_batch", post=lambda a, r, _: count("rows", len(r[0])))
        p(anfis, "layer1", "anfis.layer1")
        p(anfis, "layer2_firing", "anfis.layer2")
        p(anfis, "layer3_normalize", "anfis.layer3")
        p(np.linalg, "lstsq", "anfis.lstsq")
        p(anfis, "train_hybrid", "anfis.train_hybrid")
        p(anfis.AnfisBundle, "predict", "anfis.bundle_predict")
        p(anfis.AnfisBundle, "load", _LOAD)

        p(harness, "run_scenario", "harness.run_scenario")
        p(harness, "build_motion_table", "harness.build_motion_table")
        p(harness, "train_bundle", "harness.train_bundle")
        for loader in ("load_scenario", "load_study", "scenario_from_dict", "study_from_dict"):
            p(harness, loader, _LOAD)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def note_warnings(self, records) -> None:
        """Count rank-deficient consequent solves from captured warnings."""
        for w in records:
            m = _RANK_RE.search(str(w.message))
            if m:
                self.counts[self.phase]["rank_deficient"] += 1
                self.counts[self.phase]["rank_ratio_sum"] += int(m.group(1)) / int(m.group(2))

    # -- results -------------------------------------------------------------

    def _total(self, table, name: str, passes: int) -> float:
        idx = self._index.get(name)
        if idx is None:
            return 0.0
        return table[0][idx] + table[1][idx] / passes

    def _count(self, key: str, passes: int) -> float:
        return self.counts[0][key] + self.counts[1][key] / passes

    def _load_s(self, passes: int) -> float:
        """Time in outermost loader spans; loaders call each other."""
        load = self._index.get(_LOAD)
        if load is None:
            return 0.0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        name_of = np.full(self._next_id, -1, dtype=np.int64)
        name_of[np.frombuffer(self.span_id, dtype=np.int64)] = names
        parents = np.frombuffer(self.parent, dtype=np.int64)
        parent_name = np.where(parents >= 0, name_of[np.maximum(parents, 0)], -1)
        outer = (names == load) & (parent_name != load)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        in_setup = np.frombuffer(self.span_op, dtype=np.int64) == 0
        return float(dur[outer & in_setup].sum() + dur[outer & ~in_setup].sum() / passes)

    def _spans(self, passes: int) -> float:
        in_setup = int(np.count_nonzero(np.frombuffer(self.span_op, dtype=np.int64) == 0))
        return in_setup + (len(self.span_op) - in_setup) / passes

    def metrics(self, passes: int, tick_us: dict, overhead_ratio: float, mismatches: int) -> dict:
        """Per-layer metrics for one set-up plus one traced pass."""
        passes = max(passes, 1)
        calls = lambda n: self._total(self.calls, n, passes)  # noqa: E731
        self_s = lambda n: self._total(self.self_s, n, passes)  # noqa: E731
        cnt = lambda k: self._count(k, passes)  # noqa: E731

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        distinct = len(self.truth_keys[0]) + len(self.truth_keys[1]) / passes
        sends = cnt("sends_initial") + cnt("sends_threshold") + cnt("sends_heartbeat")
        solves = calls("anfis.lstsq")
        full_rank = solves - cnt("rank_deficient")
        out = {
            "kinematics.truth_dup_ratio": ratio(calls("kinematics.sample_truth"), distinct),
            "dead_reckoning.sends_initial": cnt("sends_initial"),
            "dead_reckoning.sends_threshold": cnt("sends_threshold"),
            "dead_reckoning.sends_heartbeat": cnt("sends_heartbeat"),
            "dead_reckoning.stale_discarded": cnt("stale_discarded"),
            "dead_reckoning.empty_reads": cnt("empty_reads"),
            "dead_reckoning.send_ratio": ratio(sends, calls("dead_reckoning.sender_step")),
            "netsim.events_dispatched": cnt("events_dispatched"),
            "netsim.dropped": cnt("dropped"),
            "netsim.delivered_ratio": ratio(
                cnt("events_dispatched"), calls("netsim.channel_send")
            ),
            "netsim.idle_poll_ratio": ratio(cnt("idle_polls"), calls("netsim.run_until")),
            "qos_metrics.pass_s": sum(self_s(n) for n in _QOS_PASS),
            "qos_metrics.violation_windows": cnt("violation_windows"),
            "anfis.forward_batch.rows_per_call": ratio(cnt("rows"), calls("anfis.forward_batch")),
            "anfis.consequent_rank_ratio": ratio(
                cnt("rank_ratio_sum") + full_rank, solves
            ),
            "harness.load_s": self._load_s(passes),
            "trace.overhead_ratio": overhead_ratio,
            "trace.spans": self._spans(passes),
            "trace.digest_mismatches": float(mismatches),
        }
        for key in STOCK_TICK_KEYS:
            out[f"harness.tick_us.{key}"] = tick_us.get(key, 0.0)
        for name, _ in PER_LAYER:
            if name not in out:
                span, _, stat = name.rpartition(".")
                out[name] = calls(span) if stat == "calls" else self_s(span)
        return {name: out[name] for name, _ in PER_LAYER}

    def write(self, path) -> None:
        """Write every span as CSV: id, name, start and end in microseconds
        since the first span began, parent id (-1 for none), operation id."""
        rows = ["span_id,name,start_us,end_us,parent_id,op_id"]
        names = self.names
        t_zero = min(self.start, default=0.0)
        for sid, n, t0, t1, parent, op in zip(
            self.span_id, self.span_name, self.start, self.end, self.parent, self.span_op
        ):
            rows.append(
                f"{sid},{names[n]},{(t0 - t_zero) * 1e6:.1f},{(t1 - t_zero) * 1e6:.1f},{parent},{op}"
            )
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(rows) + "\n")
