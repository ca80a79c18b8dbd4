"""Sequential drift detectors: alpha-spending, CUSUM, precedence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MonitorConfig
from repro.monitor import MonitorFleet

from tests.monitor.conftest import CFG

KEY = "sex/demographic_parity"


def _feed(fleet, window_specs, exact_window, stream="s"):
    """Feed one exactly-controlled window per (rate_f, rate_m) spec."""
    for rate_f, rate_m in window_specs:
        y, p, sex = exact_window(rate_f, rate_m)
        fleet.observe(
            stream, y_true=y, predictions=p, protected={"sex": sex}
        )


class TestSpending:
    def _fleet(self, **monitor_kwargs):
        monitor = MonitorConfig(
            window=200, detectors=("spending",), **monitor_kwargs
        )
        return MonitorFleet(["sex"], config=CFG, monitor=monitor)

    def test_null_stream_never_alarms(self, exact_window):
        fleet = self._fleet()
        _feed(fleet, [(0.5, 0.5)] * 20, exact_window)
        assert fleet.stream("s").drift_events == []

    def test_clear_shift_alarms_with_evidence(self, exact_window):
        fleet = self._fleet()
        _feed(fleet, [(0.5, 0.5)] * 3 + [(0.1, 0.5)], exact_window)
        events = fleet.stream("s").drift_events
        assert len(events) == 1
        event = events[0]
        assert event.reason == "spending"
        assert event.window == 3
        assert event.statistic is not None
        assert event.p_value is not None
        assert event.p_value <= fleet.monitor.spending_allowance(3)
        # the Wilson interval brackets the alarming window's rate
        assert event.ci_low <= 0.1 <= event.ci_high

    def test_spending_event_serialises_its_evidence(self, exact_window):
        fleet = self._fleet()
        _feed(fleet, [(0.5, 0.5)] * 3 + [(0.1, 0.5)], exact_window)
        payload = fleet.stream("s").drift_events[0].to_dict()
        assert payload["reason"] == "spending"
        assert set(payload) == {
            "window", "attribute", "metric", "value", "baseline",
            "delta", "reason", "statistic", "p_value", "interval",
        }
        low, high = payload["interval"]
        assert low < high

    def test_marginal_shift_blocked_by_the_per_look_budget(
        self, exact_window
    ):
        # z for 0.44 vs a 0.5 cumulative baseline is ~ -1.2 (p ~ 0.23):
        # a fixed-level 0.05 test would stay quiet too, but crucially
        # the spending allowance per look (~4e-4 at horizon=200) makes
        # even p ~ 0.01 shifts wait for more evidence.
        fleet = self._fleet()
        _feed(fleet, [(0.5, 0.5)] * 3 + [(0.44, 0.5)], exact_window)
        assert fleet.stream("s").drift_events == []

    def test_short_horizon_spends_more_per_look(self, exact_window):
        # the same mid-size shift alarms when the budget concentrates
        # over a 4-window horizon but not over the default 200
        specs = [(0.5, 0.5)] * 3 + [(0.32, 0.5)]
        tight = self._fleet()
        _feed(tight, specs, exact_window)
        loose = self._fleet(horizon=4, alpha=0.05)
        _feed(loose, specs, exact_window)
        assert tight.stream("s").drift_events == []
        assert [e.reason for e in loose.stream("s").drift_events] == [
            "spending"
        ]

    def test_look_counter_is_per_stream(self, exact_window):
        fleet = self._fleet()
        _feed(fleet, [(0.5, 0.5)] * 2, exact_window, stream="a")
        _feed(fleet, [(0.5, 0.5)], exact_window, stream="b")
        assert fleet.stream("a").looks[KEY] == 1
        assert KEY not in fleet.stream("b").looks  # first window = baseline


class TestCusum:
    def test_sustained_subthreshold_drift_is_caught(self, exact_window):
        # a 0.09 gap never crosses the 0.1 threshold detector, but the
        # CUSUM tracker accumulates it across windows
        monitor = MonitorConfig(
            window=200, drift_threshold=0.1,
            detectors=("threshold", "cusum"),
            cusum_k=0.02, cusum_h=0.15,
        )
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(
            fleet,
            [(0.5, 0.5)] * 5 + [(0.41, 0.5)] * 4,
            exact_window,
        )
        events = fleet.stream("s").drift_events
        assert events, "sustained drift escaped the CUSUM tracker"
        assert all(e.reason == "cusum" for e in events)
        assert events[0].statistic is not None

    def test_alarm_resets_the_tracker(self, exact_window):
        monitor = MonitorConfig(
            window=200, drift_threshold=0.1, detectors=("cusum",),
            cusum_k=0.02, cusum_h=0.15,
        )
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(
            fleet,
            [(0.5, 0.5)] * 5 + [(0.41, 0.5)] * 3,
            exact_window,
        )
        state = fleet.stream("s")
        assert len(state.drift_events) == 1
        hi, lo = state.cusum[:, state.keys.index(KEY)]
        assert hi == 0.0
        assert lo == 0.0

    def test_null_stream_never_alarms(self, exact_window):
        monitor = MonitorConfig(
            window=200, detectors=("cusum",), cusum_k=0.02, cusum_h=0.15
        )
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(fleet, [(0.5, 0.5)] * 30, exact_window)
        assert fleet.stream("s").drift_events == []

    def test_two_sided(self, exact_window):
        # drifts in either direction accumulate on their own side
        monitor = MonitorConfig(
            window=200, detectors=("cusum",), cusum_k=0.0, cusum_h=0.05
        )
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(
            fleet,
            [(0.4, 0.5)] * 3 + [(0.48, 0.5)] * 3,
            exact_window,
        )
        assert fleet.stream("s").drift_events


class TestPrecedenceAndBaselines:
    def test_one_event_per_window_attributed_by_canonical_order(
        self, exact_window
    ):
        # a huge jump trips every detector; only one event fires and
        # it is attributed to "threshold" (first in canonical order)
        monitor = MonitorConfig(
            window=200, drift_threshold=0.1,
            detectors=("cusum", "spending", "threshold"),
            horizon=4,
        )
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(fleet, [(0.5, 0.5)] * 3 + [(0.05, 0.5)], exact_window)
        events = fleet.stream("s").drift_events
        assert len(events) == 1
        assert events[0].reason == "threshold"
        # threshold events keep the legacy byte-exact serialisation
        assert set(events[0].to_dict()) == {
            "window", "attribute", "metric", "value", "baseline", "delta",
        }

    def test_first_window_is_always_baseline(self, exact_window):
        monitor = MonitorConfig(
            window=200, detectors=("threshold", "spending", "cusum"),
            horizon=4,
        )
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(fleet, [(0.05, 0.95)], exact_window)
        (window,) = fleet.stream("s").windows
        assert not window.drifted

    def test_threshold_only_fleet_matches_legacy_numbers(
        self, exact_window
    ):
        monitor = MonitorConfig(window=200, drift_threshold=0.1)
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(fleet, [(0.5, 0.5), (0.5, 0.5), (0.2, 0.5)], exact_window)
        (event,) = fleet.stream("s").drift_events
        assert event.reason == "threshold"
        assert event.value == pytest.approx(0.3)
        assert event.baseline == pytest.approx(0.0)
        assert event.delta == pytest.approx(0.3)

    def test_gap_baseline_uses_the_running_mean(self, exact_window):
        monitor = MonitorConfig(window=200, drift_threshold=0.5)
        fleet = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        _feed(
            fleet, [(0.5, 0.5), (0.3, 0.5), (0.3, 0.5)], exact_window
        )
        state = fleet.stream("s")
        row = state.keys.index(KEY)
        history = state.gap_history[row, :state.filled[row]].tolist()
        assert history == pytest.approx([0.0, 0.2, 0.2])


class TestBatchedResolution:
    def test_many_streams_resolve_in_one_pass_identically(
        self, exact_window
    ):
        """Windows closed together batch; results must not depend on it."""
        monitor = MonitorConfig(
            window=200, detectors=("spending",), horizon=4
        )
        specs = [(0.5, 0.5)] * 3 + [(0.1, 0.5)]

        batched = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        # queue all four windows on each stream, then let one observe
        # trigger the poll that closes all of them together
        for stream in ("a", "b", "c"):
            state = batched.add_stream(stream)
            for rate_f, rate_m in specs:
                y, p, sex = exact_window(rate_f, rate_m)
                state.queue.append(batched._encode_chunk({
                    "sex": sex,
                    "__label__": np.asarray(y),
                    "__prediction__": np.asarray(p),
                }))
                state.buffered += len(y)
        batched.poll()

        serial = MonitorFleet(["sex"], config=CFG, monitor=monitor)
        for stream in ("a", "b", "c"):
            _feed(serial, specs, exact_window, stream=stream)

        for stream in ("a", "b", "c"):
            assert [
                w.to_dict() for w in batched.stream(stream).windows
            ] == [w.to_dict() for w in serial.stream(stream).windows]
            assert [e.reason for e in batched.stream(stream).drift_events] \
                == ["spending"]
