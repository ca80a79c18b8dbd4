"""MonitorFleet: multiplexing, serial equivalence, labeled telemetry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import AuditConfig, MonitorConfig
from repro.exceptions import AuditError
from repro.monitor import MonitorFleet
from repro.observability.promfmt import render_prometheus
from repro.streaming import FairnessMonitor

from tests.monitor.conftest import CFG


def _interleave(fleet, feeds, chunk=170):
    """Feed every stream's arrays through one fleet in interleaved chunks."""
    offsets = {name: 0 for name in feeds}
    remaining = dict(feeds)
    while any(offsets[name] < len(feeds[name][0]) for name in feeds):
        for name, (y, p, sex) in remaining.items():
            lo = offsets[name]
            if lo >= len(y):
                continue
            hi = min(lo + chunk, len(y))
            fleet.observe(
                name,
                y_true=y[lo:hi],
                predictions=p[lo:hi],
                protected={"sex": sex[lo:hi]},
            )
            offsets[name] = hi


class TestSerialEquivalence:
    """The acceptance anchor: a fleet must reproduce N serial monitors."""

    def test_fleet_matches_serial_monitors_byte_for_byte(self, population):
        feeds = {
            f"stream-{i}": population(1100, bias=0.3 * (i % 3), seed=i)
            for i in range(5)
        }
        fleet = MonitorFleet(
            ["sex"], config=CFG,
            monitor=MonitorConfig(window=250, drift_threshold=0.05),
        )
        _interleave(fleet, feeds)
        fleet.flush()

        for name, (y, p, sex) in feeds.items():
            serial = FairnessMonitor(
                ["sex"], config=CFG, window=250, drift_threshold=0.05,
                name=name,
            )
            serial.observe(y_true=y, predictions=p, protected={"sex": sex})
            serial.flush()
            state = fleet.stream(name)
            assert json.dumps(
                [w.to_dict() for w in state.windows], sort_keys=True
            ) == json.dumps(
                [w.to_dict() for w in serial.windows], sort_keys=True
            )
            assert [e.to_dict() for e in state.drift_events] == [
                e.to_dict() for e in serial.drift_events
            ]

    def test_chunk_boundaries_do_not_change_results(self, population):
        y, p, sex = population(900, bias=0.4, seed=11)
        results = []
        for chunk in (1, 7, 300, 900):
            fleet = MonitorFleet(
                ["sex"], config=CFG, monitor=MonitorConfig(window=300)
            )
            for lo in range(0, 900, chunk):
                fleet.observe(
                    "s",
                    y_true=y[lo:lo + chunk],
                    predictions=p[lo:lo + chunk],
                    protected={"sex": sex[lo:lo + chunk]},
                )
            results.append(
                [w.to_dict() for w in fleet.stream("s").windows]
            )
        assert all(r == results[0] for r in results)


class TestMultiplexing:
    def test_observe_auto_registers_and_returns_own_windows(self, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG, monitor=MonitorConfig(window=100)
        )
        y, p, sex = population(250, bias=0.0, seed=0)
        closed = fleet.observe(
            "checkout", y_true=y, predictions=p, protected={"sex": sex}
        )
        assert [w.stream for w in closed] == ["checkout", "checkout"]
        assert fleet.stream_names == ("checkout",)
        assert fleet.stream("checkout").buffered == 50

    def test_round_robin_closes_every_ready_stream(self, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG, monitor=MonitorConfig(window=100)
        )
        ya, pa, sexa = population(300, bias=0.0, seed=1)
        # queue three windows on "a" without closing them: build the
        # stream by hand so poll() sees both streams ready at once
        state = fleet.add_stream("a")
        state.queue.append(fleet._encode_chunk(
            {"sex": sexa, "__label__": ya, "__prediction__": pa}
        ))
        state.buffered += 300
        yb, pb, sexb = population(100, bias=0.0, seed=2)
        closed = fleet.observe(
            "b", y_true=yb, predictions=pb, protected={"sex": sexb}
        )
        # one poll closes all four ready windows, a's three plus b's one
        assert len(fleet.stream("a").windows) == 3
        assert len(closed) == 1 and closed[0].stream == "b"

    def test_flush_single_stream_vs_all(self, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG, monitor=MonitorConfig(window=100)
        )
        for name, seed in (("a", 3), ("b", 4)):
            y, p, sex = population(60, bias=0.0, seed=seed)
            fleet.observe(
                name, y_true=y, predictions=p, protected={"sex": sex}
            )
        tail = fleet.flush("a")
        assert tail is not None and tail.n_rows == 60
        assert fleet.flush("a") is None
        rest = fleet.flush()
        assert [w.stream for w in rest] == ["b"]

    def test_unknown_stream_raises(self):
        fleet = MonitorFleet(["sex"], config=CFG)
        with pytest.raises(AuditError, match="unknown stream"):
            fleet.stream("nope")

    def test_stream_names_must_be_nonempty_strings(self):
        fleet = MonitorFleet(["sex"], config=CFG)
        with pytest.raises(AuditError):
            fleet.add_stream("")
        with pytest.raises(AuditError):
            fleet.add_stream(7)

    def test_protected_attributes_required(self):
        with pytest.raises(AuditError, match="protected"):
            MonitorFleet([], config=CFG)

    def test_explicit_monitor_beats_config_monitor(self):
        cfg = AuditConfig(
            metrics=("demographic_parity",),
            monitor=MonitorConfig(window=100),
        )
        fleet = MonitorFleet(
            ["sex"], config=cfg, monitor=MonitorConfig(window=32)
        )
        assert fleet.monitor.window == 32
        assert MonitorFleet(["sex"], config=cfg).monitor.window == 100

    def test_validation_messages_match_the_legacy_monitor(self, population):
        fleet = MonitorFleet(["sex"], config=CFG)
        y, p, sex = population(10, bias=0.0, seed=5)
        with pytest.raises(AuditError, match="protected value arrays"):
            fleet.observe("s", y_true=y, predictions=p)
        with pytest.raises(AuditError, match="missing protected column"):
            fleet.observe("s", y_true=y, predictions=p,
                          protected={"race": sex})
        with pytest.raises(AuditError, match="pass y_true"):
            fleet.observe("s", predictions=p, protected={"sex": sex})
        with pytest.raises(AuditError, match="predictions"):
            fleet.observe("s", y_true=y, protected={"sex": sex})
        with pytest.raises(AuditError, match="share one length"):
            fleet.observe("s", y_true=y[:5], predictions=p,
                          protected={"sex": sex})


class TestTelemetry:
    def test_counters_carry_stream_labels(self, registry, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG, monitor=MonitorConfig(window=100)
        )
        for name, seed in (("live", 6), ("shadow", 7)):
            y, p, sex = population(200, bias=0.0, seed=seed)
            fleet.observe(
                name, y_true=y, predictions=p, protected={"sex": sex}
            )
        assert registry.counter(
            "streaming.windows_evaluated", stream="live"
        ).value == 2
        assert registry.counter(
            "streaming.monitor_rows", stream="shadow"
        ).value == 200
        text = render_prometheus(registry)
        assert 'repro_streaming_windows_evaluated_total{stream="live"} 2' \
            in text

    def test_window_spans_carry_the_stream_label(self, population):
        from repro.observability.trace import Tracer

        spans = []

        class Capture(Tracer):
            def span(self, name, **attrs):
                spans.append((name, attrs))
                return super().span(name, **attrs)

        cfg = AuditConfig(
            metrics=("demographic_parity",), tracer=Capture()
        )
        fleet = MonitorFleet(
            ["sex"], config=cfg, monitor=MonitorConfig(window=100)
        )
        y, p, sex = population(100, bias=0.0, seed=8)
        fleet.observe(
            "live", y_true=y, predictions=p, protected={"sex": sex}
        )
        window_spans = [a for n, a in spans if n == "streaming.window"]
        assert window_spans and window_spans[0]["stream"] == "live"

    def test_drift_events_publish_with_stream_labels(self, bus, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG,
            monitor=MonitorConfig(window=300, drift_threshold=0.1),
        )
        y, p, sex = population(600, bias=0.0, seed=9)
        fleet.observe("live", y_true=y, predictions=p,
                      protected={"sex": sex})
        y2, p2, sex2 = population(300, bias=0.9, seed=10)
        fleet.observe("live", y_true=y2, predictions=p2,
                      protected={"sex": sex2})
        events = bus.since(0, kind="monitor.drift", stream="live")
        assert events
        assert events[0].payload["stream"] == "live"
        assert bus.since(0, kind="monitor.drift", stream="other") == []


class TestReporting:
    def _drifted_fleet(self, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG,
            monitor=MonitorConfig(window=300, drift_threshold=0.1),
        )
        y, p, sex = population(600, bias=0.0, seed=12)
        fleet.observe("live", y_true=y, predictions=p,
                      protected={"sex": sex})
        y2, p2, sex2 = population(300, bias=0.9, seed=13)
        fleet.observe("live", y_true=y2, predictions=p2,
                      protected={"sex": sex2})
        return fleet

    def test_summary_is_json_able(self, population):
        summary = self._drifted_fleet(population).summary()
        parsed = json.loads(json.dumps(summary))
        assert parsed["windows"] == 3
        assert parsed["streams"]["live"]["drift_events"]
        assert parsed["detectors"] == ["threshold"]

    def test_markdown_names_the_drifted_stream(self, population):
        text = self._drifted_fleet(population).markdown()
        assert "## Stream `live`" in text
        assert "demographic_parity" in text
        assert "re-audit" in text

    def test_clean_fleet_markdown_says_representative(self, population):
        fleet = MonitorFleet(["sex"], config=CFG)
        y, p, sex = population(500, bias=0.0, seed=14)
        fleet.observe("live", y_true=y, predictions=p,
                      protected={"sex": sex})
        assert "remains representative" in fleet.markdown()


class TestIngestPlane:
    def test_chunks_stay_numpy_end_to_end(self, population):
        """The data plane must never fall back to Python lists."""
        fleet = MonitorFleet(
            ["sex"], config=CFG, monitor=MonitorConfig(window=500)
        )
        y, p, sex = population(120, bias=0.0, seed=15)
        fleet.observe("s", y_true=y, predictions=p,
                      protected={"sex": sex})
        state = fleet.stream("s")
        for chunk in state.queue:
            assert all(
                isinstance(arr, np.ndarray) for arr in chunk.values()
            )

    def test_fold_counts_every_row(self, population):
        fleet = MonitorFleet(
            ["sex"], config=CFG, monitor=MonitorConfig(window=128)
        )
        y, p, sex = population(1000, bias=0.2, seed=16)
        counted = []
        evaluate = fleet._evaluate

        def spy(codes):
            counted.append(len(codes["sex"]))
            return evaluate(codes)

        fleet._evaluate = spy
        fleet.observe("s", y_true=y, predictions=p,
                      protected={"sex": sex})
        fleet.flush()
        state = fleet.stream("s")
        assert state.rows_seen == 1000
        assert sum(counted) == 1000
        assert sum(w.n_rows for w in state.windows) == 1000

    def test_empty_observe_is_a_noop(self):
        fleet = MonitorFleet(["sex"], config=CFG)
        closed = fleet.observe(
            "s",
            y_true=np.array([], dtype=int),
            predictions=np.array([], dtype=int),
            protected={"sex": np.array([], dtype=str)},
        )
        assert closed == []
        assert fleet.stream("s").buffered == 0
