"""Self-tests for the benchmark's own logic.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from common import (  # noqa: E402
    Tally,
    check_metric_name,
    highest_supported,
    percentile,
    result_line,
)
from layers import Recorder  # noqa: E402
from selftime import (  # noqa: E402
    Span,
    attributed,
    layer_self,
    outermost,
    self_times,
)


def _span(id, parent, thread, name, start, end, attrs=None):
    return Span(id, parent, thread, name, start, end, attrs)


# -- self time ----------------------------------------------------------------


def test_self_time_of_a_nested_tree():
    spans = [
        _span(1, 0, 1, "a:x", 0.0, 10.0),
        _span(2, 1, 1, "b:x", 1.0, 4.0),
        _span(3, 2, 1, "c:x", 2.0, 3.0),
        _span(4, 1, 1, "b:y", 5.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert layer_self(spans, selfs) == {"a": 3.0, "b": 6.0, "c": 1.0}
    # nested self times never exceed the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_ignores_spans_on_other_threads():
    spans = [
        _span(1, 0, 1, "a:x", 0.0, 10.0),
        _span(2, 1, 1, "b:x", 2.0, 6.0),
        # overlaps thread 1's spans in time but runs on thread 2; a bad
        # parent link to thread 1 must not reduce span 1 either
        _span(3, 0, 2, "c:x", 1.0, 9.0),
        _span(4, 1, 2, "d:x", 3.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[3] == pytest.approx(8.0)
    assert selfs[4] == pytest.approx(1.0)
    assert layer_self(spans, selfs, thread=1) == {"a": 6.0, "b": 4.0}
    assert layer_self(spans, selfs, thread=2) == {"c": 8.0, "d": 1.0}


def test_unattributed_share_counts_uncovered_interval_time():
    spans = [
        _span(1, 0, 7, "robustness.runner:run", 1.0, 9.0,
              {"stage": "service.job:audit"}),
        _span(2, 1, 7, "kernel:count", 2.0, 8.0),
        _span(3, 0, 8, "service.httpd:GET", 0.0, 10.0),
    ]
    selfs = self_times(spans)
    rows, share = attributed(
        [("audit", 0.0, 10.0)], spans, selfs, lambda lo, hi: 7
    )
    # 8 s of the 10 s job are inside thread 7's spans; httpd's thread
    # does not count toward the job
    assert share == pytest.approx(0.2)
    assert rows[0][2] == {"robustness.runner": 2.0, "kernel": 6.0}


def test_outermost_skips_same_layer_children():
    spans = [
        _span(1, 0, 1, "stats.batch:a", 0.0, 3.0),
        _span(2, 1, 1, "stats.batch:b", 1.0, 2.0),
        _span(3, 0, 1, "stats.batch:c", 4.0, 5.0),
    ]
    assert [s.id for s in outermost(spans, "stats.batch")] == [1, 3]


def test_recorder_keeps_parents_per_thread():
    recorder = Recorder()
    inner = recorder.wrap("b:inner", lambda: None)

    def outer_body():
        inner()

    outer = recorder.wrap("a:outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = [Span(*row) for row in recorder.spans]
    by_id = {span.id: span for span in spans}
    inners = [s for s in spans if s.name == "b:inner"]
    assert len(inners) == 4
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "a:outer" and parent.thread == span.thread


def test_recorder_passes_exceptions_through():
    recorder = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("a:boom", boom)()
    assert [row[3] for row in recorder.spans] == ["a:boom"]


# -- percentiles --------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90.0
    with pytest.raises(ValueError):
        percentile(values, 99)  # one sample beyond p99 of 100
    assert percentile(list(range(1, 1001)), 99) == 990.0
    assert highest_supported(100, 99) == 90
    assert highest_supported(1000, 99) == 99
    assert highest_supported(48, 90) == 75
    assert highest_supported(15, 90) is None


def test_median_is_always_reported():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5


# -- names and the result line ------------------------------------------------


@pytest.mark.parametrize("name", [
    "setup_s", "audit.job_s_p50", "service.journal.append_ms_p50", "a-b.c",
])
def test_metric_names_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "has space", "slash/name", "_leading", "x" * 65, "ünïcode",
])
def test_metric_names_refused(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_fail_ratio_counts_refusals_errors_and_wrong_answers():
    tally = Tally()
    assert tally.http(201)
    assert tally.http(200)
    assert not tally.http(429)
    assert not tally.http(500)
    tally.ok()
    tally.mismatch("oracle disagreed")  # already counted when sent
    assert tally.attempted == 5
    assert tally.failed == 3
    assert tally.reasons == {"refused": 1, "error": 1, "wrong": 1}
    assert tally.fail_ratio == pytest.approx(0.6)
    line = json.loads(result_line(tally, {}, True))
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (5, 3)


def test_result_line_has_exactly_the_contract_keys():
    tally = Tally()
    tally.ok(3)
    line = json.loads(result_line(
        tally, {"setup_s": {"value": 1.5, "unit": "s"}}, True
    ))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True


# -- the catalogue ------------------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(doc) == sorted([
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    ])
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == list(WORKLOADS.values())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == list(PER_LAYER)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    assert "setup_s" in names
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )


# -- reference speed ----------------------------------------------------------


def test_slowdown_is_the_median_probe_slice_over_the_interval():
    from common import PROBE_REF_S, SpeedProbe

    probe = SpeedProbe.__new__(SpeedProbe)
    probe.samples = [(t * 0.025, PROBE_REF_S * (2.0 if t >= 40 else 1.0))
                     for t in range(80)]
    assert probe.slowdown(0.0, 0.9) == pytest.approx(1.0)
    assert probe.slowdown(1.0, 1.9) == pytest.approx(2.0)
    # an interval shorter than the sampling period uses its neighbours
    assert probe.slowdown(1.5001, 1.5002) == pytest.approx(2.0)
