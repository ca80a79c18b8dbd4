"""CLI-level observability tests: --trace-out, trace summarize, logging."""

import json
from dataclasses import replace

import pytest

import repro.cli as cli
from repro.cli import EXIT_DEGRADED, main
from repro.core.audit import _BATTERY
from repro.data.io import load_dataset
from repro.observability import read_trace
from repro.robustness import FaultInjector


@pytest.fixture
def clean_csv(tmp_path, capsys):
    out = tmp_path / "clean.csv"
    assert main(["generate", "--workload", "hiring", "--n", "2500",
                 "--seed", "47", "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.fixture
def intersectional_csv(tmp_path, capsys):
    out = tmp_path / "ix.csv"
    assert main(["generate", "--workload", "intersectional", "--n", "1200",
                 "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    return out


class TestTraceOut:
    def test_audit_trace_covers_every_attribute_metric_stage(
        self, clean_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "audit.trace.jsonl"
        code = main(["audit", "--data", str(clean_csv),
                     "--tolerance", "0.1", "--trace-out", str(trace_path)])
        assert code == 0
        capsys.readouterr()
        lines = read_trace(trace_path)
        assert lines[0]["kind"] == "trace_meta"
        names = {l["name"] for l in lines if l["kind"] == "span"}
        dataset = load_dataset(str(clean_csv))
        for attribute in dataset.schema.protected_names:
            for metric in _BATTERY:
                assert f"audit:{attribute}:{metric}" in names
            assert f"power:{attribute}" in names
        assert "audit.run" in names

    def test_stage_spans_nest_under_the_run_root(
        self, clean_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "audit.trace.jsonl"
        main(["audit", "--data", str(clean_csv), "--tolerance", "0.1",
              "--trace-out", str(trace_path)])
        capsys.readouterr()
        spans = [l for l in read_trace(trace_path) if l["kind"] == "span"]
        root = next(s for s in spans if s["name"] == "audit.run")
        stages = [s for s in spans if s["name"].startswith("audit:")]
        assert stages
        assert all(s["parent_span_id"] == root["span_id"] for s in stages)
        assert all(s["trace_id"] == root["trace_id"] for s in stages)

    def test_trace_ends_with_metrics_snapshot(
        self, clean_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "audit.trace.jsonl"
        main(["audit", "--data", str(clean_csv), "--tolerance", "0.1",
              "--trace-out", str(trace_path)])
        capsys.readouterr()
        lines = read_trace(trace_path)
        assert lines[-1]["kind"] == "metrics"
        stage_spans = [
            l for l in lines
            if l["kind"] == "span" and l["name"].startswith(("audit:", "power:"))
        ]
        assert lines[-1]["counters"]["stages.run"] == len(stage_spans)
        assert lines[-1]["histograms"]["stage.elapsed"]["count"] == len(
            stage_spans
        )

    def test_workflow_trace_has_workflow_root(
        self, clean_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "wf.trace.jsonl"
        main(["workflow", "--data", str(clean_csv), "--tolerance", "0.1",
              "--trace-out", str(trace_path)])
        capsys.readouterr()
        names = [
            l["name"] for l in read_trace(trace_path) if l["kind"] == "span"
        ]
        assert "workflow.run" in names
        assert "audit.run" in names

    def test_subgroups_trace_records_scan_span(
        self, intersectional_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "scan.trace.jsonl"
        main(["subgroups", "--data", str(intersectional_csv),
              "--trace-out", str(trace_path)])
        capsys.readouterr()
        spans = [l for l in read_trace(trace_path) if l["kind"] == "span"]
        scan = next(s for s in spans if s["name"] == "subgroups.scan")
        assert scan["attrs"]["evaluated"] == scan["attrs"]["total"]

    def test_degraded_run_still_writes_the_trace(
        self, clean_csv, tmp_path, capsys, monkeypatch
    ):
        real = cli.FairnessAudit

        def with_chaos(dataset, *, config, **kwargs):
            injector = FaultInjector()
            injector.inject_error(
                "audit:sex:demographic_parity", RuntimeError("chaos")
            )
            return real(
                dataset, config=replace(config, faults=injector), **kwargs
            )

        monkeypatch.setattr(cli, "FairnessAudit", with_chaos)
        trace_path = tmp_path / "degraded.trace.jsonl"
        code = main(["audit", "--data", str(clean_csv), "--tolerance", "0.1",
                     "--trace-out", str(trace_path)])
        assert code == EXIT_DEGRADED
        capsys.readouterr()
        spans = [l for l in read_trace(trace_path) if l["kind"] == "span"]
        failed = next(
            s for s in spans if s["name"] == "audit:sex:demographic_parity"
        )
        assert failed["status"] == "error"
        assert failed["attrs"]["error_type"] == "RuntimeError"

    def test_exit_codes_unchanged_by_tracing(
        self, clean_csv, tmp_path, capsys
    ):
        # violation (exit 1) with tracing on: the trace is still written
        trace_path = tmp_path / "tight.trace.jsonl"
        code = main(["audit", "--data", str(clean_csv),
                     "--tolerance", "0.0001", "--trace-out", str(trace_path)])
        assert code == 1
        assert trace_path.exists()
        capsys.readouterr()


class TestTraceSummarize:
    @pytest.fixture
    def trace_file(self, clean_csv, tmp_path, capsys):
        trace_path = tmp_path / "audit.trace.jsonl"
        main(["audit", "--data", str(clean_csv), "--tolerance", "0.1",
              "--trace-out", str(trace_path)])
        capsys.readouterr()
        return trace_path

    def test_summarize_renders_per_stage_table(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "retries" in out
        assert "audit:sex:demographic_parity" in out

    def test_top_truncates_and_says_so(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "more stage(s)" in out

    def test_group_collapses_prefixes(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file), "--group"]) == 0
        out = capsys.readouterr().out
        assert "audit\n" in out or "audit " in out
        assert "audit:sex:" not in out

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestLoggingFlags:
    def test_errors_keep_the_lowercase_stderr_contract(self, capsys):
        code = main(["audit", "--data", "/nonexistent/nope.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err

    def test_log_json_emits_parseable_stderr_lines(self, capsys):
        code = main(["--log-json", "audit", "--data", "/nonexistent/nope.csv"])
        assert code == 2
        err_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.strip()
        ]
        assert err_lines
        payload = json.loads(err_lines[-1])
        assert payload["level"] == "error"
        assert "nope.csv" in payload["message"]

    def test_verbose_logs_the_trace_destination(
        self, clean_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "v.trace.jsonl"
        code = main(["-v", "audit", "--data", str(clean_csv),
                     "--tolerance", "0.1", "--trace-out", str(trace_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert f"info: trace written to {trace_path}" in err

    def test_quiet_suppresses_info(self, clean_csv, tmp_path, capsys):
        trace_path = tmp_path / "q.trace.jsonl"
        code = main(["-q", "audit", "--data", str(clean_csv),
                     "--tolerance", "0.1", "--trace-out", str(trace_path)])
        assert code == 0
        assert "trace written" not in capsys.readouterr().err

    def test_reports_never_mix_logs_into_stdout(self, clean_csv, capsys):
        code = main(["-vv", "audit", "--data", str(clean_csv),
                     "--tolerance", "0.1", "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        json.loads(out)  # stdout is still pure JSON


class TestByProcessSummary:
    @pytest.fixture
    def parallel_trace(self, intersectional_csv, tmp_path, capsys):
        trace_path = tmp_path / "scan.trace.jsonl"
        main(["subgroups", "--data", str(intersectional_csv),
              "--jobs", "2", "--trace-out", str(trace_path)])
        capsys.readouterr()
        return trace_path

    def test_by_process_labels_each_pid_section(
        self, parallel_trace, capsys
    ):
        assert main(["trace", "summarize", str(parallel_trace),
                     "--by-process"]) == 0
        out = capsys.readouterr().out
        sections = [line for line in out.splitlines()
                    if line.startswith("## pid ")]
        # the scan parent plus at least one pool worker
        assert len(sections) >= 2
        assert "subgroups.score_chunk" in out

    def test_by_process_composes_with_group(self, parallel_trace, capsys):
        assert main(["trace", "summarize", str(parallel_trace),
                     "--by-process", "--group"]) == 0
        assert "## pid " in capsys.readouterr().out

    def test_flat_summary_still_works_on_merged_trace(
        self, parallel_trace, capsys
    ):
        assert main(["trace", "summarize", str(parallel_trace)]) == 0
        out = capsys.readouterr().out
        assert "subgroups.scan" in out


class TestEventsTail:
    @pytest.fixture
    def event_log(self, tmp_path):
        from repro.observability import EventBus

        path = tmp_path / "events.jsonl"
        bus = EventBus(sink=path)
        bus.publish("monitor.drift", stream="s1", delta=0.21)
        bus.publish("job.failed", job_id="abc", error_type="RuntimeError")
        bus.publish("job.rejected", job_kind="audit")
        bus.close()
        return path

    def test_tail_prints_every_event(self, event_log, capsys):
        assert main(["events", "tail", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "monitor.drift" in out
        assert "job.failed" in out
        assert "job_id=abc" in out

    def test_since_and_kind_filter(self, event_log, capsys):
        assert main(["events", "tail", str(event_log),
                     "--since", "1", "--kind", "job"]) == 0
        out = capsys.readouterr().out
        assert "monitor.drift" not in out
        assert "job.failed" in out and "job.rejected" in out

    def test_json_mode_emits_parseable_lines(self, event_log, capsys):
        assert main(["events", "tail", str(event_log), "--json"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.strip()]
        assert len(lines) == 3
        assert json.loads(lines[0])["kind"] == "monitor.drift"

    def test_monitor_events_out_feeds_tail(
        self, tmp_path, capsys
    ):
        data = tmp_path / "drift.csv"
        assert main(["generate", "--workload", "hiring", "--n", "400",
                     "--seed", "3", "--bias", "0.4",
                     "--out", str(data)]) == 0
        events_path = tmp_path / "monitor-events.jsonl"
        main(["monitor", "--data", str(data), "--window", "100",
              "--drift-threshold", "0.01", "--stream-name", "hiring-ab",
              "--events-out", str(events_path)])
        capsys.readouterr()
        assert main(["events", "tail", str(events_path),
                     "--kind", "monitor.drift"]) == 0
        out = capsys.readouterr().out
        assert "stream=hiring-ab" in out


class TestLateGlobalFlags:
    def test_flags_accepted_after_the_subcommand(
        self, clean_csv, tmp_path, capsys
    ):
        trace_path = tmp_path / "late.trace.jsonl"
        code = main(["monitor", "--data", str(clean_csv),
                     "--window", "1000", "-v",
                     "--trace-out", str(trace_path)])
        assert code in (0, 1)
        err = capsys.readouterr().err
        assert f"info: trace written to {trace_path}" in err
        assert trace_path.exists()

    def test_early_flag_survives_subparser(self, clean_csv, capsys):
        code = main(["-q", "monitor", "--data", str(clean_csv),
                     "--window", "1000"])
        assert code in (0, 1)
        assert "info:" not in capsys.readouterr().err
