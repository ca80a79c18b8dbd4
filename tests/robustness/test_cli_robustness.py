"""CLI-level tests for the execution-policy flags and exit codes."""

from dataclasses import replace

import pytest

import repro.cli as cli
from repro.cli import EXIT_DEGRADED, main
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


class TestPolicyFlags:
    def test_audit_accepts_policy_flags(self, clean_csv, capsys):
        code = main(["audit", "--data", str(clean_csv),
                     "--tolerance", "0.1", "--deadline", "30",
                     "--retries", "2"])
        assert code == 0

    def test_policy_from_args_none_when_default(self, clean_csv):
        parser = cli.build_parser()
        args = parser.parse_args(["audit", "--data", str(clean_csv)])
        assert cli._policy_from_args(args) is None

    def test_policy_from_args_builds_policy(self, clean_csv):
        parser = cli.build_parser()
        args = parser.parse_args([
            "audit", "--data", str(clean_csv),
            "--deadline", "1.5", "--retries", "3", "--fail-fast",
        ])
        policy = cli._policy_from_args(args)
        assert policy.deadline == 1.5
        assert policy.max_retries == 3
        assert policy.fail_fast


class TestDegradedExitCode:
    def test_audit_completed_degraded_exits_3(
        self, clean_csv, capsys, monkeypatch
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
        code = main(["audit", "--data", str(clean_csv),
                     "--tolerance", "0.1"])
        assert code == EXIT_DEGRADED
        assert "ERROR" in capsys.readouterr().out

    def test_violations_outrank_degradation(
        self, clean_csv, capsys, monkeypatch
    ):
        real = cli.FairnessAudit

        def with_chaos(dataset, *, config, **kwargs):
            injector = FaultInjector()
            injector.inject_error(
                "audit:sex:treatment_equality", RuntimeError("chaos")
            )
            return real(
                dataset, config=replace(config, faults=injector), **kwargs
            )

        monkeypatch.setattr(cli, "FairnessAudit", with_chaos)
        # absurdly tight tolerance: guaranteed violations AND an error
        code = main(["audit", "--data", str(clean_csv),
                     "--tolerance", "0.0001"])
        assert code == 1

    def test_workflow_degraded_exits_3(
        self, clean_csv, capsys, monkeypatch
    ):
        import repro.workflow as workflow_module

        real = workflow_module.run_compliance_workflow

        def with_chaos(dataset, profile, *, config, **kwargs):
            injector = FaultInjector()
            injector.inject_error(
                "risk_flags", RuntimeError("chaos")
            )
            return real(
                dataset, profile, config=replace(config, faults=injector),
                **kwargs,
            )

        monkeypatch.setattr(
            workflow_module, "run_compliance_workflow", with_chaos
        )
        code = main(["workflow", "--data", str(clean_csv),
                     "--tolerance", "0.1"])
        assert code == EXIT_DEGRADED

    def test_fail_fast_abort_exits_2(self, clean_csv, capsys, monkeypatch):
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
        code = main(["audit", "--data", str(clean_csv),
                     "--tolerance", "0.1", "--fail-fast"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSubgroupsCommand:
    def test_scan_finds_gerrymandered_subgroup(
        self, intersectional_csv, capsys
    ):
        code = main(["subgroups", "--data", str(intersectional_csv)])
        out = capsys.readouterr().out
        assert code == 1  # intersectional workload hides subgroup bias
        assert "gender=" in out and "race=" in out

    def test_checkpoint_and_resume(self, intersectional_csv, tmp_path, capsys):
        ckpt = tmp_path / "scan.ckpt.json"
        first = main(["subgroups", "--data", str(intersectional_csv),
                      "--checkpoint", str(ckpt), "--checkpoint-every", "2"])
        out_first = capsys.readouterr().out
        assert ckpt.exists()
        second = main(["subgroups", "--data", str(intersectional_csv),
                       "--checkpoint", str(ckpt), "--resume"])
        out_second = capsys.readouterr().out
        assert first == second
        assert out_first == out_second

    def test_corrupt_checkpoint_exits_2(
        self, intersectional_csv, tmp_path, capsys
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        main(["subgroups", "--data", str(intersectional_csv),
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])
        code = main(["subgroups", "--data", str(intersectional_csv),
                     "--checkpoint", str(ckpt), "--resume"])
        assert code == 2
        assert "byte offset" in capsys.readouterr().err


class TestHardenedIO:
    def test_truncated_csv_reports_path_and_offset(
        self, clean_csv, capsys
    ):
        text = clean_csv.read_text()
        clean_csv.write_text(text[: int(len(text) * 0.8)])
        code = main(["audit", "--data", str(clean_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(clean_csv) in err
        assert "byte offset" in err

    def test_corrupt_schema_reports_path_and_offset(
        self, clean_csv, capsys
    ):
        sidecar = clean_csv.with_suffix(clean_csv.suffix + ".schema.json")
        with open(sidecar, "a") as stream:
            stream.write("{garbage")
        code = main(["audit", "--data", str(clean_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema" in err
        assert "byte offset" in err
