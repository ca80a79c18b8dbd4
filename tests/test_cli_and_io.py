"""Tests for the CLI, dataset file I/O, and report serialisation."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import FairnessAudit
from repro.core.config import AuditConfig
from repro.core.serialize import (
    finding_to_dict,
    metric_result_to_dict,
    report_to_dict,
    report_to_json,
)
from repro.core.metrics import demographic_parity
from repro.data import make_hiring
from repro.data.io import (
    load_dataset,
    save_dataset,
    schema_from_dict,
    schema_to_dict,
)
from repro.exceptions import SchemaError


class TestSchemaSerialisation:
    def test_roundtrip(self, biased_hiring):
        payload = schema_to_dict(biased_hiring.schema)
        rebuilt = schema_from_dict(payload)
        assert rebuilt.names() == biased_hiring.schema.names()
        assert rebuilt["sex"].role == "protected"
        assert rebuilt["sex"].categories == ("male", "female")
        assert rebuilt["sex"].statute_tags == ("title_vii", "eu_2006_54")

    def test_json_compatible(self, biased_hiring):
        text = json.dumps(schema_to_dict(biased_hiring.schema))
        assert "protected" in text

    def test_missing_columns_key(self):
        with pytest.raises(SchemaError, match="columns"):
            schema_from_dict({})

    def test_missing_name_key(self):
        with pytest.raises(SchemaError, match="missing required key"):
            schema_from_dict({"columns": [{"kind": "numeric"}]})


class TestDatasetIO:
    def test_roundtrip(self, tmp_path, biased_hiring):
        path = tmp_path / "data.csv"
        save_dataset(biased_hiring, path)
        assert path.exists()
        assert (tmp_path / "data.csv.schema.json").exists()
        back = load_dataset(path)
        assert back.n_rows == biased_hiring.n_rows
        np.testing.assert_array_equal(back.labels(), biased_hiring.labels())
        np.testing.assert_allclose(
            back.column("experience"), biased_hiring.column("experience")
        )

    def test_explicit_schema_path(self, tmp_path, tiny_dataset):
        data = tmp_path / "d.csv"
        schema = tmp_path / "s.json"
        save_dataset(tiny_dataset, data, schema)
        back = load_dataset(data, schema)
        assert back.n_rows == tiny_dataset.n_rows


class TestReportSerialisation:
    @pytest.fixture(scope="class")
    def report(self):
        ds = make_hiring(
            n=1200, direct_bias=1.5, proxy_strength=0.8, random_state=7
        )
        return FairnessAudit(
            ds, config=AuditConfig(tolerance=0.05, strata="university"),
        ).run()

    def test_metric_result_dict(self):
        result = demographic_parity(
            [1, 0, 1, 1], ["a", "a", "b", "b"], with_significance=True
        )
        payload = metric_result_to_dict(result)
        assert payload["metric"] == "demographic_parity"
        assert len(payload["groups"]) == 2
        assert "significance" in payload
        json.dumps(payload)  # must be JSON-able

    def test_report_dict_structure(self, report):
        payload = report_to_dict(report)
        assert payload["counts"]["violations"] == len(report.violations())
        assert len(payload["findings"]) == len(report.findings)
        assert payload["is_clean"] == report.is_clean

    def test_report_json_parses(self, report):
        parsed = json.loads(report_to_json(report))
        metrics = {f["metric"] for f in parsed["findings"]}
        assert "demographic_parity" in metrics
        assert "conditional_statistical_parity" in metrics

    def test_conditional_results_nested(self, report):
        finding = report.finding("sex", "conditional_statistical_parity")
        payload = finding_to_dict(finding)
        assert "strata" in payload["result"]
        json.dumps(payload)

    def test_four_fifths_serialised(self, report):
        finding = report.finding("sex", "disparate_impact_ratio")
        payload = finding_to_dict(finding)
        assert "four_fifths" in payload
        assert isinstance(payload["four_fifths"]["passes"], bool)


class TestCli:
    def test_generate_then_audit_markdown(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main([
            "generate", "--workload", "hiring", "--n", "600",
            "--bias", "2.0", "--proxy", "0.9", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        capsys.readouterr()

        code = main(["audit", "--data", str(out), "--tolerance", "0.05"])
        output = capsys.readouterr().out
        assert code == 1  # violations found → nonzero for CI gating
        assert "Fairness audit report" in output
        assert "VIOLATIONS FOUND" in output

    def test_audit_clean_data_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        main(["generate", "--workload", "hiring", "--n", "3000",
              "--bias", "0.0", "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = main(["audit", "--data", str(out), "--tolerance", "0.1"])
        capsys.readouterr()
        assert code == 0

    def test_audit_json_format(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        main(["generate", "--workload", "credit", "--n", "500",
              "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        main(["audit", "--data", str(out), "--format", "json"])
        parsed = json.loads(capsys.readouterr().out)
        assert "findings" in parsed

    def test_audit_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["audit", "--data", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_recommend(self, capsys):
        code = main([
            "recommend", "--jurisdiction", "eu", "--structural-bias",
            "--affirmative-action", "--no-reliable-labels",
            "--legitimate-factor", "seniority", "--proxy-risk",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "demographic_parity" in output
        assert "proxy_discrimination" in output

    def test_statutes(self, capsys):
        code = main(["statutes", "--attribute", "sex",
                     "--sector", "employment", "--jurisdiction", "us"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Title VII" in output
        assert "Equal Pay Act" in output

    def test_statutes_no_match(self, capsys):
        code = main(["statutes", "--attribute", "favorite_color"])
        assert code == 0
        assert "no cataloged statute" in capsys.readouterr().out

    @pytest.mark.parametrize("workload", [
        "hiring", "credit", "housing", "recidivism", "intersectional",
    ])
    def test_all_workloads_generate(self, tmp_path, capsys, workload):
        out = tmp_path / f"{workload}.csv"
        code = main(["generate", "--workload", workload, "--n", "100",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        back = load_dataset(out)
        assert back.n_rows == 100


class TestCliDefineAndWorkflow:
    def test_define(self, capsys):
        code = main(["define", "disparate", "impact"])
        assert code == 0
        output = capsys.readouterr().out
        assert "disparate impact" in output
        assert "II.B.4" in output
        assert "see also" in output

    def test_define_unknown_exits_2(self, capsys):
        code = main(["define", "vibes"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_workflow_biased_exits_1(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        main(["generate", "--workload", "hiring", "--n", "1500",
              "--bias", "2.0", "--proxy", "0.9", "--seed", "4",
              "--out", str(out)])
        capsys.readouterr()
        code = main([
            "workflow", "--data", str(out),
            "--structural-bias", "--no-reliable-labels",
            "--strata", "university", "--proxy-risk",
        ])
        output = capsys.readouterr().out
        assert code == 1
        assert "Compliance dossier" in output
        assert "FAIL" in output

    def test_workflow_clean_exits_0(self, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        main(["generate", "--workload", "hiring", "--n", "3000",
              "--bias", "0.0", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        code = main(["workflow", "--data", str(out),
                     "--strata", "university"])
        capsys.readouterr()
        assert code == 0
