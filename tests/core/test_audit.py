"""Tests for repro.core.audit and repro.core.report."""

import pytest

from repro.core import FairnessAudit, intersection_column
from repro.core.config import AuditConfig
from repro.core.report import render_markdown, render_text
from repro.data import make_intersectional
from repro.exceptions import AuditError
from repro.models import LogisticRegression


class TestConstruction:
    def test_requires_protected_attribute(self, biased_hiring):
        stripped = biased_hiring.drop_column("sex")
        with pytest.raises(AuditError, match="no protected attributes"):
            FairnessAudit(stripped)

    def test_prediction_length_checked(self, biased_hiring):
        with pytest.raises(AuditError, match="length"):
            FairnessAudit(biased_hiring, predictions=[1, 0])

    def test_unknown_strata_rejected(self, biased_hiring):
        with pytest.raises(AuditError, match="strata column"):
            FairnessAudit(biased_hiring, config=AuditConfig(strata="nope"))

    def test_defaults_to_label_audit(self, biased_hiring):
        audit = FairnessAudit(biased_hiring)
        assert audit.audits_labels


class TestLabelAudit:
    def test_biased_labels_flagged(self, biased_hiring):
        report = FairnessAudit(
            biased_hiring, config=AuditConfig(tolerance=0.05),
        ).run()
        assert not report.is_clean
        dp = report.finding("sex", "demographic_parity")
        assert dp.satisfied is False
        assert dp.result.disadvantaged_group() == "female"

    def test_clean_labels_pass_dp(self, clean_hiring):
        report = FairnessAudit(
            clean_hiring, config=AuditConfig(tolerance=0.05),
        ).run()
        dp = report.finding("sex", "demographic_parity")
        assert dp.satisfied is True

    def test_ground_truth_metrics_skipped_for_label_audit(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        eo = report.finding("sex", "equal_opportunity")
        assert eo.status == "skipped"
        assert "ground-truth" in eo.reason

    def test_power_notes_present(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        note = report.power_notes["sex"]
        assert note["min_detectable_gap"] > 0


class TestModelAudit:
    def test_model_predictions_audited(self, biased_hiring):
        model = LogisticRegression(max_iter=400).fit_dataset(biased_hiring)
        preds = model.predict_dataset(biased_hiring)
        report = FairnessAudit(
            biased_hiring, predictions=preds,
            config=AuditConfig(tolerance=0.05, strata="university"),
        ).run()
        # with labels distinct from predictions, error-rate metrics run
        eo = report.finding("sex", "equal_opportunity")
        assert eo.status == "ok"
        eodds = report.finding("sex", "equalized_odds")
        assert eodds.status == "ok"

    def test_calibration_runs_with_probabilities(self, biased_hiring):
        model = LogisticRegression(max_iter=400).fit_dataset(biased_hiring)
        preds = model.predict_dataset(biased_hiring)
        probs = model.predict_proba_dataset(biased_hiring)
        report = FairnessAudit(
            biased_hiring, predictions=preds, probabilities=probs
        ).run()
        cal = report.finding("sex", "calibration_within_groups")
        assert cal.status == "ok"

    def test_calibration_skipped_without_probabilities(self, biased_hiring):
        model = LogisticRegression(max_iter=400).fit_dataset(biased_hiring)
        preds = model.predict_dataset(biased_hiring)
        report = FairnessAudit(biased_hiring, predictions=preds).run()
        cal = report.finding("sex", "calibration_within_groups")
        assert cal.status == "skipped"

    def test_four_fifths_attached_to_di(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        di = report.finding("sex", "disparate_impact_ratio")
        assert di.four_fifths is not None
        assert 0 <= di.four_fifths.ratio <= 1


class TestIntersectionalAudit:
    def test_intersection_column(self):
        ds = make_intersectional(n=50, random_state=0)
        combined = intersection_column(ds, ["gender", "race"])
        assert combined.shape == (50,)
        assert all("×" in v for v in combined)

    def test_intersection_requires_two(self, biased_hiring):
        with pytest.raises(AuditError, match="at least two"):
            intersection_column(biased_hiring, ["sex"])

    def test_intersectional_findings_present(self):
        ds = make_intersectional(n=3000, subgroup_penalty=0.3, random_state=0)
        report = FairnessAudit(ds, config=AuditConfig(tolerance=0.05)).run()
        assert report.intersectional_findings
        inter_dp = [
            f for f in report.intersectional_findings
            if f.metric == "demographic_parity"
        ][0]
        assert inter_dp.satisfied is False  # intersection is biased

    def test_marginal_audits_pass_while_intersection_fails(self):
        # The paper's IV.C phenomenon, visible in a single report.
        ds = make_intersectional(n=12000, subgroup_penalty=0.3, random_state=0)
        report = FairnessAudit(ds, config=AuditConfig(tolerance=0.05)).run()
        assert report.finding("gender", "demographic_parity").satisfied
        assert report.finding("race", "demographic_parity").satisfied
        inter = [
            f for f in report.intersectional_findings
            if f.metric == "demographic_parity"
        ][0]
        assert inter.satisfied is False

    def test_single_attribute_has_no_intersectional_block(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        assert report.intersectional_findings == []


class TestReportAccessors:
    def test_finding_lookup_raises_when_absent(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        with pytest.raises(AuditError, match="no finding"):
            report.finding("sex", "not_a_metric")

    def test_partition_of_findings(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        total = len(report.all_findings())
        assert total == (
            len(report.violations()) + len(report.passes())
            + len(report.skipped())
        )


class TestRendering:
    def test_markdown_contains_key_sections(self, biased_hiring):
        report = FairnessAudit(
            biased_hiring, config=AuditConfig(strata="university"),
        ).run()
        text = render_markdown(report)
        assert "# Fairness audit report" in text
        assert "demographic_parity" in text
        assert "four-fifths" in text
        assert "Statistical power" in text

    def test_markdown_flags_violations(self, biased_hiring):
        report = FairnessAudit(
            biased_hiring, config=AuditConfig(tolerance=0.01),
        ).run()
        assert "VIOLATIONS FOUND" in render_markdown(report)

    def test_text_rendering_strips_markup(self, biased_hiring):
        report = FairnessAudit(biased_hiring).run()
        text = render_text(report)
        assert "**" not in text
        assert "`" not in text

    def test_intersectional_section_rendered(self):
        ds = make_intersectional(n=2000, random_state=0)
        report = FairnessAudit(ds).run()
        assert "Intersectional subgroups" in render_markdown(report)


class TestPredictionColumnAudit:
    def test_from_prediction_column(self, biased_hiring):
        from repro.models import LogisticRegression

        model = LogisticRegression(max_iter=400).fit_dataset(biased_hiring)
        ds = biased_hiring.with_predictions(
            model.predict_dataset(biased_hiring)
        )
        audit = FairnessAudit.from_prediction_column(ds)
        assert not audit.audits_labels
        report = audit.run()
        assert report.finding("sex", "equal_opportunity").status == "ok"

    def test_missing_column_raises(self, biased_hiring):
        with pytest.raises(AuditError, match="no column"):
            FairnessAudit.from_prediction_column(biased_hiring)


def _singleton_strata_dataset():
    """A strata column in which every stratum under-represents a group,
    so all conditional metrics hit the sparse-subgroup path (IV.C)."""
    from repro.data import Column, Schema, TabularDataset

    schema = Schema((
        Column(
            "sex", kind="categorical", role="protected",
            categories=("male", "female"),
        ),
        Column("dept", kind="categorical", categories=("a", "b")),
        Column("hired", kind="binary", role="label"),
    ))
    # dept=a holds every male and one female; dept=b the remaining
    # females: each stratum has a singleton (or absent) group.
    return TabularDataset(schema, {
        "sex": ["male"] * 10 + ["female"] * 10,
        "dept": ["a"] * 11 + ["b"] * 9,
        "hired": [1, 0] * 10,
    })


class TestSingletonStrataSkipPath:
    """Regression: sparse strata must yield skipped findings, never an
    uncaught exception (the existing skip path, now under supervision)."""

    def test_conditional_metrics_skipped_not_raised(self):
        report = FairnessAudit(
            _singleton_strata_dataset(), config=AuditConfig(strata="dept"),
        ).run()
        for metric in (
            "conditional_statistical_parity",
            "conditional_demographic_disparity",
        ):
            finding = report.finding("sex", metric)
            assert finding.status == "skipped"
            assert "skipped" in finding.reason or "stratum" in finding.reason

    def test_no_error_findings_from_sparse_strata(self):
        report = FairnessAudit(
            _singleton_strata_dataset(), config=AuditConfig(strata="dept"),
        ).run()
        assert report.errors() == []
        assert not report.degraded

    def test_skip_reason_rendered_in_markdown(self):
        report = FairnessAudit(
            _singleton_strata_dataset(), config=AuditConfig(strata="dept"),
        ).run()
        text = render_markdown(report)
        assert "SKIPPED" in text


class TestInsufficientDataSurfacing:
    """The structured ``group``/``count`` fields of
    :class:`InsufficientDataError` must reach the finding and report."""

    def _one_sided_dataset(self):
        from repro.data import Column, Schema, TabularDataset

        schema = Schema((
            Column(
                "sex", kind="categorical", role="protected",
                categories=("male", "female"),
            ),
            Column("hired", kind="binary", role="label"),
        ))
        # every female outcome is positive: equalized_odds cannot
        # estimate her false-positive rate (no actual negatives)
        return TabularDataset(schema, {
            "sex": ["male"] * 8 + ["female"] * 8,
            "hired": [1, 0] * 4 + [1] * 8,
        })

    def test_group_and_count_in_reason(self):
        data = self._one_sided_dataset()
        predictions = [1, 0] * 8
        report = FairnessAudit(data, predictions=predictions).run()
        finding = report.finding("sex", "equalized_odds")
        assert finding.status == "skipped"
        assert "group=female" in finding.reason
        assert "n=" in finding.reason

    def test_group_reaches_markdown_report(self):
        data = self._one_sided_dataset()
        report = FairnessAudit(data, predictions=[1, 0] * 8).run()
        assert "group=female" in render_markdown(report)
