"""Tests for repro.models.boosting."""

import numpy as np

from repro.core.config import AuditConfig
from repro.models import GradientBoosting, LogisticRegression


def _xor_problem(n=500, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


def _linear_problem(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 3))
    y = (X[:, 0] - X[:, 1] > 0).astype(int)
    return X, y


class TestGradientBoosting:
    def test_solves_xor_where_linear_fails(self):
        X, y = _xor_problem()
        linear = LogisticRegression(max_iter=800).fit(X, y)
        boosted = GradientBoosting(n_rounds=150, learning_rate=0.4).fit(X, y)
        assert linear.score(X, y) < 0.65
        assert boosted.score(X, y) > 0.9

    def test_linear_problem(self):
        X, y = _linear_problem()
        model = GradientBoosting(n_rounds=80).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_probabilities_bounded(self):
        X, y = _linear_problem()
        model = GradientBoosting(n_rounds=40).fit(X, y)
        probs = model.predict_proba(X)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_more_rounds_fit_better(self):
        X, y = _xor_problem(seed=3)
        few = GradientBoosting(n_rounds=5).fit(X, y)
        many = GradientBoosting(n_rounds=120).fit(X, y)
        assert many.score(X, y) > few.score(X, y)

    def test_staged_scores_shape_and_final(self):
        X, y = _linear_problem()
        model = GradientBoosting(n_rounds=30).fit(X, y)
        stages = model.staged_scores(X)
        assert stages.shape == (30, len(X))
        np.testing.assert_allclose(stages[-1], model.predict_proba(X))

    def test_sample_weight_shifts_base_rate(self):
        X, y = _linear_problem()
        heavy = np.where(y == 1, 10.0, 1.0)
        model = GradientBoosting(n_rounds=1).fit(X, y, sample_weight=heavy)
        assert model.base_score_ > 0  # weighted positive rate above half

    def test_constant_feature_ok(self):
        rng = np.random.default_rng(0)
        X = np.hstack([rng.normal(0, 1, (200, 1)), np.ones((200, 1))])
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoosting(n_rounds=20).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_works_with_audit_layer(self, biased_hiring):
        from repro.core import FairnessAudit
        from repro.models import Standardizer

        X = Standardizer().fit_transform(biased_hiring.feature_matrix())
        model = GradientBoosting(n_rounds=60).fit(X, biased_hiring.labels())
        preds = model.predict(X)
        report = FairnessAudit(
            biased_hiring, predictions=preds,
            config=AuditConfig(tolerance=0.05),
        ).run()
        dp = report.finding("sex", "demographic_parity")
        assert dp.status == "ok"
        # the boosted model inherits the label bias just like the others
        assert dp.result.disadvantaged_group() == "female"
