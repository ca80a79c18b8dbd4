"""The O(cells) window scorer is bit-identical to the materialised audit.

``MonitorFleet._evaluate`` scores eligible windows straight from their
codes (:meth:`_evaluate_cells`) instead of materialising rows and
re-running the full audit.  These tests force the slow path by nulling
``fleet._battery`` and require the two scorers to produce *identical*
window dictionaries, drift events, and look counters — every float bit
for bit — across the regimes that exercise each metric's skip rules.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import AuditConfig, MonitorConfig
from repro.monitor import MonitorFleet


def _feed(n, seed, *, race=True, bias=0.3):
    rng = np.random.default_rng(seed)
    sex = np.where(rng.random(n) < 0.5, "female", "male")
    cols = {"sex": sex}
    if race:
        cols["race"] = rng.choice(np.array(["a", "b", "c", "d"]), size=n)
    y = (rng.random(n) < 0.5).astype(int)
    p = y.copy()
    p[(sex == "female") & (rng.random(n) < bias)] = 0
    return y, p, cols


def _single_group():
    y = np.ones(60, dtype=int)
    return y, np.zeros(60, dtype=int), {"sex": np.array(["only"] * 60)}


def _no_positive_group():
    # the "f" group has no actual positives: equal_opportunity and
    # equalized_odds must be skipped for the attribute, exactly as the
    # materialised audit skips them via InsufficientDataError
    rng = np.random.default_rng(3)
    sex = np.array(["f"] * 40 + ["m"] * 40)
    y = np.concatenate([np.zeros(40, dtype=int), rng.integers(0, 2, 40)])
    return y, rng.integers(0, 2, 80), {"sex": sex}


def _bool_int_groups():
    rng = np.random.default_rng(4)
    cols = {
        "flag": rng.random(300) < 0.4,
        "grade": rng.integers(0, 3, 300),
    }
    return rng.integers(0, 2, 300), rng.integers(0, 2, 300), cols


REGIMES = {
    "default_battery": dict(
        kwargs=dict(
            protected=["sex", "race"],
            config=AuditConfig(),
            monitor=MonitorConfig(
                window=150, drift_threshold=0.05,
                detectors=("threshold", "spending", "cusum"), horizon=8,
            ),
        ),
        feeds={f"s{i}": _feed(700, i) for i in range(3)},
    ),
    "dp_only": dict(
        kwargs=dict(
            protected=["sex"],
            config=AuditConfig(metrics=("demographic_parity",)),
            monitor=MonitorConfig(window=100),
        ),
        feeds={"s": _feed(500, 9, race=False)},
    ),
    "audits_labels": dict(
        kwargs=dict(
            protected=["sex", "race"], config=AuditConfig(),
            audits_labels=True, monitor=MonitorConfig(window=120),
        ),
        feeds={
            "s": (_feed(600, 10)[0], None, _feed(600, 10)[2]),
        },
    ),
    "label_none": dict(
        kwargs=dict(
            protected=["sex"], config=AuditConfig(), label=None,
            monitor=MonitorConfig(window=90),
        ),
        feeds={
            "s": (None, _feed(400, 11, race=False)[1],
                  _feed(400, 11, race=False)[2]),
        },
    ),
    "single_group": dict(
        kwargs=dict(
            protected=["sex"], config=AuditConfig(),
            monitor=MonitorConfig(window=30),
        ),
        feeds={"s": _single_group()},
    ),
    "no_positive_group": dict(
        kwargs=dict(
            protected=["sex"], config=AuditConfig(),
            monitor=MonitorConfig(window=40),
        ),
        feeds={"s": _no_positive_group()},
    ),
    "bool_int_groups": dict(
        kwargs=dict(
            protected=["flag", "grade"], config=AuditConfig(),
            monitor=MonitorConfig(window=75),
        ),
        feeds={"s": _bool_int_groups()},
    ),
}


def _run(kwargs, feeds, *, fast):
    fleet = MonitorFleet(**kwargs)
    if not fast:
        fleet._battery = None
    for stream, (y, p, prot) in feeds.items():
        kw = {}
        if y is not None:
            kw["y_true"] = y
        if p is not None:
            kw["predictions"] = p
        fleet.observe(stream, protected=prot, **kw)
    fleet.flush()
    out = {}
    for name in fleet.stream_names:
        state = fleet.stream(name)
        out[name] = {
            "windows": [w.to_dict() for w in state.windows],
            "events": [e.to_dict() for e in state.drift_events],
            "looks": dict(state.looks),
        }
    return out


class TestBitIdenticalScoring:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_fast_and_materialised_paths_agree(self, regime):
        spec = REGIMES[regime]
        fast = _run(spec["kwargs"], spec["feeds"], fast=True)
        slow = _run(spec["kwargs"], spec["feeds"], fast=False)
        assert json.dumps(fast, sort_keys=True) == json.dumps(
            slow, sort_keys=True
        )


class TestEligibility:
    def test_default_config_is_eligible(self):
        fleet = MonitorFleet(["sex"], config=AuditConfig())
        assert fleet._battery == AuditConfig().battery()

    def test_strata_disables_the_fast_path(self):
        fleet = MonitorFleet(
            ["sex"], config=AuditConfig(strata="region")
        )
        assert fleet._battery is None

    def test_non_binary_outcomes_defer_to_the_materialised_audit(self):
        fleet = MonitorFleet(
            ["sex"], config=AuditConfig(metrics=("demographic_parity",)),
            monitor=MonitorConfig(window=30),
        )
        assert fleet._battery is not None
        codes = fleet._encode_chunk(fleet._validate_chunk(
            y_true=np.array([1, 0]),
            predictions=np.array([2, 0]),
            protected={"sex": np.array(["a", "b"])},
            strata=None,
        ))
        assert fleet._evaluate_cells(codes) is None
