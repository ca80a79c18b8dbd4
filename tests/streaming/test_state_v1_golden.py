"""State format v1 golden files: they load, resume, and re-serialise.

The files under ``tests/fixtures/state_v1`` were written while the
accumulator's cells were still a ``dict[tuple, int]``:

* ``accumulator_mixed.json`` — an :meth:`AuditAccumulator.save` of a
  stream with str, int (2 vs 10), bool and mixed str/int categories,
  fed by both ``ingest_codes`` and raw ``ingest``
  (:func:`_mixed_accumulator` rebuilds it);
* ``scan_ingest_checkpoint.json`` — the counts checkpoint a best-first
  scan of :func:`_lattice` wrote after its first 1,000-row ingest chunk
  (a pack read in 1,000-row chunks), and ``scan_complete.json`` the
  completed checkpoint of that same scan.

The cell state is now two arrays; the format is not versioned anew, so
these files must read back, resume and re-serialise byte for byte.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.core.config import ScanConfig
from repro.data import Column, Schema, TabularDataset
from repro.observability.trace import Tracer
from repro.robustness.checkpoint import load_checkpoint, save_checkpoint
from repro.streaming import AuditAccumulator
from repro.subgroup.search import scan_subgroups

from tests.oracle.accumulator import DictAccumulator

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "state_v1"
ATTRIBUTES = ["a0", "a1", "a2"]
CONFIG = ScanConfig(strategy="best_first", max_order=2, min_size=10)


def _mixed_accumulator():
    acc = AuditAccumulator(["g", "h", "k"], strata="s", label="y")
    rows = np.arange(240)
    cats = [["f", "m", "x"], [2, 10, 3, 11, 1], ["a", 7, 12, "b"],
            [True, False], [0, 1], [1, 0]]
    for lo, hi in [(0, 100), (100, 101), (101, 240)]:
        r = rows[lo:hi]
        acc.ingest_codes([
            (cats[0], r % 3), (cats[1], (r * 7) % 5), (cats[2], (r * 5) % 4),
            (cats[3], (r // 3) % 2), (cats[4], (r * 11) % 2 ^ (r % 7 == 0)),
            (cats[5], (r * 13 // 3) % 2),
        ])
    acc.ingest(y_true=[1, 0, 1], predictions=[0, 0, 1],
               protected={"g": ["m", "z", "f"], "h": [10, 2, 100],
                          "k": ["a", "c", "b"]},
               strata=[False, True, True])
    return acc


def _lattice():
    """3,000 rows over three 12-category attributes, and predictions
    with one planted order-2 excess."""
    rows = np.arange(3000)
    cats = tuple(f"v{i}" for i in range(12))
    columns, data = [], {}
    for i, prime in enumerate((7, 11, 13)):
        name = ATTRIBUTES[i]
        columns.append(Column(name, kind="categorical", role="protected",
                              categories=cats))
        data[name] = np.array(cats)[(rows * prime + i * rows // 17) % 12]
    dataset = TabularDataset(Schema(tuple(columns)), data)
    planted = (data["a0"] == "v2") & (data["a1"] == "v10")
    predictions = (((rows * 7919) % 13 < 6) | planted).astype(np.int64)
    return dataset, predictions


def test_accumulator_state_loads_and_resaves_byte_identically(tmp_path):
    path = FIXTURES / "accumulator_mixed.json"
    loaded = AuditAccumulator.load(path, expected=_mixed_accumulator())
    assert loaded.to_json() == _mixed_accumulator().to_json()
    assert loaded.to_json() == DictAccumulator.load(path).to_json()
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_scan_counts_checkpoint_resaves_byte_identically(tmp_path):
    path = FIXTURES / "scan_ingest_checkpoint.json"
    fingerprint = json.loads(path.read_text())["fingerprint"]
    payload = load_checkpoint(path, fingerprint)
    assert payload["phase"] == "ingest" and payload["rows_done"] == 1000
    accumulator = AuditAccumulator.from_dict(payload["accumulator"])
    assert accumulator.to_dict() == payload["accumulator"]
    save_checkpoint(tmp_path / "again.json",
                    {**payload, "accumulator": accumulator.to_dict()},
                    fingerprint=fingerprint)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_scan_resumes_from_the_counts_checkpoint(tmp_path):
    dataset, predictions = _lattice()
    resumed = tmp_path / "resumed.json"
    shutil.copy(FIXTURES / "scan_ingest_checkpoint.json", resumed)
    tracer = Tracer()
    result = scan_subgroups(predictions, dataset, ATTRIBUTES, config=CONFIG,
                            checkpoint_path=resumed, resume=True,
                            tracer=tracer)
    (span,) = tracer.find("subgroups.scan")
    assert span.attrs["resumed_rows"] == 1000
    fresh = scan_subgroups(predictions, dataset, ATTRIBUTES, config=CONFIG,
                           checkpoint_path=tmp_path / "fresh.json")
    complete = (FIXTURES / "scan_complete.json").read_bytes()
    assert resumed.read_bytes() == complete
    assert (tmp_path / "fresh.json").read_bytes() == complete
    assert result.flagged
    assert [(f.subgroup.conditions, f.adjusted_p_value)
            for f in result.flagged] == [
        (f.subgroup.conditions, f.adjusted_p_value) for f in fresh.flagged
    ]
