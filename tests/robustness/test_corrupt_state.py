"""Corrupted-state regression tests: every bad state file is a
CheckpointError with the path and cause — never a raw JSONDecodeError
or KeyError escaping to the caller."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.config import ScanConfig
from repro.data import make_hiring
from repro.exceptions import AuditError, CheckpointError
from repro.robustness.checkpoint import load_checkpoint, save_checkpoint
from repro.streaming import AuditAccumulator
from repro.streaming.stream import accumulator_for
from repro.subgroup import audit_subgroups


@pytest.fixture
def hiring():
    return make_hiring(400, random_state=5)


def _assert_checkpoint_error(excinfo, path):
    error = excinfo.value
    assert isinstance(error, CheckpointError)
    assert str(path) in str(error)
    assert error.path is not None


class TestLoadCheckpoint:
    def test_truncated_json(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, {"x": 1}, fingerprint="f")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError, match="byte offset") as excinfo:
            load_checkpoint(path)
        _assert_checkpoint_error(excinfo, path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        _assert_checkpoint_error(excinfo, path)

    def test_garbled_bytes(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text("\x00\x01 not json at all {{{")
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        _assert_checkpoint_error(excinfo, path)

    def test_wrong_layout_not_an_envelope(self, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="envelope"):
            load_checkpoint(path)

    def test_never_raises_json_decode_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{unbalanced")
        try:
            load_checkpoint(path)
        except json.JSONDecodeError:  # pragma: no cover — the regression
            pytest.fail("raw JSONDecodeError escaped load_checkpoint")
        except CheckpointError:
            pass


class TestAccumulatorState:
    def _state_file(self, tmp_path, hiring):
        accumulator = accumulator_for(hiring, audits_labels=True)
        accumulator.ingest_dataset(hiring)
        path = tmp_path / "acc.state.json"
        accumulator.save(path)
        return path

    def test_truncated_state(self, tmp_path, hiring):
        path = self._state_file(tmp_path, hiring)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError) as excinfo:
            AuditAccumulator.load(path)
        _assert_checkpoint_error(excinfo, path)

    def test_empty_state(self, tmp_path, hiring):
        path = self._state_file(tmp_path, hiring)
        path.write_text("")
        with pytest.raises(CheckpointError) as excinfo:
            AuditAccumulator.load(path)
        _assert_checkpoint_error(excinfo, path)

    def test_wrong_layout_payload(self, tmp_path, hiring, capsys):
        # a valid envelope whose payload is not accumulator state must
        # surface as CheckpointError naming the layout, not a KeyError —
        # nor an AttributeError for a payload that is not an object —
        # and `repro merge-state` must exit 2 (bad input), not 1
        for payload in ({"not": "an accumulator"}, [1, 2], "state", 7, None):
            path = tmp_path / "wrong.state.json"
            save_checkpoint(path, payload)
            with pytest.raises(
                CheckpointError, match="wrong layout"
            ) as excinfo:
                AuditAccumulator.load(path)
            _assert_checkpoint_error(excinfo, path)
            assert main(["merge-state", str(path)]) == 2
            assert "wrong layout" in capsys.readouterr().err
            if not isinstance(payload, dict):
                with pytest.raises(AuditError, match="JSON object"):
                    AuditAccumulator.from_dict(payload)

    def test_payload_with_mistyped_fields(self, tmp_path, hiring):
        path = self._state_file(tmp_path, hiring)
        envelope = json.loads(path.read_text())
        for cells in ("definitely not a table", {"ab": 1}, 5, None):
            payload = {**envelope["payload"], "cells": cells}
            path.write_text(json.dumps({**envelope, "payload": payload}))
            with pytest.raises(CheckpointError, match="must be a list"):
                AuditAccumulator.load(path)
            with pytest.raises(AuditError, match="must be a list"):
                AuditAccumulator.from_dict(payload)

    def _rewrite(self, path, edit):
        envelope = json.loads(path.read_text())
        edit(envelope["payload"])
        path.write_text(json.dumps(envelope))

    def test_negative_cell_count(self, tmp_path, hiring):
        # regression: loaded silently, then finalize died in np.repeat
        path = self._state_file(tmp_path, hiring)

        def edit(payload):
            payload["cells"][0][1] = -payload["cells"][0][1]

        self._rewrite(path, edit)
        with pytest.raises(CheckpointError, match="negative count") as excinfo:
            AuditAccumulator.load(path)
        _assert_checkpoint_error(excinfo, path)

    def test_cell_key_with_wrong_arity(self, tmp_path, hiring):
        # regression: loaded silently, then finalize raised IndexError
        path = self._state_file(tmp_path, hiring)

        def edit(payload):
            payload["cells"][0][0] = payload["cells"][0][0][:-1]

        self._rewrite(path, edit)
        with pytest.raises(CheckpointError, match="parts") as excinfo:
            AuditAccumulator.load(path)
        _assert_checkpoint_error(excinfo, path)

    def test_row_total_disagreeing_with_cells(self, tmp_path, hiring):
        # regression: n_rows=99 over cells summing to 3 loaded silently
        # and audited 3 rows
        path = self._state_file(tmp_path, hiring)

        def edit(payload):
            payload["n_rows"] += 1

        self._rewrite(path, edit)
        with pytest.raises(CheckpointError, match="n_rows") as excinfo:
            AuditAccumulator.load(path)
        _assert_checkpoint_error(excinfo, path)


class TestScanResume:
    def test_wrong_layout_scan_checkpoint(self, tmp_path, hiring):
        path = tmp_path / "scan.json"
        # run once to learn the fingerprint the resume path expects
        audit_subgroups(
            hiring.labels(), hiring,
            scan_config=ScanConfig(max_order=1, checkpoint_every=1),
            checkpoint_path=str(path),
        )
        envelope = json.loads(path.read_text())
        for payload in ({"unexpected": True}, [1, 2], "scan"):
            envelope["payload"] = payload
            path.write_text(json.dumps(envelope))
            with pytest.raises(
                CheckpointError, match="wrong layout"
            ) as excinfo:
                audit_subgroups(
                    hiring.labels(), hiring,
                    scan_config=ScanConfig(max_order=1),
                    checkpoint_path=str(path), resume=True,
                )
            _assert_checkpoint_error(excinfo, path)

    def test_garbled_scan_checkpoint(self, tmp_path, hiring):
        path = tmp_path / "scan.json"
        path.write_text("{torn")
        with pytest.raises(CheckpointError) as excinfo:
            audit_subgroups(
                hiring.labels(), hiring, scan_config=ScanConfig(max_order=1),
                checkpoint_path=str(path), resume=True,
            )
        _assert_checkpoint_error(excinfo, path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda state: [],
            lambda state: state["cells"][0][0].__setitem__(0, -1),
            lambda state: state["cells"][0][0].__setitem__(0, 99),
            lambda state: state["cells"][0][0].__setitem__(-1, 2),
            lambda state: state["cells"][0][0].__setitem__(0, None),
            lambda state: state["cells"][0][0].__setitem__(0, "a"),
            lambda state: state.__setitem__("protected", ["nope"]),
            lambda state: state.__setitem__("label", "hired"),
        ],
        ids=["not-an-object", "negative-code", "code-past-radix",
             "prediction-not-binary", "null-code", "string-code",
             "other-attributes", "labelled-layout"],
    )
    def test_edited_counts_scan_checkpoint(self, tmp_path, hiring, edit):
        # an ingest checkpoint whose counts no longer fit the lattice:
        # refused, however it parses
        path = tmp_path / "scan.json"
        scan = ScanConfig(max_order=2)
        audit_subgroups(
            hiring.labels(), hiring, scan_config=scan, checkpoint_path=path
        )
        envelope = json.loads(path.read_text())
        envelope["payload"] = {
            "format": 1,
            "complete": False,
            "phase": "ingest",
            "rows_done": hiring.n_rows,
            "accumulator": accumulator_state(hiring),
        }
        state = envelope["payload"]["accumulator"]
        replaced = edit(state)
        if replaced is not None:
            envelope["payload"]["accumulator"] = replaced
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="wrong layout") as excinfo:
            audit_subgroups(
                hiring.labels(), hiring, scan_config=scan,
                checkpoint_path=path, resume=True,
            )
        _assert_checkpoint_error(excinfo, path)


def accumulator_state(dataset) -> dict:
    """The counts a scan of ``dataset`` checkpoints after its ingest."""
    from repro.subgroup.search import _ingest_range

    attributes = dataset.schema.protected_names
    accumulator = AuditAccumulator(attributes, label=None)
    _ingest_range(
        accumulator, dataset, attributes, dataset.labels(), 0,
        dataset.n_rows,
    )
    return accumulator.to_dict()
