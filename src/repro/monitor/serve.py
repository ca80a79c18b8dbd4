"""Monitor serve mode: tail append-only shard spools into a fleet.

``repro monitor serve`` watches a *spool root* — a directory whose
immediate subdirectories are stream names, each an append-only feed of
shard files written by the service layer (or any producer)::

    spool/
      checkout/shard-000001.csv          + shard-000001.csv.schema.json
      checkout/shard-000002.packed/      (PR 8 packed columnar format)
      signup/shard-000001.csv

New shards are picked up on each poll, read in bounded-memory chunks
(:func:`repro.data.ooc.stream_chunks` for packed datasets,
:func:`repro.data.io.load_dataset` for CSV shards), and fed to the
:class:`~repro.monitor.engine.MonitorFleet` under the directory's
stream name.  Drift alerts flow through the PR 7 event bus with
``stream`` labels, and a minimal HTTP endpoint
(:func:`serve_http`) exposes the per-stream labeled metrics::

    GET /healthz                     fleet liveness + per-stream stats
    GET /metrics                     Prometheus text exposition (JSON
                                     behind ``Accept: application/json``)
    GET /events[?since=&kind=&stream=]  cursor-style alert feed

Shard-readiness convention: writers must create shards atomically
(write to a dotfile or ``*.tmp``/``*.partial`` name, then rename) —
the tailer skips those names, and skips directories until their packed
``dataset.json`` sidecar exists.  Consumed shard names are tracked in
memory for the lifetime of the service; restarting the tailer replays
the spool from the start (monitoring state is cheap to rebuild — it is
the *alerts* that are durable, via the event-bus sink).
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.data.io import load_dataset
from repro.data.ooc import DEFAULT_CHUNK_ROWS, is_packed, stream_chunks
from repro.exceptions import AuditError
from repro.monitor.engine import MonitorFleet
from repro.observability.events import get_event_bus
from repro.observability.metrics import get_metrics
from repro.observability.promfmt import PROM_CONTENT_TYPE, render_prometheus
from repro.service.httpd import JsonHandler

__all__ = ["MonitorService", "ShardSpool", "serve_http"]

#: ceiling on one /events response, mirroring the audit service's cap.
MAX_EVENTS = 500

#: suffixes a shard writer uses for not-yet-renamed work in progress.
_UNREADY_SUFFIXES = (".tmp", ".partial")


class ShardSpool:
    """One stream's append-only shard directory.

    Tracks which shard names were already consumed and surfaces new
    ready shards in name-sorted order (producers name shards
    monotonically — ``shard-000001``, ``shard-000002`` — so sort order
    is arrival order).
    """

    def __init__(self, name: str, path):
        self.name = name
        self.path = Path(path)
        self.consumed: set[str] = set()

    @staticmethod
    def _ready(entry: Path) -> bool:
        name = entry.name
        if name.startswith("."):
            return False
        if name.endswith(_UNREADY_SUFFIXES):
            return False
        if name.endswith(".schema.json"):
            return False  # CSV sidecar, not a shard
        if entry.is_dir():
            return is_packed(entry)
        return entry.is_file()

    def poll(self) -> list[Path]:
        """New ready shards since the last poll, oldest first."""
        fresh = sorted(
            entry
            for entry in self.path.iterdir()
            if entry.name not in self.consumed and self._ready(entry)
        )
        for entry in fresh:
            self.consumed.add(entry.name)
        return fresh

    def __repr__(self) -> str:
        return (
            f"ShardSpool(name={self.name!r}, "
            f"consumed={len(self.consumed)})"
        )


class MonitorService:
    """Tail a spool root into a :class:`MonitorFleet`.

    Parameters
    ----------
    fleet:
        The fleet receiving every shard's rows.
    root:
        Spool directory; each subdirectory is one stream.
    schema:
        Optional schema-JSON path applied to CSV shards that have no
        per-shard ``.schema.json`` sidecar (packed shards always carry
        their own).
    prediction_column:
        Column holding the model's decisions in each shard.  ``None``
        runs the fleet as a data audit over the labels themselves
        (``audits_labels=True`` fleets).
    chunk_rows:
        Rows per in-memory chunk when reading a shard.
    poll_interval:
        Seconds between spool scans in :meth:`run`.
    """

    def __init__(
        self,
        fleet: MonitorFleet,
        root,
        *,
        schema=None,
        prediction_column: str | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        poll_interval: float = 0.5,
    ):
        self.fleet = fleet
        self.root = Path(root)
        if not self.root.is_dir():
            raise AuditError(f"spool root {self.root} is not a directory")
        self.schema = None if schema is None else Path(schema)
        self.prediction_column = prediction_column
        if prediction_column is not None and fleet.audits_labels:
            raise AuditError(
                "a data-audit fleet reads no prediction column"
            )
        if prediction_column is None and not fleet.audits_labels:
            raise AuditError(
                "fleet expects predictions; pass prediction_column"
            )
        self.chunk_rows = int(chunk_rows)
        self.poll_interval = float(poll_interval)
        self.rows_ingested = 0
        self.shards_ingested = 0
        self._spools: dict[str, ShardSpool] = {}

    # -- spool scanning ------------------------------------------------------

    def _discover(self) -> list[ShardSpool]:
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and not entry.name.startswith("."):
                if entry.name not in self._spools:
                    self._spools[entry.name] = ShardSpool(entry.name, entry)
        return list(self._spools.values())

    def _open_shard(self, shard: Path):
        if shard.is_dir():
            return stream_chunks(shard, self.chunk_rows)
        sidecar = shard.with_suffix(shard.suffix + ".schema.json")
        schema_path = sidecar if sidecar.is_file() else self.schema
        dataset = load_dataset(shard, schema_path)
        return stream_chunks(dataset, self.chunk_rows)

    def _feed(self, stream: str, chunk) -> int:
        fleet = self.fleet
        label = fleet.label
        strata = fleet.config.strata
        n = chunk.n_rows
        fleet.observe(
            stream,
            y_true=None if label is None else chunk.column(label),
            predictions=(
                None
                if self.prediction_column is None
                else chunk.column(self.prediction_column)
            ),
            protected={
                name: chunk.column(name) for name in fleet.protected
            },
            strata=None if strata is None else chunk.column(strata),
        )
        return n

    def scan_once(self) -> int:
        """Ingest every new shard on every stream; returns rows fed."""
        rows = 0
        for spool in self._discover():
            for shard in spool.poll():
                for chunk in self._open_shard(shard):
                    rows += self._feed(spool.name, chunk)
                self.shards_ingested += 1
                get_metrics().counter(
                    "monitor.shards_ingested", stream=spool.name
                ).inc()
        self.rows_ingested += rows
        return rows

    def run(self, stop: threading.Event | None = None) -> int:
        """Poll the spool until ``stop`` is set; returns rows ingested.

        With no ``stop`` event the loop runs until interrupted — the
        CLI's serve mode passes the event its signal handlers set.
        """
        stop = stop if stop is not None else threading.Event()
        total = 0
        while not stop.is_set():
            total += self.scan_once()
            stop.wait(self.poll_interval)
        return total

    # -- status --------------------------------------------------------------

    def status(self) -> dict:
        """JSON-able liveness snapshot for ``GET /healthz``."""
        fleet = self.fleet
        return {
            "status": "ok",
            "root": str(self.root),
            "rows_ingested": self.rows_ingested,
            "shards_ingested": self.shards_ingested,
            "streams": {
                name: {
                    "windows": len(state.windows),
                    "rows_seen": state.rows_seen,
                    "buffered": state.buffered,
                    "drift_events": len(state.drift_events),
                }
                for name, state in (
                    (name, fleet.stream(name))
                    for name in fleet.stream_names
                )
            },
        }


class _MonitorHandler(JsonHandler):
    """Read-only HTTP surface for a running monitor service."""

    server_version = "repro-monitor/1"

    def do_GET(self):  # noqa: N802 — stdlib casing
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        if parts == ["healthz"]:
            return self._send_json(200, self.server.service.status())
        if parts == ["metrics"]:
            accept = self.headers.get("Accept") or ""
            if "application/json" in accept:
                return self._send_json(200, get_metrics().snapshot())
            body = render_prometheus(get_metrics()).encode()
            return self._send_bytes(200, body, content_type=PROM_CONTENT_TYPE)
        if parts == ["events"]:
            try:
                since = int((query.get("since") or ["0"])[0])
                limit = int((query.get("limit") or [str(MAX_EVENTS)])[0])
            except ValueError:
                return self._send_json(
                    400, {"error": "since and limit must be integers"}
                )
            bus = get_event_bus()
            events = bus.since(
                since,
                kind=(query.get("kind") or [None])[0],
                stream=(query.get("stream") or [None])[0],
                limit=min(limit, MAX_EVENTS),
            )
            return self._send_json(
                200,
                {
                    "events": [event.to_dict() for event in events],
                    "last_seq": bus.last_seq,
                    "capacity": bus.capacity,
                },
            )
        self._send_json(404, {"error": f"no route for {url.path}"})


class MonitorHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service: MonitorService, *, quiet=True):
        super().__init__(address, _MonitorHandler)
        self.service = service
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_http(
    service: MonitorService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> MonitorHTTPServer:
    """Expose a monitor service on a daemon-thread HTTP server.

    Returns the server (inspect ``server.port`` when ``port=0``); call
    ``server.shutdown()`` to stop — exactly what the CLI's
    ``repro monitor serve`` does on SIGTERM.
    """
    server = MonitorHTTPServer((host, port), service, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True, name="repro-monitor-httpd"
    )
    thread.start()
    return server
