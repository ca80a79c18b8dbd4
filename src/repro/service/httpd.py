"""Reference-based HTTP/JSON API over a :class:`JobEngine`.

Stdlib-only (:mod:`http.server`), threaded, and deliberately small: the
API returns *references* — job records with ``href`` links and result
previews with paginated findings — never megabyte dossiers in one
response.  The full stored object stays available, byte-identical, at
``/results/<key>/raw`` for clients that asked for it by address.

Routes::

    GET  /healthz                    liveness + job counts
    GET  /metrics                    Prometheus text exposition (JSON
                                     behind ``Accept: application/json``)
    GET  /events[?since=&kind=&stream=]  alerting event bus, cursor-style
    GET  /jobs[?status=...]          job references, oldest first
    POST /jobs                       submit {kind, params, config}
    GET  /jobs/<id>                  one job reference
    POST /jobs/<id>/cancel           cooperative cancellation
    GET  /results/<key>              result preview (no findings body)
    GET  /results/<key>/findings     paginated findings (?page=&per_page=)
    GET  /results/<key>/raw          the stored object, byte-identical

``POST /jobs`` honours a W3C ``traceparent`` request header: the
submission's ``http.request`` span continues the caller's trace, and
the job (and its audit spans, down to process-pool chunk workers)
parents under it — one trace_id from the external caller to the
deepest ``subgroups.score_chunk`` span.  Headerless submissions make
their own head-sampling decision at ``trace_sample_rate``.

Failure mapping: a saturated queue answers ``429`` with a
``Retry-After`` header and the structured
:meth:`~repro.exceptions.AdmissionError.to_dict` body; bad requests are
``400``; unknown references ``404``; submissions after shutdown began
``503``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    AdmissionError,
    CheckpointError,
    EngineClosedError,
    ReproError,
    ValidationError,
)
from repro.observability.context import TraceContext, head_sample
from repro.observability.events import get_event_bus
from repro.observability.metrics import get_metrics
from repro.observability.promfmt import PROM_CONTENT_TYPE, render_prometheus
from repro.observability.trace import get_tracer
from repro.service.engine import JobEngine

__all__ = ["AuditHTTPServer", "serve", "MAX_PER_PAGE"]

#: ceiling on one /events response, mirroring the findings-page cap.
MAX_EVENTS = 500

#: hard ceiling on one findings page — the "never megabyte responses"
#: contract is enforced here, not trusted to clients.
MAX_PER_PAGE = 200
_DEFAULT_PER_PAGE = 50
_MAX_BODY = 1 << 20  # 1 MiB of request JSON is already generous


def _findings_of(payload: dict) -> list:
    """The findings list inside a stored result, whatever its kind."""
    kind = payload.get("kind")
    if kind == "subgroups":
        return list(payload.get("findings") or [])
    if kind == "workflow":
        report = (payload.get("dossier") or {}).get("audit") or {}
        return list(report.get("findings") or [])
    return list((payload.get("report") or {}).get("findings") or [])


def _preview_of(payload: dict, key: str) -> dict:
    """A result preview: everything except the findings body."""
    findings = _findings_of(payload)
    preview = {
        "result_key": key,
        "kind": payload.get("kind"),
        "schema_version": payload.get("schema_version"),
        "degraded": payload.get("degraded", False),
        "n_findings": len(findings),
        "findings": f"/results/{key}/findings",
        "raw": f"/results/{key}/raw",
    }
    if payload.get("kind") == "subgroups":
        for field in ("alpha", "adjust", "n_subgroups", "n_significant"):
            preview[field] = payload.get(field)
    elif payload.get("kind") == "workflow":
        preview["verdict"] = payload.get("verdict")
        preview["primary_metric"] = payload.get("primary_metric")
    else:
        report = payload.get("report") or {}
        preview["is_clean"] = payload.get("is_clean")
        preview["counts"] = report.get("counts")
        preview["dataset_summary"] = report.get("dataset_summary")
    return preview


class JsonHandler(BaseHTTPRequestHandler):
    """Response helpers shared by the audit and monitor HTTP services."""

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    def _send_bytes(self, status: int, body: bytes, *, headers=None,
                    content_type: str = "application/json"):
        """Send headers and body in one ``wfile.write``: a body written
        after ``end_headers`` leaves in a second small segment, which
        Nagle's algorithm holds until a keep-alive client's delayed ACK
        (~40 ms)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version != "HTTP/0.9":  # 0.9 responses carry no head
            self._headers_buffer.append(b"\r\n")
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + body)

    def _send_json(self, status: int, payload: dict, *, headers=None):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send_bytes(status, body, headers=headers)


class _Handler(JsonHandler):
    """One request; the engine lives on the server object."""

    server_version = "repro-audit-service"
    protocol_version = "HTTP/1.1"

    # -- response helpers ----------------------------------------------------

    def _send_error(self, status: int, message: str, **extra):
        self._send_json(status, {"error": message, **extra})

    # -- routing -------------------------------------------------------------

    @property
    def engine(self) -> JobEngine:
        return self.server.engine

    def do_GET(self):  # noqa: N802 — stdlib casing
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"]:
                return self._get_healthz()
            if parts == ["metrics"]:
                return self._get_metrics()
            if parts == ["events"]:
                return self._get_events(query)
            if parts == ["jobs"]:
                return self._get_jobs(query)
            if len(parts) == 2 and parts[0] == "jobs":
                return self._get_job(parts[1])
            if len(parts) == 2 and parts[0] == "results":
                return self._get_result_preview(parts[1])
            if len(parts) == 3 and parts[0] == "results":
                if parts[2] == "findings":
                    return self._get_findings(parts[1], query)
                if parts[2] == "raw":
                    return self._get_raw(parts[1])
            self._send_error(404, f"no route for {url.path}")
        except CheckpointError as exc:
            self._send_error(404, str(exc))
        except ReproError as exc:
            self._send_error(400, str(exc), error_type=type(exc).__name__)

    def do_POST(self):  # noqa: N802 — stdlib casing
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        try:
            if parts == ["jobs"]:
                return self._post_job()
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return self._post_cancel(parts[1])
            self._send_error(404, f"no route for {self.path}")
        except AdmissionError as exc:
            self._metrics().counter("service.http_rejections").inc()
            self._send_json(
                429, exc.to_dict(),
                headers={"Retry-After": str(max(1, round(exc.retry_after)))},
            )
        except EngineClosedError as exc:
            self._send_error(503, str(exc))
        except ValidationError as exc:
            self._send_error(400, str(exc), error_type=type(exc).__name__)
        except ReproError as exc:
            self._send_error(400, str(exc), error_type=type(exc).__name__)

    def _metrics(self):
        return (
            self.engine.metrics
            if self.engine.metrics is not None
            else get_metrics()
        )

    def _tracer(self):
        return (
            self.engine.tracer
            if self.engine.tracer is not None
            else get_tracer()
        )

    # -- GET bodies ----------------------------------------------------------

    def _get_metrics(self):
        """Prometheus text by default; the JSON snapshot on request.

        Content negotiation keeps both consumers: any standard scraper
        reads the default, and the pre-v2 JSON shape stays available
        behind ``Accept: application/json``.
        """
        accept = self.headers.get("Accept") or ""
        if "application/json" in accept:
            return self._send_json(200, self._metrics().snapshot())
        body = render_prometheus(self._metrics()).encode()
        self._send_bytes(200, body, content_type=PROM_CONTENT_TYPE)

    def _get_events(self, query):
        """Cursor-style poll over the alerting event bus.

        ``?since=<seq>`` returns events strictly after that sequence
        number (clients poll with the ``last_seq`` they saw);
        ``?kind=job.`` filters by kind or dotted prefix;
        ``?stream=<name>`` keeps only events labeled with that
        monitoring stream; ``?limit=`` caps the page from the oldest
        end so nothing is skipped.
        """
        try:
            since = int((query.get("since") or ["0"])[0])
            limit = int((query.get("limit") or [str(MAX_EVENTS)])[0])
        except ValueError:
            return self._send_error(400, "since and limit must be integers")
        kind = (query.get("kind") or [None])[0]
        stream = (query.get("stream") or [None])[0]
        bus = get_event_bus()
        events = bus.since(
            since, kind=kind, stream=stream, limit=min(limit, MAX_EVENTS)
        )
        self._send_json(
            200,
            {
                "events": [event.to_dict() for event in events],
                "last_seq": bus.last_seq,
                "capacity": bus.capacity,
            },
        )

    def _get_healthz(self):
        jobs = self.engine.jobs()
        counts: dict[str, int] = {}
        for job in jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        self._send_json(
            200,
            {
                "status": "ok",
                "jobs": counts,
                "queue_limit": self.engine.queue_limit,
                "results": len(self.engine.store),
            },
        )

    def _get_jobs(self, query):
        status = (query.get("status") or [None])[0]
        jobs = self.engine.jobs(status=status)
        self._send_json(200, {"jobs": [job.ref() for job in jobs]})

    def _get_job(self, job_id):
        job = self.engine.get(job_id)
        if job is None:
            return self._send_error(404, f"unknown job {job_id!r}")
        self._send_json(200, job.ref())

    def _get_result_preview(self, key):
        payload = self.engine.store.get(key)
        self._send_json(200, _preview_of(payload, key))

    def _get_findings(self, key, query):
        try:
            page = int((query.get("page") or ["1"])[0])
            per_page = int(
                (query.get("per_page") or [str(_DEFAULT_PER_PAGE)])[0]
            )
        except ValueError:
            return self._send_error(400, "page and per_page must be integers")
        if page < 1 or per_page < 1:
            return self._send_error(400, "page and per_page must be >= 1")
        per_page = min(per_page, MAX_PER_PAGE)
        findings = _findings_of(self.engine.store.get(key))
        total = len(findings)
        start = (page - 1) * per_page
        items = findings[start:start + per_page]
        base = f"/results/{key}/findings"
        self._send_json(
            200,
            {
                "items": items,
                "page": page,
                "per_page": per_page,
                "total": total,
                "next": (
                    f"{base}?page={page + 1}&per_page={per_page}"
                    if start + per_page < total
                    else None
                ),
                "prev": (
                    f"{base}?page={page - 1}&per_page={per_page}"
                    if page > 1 and start < total + per_page
                    else None
                ),
            },
        )

    def _get_raw(self, key):
        self._send_bytes(200, self.engine.store.get_bytes(key))

    # -- POST bodies ---------------------------------------------------------

    def _read_body(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            self.close_connection = True
            raise ValidationError(
                f"Content-Length {declared!r} is not an integer"
            ) from None
        if length < 0:
            self.close_connection = True
            raise ValidationError("Content-Length must not be negative")
        if length > _MAX_BODY:
            # the body is never read on rejection, so the connection
            # cannot be reused — the unread bytes would be parsed as the
            # next request line
            self.close_connection = True
            raise ValidationError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ValidationError(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        return body

    def _post_job(self):
        body = self._read_body()
        kind = body.get("kind")
        if not kind:
            raise ValidationError("submissions need a 'kind'")
        params = dict(body.get("params") or {})
        if body.get("scan_config") is not None:
            # a top-level inline ScanConfig is sugar for
            # params["scan_config"]; the engine validates it at admission
            if not isinstance(body["scan_config"], dict):
                raise ValidationError("'scan_config' must be a JSON object")
            params["scan_config"] = body["scan_config"]
        incoming = TraceContext.from_traceparent(
            self.headers.get("traceparent")
        )
        sampled = (
            incoming.sampled
            if incoming is not None
            else head_sample(
                getattr(self.server, "trace_sample_rate", 1.0)
            )
        )
        tracer = self._tracer()
        if tracer.enabled and sampled:
            # The request becomes a span continuing the caller's trace
            # (or heading a new one); the job inherits the span's child
            # context, so everything below — engine job, audit stages,
            # pool-worker chunks — shares this trace_id.
            with tracer.span(
                "http.request", context=incoming,
                method="POST", path="/jobs", kind=kind,
            ) as span:
                job = self.engine.submit(
                    kind,
                    params=params,
                    config=body.get("config"),
                    trace_context=span.context(),
                )
                span.set(job_id=job.job_id, cache_hit=job.cache_hit)
        else:
            # No local tracer (or head-sampled out): still forward a
            # sampled caller's context so an engine-side tracer can
            # attach the job to the caller's trace.
            job = self.engine.submit(
                kind,
                params=params,
                config=body.get("config"),
                trace_context=(
                    incoming if incoming and incoming.sampled else None
                ),
            )
        status = 200 if job.cache_hit else 201
        self._send_json(status, job.ref())

    def _post_cancel(self, job_id):
        job = self.engine.cancel(job_id)
        self._send_json(200, job.ref())


class AuditHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one :class:`JobEngine`.

    ``trace_sample_rate`` is the head-sampling probability for
    submissions that arrive without a ``traceparent`` header; requests
    that carry one honour the caller's recorded decision instead.
    """

    daemon_threads = True

    def __init__(self, address, engine: JobEngine, *, quiet: bool = True,
                 trace_sample_rate: float = 1.0):
        super().__init__(address, _Handler)
        self.engine = engine
        self.quiet = quiet
        self.trace_sample_rate = trace_sample_rate

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(
    engine: JobEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    trace_sample_rate: float = 1.0,
) -> AuditHTTPServer:
    """Bind an :class:`AuditHTTPServer` and serve it on a daemon thread.

    Returns the server (inspect ``server.port`` when ``port=0``); call
    ``server.shutdown()`` then ``engine.shutdown()`` to stop — which is
    exactly what the CLI's ``repro serve`` does on SIGTERM.
    """
    server = AuditHTTPServer(
        (host, port), engine, quiet=quiet,
        trace_sample_rate=trace_sample_rate,
    )
    thread = threading.Thread(
        target=server.serve_forever, daemon=True, name="repro-httpd"
    )
    thread.start()
    return server
