"""Each HTTP response leaves in one ``wfile.write``.

Headers written apart from the body put the body in a second small
segment, which Nagle's algorithm holds back until the client's delayed
ACK arrives (~40 ms per keep-alive response).  Both stdlib servers — the
audit service and the monitor service — must send headers and body
together.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.monitor.serve import _MonitorHandler
from repro.service.httpd import _Handler


class _RecordingFile:
    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


def _handler(cls, version="HTTP/1.1"):
    handler = cls.__new__(cls)
    handler.wfile = _RecordingFile()
    handler.request_version = version
    handler.requestline = f"GET /healthz {version}"
    handler.command = "GET"
    handler.path = "/healthz"
    handler.client_address = ("127.0.0.1", 0)
    handler.server = SimpleNamespace(quiet=True)
    return handler


@pytest.mark.parametrize("cls", [_Handler, _MonitorHandler])
@pytest.mark.parametrize("payload", [{"ok": True}, {"blob": "x" * 100_000}])
def test_json_response_is_one_write(cls, payload):
    handler = _handler(cls)
    handler._send_json(200, payload)
    assert len(handler.wfile.writes) == 1
    head, _, body = handler.wfile.writes[0].partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].endswith(b" 200 OK")
    length = [
        line for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    ]
    assert length == [f"Content-Length: {len(body)}".encode()]
    assert json.loads(body) == payload


def test_service_extra_headers_share_the_write():
    handler = _handler(_Handler)
    handler._send_bytes(429, b"{}\n", headers={"Retry-After": "1"})
    (written,) = handler.wfile.writes
    assert b"\r\nRetry-After: 1\r\n" in written
    assert written.endswith(b"\r\n\r\n{}\n")


def test_monitor_text_response_is_one_write():
    handler = _handler(_MonitorHandler)
    handler._send_bytes(200, b"# metrics\n", content_type="text/plain")
    (written,) = handler.wfile.writes
    assert written.endswith(b"\r\n\r\n# metrics\n")


@pytest.mark.parametrize("cls", [_Handler, _MonitorHandler])
def test_http09_response_is_the_bare_body(cls):
    handler = _handler(cls, version="HTTP/0.9")
    handler._send_json(200, {"ok": True})
    assert handler.wfile.writes == [b'{"ok": true}\n']
