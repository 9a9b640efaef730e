"""Read-only prediction service: POST /predict and GET /health.

The model is loaded once at startup and never mutated, so concurrent
requests are safe; identical requests produce byte-identical responses.
Bodies over 64 KiB are rejected with 413; malformed ones, and negative or
non-numeric Content-Length headers, with 400. A client that has not sent
its whole body REQUEST_TIMEOUT_S seconds after the body began gets 408,
however it paces the bytes, and a client that stalls in its headers is
disconnected, so neither holds a thread.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import pipeline
from .baseline import keyword_predict
from .terms import match_patterns

MAX_BODY_BYTES = 64 * 1024
REQUEST_TIMEOUT_S = 10.0


def predict_payload(model, message: str) -> dict:
    label, scores = pipeline.predict_message(model, message)
    base_label, _ = keyword_predict(message)
    patterns = match_patterns(message)
    return {
        "label": label.value,
        "scores": {cls.value: score for cls, score in scores.items()},
        "baseline": base_label.value if base_label is not None else None,
        "patterns": {cls.value: hits for cls, hits in sorted(
            patterns.items(), key=lambda kv: kv[0].value)},
    }


class PredictHandler(BaseHTTPRequestHandler):
    server_version = "refdoc"
    timeout = REQUEST_TIMEOUT_S  # per header read; the whole body's deadline

    def log_message(self, format, *args):
        pass  # keep request logs out of stderr

    def _send(self, status, body: bytes, content_type="application/json"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status, message):
        body = json.dumps({"error": message}, sort_keys=True).encode()
        self._send(status, body)

    def _read_body(self, length):
        """The body's bytes (fewer if the client closed early), or None
        when the deadline of self.timeout from now passes first."""
        deadline = time.monotonic() + self.timeout
        chunks = []
        try:
            while length > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    return None
                self.connection.settimeout(left)
                chunk = self.rfile.read1(length)
                if not chunk:
                    break
                chunks.append(chunk)
                length -= len(chunk)
        except TimeoutError:
            return None
        finally:
            self.connection.settimeout(self.timeout)
        return b"".join(chunks)

    def do_GET(self):
        if self.path == "/health":
            self._send(200, b"ok", content_type="text/plain")
        else:
            self._error(404, "not found")

    def do_POST(self):
        if self.path != "/predict":
            self._error(404, "not found")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, "bad Content-Length")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, "message too large")
            return
        raw = self._read_body(length)
        if raw is None:
            self._error(408, "timed out reading the body")
            return
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._error(400, "body must be JSON")
            return
        if not isinstance(payload, dict) or not isinstance(
                payload.get("message"), str) or not payload["message"]:
            self._error(400, "expected {\"message\": \"...\"} with a "
                             "nonempty message")
            return
        result = predict_payload(self.server.model, payload["message"])
        self._send(200, json.dumps(result, sort_keys=True).encode())


def make_server(model, port: int, host: str = "127.0.0.1") -> ThreadingHTTPServer:
    server = ThreadingHTTPServer((host, port), PredictHandler)
    server.model = model
    return server


def serve(model, port: int, host: str = "127.0.0.1") -> None:
    server = make_server(model, port, host)
    try:
        server.serve_forever()
    finally:
        server.server_close()
