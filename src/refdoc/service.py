"""Read-only prediction service: POST /predict and GET /health.

One asyncio event loop serves every connection, one HTTP/1.0 request per
connection, and scores the messages one at a time on its thread. The
model is loaded once at startup and never mutated; identical requests
produce byte-identical responses. Each request has one deadline,
REQUEST_TIMEOUT_S seconds from accept to the end of its body: a client
that has not sent its whole request by then gets 408, however it paces
the bytes of its request line, headers or body. Bodies over 64 KiB are
rejected with 413. Malformed request lines, heads over the stream's 64 KiB
limit, duplicate, negative or non-numeric Content-Length headers and
malformed bodies get 400, and any other method or path 404.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
from email.utils import formatdate
from http import HTTPStatus

from . import pipeline
from .baseline import keyword_predict
from .terms import match_patterns

MAX_BODY_BYTES = 64 * 1024
REQUEST_TIMEOUT_S = 10.0
SERVER_VERSION = f"refdoc Python/{sys.version.split()[0]}"


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


def _error(status, message):
    body = json.dumps({"error": message}, sort_keys=True).encode()
    return status, body, "application/json"


def _content_length(fields):
    """The body length the header lines declare (0 if none); None when a
    line is malformed or Content-Length is repeated or not a number."""
    lengths = []
    for field in fields:
        name, colon, value = field.partition(":")
        if not colon:
            return None
        if name.lower() == "content-length":
            lengths.append(value.strip())
    if not lengths:
        return 0
    digits = lengths[0]
    if len(lengths) > 1 or not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0")
    # past six digits the body is too large; int() need not read them all
    return MAX_BODY_BYTES + 1 if len(digits) > 6 else int(digits or 0)


async def _answer(model, reader):
    """(status, body, content type) for the request read from reader."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        return _error(400, "request head too large")
    request_line, *fields = head[:-4].decode("latin-1").split("\r\n")
    words = request_line.split(" ")
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        return _error(400, "bad request line")
    if words[:2] == ["GET", "/health"]:
        return 200, b"ok", "text/plain"
    if words[:2] != ["POST", "/predict"]:
        return _error(404, "not found")
    length = _content_length(fields)
    if length is None:
        return _error(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        return _error(413, "message too large")
    try:
        raw = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raw = exc.partial  # the client closed early
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
        return _error(400, "body must be JSON")
    if not isinstance(payload, dict) or not isinstance(
            payload.get("message"), str) or not payload["message"]:
        return _error(400, "expected {\"message\": \"...\"} with a "
                           "nonempty message")
    result = predict_payload(model, payload["message"])
    return 200, json.dumps(result, sort_keys=True).encode(), "application/json"


def _response(status, body, content_type):
    head = (f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {SERVER_VERSION}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


class PredictServer:
    """A listening socket that serve_forever() serves from one event loop,
    with the methods of socketserver's servers that callers use."""

    def __init__(self, model, port: int, host: str):
        self.model = model
        self.socket = socket.create_server((host, port))
        self.server_address = self.socket.getsockname()[:2]
        self._stop = None  # (loop, asyncio.Event) while serving
        self._serving = threading.Event()
        self._stopped = threading.Event()

    async def _handle(self, reader, writer):
        try:
            try:
                status, body, content_type = await asyncio.wait_for(
                    _answer(self.model, reader), REQUEST_TIMEOUT_S)
            except asyncio.TimeoutError:
                status, body, content_type = _error(
                    408, "timed out reading the request")
            writer.write(_response(status, body, content_type))
        except (asyncio.IncompleteReadError, OSError):
            pass  # the client closed or reset the connection mid-head
        except asyncio.CancelledError:
            # the server is stopping. The task ends normally because the
            # stream protocol of Python 3.12 and older calls exception()
            # on it when it ends, which raises, with a logged traceback,
            # for a cancelled task.
            pass
        finally:
            writer.close()

    async def _serve(self):
        self._stop = asyncio.get_running_loop(), asyncio.Event()
        server = await asyncio.start_server(self._handle, sock=self.socket)
        self._serving.set()
        try:
            await self._stop[1].wait()
        finally:
            server.close()  # asyncio.run then cancels unfinished requests

    def serve_forever(self) -> None:
        try:
            asyncio.run(self._serve())
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop serve_forever(), which must be running, and wait for it."""
        self._serving.wait()
        loop, stop = self._stop
        loop.call_soon_threadsafe(stop.set)
        self._stopped.wait()

    def server_close(self) -> None:
        self.socket.close()


def serve(model, port: int, host: str = "127.0.0.1") -> None:
    server = PredictServer(model, port, host)
    try:
        server.serve_forever()
    finally:
        server.server_close()
