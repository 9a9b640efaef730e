import asyncio
import contextlib
import gc
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from refdoc import service
from refdoc.model_io import save_model
from refdoc.service import PredictServer


@contextlib.contextmanager
def serving(model):
    """A server on an OS-assigned free port, served from a thread."""
    srv = PredictServer(model, port=0, host="127.0.0.1")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv.server_address[1]
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def server(nb_model):
    with serving(nb_model) as port:
        yield f"http://127.0.0.1:{port}"


def post(url, body, raw=False):
    data = body if raw else json.dumps(body).encode()
    req = urllib.request.Request(url + "/predict", data=data,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_health(server):
    with urllib.request.urlopen(server + "/health") as resp:
        assert resp.status == 200
        assert resp.read() == b"ok"


def test_predict_extract_helper(server):
    status, body = post(server, {"message": "Extract common code into helper"})
    assert status == 200
    payload = json.loads(body)
    assert payload["label"] == "ExtractMethod"
    assert abs(sum(payload["scores"].values()) - 1.0) <= 1e-9
    assert payload["baseline"] == "ExtractMethod"
    assert "ExtractMethod" in payload["patterns"]


def test_baseline_field_null_when_no_stem(server):
    status, body = post(server,
                        {"message": "Change name of `Decorator' to `Events'"})
    assert status == 200
    payload = json.loads(body)
    assert payload["label"] == "RenameMethod"
    assert payload["baseline"] is None


def test_empty_message_is_400(server):
    status, _ = post(server, {"message": ""})
    assert status == 400


def test_malformed_body_is_400(server):
    status, _ = post(server, b"{truncated", raw=True)
    assert status == 400


def test_deeply_nested_body_is_400(server):
    # the JSON decoder gives up on this depth with RecursionError
    nested = b'{"message": ' + b"[" * 30000 + b"]" * 30000 + b"}"
    status, _ = post(server, nested, raw=True)
    assert status == 400


def test_wrong_shape_is_400(server):
    status, _ = post(server, {"msg": "hello"})
    assert status == 400


def test_oversized_body_is_413(server):
    big = {"message": "x" * (64 * 1024 + 100)}
    status, _ = post(server, big)
    assert status == 413


@pytest.mark.parametrize("length", ["-1", "abc",
                                    "12\r\nContent-Length: 12"])
def test_bad_content_length_is_400_without_reading(server, length):
    host, port = server.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        # the connection stays open: a server that waits for the body
        # would never answer
        sock.sendall(f"POST /predict HTTP/1.0\r\nContent-Length: {length}"
                     "\r\n\r\n".encode())
        status_line = sock.makefile("rb").readline()
    assert status_line.split()[1] == b"400"


def test_stalled_body_gets_408_and_the_connection_is_released(nb_model,
                                                              monkeypatch):
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.5)
    # its own server: shorter timeout
    with serving(nb_model) as port, socket.create_connection(
            ("127.0.0.1", port), timeout=5) as sock:
        # headers promise 100 bytes, then the client stops sending
        sock.sendall(b"POST /predict HTTP/1.0\r\nContent-Length: 100"
                     b"\r\n\r\n{\"message\": \"ren")
        # reading to end of stream: the handler answered and returned
        reply = sock.makefile("rb").read()
    assert reply.startswith(b"HTTP/1.0 408 "), reply[:80]


def test_slow_drip_body_gets_408_at_the_request_deadline(nb_model,
                                                         monkeypatch):
    # every byte arrives well inside the 0.5 s timeout, but the whole
    # 33-byte body would take 6.6 s
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.5)
    body = b'{"message": "renamed the method"}'
    assert len(body) == 33
    reply = b""
    start = time.monotonic()
    with serving(nb_model) as port, socket.create_connection(
            ("127.0.0.1", port), timeout=0.2) as sock:
        sock.sendall(b"POST /predict HTTP/1.0\r\nContent-Length: 33"
                     b"\r\n\r\n")
        for i in range(len(body)):
            sock.sendall(body[i:i + 1])
            try:
                reply = sock.recv(4096)  # waits 0.2 s between bytes
            except TimeoutError:
                continue
            break
    assert reply.startswith(b"HTTP/1.0 408 "), reply[:80]
    assert time.monotonic() - start < 2.0


def test_identical_requests_get_byte_identical_bodies(server):
    body = {"message": "pulled up some methods to the base class"}
    _, first = post(server, body)
    _, second = post(server, body)
    assert first == second


def test_unknown_path_is_404(server):
    status, _ = post(server + "/nope", {"message": "hi"})
    assert status == 404


def test_concurrent_requests_all_succeed_identically(server):
    results = []
    lock = threading.Lock()

    def worker(i):
        status, body = post(server, {"message": "inline the helper method"})
        with lock:
            results.append((status, body))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 16
    assert all(status == 200 for status, _ in results)
    assert len({body for _, body in results}) == 1


def test_header_drip_gets_408_or_a_close_at_the_request_deadline(
        nb_model, monkeypatch):
    # every head byte arrives well inside the 0.5 s deadline, but the
    # deadline runs from accept, so the head cannot outlast it
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.5)
    head = b"POST /predict HTTP/1.0\r\nContent-Length: 33\r\n\r\n"
    reply = None  # stays None if the server still waits after 3 s
    start = time.monotonic()
    with serving(nb_model) as port, socket.create_connection(
            ("127.0.0.1", port), timeout=0.3) as sock:
        for i in range(len(head)):
            if time.monotonic() - start > 3.0:
                break
            try:
                sock.sendall(head[i:i + 1])
                reply = sock.recv(4096)  # waits 0.3 s between bytes
            except TimeoutError:
                continue
            except ConnectionError:
                reply = b""
            break
    elapsed = time.monotonic() - start
    assert reply is not None, "no answer and no close after 3 s"
    assert reply == b"" or reply.startswith(b"HTTP/1.0 408 "), reply[:80]
    assert elapsed < 2.0


# Hostile request heads. Each is sent and then ended by the client in one
# of three ways: a half close that still reads the answer, a close, or a
# reset (SO_LINGER 0).
_WORDS = st.sampled_from(["GET", "POST", "/predict", "/health", "HTTP/1.0",
                          "HTTP/1.1", "HTTP", "", "x", "get", "\t"])
_REQUEST_LINES = st.lists(_WORDS, max_size=5).map(
    lambda words: " ".join(words).encode() + b"\r\n\r\n")
_UNKNOWN_METHODS = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1,
                           max_size=8).filter(
    lambda m: m not in ("GET", "POST")).map(
    lambda m: f"{m} /predict HTTP/1.0\r\n\r\n".encode())
_OVERSIZED_HEAD = st.just(b"GET /health HTTP/1.0\r\nX-Pad: "
                          + b"a" * (70 * 1024) + b"\r\n\r\n")
_LENGTH_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=255),
                       max_size=8).filter(
    lambda v: not (v.strip().isascii() and v.strip().isdigit()))
_BAD_LENGTHS = st.one_of(
    st.lists(st.integers(0, 40).map(str), min_size=2, max_size=3),
    st.lists(_LENGTH_TEXT, min_size=1, max_size=2))
_CONTENT_LENGTHS = _BAD_LENGTHS.map(lambda values: (
    b"POST /predict HTTP/1.0\r\n"
    + b"".join(f"Content-Length: {v}\r\n".encode("latin-1") for v in values)
    + b"\r\n" + b'{"message": "renamed the method"}'))
_VALID_HEAD = b"POST /predict HTTP/1.0\r\nContent-Length: 33\r\n\r\n"
_CUT_HEADS = st.integers(0, len(_VALID_HEAD) - 1).map(
    lambda n: _VALID_HEAD[:n])
_HOSTILE_HEADS = st.one_of(st.binary(max_size=300), _REQUEST_LINES,
                           _UNKNOWN_METHODS, _OVERSIZED_HEAD,
                           _CONTENT_LENGTHS, _CUT_HEADS)


def _exchange_hostile(port, data, ending):
    """Send data and end as told: the bytes read back, b"" on a close."""
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        try:
            sock.sendall(data)
        except ConnectionError:
            return b""  # the server answered early and closed
        if ending == "reset":
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            return b""
        if ending == "close":
            return b""
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionError:
            pass  # reset after an answer the client had not read
        return b"".join(chunks)


def _get_health(port):
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
        return sock.makefile("rb").read()


@pytest.fixture
def loop_errors(monkeypatch):
    """The contexts passed to any event loop's exception handler."""
    calls = []
    original = asyncio.BaseEventLoop.call_exception_handler

    def record(loop, context):
        calls.append(context)
        original(loop, context)
    monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler",
                        record)
    return calls


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_HOSTILE_HEADS,
       ending=st.sampled_from(["half close", "close", "reset"]))
@example(data=b"GET /health\r\n\r\n", ending="half close")
@example(data=b"GET /health HTTP/1.0 x\r\n\r\n", ending="half close")
def test_hostile_heads_end_in_4xx_or_a_close(nb_model, monkeypatch,
                                             loop_errors, data, ending):
    monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.5)
    with serving(nb_model) as port:
        start = time.monotonic()
        reply = _exchange_hostile(port, data, ending)
        assert time.monotonic() - start < 2.0
        if reply:
            assert reply.startswith(b"HTTP/1.0 4") or (
                reply.startswith(b"HTTP/1.0 200 ")
                and data.startswith(b"GET /health HTTP/")), reply[:80]
        assert _get_health(port).startswith(b"HTTP/1.0 200 ")
    gc.collect()  # a task whose error went unread reports it when freed
    assert loop_errors == []


def test_sigint_stops_serve_with_exit_130(nb_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "refdoc", "serve", "--model", str(path),
         "--port", str(port)], stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                assert _get_health(port).startswith(b"HTTP/1.0 200 ")
                break
            except OSError:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
        # a request still in its head when the signal comes
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b"POST /predict HTTP/1.0\r\n")
            time.sleep(0.1)
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=5)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 130, stderr
    assert "Traceback" not in stderr
