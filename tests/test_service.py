import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from refdoc.service import PredictHandler, make_server


@pytest.fixture(scope="module")
def server(nb_model):
    srv = make_server(nb_model, port=0)  # OS-assigned free port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()


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


def test_wrong_shape_is_400(server):
    status, _ = post(server, {"msg": "hello"})
    assert status == 400


def test_oversized_body_is_413(server):
    big = {"message": "x" * (64 * 1024 + 100)}
    status, _ = post(server, big)
    assert status == 413


@pytest.mark.parametrize("length", ["-1", "abc"])
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
    monkeypatch.setattr(PredictHandler, "timeout", 0.5)
    srv = make_server(nb_model, port=0)  # its own server: shorter timeout
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(
                ("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
            # headers promise 100 bytes, then the client stops sending
            sock.sendall(b"POST /predict HTTP/1.0\r\nContent-Length: 100"
                         b"\r\n\r\n{\"message\": \"ren")
            # reading to end of stream: the handler answered and returned
            reply = sock.makefile("rb").read()
    finally:
        srv.shutdown()
        srv.server_close()
    assert reply.startswith(b"HTTP/1.0 408 "), reply[:80]


def test_slow_drip_body_gets_408_at_the_request_deadline(nb_model,
                                                         monkeypatch):
    # every byte arrives well inside the 0.5 s timeout, but the whole
    # 33-byte body would take 6.6 s
    monkeypatch.setattr(PredictHandler, "timeout", 0.5)
    srv = make_server(nb_model, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    body = b'{"message": "renamed the method"}'
    assert len(body) == 33
    reply = b""
    start = time.monotonic()
    try:
        with socket.create_connection(
                ("127.0.0.1", srv.server_address[1]), timeout=0.2) as sock:
            sock.sendall(b"POST /predict HTTP/1.0\r\nContent-Length: 33"
                         b"\r\n\r\n")
            for i in range(len(body)):
                sock.sendall(body[i:i + 1])
                try:
                    reply = sock.recv(4096)  # waits 0.2 s between bytes
                except TimeoutError:
                    continue
                break
    finally:
        srv.shutdown()
        srv.server_close()
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
