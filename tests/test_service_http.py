"""Tests for the stdlib HTTP/JSON front (repro.service.http).

Starts a real server on an ephemeral port, speaks real HTTP at it with
urllib, and checks the endpoint surface: query dispatch, stats, health,
error status codes, malformed bodies, and clean shutdown.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.session import MiningSession
from repro.graph import barabasi_albert
from repro.pattern import generate_clique
from repro.service import ServiceHTTPServer
from repro.service.service import MiningService, ServiceConfig


@pytest.fixture
def server():
    """A live server on an OS-assigned port, torn down after the test."""
    service = MiningService(ServiceConfig(workers=1, max_wait_ms=1.0))
    graph = barabasi_albert(120, 3, seed=4)
    service.register_graph("g", graph)
    http_server = ServiceHTTPServer("127.0.0.1", 0, service=service)
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    try:
        yield http_server, graph
    finally:
        http_server.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def _post(server: ServiceHTTPServer, payload, path: str = "/query"):
    host, port = server.address
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _get(server: ServiceHTTPServer, path: str):
    host, port = server.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30.0
        ) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestHTTPFront:
    def test_count_round_trip(self, server):
        http_server, graph = server
        status, body = _post(
            http_server,
            {"verb": "count", "graph": "g", "pattern": "clique:3"},
        )
        assert status == 200 and body["ok"]
        truth = MiningSession(graph).count(generate_clique(3))
        assert body["result"]["count"] == truth

    def test_stats_endpoint(self, server):
        http_server, _ = server
        _post(
            http_server,
            {"verb": "count", "graph": "g", "pattern": "clique:3"},
        )
        status, body = _get(http_server, "/stats")
        assert status == 200 and body["ok"]
        assert body["result"]["requests"]["count"] >= 1
        assert body["result"]["registry"]["sessions"] == 1

    def test_health_endpoint(self, server):
        http_server, _ = server
        assert _get(http_server, "/health") == (200, {"ok": True})

    def test_error_statuses_propagate(self, server):
        http_server, _ = server
        status, body = _post(
            http_server,
            {"verb": "count", "graph": "no/such.rgx", "pattern": "clique:3"},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_graph"
        status, body = _post(
            http_server,
            {"verb": "count", "graph": "g", "pattern": "bogus"},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_pattern"

    def test_malformed_json_is_400(self, server):
        http_server, _ = server
        status, body = _post(http_server, b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_unknown_endpoint_is_404(self, server):
        http_server, _ = server
        status, body = _get(http_server, "/nope")
        assert status == 404 and body["error"]["code"] == "not_found"
        status, body = _post(http_server, {"verb": "stats"}, path="/other")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_concurrent_http_requests_fuse(self, server):
        """Parallel HTTP clients coalesce on the shared service loop."""
        http_server, graph = server
        truth = MiningSession(graph).count(generate_clique(3))
        results: list = [None] * 8
        # A window wide enough that all threads land inside it.
        http_server.service.queue.max_wait_ms = 50.0

        def client(i: int) -> None:
            results[i] = _post(
                http_server,
                {"verb": "count", "graph": "g", "pattern": "clique:3"},
            )

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        for status, body in results:
            assert status == 200
            assert body["result"]["count"] == truth
        batching = http_server.service.stats()["batching"]
        assert batching["fused_requests"] >= 2
        assert batching["deduped_requests"] >= 1


def _raw_post(server: ServiceHTTPServer, content_length: str):
    """POST with a hand-written Content-Length; return (status, body).

    Only the headers are sent, so a handler that trusts the declared
    length blocks on the read and the socket timeout fails the test.
    """
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestBodyLength:
    @pytest.mark.parametrize(
        "content_length,status,code",
        [
            ("-1", 400, "invalid_request"),
            ("twelve", 400, "invalid_request"),
            ("1000000000", 413, "payload_too_large"),
        ],
    )
    def test_bad_length_rejected_before_reading(
        self, server, content_length, status, code
    ):
        http_server, graph = server
        got_status, body = _raw_post(http_server, content_length)
        assert got_status == status
        assert body["ok"] is False
        assert body["error"]["code"] == code
        assert body["error"]["status"] == status
        # The handler thread is free again: ordinary requests still land.
        ok_status, ok_body = _post(
            http_server, {"verb": "count", "graph": "g", "pattern": "clique:3"}
        )
        assert ok_status == 200
        assert ok_body["result"]["count"] == MiningSession(graph).count(
            generate_clique(3)
        )


def test_module_main_parser_defaults():
    from repro.service.__main__ import build_parser

    args = build_parser().parse_args([])
    assert args.port == 8765 and args.workers == 2
    args = build_parser().parse_args(["--no-batching", "--port", "0"])
    assert args.no_batching and args.port == 0
