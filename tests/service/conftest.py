"""Shared fixtures for the service tests: an in-process server harness.

The allocation server is pure asyncio; pytest here is synchronous (no
pytest-asyncio in the toolchain), so :class:`ServerHarness` hosts the
event loop on a daemon thread and exposes a plain-blocking HTTP client
(`http.client`) plus threadsafe wrappers for drain/close.  Tests talk to
a real listening socket — the same code path production traffic takes.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping

import pytest

from repro.service.server import AllocationServer, ServerConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The checked-in 16-job manifest the CI smoke jobs replay.
PAPER_MANIFEST = REPO_ROOT / "examples" / "manifests" / "paper.json"


class ServerHarness:
    """A live :class:`AllocationServer` on a background event loop.

    Usage::

        with ServerHarness(ServerConfig(port=0)) as harness:
            status, headers, body = harness.post_json("/v1/batch", doc)

    The listen port is always ephemeral (``port=0`` is forced), the
    loop thread is a daemon, and ``__exit__`` drains and tears down the
    server, so a failing test cannot leak a listener into the next one.
    """

    def __init__(self, config: ServerConfig | None = None, **server_kwargs):
        config = config or ServerConfig()
        config.port = 0
        self.config = config
        self.server = AllocationServer(config, **server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="serve-harness-loop",
            daemon=True,
        )

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ServerHarness":
        self._thread.start()
        self._call(self.server.start(), timeout=10)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._call(self.server.close(), timeout=30)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    def _call(self, coro, timeout: float = 30) -> Any:
        """Run *coro* on the server's loop, blocking this thread."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def drain(self, timeout: float = 30) -> None:
        """Blocking graceful drain (what SIGTERM triggers in the CLI)."""
        self._call(self.server.drain(), timeout=timeout)

    @property
    def port(self) -> int:
        """The ephemeral port the server bound."""
        assert self.server.port is not None
        return self.server.port

    # -- HTTP client ---------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        timeout: float = 60,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP round trip; returns (status, headers, raw body)."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            conn.request(method, path, body=body, headers=dict(headers or {}))
            response = conn.getresponse()
            payload = response.read()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                payload,
            )
        finally:
            conn.close()

    def get_json(self, path: str) -> tuple[int, dict]:
        """GET *path* and decode the JSON body."""
        status, _, body = self.request("GET", path)
        return status, json.loads(body)

    def post_json(
        self,
        path: str,
        document: Any,
        client_id: str | None = None,
        timeout: float = 120,
    ) -> tuple[int, dict[str, str], dict]:
        """POST a JSON document; returns (status, headers, decoded body)."""
        headers = {"Content-Type": "application/json"}
        if client_id is not None:
            headers["X-Client-Id"] = client_id
        status, response_headers, body = self.request(
            "POST",
            path,
            body=json.dumps(document).encode("utf-8"),
            headers=headers,
            timeout=timeout,
        )
        return status, response_headers, json.loads(body)


@pytest.fixture
def paper_manifest() -> dict:
    """The decoded 16-job paper manifest (fresh copy per test)."""
    return json.loads(PAPER_MANIFEST.read_text(encoding="utf-8"))


def running(pid: int) -> bool:
    """Whether process *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc on this host
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def tiny_manifest(jobs: list[dict] | None = None, **defaults) -> dict:
    """A minimal valid manifest document for request-level tests."""
    return {
        "schema": "repro.service/manifest/v1",
        "defaults": {"registers": 3, **defaults},
        "jobs": jobs
        or [{"kind": "random", "variables": 6, "horizon": 8, "seed": 1}],
    }
