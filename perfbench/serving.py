"""Start, talk to and stop a ``repro-alloc serve`` subprocess."""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")

#: Seconds a server gets to print its listening line.
BOOT_TIMEOUT_S = 60.0


def program_env(root: Path) -> dict[str, str]:
    """Environment that runs the program from the checkout's sources."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_server(root: Path, log: Path, table: Path | None = None):
    """Launch the server with its defaults on a free port.

    With *table*, the server runs under :mod:`servehost`, which times its
    layers while tracing is switched on and writes the per-layer table
    to *table* when the server exits.

    Returns:
        ``(process, port)`` once the server printed its listening line.
    """
    if table is None:
        command = [sys.executable, "-m", "repro.cli"]
    else:
        here = Path(__file__).resolve().parent
        command = [sys.executable, str(here / "servehost.py"), str(table)]
    command += ["serve", "--port", "0"]
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            command,
            cwd=root,
            env=program_env(root),
            stdout=subprocess.PIPE,
            stderr=err,
        )
    try:
        port = _await_listening(proc)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port


def _await_listening(proc: subprocess.Popen) -> int:
    """Read the server's stdout until it names its port."""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    buffer = b""
    fd = proc.stdout.fileno()
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("server did not start listening in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError(f"server exited with {proc.wait()} before listening")
        buffer += chunk
        match = _LISTENING.search(buffer.decode("utf-8", "replace"))
        if match:
            return int(match.group(2))


def stop_server(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM (graceful drain), then kill if it does not exit in time."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def post(port: int, path: str, body: bytes, timeout: float = 60.0):
    """POST *body*; returns ``(status, raw response body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str, timeout: float = 30.0) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
