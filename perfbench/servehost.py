"""Run a ``repro-alloc`` command with signal-switched layer timing.

Usage::

    python perfbench/servehost.py TABLE.json serve --port 0

SIGUSR1 switches per-layer timing on and SIGUSR2 switches it off. When
the command returns (after the graceful drain that SIGTERM starts), the
per-layer table is written to ``TABLE.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from tracer import LayerTracer


def main(argv: list[str]) -> int:
    table = Path(argv[0])
    from repro.cli import main as cli_main
    import repro.service.server  # noqa: F401 - load the layers before binding

    tracer = LayerTracer()
    tracer.bind()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.install())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.remove())
    code = cli_main(argv[1:])
    tracer.remove()
    table.write_text(json.dumps({"layers": tracer.table()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
