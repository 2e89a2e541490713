"""One cold start of a workload, timed by the caller for ``setup_s``.

Usage::

    python perfbench/coldstart.py WORKLOAD SEED WORKDIR

Starting from a fresh interpreter, imports what the workload's first op
needs and generates its first input; for ``serve-mixed`` it also boots
the server and waits for its listening line. It then prints ``ready``,
tears down what it started, and exits. Run with the program's sources
on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import inputs


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    if workload == "serve-mixed":
        import serving
        from workloads import ServeLoad

        inputs.serve_schedule(seed, 1, ServeLoad.RATE)
        root = Path(__file__).resolve().parent.parent
        proc, _ = serving.start_server(root, workdir / "coldstart.log")
        print("ready", flush=True)
        return serving.stop_server(proc)
    from repro.cli import main as cli_main  # noqa: F401 - the op's entry point

    if workload == "dag":
        import repro.dag  # noqa: F401 - imported lazily by the dag command

        inputs.dag_argv(seed, 0)
    else:
        import repro.service  # noqa: F401 - imported lazily by the batch command

        path = workdir / f"coldstart-{workload}.json"
        path.write_bytes(inputs.encode(inputs.batch_manifest(seed, 0)))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
