"""The end-to-end benchmark's layer tracer still fits the program.

``perfbench/tracer.py`` times each layer by wrapping the functions its
``LAYERS`` table names by (module, attribute), and a traced run also
reads ``BatchExecutor.workers``, ``JobResult.wall_time_s``/``cached`` and
``repro.obs.collect``.  A traced run resolves all of them before its
first op, so renaming or moving any of them fails every traced run.
These tests load the tracer by path, as the benchmark does, and drive it
against this tree.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, attribute: str):
    """The object a ``LAYERS`` entry names, read without the tracer."""
    module = importlib.import_module(module_name)
    if "." in attribute:
        owner, name = attribute.split(".")
        return vars(getattr(module, owner))[name]
    return getattr(module, attribute)


def test_every_layer_binds_and_unbinds(tracer_module):
    entries = [(module, attr) for _, module, attr in tracer_module.LAYERS]
    originals = [resolve(module, attr) for module, attr in entries]
    tracer = tracer_module.LayerTracer()
    tracer.install()
    try:
        for (module, attr), original in zip(entries, originals):
            wrapper = resolve(module, attr)
            assert wrapper is not original, (module, attr)
            assert wrapper.__wrapped__ is original, (module, attr)
    finally:
        tracer.remove()
    for (module, attr), original in zip(entries, originals):
        assert resolve(module, attr) is original, (module, attr)


def test_a_traced_pooled_dag_run_times_its_layers(tracer_module, capsys):
    tracer = tracer_module.LayerTracer()
    tracer.install()
    try:
        code = main(["dag", "diamond", "--workers", "2", "--format", "json"])
    finally:
        tracer.remove()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    table = tracer.table()
    for layer in ("dag.partition", "dag.sweep", "dag.dispatch", "executor"):
        assert table[layer]["calls"] == 1, layer
    assert table["network_builder"]["calls"] >= report["tasks"]
    # The pooled gather's overhead sample reads the executor's worker
    # count and each job's wall time and cache flag.
    assert len(tracer.pool_overhead_s) == 1
    # The dag command installs its own collector; the tracer's wrapper
    # of repro.obs.collect keeps what it counted.
    assert tracer.counters["dag.blocks_dispatched"] == report["tasks"]
