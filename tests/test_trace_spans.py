"""The benchmark's tracer still finds every span it needs in the library.

perfbench/tracer.py wraps the functions bbsolve exports, and a traced
benchmark run fails when a span perfbench/worker.py expects never fires.  This
runs each workload once under the tracer (screen_fuzz at seed 1), so a
refactor that renames or stops calling one of those functions fails here
first.
"""

import importlib.util
import os
import sys

import pytest

import bbsolve

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _load(name, monkeypatch):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # worker.py imports its siblings by their bare names
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["corpus", "screen_fuzz", "deep_expansion"])
def test_traced_workload_fires_every_expected_span(workload, monkeypatch):
    tracing = _load("tracer", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    worker = _load("worker", monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(bbsolve)
    try:
        outs = [inp.call() for inp in workloads.build(workload, 1, bbsolve, None)]
    finally:
        tracer.uninstall()
    spans = tracer.take()
    statuses = [workloads.status(out) for out in outs]
    assert worker.EXPECTED_SPANS[workload] <= tracing.fired(spans)
    if workload == "corpus":
        assert statuses == ["ok"] * len(workloads.CORPUS)
        metrics = tracing.layer_metrics(spans, 1.0, 0)
        assert metrics["classify.poles"] > 0 and metrics["classify.periods_verified"] > 0
    else:
        # screen_fuzz's malformed inputs are rejected; nothing crashes
        assert "crash" not in statuses and "ok" in statuses
