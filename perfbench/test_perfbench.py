"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import os
import types

import pytest

import fresh
import tracer as tracing
import worker
import workloads

@pytest.fixture(scope="module")
def bb():
    return fresh.import_bbsolve()


@pytest.fixture(scope="module")
def refs():
    with open(worker.REFERENCES) as fh:
        return json.load(fh)


def test_fuzz_generator_follows_the_seed():
    first = workloads.fuzz_equations(7)
    assert first == workloads.fuzz_equations(7)
    other = workloads.fuzz_equations(8)
    assert first != other
    assert sorted(first) != sorted(other)


def test_fuzz_shape_mix_is_the_same_on_every_seed():
    def shapes(pairs):
        return sorted((text.split(" =")[0], malformed) for text, malformed in pairs
                      if not text.startswith("P:"))
    assert shapes(workloads.fuzz_equations(1)) == shapes(workloads.fuzz_equations(2))
    assert sum(m for _, m in workloads.fuzz_equations(3)) == workloads.FUZZ_MALFORMED


def _tiny(name, bb, refs):
    inputs = workloads.build(name, 1, bb, refs)
    if name == "corpus":     # the screening-only rejects and y' = y^2: milliseconds each
        return [inp for inp in inputs if inp.label in
                ("y'' = y^4", "y'' = 4*y^3 + 1/y", "y' = y^2", "y' = 2*y^3")]
    if name == "screen_fuzz":   # 24 drawn inputs and every malformed one
        pairs = workloads.fuzz_equations(1)
        return [inp for i, (inp, (_, malformed)) in enumerate(zip(inputs, pairs))
                if i < 24 or malformed]
    return [inp for inp in inputs if "N=24" in inp.label]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_completes_and_checks(name, bb, refs):
    inputs = _tiny(name, bb, refs)
    ledger = worker.Ledger(inputs)
    for _ in range(2):
        wall, times, norm, outs = worker.run_pass(inputs)
        ledger.add(outs, "pass")
        assert wall == sum(times) > 0 and len(norm) == len(times) and min(norm) > 0
    assert ledger.failed == 0, ledger.failures


@pytest.mark.xfail(strict=True, reason="eqparse._parse_ode raises ZeroDivisionError "
                   "on a zero denominator, not BBError; once it is fixed, move the "
                   "template back into workloads._MALFORMED")
@pytest.mark.parametrize("text", workloads.KNOWN_DEFECTS)
def test_known_defect_raises_bberror(text, bb):
    inp, = [i for i in workloads.known_defects(bb) if i.label == text]
    assert inp.check(inp.call()) is None


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_times_add_up_to_traced_wall(bb, refs):
    inputs = _tiny("corpus", bb, refs) + _tiny("screen_fuzz", bb, refs)[:24]
    tracer = tracing.Tracer()
    tracer.install(bb)
    try:
        wall, _, _, outs = worker.run_pass(inputs, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    rejected = sum(workloads.status(o) == "rejected" for o in outs)
    m = tracing.layer_metrics(spans, wall, rejected)
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("eqparse", "algebra", "curve", "conditions", "series", "classify", "cli"))
    assert math.isclose(layers + m["cli.render_s"] + m["bench.self_s"], wall,
                        rel_tol=1e-9, abs_tol=1e-9)
    assert m["bench.self_s"] >= 0 and m["curve.branch_calls"] > 0
    assert all(span[3] >= span[2] for span in spans)


def test_uninstall_restores_every_binding(bb):
    before = bb.cli.analyze, bb.cli.branches_at_infinity, bb.curve.branches_at_infinity
    tracer = tracing.Tracer()
    tracer.install(bb)
    assert bb.cli.branches_at_infinity is bb.curve.branches_at_infinity is not before[1]
    tracer.uninstall()
    assert (bb.cli.analyze, bb.cli.branches_at_infinity,
            bb.curve.branches_at_infinity) == before


def test_install_fails_when_a_traced_function_is_gone(bb):
    fake = types.SimpleNamespace(__name__="fakebb", cli=bb.cli,
                                 __all__=[n for n in bb.__all__ if n != "sweep_poles"])
    for name in fake.__all__:
        setattr(fake, name, getattr(bb, name))
    with pytest.raises(tracing.TraceError, match="sweep_poles"):
        tracing.Tracer().install(fake)


def test_numeric_disks_compare_exactly():
    one, tiny = [1, 0], [1, -60]
    assert workloads.disks_overlap([one, [0, 0], tiny], [one, [0, 0], [0, 0]])
    assert not workloads.disks_overlap([[3, -1], [0, 0], tiny], [one, [0, 0], tiny])
