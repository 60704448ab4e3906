"""Spans around the calls into bbsolve's modules, recorded from outside.

``Tracer.install`` wraps every function that ``bbsolve.__all__`` exports,
plus ``cli.render_json`` (the call that renders a report), wherever a
``bbsolve.*`` module binds it, so calls between modules are seen as well as
the benchmark's own calls.  The layer of a span is the module that defines
the function.  Spans stay in memory; ``write_spans`` stores them at the end.
"""

import functools
import inspect
import json
import sys
import time

# Work counters read from a call's arguments and result.
COUNTERS = {
    "branches_at_infinity": lambda args, kw, res: {
        "curve.branch_terms": sum(len(b.terms) for b in res),
        "curve.inexact_branches": sum(not b.is_exact() for b in res)},
    "enumerate_series": lambda args, kw, res: {"series.germs": len(res)},
    "verify_series": lambda args, kw, res: {
        "series.verify_shortfall": int(res < len(kw.get("ls", args[-1]).coeffs))},
    "sweep_poles": lambda args, kw, res: {"classify.poles": len(res[0])},
    "detect_periods": lambda args, kw, res: {
        "classify.periods_verified": int(bool(res.verified))},
}
# Functions whose spans feed a per-layer metric; installing fails if one is
# missing, so that a rename cannot silently zero a metric.
REQUIRED = ("analyze", "render_json", "branches_at_infinity", "enumerate_series",
            "verify_series", "sweep_poles", "detect_periods", "match_monomial",
            "match_exponential", "roots_univariate")

PER_LAYER = (
    "classify.self_s", "classify.sweep_s", "classify.poles",
    "classify.periods_verified", "classify.match_s",
    "curve.self_s", "curve.calls", "curve.branch_calls", "curve.branch_terms",
    "curve.inexact_branches",
    "series.self_s", "series.calls", "series.germs", "series.verify_s",
    "series.verify_shortfall",
    "algebra.self_s", "algebra.calls", "algebra.roots_calls",
    "eqparse.self_s", "conditions.self_s", "cli.self_s", "cli.render_s",
    "cli.rejected", "bench.self_s", "trace.overhead_frac",
)


class TraceError(RuntimeError):
    """The traced program does not have the spans the benchmark relies on."""


class Tracer:
    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent index, input id, counters]
        self.input_id = None
        self._stack = []
        self._patched = []     # (module, attribute, original)

    def install(self, package):
        """Wrap the exported functions of ``package`` in every module binding them."""
        targets = {}
        for name in list(package.__all__) + ["render_json"]:
            fn = getattr(package, name, None) or getattr(package.cli, name, None)
            if inspect.isfunction(fn):
                targets[fn] = self._wrap(fn, name, fn.__module__.rpartition(".")[2])
        missing = [n for n in REQUIRED
                   if not any(f.__name__ == n for f in targets)]
        if missing:
            raise TraceError(f"bbsolve no longer exports {missing}")
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), None, stack[-1] if stack else -1,
                    self.input_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result
        return traced

    def take(self):
        """The spans recorded since the last call; parent indices count from 0."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(path, passes):
    """Store the spans of each traced pass as JSON lines."""
    with open(path, "w") as fh:
        for pass_no, spans in enumerate(passes):
            for name, layer, start, end, parent, input_id, counters in spans:
                fh.write(json.dumps({"pass": pass_no, "name": name, "layer": layer,
                                     "start": start, "end": end, "parent": parent,
                                     "input": input_id, "counters": counters}) + "\n")


def layer_metrics(spans, wall_s, rejected):
    """Per-layer metrics of one traced pass.

    ``spans`` are the pass's spans (parent indices relative to the list),
    ``wall_s`` the pass's traced wall time, ``rejected`` the number of
    inputs that ended in BBError.  A span's self time is its duration minus
    the durations of its direct children.  ``cli.self_s`` leaves out
    ``render_json``, which ``cli.render_s`` reports, and ``bench.self_s`` is
    the wall time no top-level span covers, so the self times, ``cli.render_s``
    and ``bench.self_s`` add up to ``wall_s``.
    """
    out = {name: 0.0 if name.endswith("_s") else 0 for name in PER_LAYER}
    del out["trace.overhead_frac"]
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    top = 0.0
    for i, (name, layer, start, end, parent, _, counters) in enumerate(spans):
        dur = end - start
        if parent < 0:
            top += dur
        if name == "render_json":
            out["cli.render_s"] += dur
            continue
        out[f"{layer}.self_s"] += dur - child[i]
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
        if name == "sweep_poles":
            out["classify.sweep_s"] += dur
        elif name in ("match_monomial", "match_exponential"):
            out["classify.match_s"] += dur
        elif name == "branches_at_infinity":
            out["curve.branch_calls"] += 1
        elif name == "verify_series":
            out["series.verify_s"] += dur
        elif name == "roots_univariate":
            out["algebra.roots_calls"] += 1
        for key, value in (counters or {}).items():
            out[key] += value
    out["bench.self_s"] = wall_s - top
    out["cli.rejected"] = rejected
    return out


def fired(spans):
    return {span[0] for span in spans}
