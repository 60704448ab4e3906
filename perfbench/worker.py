"""One run of one workload, in a fresh single-threaded process.

    python3 perfbench/fresh.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/fresh.py --record

fresh.py imports bbsolve and times its set-up, then calls ``main`` here.
The worker runs closed-loop passes over the workload's inputs until
``--seconds`` are used, checks every output, and prints one JSON object as
its last line for ``run.py``.  With ``--trace 1`` the first half of the
time runs untraced passes and the second half traced ones.  ``--record``
rewrites references.json from one pass of ``corpus`` and ``deep_expansion``
at the current commit.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3          # untraced passes of a --trace 0 run
MIN_TRACE_PASSES = 2    # untraced and traced passes each, of a --trace 1 run
TAIL_SHARE = 0.05       # slow_input_norm_s: the slowest 5% of inputs, at least one
CAL_REPS = 3            # calibration: the fastest of this many runs of each loop
CAL_EVERY_S = 0.25      # calibrate again after an input once this much work ran
# calibrate() at the reference speed: its median on the 2-vCPU VM (CPython 3,
# no gmpy) where the benchmark was defined.  A normalised time is a raw time
# scaled by REF_CAL_S over the calibrations measured next to it.
REF_CAL_S = 3.4e-3

# Spans each workload must record; a missing one fails the traced run.
EXPECTED_SPANS = {
    "corpus": {"analyze", "render_json", "parse_equation", "branches_at_infinity",
               "exactness_check", "screen_admissibility", "enumerate_series",
               "verify_series", "match_monomial", "match_exponential",
               "sweep_poles", "detect_periods", "roots_univariate"},
    "screen_fuzz": {"analyze", "render_json", "parse_equation",
                    "branches_at_infinity", "screen_admissibility",
                    "enumerate_series", "verify_series", "match_monomial",
                    "roots_univariate"},
    "deep_expansion": {"branches_at_infinity", "enumerate_series", "verify_series",
                       "roots_univariate"},
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _rational_loop():
    x, z, acc = Fraction(1, 3), complex(0.5, 0.25), []
    for i in range(1, 80):
        x = (x * 7 + Fraction(1, i)) / 3
        z = z * z * 0.5 + complex(1 / i, 0.1)
        acc.append(x.numerator % 97 + int(abs(z)))
    return sum(acc)


_ROWS = [[Fraction(i, j + 1) for i in range(12)] for j in range(12)]


def _dot_loop():
    return [sum(p * q for p, q in zip(a, b)) for a in _ROWS for b in _ROWS[:4]]


def calibrate():
    """Seconds of fixed work on the standard library alone: growing
    rationals, complex floats and rational dot products, the mix bbsolve's
    own work is made of.  It tracks how fast the machine runs at the moment
    (that speed moves by 15-30% over seconds on a shared host), and no
    change to bbsolve moves it.  Each loop counts its fastest of CAL_REPS."""
    clock = time.perf_counter
    total = 0.0
    for loop in (_rational_loop, _dot_loop):
        best = math.inf
        for _ in range(CAL_REPS):
            t0 = clock()
            loop()
            best = min(best, clock() - t0)
        total += best
    return total


def run_pass(inputs, tracer=None, pass_no=0):
    """One closed-loop pass: (wall seconds, per-input seconds, per-input
    normalised seconds, outputs).

    The machine's speed is calibrated before the first input, and again
    after an input once CAL_EVERY_S of inputs ran since the last time.  An
    input's normalised time is its time scaled by REF_CAL_S over the mean of
    the calibrations on either side of it.  The pass's wall time is the sum
    of its inputs' times, without the calibrations."""
    clock = time.perf_counter
    times, norm, outs = [], [], []
    cal = calibrate()
    pending = []            # inputs since the last calibration
    for idx, inp in enumerate(inputs):
        if tracer is not None:
            tracer.input_id = f"{pass_no}:{idx}"
        t0 = clock()
        out = inp.call()
        times.append(clock() - t0)
        outs.append(out)
        pending.append(times[-1])
        if sum(pending) >= CAL_EVERY_S or idx == len(inputs) - 1:
            after = calibrate()
            norm += [t * REF_CAL_S * 2 / (cal + after) for t in pending]
            cal, pending = after, []
    return sum(times), times, norm, outs


def run_passes(ledger, until, minimum, tracer=None):
    """Passes until the next one would end after ``until`` (at least ``minimum``).

    Each pass's outputs go to ``ledger`` and are dropped, so memory does not
    grow with the number of passes.  Returns [(wall, per-input times,
    per-input normalised times, rejected count, spans)]."""
    passes = []
    while True:
        no = ledger.passes
        start = time.perf_counter()
        wall, times, norm, outs = run_pass(ledger.inputs, tracer, no)
        elapsed = time.perf_counter() - start
        spans = tracer.take() if tracer is not None else None
        rejected = ledger.add(outs, f"{'traced ' if tracer else ''}pass {no}")
        passes.append((wall, times, norm, rejected, spans))
        if len(passes) >= minimum and time.perf_counter() + elapsed > until:
            return passes


class Ledger:
    """Checks outputs pass by pass and counts attempted, failed and rejected.

    Every pass checks every output, so an input that fails counts once per
    pass, whether it raised something other than BBError, missed the
    workload's check, or differs from the first pass."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.digests = None
        self.passes = 0
        self.attempted = self.failed = self.rejected = 0
        self.failures = []

    def add(self, outs, label):
        """Check one pass's outputs; returns how many ended in BBError."""
        self.passes += 1
        rejected = 0
        digests = [inp.digest(o) for inp, o in zip(self.inputs, outs)]
        for idx, (inp, out, digest) in enumerate(zip(self.inputs, outs, digests)):
            self.attempted += 1
            state = workloads.status(out)
            rejected += state == "rejected"
            reason = inp.check(out)
            if reason is None and state == "crash":
                reason = f"raised {out[1]}"
            if reason is None and self.digests is not None and digest != self.digests[idx]:
                reason = "output differs from the first untraced pass"
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{label} input {idx} {inp.label!r}: {reason}")
        if self.digests is None:
            self.digests = digests
        self.rejected += rejected
        return rejected


def end_to_end(passes):
    """The untraced end-to-end times of a run, normalised to the reference
    speed (see run_pass), with the raw pass wall times beside them.

    wall_norm_s is the median pass.  The others start from each input's
    median over the passes, so a burst of machine noise in one pass moves
    neither.  slow_input_norm_s is the mean of the slowest 5% of inputs: the
    slowest input itself when there are fewer than 20, and on screen_fuzz
    the tail of ~11 inputs, which a single seed's draw moves less than it
    moves the maximum.  input_p50_norm_ms is the lower median over inputs,
    so it is always one input's latency, never the mean of two unlike ones.
    """
    per_input = sorted(statistics.median(times) for times in zip(*(p[2] for p in passes)))
    tail = per_input[-math.ceil(len(per_input) * TAIL_SHARE):]
    return {
        "wall_norm_s": statistics.median(sum(p[2]) for p in passes),
        "slow_input_norm_s": statistics.mean(tail),
        "input_p50_norm_ms": statistics.median_low(per_input) * 1e3,
        "samples": len(per_input) * len(passes),
        "passes": len(passes),
        "pass_walls": [p[0] for p in passes],
        "pass_speeds": [sum(p[2]) / p[0] for p in passes],
    }


def run(bb, setup_s, name, seed, seconds, trace):
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    inputs = workloads.build(name, seed, bb, refs)
    ledger = Ledger(inputs)
    start = time.perf_counter()
    result = {"setup_s": setup_s}
    if not trace:
        result.update(end_to_end(run_passes(ledger, start + seconds, MIN_PASSES)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        plain = run_passes(ledger, start + seconds / 2, MIN_TRACE_PASSES)
        tracer = tracing.Tracer()
        tracer.install(bb)
        try:
            traced = run_passes(ledger, start + seconds, MIN_TRACE_PASSES, tracer)
        finally:
            tracer.uninstall()
        missing = EXPECTED_SPANS[name] - set().union(*(tracing.fired(p[4]) for p in traced))
        if missing:
            raise tracing.TraceError(f"{name}: expected spans never fired: {sorted(missing)}")
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracing.write_spans(os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.jsonl"),
                            [p[4] for p in traced])
        per_pass = [tracing.layer_metrics(spans, wall, rejected)
                    for wall, _, _, rejected, spans in traced]
        layers = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        layers["trace.overhead_frac"] = (statistics.median(sum(p[2]) for p in traced)
                                         / statistics.median(sum(p[2]) for p in plain) - 1)
        result["per_layer"] = layers
        result.update(end_to_end(plain))
        result["traced_passes"] = len(traced)
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  rejected=ledger.rejected,
                  failures=ledger.failures,
                  inputs=[{"input": inp.label, "sha256": workloads.sha256(d)}
                          for inp, d in zip(inputs, ledger.digests)])
    if name == "screen_fuzz":
        result["known_defects"] = [
            {"input": inp.label, "reason": inp.check(inp.call())}
            for inp in workloads.known_defects(bb)]
    if name == "corpus":
        for row, ref in zip(result["inputs"], refs["corpus"]):
            row["recorded"] = ref.get("sha256")
    return result


def record(bb):
    """Rewrite references.json from one pass at the current commit."""
    refs = {}
    for name in ("corpus", "deep_expansion"):
        inputs = workloads.build(name, 0, bb, None)
        _, _, _, outs = run_pass(inputs)
        bad = [inp.label for inp, o in zip(inputs, outs) if workloads.status(o) == "crash"]
        if bad:
            raise BenchError(f"cannot record references: {bad} crashed")
        refs[name] = [workloads.reference_entry(name, inp, o, bb)
                      for inp, o in zip(inputs, outs)]
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return {"recorded": {name: len(rows) for name, rows in refs.items()}}


def main(bb, setup_s, argv):
    """Run ``argv`` (see the module docstring) with bbsolve already set up."""
    ap = argparse.ArgumentParser(prog="fresh.py", description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--record", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.record:
            result = record(bb)
        elif args.seconds is None:
            ap.error("--seconds is required with --workload")
        else:
            result = run(bb, setup_s, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, tracing.TraceError) as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0

