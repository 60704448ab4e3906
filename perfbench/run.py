"""bbsolve benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --check        # every workload once; non-zero on a mismatch
    python3 perfbench/run.py --record       # rewrite references.json at this commit

Run from the root of a checkout; bbsolve is imported from its ``src``.  A
run times the set-up of SETUP_RUNS fresh processes, half before and half
after the workload, which runs in one more fresh process (see fresh.py and
worker.py).  It prints every metric by name with its unit, one line per
input with its report digest, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are BENCHMARK.json's end-to-end ones, with ``--trace 1`` its
per-layer ones, each with the unit given there; ``--seconds`` defaults to
its ``run_seconds``.  ``correct`` is false when any input failed.  The exit
code is 0 when a result was printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

SETUP_RUNS = 8          # fresh set-up processes, half before and half after the worker
RUN_LIMIT_S = 170       # every process of one measurement ends within this


class RunError(RuntimeError):
    pass


def worker(*args, deadline):
    """Run fresh.py in a fresh process and return its JSON result.

    The process is killed at ``deadline`` (a ``time.monotonic`` value)."""
    env = {key: value for key, value in os.environ.items() if key != "BBSOLVE_PRECISION"}
    env["PYTHONPATH"] = ""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "fresh.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 0.001))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(args)} ran past the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (human-readable lines, result object)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [worker("--setup-only", deadline=deadline)["setup_s"]
              for _ in range(SETUP_RUNS // 2)]
    res = worker("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), deadline=deadline)
    setups += [res["setup_s"]] + [worker("--setup-only", deadline=deadline)["setup_s"]
                                  for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    if trace:
        values, listed = res["per_layer"], BENCH["per_layer"]
    else:
        values, listed = dict(res, setup_s=statistics.median(setups)), BENCH["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RunError(f"the worker did not measure {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    lines = [f"workload {workload} seed {seed} trace {trace}: {res['passes']} untraced "
             f"passes" + (f" and {res['traced_passes']} traced" if trace else "")
             + f", {res['attempted']} inputs attempted"]
    lines += [f"  {name:28s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  input_p50_norm_ms and slow_input_norm_s from {res['samples']} samples "
                 f"({len(res['inputs'])} inputs x {res['passes']} passes); setup_s is "
                 f"the median of {len(setups)} fresh processes")
    lines.append(f"  failed_frac {res['failed'] / res['attempted']:.4g} ratio "
                 f"({res['failed']} failed), rejected_frac "
                 f"{res['rejected'] / res['attempted']:.4g} ratio ({res['rejected']} BBError)")
    lines.append("  untraced pass wall times (raw): "
                 + " ".join(f"{wall:.3f}" for wall in res["pass_walls"]) + " s")
    lines.append("  normalised over raw, per pass: "
                 + " ".join(f"{speed:.3f}" for speed in res["pass_speeds"]))
    lines += [f"  FAILED {text}" for text in res["failures"]]
    for row in res.get("known_defects", ()):
        note = (f"known defect, outside the measured inputs: {row['input']!r} {row['reason']}"
                if row["reason"] else f"known defect fixed: {row['input']!r} raises BBError")
        lines.append(f"  {note}")
        print(f"perfbench: {note}", file=sys.stderr)
    for i, row in enumerate(res["inputs"]):
        same = ("" if "recorded" not in row else " (as recorded)"
                if row["sha256"] == row["recorded"] else " (differs from the recorded report)")
        lines.append(f"  input {i} sha256 {row['sha256']}{same} {row['input']}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return lines, result


def check(workloads):
    """One short traced run of each workload; returns the number of failed inputs."""
    failed = 0
    for name in workloads:
        lines, result = measure(name, 1, 1, 1)
        print("\n".join(lines))
        failed += result["failed"]
    print(f"check: {failed} failed inputs" if failed else "check: all outputs match")
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record:
            print(json.dumps(worker("--record", deadline=time.monotonic() + RUN_LIMIT_S)))
            return 0
        if args.check:
            return 1 if check([args.workload] if args.workload else WORKLOADS) else 0
        if not args.workload:
            ap.error("--workload is required")
        lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
