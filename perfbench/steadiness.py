"""Steadiness report: run each workload repeatedly and summarise every
end-to-end metric by its median and quartiles.

    python3 perfbench/steadiness.py

Each workload of BENCHMARK.json runs RUNS times, with the seeds 1..RUNS and
BENCHMARK.json's run length.  The spread is (q3 - q1) / median with
quartiles from ``statistics.quantiles(n=4)``; the bounds in BENCHMARK.json
must stay above three times the spread of every metric but setup_s.  Prints a Markdown report (kept as STEADINESS.md).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"# Steadiness of the end-to-end metrics\n\n{RUNS} runs per workload, "
          f"seeds 1..{RUNS}, {bench['run_seconds']} s each.\n")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload",
                                   workload, "--seed", str(seed), "--seconds",
                                   str(bench["run_seconds"]), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        failed = sorted({r["failed"] for r in runs})
        print(f"## {workload}\n\ncorrect in {sum(r['correct'] for r in runs)} of {len(runs)} "
              f"runs; failed inputs per run: {failed}\n")
        print("| metric | unit | median | q1 | q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"| {name} | {runs[0]['metrics'][name]['unit']} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {spread:.3f} | {bound} | {spread / bound:.2f} |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
