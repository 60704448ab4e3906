"""Digests of full ``analyze`` reports, for checking that a change keeps every
report byte-identical.

For each input it prints four lines, one per report: the ``analyze`` report
as JSON and as text, and the JSON of the ``series`` and ``residues``
commands.  A line holds the sha256 of the report and the exit code, then
the options, the report and the input.  An input that raises BBError prints
the sha256 of the error text and exit code 1, as ``bbsolve`` would.  The
inputs are tests/test_acceptance.py's GOLDEN_CORPUS, the raw-P equations
of CURVE_MODE (the fuzz inputs are all ODE sugar, so these run the
curve-mode sweep), LARGE_ORDERS, and the well-formed screen_fuzz
equations of each given seed (perfbench/workloads.py's fuzz_equations),
each at Options() and at Options(c=0).

Run from the repository root, on two checkouts, and compare the outputs:

    PYTHONPATH=src python3 tests/report_digests.py 1 3 > digests.txt

pytest does not collect this file.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from bbsolve.cli import (Options, analyze, cmd_residues, cmd_series,  # noqa: E402
                         render_json, render_text)
from bbsolve.errors import BBError  # noqa: E402
from test_acceptance import GOLDEN_CORPUS  # noqa: E402
from workloads import fuzz_equations  # noqa: E402

# raw P whose sweep steps in curve mode (p carried along with y)
CURVE_MODE = [
    "P: p^2 - q^6 + 1 ; k=2",
    "P: p^3 - q^4 + 1 ; k=1",
    "P: p^2 - q^4 + 1 ; k=1",
    "P: p^2 - q^3 + 1 ; k=2",
    "P: p^2 - 4*q^3 + 4*q ; k=2",
    "P: q^2 - p*q^2 - p^2 + 4*p - 4 ; k=1",    # a mixed p*q term
]
# derivative orders whose Taylor steps read factorials past 10^120; the
# first two sweep, the last two fail before the sweep
LARGE_ORDERS = ["y^(83) = y^2", "y^(120) = 6*y^2", "P: p^2 - q^3 ; k=99",
                "y^(165) = y^2"]


def _analyzed(text, opts):
    report, code = analyze(text, opts)
    return render_json(report), render_text(report), code


def digest_lines(text, label, opts):
    json_opts = Options(c=opts.c, fmt="json")
    producers = ((("analyze-json", "analyze-text"), lambda: _analyzed(text, opts)),
                 (("series-json",), lambda: cmd_series(text, json_opts)),
                 (("residues-json",), lambda: cmd_residues(text, json_opts)))
    lines = []
    for names, produce in producers:
        try:
            *bodies, code = produce()
        except (BBError, ZeroDivisionError) as exc:
            bodies, code = [f"error: {exc}"] * len(names), 1
        lines.extend(f"{hashlib.sha256(body.encode()).hexdigest()} {code} {label} "
                     f"{name} {text}" for name, body in zip(names, bodies))
    return lines


def main(argv):
    seeds = [int(s) for s in argv]
    texts = GOLDEN_CORPUS + CURVE_MODE + LARGE_ORDERS
    for seed in seeds:
        texts.extend(text for text, malformed in fuzz_equations(seed) if not malformed)
    for label, opts in (("default", Options()), ("c=0", Options(c=0))):
        for text in texts:
            print("\n".join(digest_lines(text, label, opts)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
