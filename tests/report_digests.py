"""Digests of full ``analyze`` reports, for checking that a change keeps every
report byte-identical.

For each input it prints one line: the sha256 of render_json(analyze(text,
opts)) and the exit code, then the options and the input.  An input that
raises BBError prints the sha256 of the error text and exit code 1, as
``bbsolve analyze`` would.  The inputs are tests/test_acceptance.py's
GOLDEN_CORPUS and the well-formed screen_fuzz equations of each given seed
(perfbench/workloads.py's fuzz_equations), each at Options() and at
Options(c=0).

Run from the repository root, on two checkouts, and compare the outputs:

    PYTHONPATH=src python3 tests/report_digests.py 1 3 > digests.txt

pytest does not collect this file.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from bbsolve.cli import Options, analyze, render_json  # noqa: E402
from bbsolve.errors import BBError  # noqa: E402
from test_acceptance import GOLDEN_CORPUS  # noqa: E402
from workloads import fuzz_equations  # noqa: E402


def digest_line(text, label, opts):
    try:
        report, code = analyze(text, opts)
        body = render_json(report)
    except BBError as exc:
        body, code = f"error: {exc}", 1
    return f"{hashlib.sha256(body.encode()).hexdigest()} {code} {label} {text}"


def main(argv):
    seeds = [int(s) for s in argv]
    texts = list(GOLDEN_CORPUS)
    for seed in seeds:
        texts.extend(text for text, malformed in fuzz_equations(seed) if not malformed)
    for label, opts in (("default", Options()), ("c=0", Options(c=0))):
        for text in texts:
            print(digest_line(text, label, opts), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
