"""The start of every fresh benchmark process.

    python3 perfbench/fresh.py --setup-only
    python3 perfbench/fresh.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/fresh.py --record

It first times set-up: ``import bbsolve`` from the checkout's ``src`` (never
from an installed copy) plus one warm-up ``analyze("y' = y^2")``.  Only os,
sys and time are imported before the clock starts, so set-up includes every
standard-library module that bbsolve pulls in.  ``--setup-only`` then prints
that time; any other arguments go to worker.py, imported only after set-up.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_bbsolve():
    if not os.path.isfile(os.path.join(SRC, "bbsolve", "__init__.py")):
        raise ImportError(f"no bbsolve sources under {SRC}")
    sys.path.insert(0, SRC)
    import bbsolve
    if not os.path.abspath(bbsolve.__file__).startswith(SRC + os.sep):
        raise ImportError(f"imported bbsolve from {bbsolve.__file__}, not from {SRC}")
    return bbsolve


def set_up():
    """Import bbsolve and warm it up; returns (package, seconds)."""
    t0 = time.perf_counter()
    bb = import_bbsolve()
    bb.cli.analyze("y' = y^2")
    return bb, time.perf_counter() - t0


def main(argv):
    try:
        bb, setup_s = set_up()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if argv == ["--setup-only"]:
        print(f'{{"setup_s": {setup_s!r}}}')
        return 0
    import worker           # beside this file, on sys.path as the script's directory
    return worker.main(bb, setup_s, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
