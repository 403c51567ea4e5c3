"""Run one ``parkfn`` command in-process and report its exit code, wall time and peak RSS.

The command's own output goes where it always does; one more line goes to
stderr last: ``exit <code> wall_s <seconds> maxrss_mib <MiB>``.  The wall time
covers ``parkfn.cli.main`` alone, after the package is imported; the peak RSS
is the process's ``ru_maxrss``, so it includes the interpreter and numpy.

Run from anywhere, with the command's arguments as they would follow
``parkfn``::

    python3 tools/peak_rss.py count --family vector --u 4000000 --method oracle
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parkfn.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    """Run ``parkfn argv`` and write the report line to stderr; returns the command's exit code."""
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"exit {code} wall_s {wall:.3f} maxrss_mib {maxrss:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
