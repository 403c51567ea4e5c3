"""One pass of a workload in a fresh interpreter.

Usage: ``python3 worker.py <checkout root>`` with a job as JSON on stdin.
The worker times ``import parkfn`` plus loading the suite manifests
(set-up) between two calibrations (see ``calibration.py``).  It then runs
the job's operations one after another, timing each and calibrating between
operations about every 50 ms, and checks every result after the timed loop.
A failed operation that is not the known int64 wrap of ``oracle-grid`` is
listed as unexpected.  A job may ask for spans
(``trace``) or for the allocation probe (``alloc``).  The worker prints one
JSON line with its measurements.  A fresh process per pass starts with empty
library caches (the twodim grid counts sit in an ``lru_cache``).
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibration
import spans
import workloads

MODULES = ("core", "vector", "pq", "twodim", "exact", "oracle", "cli")


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    clock = time.perf_counter_ns
    calibration.calibrate()  # the first run warms the yardstick up
    before = calibration.calibrate()
    t0 = clock()
    sys.path.insert(0, str(root / "src"))
    pk = SimpleNamespace(**{name: importlib.import_module(f"parkfn.{name}") for name in MODULES})
    for suite in pk.cli.SUITE_NAMES:
        pk.cli.load_suite(suite)
    setup_ns = clock() - t0
    setup_s = calibration.at_reference_speed(setup_ns, (before + calibration.calibrate()) / 2) / 1e9
    if not Path(pk.core.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported parkfn from {pk.core.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    job = json.load(sys.stdin)
    result: dict = {"setup_s": setup_s, "setup_raw_s": setup_ns / 1e9}
    name = job["workload"]
    items = workloads.prepare(name, job["inputs"], pk)
    tracer = peaks = None
    if job.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer, pk)
    if job.get("alloc"):
        peaks = []
        spans.install_alloc_probe(peaks, pk)

    run_op = workloads.run_op
    outputs = []
    latencies = []
    calibrations = [calibration.calibrate()]
    since_calibration = 0
    op_calibration = []  # index of the calibration just before each operation
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op_id = i
        t = clock()
        try:
            output = run_op(name, item, pk)
        except Exception as exc:  # an operation that raises counts as failed
            output = exc
        latencies.append(clock() - t)
        outputs.append(output)
        op_calibration.append(len(calibrations) - 1)
        since_calibration += latencies[-1]
        if since_calibration >= calibration.EVERY_NS or i == len(items) - 1:
            calibrations.append(calibration.calibrate())
            since_calibration = 0
    result["wall_s"] = sum(latencies) / 1e9
    # Each operation's yardstick: the mean of the calibrations around it.
    result["calibration_ns"] = [(calibrations[k] + calibrations[k + 1]) / 2 for k in op_calibration]

    errors = []
    unexpected = []
    for i, (item, output, expected) in enumerate(zip(items, outputs, job["expected"])):
        try:
            ok = not isinstance(output, Exception) and workloads.check(name, item, output, expected)
        except Exception as exc:  # a malformed result counts as failed
            ok, output = False, exc
        if not ok:
            errors.append(f"op {i}: {_brief(item)} -> {_brief(output)}")
            if not workloads.known_failure(name, item, output, expected):
                unexpected.append(i)
    result.update(
        attempted=len(items),
        failed=len(errors),
        unexpected=unexpected,
        errors=errors[:8],
        latency_ns=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        rows = workloads.rows_in(outputs) if name == "verify-suites" else 0
        result["layers"] = spans.layer_metrics(tracer, len(items), rows)
        result["spans"] = len(tracer.start)
        if "spans_path" in job:
            tracer.save(job["spans_path"])
    if peaks is not None:
        result["peak_alloc_mb"] = max(peaks, default=0) / 2**20
    print(json.dumps(result))
    return 0


def _brief(value) -> str:
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {value}"
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], str):
        return f"exit {value[0]}"  # a verify run: its stdout is too long to show
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


if __name__ == "__main__":
    raise SystemExit(main())
