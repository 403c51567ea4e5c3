"""parkfn benchmark: one seeded workload per run, metrics as a JSON last line.

Usage (from the repository root):

    python3 bench/run.py --workload recognize --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists): ``recognize`` (point
queries), ``verify-suites`` (``parkfn verify`` on the four shipped suites,
in-process), ``oracle-scalar`` (large candidate sweeps) and ``oracle-grid``
(large twodim grids on the numpy kernel, two of them with counts past
2**63).

The load is a closed loop: one caller, one process, one thread at a time,
with the BLAS/OpenMP thread counts pinned to 1.  A run repeats passes over
the workload's fixed operation set, each pass in a fresh interpreter that
first times its set-up (``import parkfn`` plus loading the suite manifests),
while the next pass is expected to end within ``--seconds``.  Every result
is checked against a reference computed before any pass starts; an
operation that raises or disagrees counts as failed and the run goes on.
``correct`` is false if any operation fails, except the pf and ppf counts
of the two ``oracle-grid`` grids past 2**63, which the library's int64
reduction wraps (see ``workloads.known_failure``); those stay counted in
``failed``.

Timings are at the reference host's speed: each measured duration is
scaled by a calibration timed right around it in the same process (see
``calibration.py``), because the speed a process sees on a shared host
drifts by a quarter within minutes.  The raw durations are printed too, on
the line before the last.

``--trace 0`` prints the end-to-end metrics: medians over passes, and
latency percentiles over each operation's median latency.  ``--trace 1``
runs one untraced pass, then traced passes, then, if the workload counts
twodim grids, one pass that only measures their peak traced allocation, and
prints the per-layer metrics; the spans of the first traced pass are written
to ``bench/out/``.  The lines before the last one describe the run: input
properties, fail ratio, sample counts and, when tracing, the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibration
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 150
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def nearest_rank(sorted_values, q: float):
    """The q-quantile of sorted values by the nearest-rank rule."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - math.ceil(q * n)


def tail_is_valid(n: int, q: float = 0.99) -> bool:
    """A tail percentile is reported as such only with ten samples beyond it."""
    return samples_beyond(n, q) >= 10


def run_worker(job: dict) -> dict:
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    proc = subprocess.run(
        [sys.executable, "-E", str(BENCH / "worker.py"), str(ROOT)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed(f"worker printed no result: {exc}") from exc


def load_library():
    """The checkout's own parkfn, for references computed before any pass."""
    sys.path.insert(0, str(ROOT / "src"))
    import parkfn.cli
    import parkfn.core
    import parkfn.pq
    import parkfn.twodim
    import parkfn.vector

    return SimpleNamespace(core=parkfn.core, vector=parkfn.vector, pq=parkfn.pq, twodim=parkfn.twodim, cli=parkfn.cli)


def per_op_medians(passes: list, key) -> list:
    """Each operation's median over the passes of ``key(pass)[op]``, sorted.

    Every pass runs the same operations, so taking each one's median first
    keeps a burst of host noise in one pass out of the percentiles.
    """
    return sorted(statistics.median(values) for values in zip(*(key(p) for p in passes)))


def at_reference_speed(p: dict) -> list:
    """Each operation's latency in ns, scaled by the calibration around it."""
    return [calibration.at_reference_speed(ns, cal) for ns, cal in zip(p["latency_ns"], p["calibration_ns"])]


def raw_latency(p: dict) -> list:
    """Each operation's latency in ns, as this run's host speed gave it."""
    return p["latency_ns"]


def timings(passes: list, latency, setup_key: str) -> dict:
    """wall_s, op_p50_us, op_p99_us and setup_s, with latencies from ``latency(pass)``."""
    latencies = per_op_medians(passes, latency)
    return {
        "wall_s": statistics.median(sum(latency(p)) for p in passes) / 1e9,
        "op_p50_us": nearest_rank(latencies, 0.50) / 1e3,
        "op_p99_us": nearest_rank(latencies, 0.99) / 1e3,
        "setup_s": statistics.median(p[setup_key] for p in passes),
    }


def end_to_end(passes: list) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return dict(
        timings(passes, at_reference_speed, "setup_s"),
        peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in passes),
        pass_ratio=(attempted - failed) / attempted,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "parkfn" / "__init__.py").is_file():
        print(f"error: no parkfn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pk = load_library()
    inputs = workloads.make_inputs(args.workload, args.seed)
    expected = workloads.references(args.workload, inputs, pk)
    job = {"workload": args.workload, "inputs": inputs, "expected": expected}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + args.seconds
    try:
        passes = []
        if args.trace:
            untraced = run_worker(job)
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            for old in out_dir.glob(f"spans-{args.workload}-*.npz"):
                old.unlink()
            job = dict(job, trace=1, spans_path=str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz"))
        pass_s = 0.0
        while not passes or time.monotonic() + pass_s < deadline:
            started = time.monotonic()
            passes.append(run_worker(job))
            pass_s = time.monotonic() - started
            job.pop("spans_path", None)  # spans of the first traced pass are kept
        if args.trace:
            twodim_counts = passes[0]["layers"]["oracle.count_twodim.calls"]
            probe = run_worker(dict(job, trace=0, alloc=1)) if twodim_counts else {"peak_alloc_mb": 0.0}
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    unexpected = sum(len(p["unexpected"]) for p in passes)
    ops = len(inputs)
    correct = unexpected == 0 and all(p["attempted"] == ops for p in passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "inputs": workloads.describe(args.workload, inputs, expected),
        "fail_ratio": failed / attempted,
        "unexpected_failures": unexpected,
        "op_samples": ops,
        "op_p99_samples_beyond": samples_beyond(ops, 0.99),
        "op_p99_valid": tail_is_valid(ops),
        "setup_samples": len(passes),
        "raw_wall_s_passes": [p["wall_s"] for p in passes],
        "raw": dict(
            timings(passes, raw_latency, "setup_raw_s"),
            calibration_us=statistics.median(c for p in passes for c in p["calibration_ns"]) / 1e3,
        ),
        "errors": sorted({e for p in passes for e in p["errors"]})[:8],
    }
    if args.trace:
        traced = timings(passes, at_reference_speed, "setup_s")["wall_s"]
        info["trace_overhead_s"] = traced - sum(at_reference_speed(untraced)) / 1e9
        info["spans_per_pass"] = passes[0]["spans"]
        layers = {name: statistics.median(p["layers"][name] for p in passes) for name in passes[0]["layers"]}
        layers["oracle.count_twodim.peak_alloc_mb"] = probe["peak_alloc_mb"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = end_to_end(passes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
