"""Tests of the benchmark's own logic: self time, the tail-percentile rule,
span recording, seeded inputs, the checks and calibration.  Run with
``python3 -m pytest bench``."""

import json
from array import array

import pytest

import calibration
import run
import spans
import workloads


def self_times_of(intervals_and_parents):
    start = array("q", (s for (s, _), _ in intervals_and_parents))
    end = array("q", (e for (_, e), _ in intervals_and_parents))
    parent = array("i", (p for _, p in intervals_and_parents))
    return list(spans.self_times(start, end, parent))


def test_self_time_subtracts_children_but_not_grandchildren():
    own = self_times_of([
        ((0, 100), -1),
        ((10, 30), 0),
        ((12, 20), 1),  # grandchild: only its parent loses this time
        ((60, 70), 0),
    ])
    assert own == [100 - 20 - 10, 20 - 8, 8, 10]


def test_self_time_counts_overlapping_children_once():
    own = self_times_of([((0, 100), -1), ((10, 30), 0), ((20, 50), 0), ((40, 45), 0)])
    assert own[0] == 100 - 40


def test_self_time_ignores_child_time_outside_the_parent():
    own = self_times_of([((0, 100), -1), ((90, 120), 0), ((200, 210), -1)])
    assert own == [90, 30, 10]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.samples_beyond(1000, 0.99) == 10
    assert run.tail_is_valid(1000)
    assert run.samples_beyond(999, 0.99) == 9
    assert not run.tail_is_valid(999)
    assert not run.tail_is_valid(16)


def test_nearest_rank():
    values = list(range(1, 1001))
    assert run.nearest_rank(values, 0.50) == 500
    assert run.nearest_rank(values, 0.99) == 990
    assert run.nearest_rank([7], 0.99) == 7
    # what lies strictly above the 99th percentile is what samples_beyond counts
    assert sum(v > run.nearest_rank(values, 0.99) for v in values) == run.samples_beyond(1000, 0.99)


def test_wrapped_calls_record_nested_spans_and_outcomes():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda x: x > 0, outcome=int)
    outer = tracer.wrap("m.outer", lambda x: inner(x) and inner(-x))
    tracer.op_id = 3
    assert outer(1) is False
    assert [tracer.names[i] for i in tracer.name] == ["m.outer", "m.inner", "m.inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.op) == [3, 3, 3]
    assert list(tracer.outcome) == [-1, 1, 0]
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def test_a_raising_call_still_closes_its_span():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("m.fail", fail)()
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == [-1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)


def test_recognize_draws_half_its_instances_as_members():
    inputs = workloads.make_inputs("recognize", 1)
    members = inputs[::2]
    vector = [op for op in members if op["family"] in ("classical", "vector")]
    assert vector and all(
        all(x < bound for x, bound in zip(sorted(op["a"]), op["u"])) for op in vector
    )
    grids = [op for op in members if op["family"] == "twodim"]
    assert grids and all(
        workloads._bounded_forward(sorted(op["a"]), sorted(op["b"]), op["grid"]) for op in grids
    )


def test_a_traced_pass_reports_every_per_layer_metric(tmp_path):
    pk = run.load_library()

    def job(workload, inputs):
        expected = workloads.references(workload, inputs, pk)
        return {"workload": workload, "inputs": inputs, "expected": expected}

    scalar = job("oracle-scalar", [{"family": "pq", "p": 2, "q": 2, "prime": True, "increasing": False}])
    grid = job("oracle-grid", [{"family": "twodim", "grid": [1, 0, 0, 1, 1, 1, 2, 2], "variants": [[False, False]]}])
    traced = run.run_worker(dict(scalar, trace=1, spans_path=str(tmp_path / "spans.npz")))
    probe = run.run_worker(dict(grid, alloc=1))
    assert traced["failed"] == probe["failed"] == 0
    assert traced["unexpected"] == probe["unexpected"] == []
    assert traced["layers"]["oracle.count.swept"] > 0
    assert probe["peak_alloc_mb"] > 0
    assert (tmp_path / "spans.npz").is_file()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"oracle.count_twodim.peak_alloc_mb"}
    assert names <= set(traced["layers"])


def test_calibration_scales_to_the_reference_speed():
    assert calibration.at_reference_speed(10, calibration.REFERENCE_NS) == 10
    assert calibration.at_reference_speed(10, 2 * calibration.REFERENCE_NS) == 5
    assert calibration.calibrate() > 0


def grid_op(grid):
    return {"family": "twodim", "grid": list(grid), "variants": [list(v) for v in workloads.VARIANTS]}


def test_only_the_int64_wrap_of_the_thin_grids_is_a_known_failure():
    thin = grid_op(workloads.OVERFLOW_GRIDS[0])
    want = [2**63, 64, 2**63, 64]  # pf, ipf, ppf, ippf
    assert workloads.known_failure("oracle-grid", thin, [-(2**63), 64, -(2**63), 64], want)
    assert not workloads.known_failure("oracle-grid", thin, [2**63 - 1, 64, 2**63, 64], want)  # off by one
    assert not workloads.known_failure("oracle-grid", thin, [2**63, 64 - 2**64, 2**63, 64], want)  # ipf wrapped
    assert not workloads.known_failure("oracle-grid", thin, ValueError("boom"), want)
    wide = grid_op(workloads.GRID_SPECS[0])
    assert not workloads.known_failure("oracle-grid", wide, [want[0] - 2**64] + want[1:], want)
    assert not workloads.known_failure("recognize", {"family": "pq"}, (False, False, None), [True, False])


def test_rows_in_skips_suites_that_raised():
    ok = (0, json.dumps({"rows": [{}, {}, {}]}))
    assert workloads.rows_in([ok, RuntimeError("boom"), (1, ""), ok]) == 6
