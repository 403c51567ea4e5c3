"""Command-line interface: golden outputs, exit codes, byte stability."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkfn import pq, vector
from parkfn.cli import main


def run_cli(capsys, argv, stdin_obj=None, monkeypatch=None):
    if stdin_obj is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", _FakeStdin(json.dumps(stdin_obj)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self, *args):
        return self._text


def write_instance(tmp_path, obj, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# -- check -------------------------------------------------------------------


def test_check_vector_golden(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [0, 2, 0], "u": [1, 1, 3]})
    code, out, _ = run_cli(capsys, ["check", "--family", "vector", "--file", path])
    assert code == 0
    assert out == '{"member":true,"prime":false}\n'


def test_check_vector_full_lot_example(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [6, 0, 1, 0, 0], "u": [1, 1, 3, 3, 9]})
    code, out, _ = run_cli(capsys, ["check", "--family", "vector", "--file", path])
    assert code == 0 and json.loads(out) == {"member": True, "prime": False}


def test_check_classical(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [0, 3, 1, 0]})
    code, out, _ = run_cli(capsys, ["check", "--family", "classical", "--file", path])
    assert code == 0 and json.loads(out) == {"member": True, "prime": False}


@pytest.mark.parametrize("command", ["check", "simulate", "decompose"])
def test_an_empty_classical_instance_is_refused_as_n_0(tmp_path, capsys, command):
    # a classical instance of length 0 is n = 0, refused by the classical rule as count and list refuse --n 0;
    # building u = (1, ..., n) by hand refused an empty capacity vector the user never gave
    path = write_instance(tmp_path, {"a": []})
    refusal = run_cli(capsys, ["count", "--family", "classical", "--n", "0"])
    assert refusal == (1, "", "error: the arithmetic boundary needs an int n >= 1, got 0\n")
    assert run_cli(capsys, [command, "--family", "classical", "--file", path]) == refusal


def test_check_pq_golden(tmp_path, capsys):
    prime_pair = write_instance(tmp_path, {"p": 3, "q": 4, "a": [0, 0, 3], "b": [0, 0, 1, 1]})
    code, out, _ = run_cli(capsys, ["check", "--family", "pq", "--file", prime_pair])
    assert code == 0
    assert out == '{"member":true,"prime":true}\n'
    member_pair = write_instance(tmp_path, {"a": [3, 0, 3], "b": [1, 0, 1, 0]}, "m.json")
    code, out, _ = run_cli(capsys, ["check", "--family", "pq", "--file", member_pair])
    assert json.loads(out) == {"member": True, "prime": False}
    non_member = write_instance(tmp_path, {"a": [0, 3, 3], "b": [0, 0, 2, 2]}, "n.json")
    code, out, _ = run_cli(capsys, ["check", "--family", "pq", "--file", non_member])
    assert json.loads(out) == {"member": False, "prime": False}


def test_check_twodim_golden_witness(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [2, 3, 2], "b": [3, 0, 1, 0]})
    argv = ["check", "--family", "twodim", "--affine", "0,1,1,0,1,1", "--p", "3", "--q", "4", "--file", path]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == '{"member":true,"prime":false,"witness":"NNEENEN"}\n'
    bad = write_instance(tmp_path, {"a": [4, 3, 3], "b": [2, 0, 2, 1]}, "bad.json")
    code, out, _ = run_cli(capsys, argv[:-1] + [bad])
    assert json.loads(out) == {"member": False, "prime": False}


def test_check_twodim_embedded_grid(tmp_path, capsys):
    u0_34 = {
        "p": 3,
        "q": 4,
        "nodes": [
            [[1, 1], [1, 2], [1, 3], [1, 4]],
            [[2, 1], [2, 2], [2, 3], [2, 4]],
            [[3, 1], [3, 2], [3, 3], [3, 4]],
            [[4, 1], [4, 2], [4, 3], [4, 4]],
            [[5, 1], [5, 2], [5, 3], [5, 4]],
        ],
    }
    instance = {"a": [0, 0, 3], "b": [0, 0, 1, 1], "U": u0_34}
    path = write_instance(tmp_path, instance)
    code, out, _ = run_cli(capsys, ["check", "--family", "twodim", "--file", path])
    assert code == 0 and json.loads(out)["prime"] is True
    affine = {
        "a": [0, 0, 3],
        "b": [0, 0, 1, 1],
        "affine": {"a": 0, "b": 1, "c": 1, "d": 0, "s": 1, "t": 1, "p": 3, "q": 4},
    }
    path = write_instance(tmp_path, affine, "affine.json")
    code, out2, _ = run_cli(capsys, ["check", "--family", "twodim", "--file", path])
    assert code == 0 and out2 == out


@pytest.mark.parametrize("route", ["embedded", "flags"])
def test_check_compares_shapes_before_building_an_affine_grid(tmp_path, capsys, route):
    # a (1,1) pair against a 300x300 affine grid fails without building its 90,601 nodes
    instance, argv = {"a": [0], "b": [0]}, ["check", "--family", "twodim"]
    if route == "embedded":
        instance["affine"] = {"a": 0, "b": 0, "c": 0, "d": 0, "s": 1, "t": 1, "p": 300, "q": 300}
    else:
        argv += ["--affine", "0,0,0,0,1,1", "--p", "300", "--q", "300"]
    argv += ["--file", write_instance(tmp_path, instance)]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert "pair has shape (1,1), grid is (300,300)" in err
    assert peak < 2**20


def test_check_twodim_matrix_file(tmp_path, capsys):
    u0_22 = {"p": 2, "q": 2, "nodes": [[[1, 1], [1, 2], [1, 3]], [[2, 1], [2, 2], [2, 3]], [[3, 1], [3, 2], [3, 3]]]}
    grid_path = write_instance(tmp_path, u0_22, "grid.json")
    inst = write_instance(tmp_path, {"a": [0, 1], "b": [1, 0]})
    code, out, _ = run_cli(
        capsys, ["check", "--family", "twodim", "--matrix-file", grid_path, "--file", inst]
    )
    assert code == 0 and out == '{"member":true,"prime":false,"witness":"ENEN"}\n'


@pytest.mark.parametrize(
    "grid",
    [
        {"p": 1, "q": 1, "nodes": 5},
        {"p": 1, "q": 1, "nodes": [5, 5]},
        {"p": 1, "q": 1, "nodes": [[[1, 1], [1.5, 1]], [[1, 2], [2, 2]]]},
        {"p": True, "q": 1, "nodes": [[[1, 1], [1, 1]], [[1, 2], [2, 2]]]},
        [1, 1],
    ],
)
def test_count_matrix_file_needs_json_integers(tmp_path, capsys, grid):
    path = write_instance(tmp_path, grid, "grid.json")
    code, out, err = run_cli(capsys, ["count", "--family", "twodim", "--matrix-file", path, "--method", "oracle"])
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "grid",
    [
        {"p": 0, "q": 1, "nodes": [[[0, 1]], [[0, 1]]]},
        {"p": 1, "q": 0, "nodes": [[[1, 0], [1, 0]]]},
    ],
)
@pytest.mark.parametrize("variant", [[], ["--increasing"]])
def test_empty_side_with_zero_bound_counts_one_candidate(tmp_path, capsys, grid, variant):
    # the empty side's one candidate is the empty sequence, even when its bound is 0
    path = write_instance(tmp_path, grid, "grid.json")
    argv = ["count", "--family", "twodim", "--matrix-file", path, "--method", "oracle", *variant]
    assert run_cli(capsys, argv) == (0, "1\n", "")


@pytest.mark.parametrize(
    "grid",
    [
        {"p": 1, "q": 0, "nodes": [[[1, 2**70], [1, 2**70]]]},
        {"p": 0, "q": 1, "nodes": [[[2**70, 1]], [[2**70, 1]]]},
    ],
)
@pytest.mark.parametrize("command", [["count", "--method", "oracle"], ["count", "--method", "oracle", "--increasing"], ["list", "--increasing"]])
def test_empty_side_ignores_its_bound_and_weights(tmp_path, capsys, grid, command):
    # the empty side's bound and weights weigh no edge: range(2**70) and an int64 cast of them raised OverflowError
    path = write_instance(tmp_path, grid, "grid.json")
    code, out, err = run_cli(capsys, [command[0], "--family", "twodim", "--matrix-file", path, *command[1:]])
    assert (code, err) == (0, "")
    assert out == ("1\n" if command[0] == "count" else '{"a":[0],"b":[]}\n' if grid["p"] else '{"a":[],"b":[0]}\n')


@pytest.mark.parametrize("v", [1, 0])  # with v = 0 the space is 0
@pytest.mark.parametrize("command", [["count", "--method", "oracle"], ["list"]])
def test_entry_bounds_past_int64_exit_with_an_error_line(tmp_path, capsys, command, v):
    # with the cap raised past the nominal space, range(2**70) raised OverflowError while pooling the a-side; the
    # last east edge u(0, 1) carries 2**70 and the last north edge v(1, 0) carries v
    grid = {"p": 1, "q": 1, "nodes": [[[0, 0], [0, v]], [[2**70, 0], [2**70, v]]]}
    path = write_instance(tmp_path, grid, "grid.json")
    argv = [command[0], "--family", "twodim", "--matrix-file", path, *command[1:], "--cap", str(10**32)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "") and err == f"error: an entry bound of {2**70} exceeds {sys.maxsize}, the largest a sweep can pool\n"


@pytest.mark.parametrize("variant", [[], ["--increasing"], ["--prime"], ["--prime", "--increasing"]])
def test_a_bound_past_int64_on_the_corner_alone_bounds_no_entry(tmp_path, capsys, variant):
    # no edge leaves the corner (1, 1), so its 2**70 bounds no entry: every edge weighs 0, the space is 0, and both
    # commands give the definition's members under the default cap
    from parkfn import oracle, twodim

    grid = {"p": 1, "q": 1, "nodes": [[[0, 0], [0, 0]], [[0, 0], [2**70, 1]]]}
    path = write_instance(tmp_path, grid, "grid.json")
    spec = oracle.FamilySpec("twodim", "--prime" in variant, "--increasing" in variant,
                             weights=twodim.WeightMatrix.from_json_dict(grid))
    members = list(oracle.enumerate_members(spec))
    lines = "".join(json.dumps({"a": list(a), "b": list(b)}, separators=(",", ":")) + "\n" for a, b in members)
    argv = ["--family", "twodim", "--matrix-file", path, *variant]
    assert run_cli(capsys, ["count", *argv, "--method", "oracle"]) == (0, f"{len(members)}\n", "")
    assert run_cli(capsys, ["list", *argv]) == (0, lines, "")


def test_list_twodim_prime(capsys):
    code, out, _ = run_cli(
        capsys,
        ["list", "--family", "twodim", "--affine", "0,1,1,0,1,1", "--p", "1", "--q", "1", "--prime"],
    )
    assert code == 0 and out.splitlines() == ['{"a":[0],"b":[0]}']


def test_check_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["check", "--family", "pq"],
        stdin_obj={"a": [], "b": [0]},
        monkeypatch=monkeypatch,
    )
    assert code == 0 and json.loads(out) == {"member": True, "prime": True}


# -- simulate ----------------------------------------------------------------


def test_simulate_golden(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [6, 0, 1, 0, 0], "u": [1, 1, 3, 3, 9]})
    code, out, _ = run_cli(capsys, ["simulate", "--family", "vector", "--file", path])
    assert code == 0
    assert out == '{"assignment":[8,0,2,0,2]}\n'


def test_simulate_failure(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [8, 8, 0, 0, 0], "u": [1, 1, 3, 3, 9]})
    code, out, _ = run_cli(capsys, ["simulate", "--family", "vector", "--file", path])
    assert code == 0
    assert out == '{"failed_car":1}\n'


def test_simulate_huge_capacity_allocates_nothing(capsys, monkeypatch):
    # the lot is never laid out spot by spot, so u[-1] = 10**19 costs nothing
    instance = {"a": [0, 5], "u": [1, 10**19]}
    code, out, _ = run_cli(capsys, ["simulate", "--family", "vector"], stdin_obj=instance, monkeypatch=monkeypatch)
    assert code == 0 and out == '{"assignment":[0,9999999999999999999]}\n'


def test_simulate_rejects_pair_families(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [0], "b": [0]})
    code, _, err = run_cli(capsys, ["simulate", "--family", "pq", "--file", path])
    assert code == 1 and "error" in err


# -- decompose ---------------------------------------------------------------


def test_decompose_vector_golden(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [0, 3, 1, 0], "u": [1, 2, 3, 4]})
    code, out, _ = run_cli(capsys, ["decompose", "--family", "vector", "--file", path])
    assert code == 0
    assert out == (
        '{"components":[{"B":[0,2,3],"a":[0,1,0],"offset":0,"u":[1,2,3]},'
        '{"B":[1],"a":[0],"offset":3,"u":[1]}]}\n'
    )


def test_decompose_vector_six_car_golden(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [7, 3, 0, 4, 0, 3], "u": [1, 2, 4, 5, 7, 8]})
    code, out, _ = run_cli(capsys, ["decompose", "--family", "vector", "--file", path])
    assert code == 0
    got = json.loads(out)
    assert got["components"][0] == {"B": [2, 4], "a": [0, 0], "offset": 0, "u": [1, 2]}
    assert got["components"][1] == {"B": [1, 3, 5], "a": [1, 2, 1], "offset": 2, "u": [2, 3, 5]}
    assert got["components"][2] == {"B": [0], "a": [0], "offset": 7, "u": [1]}


@pytest.mark.parametrize("command", ["check", "decompose"])
@pytest.mark.parametrize("key", ["p", "q"])
@pytest.mark.parametrize("value", [True, 1.0, "1", [1], 2.0])
def test_pq_declared_sizes_must_be_json_integers(tmp_path, capsys, command, key, value):
    # the one field that fails is named with its value, a scalar as a scalar
    path = write_instance(tmp_path, {"a": [0], "b": [0], "p": 1, "q": 1, key: value})
    assert run_cli(capsys, [command, "--family", "pq", "--file", path]) == (
        1, "", f"error: the declared '{key}' must be an integer, got {value!r}\n"
    )


@pytest.mark.parametrize("key", ["p", "q"])
@pytest.mark.parametrize("value", [True, 1.5, "1", None])
def test_a_grid_names_its_size_that_is_not_an_integer(tmp_path, capsys, key, value):
    grid = {"p": 1, "q": 1, "nodes": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]], key: value}
    path = write_instance(tmp_path, {"a": [0], "b": [0], "U": grid})
    assert run_cli(capsys, ["check", "--family", "twodim", "--file", path]) == (
        1, "", f"error: the grid's '{key}' must be an integer >= 0, got {value!r}\n"
    )
    matrix = write_instance(tmp_path, grid, "grid.json")
    assert run_cli(capsys, ["count", "--family", "twodim", "--matrix-file", matrix, "--method", "oracle"]) == (
        1, "", f"error: the grid's '{key}' must be an integer >= 0, got {value!r}\n"
    )


@pytest.mark.parametrize("key", [*"abcdstpq"])
@pytest.mark.parametrize("value", [True, 1.5, "1", [1]])
def test_an_affine_grid_names_its_value_that_is_not_an_integer(tmp_path, capsys, key, value):
    affine = dict(zip("abcdstpq", (0, 1, 1, 0, 1, 1, 1, 1)), **{key: value})
    path = write_instance(tmp_path, {"a": [0], "b": [0], "affine": affine})
    assert run_cli(capsys, ["check", "--family", "twodim", "--file", path]) == (
        1, "", f"error: the affine grid's '{key}' must be an integer >= 0, got {value!r}\n"
    )


def test_decompose_pq_golden(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [3, 0, 3, 2, 3, 0], "b": [6, 1, 0, 5, 0]})
    code, out, _ = run_cli(capsys, ["decompose", "--family", "pq", "--file", path])
    assert code == 0
    got = json.loads(out)
    assert got["components"][0] == {
        "A": [1, 3, 5],
        "B": [1, 2, 4],
        "a": [0, 2, 0],
        "b": [1, 0, 0],
        "offset": [0, 0],
    }
    assert got["components"][4] == {"A": [], "B": [0], "a": [], "b": [0], "offset": [6, 4]}


def test_decompose_huge_capacity_allocates_nothing(capsys, monkeypatch):
    instance = {"a": [0, 5], "u": [1, 10**19]}
    code, out, _ = run_cli(capsys, ["decompose", "--family", "vector"], stdin_obj=instance, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["components"] == [
        {"B": [0], "a": [0], "offset": 0, "u": [1]},
        {"B": [1], "a": [4], "offset": 1, "u": [9999999999999999999]},
    ]


def test_decompose_rejects_non_member(tmp_path, capsys):
    path = write_instance(tmp_path, {"a": [2, 2], "u": [1, 2]})
    code, _, err = run_cli(capsys, ["decompose", "--family", "vector", "--file", path])
    assert code == 1 and "error" in err


# -- count and list ----------------------------------------------------------


@pytest.mark.parametrize("method", ["formula", "oracle"])
def test_count_classical_prime(capsys, method):
    code, out, _ = run_cli(
        capsys, ["count", "--family", "classical", "--n", "4", "--prime", "--method", method]
    )
    assert code == 0 and out == "27\n"


def test_count_vector_arith_flags(capsys):
    code, out, _ = run_cli(
        capsys, ["count", "--family", "vector", "--s", "2", "--b", "1", "--n", "2"]
    )
    assert code == 0 and out == "8\n"


def test_count_vector_u_flag_detects_arithmetic(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "vector", "--u", "2,3,4"])
    assert code == 0 and out == "50\n"
    code, _, err = run_cli(capsys, ["count", "--family", "vector", "--u", "1,1,4"])
    assert code == 1 and "arithmetic" in err


@pytest.mark.parametrize("method", ["formula", "oracle"])
@pytest.mark.parametrize(
    "family_args", [["--family", "classical"], ["--family", "vector", "--s", "1", "--b", "1"]], ids=["classical", "vector"]
)
def test_count_needs_n_at_least_one(capsys, method, family_args):
    code, out, err = run_cli(capsys, ["count", *family_args, "--n", "0", "--method", method])
    assert code == 1 and out == "" and err.startswith("error:")


def test_count_pq_and_twodim(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "pq", "--p", "3", "--q", "4"])
    assert code == 0 and out == "12800\n"
    code, out, _ = run_cli(
        capsys,
        ["count", "--family", "twodim", "--affine", "0,1,1,0,1,1", "--p", "3", "--q", "4", "--method", "oracle"],
    )
    assert code == 0 and out == "12800\n"


@pytest.mark.parametrize(
    "grid, expected",
    [
        (["--affine", "0,0,0,0,2,0", "--p", "2", "--q", "0"], "4\n"),
        (["--affine", "0,0,0,0,0,1", "--p", "0", "--q", "1", "--increasing"], "1\n"),
    ],
    ids=["pf-q0", "ipf-p0"],
)
def test_count_degenerate_affine_formula_equals_oracle(capsys, grid, expected):
    # an empty side whose factor has a zero base (pf) or a rising factorial at 1 (ipf): the form cancels it
    for method in ("formula", "oracle"):
        code, out, err = run_cli(capsys, ["count", "--family", "twodim", *grid, "--method", method])
        assert (code, out, err) == (0, expected, ""), method


def test_count_oracle_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        ["count", "--family", "classical", "--n", "12", "--method", "oracle", "--cap", "1000"],
    )
    assert code == 3 and "error" in err


def test_count_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PARKFN_SEARCH_CAP", "10")
    code, _, _ = run_cli(capsys, ["count", "--family", "classical", "--n", "3", "--method", "oracle"])
    assert code == 3
    monkeypatch.setenv("PARKFN_SEARCH_CAP", "1000")
    code, out, _ = run_cli(capsys, ["count", "--family", "classical", "--n", "3", "--method", "oracle"])
    assert code == 0 and out == "16\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "classical", "--n", "3", "--method", "oracle"],
        ["list", "--family", "classical", "--n", "2"],
        ["verify", "--suite", "classical"],
    ],
    ids=["count", "list", "verify"],
)
@pytest.mark.parametrize("cap", ["-1", "-5"])
@pytest.mark.parametrize("source", ["flag", "variable"])
def test_a_negative_cap_exits_one(capsys, monkeypatch, argv, cap, source):
    # no space is below a negative cap: it is malformed input, refused before any search, from either source
    if source == "flag":
        argv = [*argv, "--cap", cap]
    else:
        monkeypatch.setenv("PARKFN_SEARCH_CAP", cap)
    assert run_cli(capsys, argv) == (1, "", f"error: the search cap must be an int >= 0, got {cap}\n")


@pytest.mark.parametrize("route", [["count", "--method", "formula"], ["count", "--method", "oracle"]], ids=["formula", "oracle"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "classical", "--n", "0"], "the arithmetic boundary needs an int n >= 1, got 0"),
        (["--family", "vector", "--s", "0", "--b", "1", "--n", "3"], "the arithmetic boundary needs an int s >= 1, got 0"),
        (["--family", "vector", "--s", "1", "--b", "-2", "--n", "3"], "the arithmetic boundary needs an int b >= 0, got -2"),
        (["--family", "vector", "--s", "1", "--b", "1", "--n", "-4", "--prime"],
         "the arithmetic boundary needs an int n >= 1, got -4"),
        (["--family", "vector", "--s", "1", "--b", "1", "--n", "0"], "the arithmetic boundary needs an int n >= 1, got 0"),
        (["--family", "vector", "--u", "3,2"], "the capacity vector u must be weakly increasing, got (3, 2)"),
        (["--family", "vector", "--u", "0"], "the capacity vector u must hold integers >= 1, got (0,)"),
        (["--family", "pq", "--p", "-1", "--q", "3"], "the pq family needs an int p >= 0, got -1"),
        (["--family", "twodim", "--affine", "0,0,0,0,1,1", "--p", "0", "--q", "0", "--prime"], "primeness needs p >= 1, got 0"),
    ],
    ids=["classical", "vector-s", "vector-b", "vector-n", "vector-n-0", "vector-u-order", "vector-u-entry", "pq-p", "twodim-prime"],
)
def test_a_size_out_of_range_is_named_with_its_value(capsys, route, argv, message):
    # both routes give the family rule's one line: it names the parameter that fails and its value, never a flag the
    # family does not take, nor a vector's --s/--b/--n as the entries of the u built from them
    assert run_cli(capsys, [route[0], *argv, *route[1:]]) == (1, "", f"error: {message}\n")


def _sized_refusal(family, least):
    """Flags giving each size of ``family`` a value at least ``least[name]`` or below it, one at least below."""

    def drawn(values):
        flags = ["--family", family, *(part for name, value in values.items() for part in (f"--{name}", str(value)))]
        return flags, [(name, str(value)) for name, value in values.items() if value < least[name]]

    sizes = {name: st.integers(low - 3, low + 3) | st.integers(-(10**30), low) for name, low in least.items()}
    return st.fixed_dictionaries(sizes).filter(lambda values: any(values[name] < low for name, low in least.items())).map(drawn)


def _bad_u(u):
    return ["--family", "vector", f"--u={','.join(map(str, u))}"], [("u", repr(tuple(u)))]


def _empty_side_primes(drawn):
    affine, p, q = drawn
    flags = ["--family", "twodim", "--affine", ",".join(map(str, affine)), "--p", str(p), "--q", str(q), "--prime"]
    return flags, [(name, "0") for name, value in (("p", p), ("q", q)) if value == 0]


_FAMILY_REFUSALS = st.one_of(
    _sized_refusal("pq", {"p": 0, "q": 0}),
    _sized_refusal("classical", {"n": 1}),
    _sized_refusal("vector", {"s": 1, "b": 0, "n": 1}),
    # a --u that is empty, holds a 0, or decreases
    st.just([]).map(_bad_u),
    st.lists(st.integers(1, 5), max_size=4).flatmap(lambda u: st.integers(0, len(u)).map(lambda at: u[:at] + [0] + u[at:])).map(_bad_u),
    st.lists(st.integers(1, 5), min_size=2, max_size=5).filter(lambda u: u != sorted(u)).map(_bad_u),
    # primes on an affine grid with an empty side
    st.tuples(st.lists(st.integers(0, 3), min_size=6, max_size=6), st.integers(0, 3), st.integers(0, 3))
    .filter(lambda drawn: 0 in drawn[1:])
    .map(_empty_side_primes),
)


def _run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdout", out := io.StringIO())
        mp.setattr("sys.stderr", err := io.StringIO())
        return main(argv), out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_FAMILY_REFUSALS)
@example((["--family", "vector", "--s", "1", "--b", "-1", "--n", "3"], [("b", "-1")]))  # oracle refused "sequence entries"
@example((["--family", "vector", "--u", "3,2"], [("u", "(3, 2)")]))  # formula refused "b >= 0, got -1"
@example((["--family", "vector", "--u", "0"], [("u", "(0,)")]))  # formula refused "s >= 1, got 0"
@example((["--family", "vector", "--s", "1", "--b", "1", "--n", "0"], [("n", "0")]))  # oracle refused an empty u
@example((["--family", "pq", "--p", "-1", "--q", "3"], [("p", "-1")]))  # formula refused "p and q", with no value
def test_one_refusal_per_input_on_every_route(drawn):
    # the family's rule refuses a parameter out of its range with one line, the same from the closed forms, the oracle
    # and list; the line names a flag given that fails, with its value
    flags, failing = drawn
    routes = (["count", "--method", "formula"], ["count", "--method", "oracle"], ["list"])
    runs = {_run([route[0], *flags, *route[1:]]) for route in routes}
    assert len(runs) == 1, runs
    code, out, err = runs.pop()
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    assert any(re.search(rf"\b{name}\b", err) and err.endswith(f"got {value}\n") for name, value in failing), (err, failing)


_BIG = "1" + "0" * 4999  # past Python's default limit of 4300 digits for an int<->str conversion


def _digits_limit():
    """Python's int<->str digit limit; 0 (none) before 3.10.7."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@contextlib.contextmanager
def _any_digits():
    """The limit lifted, to compare long outputs in the test."""
    limit = _digits_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--family", "classical", "--n", "3000", "--prime"], lambda: vector.count_ppf_arith(1, 1, 3000)),
        (["--family", "pq", "--p", "1500", "--q", "1500"], lambda: pq.count_pq_pf(1500, 1500)),
    ],
    ids=["classical", "pq"],
)
def test_count_prints_a_formula_of_any_length(capsys, argv, expected):
    limit = _digits_limit()
    code, out, err = run_cli(capsys, ["count", *argv, "--method", "formula"])
    assert _digits_limit() == limit  # put back on return: main may run in-process
    with _any_digits():
        assert (code, err, out) == (0, "", f"{expected()}\n") and len(out) > 4300


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "classical", "--n", "3000", "--method", "oracle"],
        ["list", "--family", "classical", "--n", "3000"],
        ["count", "--family", "twodim", "--affine", "1,1,1,1,1,1", "--p", "1000", "--q", "1000", "--method", "oracle"],
    ],
    ids=["count", "list", "twodim"],
)
def test_a_space_of_any_length_exits_three(capsys, argv):
    limit = _digits_limit()
    code, out, err = run_cli(capsys, argv)
    assert _digits_limit() == limit
    assert (code, out) == (3, "") and re.fullmatch(r"error: [0-9]{4301,} candidates exceed the cap of 100000000\n", err)


@pytest.mark.parametrize("route", ["flag", "env"])
def test_a_cap_of_any_length_is_read(capsys, monkeypatch, route):
    argv, limit = ["count", "--family", "classical", "--n", "3", "--method", "oracle"], _digits_limit()
    if route == "flag":
        argv += ["--cap", _BIG]
    else:
        monkeypatch.setenv("PARKFN_SEARCH_CAP", _BIG)
    assert run_cli(capsys, argv) == (0, "16\n", "") and _digits_limit() == limit


_PLAIN_GRID = {"p": 1, "q": 1, "nodes": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]}


@pytest.mark.parametrize(
    "argv, family, flag",
    [
        (["count", "--family", "classical", "--n", "3", "--p", "7"], "classical", "--p"),
        (["count", "--family", "classical", "--n", "3", "--p", "7", "--affine", "1,2"], "classical", "--p"),
        (["list", "--family", "classical", "--n", "2", "--p", "4", "--u", "5"], "classical", "--u"),
        (["count", "--family", "vector", "--u", "1,2", "--s", "1"], "vector", "--s"),
        (["count", "--family", "vector", "--u", "1,1,4", "--s", "2", "--b", "1", "--n", "2"], "vector", "--u"),
        (["count", "--family", "vector", "--u", "1,1,4", "--s", "2", "--b", "1", "--n", "2", "--method", "oracle"], "vector", "--u"),
        (["list", "--family", "vector", "--s", "1", "--b", "1", "--n", "2", "--q", "3"], "vector", "--q"),
        (["count", "--family", "pq", "--p", "1", "--q", "1", "--n", "2", "--method", "oracle"], "pq", "--n"),
        (["count", "--family", "twodim", "--affine", "0,0,0,0,1,1", "--p", "1", "--q", "1", "--s", "2"], "twodim", "--s"),
        (["list", "--family", "twodim", "--matrix-file", "{grid}", "--p", "1"], "twodim", "--p"),
        (["count", "--family", "twodim", "--matrix-file", "{grid}", "--affine", "0,0,0,0,1,1"], "twodim", "--affine"),
    ],
    ids=["classical-p", "classical-p-affine", "classical-p-u", "vector-u-s", "vector-triple-u-formula",
         "vector-triple-u-oracle", "vector-triple-q", "pq-n", "affine-s", "matrix-p", "matrix-affine"],
)
def test_count_and_list_refuse_a_flag_their_family_does_not_read(tmp_path, capsys, argv, family, flag):
    grid = write_instance(tmp_path, _PLAIN_GRID, "grid.json")
    code, out, err = run_cli(capsys, [arg.format(grid=grid) for arg in argv])
    assert (code, out, err) == (1, "", f"error: the {family} family takes no {flag}\n")


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["--family", "classical"], "--n"),
        (["--family", "vector", "--s", "1", "--b", "1"], "--s --b --n or --u"),
        (["--family", "pq", "--p", "1"], "--p --q"),
        (["--family", "twodim", "--affine", "0,0,0,0,1,1", "--q", "1"], "--matrix-file or --affine --p --q"),
    ],
    ids=["classical", "vector", "pq", "twodim"],
)
def test_count_names_the_flag_sets_a_family_is_read_from(capsys, argv, needs):
    family = argv[1]
    assert run_cli(capsys, ["count", *argv]) == (1, "", f"error: the {family} family needs {needs}\n")


@pytest.mark.parametrize("affine", ["", "1,2", "0,0,0,0,1,1,1"])
def test_count_needs_six_affine_weights(capsys, affine):
    code, out, err = run_cli(capsys, ["count", "--family", "twodim", f"--affine={affine}", "--p", "1", "--q", "1"])
    assert (code, out) == (1, "") and err.startswith("error:")


@pytest.mark.parametrize(
    "argv, instance, message",
    [
        (["check", "--family", "classical", "--p", "7", "--affine", "1,2"], {"a": [0, 0]}, "the classical family takes no --p"),
        (["check", "--family", "vector", "--q", "1"], {"a": [0], "u": [1]}, "the vector family takes no --q"),
        (["check", "--family", "pq", "--p", "1", "--q", "1"], {"a": [0], "b": [0]}, "the pq family takes no --p"),
        (["check", "--family", "twodim", "--p", "1", "--q", "1"], {"a": [0], "b": [0], "U": _PLAIN_GRID}, "the twodim family takes no --p"),
        (["check", "--family", "twodim", "--matrix-file", "nope.json"],
         {"a": [0], "b": [0], "affine": {"a": 0, "b": 0, "c": 0, "d": 0, "s": 1, "t": 1, "p": 1, "q": 1}},
         "the twodim family takes no --matrix-file"),
        (["count", "--family", "classical", "--n", "3", "--cap", "1"], None, "count --method formula takes no --cap"),
    ],
    ids=["check-classical", "check-vector", "check-pq", "check-embedded-U", "check-embedded-affine", "count-formula-cap"],
)
def test_a_flag_the_command_does_not_read_exits_one(capsys, monkeypatch, argv, instance, message):
    if instance is not None:
        monkeypatch.setattr("sys.stdin", _FakeStdin(json.dumps(instance)))
    assert run_cli(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "decompose"])
@pytest.mark.parametrize(
    "flags",
    [["--n", "9"], ["--u", "1,2"], ["--s", "1"], ["--b", "1"], ["--p", "1"], ["--q", "1"], ["--affine", "0,0,0,0,1,1"],
     ["--matrix-file", "nope.json"], ["--prime"], ["--increasing"]],
    ids=lambda flags: flags[0],
)
def test_an_option_the_command_never_takes_exits_two(capsys, monkeypatch, command, flags):
    monkeypatch.setattr("sys.stdin", _FakeStdin(json.dumps({"a": [0], "u": [1]})))
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "classical", *flags])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "") and f"unrecognized arguments: {flags[0]}" in captured.err


def _options_in_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"})


def test_each_command_registers_only_the_options_it_reads(capsys):
    options = {command: _options_in_help(capsys, command) for command in ("check", "simulate", "decompose", "count", "list", "verify")}
    family, grid = ["--family"], ["--affine", "--matrix-file", "--p", "--q"]
    counted = family + grid + ["--b", "--cap", "--increasing", "--n", "--prime", "--s", "--u"]
    assert options == {
        "check": sorted(family + grid + ["--file"]),
        "simulate": ["--family", "--file"],
        "decompose": ["--family", "--file"],
        "count": sorted(counted + ["--method"]),
        "list": sorted(counted),
        "verify": ["--cap", "--format", "--suite"],
    }


def test_list_members(capsys):
    code, out, _ = run_cli(capsys, ["list", "--family", "classical", "--n", "2"])
    assert code == 0
    assert out.splitlines() == ['{"a":[0,0]}', '{"a":[0,1]}', '{"a":[1,0]}']
    code, out, _ = run_cli(capsys, ["list", "--family", "pq", "--p", "1", "--q", "1", "--prime"])
    assert out.splitlines() == ['{"a":[0],"b":[0]}']


# -- verify ------------------------------------------------------------------


def test_verify_classical_suite_csv(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "classical"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,params,quantity,formula,oracle,pass"
    assert len(lines) == 25  # header + 6 n-values x 4 quantities
    assert all(line.endswith("True") for line in lines[1:])
    assert "24/24" in err


def test_verify_pq_small_suite(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "pq-small"])
    assert code == 0
    assert "136/136" in err
    assert all(line.endswith("True") for line in out.splitlines()[1:])


# sha256 of `parkfn verify --suite S --format json` stdout, as recorded with the
# benchmark (bench/workloads.py SUITE_DIGESTS); the output must stay byte-identical.
SUITE_DIGESTS = {
    "classical": "656ea79bc9f097f4323f621b44354b83905350282d3231db2444d040bd5bc796",
    "vector-arith": "ca9eca686312b89b910bd1cffdd7a879d6fac753f1a9a5c2bea9e328fc64233d",
    "pq-small": "2445cd0c8d8f462ccb2e5efa18ff73bf32e0b9924c09001fcc62f5397be38dc2",
    "affine-2d": "c3b1219be5b623f2b4f442306cd0232e676c7d116fc19c2eb7d7fc8ee5ff9d90",
}

# sha256 of the default CSV stdout of `parkfn verify --suite S`, recorded before
# verify counted a suite's oracle rows in one batch; it must stay byte-identical too.
CSV_DIGESTS = {
    "classical": "6d2ab017b82685f2b3afdae1030ed3ce3b3fcf1ece466967c09aa6be89972ce1",
    "vector-arith": "980f8ed08da72f97a2d6c90abf577072ef297f7600d12bbbd4e3bea0038c4e1c",
    "pq-small": "cb3894539557ec3425538b88137af7884e97d95adecc15e2137f73c8d53eed19",
    "affine-2d": "2e5f72dfc4cd2bdff9809002b14dff9e2d44ffc97b7b0513ce3fe0210684e3f6",
}


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_verify_json_format_is_stable(capsys, suite):
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[suite]
    doc = json.loads(out)
    assert doc["all_pass"] is True and doc["suite"] == suite and doc["version"] == 1


@pytest.mark.parametrize("suite", sorted(CSV_DIGESTS))
def test_verify_csv_format_is_stable(capsys, suite):
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CSV_DIGESTS[suite]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["verify", "--suite", "nope"])
    assert code == 1 and "unknown suite" in err


def test_verify_suite_is_a_name_not_a_path(capsys, tmp_path):
    # a relative path joined into the package reached any JSON file: {"grids": [5]} gave a TypeError
    (tmp_path / "evil.json").write_text('{"grids": [5]}')
    suites = resources.files("parkfn") / "suites"
    for name in ("../suites/classical", os.path.relpath(tmp_path / "evil", str(suites))):
        code, out, err = run_cli(capsys, ["verify", "--suite", name])
        assert code == 1 and out == "" and "unknown suite" in err, name


def test_verify_disagreement_exit_code(capsys, monkeypatch):
    from parkfn import oracle

    # a reference no closed form takes, for every row
    monkeypatch.setattr(oracle, "count_many", lambda specs, cap: [oracle.EnumerationReport(spec, -1, 0, 0.0) for spec in specs])
    code, out, _ = run_cli(capsys, ["verify", "--suite", "classical"])
    assert code == 2
    rows = out.splitlines()[1:]
    assert len(rows) == 24 and all(row.endswith("False") for row in rows)


def test_verify_builds_one_affine_grid_per_point(capsys, monkeypatch):
    # the four quantities of a point share its WeightMatrix; building it per row took 11664 calls.
    # The 2916 grids share 36 candidate sides; building both sides per grid took 5834 weight calls.
    # The grids fall into 592 groups (p, q, u(p-1, q), v(p, q-1)), keyed by the largest weights their east and
    # north edges carry. The 25 grids of the 9 groups whose edges all weigh 1 have an edge box of one candidate,
    # tested by predicate, and the other 2891 fall into 583 groups, each counted in one stacked sweep. A space
    # read from the corner node sent 16 of the 25 to the sweep, in 588 groups; 852 shapes (p, q, max_u, max_v)
    # took 843.
    from parkfn import oracle, twodim

    calls, build = [], twodim.affine_weight_matrix
    monkeypatch.setattr(twodim, "affine_weight_matrix", lambda spec: calls.append(spec) or build(spec))
    sides, build_side = [], oracle._built_side

    def side(bound, length, rows):
        for arr, weights in build_side(bound, length, rows):
            sides.append((arr.shape, arr.tobytes()))
            yield arr, weights

    monkeypatch.setattr(oracle, "_built_side", side)
    sweeps, stacked = [], oracle._stacked_counts
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: sweeps.append(grids) or stacked(grids))
    oracle._counted.clear()
    oracle._kept_side.cache_clear()
    code, _, err = run_cli(capsys, ["verify", "--suite", "affine-2d"])
    assert code == 0 and "11664/11664" in err
    assert len(calls) == 2916
    assert sides and len(sides) == len(set(sides))
    keys = [{(grid.p, grid.q, *oracle._edge_bounds(grid)) for grid in grids} for grids in sweeps]
    assert len(sweeps) == 583 and all(len(key) == 1 for key in keys)
    assert len(set().union(*keys)) == 583 and sum(map(len, sweeps)) == 2891


def test_verify_memory_stays_bounded():
    # traced peak of the whole affine-2d JSON run, output included: 8.7 MiB when each row was
    # counted on its own; holding every row's FamilySpec, closure and report until output took 17.9
    from parkfn import oracle

    oracle._counted.clear()
    oracle._kept_side.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--suite", "affine-2d", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and hashlib.sha256(out.getvalue().encode()).hexdigest() == SUITE_DIGESTS["affine-2d"]
    assert peak < 10 * 2**20


def test_malformed_instance_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["check", "--family", "pq", "--file", str(path)])
    assert code == 1 and "error" in err


_DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("route", ["file", "stdin"])
def test_check_refuses_deeply_nested_json(tmp_path, capsys, monkeypatch, route):
    # an instance 5000 arrays deep printed a RecursionError traceback and exited 1 only by accident
    document = '{"a": %s, "b": []}' % _DEEP
    argv = ["check", "--family", "pq"]
    if route == "file":
        (tmp_path / "deep.json").write_text(document, encoding="utf-8")
        argv += ["--file", str(tmp_path / "deep.json")]
    else:
        monkeypatch.setattr("sys.stdin", _FakeStdin(document))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "") and err.startswith("error:") and "Traceback" not in err


def test_count_matrix_file_refuses_deeply_nested_json(tmp_path, capsys):
    (tmp_path / "grid.json").write_text('{"p": 0, "q": 0, "nodes": %s}' % _DEEP, encoding="utf-8")
    code, out, err = run_cli(capsys, ["count", "--family", "twodim", "--matrix-file", str(tmp_path / "grid.json")])
    assert (code, out) == (1, "") and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "family,instance,field",
    [("classical", {}, "a"), ("vector", {"a": [0]}, "u"), ("pq", {"a": [0]}, "b"), ("twodim", {"b": [0]}, "a")],
)
def test_missing_instance_field_is_named(capsys, monkeypatch, family, instance, field):
    # a missing field printed only its key: "error: 'u'"
    argv = ["check", "--family", family, "--affine", "0,1,1,0,1,1", "--p", "1", "--q", "1"]
    code, out, err = run_cli(capsys, argv, stdin_obj=instance, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", f"error: the instance is missing field {field!r}\n")


@pytest.mark.parametrize(
    "family,instance",
    [
        ("pq", [1, 2]),
        ("pq", "x"),
        ("vector", {"a": [1.7, 0], "u": [1, 2]}),
        ("vector", {"a": [True, 0], "u": [1, 2]}),
        ("vector", {"a": ["0", 0], "u": [1, 2]}),
        ("vector", {"a": [0, 0], "u": [1, 2.0]}),
        ("pq", {"a": [0], "b": [False]}),
        ("classical", {"a": 3}),
        ("pq", {"a": [0], "b": [0], "p": [1]}),
        ("twodim", {"a": [0], "b": [0], "U": 5}),
        ("twodim", {"a": [0], "b": [0], "U": {"p": 1, "q": 1, "nodes": [[[1]]]}}),
        ("twodim", {"a": [0], "b": [0], "U": {"p": 1, "q": 1, "nodes": [[[1, 1], [True, 1]], [[1, 2], [2, 2]]]}}),
        ("twodim", {"a": [0], "b": [0], "U": {"p": 1, "q": 1, "nodes": [[[1, 1], [1.5, 1]], [[1, 2], [2, 2]]]}}),
        ("twodim", {"a": [0], "b": [0], "affine": [1, 2]}),
        ("twodim", {"a": [0], "b": [0], "affine": {"a": "1", "b": 0, "c": 0, "d": 0, "s": 1, "t": 1, "p": 1, "q": 1}}),
        ("twodim", {"a": [0], "b": [0], "affine": {"a": 0, "b": True, "c": 0, "d": 0, "s": 1, "t": 1, "p": 1, "q": 1}}),
        ("twodim", {"a": [0], "b": [0], "affine": {"a": 0, "b": 0, "c": 0, "d": 0, "s": 1.9, "t": 1, "p": 1, "q": 1}}),
        ("twodim", {"a": [0], "b": [0], "affine": {"a": 0, "b": 0, "c": 0, "d": 0, "s": 1, "t": 1, "p": 1}}),
    ],
)
def test_non_integer_instances_exit_one(capsys, monkeypatch, family, instance):
    code, out, err = run_cli(capsys, ["check", "--family", family], stdin_obj=instance, monkeypatch=monkeypatch)
    assert code == 1 and out == "" and err.startswith("error:")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats(-3, 64) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=12,
)


# Embedded "U"/"affine" grids: their integers stay in the small range above,
# as a grid allocates (p+1)(q+1) nodes.
_GRID_OBJECTS = st.dictionaries(st.sampled_from([*"abcdstpq", "nodes"]), _JSON_VALUES, max_size=9)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["check", "simulate", "decompose"]),
    family=st.sampled_from(["classical", "vector", "pq", "twodim"]),
    instance=st.dictionaries(
        st.sampled_from(["a", "b", "u", "p", "q", "U", "affine"]), _JSON_VALUES | _GRID_OBJECTS, max_size=7
    )
    | _JSON_VALUES,
)
def test_fuzzed_instances_exit_zero_or_one(command, family, instance):
    # only check takes grid flags, and reads them only for a twodim instance that embeds no grid
    argv = [command, "--family", family]
    if (command, family) == ("check", "twodim") and not (isinstance(instance, dict) and {"U", "affine"} & instance.keys()):
        argv += ["--affine", "0,1,1,0,1,1", "--p", "2", "--q", "2"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", _FakeStdin(json.dumps(instance)))
        mp.setattr("sys.stdout", io.StringIO())
        mp.setattr("sys.stderr", io.StringIO())
        assert main(argv) in (0, 1)


def _exit_code(argv, env_cap=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdout", io.StringIO())
        mp.setattr("sys.stderr", io.StringIO())
        if env_cap is not None:
            mp.setenv("PARKFN_SEARCH_CAP", env_cap)
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses a flag value
            return exc.code


_NOT_DECIMAL = st.text(alphabet="0123456789-+_ .ex\t\u0661", max_size=5).filter(
    lambda s: not re.fullmatch(r"-?[0-9]+", s)
)


@settings(max_examples=100, deadline=None)
@given(text=_NOT_DECIMAL)
@example(text="1_0")
@example(text=" 2")
@example(text="+3")
@example(text="2 ")
@example(text="\u0661")
@example(text="--")
def test_integer_flags_take_only_an_optional_minus_and_digits(text):
    # each flag refuses the text with the exit code it gives any non-number
    assert _exit_code(["count", "--family", "pq", f"--p={text}", "--q=1"]) == 2
    assert _exit_code(["count", "--family", "classical", "--n=2", "--method", "oracle", f"--cap={text}"]) == 2
    assert _exit_code(["count", "--family", "twodim", f"--affine={text},0,0,0,1,1", "--p=1", "--q=1"]) == 1
    assert _exit_code(["count", "--family", "vector", f"--u=1,{text}"]) == 1
    assert _exit_code(["count", "--family", "classical", "--n=2", "--method", "oracle"], env_cap=text or "x") == 1


def test_integer_flags_read_decimal_digits(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "twodim", "--affine=00,1,1,0,1,1", "--p=03", "--q", "4"])
    assert (code, out) == (0, "12800\n")
    assert run_cli(capsys, ["count", "--family", "pq", "--p=-1", "--q=1"])[0] == 1


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "parkfn", "count", "--family", "classical", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "125\n"
