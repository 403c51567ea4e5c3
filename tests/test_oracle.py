"""Brute-force oracle: enumeration order, count consistency, bounds, exact reduction."""

import contextlib
import random
import sys
import tracemalloc
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkfn import cli, oracle, pq, twodim, vector
from parkfn.core import Seq, json_ints, shown
from parkfn.errors import SearchSpaceTooLarge
from parkfn.oracle import FamilySpec
from parkfn.pq import u0_matrix
from parkfn.twodim import AffineWeightSpec, affine_weight_matrix
from test_twodim import random_monotone_matrix

SMALL_SPECS = [
    FamilySpec("classical", n=3),
    FamilySpec("classical", n=3, prime=True),
    FamilySpec("classical", n=3, increasing=True),
    FamilySpec("vector", u=(1, 1, 3)),
    FamilySpec("vector", u=(2, 3, 4), prime=True),
    FamilySpec("vector", u=(1, 2, 4), increasing=True, prime=True),
    FamilySpec("pq", p=2, q=3),
    FamilySpec("pq", p=2, q=2, prime=True),
    FamilySpec("pq", p=0, q=3),
    FamilySpec("pq", p=0, q=1, prime=True),  # pq primes with an empty side: the (∅,(0)) / ((0),∅) convention
    FamilySpec("pq", p=1, q=0, prime=True),
    FamilySpec("pq", p=2, q=0, prime=True),
    FamilySpec("pq", p=3, q=2, increasing=True),
    FamilySpec("twodim", weights=u0_matrix(2, 2)),
    FamilySpec("twodim", weights=u0_matrix(2, 2), prime=True),
    FamilySpec("twodim", weights=affine_weight_matrix(AffineWeightSpec(1, 0, 1, 1, 2, 1, 2, 2))),
    FamilySpec("twodim", weights=affine_weight_matrix(AffineWeightSpec(1, 1, 0, 1, 1, 2, 2, 1)), prime=True, increasing=True),
]


def test_enumerate_golden_examples():
    assert list(oracle.enumerate_members(FamilySpec("classical", n=2))) == [
        ((0, 0),),
        ((0, 1),),
        ((1, 0),),
    ]
    assert list(oracle.enumerate_members(FamilySpec("pq", p=1, q=1, prime=True))) == [((0,), (0,))]
    prime_vec = list(oracle.enumerate_members(FamilySpec("vector", u=(1, 2, 3), prime=True)))
    assert len(prime_vec) == 4  # (n-1)^(n-1)


def test_enumerate_is_lexicographic():
    for spec in SMALL_SPECS:
        flattened = [sum(inst, ()) for inst in oracle.enumerate_members(spec)]
        assert flattened == sorted(flattened), spec


def test_enumerated_instances_reverify():
    # no drift between the generator and the module-level predicates
    for inst in oracle.enumerate_members(FamilySpec("vector", u=(1, 2, 4), prime=True)):
        assert vector.is_prime_vector_pf(inst[0], (1, 2, 4))
    for inst in oracle.enumerate_members(FamilySpec("pq", p=2, q=2, prime=True)):
        assert pq.is_pq_prime(pq.PQPair(*inst))
    grid = u0_matrix(2, 2)
    for inst in oracle.enumerate_members(FamilySpec("twodim", weights=grid, prime=True)):
        assert twodim.is_u_prime(inst[0], inst[1], grid, method="direct")


def test_count_equals_enumeration_length():
    for spec in SMALL_SPECS:
        report = oracle.count(spec)
        assert report.count == len(list(oracle.enumerate_members(spec))), spec
        assert report.count <= report.search_space


def test_count_golden_values():
    assert oracle.count(FamilySpec("classical", n=4)).count == 125
    assert oracle.count(FamilySpec("classical", n=4, prime=True)).count == 27
    assert oracle.count(FamilySpec("pq", p=3, q=4)).count == 12800


def _widened_box(spec):
    """(length, entry bound) per sequence, one wider than the oracle's, and the public predicate."""
    if spec.family in ("classical", "vector"):
        test, u = vector.is_prime_vector_pf if spec.prime else vector.is_vector_pf, spec.u or tuple(range(1, spec.n + 1))
        return [(len(u), u[-1] + 1)], lambda a: test(a, u)
    if spec.family == "pq":
        test = pq.is_pq_prime if spec.prime else pq.is_pq_pf
        return [(spec.p, spec.q + 2), (spec.q, spec.p + 2)], lambda a, b: test(pq.PQPair(a, b))
    w = spec.weights
    shapes = [(w.p, w.max_u + 1), (w.q, w.max_v + 1)]
    if spec.prime:
        return shapes, lambda a, b: twodim.is_u_prime(a, b, w, method="direct")
    return shapes, lambda a, b: twodim.is_u_pf(a, b, w)[0]


def test_widened_box_admits_no_new_members():
    # the oracle's entry bounds lose nothing: a box one entry wider per
    # sequence, filtered by the public predicates, holds exactly its members
    for spec in SMALL_SPECS:
        shapes, member = _widened_box(spec)
        found = 0
        for cand in product(*(product(range(bound), repeat=length) for length, bound in shapes)):
            if spec.increasing and any(list(seq) != sorted(seq) for seq in cand):
                continue
            found += member(*cand)
        assert found == oracle.count(spec).count, spec


def test_enumerate_members_streams():
    # the one-entry side of u = (10**6,) used to pool range(10**6) into a tuple before the first member
    for spec, want in ((FamilySpec("classical", n=7), ((0,) * 7,)), (FamilySpec("vector", u=(10**6,)), ((0,),))):
        tracemalloc.start()
        try:
            first = next(oracle.enumerate_members(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == want, spec
        assert peak < 2**20, spec


def test_count_streams_a_one_entry_side():
    # the 10**6 candidates of u = (10**6,) come in blocks counted up a range, at 0.27 MiB traced;
    # building the side whole would hold 16 MB of rows and weights
    oracle._counted.clear()
    tracemalloc.start()
    try:
        total = oracle.count(FamilySpec("vector", u=(10**6,))).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 10**6
    assert peak < 2**20


def test_increasing_counts_match_distinct_multisets():
    for spec in SMALL_SPECS:
        if spec.increasing:
            continue
        plain = set()
        for inst in oracle.enumerate_members(spec):
            plain.add(tuple(tuple(sorted(part)) for part in inst))
        inc_spec = FamilySpec(
            spec.family, spec.prime, True, n=spec.n, u=spec.u, p=spec.p, q=spec.q, weights=spec.weights
        )
        assert oracle.count(inc_spec).count == len(plain), spec


def test_search_space_cap():
    with pytest.raises(SearchSpaceTooLarge):
        oracle.count(FamilySpec("classical", n=12), cap=10_000)
    with pytest.raises(SearchSpaceTooLarge):
        list(oracle.enumerate_members(FamilySpec("classical", n=12), cap=10_000))
    # the cap bounds candidates, not members
    assert oracle.count(FamilySpec("classical", n=3), cap=27).count == 16


@pytest.mark.parametrize(
    "cap", [-1, -(10**5000), True, False, 100.5, "10"],
    ids=["-1", "past-the-digit-limit", "True", "False", "float", "str"],
)
def test_a_negative_cap_is_refused(cap):
    # no space is below a negative cap, the empty one included, and a cap that is no int (a bool, a float, a str) is
    # no cap: each is a ValueError, not a space past the cap
    spec = FamilySpec("classical", n=3)
    for call in (oracle.count, lambda spec, cap: oracle.count_many([spec, spec], cap=cap), oracle.enumerate_members):
        with pytest.raises(ValueError) as raised:
            call(spec, cap=cap)
        assert str(raised.value) == f"the search cap must be an int >= 0, got {shown(cap)}"
        assert not isinstance(raised.value, SearchSpaceTooLarge)
    with pytest.raises(SearchSpaceTooLarge):  # a cap of 0 is a cap that every space exceeds
        oracle.count(spec, cap=0)


def test_pq_grid_is_built_only_to_count_under_the_cap(monkeypatch):
    # u0_matrix(p, q) builds (p+1)(q+1) nodes: a pq spec far over the cap must not reach it, and
    # enumerate_members, which never counts on a grid, must not build one for a shape with an empty side
    monkeypatch.setattr(oracle, "u0_matrix", lambda p, q: pytest.fail("built a pq grid"))
    for run in (oracle.count, lambda spec: list(oracle.enumerate_members(spec))):
        with pytest.raises(SearchSpaceTooLarge):
            run(FamilySpec("pq", p=50, q=50))
    assert list(oracle.enumerate_members(FamilySpec("pq", p=0, q=1000))) == [((), (0,) * 1000)]


def test_pq_shapes_with_an_empty_side_sweep_no_grid(monkeypatch):
    # their one candidate is tested by predicate: count --family pq --p 0 --q 300000 built a
    # 300001-node u0_matrix and swept it one row of numpy calls per unit of q
    monkeypatch.setattr(oracle, "u0_matrix", lambda p, q: pytest.fail("built a pq grid"))
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: pytest.fail("swept a grid"))
    shapes = [(0, 1000), (1, 0), (0, 1), (3, 0)]
    specs = [FamilySpec("pq", prime, increasing, p=p, q=q) for p, q in shapes for prime in (False, True) for increasing in (False, True)]
    assert [report.count for report in oracle.count_many(specs)] == [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0]


def test_a_twodim_grid_with_one_candidate_sweeps_no_grid(monkeypatch):
    # p = 0, q = 30000 with every node (0, 1) took 0.34-0.40 s through the kernel, one row of numpy calls per unit of q
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: pytest.fail("swept a grid"))
    oracle._counted.clear()
    grid = twodim.WeightMatrix(0, 3000, (((0, 1),),) * 3001)
    assert [oracle.count(FamilySpec("twodim", increasing=increasing, weights=grid)).count for increasing in (False, True)] == [1, 1]


def test_a_vector_family_sweeps_one_grid_for_its_four_variants(monkeypatch):
    # the primes ride on the row grid's prime companion, not on a second grid of prime_reduction(u)
    swept, stacked = [], oracle._stacked_counts
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: swept.extend(grids) or stacked(grids))
    oracle._counted.clear()
    specs = [FamilySpec("vector", prime, increasing, u=(1, 3, 4)) for prime in (False, True) for increasing in (False, True)]
    counts = [report.count for report in oracle.count_many(specs)]
    assert len(swept) == 1 and counts == [len(list(oracle.enumerate_members(spec))) for spec in specs]


@pytest.mark.parametrize("row", [((0, 0), (0, 0), (2, 1), (3, 1)), ((0, 1), (1, 1), (1, 1)), ((0, 2), (0, 2))])
def test_twodim_row_grids_with_zero_weights_count_their_members(row):
    # a twodim row may weigh 0, so its prime companion, swept beside it, is built without validate_capacity
    grid = twodim.WeightMatrix(len(row) - 1, 0, (row,))
    for increasing in (False, True):
        spec = FamilySpec("twodim", increasing=increasing, weights=grid)
        oracle._counted.clear()
        assert oracle.count(spec).count == len(list(oracle.enumerate_members(spec))), spec


@contextlib.contextmanager
def _int_max_str_digits(limit):
    """Python's int/str digit limit set to ``limit`` (0: none), and put back."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_HUGE_BOUND_GRID = twodim.WeightMatrix(1, 1, (((0, 0), (0, 0)), ((10**5000, 0), (10**5000, 1))))  # on u(0, 1)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before Python 3.10.7")
@pytest.mark.parametrize(
    "spec, cap, message",
    [
        (FamilySpec("classical", n=3000), None, lambda: f"{3000**3000} candidates exceed the cap of 100000000"),
        (FamilySpec("classical", n=3000), 10**4400, lambda: f"{3000**3000} candidates exceed the cap of {10**4400}"),
        (FamilySpec("twodim", weights=_HUGE_BOUND_GRID), 10**6000,
         lambda: f"an entry bound of {10**5000} exceeds {sys.maxsize}, the largest a sweep can pool"),
    ],
    ids=["space", "cap", "entry-bound"],
)
def test_a_space_error_of_any_length_is_search_space_too_large(spec, cap, message):
    # under the default limit of 4300 digits, where str() refuses these ints, the message is still the unlimited one
    with _int_max_str_digits(0):
        expected = message()
    with _int_max_str_digits(4300), pytest.raises(SearchSpaceTooLarge) as exc:
        oracle.count(spec, cap=cap)
    with _int_max_str_digits(0):
        assert str(exc.value) == expected


_HUGE = 10**5000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before Python 3.10.7")
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FamilySpec("classical", n=-_HUGE), lambda: f"the arithmetic boundary needs an int n >= 1, got {-_HUGE}"),
        (lambda: FamilySpec("pq", p=-_HUGE, q=1), lambda: f"the pq family needs an int p >= 0, got {-_HUGE}"),
        (lambda: FamilySpec("classical", n=3, p=_HUGE), lambda: f"the classical family takes no p, got {_HUGE}"),
        (lambda: FamilySpec("vector", u=(-_HUGE,)), lambda: f"the capacity vector u must hold integers >= 1, got ({-_HUGE},)"),
        (lambda: FamilySpec("vector", u=(2, 1, _HUGE)),
         lambda: f"the capacity vector u must be weakly increasing, got (2, 1, {_HUGE})"),
        (lambda: AffineWeightSpec(0, 1, 1, 0, 1, 1, 1, -_HUGE), lambda: f"the affine grid's 'q' must be an integer >= 0, got {-_HUGE}"),
        (lambda: twodim.WeightMatrix(_HUGE, 0, ()), lambda: f"weight grid must be ({_HUGE + 1}) x (1)"),
        (lambda: json_ints([_HUGE, 1.5], "x"), lambda: f"x must be an array of integers, got [{_HUGE}, 1.5]"),
        (lambda: json_ints({"a": [(_HUGE,)]}, "x"), lambda: f"x must be an array of integers, got {{'a': [({_HUGE},)]}}"),
        (lambda: pq.PQPair.from_json_dict({"a": [0], "b": [], "p": _HUGE}), lambda: f"declared p = {_HUGE} but |a| = 1"),
        (lambda: FamilySpec(_HUGE, n=3), lambda: f"unknown family {_HUGE}"),
    ],
    ids=["classical-n", "pq-p", "unread-p", "vector-u-entry", "vector-u-order", "affine", "grid", "json-list", "json-dict",
         "pq-declared-p", "family"],
)
def test_a_refusal_of_any_length_names_the_value_in_full(make, message):
    # under the default limit of 4300 digits, where str() refuses these ints, the refusal is still the unlimited one
    with _int_max_str_digits(0):
        expected = message()
    with _int_max_str_digits(4300), pytest.raises(ValueError) as exc:
        make()
    with _int_max_str_digits(0):
        assert str(exc.value) == expected


def test_count_many_checks_every_cap_before_counting(monkeypatch):
    swept = []
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: swept.append(grids) or [(0, 0, 0, 0)] * len(grids))
    oracle._counted.clear()
    with pytest.raises(SearchSpaceTooLarge):
        oracle.count_many([FamilySpec("classical", n=3), FamilySpec("classical", n=12)], cap=10_000)
    assert swept == []


def _affine_specs(*grids):
    return [
        FamilySpec("twodim", prime, increasing, weights=affine_weight_matrix(AffineWeightSpec(*grid)))
        for grid in grids
        for prime in ((False, True) if grid[6] and grid[7] else (False,))
        for increasing in (False, True)
    ]


# Specs for the batch: grids that share a group, p = 0 and q = 0 grids, the pq shapes
# with an empty side, counts past int64, and a group whose stack spans several blocks.
BATCH_SPECS = SMALL_SPECS + _affine_specs(
    (1, 0, 0, 1, 2, 2, 2, 2),  # group (2, 2, 3, 3): u(1, 2) = v(2, 1) = 3, with the next two
    (0, 1, 1, 0, 1, 1, 2, 2),
    (0, 0, 0, 0, 3, 3, 2, 2),
    (1, 1, 1, 1, 1, 1, 0, 2),  # p = 0
    (0, 1, 1, 1, 1, 2, 0, 2),  # p = 0, the same shape
    (1, 0, 1, 1, 2, 1, 3, 0),  # q = 0
    (0, 0, 0, 0, 1, 2, 1, 63),  # pf = 2**63: dtype=object
    (1, 2, 3, 2, 3, 5, 3, 3),  # group (3, 3, 11, 18): 286 a-rows, 113 per block of the two
    (2, 1, 2, 3, 4, 6, 3, 3),
)
_LONE_COUNTS: dict = {}


def _lone_count(spec):
    """The count of a spec swept on its own, from cold grid caches."""
    if spec not in _LONE_COUNTS:
        oracle._counted.clear()
        _LONE_COUNTS[spec] = oracle.count(spec, cap=10**30).count
    return _LONE_COUNTS[spec]


def test_batch_specs_cover_a_group_across_blocks():
    a, b = BATCH_SPECS[-8].weights, BATCH_SPECS[-4].weights
    bu, bv = oracle._edge_bounds(a)
    assert a != b and (a.p, a.q, bu, bv) == (b.p, b.q, *oracle._edge_bounds(b))
    rows = oracle._BLOCK_BITS // (64 * -(-comb(bv + a.q - 1, a.q) // 64))
    assert comb(bu + a.p - 1, a.p) > rows // 2  # the stack of two takes half a lone grid's rows


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(BATCH_SPECS), max_size=12), st.randoms(use_true_random=False))
def test_count_many_equals_lone_counts(specs, rng):
    specs += BATCH_SPECS if rng.random() < 0.2 else []
    rng.shuffle(specs)
    oracle._counted.clear()
    reports = oracle.count_many(specs, cap=10**30)
    assert [report.spec for report in reports] == specs
    assert [report.count for report in reports] == [_lone_count(spec) for spec in specs]


def test_count_many_sweeps_a_group_larger_than_one_stack(monkeypatch):
    # with 128-bit blocks a lone grid keeps two a-rows of one word, fewer than a group of three needs: the group
    # is still swept as one stack, in 64-row b-blocks, holding one a-row and one word per grid; the three grids
    # differ, but u(1, 2) = v(2, 1) = 3 on each, so they are one group
    specs = _affine_specs((1, 0, 0, 1, 2, 2, 2, 2), (0, 1, 1, 0, 1, 1, 2, 2), (0, 0, 0, 0, 3, 3, 2, 2))
    want = [_lone_count(spec) for spec in specs]
    sweeps, stacked = [], oracle._stacked_counts
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 128)
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: sweeps.append(len(grids)) or stacked(grids))
    oracle._counted.clear()
    assert [report.count for report in oracle.count_many(specs)] == want
    assert sweeps == [3]


def test_count_many_sweeps_a_large_group_as_one_stack_in_narrower_b_blocks(monkeypatch):
    # with 256-bit blocks a lone grid keeps two a-rows against the 78-row b-side, too few for three grids: the group
    # takes 64-row b-blocks, and each b-block's two weight classes (1 for (x, x), 2 for x < y) start a word each; the
    # laid-out blocks are cut into one-word b-blocks, each packed once for its stack of six; u(1, 2) = 3 and
    # v(2, 1) = 12 on all three grids, and the last one's v(2, l) = 12 spares every b-row
    specs = _affine_specs((1, 0, 1, 2, 2, 8, 2, 2), (0, 1, 2, 1, 1, 7, 2, 2), (0, 0, 0, 0, 3, 12, 2, 2))
    want = [_lone_count(spec) for spec in specs]
    packed_north, laid_blocks, stacks, b_rows = oracle._packed_north, oracle._laid_blocks, [], []

    def spy_north(arr_b, nodes):
        stacks.append((len(arr_b), len(nodes)))
        return packed_north(arr_b, nodes)

    def spy_blocks(bound, length, rows, tops):
        b_rows.append((bound, length, rows))
        return laid_blocks(bound, length, rows, tops)

    monkeypatch.setattr(oracle, "_BLOCK_BITS", 256)
    monkeypatch.setattr(oracle, "_packed_north", spy_north)
    monkeypatch.setattr(oracle, "_laid_blocks", spy_blocks)
    oracle._counted.clear()
    assert [report.count for report in oracle.count_many(specs)] == want
    assert b_rows == [(12, 2, 64)] and stacks == [(64, 6)] * 4  # 64 + 14 rows: 8 + 56, then 4 + 10 per class


def test_count_many_reports_share_their_group_sweep_time():
    specs = _affine_specs((1, 0, 0, 1, 2, 2, 2, 2), (0, 1, 1, 0, 1, 1, 2, 2))  # one group: u(1, 2) = v(2, 1) = 3
    oracle._counted.clear()
    elapsed = {report.elapsed for report in oracle.count_many(specs)}
    assert len(elapsed) == 1 and elapsed.pop() > 0
    assert {report.elapsed for report in oracle.count_many(specs)} == {0.0}  # counted before


def _four_counts(grid):
    """The counts of a grid's defined variants, counted in one batch from cold grid caches."""
    oracle._counted.clear()
    return [report.count for report in oracle.count_many(_grid_variants(grid))]


def _with_corner(grid, corner):
    """The grid with its corner node (p, q) replaced."""
    rows = [list(row) for row in grid.rows]
    rows[-1][-1] = corner
    return twodim.WeightMatrix(grid.p, grid.q, tuple(map(tuple, rows)))


def test_grids_that_differ_only_in_their_corner_are_one_sweep(monkeypatch):
    # no edge leaves the corner (p, q), so its weights bound no entry: the sides are built to u(p-1, q) = 4 and
    # v(p, q-1) = 3, and the two grids share them and one sweep, though max_u and max_v differ
    grid = twodim.WeightMatrix(2, 1, (((1, 0), (2, 1), (2, 3)), ((1, 1), (4, 2), (4, 3))))
    grids = [grid, _with_corner(grid, (7, 5))]
    specs = [spec for weights in grids for spec in _grid_variants(weights)]
    want = [len(list(oracle.enumerate_members(spec))) for spec in specs]
    sweeps, stacked = [], oracle._stacked_counts
    monkeypatch.setattr(oracle, "_stacked_counts", lambda group: sweeps.append(group) or stacked(group))
    oracle._counted.clear()
    assert [report.count for report in oracle.count_many(specs)] == want
    assert sweeps == [grids]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3))
@example(random.Random(4), 2, 2, 3, 0)  # the corner's u alone
@example(random.Random(5), 1, 0, 0, 3)  # q = 0: the corner's v reads no side
def test_raising_the_corner_alone_keeps_the_four_counts(rng, p, q, du, dv):
    # no edge leaves the corner, so the raised grid has the same edge bounds: the same space, the same members in
    # the definition's walk and the same counts from the kernel
    grid = random_monotone_matrix(rng, p, q, 3)
    u, v = grid.rows[-1][-1]
    raised = _with_corner(grid, (u + du, v + dv))
    want = [len(list(oracle.enumerate_members(spec))) for spec in _grid_variants(grid)]
    assert [len(list(oracle.enumerate_members(spec))) for spec in _grid_variants(raised)] == want
    assert _four_counts(raised) == _four_counts(grid) == want
    spaces = [[report.search_space for report in oracle.count_many(_grid_variants(g))] for g in (grid, raised)]
    assert spaces[0] == spaces[1]


def test_a_search_space_is_the_box_below_its_edge_bounds():
    # one entry bound per side, read from the edges of the spec's grid: a twodim grid, U0 for pq, a row grid for a
    # vector family; the pq shapes with an empty side have no grid
    for spec in BATCH_SPECS:
        if spec.family == "pq" and not (spec.p and spec.q):
            continue
        if spec.family == "twodim":
            grid = spec.weights
        elif spec.family == "pq":
            grid = u0_matrix(spec.p, spec.q)
        else:
            grid = oracle._row_grid(spec.u or tuple(range(1, spec.n + 1)))
        sides = tuple(zip(oracle._edge_bounds(grid), (grid.p, grid.q)))
        box = prod(oracle._multisets(*side) if spec.increasing else side[0] ** side[1] for side in sides)
        assert oracle.count(spec, cap=10**30).search_space == box, spec


@pytest.mark.parametrize(
    "rows",
    [
        (((0, 1), (0, 1)), ((0, 1), (5, 1))),  # u(0, 1) = 0: the last east edge, and every other, weighs 0
        (((1, 0), (1, 0)), ((1, 0), (1, 5))),  # v(1, 0) = 0: its north mirror
    ],
    ids=["east", "north"],
)
def test_a_side_whose_last_edge_weighs_0_counts_0_with_no_sweep(monkeypatch, rows):
    # the side's entry bound is its last edge's weight, 0, whatever the corner's 5: the side has no rows, so the
    # nominal space is 0, and the four counts are 0 by predicate, with no sweep
    grid = twodim.WeightMatrix(1, 1, rows)
    monkeypatch.setattr(oracle, "_stacked_counts", lambda grids: pytest.fail("swept a grid"))
    oracle._counted.clear()
    reports = oracle.count_many(_grid_variants(grid))
    assert all(report.search_space == 0 for report in reports)
    assert [report.count for report in reports] == [0, 0, 0, 0]
    assert [len(list(oracle.enumerate_members(spec))) for spec in _grid_variants(grid)] == [0, 0, 0, 0]


def test_family_spec_validation():
    # each refusal is its family's rule, the one line the closed forms and the CLI give, and a ValueError
    refusals = [
        ({"family": "classical"}, "the arithmetic boundary needs an int n >= 1, got None"),
        ({"family": "classical", "n": 0}, "the arithmetic boundary needs an int n >= 1, got 0"),
        ({"family": "vector", "u": ()}, "the capacity vector u must be non-empty, got ()"),
        ({"family": "vector", "u": (3, 2)}, "the capacity vector u must be weakly increasing, got (3, 2)"),
        ({"family": "pq", "p": 2}, "the pq family needs an int q >= 0, got None"),
        ({"family": "twodim", "weights": u0_matrix(0, 2), "prime": True}, "primeness needs p >= 1, got 0"),
        ({"family": "twodim", "weights": u0_matrix(2, 0), "prime": True}, "primeness needs q >= 1, got 0"),
    ]
    for kwargs, line in refusals:
        with pytest.raises(ValueError) as exc:
            FamilySpec(**kwargs)
        assert str(exc.value) == line
    with pytest.raises(ValueError):
        FamilySpec("sandpile", n=3)
    with pytest.raises(ValueError):
        FamilySpec("twodim", weights=5)  # raised AttributeError
    with pytest.raises(ValueError):
        FamilySpec("twodim", weights={"p": 1, "q": 1, "nodes": [[[1, 1], [1, 2]], [[2, 1], [2, 2]]]})
    # a field the family does not read is refused by name; each was silently ignored or replaced
    with pytest.raises(ValueError, match="takes no u"):
        FamilySpec("classical", n=3, u=(9, 9, 9))  # counted 16, as n = 3
    with pytest.raises(ValueError, match="takes no n"):
        FamilySpec("pq", p=1, q=1, n=7, weights=u0_matrix(2, 2))  # counted 3, as p = q = 1
    with pytest.raises(ValueError, match="takes no p"):
        FamilySpec("vector", u=(1, 2), p=5)  # counted 3, as u = (1, 2)


not_ints = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.integers(0, 9).map(str), st.just([1]))


@given(not_ints)
@example(1.5)  # count(pq, p=1.5, q=1) raised a TypeError from range
@example(True)  # pq p=True counted as p = 1 (3 members), classical n=True as n = 1
def test_family_spec_sizes_must_be_ints(value):
    # count builds u0_matrix(p, q) and the one-row grid straight from the spec
    sizes = ({"family": "classical", "n": value}, {"family": "pq", "p": value, "q": 1}, {"family": "pq", "p": 1, "q": value})
    for size in sizes:
        with pytest.raises(ValueError):
            FamilySpec(**size)


@given(st.one_of(st.none(), st.integers(0, 1), st.sampled_from(["yes", "no", ""]), st.floats(allow_nan=False)))
@example("yes")  # count(pq, prime="yes") raised KeyError: ('yes', False)
@example("no")  # count raised KeyError while enumerate_members took increasing="no" as true
def test_family_spec_flags_must_be_bools(value):
    for flags in ({"prime": value}, {"increasing": value}):
        with pytest.raises(ValueError):
            FamilySpec("pq", p=1, q=1, **flags)


def test_twodim_counts_cross_check_scalar_predicates():
    # the vectorized sweep must agree with per-pair predicate filtering
    grid = affine_weight_matrix(AffineWeightSpec(1, 1, 1, 1, 1, 1, 2, 2))
    by_predicate = 0
    for a in product(range(grid.max_u), repeat=2):
        for b in product(range(grid.max_v), repeat=2):
            by_predicate += twodim.is_u_pf(a, b, grid)[0]
    assert oracle.count(FamilySpec("twodim", weights=grid)).count == by_predicate


@pytest.mark.parametrize(
    "grid",
    [
        (0, 0, 0, 0, 1, 2, 1, 63),  # pf = 2**63, one past the int64 range
        (0, 0, 0, 0, 1, 3, 1, 40),  # pf = 3**40 > 2**63
        (0, 0, 0, 0, 1, 4, 1, 40),  # rearrangement weights up to 40! do not fit int64
    ],
)
def test_twodim_counts_past_int64_are_exact(grid):
    aspec = AffineWeightSpec(*grid)
    weights = affine_weight_matrix(aspec)
    counts = [oracle.count(FamilySpec("twodim", prime, weights=weights), cap=10**30).count for prime in (False, True)]
    assert counts == [twodim.count_affine_pf(aspec), twodim.count_affine_ppf(aspec)]
    assert counts[0] >= 2**63


def _grid_variants(weights):
    """The oracle.count specs of every defined variant of a grid (prime needs p, q >= 1)."""
    primes = (False, True) if weights.p >= 1 and weights.q >= 1 else (False,)
    return [FamilySpec("twodim", prime, increasing, weights=weights) for prime in primes for increasing in (False, True)]


def _affine_variants(grid):
    """The oracle.count specs of every defined variant of an affine grid."""
    return _grid_variants(affine_weight_matrix(AffineWeightSpec(*grid)))


@pytest.mark.parametrize(
    "grid",
    [
        (0, 0, 0, 0, 1, 63, 1, 1),  # nb = 63: one word, one pad bit
        (0, 0, 0, 0, 1, 64, 1, 1),  # nb = 64: exactly one word
        (0, 0, 0, 0, 1, 65, 1, 1),  # nb = 65: one bit into a second word
        (1, 1, 1, 1, 1, 1, 0, 4),  # p = 0: the DP starts from the b-block's valid mask and never goes east
        (1, 0, 1, 1, 2, 1, 4, 0),  # q = 0: one empty b-candidate, 63 pad bits
    ],
)
def test_packed_twodim_kernel_edges_match_enumeration(grid):
    for spec in _affine_variants(grid):
        assert oracle.count(spec).count == len(list(oracle.enumerate_members(spec))), (grid, spec)


def test_twodim_kernel_matches_definition_on_non_affine_grids():
    # enumerate_members filters by is_u_pf and is_u_prime(direct), the two-path definition,
    # so the kernel's prime route is checked without the reindexed grid it runs on
    rng = random.Random(7)
    for _ in range(20):
        weights = random_monotone_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), top=4)
        for prime, increasing in product((False, True), repeat=2):
            spec = FamilySpec("twodim", prime, increasing, weights=weights)
            assert oracle.count(spec).count == len(list(oracle.enumerate_members(spec))), (weights.rows, spec)


def test_packed_twodim_kernel_across_blocks_matches_closed_forms():
    # each side is built to the largest weight its edges carry: u(p-1, q) for the a-side, v(p, q-1) for the b-side
    grids = (
        (2, 1, 0, 1, 1, 1, 2, 9),  # a kept a-side of 78 rows, 10 per block, on a b-side built for the grid
        (1, 2, 3, 2, 3, 5, 3, 3),  # both sides kept: 286 a-rows, 227 per block; 326040 sorted pairs mask the b-side
        (4, 1, 0, 1, 3, 1, 4, 2),  # 4845 a-rows, more than are kept: built block by block; 14535 sorted pairs
    )
    laid_sides = []
    for grid in grids:
        aspec, weights = AffineWeightSpec(*grid), affine_weight_matrix(AffineWeightSpec(*grid))
        bu, bv = oracle._edge_bounds(weights)
        na, nb = comb(bu + weights.p - 1, weights.p), comb(bv + weights.q - 1, weights.q)
        assert na > oracle._BLOCK_BITS // (64 * -(-nb // 64))  # the a-candidates span several blocks
        closed = {
            (False, False): twodim.count_affine_pf(aspec),
            (False, True): twodim.count_affine_ipf(aspec),
            (True, False): twodim.count_affine_ppf(aspec),
            (True, True): twodim.count_affine_ippf(aspec),
        }
        oracle._counted.clear()
        oracle._kept_side.cache_clear()
        for spec in _affine_variants(grid):
            assert oracle.count(spec, cap=10**30).count == closed[(spec.prime, spec.increasing)], spec
        kept, info = [n <= oracle._BLOCK_BITS // 64 for n in (na, nb)], oracle._kept_side.cache_info()
        # the two sides differ in (bound, length): a kept a-side keeps its sorted rows, a kept b-side its sorted
        # rows and, unless the sweep masks it (past _BLOCK_BITS sorted pairs, with a dead row), their word layout;
        # a masked sweep takes the companions apart, so the layout is read whole iff the grid's own tops spare every
        # row (the companion's tops are never higher)
        laid = kept[1] and not (na * nb > oracle._BLOCK_BITS and _tops(weights)[1][0] < bv)
        laid_sides.append(laid)
        assert info.currsize == kept[0] + kept[1] + laid, grid
        if kept[1]:
            oracle._kept_side(bv, weights.q, True)  # a missing layout is laid out from the kept sorted rows
            assert oracle._kept_side.cache_info()[:2] == (info.hits + 1, info.misses + (not laid)), grid
    assert laid_sides == [False, False, True]


def test_kept_sides_refuse_writes():
    arr, weights = oracle._kept_side(4, 3)
    assert oracle._kept_side(4, 3)[0] is arr
    for part in (arr, weights, *next(oracle._side_blocks(4, 3, 5)), *oracle._kept_side(4, 3, True)):
        with pytest.raises(ValueError):
            part[0] = 0


def test_kept_sides_retain_at_most_128_sides():
    # 200 distinct one-column sides of 500 to 699 rows: keeping them all would hold 1.8 MiB
    side_bytes = 699 * (1 + 1) * 8  # the largest side's rows of one int64 entry, plus one int64 weight per row
    oracle._kept_side.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for bound in range(500, 700):
            for _ in oracle._side_blocks(bound, 1, oracle._BLOCK_BITS // 64):
                pass
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert oracle._kept_side.cache_info().currsize == 128
    oracle._kept_side.cache_clear()
    assert retained < 128 * (side_bytes + 2**10)


def _rearrangements(sorted_tuple: Seq) -> int:
    """Number of distinct sequences with these order statistics."""
    total = factorial(len(sorted_tuple))
    i = 0
    while i < len(sorted_tuple):
        j = i
        while j < len(sorted_tuple) and sorted_tuple[j] == sorted_tuple[i]:
            j += 1
        total //= factorial(j - i)
        i = j
    return total


def _joined(blocks):
    """The rows and weights of a side's blocks, concatenated."""
    return (np.concatenate(parts) for parts in zip(*blocks))


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 6, 20, 21])  # 20! < 2**63 < 21!
def test_vectorised_weights_match_rearrangements(length):
    rows = list(combinations_with_replacement(range(5), length))
    arr, weights = _joined(oracle._built_side(5, length, 1000))
    assert arr.tolist() == [list(row) for row in rows]
    assert weights.tolist() == [_rearrangements(row) for row in rows]
    assert weights.dtype == (np.int64 if factorial(length) < 2**63 else object)  # int64 at its natural width
    if length >= 20:  # all distinct: the weight is length! itself, the largest a row of its length has
        weights = oracle._weights(np.arange(length, dtype=np.int8)[:, None])
        assert weights.tolist() == [factorial(length)]
        assert weights.dtype == (np.int64 if factorial(length) < 2**63 else object)


@st.composite
def sorted_rows(draw):
    """1 to 20 sorted rows of 0 to 70 entries below a bound of 1 to 300, as a side of that bound holds them: int8
    below bound 128, int64 past it."""
    length, bound = draw(st.integers(0, 70)), draw(st.integers(1, 300))
    row = st.lists(st.integers(0, bound - 1), min_size=length, max_size=length).map(sorted)
    return draw(st.lists(row, min_size=1, max_size=20)), np.int8 if bound < 128 else np.int64


@settings(max_examples=100, deadline=None)
@given(sorted_rows())
@example(([[0] * 70, list(range(70))], np.int8))  # every entry equal: weight 1; all distinct: 70!
@example(([[]], np.int8))  # the empty row
@example(([[5] * 10 + [200] * 10, [1] * 20], np.int64))  # 20 entries, the longest rows with int64 weights
@example(([[0] * 21, [0] * 10 + [1] * 11], np.int8))  # 21 entries: Python ints, though both weights are small
def test_weights_are_the_rearrangements_of_each_row(side):
    # n! over the factorials of the multiplicities, int64 iff n! < 2**63
    rows, dtype = side
    weights = oracle._weights(np.array(rows, dtype).reshape(len(rows), len(rows[0])).T)
    assert weights.tolist() == [_rearrangements(row) for row in rows]
    assert weights.dtype == (np.int64 if factorial(len(rows[0])) < 2**63 else object)


@st.composite
def side_shapes(draw):
    """A side's (bound, length) of at most 20000 rows, and a block size from one row to past the whole side."""
    bound = draw(st.integers(1, 12))
    length = draw(st.integers(0, 22).filter(lambda length: comb(bound + length - 1, length) <= 20000))
    return bound, length, draw(st.integers(max(1, comb(bound + length - 1, length) // 200), 2**12))


@settings(max_examples=60, deadline=None)
@given(side_shapes())
@example((12, 3, 5))  # fewer rows per block than the bound
@example((2, 22, 1))  # one row per block, past 21!
@example((3, 20, 7))  # 20!: int64 weights
@example((3, 21, 50))  # 21!: Python-int weights
@example((7, 1, 3))  # one entry per row, counted up a range
def test_built_side_streams_sorted_rows_and_their_rearrangements(shape):
    bound, length, rows = shape
    blocks = list(oracle._built_side(bound, length, rows))
    assert all(0 < len(arr) <= rows and len(arr) == len(weights) for arr, weights in blocks)
    arr, weights = _joined(blocks)
    want = list(combinations_with_replacement(range(bound), length))
    assert arr.tolist() == [list(row) for row in want]
    assert weights.tolist() == [_rearrangements(row) for row in want]
    assert weights.dtype == (np.int64 if factorial(length) < 2**63 else object)
    assert arr.dtype == np.int8


@st.composite
def masked_sides(draw):
    """A side of 2 to 6 entries and at most 5000 sorted rows, a block of 1 to 64 rows, so blocks cut the runs of
    one head row, and weakly increasing tops, some of them at or past the bound."""
    bound = draw(st.integers(2, 12))
    length = draw(st.integers(2, 6).filter(lambda length: comb(bound + length - 1, length) <= 5000))
    tops = sorted(draw(st.lists(st.integers(0, bound + 1), min_size=length, max_size=length)))
    return bound, length, draw(st.integers(1, 64)), tops


@settings(max_examples=60, deadline=None)
@given(masked_sides())
@example((12, 3, 5, [12, 12, 13]))  # no top below the bound: every row is live
@example((12, 4, 7, [0, 5, 9, 12]))  # a first top of 0: every row is dead
@example((9, 5, 3, [9, 9, 9, 9, 2]))  # only the tail table loses rows
@example((5, 6, 4, [2, 2, 3, 4, 4, 5]))
def test_built_side_joins_only_the_live_rows(side):
    # given tops, a side joins only the live rows of its halves' tables: the rows of the whole side below the tops
    # at every position, in the same order, with the same weights, never more than ``rows`` a block
    bound, length, rows, tops = side
    blocks = list(oracle._built_side(bound, length, rows, np.array(tops, np.int64)))
    assert all(0 < len(arr) <= rows and len(arr) == len(weights) for arr, weights in blocks)
    whole, weights = _joined(oracle._built_side(bound, length, rows))
    live = _below(whole, tops)
    assert [row for arr, _ in blocks for row in arr.tolist()] == whole[live].tolist()
    assert [weight for _, part in blocks for weight in part.tolist()] == weights[live].tolist()


def _slots(valid):
    """The numbers of the set bits of packed words."""
    return np.flatnonzero(np.unpackbits(valid.view(np.uint8), bitorder="little"))


@settings(max_examples=60, deadline=None)
@given(side_shapes())
@example((12, 3, 5))  # fewer rows per block than the bound
@example((10, 3, 4096))  # classes of 120, 90 and 10 rows: the first two span two words each
@example((2, 63, 4096))  # 32 classes of two rows, a word each
@example((3, 21, 50))  # 21!: Python-int word weights
@example((7, 1, 3))  # one entry per row, counted up a range
@example((5, 0, 1))  # the empty side: one empty row
def test_word_layout_starts_each_weight_class_on_a_word(shape):
    bound, length, rows = shape
    plain = list(oracle._built_side(bound, length, rows))
    laid = [oracle._word_layout(*block) for block in plain]
    assert len(laid) == len(plain)
    for (arr, valid, word_weights), (rows_in_order, weights) in zip(laid, plain):
        assert len(arr) == 64 * len(valid) == 64 * len(word_weights) and arr.dtype == rows_in_order.dtype
        assert word_weights.dtype == weights.dtype
        slots = _slots(valid)  # the real rows; every other bit, a pad bit, is 0
        real = [tuple(row) for row in arr[slots].tolist()]
        assert sorted(real) == [tuple(row) for row in rows_in_order.tolist()]  # a permutation of the block's rows
        slot_weights = word_weights[slots // 64]
        assert slot_weights.tolist() == [_rearrangements(row) for row in real]  # each word weighs as its rows do
        for weight in set(slot_weights.tolist()):
            run = slots[slot_weights == weight]  # one class: a run of slots from the first bit of a word
            assert run[0] % 64 == 0 and run.tolist() == list(range(run[0], run[0] + len(run)))


@st.composite
def streamed_sides(draw):
    """A side of 2 to 5000 sorted rows, a b-block size of one to eight words, and weakly increasing tops, some of
    them at or past the bound: under 64-bit blocks any side of more than one row is streamed."""
    bound = draw(st.integers(2, 12))
    length = draw(st.integers(1, 8).filter(lambda length: comb(bound + length - 1, length) <= 5000))
    tops = sorted(draw(st.lists(st.integers(0, bound + 1), min_size=length, max_size=length)))
    return bound, length, 64 * draw(st.integers(1, 8)), tops


@settings(max_examples=60, deadline=None)
@given(streamed_sides())
@example((12, 3, 64, [12, 12, 12]))  # the first top reaches the bound: no row is dead
@example((12, 3, 128, [2, 5, 9]))  # most rows dead, some blocks wholly
@example((10, 1, 64, [0]))  # one entry, every row dead
@example((3, 8, 512, [1, 2, 2, 2, 2, 3, 3, 3]))  # classes of many sizes in one block
def test_laid_blocks_lay_out_the_live_rows_of_a_streamed_side(side):
    # a streamed b-side is built a block at a time, masked to the rows below its tops, then laid out
    bound, length, rows, tops = side
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_BLOCK_BITS", 64)
        blocks = list(oracle._laid_blocks(bound, length, rows, np.array(tops, np.int64)))
    real, weights = [], []
    for arr, valid, word_weights in blocks:
        assert len(arr) == 64 * len(valid) == 64 * len(word_weights) <= rows  # no b-block holds more than rows bits
        slots = _slots(valid)
        slot_weights = word_weights[slots // 64]
        for weight in set(slot_weights.tolist()):
            run = slots[slot_weights == weight]  # one class: a run of slots from the first bit of a word
            assert run[0] % 64 == 0 and run.tolist() == list(range(run[0], run[0] + len(run)))
        real += [tuple(row) for row in arr[slots].tolist()]
        weights += slot_weights.tolist()
    live = [row for row in combinations_with_replacement(range(bound), length) if all(map(int.__lt__, row, tops))]
    assert sorted(real) == live
    assert weights == [_rearrangements(row) for row in real]


def _weighed_members(spec):
    """The plain count of a twodim spec by definition: its increasing members, each weighed by its rearrangements."""
    increasing = FamilySpec("twodim", spec.prime, True, weights=spec.weights)
    return sum(_rearrangements(a) * _rearrangements(b) for a, b in oracle.enumerate_members(increasing, cap=10**30))


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3), st.integers(0, 3), st.integers(1, 4),
       st.sampled_from([64, 128, 256, 2**18]))
@example(random.Random(1), 0, 3, 4, 64)  # p = 0
@example(random.Random(2), 3, 0, 4, 64)  # q = 0: a one-row grid
@example(random.Random(3), 1, 3, 4, 128)  # classes of one, three and six rows on a b-side of 20
def test_kernel_counts_the_members_of_random_grids(rng, p, q, top, block_bits):
    grid = random_monotone_matrix(rng, p, q, top)
    primes = (False, True) if p and q else (False,)
    specs = [FamilySpec("twodim", prime, increasing, weights=grid) for prime in primes for increasing in (False, True)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_BLOCK_BITS", block_bits)
        oracle._counted.clear()
        assert [oracle.count(spec).count for spec in specs] == [len(list(oracle.enumerate_members(spec))) for spec in specs]


@pytest.mark.parametrize(
    "grid, block_bits",
    [
        ((1, 0, 0, 0, 1, 10, 2, 3), 256),  # b-side (10, 3): 1 + 2 + 2 words, cut into b-blocks of 4 across the last class
        ((1, 0, 0, 0, 1, 10, 2, 3), 128),  # streamed in 128-row blocks, each laid out on its own
        ((0, 0, 0, 0, 1, 2, 1, 63), 2**18),  # past 2**63: 64 b-rows in 32 classes, a word each
    ],
)
def test_kernel_weighs_classes_across_words_and_blocks(monkeypatch, grid, block_bits):
    monkeypatch.setattr(oracle, "_BLOCK_BITS", block_bits)
    oracle._counted.clear()
    for spec in _affine_variants(grid):
        space = oracle.count(spec, cap=10**30).search_space
        want = len(list(oracle.enumerate_members(spec))) if space <= 10**5 else _weighed_members(spec)
        assert oracle.count(spec, cap=10**30).count == want, spec


def _tops(*stack):
    """The largest u at (k, q) per column and v at (p, l) per row over a stack of grids of one shape (p, q >= 1)."""
    p, q = stack[0].p, stack[0].q
    return [max(g.rows[q][k][0] for g in stack) for k in range(p)], [max(g.rows[l][p][1] for g in stack) for l in range(q)]


def _below(rows, tops):
    """Which rows lie below ``tops`` at every position."""
    return np.all(np.asarray(rows).reshape(len(rows), len(tops)) < np.array(tops, np.int64), axis=1)


@pytest.mark.parametrize(
    "grid, block_bits, live",
    [
        # a masked kept b-side: the grid sweeps 1638 of 2002 rows on either side, then its prime companion, apart, 429
        ((1, 1, 1, 1, 1, 1, 5, 5), 2**18, [(1638, 1638), (429, 429)]),
        ((2, 1, 0, 1, 1, 1, 2, 9), 2**18, [(75, 4862)]),  # 75 of 78 a-rows against 4862 of 24310 streamed b-rows
        ((1, 1, 1, 1, 1, 1, 2, 3), 2**8, [(14, 28)]),  # both sides streamed: 14 of 15 a-rows, 28 of 35 b-rows
        ((0, 0, 0, 1, 1, 0, 2, 3), 2**6, [(0, 0)]),  # v(p, 0) = 0: every b-row is dead, and no a-block is swept
        # every edge weighs 1: the space is one candidate, counted by predicate, and no stack is swept
        ((1, 0, 0, 0, 1, 1, 1, 3), 2**6, []),
        ((2, 0, 1, 1, 1, 2, 3, 7), 2**18, [(12, 13260)]),  # 12 of 35 a-rows against 13260 of 19448 streamed b-rows
        # a one-entry side's one top is its bound, so the grid keeps all 70 a-rows; its companion, apart, sweeps a
        # streamed one-entry a-side that keeps the rows below its own top, (0,)
        ((0, 69, 1, 0, 1, 1, 1, 1), 2**7, [(70, 2), (1, 1)]),
        # u(0, 3) = 1: the a-side's one row, (0,), is below its top, against 5 of 10 masked b-rows, below v(1, l) = l+1
        ((1, 0, 0, 1, 1, 1, 1, 3), 2**8, [(1, 5)]),
    ],
)
def test_rows_at_or_past_a_top_never_reach_the_dp(monkeypatch, grid, block_bits, live):
    # a sorted a with a[k] >= u(k, q), or b with b[l] >= v(p, l), is no member of any grid of the stack: the kernel
    # drops such rows from an a-side that spans more than one block, and from a b-side that is streamed or swept
    # against more than _BLOCK_BITS sorted pairs; a streamed b-side sweeps the grid and its companion as one stack
    weights = affine_weight_matrix(AffineWeightSpec(*grid))
    companion = twodim.prime_weight_transform(weights)
    side_blocks, laid_blocks, swept = oracle._side_blocks, oracle._laid_blocks, []  # per stack, its a-rows and b-rows

    def spy_side(bound, length, rows, tops=None):
        # only the a-side's blocks: a masked b-side takes its blocks from _side_blocks too, and the two sides may share
        # (bound, length), as at 5,5; on one grid a b-side is asked for _BLOCK_BITS rows, an a-block for fewer
        for arr, wa in side_blocks(bound, length, rows, tops):
            if rows < block_bits:
                swept[-1][0].extend(arr.tolist())
            yield arr, wa

    def spy_laid(*args):
        swept.append(([], []))  # each stack lays out its b-side once, before it sweeps any a-block
        for arr, valid, wb in laid_blocks(*args):
            swept[-1][1].extend(arr[_slots(valid)].tolist())
            yield arr, valid, wb

    monkeypatch.setattr(oracle, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(oracle, "_side_blocks", spy_side)
    monkeypatch.setattr(oracle, "_laid_blocks", spy_laid)
    oracle._counted.clear()
    aspec = AffineWeightSpec(*grid)
    closed = (twodim.count_affine_pf, twodim.count_affine_ipf, twodim.count_affine_ppf, twodim.count_affine_ippf)
    for spec, form in zip(_affine_variants(grid), closed):
        report = oracle.count(spec, cap=10**30)
        assert report.count == (len(list(oracle.enumerate_members(spec))) if report.search_space <= 10**5 else form(aspec))
    assert [(len(a_rows), len(b_rows)) for a_rows, b_rows in swept] == live  # at most one b-block a stack
    # each stack sweeps exactly its own live rows, those below its own tops at every position (the b-side of the
    # last grid is kept and swept whole, but its one row is live)
    for (a_rows, b_rows), stack in zip(swept, [(weights,), (companion,)] if len(live) == 2 else [(weights, companion)]):
        top_a, top_b = _tops(*stack)
        na, nb = (_below(list(combinations_with_replacement(range(bound), len(top))), top).sum()
                  for bound, top in ((weights.max_u, top_a), (weights.max_v, top_b)))
        assert _below(a_rows, top_a).all() and len(a_rows) == (na if b_rows else 0)
        assert _below(b_rows, top_b).all() and len(b_rows) == nb


@st.composite
def kept_b_sweeps(draw):
    """A random monotone grid (p, q >= 1) and a ``_BLOCK_BITS`` under which its b-side is kept (at most
    ``_BLOCK_BITS // 64`` sorted rows) but its sweep spans more than ``_BLOCK_BITS`` sorted pairs, and in some draws
    (q = 1, p <= 2, bv past 64) its a-side is kept too.

    Every node weighs at most 3 but the last east edge, which weighs bu, the last north edge, which weighs bv >= 4,
    and the corner (bu, bv): the sides' bounds.  So the companion's b-row with b[0] >= 3 is dead, and the grid's too
    when q = 2 (at q = 1 its one b-top is bv); bu leaves more than 64 sorted a-rows, as the pairs need, in a space
    small enough to enumerate.
    """
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    both = q == 1 and p <= 2 and draw(st.booleans())  # more than 64 sorted rows a side leaves room to keep both
    bu = draw(st.integers(*{1: (65, 90), 2: (11, 13), 3: (7, 8)}[p]))
    bv = draw(st.integers(*((65, 90) if both else (4, (30, 7)[q - 1]))))
    rows = [list(row) for row in random_monotone_matrix(draw(st.randoms(use_true_random=False)), p, q, 3).rows]
    rows[q][p - 1], rows[q - 1][p], rows[q][p] = (bu, rows[q][p - 1][1]), (rows[q - 1][p][0], bv), (bu, bv)
    na, nb = comb(bu + p - 1, p), comb(bv + q - 1, q)
    least = max(na, nb) if both else nb
    return twodim.WeightMatrix(p, q, tuple(map(tuple, rows))), 64 * draw(st.integers(least, (na * nb - 1) // 64))


@settings(max_examples=25, deadline=None)
@given(kept_b_sweeps())
@example((twodim.WeightMatrix(1, 1, (((0, 2), (1, 4)), ((70, 3), (70, 4)))), 64 * 4))  # 4 b-rows, two live on the companion
@example((twodim.WeightMatrix(1, 1, (((0, 2), (1, 4)), ((140, 3), (140, 4)))), 64 * 4))  # past two blocks of pairs
@example((twodim.WeightMatrix(1, 1, (((0, 2), (1, 70)), ((80, 3), (80, 70)))), 64 * 80))  # both sides kept
@example((twodim.WeightMatrix(2, 2, (((0, 1), (1, 1), (1, 2)), ((0, 1), (2, 1), (2, 9)), ((1, 1), (12, 2), (12, 9)))),
          64 * 45))  # q = 2: the grid drops the b-rows with b[0] >= 2, its companion all but (0, 0)
def test_a_kept_b_side_past_a_block_of_pairs_sweeps_its_live_rows(sweep):
    weights, block_bits = sweep
    bound, length, swept = oracle._edge_bounds(weights)[1], weights.q, []  # per stack, the b-rows that reach its DP
    laid_blocks = oracle._laid_blocks

    def spy_laid(*args):
        swept.append([])
        for arr, valid, wb in laid_blocks(*args):
            swept[-1].extend(tuple(row) for row in arr[_slots(valid)].tolist())
            yield arr, valid, wb

    specs = [FamilySpec("twodim", prime, increasing, weights=weights) for prime in (False, True) for increasing in (False, True)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_BLOCK_BITS", block_bits)
        patch.setattr(oracle, "_laid_blocks", spy_laid)
        laid = oracle._kept_side(bound, length, True)
        before = [part.copy() for part in laid]
        oracle._counted.clear()
        counts = [oracle.count(spec).count for spec in specs]
    assert counts == [len(list(oracle.enumerate_members(spec))) for spec in specs]
    # the grid and its prime companion sweep apart, each on exactly the b-rows below its own tops, each once
    rows = list(combinations_with_replacement(range(bound), length))
    stacks = (weights, twodim.prime_weight_transform(weights))
    assert [sorted(b_rows) for b_rows in swept] == [[row for row in rows if _below([row], _tops(grid)[1])[0]] for grid in stacks]
    # the cached layout of the whole side is the same entry, unchanged and read-only
    assert all(part is kept for part, kept in zip(oracle._kept_side(bound, length, True), laid))
    assert all(np.array_equal(part, copy) and not part.flags.writeable for part, copy in zip(laid, before))


def test_small_and_streamed_b_sweeps_run_as_one_stack(monkeypatch, capsys):
    # a group whose b-side keeps its one cached layout, in a sweep of at most _BLOCK_BITS sorted pairs, as every
    # group of a verify suite does, sweeps its grids and their companions as one stack, and so does a streamed
    # b-side, which would be built twice; a kept b-side masked in a larger sweep sweeps its companions apart
    groups, stacked_counts, stack_sums = [], oracle._stacked_counts, oracle._stack_sums  # per group, its stacks

    def spy_group(grids):
        groups.append(((grids[0].p, grids[0].q, *oracle._edge_bounds(grids[0])), len(grids), []))
        return stacked_counts(grids)

    def spy_stack(nodes, *args):
        groups[-1][2].append(len(nodes))
        return stack_sums(nodes, *args)

    monkeypatch.setattr(oracle, "_stacked_counts", spy_group)
    monkeypatch.setattr(oracle, "_stack_sums", spy_stack)
    oracle._counted.clear()
    assert cli.main(["verify", "--suite", "affine-2d"]) == 0
    capsys.readouterr()
    apart = []
    for (p, q, bu, bv), g, stacks in groups:
        na, nb = comb(bu + p - 1, p), comb(bv + q - 1, q)
        assert nb <= oracle._BLOCK_BITS // 64  # every b-side of the suite is kept
        if p and q and max(64, na) * nb > oracle._BLOCK_BITS:
            apart.append((p, q, bu, bv))
            assert stacks == [g, g]
        else:
            assert stacks == [g * (1 + (p > 0))]
    assert max(g for _, g, _ in groups) > 1
    assert apart == []  # its largest sweep, 364 x 364 sorted pairs, is within a block
    groups.clear()
    grid = (1, 1, 1, 1, 1, 1, 5, 5)  # 2002 x 2002 sorted pairs on a kept b-side with dead rows: two stacks
    assert oracle.count(_affine_variants(grid)[2], cap=10**30).count == twodim.count_affine_ppf(AffineWeightSpec(*grid))
    assert groups == [((5, 5, 10, 10), 1, [1, 1])]
    groups.clear()
    grid = (2, 1, 0, 1, 1, 1, 2, 9)  # 24310 b-rows, streamed
    assert comb(9 + 9 - 1, 9) > oracle._BLOCK_BITS // 64
    assert oracle.count(_affine_variants(grid)[2], cap=10**30).count == twodim.count_affine_ppf(AffineWeightSpec(*grid))
    assert groups == [((2, 9, 12, 9), 1, [2])]  # 78 a-rows and 24310 b-rows: one stack, the grid and its companion


@pytest.mark.parametrize("spec", [FamilySpec("classical", n=5), FamilySpec("vector", u=(1, 3, 5, 7), prime=True)])
def test_a_row_grid_past_a_block_of_pairs_takes_no_b_tops(monkeypatch, spec):
    # a one-row grid (q = 0) has an empty b-side and no b-tops, however many sorted pairs its sweep spans, so it
    # sweeps its grid and companion as one stack: the spy records each stack's b-tops
    laid_blocks, tops = oracle._laid_blocks, []

    def spy_laid(bound, length, rows, top_b=None):
        tops.append(top_b)
        return laid_blocks(bound, length, rows, top_b)

    monkeypatch.setattr(oracle, "_BLOCK_BITS", 64)
    monkeypatch.setattr(oracle, "_laid_blocks", spy_laid)
    oracle._counted.clear()
    u = spec.u or tuple(range(1, spec.n + 1))
    assert comb(u[-1] + len(u) - 1, len(u)) > 64  # the a-side spans several blocks
    variants = [FamilySpec(spec.family, spec.prime, increasing, n=spec.n, u=spec.u) for increasing in (False, True)]
    assert [oracle.count(variant).count for variant in variants] == [len(list(oracle.enumerate_members(variant))) for variant in variants]
    assert tops == [None]


def test_a_side_with_no_dead_row_is_built_as_before(monkeypatch):
    # every u and v of the thin grid (0,0,0,0,9,9) is 9, its bound: no row is dead, so its streamed b-side comes
    # straight from _built_side with no tops, and its kept a-side is built whole
    built_side, calls = oracle._built_side, []

    def spy(bound, length, rows, tops=None):
        calls.append((bound, length, tops))
        return built_side(bound, length, rows, tops)

    grid = (0, 0, 0, 0, 9, 9, 1, 7)
    assert comb(9 + 7 - 1, 7) > oracle._BLOCK_BITS // 64  # 6435 b-rows: streamed
    monkeypatch.setattr(oracle, "_built_side", spy)
    oracle._counted.clear()
    oracle._kept_side.cache_clear()
    spec = FamilySpec("twodim", increasing=True, weights=affine_weight_matrix(AffineWeightSpec(*grid)))
    assert oracle.count(spec).count == twodim.count_affine_ipf(AffineWeightSpec(*grid))
    assert calls == [(9, 7, None), (9, 1, None)]


@pytest.mark.parametrize("grid", [(0, 1, 1, 0, 1, 1, 21, 1), (0, 1, 1, 0, 1, 1, 1, 21)])
def test_sides_weighed_in_python_ints_sweep_an_int64_grid(grid):
    # a side of 21 entries weighs in Python ints (21! > 2**63) though the grid's space fits int64
    aspec, weights = AffineWeightSpec(*grid), affine_weight_matrix(AffineWeightSpec(*grid))
    assert weights.max_u**weights.p * weights.max_v**weights.q < 2**63
    closed = (twodim.count_affine_pf, twodim.count_affine_ipf, twodim.count_affine_ppf, twodim.count_affine_ippf)
    oracle._counted.clear()
    assert [oracle.count(spec).count for spec in _affine_variants(grid)] == [count(aspec) for count in closed]


def test_twodim_kernel_memory_is_bounded():
    # 3003 x 3003 sorted candidate pairs; a bool state per pair took 259 MiB
    weights = affine_weight_matrix(AffineWeightSpec(1, 1, 1, 1, 1, 1, 5, 5))
    oracle._counted.clear()
    oracle._kept_side.cache_clear()
    tracemalloc.start()
    try:
        oracle.count(FamilySpec("twodim", weights=weights), cap=10**30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_blocked_b_side_matches_closed_forms_at_bounded_memory(monkeypatch):
    # 43758 sorted b-candidates of length 10 on 4096-bit blocks: 11 b-blocks of at most 4096 rows,
    # traced at 1.6 MiB; taking the whole b-side as one block peaked at 13.8 MiB
    grid = (0, 1, 1, 0, 8, 8, 1, 10)
    aspec, weights = AffineWeightSpec(*grid), affine_weight_matrix(AffineWeightSpec(*grid))
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 2**12)
    assert comb(weights.max_v + weights.q - 1, weights.q) > 10 * oracle._BLOCK_BITS  # the b-candidates span 11 blocks
    closed = {
        (False, False): twodim.count_affine_pf(aspec),
        (False, True): twodim.count_affine_ipf(aspec),
        (True, False): twodim.count_affine_ppf(aspec),
        (True, True): twodim.count_affine_ippf(aspec),
    }
    oracle._counted.clear()
    oracle._kept_side.cache_clear()
    tracemalloc.start()
    try:
        got = {(spec.prime, spec.increasing): oracle.count(spec, cap=10**30).count for spec in _affine_variants(grid)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == closed
    assert peak < 2**21


def test_pq_prime_grid_matches_is_pq_prime_pointwise():
    # count takes the pq primes from prime_weight_transform(u0_matrix); both predicates
    # depend only on order statistics, so the sorted candidates the kernel sweeps suffice
    for p, q in product(range(1, 5), repeat=2):
        grid = twodim.prime_weight_transform(u0_matrix(p, q))
        for a in combinations_with_replacement(range(q + 1), p):
            for b in combinations_with_replacement(range(p + 1), q):
                assert twodim.is_u_pf(a, b, grid)[0] == pq.is_pq_prime(pq.PQPair(a, b)), (p, q, a, b)


@pytest.mark.parametrize("u", [(1,), (3,), (1, 2, 3, 4), (1, 1, 3), (2, 3, 4), (1, 3, 5, 7), (2, 2, 2, 5)])
def test_vector_row_grids_match_the_predicates_pointwise(u):
    # count takes every variant from u's one-row grid and its prime companion; checked over a box one entry wider
    grid = oracle._family(FamilySpec("vector", u=u), None)[1]
    assert oracle._family(FamilySpec("vector", True, u=u), None)[1] is grid
    companion = oracle._prime_companion(grid)
    assert (grid.p, grid.q, grid.max_u) == (companion.p, companion.q, companion.max_u) == (len(u), 0, u[-1])
    assert [node[0] for node in companion.rows[0][:-1]] == list(vector.prime_reduction(u))
    for row, test in ((grid, vector.is_vector_pf), (companion, vector.is_prime_vector_pf)):
        assert twodim.WeightMatrix(row.p, row.q, row.rows) == row  # built without the check
        for a in product(range(u[-1] + 1), repeat=len(u)):
            assert twodim.is_u_pf(a, (), row)[0] == test(a, u), (u, test, a)


@pytest.mark.parametrize(
    "family,s,b,n",
    [({"family": "classical", "n": 9}, 1, 1, 9), ({"family": "vector", "u": (1, 3, 5, 7, 9, 11)}, 1, 2, 6)],
)
def test_blocked_vector_sweeps_match_closed_forms(family, s, b, n):
    assert comb(s + b * (n - 1) + n - 1, n) > oracle._BLOCK_BITS // 64  # the a-candidates span several blocks
    closed = {
        (False, False): vector.count_pf_arith(s, b, n),
        (False, True): vector.count_ipf_arith(s, b, n),
        (True, False): vector.count_ppf_arith(s, b, n),
        (True, True): vector.count_ippf_arith(s, b, n),
    }
    for (prime, increasing), want in closed.items():
        spec = FamilySpec(**family, prime=prime, increasing=increasing)
        assert oracle.count(spec, cap=10**30).count == want, spec


def test_vector_kernel_memory_is_bounded():
    # 92378 sorted candidates of length 10; building them all before the sweep took 30 MiB
    oracle._counted.clear()
    oracle._kept_side.cache_clear()
    tracemalloc.start()
    try:
        oracle.count(FamilySpec("classical", n=10), cap=10**30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
