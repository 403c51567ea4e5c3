"""Vector parking functions: recognition, simulation, primeness, decomposition, counts."""

from dataclasses import replace
from itertools import accumulate, combinations_with_replacement, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from parkfn import vector
from parkfn.core import Point
from parkfn.errors import InconsistentDecomposition, LengthMismatch, NotParkingFunction


def brute_pf(u, increasing=False, prime=False):
    """Independent reference count: test every candidate below the top boundary."""
    n, bound = len(u), u[-1]
    candidates = combinations_with_replacement(range(bound), n) if increasing else product(range(bound), repeat=n)
    member = vector.is_prime_vector_pf if prime else vector.is_vector_pf
    return sum(1 for a in candidates if member(a, u))


def all_capacity_vectors(n, max_entry):
    return combinations_with_replacement(range(1, max_entry + 1), n)


# -- recognition -------------------------------------------------------------


def test_is_vector_pf_examples():
    assert vector.is_vector_pf((0, 2, 0), (1, 1, 3))
    assert not vector.is_vector_pf((1,), (1,))
    assert vector.is_vector_pf((6, 0, 1, 0, 0), (1, 1, 3, 3, 9))


def test_is_vector_pf_length_mismatch():
    with pytest.raises(LengthMismatch):
        vector.is_vector_pf((0, 0), (1,))


def test_classical_boundary_reproduces_classical_test():
    # with u_i = i+1 the test is the classical one: sorted a_(i) <= i
    u = (1, 2, 3, 4)
    for a in product(range(4), repeat=4):
        classical = all(x <= i for i, x in enumerate(sorted(a)))
        assert vector.is_vector_pf(a, u) == classical


def test_capacity_vector_validation():
    with pytest.raises(ValueError):
        vector.validate_capacity(())
    with pytest.raises(ValueError):
        vector.validate_capacity((0, 1))
    with pytest.raises(ValueError):
        vector.validate_capacity((2, 1))


# -- parking process ---------------------------------------------------------


def test_simulation_golden_example():
    outcome = vector.simulate_capacity_parking((6, 0, 1, 0, 0), (1, 1, 3, 3, 9))
    assert outcome.success and outcome.assignment == (8, 0, 2, 0, 2)


def test_simulation_trivial_and_failure():
    assert vector.simulate_capacity_parking((0,), (1,)).assignment == (0,)
    failed = vector.simulate_capacity_parking((8, 8, 0, 0, 0), (1, 1, 3, 3, 9))
    assert not failed.success and failed.failed_car == 1


def test_simulation_respects_capacities():
    # spot j may never hold more cars than the multiplicity of j+1 in u
    u = (1, 1, 3, 3, 9)
    outcome = vector.simulate_capacity_parking((0, 0, 2, 2, 2), u)
    assert outcome.success
    for spot in set(outcome.assignment):
        assert outcome.assignment.count(spot) <= u.count(spot + 1)


def test_simulation_agrees_with_inequalities():
    for u in all_capacity_vectors(3, 4):
        for a in product(range(u[-1] + 1), repeat=3):
            assert vector.simulate_capacity_parking(a, u).success == vector.is_vector_pf(a, u)


# -- primeness ---------------------------------------------------------------


def test_is_prime_examples():
    assert vector.is_prime_vector_pf((0, 1, 0), (1, 2, 3))
    assert not vector.is_prime_vector_pf((0, 3, 1, 0), (1, 2, 3, 4))
    assert vector.is_prime_vector_pf((0,), (1,))


def test_prime_reduction_examples():
    assert vector.prime_reduction((1, 2, 3)) == (1, 1, 2)
    assert vector.prime_reduction((2, 3, 4)) == (2, 2, 3)
    assert vector.prime_reduction((1, 2, 4, 5, 7, 8)) == (1, 1, 2, 4, 5, 7)


def test_prime_reduction_equivalence_exhaustive():
    for n in range(1, 5):
        for u in all_capacity_vectors(n, 4):
            reduced = vector.prime_reduction(u)
            for a in product(range(u[-1]), repeat=n):
                assert vector.is_prime_vector_pf(a, u) == vector.is_vector_pf(a, reduced)


def test_remove_entry_characterization():
    # prime iff some entry is < u_0 and removing any such entry leaves a
    # parking function for the boundary without its top entry
    for n in range(2, 5):
        for u in all_capacity_vectors(n, 4):
            head = u[:-1]
            for a in product(range(u[-1]), repeat=n):
                if not vector.is_vector_pf(a, u):
                    continue
                removable = [i for i, x in enumerate(a) if x < u[0]]
                via_removal = bool(removable) and all(
                    vector.is_vector_pf(a[:i] + a[i + 1 :], head) for i in removable
                )
                assert vector.is_prime_vector_pf(a, u) == via_removal, (a, u)


# -- decomposition -----------------------------------------------------------


def test_split_points_examples():
    got = vector.split_points((0, 0, 3, 3, 4, 7), (1, 2, 4, 5, 7, 8))
    assert got == (Point(0, 0), Point(2, 2), Point(7, 5), Point(8, 6))
    assert vector.split_points((0, 3, 1, 0), (1, 2, 3, 4)) == (Point(0, 0), Point(3, 3), Point(4, 4))
    # a prime instance touches the marker set only at the two endpoints
    assert vector.split_points((0, 1, 0), (1, 2, 3)) == (Point(0, 0), Point(3, 3))


def test_split_points_rejects_non_members():
    with pytest.raises(NotParkingFunction):
        vector.split_points((2, 2), (1, 2))


def test_decompose_golden_six_car_example():
    d = vector.decompose((7, 3, 0, 4, 0, 3), (1, 2, 4, 5, 7, 8))
    assert [sorted(c.positions) for c in d.components] == [[2, 4], [1, 3, 5], [0]]
    assert [c.a for c in d.components] == [(0, 0), (1, 2, 1), (0,)]
    assert [c.u for c in d.components] == [(1, 2), (2, 3, 5), (1,)]
    assert d.offsets == (0, 2, 7)
    assert vector.compose(d) == ((7, 3, 0, 4, 0, 3), (1, 2, 4, 5, 7, 8))


def test_decompose_golden_classical_example():
    d = vector.decompose((0, 3, 1, 0), (1, 2, 3, 4))
    assert [c.a for c in d.components] == [(0, 1, 0), (0,)]
    assert [sorted(c.positions) for c in d.components] == [[0, 2, 3], [1]]
    assert vector.compose(d) == ((0, 3, 1, 0), (1, 2, 3, 4))


def test_decompose_prime_input_is_single_component():
    d = vector.decompose((0, 1, 0), (1, 2, 3))
    assert len(d.components) == 1
    assert d.components[0].a == (0, 1, 0) and d.offsets == (0,)


def test_decompose_round_trip_and_component_primeness_exhaustive():
    for n in range(1, 5):
        for u in all_capacity_vectors(n, 4):
            for a in product(range(u[-1]), repeat=n):
                if not vector.is_vector_pf(a, u):
                    continue
                d = vector.decompose(a, u)
                assert vector.compose(d) == (a, u)
                assert len(d.components) == len(vector.split_points(a, u)) - 1
                for comp in d.components:
                    assert vector.is_prime_vector_pf(comp.a, comp.u)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs))),
    st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple),
)))
def test_decompose_round_trip_random(case):
    u, a = case
    if not vector.is_vector_pf(a, u):
        return
    assert vector.compose(vector.decompose(a, u)) == (a, u)


def test_compose_rejects_inconsistent_input():
    d = vector.decompose((0, 3, 1, 0), (1, 2, 3, 4))
    broken = vector.VectorPrimeDecomposition(d.components, (0, 99))
    with pytest.raises(InconsistentDecomposition):
        vector.compose(broken)
    overlapping = vector.VectorPrimeDecomposition((d.components[0], d.components[0]), d.offsets)
    with pytest.raises(InconsistentDecomposition):
        vector.compose(overlapping)
    first = d.components[0]
    with pytest.raises(InconsistentDecomposition):  # sizes disagree
        vector.compose(replace(d, components=(replace(first, u=first.u[:-1]), *d.components[1:])))
    # positions and offsets equal to the right ints but of another type
    for positions in ({False, 2, 3}, {0.0, 2, 3}):
        comp = replace(first, positions=frozenset(positions))
        with pytest.raises(InconsistentDecomposition):
            vector.compose(replace(d, components=(comp, *d.components[1:])))
    for offsets in ((0.0, 3), (False, 3), (0, 3.0)):
        with pytest.raises(InconsistentDecomposition):
            vector.compose(replace(d, offsets=offsets))


@st.composite
def vector_members(draw):
    """A member with its boundary: entry i drawn below u[i], then shuffled."""
    u = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))))
    return tuple(draw(st.permutations([draw(st.integers(0, x - 1)) for x in u]))), u


POSITION_CORRUPTIONS = ("move", "duplicate", "drop", "out_of_range", "bool_position", "float_position", "str_position")
ENTRY_CORRUPTIONS = {"bool": lambda x: x > 0, "float": float, "negative": lambda x: -1 - x}


def retyped(x, pick):
    """``x`` as the float equal to it, or, when it is 0 or 1, possibly as the equal bool."""
    return pick([float(x), bool(x)] if x in (0, 1) else [float(x)])


def corrupt_positions(comps, field, n, corruption, pick):
    """``comps`` with one position of their ``field`` sets moved to another component, duplicated into one, dropped,
    put out of range, or replaced by the bool or float equal to it or by its str."""
    sets = [set(getattr(comp, field)) for comp in comps]
    held = [i for i, positions in enumerate(sets) if positions]
    others = {"move": range(len(sets)), "duplicate": held}.get(corruption)
    assume(held and (others is None or len(others) > 1))
    i = pick(held)
    x = pick(sorted(sets[i]))
    if corruption == "move":
        sets[i].remove(x)
        sets[pick([j for j in others if j != i])].add(x)
    elif corruption == "duplicate":  # x takes the place of one of another component's positions
        j = pick([j for j in others if j != i])
        sets[j].remove(pick(sorted(sets[j])))
        sets[j].add(x)
    else:
        sets[i].remove(x)
        if corruption == "out_of_range":
            sets[i].add(pick([-1, n, n + 3]))
        elif corruption == "str_position":
            sets[i].add(str(x))
        elif corruption != "drop":
            assume(corruption == "float_position" or x < 2)
            sets[i].add(bool(x) if corruption == "bool_position" else float(x))
    return [replace(comp, **{field: frozenset(positions)}) for comp, positions in zip(comps, sets)]


def corrupt_entry(comps, fields, corruption, pick):
    """``comps`` with one entry of one of their ``fields`` made a bool, a float or negative."""
    i, field = pick([(i, field) for i, comp in enumerate(comps) for field in fields if getattr(comp, field)])
    entries = list(getattr(comps[i], field))
    k = pick(range(len(entries)))
    entries[k] = ENTRY_CORRUPTIONS[corruption](entries[k])
    return comps[:i] + [replace(comps[i], **{field: tuple(entries)})] + comps[i + 1 :]


@given(
    vector_members(),
    st.sampled_from(("reorder", "offset", "offset_type", *POSITION_CORRUPTIONS, *ENTRY_CORRUPTIONS)),
    st.data(),
)
def test_compose_rejects_every_single_corruption(member, corruption, data):
    # the entry checks raise ValueError, every structural one InconsistentDecomposition
    pick = lambda values: data.draw(st.sampled_from(values))
    d = vector.decompose(*member)
    comps, offsets = list(d.components), list(d.offsets)
    if corruption == "reorder":  # adjacent components of different widths, so the offsets no longer chain
        swaps = [i for i in range(len(comps) - 1) if comps[i].u[-1] != comps[i + 1].u[-1]]
        assume(swaps)
        i = pick(swaps)
        comps[i : i + 2] = comps[i + 1], comps[i]
    elif corruption == "offset":
        offsets[pick(range(len(offsets)))] += pick([-1, 1])
    elif corruption == "offset_type":
        k = pick(range(len(offsets)))
        offsets[k] = retyped(offsets[k], pick)
    elif corruption in ENTRY_CORRUPTIONS:
        comps = corrupt_entry(comps, ("a", "u"), corruption, pick)
    else:
        comps = corrupt_positions(comps, "positions", len(member[0]), corruption, pick)
    with pytest.raises(ValueError if corruption in ENTRY_CORRUPTIONS else InconsistentDecomposition):
        vector.compose(vector.VectorPrimeDecomposition(tuple(comps), tuple(offsets)))


@given(vector_members())
def test_split_points_are_the_cut_points_of_decompose(member):
    d = vector.decompose(*member)
    heights = accumulate((len(comp.a) for comp in d.components), initial=0)
    assert vector.split_points(*member) == tuple(map(Point, (*d.offsets, member[1][-1]), heights))


# -- counting formulas -------------------------------------------------------


@pytest.mark.parametrize(
    "s,b,n,expected",
    [(1, 1, 4, 125), (1, 0, 3, 1), (2, 1, 2, 8)],
)
def test_count_pf_arith(s, b, n, expected):
    assert vector.count_pf_arith(s, b, n) == expected
    assert brute_pf(tuple(s + b * i for i in range(n))) == expected


@pytest.mark.parametrize(
    "s,b,n,expected",
    [(1, 1, 4, 14), (3, 2, 1, 3), (2, 1, 2, 5)],
)
def test_count_ipf_arith(s, b, n, expected):
    assert vector.count_ipf_arith(s, b, n) == expected
    assert brute_pf(tuple(s + b * i for i in range(n)), increasing=True) == expected


@pytest.mark.parametrize(
    "s,b,n,expected",
    [(1, 1, 4, 5), (2, 1, 2, 3), (1, 1, 1, 1)],
)
def test_count_ippf_arith(s, b, n, expected):
    assert vector.count_ippf_arith(s, b, n) == expected
    assert brute_pf(tuple(s + b * i for i in range(n)), increasing=True, prime=True) == expected


@pytest.mark.parametrize(
    "s,b,n,expected",
    [(1, 1, 4, 27), (1, 1, 1, 1), (2, 1, 3, 20)],
)
def test_count_ppf_arith(s, b, n, expected):
    assert vector.count_ppf_arith(s, b, n) == expected
    assert brute_pf(tuple(s + b * i for i in range(n)), prime=True) == expected


def test_counts_match_brute_force_on_grid():
    for s in (1, 2, 3):
        for b in (0, 1, 2):
            for n in (1, 2, 3):
                u = tuple(s + b * i for i in range(n))
                assert vector.count_pf_arith(s, b, n) == brute_pf(u)
                assert vector.count_ipf_arith(s, b, n) == brute_pf(u, increasing=True)
                assert vector.count_ppf_arith(s, b, n) == brute_pf(u, prime=True)
                assert vector.count_ippf_arith(s, b, n) == brute_pf(u, increasing=True, prime=True)


def test_count_preconditions():
    with pytest.raises(ValueError, match="^the arithmetic boundary needs an int s >= 1, got 0$"):
        vector.count_pf_arith(0, 1, 3)
    with pytest.raises(ValueError, match="^the arithmetic boundary needs an int b >= 0, got -1$"):
        vector.count_ipf_arith(1, -1, 3)
    # n >= 1 in all four closed forms, as for capacity vectors and the oracle; the refusal names n and its value
    for formula in (vector.count_pf_arith, vector.count_ipf_arith, vector.count_ppf_arith, vector.count_ippf_arith):
        with pytest.raises(ValueError, match="^the arithmetic boundary needs an int n >= 1, got 0$"):
            formula(1, 1, 0)
