"""(p,q)-parking functions: dual recognition routes, primeness, decomposition, counts."""

from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from parkfn import pq
from parkfn.core import Point, common_points
from parkfn.errors import InconsistentDecomposition, NotParkingFunction
from parkfn.pq import PQPair
from parkfn.twodim import prime_weight_transform
from test_vector import ENTRY_CORRUPTIONS, POSITION_CORRUPTIONS, corrupt_entry, corrupt_positions, retyped


def all_pairs(p, q):
    """Every candidate pair within the sufficient entry bounds a_j <= q, b_j <= p."""
    for a in product(range(q + 1), repeat=p):
        for b in product(range(p + 1), repeat=q):
            yield PQPair(a, b)


# -- membership --------------------------------------------------------------


def test_is_pq_pf_examples():
    assert pq.is_pq_pf(PQPair((3, 0, 3), (1, 0, 1, 0)))
    assert not pq.is_pq_pf(PQPair((0, 3, 3), (0, 0, 2, 2)))
    assert pq.is_pq_pf(PQPair((), (0, 0)))
    assert not pq.is_pq_pf(PQPair((), (0, 1)))
    assert pq.is_pq_pf(PQPair((), ()))


def test_path_route_on_examples():
    good = PQPair((3, 0, 3), (1, 0, 1, 0))
    assert good.vertical_path().steps == "NNENNEE"
    assert good.reflected_horizontal_path().steps == "ENNNEEN"
    assert pq.is_pq_pf_by_paths(good)
    bad = PQPair((0, 3, 3), (0, 0, 2, 2))
    assert bad.vertical_path().steps == "NNEENNE"
    assert not pq.is_pq_pf_by_paths(bad)


def test_inequality_and_path_routes_agree_exhaustively():
    for p, q in product(range(4), range(4)):
        for pair in all_pairs(p, q):
            assert pq.is_pq_pf(pair) == pq.is_pq_pf_by_paths(pair), pair


def test_entry_bounds_are_sufficient():
    # any member has a_j <= q and b_j <= p, so the enumeration bounds lose nothing
    for p, q in ((2, 2), (3, 2)):
        for pair in all_pairs(p, q):
            if pq.is_pq_pf(pair):
                assert all(x <= q for x in pair.a) and all(x <= p for x in pair.b)
    assert not pq.is_pq_pf(PQPair((3,), (0, 0)))  # just beyond the bound at (1,2)


def test_degenerate_shapes():
    assert pq.is_pq_pf(PQPair((0, 0, 0), ()))
    assert not pq.is_pq_pf(PQPair((0, 1), ()))


# -- primeness ---------------------------------------------------------------


def test_is_pq_prime_examples():
    assert pq.is_pq_prime(PQPair((0, 0, 3), (0, 0, 1, 1)))
    assert not pq.is_pq_prime(PQPair((3, 0, 3), (1, 0, 1, 0)))
    assert pq.is_pq_prime(PQPair((), (0,)))
    assert not pq.is_pq_prime(PQPair((), (0, 0)))
    assert pq.is_pq_prime(PQPair((0,), ()))
    assert not pq.is_pq_prime(PQPair((), ()))


def test_prime_symmetry():
    for p, q in product(range(4), range(4)):
        for pair in all_pairs(p, q):
            swapped = PQPair(pair.b, pair.a)
            assert pq.is_pq_prime(pair) == pq.is_pq_prime(swapped)


def test_three_way_equivalence_on_parking_functions():
    """Prime <=> paths share only the corners <=> dropping a 0 from both sides leaves a member."""
    from parkfn.core import common_points

    for p, q in product(range(1, 4), range(1, 4)):
        for pair in all_pairs(p, q):
            if not pq.is_pq_pf(pair):
                continue
            prime = pq.is_pq_prime(pair)
            corners = common_points(pair.reflected_horizontal_path(), pair.vertical_path())
            only_corners = corners == (Point(0, 0), Point(p, q))
            assert prime == only_corners, pair
            if 0 in pair.a and 0 in pair.b:
                ia, ib = pair.a.index(0), pair.b.index(0)
                reduced = PQPair(pair.a[:ia] + pair.a[ia + 1 :], pair.b[:ib] + pair.b[ib + 1 :])
                assert prime == pq.is_pq_pf(reduced), pair
            else:
                assert not prime


# -- decomposition -----------------------------------------------------------


def test_decompose_golden_five_component_example():
    d = pq.decompose_pq(PQPair((3, 0, 3, 2, 3, 0), (6, 1, 0, 5, 0)))
    shapes = [(c.a, c.b) for c in d.components]
    assert shapes == [((0, 2, 0), (1, 0, 0)), ((0,), ()), ((0,), ()), ((0,), (0,)), ((), (0,))]
    assert sorted(d.components[0].a_positions) == [1, 3, 5]
    assert sorted(d.components[0].b_positions) == [1, 2, 4]
    assert [sorted(c.a_positions) for c in d.components[1:]] == [[0], [2], [4], []]
    assert [sorted(c.b_positions) for c in d.components[1:]] == [[], [], [3], [0]]
    assert pq.compose_pq(d) == PQPair((3, 0, 3, 2, 3, 0), (6, 1, 0, 5, 0))


def test_decompose_increasing_example_shapes():
    d = pq.decompose_pq(PQPair((0, 0, 2, 3, 3, 3), (0, 0, 1, 5, 6)))
    assert [(len(c.a), len(c.b)) for c in d.components] == [(3, 3), (1, 0), (1, 0), (1, 1), (0, 1)]
    assert d.components[1].b == () and d.components[4].a == ()


def test_decompose_prime_input_is_identity():
    pair = PQPair((0, 0, 3), (0, 0, 1, 1))
    d = pq.decompose_pq(pair)
    assert len(d.components) == 1
    assert (d.components[0].a, d.components[0].b) == (pair.a, pair.b)


def test_decompose_rejects_non_members():
    with pytest.raises(NotParkingFunction):
        pq.decompose_pq(PQPair((0, 3, 3), (0, 0, 2, 2)))


def test_round_trip_and_component_primeness_exhaustive():
    for p, q in product(range(4), range(4)):
        for pair in all_pairs(p, q):
            if not pq.is_pq_pf(pair):
                continue
            d = pq.decompose_pq(pair)
            assert pq.compose_pq(d) == pair, pair
            for comp in d.components:
                assert pq.is_pq_prime(PQPair(comp.a, comp.b)), (pair, comp)
            deltas = [(len(c.a), len(c.b)) for c in d.components]
            assert (sum(x for x, _ in deltas), sum(y for _, y in deltas)) == (p, q)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_round_trip_random(p, q, data):
    a = tuple(data.draw(st.lists(st.integers(0, q), min_size=p, max_size=p)))
    b = tuple(data.draw(st.lists(st.integers(0, p), min_size=q, max_size=q)))
    pair = PQPair(a, b)
    if pq.is_pq_pf(pair):
        assert pq.compose_pq(pq.decompose_pq(pair)) == pair


@st.composite
def pq_members(draw, max_side=7):
    """A member drawn along a random path: the E step at height l takes an
    entry <= l, the N step at column k an entry <= k; empty sides included."""
    p, q = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    a, b = [], []
    for step in draw(st.permutations("E" * p + "N" * q)):
        if step == "E":
            a.append(draw(st.integers(0, len(b))))
        else:
            b.append(draw(st.integers(0, len(a))))
    return PQPair(tuple(draw(st.permutations(a))), tuple(draw(st.permutations(b))))


@given(pq_members())
def test_cut_points_are_the_common_points_of_the_two_paths(pair):
    assert pq.is_pq_pf(pair)
    cuts = pq.decompose_pq(pair).cut_points
    assert cuts == common_points(pair.reflected_horizontal_path(), pair.vertical_path())


def test_compose_rejects_inconsistent_input():
    d = pq.decompose_pq(PQPair((3, 0, 3, 2, 3, 0), (6, 1, 0, 5, 0)))
    shuffled = pq.PQPrimeDecomposition(d.components[::-1], d.cut_points)
    with pytest.raises(InconsistentDecomposition):
        pq.compose_pq(shuffled)


@given(
    pq_members(),
    st.sampled_from(("reorder", "offset", "offset_type", *POSITION_CORRUPTIONS, *ENTRY_CORRUPTIONS)),
    st.data(),
)
def test_compose_rejects_every_single_corruption(pair, corruption, data):
    # the entry checks raise ValueError, every structural one InconsistentDecomposition
    pick = lambda values: data.draw(st.sampled_from(values))
    d = pq.decompose_pq(pair)
    comps, cuts = list(d.components), list(d.cut_points)
    if corruption == "reorder":  # adjacent components of different shapes, so the cut points no longer chain
        shape = lambda comp: (len(comp.a), len(comp.b))
        swaps = [i for i in range(len(comps) - 1) if shape(comps[i]) != shape(comps[i + 1])]
        assume(swaps)
        i = pick(swaps)
        comps[i : i + 2] = comps[i + 1], comps[i]
    elif corruption == "offset":
        i = pick(range(len(cuts)))
        cuts[i] = Point(*(c + step for c, step in zip(cuts[i], pick([(-1, 0), (1, 0), (0, -1), (0, 1)]))))
    elif corruption == "offset_type":
        i, j = pick(range(len(cuts))), pick([0, 1])
        cuts[i] = cuts[i]._replace(**{"xy"[j]: retyped(cuts[i][j], pick)})
    elif corruption in ENTRY_CORRUPTIONS:
        assume(comps)
        comps = corrupt_entry(comps, ("a", "b"), corruption, pick)
    else:
        field, n = pick([("a_positions", pair.p), ("b_positions", pair.q)])
        comps = corrupt_positions(comps, field, n, corruption, pick)
    with pytest.raises(ValueError if corruption in ENTRY_CORRUPTIONS else InconsistentDecomposition):
        pq.compose_pq(pq.PQPrimeDecomposition(tuple(comps), tuple(cuts)))


# -- weight-grid views -------------------------------------------------------


def test_u0_matrix_nodes():
    u0 = pq.u0_matrix(3, 4)
    assert u0.rows[3][2] == (4, 3)
    u0p = prime_weight_transform(u0)
    assert u0p.rows[2][0] == (1, 1)
    assert u0p.rows[3][2] == (3, 2)


@pytest.mark.parametrize("p, q", [(True, 2), (2, False), (-1, 2), (2, -1), (1.0, 2), (2, "2")])
def test_u0_matrix_takes_non_negative_int_sizes(p, q):
    # u0_matrix builds its grid without WeightMatrix's check and keeps it, so it checks p and q itself;
    # an equal int such as 1 for True must not be served from the kept grids
    pq.u0_matrix(1, 2), pq.u0_matrix(2, 0)
    with pytest.raises(ValueError):
        pq.u0_matrix(p, q)
    assert pq.u0_matrix(3, 4) is pq.u0_matrix(3, 4)


def test_u0_membership_equivalences():
    from parkfn.twodim import is_u_pf

    for p, q in product(range(4), range(4)):
        u0 = pq.u0_matrix(p, q)
        for pair in all_pairs(p, q):
            assert pq.is_pq_pf(pair) == is_u_pf(pair.a, pair.b, u0)[0], pair


def test_u0_prime_membership_equivalence():
    from parkfn.twodim import is_u_pf

    for p, q in product(range(1, 4), range(1, 4)):
        u0p = prime_weight_transform(pq.u0_matrix(p, q))
        for pair in all_pairs(p, q):
            assert pq.is_pq_prime(pair) == is_u_pf(pair.a, pair.b, u0p)[0], pair


# -- counts ------------------------------------------------------------------


def brute_counts(p, q):
    pf = ipf = ppf = ippf = 0
    for pair in all_pairs(p, q):
        member = pq.is_pq_pf(pair)
        prime = member and pq.is_pq_prime(pair)
        inc = sorted(pair.a) == list(pair.a) and sorted(pair.b) == list(pair.b)
        pf += member
        ipf += member and inc
        ppf += prime
        ippf += prime and inc
    return pf, ipf, ppf, ippf


@pytest.mark.parametrize("p,q,expected", [(1, 1, 3), (3, 4, 12800), (0, 0, 1), (0, 3, 1)])
def test_count_pq_pf_values(p, q, expected):
    assert pq.count_pq_pf(p, q) == expected


def test_count_pq_ppf_values():
    assert pq.count_pq_ppf(1, 1) == 1
    assert pq.count_pq_ppf(2, 2) == 5
    assert pq.count_pq_ppf(0, 1) == 1 and pq.count_pq_ppf(1, 0) == 1
    assert pq.count_pq_ppf(0, 0) == 0 and pq.count_pq_ppf(0, 4) == 0


def test_counts_match_brute_force():
    for p, q in product(range(4), range(4)):
        pf, ipf, ppf, ippf = brute_counts(p, q)
        assert pq.count_pq_pf(p, q) == pf
        assert pq.count_pq_ipf(p, q) == ipf
        assert pq.count_pq_ppf(p, q) == ppf
        assert pq.count_pq_ippf(p, q) == ippf


def test_ppf_sum_equals_closed_form():
    for p in range(1, 7):
        for q in range(1, 7):
            assert pq.count_pq_ppf_sum(p, q) == pq.count_pq_ppf(p, q)
    with pytest.raises(ValueError):
        pq.count_pq_ppf_sum(0, 2)


def test_pair_json_round_trip():
    pair = PQPair((3, 0, 3), (1, 0, 1, 0))
    assert PQPair.from_json_dict({"p": 3, "q": 4, "a": [3, 0, 3], "b": [1, 0, 1, 0]}) == pair
    with pytest.raises(ValueError):
        PQPair.from_json_dict({"p": 5, "q": 4, "a": [3, 0, 3], "b": [1, 0, 1, 0]})
