"""Weight-grid parking functions: boundedness, witnesses, primeness, affine counts."""

import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkfn import oracle, twodim
from parkfn.errors import DegenerateGrid, DimensionMismatch, NonMonotoneWeights
from parkfn.oracle import FamilySpec
from parkfn.pq import u0_matrix
from parkfn.twodim import AffineWeightSpec, WeightMatrix


def U0_34():
    return u0_matrix(3, 4)


def sorted_pairs(weights):
    """All weakly increasing candidate pairs within the sufficient bounds."""
    p, q = weights.p, weights.q
    for a in combinations_with_replacement(range(weights.max_u), p):
        for b in combinations_with_replacement(range(weights.max_v), q):
            yield a, b


def random_monotone_matrix(rng, p, q, top):
    """Componentwise-monotone grid with entries <= top, not affine in general."""
    def channel():
        grid = [[0] * (p + 1) for _ in range(q + 1)]
        for l in range(q + 1):
            for k in range(p + 1):
                lo = max(grid[l][k - 1] if k else 0, grid[l - 1][k] if l else 0)
                grid[l][k] = rng.randint(lo, top)
        return grid

    us, vs = channel(), channel()
    rows = tuple(tuple((us[l][k], vs[l][k]) for k in range(p + 1)) for l in range(q + 1))
    return WeightMatrix(p, q, rows)


# -- O(p*q) references -------------------------------------------------------
# Table routes that decide the predicates without the exchange argument:
# reachability of (p, q) over the admissible edges, with the witness read off
# the table, and a DP over the column pairs of two paths on each anti-diagonal.


def _admissible(a, b, weights):
    """Edge admissibility tables for the sorted pair against the grid."""
    sa, sb = sorted(a), sorted(b)
    p, q = weights.p, weights.q
    east_ok = [[sa[k] < weights.rows[l][k][0] for l in range(q + 1)] for k in range(p)]
    north_ok = [[sb[l] < weights.rows[l][k][1] for l in range(q)] for k in range(p + 1)]
    return east_ok, north_ok


def _reach_end(east_ok, north_ok, p, q):
    """reach[k][l]: an admissible-edge path exists from (k, l) to (p, q)."""
    reach = [[False] * (q + 1) for _ in range(p + 1)]
    reach[p][q] = True
    for k in range(p, -1, -1):
        for l in range(q, -1, -1):
            if (k, l) != (p, q):
                reach[k][l] = (k < p and east_ok[k][l] and reach[k + 1][l]) or (
                    l < q and north_ok[k][l] and reach[k][l + 1]
                )
    return reach


def reference_is_u_pf(a, b, weights):
    """(member, (word, east weights, north weights) of the lexicographically first bounding path)."""
    p, q = weights.p, weights.q
    east_ok, north_ok = _admissible(a, b, weights)
    reach = _reach_end(east_ok, north_ok, p, q)
    if not reach[0][0]:
        return False, None
    word, east, north = [], [], []
    k = l = 0
    while (k, l) != (p, q):
        if k < p and east_ok[k][l] and reach[k + 1][l]:
            word.append("E")
            east.append(weights.rows[l][k][0])
            k += 1
        else:
            word.append("N")
            north.append(weights.rows[l][k][1])
            l += 1
    return True, ("".join(word), tuple(east), tuple(north))


def reference_meeting_nodes(a, b, weights):
    """Nodes past (0, 0) shared by the lowest and the highest bounding path, read off the table; None for non-members."""
    p, q = weights.p, weights.q
    east_ok, north_ok = _admissible(a, b, weights)
    reach = _reach_end(east_ok, north_ok, p, q)
    if not reach[0][0]:
        return None

    def path(east_first):
        k = l = 0
        nodes = []
        while (k, l) != (p, q):
            east = k < p and east_ok[k][l] and reach[k + 1][l]
            north = l < q and north_ok[k][l] and reach[k][l + 1]
            k, l = (k + 1, l) if east and (east_first or not north) else (k, l + 1)
            nodes.append((k, l))
        return nodes

    highest = set(path(east_first=False))
    return [node for node in path(east_first=True) if node in highest]


def reference_is_u_prime(a, b, weights):
    """Two bounding paths with disjoint interiors, by a DP over anti-diagonals.

    The right path must open with E and close with N, the left path the
    opposite; the states on anti-diagonal r are column pairs k1 > k2.
    """
    p, q = weights.p, weights.q
    east_ok, north_ok = _admissible(a, b, weights)

    def moves(k, r):
        l = r - k
        if 0 <= l <= q:
            if k < p and east_ok[k][l]:
                yield k + 1
            if l < q and north_ok[k][l]:
                yield k

    if not (east_ok[0][0] and north_ok[0][0]):
        return False
    states = {(1, 0)}
    for r in range(1, p + q):
        last = r + 1 == p + q
        states = {(n1, n2) for k1, k2 in states for n1 in moves(k1, r) for n2 in moves(k2, r) if last or n1 > n2}
        if not states:
            return False
    return (p, p) in states


@st.composite
def monotone_grids(draw, max_side=4):
    """Componentwise-monotone grids, p = 0 or q = 0 included."""
    p, q = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))

    def channel():
        rises = iter(draw(st.lists(st.integers(0, 2), min_size=(p + 1) * (q + 1), max_size=(p + 1) * (q + 1))))
        grid = [[0] * (p + 1) for _ in range(q + 1)]
        for l in range(q + 1):
            for k in range(p + 1):
                grid[l][k] = max(grid[l][k - 1] if k else 0, grid[l - 1][k] if l else 0) + next(rises)
        return grid

    us, vs = channel(), channel()
    return WeightMatrix(p, q, tuple(tuple((us[l][k], vs[l][k]) for k in range(p + 1)) for l in range(q + 1)))


@st.composite
def grids_with_pairs(draw, grids=monotone_grids()):
    """A grid and a pair drawn along a random path.  Most entries lie strictly
    below the weight of their edge; about one in ten, and every entry on an
    edge of weight 0, is a near miss at the weight or one past it.  So members
    and near misses both occur, and entries reach past max_u and max_v."""
    grid = draw(grids)
    a, b = [], []
    k = l = 0
    for step in draw(st.permutations("E" * grid.p + "N" * grid.q)):
        weight = grid.rows[l][k][step == "N"]
        hit = weight and draw(st.integers(0, 9))
        (a if step == "E" else b).append(draw(st.integers(0, weight - 1) if hit else st.integers(weight, weight + 1)))
        k, l = (k + 1, l) if step == "E" else (k, l + 1)
    return grid, tuple(draw(st.permutations(a))), tuple(draw(st.permutations(b)))


@settings(max_examples=300, deadline=None)
@given(grids_with_pairs())
def test_walks_match_the_table_references(case):
    grid, a, b = case
    member, witness = twodim.is_u_pf(a, b, grid)
    got = witness and (witness.path.steps, witness.east_weights, witness.north_weights)
    assert (member, got) == reference_is_u_pf(a, b, grid)
    if grid.p and grid.q:
        prime = reference_is_u_prime(a, b, grid)
        assert twodim.is_u_prime(a, b, grid, method="direct") == prime
        assert twodim.is_u_prime(a, b, grid, method="transform") == prime


@settings(max_examples=300, deadline=None)
@given(grids_with_pairs(st.builds(random_monotone_matrix, st.randoms(use_true_random=False), *[st.integers(0, 4)] * 3)))
def test_chained_meeting_walk_finds_the_common_nodes_of_the_two_paths(case):
    # the walk decompose_pq chains over the nodes of u0_matrix: from each meeting node to the next, until (p, q) or a stuck walk
    grid, a, b = case
    sa, sb = twodim._closed_order_statistics(a, b, grid)
    nodes = [(0, 0)]
    while nodes[-1] not in ((grid.p, grid.q), None):
        nodes.append(twodim._meeting(sa, sb, grid.rows, *nodes[-1]))
    assert (None if nodes[-1] is None else nodes[1:]) == reference_meeting_nodes(a, b, grid)


# -- weight grids ------------------------------------------------------------


def test_weight_matrix_validation():
    with pytest.raises(NonMonotoneWeights):
        WeightMatrix(1, 0, (((2, 1), (1, 1)),))
    with pytest.raises(ValueError):
        WeightMatrix(1, 1, (((1, 1), (1, 1)),))  # wrong row count


def test_weights_must_be_ints():
    # the oracle kernel cast 1.5 to 1, so count gave 1 where enumerate_members gave 2
    with pytest.raises(ValueError):
        WeightMatrix(1, 1, (((1.5, 1), (2, 1)), ((1.5, 2), (2, 2))))
    with pytest.raises(ValueError):
        AffineWeightSpec(0.5, 0, 0, 0, 1, 1, 1, 1)  # raised AttributeError from exact.as_integer
    with pytest.raises(ValueError):
        AffineWeightSpec(True, 0, 0, 0, 1, 1, 1, 1)


not_ints = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.fractions(), st.none(), st.integers(0, 9).map(str)
)


@given(not_ints, st.integers(0, 7), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
def test_grids_accept_only_int_values(value, field, k, l, channel):
    params = [0, 1, 1, 0, 1, 1, 2, 2]
    params[field] = value
    with pytest.raises(ValueError):
        AffineWeightSpec(*params)
    nodes = [[list(node) for node in row] for row in u0_matrix(2, 2).rows]
    nodes[l][k][channel] = value
    with pytest.raises(ValueError):
        WeightMatrix(2, 2, tuple(tuple(map(tuple, row)) for row in nodes))
    for p, q in ((value, 2), (2, value)):
        with pytest.raises(ValueError):
            WeightMatrix(p, q, u0_matrix(2, 2).rows)


def test_a_grid_built_from_lists_is_the_grid_of_its_tuples():
    # lists passed every check, then the oracle's caches raised TypeError: unhashable type: 'list'
    listed = WeightMatrix(1, 1, [[[1, 1], (2, 1)], [(1, 2), [3, 3]]])
    plain = WeightMatrix(1, 1, (((1, 1), (2, 1)), ((1, 2), (3, 3))))
    assert listed == plain and hash(listed) == hash(plain) and listed.rows == plain.rows
    oracle._counted.clear()  # so the grid of lists is swept, not found
    for prime, increasing in product((False, True), repeat=2):
        specs = [FamilySpec("twodim", prime, increasing, weights=grid) for grid in (listed, plain)]
        assert oracle.count(specs[0]).count == oracle.count(specs[1]).count, (prime, increasing)
    assert WeightMatrix(1, 0, [[(3, 1), (3, 1)]]) == WeightMatrix(1, 0, (((3, 1), (3, 1)),))


@given(st.lists(st.integers(0, 3), min_size=6, max_size=6), st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_grids_built_unchecked_pass_the_check(coeffs, p, q, rng):
    # affine_weight_matrix, prime_weight_transform and u0_matrix skip the node-by-node check of WeightMatrix
    grids = [twodim.affine_weight_matrix(AffineWeightSpec(*coeffs, p, q)), random_monotone_matrix(rng, p, q, top=5), u0_matrix(p, q)]
    grids += [twodim.prime_weight_transform(grid) for grid in grids if p and q]
    for grid in grids:
        assert WeightMatrix(grid.p, grid.q, grid.rows) == grid


def test_affine_matrix_examples():
    assert twodim.affine_weight_matrix(AffineWeightSpec(0, 1, 1, 0, 1, 1, 3, 4)) == U0_34()
    flat = twodim.affine_weight_matrix(AffineWeightSpec(0, 0, 0, 0, 0, 0, 2, 2))
    assert all(node == (0, 0) for row in flat.rows for node in row)
    spec = AffineWeightSpec(0, 1, 1, 0, 1, 1, 3, 4)
    grid = twodim.affine_weight_matrix(spec)
    assert grid.rows[3][2] == (4, 3)


def test_weight_matrix_json_round_trip():
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
    assert WeightMatrix.from_json_dict(u0_34) == U0_34()


# -- membership and witnesses ------------------------------------------------


def test_membership_golden_examples():
    ok, witness = twodim.is_u_pf((2, 3, 2), (3, 0, 1, 0), U0_34())
    assert ok
    assert witness.path.steps == "NNEENEN"
    assert witness.east_weights == (3, 3, 4)
    assert witness.north_weights == (1, 1, 3, 4)
    ok, witness = twodim.is_u_pf((4, 3, 3), (2, 0, 2, 1), U0_34())
    assert not ok and witness is None


def test_membership_empty_grid():
    ok, witness = twodim.is_u_pf((), (), u0_matrix(0, 0))
    assert ok and witness.path.steps == ""


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        twodim.is_u_pf((0,), (0,), U0_34())


def test_witness_bounds_order_statistics_strictly():
    grid = twodim.affine_weight_matrix(AffineWeightSpec(1, 1, 1, 1, 1, 1, 2, 3))
    for a, b in sorted_pairs(grid):
        ok, witness = twodim.is_u_pf(a, b, grid)
        if not ok:
            continue
        assert all(x < w for x, w in zip(a, witness.east_weights))
        assert all(x < w for x, w in zip(b, witness.north_weights))
        # replaying the word must produce the recorded weights edge by edge
        k = l = 0
        east, north = [], []
        for step in witness.path.steps:
            if step == "E":
                east.append(grid.rows[l][k][0])
                k += 1
            else:
                north.append(grid.rows[l][k][1])
                l += 1
        assert (k, l) == (grid.p, grid.q)
        assert tuple(east) == witness.east_weights
        assert tuple(north) == witness.north_weights


def test_witness_is_lexicographically_first():
    # E sorts before N, so among all bounding paths the witness word is minimal
    grid = U0_34()
    a, b = (2, 3, 2), (3, 0, 1, 0)
    _, witness = twodim.is_u_pf(a, b, grid)
    bounding = []
    for word_bits in product("EN", repeat=7):
        word = "".join(word_bits)
        if word.count("E") != 3:
            continue
        k = l = 0
        good = True
        east_i = north_i = 0
        sa, sb = sorted(a), sorted(b)
        for step in word:
            if step == "E":
                good = good and sa[east_i] < grid.rows[l][k][0]
                east_i += 1
                k += 1
            else:
                good = good and sb[north_i] < grid.rows[l][k][1]
                north_i += 1
                l += 1
        if good:
            bounding.append(word)
    assert witness.path.steps == min(bounding)


# -- prime transform and the two-path test -----------------------------------


def test_prime_weight_transform_examples():
    # U0' at (3, 4): node (k, l) weighs (l, k) off the axes and (1, 1) on them
    u0_prime = WeightMatrix(3, 4, tuple(tuple((l, k) if k and l else (1, 1) for k in range(4)) for l in range(5)))
    assert twodim.prime_weight_transform(U0_34()) == u0_prime
    flat = twodim.affine_weight_matrix(AffineWeightSpec(0, 0, 0, 0, 2, 2, 2, 2))
    assert twodim.prime_weight_transform(flat) == flat
    grid = twodim.affine_weight_matrix(AffineWeightSpec(0, 1, 1, 0, 1, 1, 2, 2))
    transformed = twodim.prime_weight_transform(grid)
    assert transformed.rows[1][1] == (grid.rows[0][1][0], grid.rows[1][0][1]) == (1, 1)


def test_prime_weight_transform_requires_real_grid():
    with pytest.raises(DegenerateGrid):
        twodim.prime_weight_transform(u0_matrix(0, 3))


def test_is_u_prime_examples():
    grid = U0_34()
    for method in ("direct", "transform"):
        assert twodim.is_u_prime((0, 0, 3), (0, 0, 1, 1), grid, method=method)
        assert not twodim.is_u_prime((3, 0, 3), (1, 0, 1, 0), grid, method=method)
        assert twodim.is_u_prime((0,), (0,), u0_matrix(1, 1), method=method)


def test_is_u_prime_rejects_degenerate_and_unknown():
    with pytest.raises(DegenerateGrid):
        twodim.is_u_prime((), (0,), u0_matrix(0, 1))
    with pytest.raises(ValueError):
        twodim.is_u_prime((0,), (0,), u0_matrix(1, 1), method="guess")


def test_direct_and_transform_agree_on_affine_grids():
    specs = [
        AffineWeightSpec(a, b, c, d, s, t, p, q)
        for a, b, c, d in product(range(2), repeat=4)
        for s, t in product((1, 2), repeat=2)
        for p, q in product((1, 2, 3), repeat=2)
    ]
    for spec in specs:
        grid = twodim.affine_weight_matrix(spec)
        for a, b in sorted_pairs(grid):
            direct = twodim.is_u_prime(a, b, grid, method="direct")
            transform = twodim.is_u_prime(a, b, grid, method="transform")
            assert direct == transform, (spec, a, b)


def test_direct_and_transform_agree_on_random_monotone_grids():
    rng = random.Random(20240814)
    for _ in range(40):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        grid = random_monotone_matrix(rng, p, q, top=4)
        for a, b in sorted_pairs(grid):
            assert twodim.is_u_prime(a, b, grid, method="direct") == twodim.is_u_prime(
                a, b, grid, method="transform"
            ), (grid, a, b)


def test_two_paths_exist_for_prime_members():
    # reconstruct the two-path witness property by explicit search
    grid = u0_matrix(2, 2)
    words = ["".join(w) for w in product("EN", repeat=4) if w.count("E") == 2]

    def bounds(word, a, b):
        k = l = 0
        east_i = north_i = 0
        sa, sb = sorted(a), sorted(b)
        for step in word:
            if step == "E":
                if sa[east_i] >= grid.rows[l][k][0]:
                    return False
                east_i += 1
                k += 1
            else:
                if sb[north_i] >= grid.rows[l][k][1]:
                    return False
                north_i += 1
                l += 1
        return True

    def interiors_disjoint(w1, w2):
        def verts(word):
            k = l = 0
            out = set()
            for step in word[:-1]:
                k, l = (k + 1, l) if step == "E" else (k, l + 1)
                out.add((k, l))
            return out

        return not (verts(w1) & verts(w2))

    for a in product(range(3), repeat=2):
        for b in product(range(3), repeat=2):
            explicit = any(
                bounds(w1, a, b) and bounds(w2, a, b) and interiors_disjoint(w1, w2)
                for w1 in words
                for w2 in words
            )
            assert twodim.is_u_prime(a, b, grid, method="direct") == explicit, (a, b)


# -- affine counting formulas ------------------------------------------------


def test_count_affine_pf_examples():
    assert twodim.count_affine_pf(AffineWeightSpec(0, 1, 1, 0, 1, 1, 3, 4)) == 12800
    assert twodim.count_affine_pf(AffineWeightSpec(0, 0, 0, 0, 1, 1, 0, 0)) == 1


def test_count_affine_reduces_to_one_dimension():
    # q = 0 leaves a single row: counts match the arithmetic-boundary formulas
    from parkfn.vector import count_ipf_arith, count_pf_arith

    for a, s, p in product((0, 1, 2), (1, 2, 3), (1, 2, 3, 4)):
        spec = AffineWeightSpec(a, 0, 0, 0, s, 1, p, 0)
        assert twodim.count_affine_pf(spec) == count_pf_arith(s, a, p)
        assert twodim.count_affine_ipf(spec) == count_ipf_arith(s, a, p)


def test_count_affine_ipf_at_p_zero_cancels_the_empty_side():
    # s = b = 0 at p = 0 put the rising factorial 1^(-1) into the raw form; the cancelled form counts the oracle's 2
    assert twodim.count_affine_ipf(AffineWeightSpec(0, 0, 0, 1, 0, 1, 0, 2)) == 2


def test_degenerate_affine_counts_equal_the_oracle():
    # every a..t in 0..2 on the shapes (p, 0) and (0, q): the empty side's factor cancels, a zero base included
    shapes = [(p, 0) for p in range(4)] + [(0, q) for q in range(1, 4)]
    for values in product(range(3), repeat=6):
        for p, q in shapes:
            spec = AffineWeightSpec(*values, p, q)
            grid = twodim.affine_weight_matrix(spec)
            for formula, increasing in ((twodim.count_affine_pf, False), (twodim.count_affine_ipf, True)):
                counted = oracle.count(FamilySpec("twodim", increasing=increasing, weights=grid)).count
                assert formula(spec) == counted, (spec, increasing)


def test_count_affine_prime_examples():
    assert twodim.count_affine_ppf(AffineWeightSpec(0, 1, 1, 0, 1, 1, 1, 1)) == 1
    assert twodim.count_affine_ppf(AffineWeightSpec(0, 1, 1, 0, 1, 1, 2, 2)) == 5
    assert twodim.count_affine_ppf(AffineWeightSpec(1, 1, 1, 1, 1, 1, 2, 2)) == 21
    assert twodim.count_affine_ippf(AffineWeightSpec(0, 1, 1, 0, 1, 1, 2, 2)) == 3
    with pytest.raises(DegenerateGrid):
        twodim.count_affine_ppf(AffineWeightSpec(0, 1, 1, 0, 1, 1, 0, 2))


def test_affine_prime_counts_match_pq_formulas():
    from parkfn.pq import count_pq_ippf, count_pq_ppf

    for p, q in product(range(1, 5), range(1, 5)):
        spec = AffineWeightSpec(0, 1, 1, 0, 1, 1, p, q)
        assert twodim.count_affine_ppf(spec) == count_pq_ppf(p, q)
        assert twodim.count_affine_ippf(spec) == count_pq_ippf(p, q)


def test_affine_spec_json_round_trip():
    spec = AffineWeightSpec(1, 2, 0, 1, 2, 1, 3, 2)
    assert AffineWeightSpec.from_json_dict({"a": 1, "b": 2, "c": 0, "d": 1, "s": 2, "t": 1, "p": 3, "q": 2}) == spec
