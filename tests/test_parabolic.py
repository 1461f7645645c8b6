"""Levi decompositions and highest-weight orbit dimensions.

The exceptional nilradical dimensions are pinned from the published
computer-algebra transcript; classical families are checked against
closed forms derived independently of the root-counting code path.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from minorb import (
    MAX_RANK,
    closure_is_smooth,
    dim_irrep,
    dim_min_orbit,
    dim_simple,
    dim_u,
    levi_data,
    orbit_type,
    parabolic_of_weight,
    parse_type,
    positive_roots,
    SimpleType,
    table_types,
)
from minorb.parabolic import support_masks

from util import (
    ALL_TYPES,
    MID_TYPES,
    SMALL_TYPES,
    dim_u_by_accounting,
    direct_dim_u,
    hilbert_degree,
)

# dim u for the maximal parabolic at each single node, nodes in order.
MAXIMAL_U_DIMS = {
    "E6": (16, 21, 25, 29, 25, 16),
    "E7": (33, 42, 47, 53, 50, 42, 27),
    "E8": (78, 92, 98, 106, 104, 97, 83, 57),
}

# dim u for two-node removals used in the published bound evaluations.
PAIR_U_DIMS = [
    ("E6", (1, 2), 26),
    ("E6", (1, 6), 24),
    ("E7", (1, 2), 48),
    ("E7", (1, 6), 50),
    ("E7", (1, 7), 43),
    ("E7", (2, 6), 52),
    ("E7", (2, 7), 48),
    ("E7", (6, 7), 43),
    ("E8", (1, 7), 99),
    ("E8", (1, 8), 90),
    ("E8", (7, 8), 84),
]


@pytest.mark.parametrize("name", sorted(MAXIMAL_U_DIMS), ids=str)
def test_maximal_parabolic_u_dims(name):
    typ = parse_type(name)
    got = tuple(levi_data(typ, [i]).dim_u for i in range(1, typ.rank + 1))
    assert got == MAXIMAL_U_DIMS[name]


@pytest.mark.parametrize("name,removed,expected", PAIR_U_DIMS, ids=lambda v: str(v))
def test_pair_u_dims(name, removed, expected):
    assert levi_data(parse_type(name), removed).dim_u == expected


@pytest.mark.parametrize("typ", [t for t in ALL_TYPES if t.family == "A"], ids=str)
def test_grassmannian_dimension(typ):
    n = typ.rank
    for i in range(1, n + 1):
        assert levi_data(typ, [i]).dim_u == i * (n + 1 - i)


@pytest.mark.parametrize("typ", [t for t in ALL_TYPES if t.family == "C"], ids=str)
def test_isotropic_flag_dimension(typ):
    n = typ.rank
    for j in range(1, n + 1):
        assert 2 * levi_data(typ, [j]).dim_u == 4 * n * j - 3 * j * j + j


@pytest.mark.parametrize("typ", SMALL_TYPES, ids=str)
def test_accounting_route_agrees(typ):
    nodes = range(1, typ.rank + 1)
    for size in range(typ.rank + 1):
        for removed in combinations(nodes, size):
            data = levi_data(typ, removed)
            assert data.dim_u == dim_u_by_accounting(typ, removed)
            assert data.dim_parabolic == dim_simple(typ) - data.dim_u


@pytest.mark.parametrize("typ", SMALL_TYPES, ids=str)
def test_bitset_dim_u_matches_direct_count(typ):
    nodes = range(1, typ.rank + 1)
    for size in range(typ.rank + 1):
        for removed in combinations(nodes, size):
            expected = direct_dim_u(typ, removed)
            assert dim_u(typ, removed) == expected
            assert levi_data(typ, removed).dim_u == expected


@pytest.mark.parametrize(
    "typ", [SimpleType(f, n) for f in "ABCD" for n in (24, 40)], ids=str
)
def test_bitset_dim_u_matches_direct_count_at_high_rank(typ):
    rng = random.Random(f"dim_u {typ}")
    for _ in range(20):
        removed = rng.sample(range(1, typ.rank + 1), rng.randint(1, typ.rank))
        expected = direct_dim_u(typ, removed)
        assert dim_u(typ, removed) == expected
        assert levi_data(typ, removed).dim_u == expected


@pytest.mark.parametrize(
    "typ",
    table_types(12) + [SimpleType(f, MAX_RANK) for f in "ABCD"] + [SimpleType("D", 70)],
    ids=str,
)
def test_support_mask_bit_k_is_root_k_involving_the_node(typ):
    """One bit per root, root k at bit k; D70's 4,830 roots pass the int/str digit limit."""
    roots = positive_roots(typ)
    for i, mask in enumerate(support_masks(typ)):
        assert mask >> len(roots) == 0, i + 1
        for k, root in enumerate(roots):
            assert (mask >> k) & 1 == (root[i] != 0), (i + 1, k)


def test_empty_and_full_removal():
    e7 = parse_type("E7")
    borel = levi_data(e7, range(1, 8))
    assert borel.components == ()
    assert borel.dim_levi_ss == 0
    assert 2 * borel.dim_u + 7 == 133
    whole = levi_data(e7, [])
    assert whole.dim_u == 0
    assert whole.dim_levi_ss == 133
    assert [str(c.typ) for c in whole.components] == ["E7"]


@given(data=st.data())
def test_dim_u_monotone_in_removed_set(data):
    typ = data.draw(st.sampled_from(SMALL_TYPES))
    nodes = st.sets(st.integers(1, typ.rank))
    small = data.draw(nodes)
    big = small | data.draw(nodes)
    assert levi_data(typ, small).dim_u <= levi_data(typ, big).dim_u


@settings(deadline=None)
@given(data=st.data())
def test_min_orbit_dimension_is_the_hilbert_degree_plus_one(data):
    """dim O_lambda = dim u(P_lambda) + 1 against the Hilbert function route."""
    typ = data.draw(st.sampled_from(MID_TYPES))
    weight = data.draw(st.lists(st.integers(0, 3), min_size=typ.rank, max_size=typ.rank).filter(any))
    assert dim_min_orbit(typ, weight) == hilbert_degree(typ, weight) + 1


def test_rejects_bad_nodes():
    for fn in (levi_data, dim_u):
        with pytest.raises(ValueError, match=r"nodes \[0\] out of range for A3"):
            fn(parse_type("A3"), [0])
        with pytest.raises(ValueError, match=r"nodes \[2, 4\] out of range for A3"):
            fn(parse_type("A3"), [4, 2, 4])
        # a float node is refused, not truncated to node 1
        with pytest.raises(ValueError, match=r"node entry 1\.7 is not an integer"):
            fn(parse_type("A3"), [1.7])
        # a generator is read once, and a bad entry after good ones is named
        assert fn(parse_type("A3"), (i for i in (3, 1))) == fn(parse_type("A3"), [1, 3])
        with pytest.raises(ValueError, match=r"node entry '3' is not an integer"):
            fn(parse_type("A3"), [1, 2, "3"])
        with pytest.raises(ValueError, match=r"node entry 2\.5 is not an integer"):
            fn(parse_type("A3"), (i for i in (1, 2.5)))


MIN_ORBIT_DIMS = [
    ("A5", (1, 0, 0, 0, 0), 6),
    ("C4", (1, 0, 0, 0), 8),
    ("B2", (0, 1), 4),
    ("E6", (0, 1, 0, 0, 0, 0), 22),
    ("E6", (1, 0, 0, 0, 0, 1), 25),
    ("G2", (1, 0), 6),
]


@pytest.mark.parametrize("name,weight,expected", MIN_ORBIT_DIMS, ids=lambda v: str(v))
def test_min_orbit_dimensions(name, weight, expected):
    assert dim_min_orbit(parse_type(name), weight) == expected


def test_parabolic_of_weight_uses_support():
    e8 = parse_type("E8")
    assert parabolic_of_weight(e8, (0, 0, 0, 0, 0, 0, 2, 0)).removed == (7,)
    assert parabolic_of_weight(e8, (1, 0, 0, 0, 0, 0, 0, 3)).removed == (1, 8)
    with pytest.raises(ValueError):
        parabolic_of_weight(e8, (0,) * 8)


def test_orbit_type_strips_multiplier():
    a3 = parse_type("A3")
    assert orbit_type(a3, (2, 0, 4)) == ((1, 0, 2), 2)
    assert orbit_type(a3, (0, 1, 0)) == ((0, 1, 0), 1)
    assert orbit_type(parse_type("A1"), (3,)) == ((1,), 3)
    assert orbit_type(parse_type("B2"), (3, 3)) == ((1, 1), 3)


def test_multiplier_preserves_orbit_but_not_module():
    a4 = parse_type("A4")
    w = (1, 0, 0, 0)
    w2 = (2, 0, 0, 0)
    assert dim_min_orbit(a4, w) == dim_min_orbit(a4, w2)
    assert dim_irrep(a4, w2) > dim_irrep(a4, w)
    assert closure_is_smooth(a4, w) and not closure_is_smooth(a4, w2)


SMOOTHNESS = [
    ("A5", (1, 0, 0, 0, 0), True),
    ("A5", (0, 0, 0, 0, 1), True),
    ("A5", (0, 1, 0, 0, 0), False),
    ("B2", (0, 1), True),
    ("B2", (1, 0), False),
    ("C3", (1, 0, 0), True),
    ("E6", (1, 0, 0, 0, 0, 0), False),
    ("G2", (1, 0), False),
]


@pytest.mark.parametrize("name,weight,expected", SMOOTHNESS, ids=lambda v: str(v))
def test_closure_smoothness(name, weight, expected):
    assert closure_is_smooth(parse_type(name), weight) is expected


# C2 and D3 by their own names, which parse_type folds onto B2 and A3; D70's
# masks have 4,830 bits, above the default int/str digit limit
SMOOTHNESS_TYPES = (
    table_types(24)
    + [SimpleType("C", 2), SimpleType("D", 3)]
    + [SimpleType(f, MAX_RANK) for f in "ABCD"]
    + [SimpleType("D", 70)]
)


def smooth_by_weyl(typ, weight):
    """The general route: the orbit dimension against the full Weyl product."""
    return dim_min_orbit(typ, weight) == dim_irrep(typ, weight)


@pytest.mark.parametrize("typ", SMOOTHNESS_TYPES, ids=str)
def test_smoothness_matches_the_weyl_route_on_fundamentals(typ):
    for i in range(typ.rank):
        w = tuple(int(j == i) for j in range(typ.rank))
        assert closure_is_smooth(typ, w) is smooth_by_weyl(typ, w), i + 1


@pytest.mark.parametrize("typ", SMOOTHNESS_TYPES, ids=str)
def test_smoothness_matches_the_weyl_route_on_sparse_weights(typ):
    """Seeded weights with 1-3 nonzero entries, up to the CLI's entry ceiling."""
    rng = random.Random(f"smooth {typ}")
    for _ in range(10):
        w = [0] * typ.rank
        for i in rng.sample(range(typ.rank), rng.randint(1, min(3, typ.rank))):
            w[i] = rng.choice((1, 2, 3, 10**9))
        assert closure_is_smooth(typ, w) is smooth_by_weyl(typ, w), w
