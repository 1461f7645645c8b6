"""Weyl dimension arithmetic against published tables and closed forms."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from minorb import (
    MAX_WEIGHT_ENTRY,
    SimpleType,
    dim_irrep,
    dim_irrep_product,
    dim_simple,
    dual_weight,
    highest_root,
    parse_type,
    positive_roots,
    root_to_weight,
    symmetrizers,
    table_types,
)
from minorb import repdim
from minorb.repdim import _prime_powers, _rho_counts
from minorb.rootsys import _packed_counts, _value_multiset

from util import ALL_TYPES, MAX_MODULES_BELOW, SMALL_TYPES, modules_below, weyl_vector


def fund(typ, i):
    """Fundamental weight omega_i as a coordinate tuple."""
    return tuple(int(k == i) for k in range(1, typ.rank + 1))


# Fundamental-module dimensions from the published case analysis.
PINNED_DIMS = [
    ("A1", (1,), 2),
    ("A1", (2,), 3),
    ("A2", (1, 1), 8),
    ("A5", (0, 0, 1, 0, 0), 20),
    ("A6", (0, 0, 1, 0, 0, 0), 35),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B3", (0, 0, 1), 8),
    ("B4", (0, 0, 0, 1), 16),
    ("C3", (1, 0, 0), 6),
    ("C3", (0, 1, 0), 14),
    ("C3", (0, 0, 1), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("D4", (0, 0, 1, 0), 8),
    ("D4", (0, 0, 0, 1), 8),
    ("D5", (0, 0, 0, 0, 1), 16),
    ("D6", (0, 0, 0, 0, 1, 0), 32),
    ("D7", (0, 0, 0, 0, 0, 0, 1), 64),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 0, 0, 0, 0, 1), 27),
    ("E7", (1, 0, 0, 0, 0, 0, 0), 133),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("F4", (1, 0, 0, 0), 52),
    ("F4", (0, 0, 0, 1), 26),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
]


@pytest.mark.parametrize("name,weight,expected", PINNED_DIMS, ids=lambda v: str(v))
def test_pinned_dimensions(name, weight, expected):
    assert dim_irrep(parse_type(name), weight) == expected


@pytest.mark.parametrize(
    "typ", ALL_TYPES + [SimpleType(f, 56) for f in "ABCD"], ids=str
)
def test_adjoint_dimension(typ):
    """The highest root generates the adjoint module."""
    lam = root_to_weight(typ, highest_root(typ))
    assert dim_irrep(typ, lam) == dim_simple(typ)


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_standard_module_closed_form(typ):
    n = typ.rank
    expected = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}.get(typ.family)
    if expected is None:
        return
    assert dim_irrep(typ, fund(typ, 1)) == expected


@pytest.mark.parametrize("typ", [t for t in ALL_TYPES if t.family == "A"], ids=str)
def test_exterior_powers_of_standard(typ):
    """For A_n every fundamental module is an exterior power of K^(n+1)."""
    for i in range(1, typ.rank + 1):
        assert dim_irrep(typ, fund(typ, i)) == math.comb(typ.rank + 1, i)


@pytest.mark.parametrize(
    "typ", [t for t in ALL_TYPES if t.family in "BD"], ids=str
)
def test_spin_module_dimensions(typ):
    n = typ.rank
    if typ.family == "B":
        assert dim_irrep(typ, fund(typ, n)) == 2**n
    else:
        assert dim_irrep(typ, fund(typ, n - 1)) == 2 ** (n - 1)
        assert dim_irrep(typ, fund(typ, n)) == 2 ** (n - 1)


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_trivial_and_weyl_vector(typ):
    assert dim_irrep(typ, (0,) * typ.rank) == 1
    # dim V_rho = 2^(number of positive roots): every factor doubles.
    assert dim_irrep(typ, weyl_vector(typ)) == 2 ** len(positive_roots(typ))


@pytest.mark.parametrize("typ", SMALL_TYPES, ids=str)
def test_duality_preserves_dimension(typ):
    n = typ.rank
    bound = 3 if n <= 3 else 2
    for w in product(range(bound), repeat=n):
        assert dim_irrep(typ, w) == dim_irrep(typ, dual_weight(typ, w))


def test_dual_weight_involutions():
    a3 = parse_type("A3")
    assert dual_weight(a3, (1, 0, 0)) == (0, 0, 1)
    assert dual_weight(a3, (2, 1, 0)) == (0, 1, 2)
    d7 = parse_type("D7")
    assert dual_weight(d7, (0, 0, 0, 0, 0, 1, 0)) == (0, 0, 0, 0, 0, 0, 1)
    d6 = parse_type("D6")
    assert dual_weight(d6, (0, 0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1, 0)
    e6 = parse_type("E6")
    assert dual_weight(e6, (1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert dual_weight(e6, (0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)
    b4 = parse_type("B4")
    assert dual_weight(b4, (1, 2, 3, 4)) == (1, 2, 3, 4)


@pytest.mark.parametrize("typ", SMALL_TYPES, ids=str)
def test_dual_weight_is_involution(typ):
    for w in product(range(2), repeat=typ.rank):
        assert dual_weight(typ, dual_weight(typ, w)) == w


@pytest.mark.parametrize("typ", ["B3", "C4", "F4", "G2"], ids=str)
def test_dimension_ignores_symmetrizer_scale(typ):
    """Rescaling the invariant form leaves the Weyl quotient unchanged."""
    typ = parse_type(typ)
    for w in [(1,) * typ.rank, fund(typ, 1), fund(typ, typ.rank)]:
        assert plain_weyl_product(typ, w, scale=2) == dim_irrep(typ, w)


def plain_weyl_product(typ, w, scale=1):
    """The Weyl product read off every coordinate of every positive root,
    with the invariant form scaled by scale."""
    d = [scale * dj for dj in symmetrizers(typ)]
    a = [(c + 1) * dj for c, dj in zip(w, d)]
    roots = positive_roots(typ)
    num = math.prod(sum(map(mul, beta, a)) for beta in roots)
    q, r = divmod(num, math.prod(sum(map(mul, beta, d)) for beta in roots))
    assert r == 0
    return q


@settings(deadline=None)
@given(data=st.data())
def test_dimension_matches_plain_weyl_product(data):
    typ = data.draw(st.sampled_from(table_types(24)))
    w = data.draw(st.lists(st.integers(0, 3), min_size=typ.rank, max_size=typ.rank))
    assert dim_irrep(typ, w) == plain_weyl_product(typ, w)


# The A-D types whose Weyl dimensions read packed counts, across both digit widths.
A_D = (
    [t for t in table_types(24) if t.family in "ABCD"]
    + [SimpleType("C", 2), SimpleType("D", 3)]
    + [SimpleType(f, n) for n in (40, 56, 64, 128) for f in "ABCD"]
)


@pytest.mark.parametrize("typ", A_D, ids=str)
def test_net_counts_divisible_by_every_m_are_nonnegative(typ):
    """dim_irrep's premise: for every m >= 2, not only the prime powers, the
    values (lambda + rho, beta) divisible by m are at least as many as the
    values (rho, beta) divisible by m.  Both are counted from the value
    lists, on seeded weights with entries 0-3 and every fundamental weight.
    dim_irrep subtracts the rho counts in place from a packed list, so
    each packed list must reach rho's largest value, on rho and on every
    weight below the cutoff."""
    rng = random.Random(f"net counts {typ}")
    n, d = typ.rank, symmetrizers(typ)
    rho = Counter(_value_multiset(typ, d))
    weights = [[rng.randint(0, 3) for _ in range(n)] for _ in range(3)]
    assert len(_packed_counts(typ, d)) >= max(_rho_counts(typ))
    for w in weights + [fund(typ, i) for i in range(1, n + 1)]:
        simple = [(c + 1) * dj for c, dj in zip(w, d)]
        packed = _packed_counts(typ, simple)
        assert packed is None or len(packed) >= max(_rho_counts(typ)), w
        counts = Counter(_value_multiset(typ, simple))
        counts.subtract(rho)
        net = [0] * (max(counts) + 1)
        for v, e in counts.items():
            net[v] = e
        assert min((sum(net[m::m]) for m in range(2, len(net))), default=0) >= 0, w


@pytest.mark.parametrize("typ", A_D, ids=str)
def test_dimension_routes_at_the_cutoff(typ, monkeypatch):
    """A weight whose simple values (w_i + 1) * d_i sum to exactly rank**2
    takes the prime-power route and one more the value-list route (each
    route's helper is made to fail on the other's call: no pairing may be
    listed below the cutoff); both must give the plain Weyl product."""
    n, d = typ.rank, symmetrizers(typ)
    rng = random.Random(f"dimension cutoff {typ}")
    at, left = [0] * n, n * n - sum(d)
    while left:  # a node with d_i = 1 always fits
        i = rng.choice([i for i in range(n) if d[i] <= left])
        step = rng.randint(1, left // d[i])
        at[i] += step
        left -= step * d[i]
    assert sum((c + 1) * dj for c, dj in zip(at, d)) == n * n
    above = list(at)
    above[d.index(1)] += 1

    def refuse(*args):
        raise AssertionError("wrong side of the cutoff")

    with monkeypatch.context() as m:
        m.setattr(repdim, "_value_multiset", refuse)
        assert dim_irrep(typ, at) == plain_weyl_product(typ, at)
    monkeypatch.setattr(repdim, "_prime_powers", refuse)
    assert dim_irrep(typ, above) == plain_weyl_product(typ, above)


def test_prime_powers_match_trial_division():
    """_prime_powers lists every prime power q <= limit in order, with its
    prime, as trial division finds them."""

    def least_prime(q):
        return next(p for p in range(2, q + 1) if q % p == 0)

    def prime_power(q):
        p = least_prime(q)
        while q % p == 0:
            q //= p
        return q == 1

    for limit in (1, 2, 3, 4, 64, 4096):
        qs = [q for q in range(2, limit + 1) if prime_power(q)]
        assert _prime_powers(limit) == (qs, [least_prime(q) for q in qs])


def test_dimension_at_the_weight_ceiling_stays_small():
    """Every entry of a D64 weight at MAX_WEIGHT_ENTRY puts the form far past
    _packed_counts' cutoff, so the pairings are counted from their list, in
    well under a few MB, not from polynomials of 10**11 digits.  The plain
    Weyl product checks the dimension."""
    typ, w = SimpleType("D", 64), (MAX_WEIGHT_ENTRY,) * 64
    _rho_counts(typ)
    tracemalloc.start()
    try:
        dim = dim_irrep(typ, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert dim == plain_weyl_product(typ, w)


def test_product_dimensions():
    a1 = parse_type("A1")
    d5 = parse_type("D5")
    assert dim_irrep_product([]) == 1
    assert dim_irrep_product([(a1, (1,)), (a1, (2,))]) == 6
    assert dim_irrep_product([(d5, (0, 0, 0, 0, 1)), (a1, (1,))]) == 32


def test_rejects_bad_weights():
    a2 = parse_type("A2")
    with pytest.raises(ValueError, match=r"weight \(1, -1\) is not dominant"):
        dim_irrep(a2, (1, -1))
    with pytest.raises(ValueError, match="weight length 3 does not match rank of A2"):
        dim_irrep(a2, (1, 0, 0))
    # a float entry is refused, not truncated to the weight (1, 0)
    with pytest.raises(ValueError, match=r"weight entry 1\.5 is not an integer"):
        dim_irrep(a2, (1.5, 0))
    # a generator is read once, and a bad entry after good ones is named
    assert dim_irrep(a2, (c for c in (1, 1))) == 8
    with pytest.raises(ValueError, match=r"weight entry '2' is not an integer"):
        dim_irrep(a2, (1, "2"))
    with pytest.raises(ValueError, match=r"weight entry 0\.5 is not an integer"):
        dim_irrep(a2, (c for c in (1, 0.5)))
    with pytest.raises(ValueError):
        dual_weight(a2, (1,))


def test_modules_below_raises_past_its_cap():
    """V(k omega_1) of A1 has dimension k + 1, so exactly cap weights lie
    below cap + 1, and one more passes the cap."""
    a1, cap = SimpleType("A", 1), MAX_MODULES_BELOW
    assert modules_below(a1, cap) == [(k,) for k in range(cap - 1)]
    assert modules_below(a1, cap + 1) == [(k,) for k in range(cap)]
    with pytest.raises(AssertionError, match=f"more than {cap} modules of A1"):
        modules_below(a1, cap + 2)
