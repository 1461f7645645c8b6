"""Cartan data, positive roots, and subdiagram classification.

Pinned matrices come from the published computer-algebra transcript for E8;
everything else is checked against independent oracles: closed-form algebra
dimensions, a local inversion over Fraction, and hand-enumerated small systems.
"""

import json
import random
from array import array
from collections import Counter
from fractions import Fraction
from hashlib import sha256
from itertools import permutations
from pathlib import Path

import pytest

from minorb import (
    MAX_RANK,
    Component,
    SimpleType,
    canonicalize,
    cartan_matrix,
    dim_irrep,
    dim_simple,
    highest_root,
    inverse_cartan,
    parse_type,
    positive_roots,
    root_to_weight,
    subdiagram_components,
    symmetrizers,
    table_types,
)
from minorb import rootsys
from minorb.repdim import _rho_counts
from util import (
    ALL_TYPES,
    MID_TYPES,
    components_by_matrix,
    coxeter_number,
    dim_closed_form,
    inverse_cartan_by_elimination,
    weight_by_matrix,
)

E6, E7, E8 = SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8)
F4, G2 = SimpleType("F", 4), SimpleType("G", 2)

# transcript: Cartan(E8)
CARTAN_E8 = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

# transcript: i_Cartan(E8), det_Cartan(E8) = 1
ICARTAN_E8 = (
    (4, 5, 7, 10, 8, 6, 4, 2),
    (5, 8, 10, 15, 12, 9, 6, 3),
    (7, 10, 14, 20, 16, 12, 8, 4),
    (10, 15, 20, 30, 24, 18, 12, 6),
    (8, 12, 16, 24, 20, 15, 10, 5),
    (6, 9, 12, 18, 15, 12, 8, 4),
    (4, 6, 8, 12, 10, 8, 6, 3),
    (2, 3, 4, 6, 5, 4, 3, 2),
)


def frac_inverse(m):
    """Independent oracle: plain Gauss-Jordan over Fraction."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for j in range(n)] for i in range(n)]


def frac_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def test_type_validation():
    with pytest.raises(ValueError):
        SimpleType("E", 5)
    with pytest.raises(ValueError):
        SimpleType("B", 1)
    with pytest.raises(ValueError):
        SimpleType("H", 4)
    with pytest.raises(ValueError):
        SimpleType("F", 5)


def test_type_rank_must_be_an_integer():
    with pytest.raises(ValueError, match=r"^rank 2\.5 is not an integer$"):
        SimpleType("A", 2.5)
    with pytest.raises(ValueError, match=r"^rank '3' is not an integer$"):
        SimpleType("A", "3")


def test_type_rank_is_stored_as_a_plain_int():
    typ = SimpleType("A", True)
    assert typ == SimpleType("A", 1) and type(typ.rank) is int
    assert str(typ) == "A1"


def test_parse_and_canonicalize():
    assert parse_type("e8") == E8
    assert parse_type(" A1 ") == SimpleType("A", 1)
    assert parse_type("C2") == SimpleType("B", 2)
    assert parse_type("D3") == SimpleType("A", 3)
    assert canonicalize(SimpleType("C", 3)) == SimpleType("C", 3)
    with pytest.raises(ValueError):
        parse_type("X9")
    with pytest.raises(ValueError):
        parse_type("A")


def test_parse_type_rank_ceiling():
    assert parse_type(f"D{MAX_RANK}") == SimpleType("D", MAX_RANK)
    too_big = f"rank {MAX_RANK + 1} exceeds the maximum {MAX_RANK}"
    with pytest.raises(ValueError, match=too_big):
        parse_type(f"D{MAX_RANK + 1}")
    with pytest.raises(ValueError, match="rank 100000 exceeds the maximum"):
        parse_type("A100000")
    # the ceiling guards user input only; the library takes any rank
    assert SimpleType("D", 96).rank == 96


def test_cartan_a1():
    assert cartan_matrix(SimpleType("A", 1)) == ((2,),)


def test_cartan_e8_is_the_transcript_matrix():
    assert cartan_matrix(E8) == CARTAN_E8


def test_cartan_b2():
    assert cartan_matrix(SimpleType("B", 2)) == ((2, -2), (-1, 2))


def test_cartan_g2_orientation():
    # alpha_1 short: the 7-dimensional module sits at omega_1 (checked in repdim)
    assert cartan_matrix(G2) == ((2, -1), (-3, 2))


def test_cartan_f4():
    assert cartan_matrix(F4) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_cartan_shape(typ):
    a = cartan_matrix(typ)
    n = typ.rank
    assert len(a) == n and all(len(row) == n for row in a)
    for i in range(n):
        assert a[i][i] == 2
        for j in range(n):
            if i != j:
                assert a[i][j] in (0, -1, -2, -3)
                assert (a[i][j] == 0) == (a[j][i] == 0)


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_symmetrizers_make_cartan_symmetric_positive_definite(typ):
    a = cartan_matrix(typ)
    d = symmetrizers(typ)
    n = typ.rank
    # a positive integer at every node, because the diagram is connected
    assert len(d) == n and all(x > 0 for x in d) and min(d) == 1
    sym = [[a[i][j] * d[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert sym[i][j] == sym[j][i]
    for k in range(1, n + 1):
        assert frac_det([row[:k] for row in sym[:k]]) > 0


def test_symmetrizer_values():
    assert symmetrizers(SimpleType("A", 5)) == (1, 1, 1, 1, 1)
    assert symmetrizers(SimpleType("B", 3)) == (2, 2, 1)
    assert symmetrizers(SimpleType("C", 3)) == (1, 1, 2)
    assert symmetrizers(F4) == (2, 2, 1, 1)
    assert symmetrizers(G2) == (1, 3)


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_dimension_against_closed_form(typ):
    assert dim_simple(typ) == dim_closed_form(typ)


def test_positive_roots_a2():
    assert positive_roots(SimpleType("A", 2)) == ((0, 1), (1, 0), (1, 1))


def test_positive_roots_g2():
    assert positive_roots(G2) == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))


def test_positive_root_counts():
    assert len(positive_roots(E8)) == 120
    assert len(positive_roots(SimpleType("B", 2))) == 4
    assert len(positive_roots(F4)) == 24


def reflection_closure(typ):
    """Every root, as the orbit of the simple roots under the simple reflections.

    s_i(beta) = beta - <beta, coroot_i> alpha_i, with the pairing read off
    column i of the Cartan matrix.
    """
    a = cartan_matrix(typ)
    n = typ.rank
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(beta[j] * a[j][i] for j in range(n))
            image = tuple(c - pairing * (k == i) for k, c in enumerate(beta))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return roots


# C2 and D3 keep their own numbering, the edge cases of _suffix_shape
NONCANONICAL = [SimpleType("C", 2), SimpleType("D", 3)]


@pytest.mark.parametrize("typ", ALL_TYPES + NONCANONICAL, ids=str)
def test_positive_roots_match_reflection_closure(typ):
    closure = reflection_closure(typ)
    positive = [beta for beta in closure if min(beta) >= 0]
    assert len(positive) * 2 == len(closure)
    assert positive_roots(typ) == tuple(sorted(positive, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize(
    "typ", [SimpleType(f, n) for f in "ABCD" for n in (40, 56)], ids=str
)
def test_positive_root_count_is_rank_times_half_coxeter_number(typ):
    assert 2 * len(positive_roots(typ)) == typ.rank * coxeter_number(typ)


@pytest.mark.parametrize(
    "typ", ALL_TYPES + [SimpleType(f, n) for n in (40, MAX_RANK) for f in "ABCD"], ids=str
)
def test_root_ancestry_steps_down_one_simple_root(typ):
    """The first rank roots are the simple roots, and every later root less
    some simple root is an earlier root, found by probing every coordinate."""
    roots = positive_roots(typ)
    n = typ.rank
    assert sorted(roots[:n]) == sorted(tuple(int(i == j) for j in range(n)) for i in range(n))
    earlier = set(roots[:n])
    for beta in roots[n:]:
        lower = (beta[:i] + (c - 1,) + beta[i + 1 :] for i, c in enumerate(beta) if c)
        assert any(r in earlier for r in lower), beta
        earlier.add(beta)


# closed-form highest roots of the classical families at rank n
HIGHEST_ROOT = {
    "A": lambda n: (1,) * n,
    "B": lambda n: (1,) + (2,) * (n - 1),
    "C": lambda n: (2,) * (n - 1) + (1,),
    "D": lambda n: (1,) + (2,) * (n - 3) + (1, 1),
}


@pytest.mark.parametrize("family", "ABCD")
def test_root_core_at_the_rank_ceiling(family):
    """Order, count and highest root of A-D at MAX_RANK."""
    n = MAX_RANK
    typ = SimpleType(family, n)
    roots = positive_roots(typ)
    keys = [(sum(r), r) for r in roots]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert 2 * len(roots) == n * coxeter_number(typ)
    assert roots[-1] == HIGHEST_ROOT[family](n)


@pytest.mark.parametrize(
    "typ",
    [t for t in table_types(24) if t.family in "ABCD"]
    + NONCANONICAL
    + [SimpleType(f, n) for n in (40, 56, 64) for f in "ABCD"],
    ids=str,
)
def test_a_d_roots_come_in_root_order_from_one_build(typ):
    """A-D write their roots down in root order, with no codes and no sort:
    consecutive roots must strictly ascend by (height, root), compared as
    tuples.  From cold caches A_n's list is _segment_roots(n) itself, and
    any one type makes one positive_roots miss, its own: B, C and D read
    A's runs of ones from the private cache, not through positive_roots."""
    positive_roots.cache_clear()
    rootsys._segment_roots.cache_clear()
    roots = positive_roots(typ)
    assert positive_roots.cache_info().misses == 1
    if typ.family == "A":
        assert roots is rootsys._segment_roots(typ.rank)
    keys = [(sum(r), r) for r in roots]
    assert all(x < y for x, y in zip(keys, keys[1:]))


def ancestry(typ):
    """One step down from every root of positive_roots(typ), as two flat
    index arrays: node[k] is the lowest node i with beta - alpha_i a root or
    zero, found by probing every coordinate, and parent[k] is that root's
    index, or -1 for zero.  The library builds no ancestry; this reference
    reads it off the root list, so it pins that list's order."""
    roots = positive_roots(typ)
    index = {beta: k for k, beta in enumerate(roots)}
    index[(0,) * typ.rank] = -1
    parent, node = array("i"), array("i")
    for beta in roots:
        lower = (beta[:i] + (c - 1,) + beta[i + 1 :] for i, c in enumerate(beta))
        i, below = next((i, r) for i, r in enumerate(lower) if r in index)
        parent.append(index[below])
        node.append(i)
    return parent, node


@pytest.mark.parametrize(
    "typ", ALL_TYPES + [SimpleType(f, MAX_RANK) for f in "ABCD"], ids=str
)
def test_root_ancestry_takes_the_lowest_down_node(typ):
    """Each root's lowest down node leads to zero or to an earlier root, so
    one pass in root order reaches every root from its parent; only the
    first rank roots, the simple ones, step down to zero."""
    roots = positive_roots(typ)
    parent, node = ancestry(typ)
    assert set(parent[: typ.rank]) == {-1} and -1 not in parent[typ.rank :]
    zero = (0,) * typ.rank
    for k, (p, i) in enumerate(zip(parent, node)):
        assert -1 <= p < k
        lower = zero if p < 0 else roots[p]
        assert roots[k] == tuple(c + (j == i) for j, c in enumerate(lower))


@pytest.mark.parametrize(
    "typ",
    [t for t in table_types(24) if t.family in "ABCD"]
    + NONCANONICAL
    + [SimpleType(f, n) for n in (40, 56, 64) for f in "ABCD"],
    ids=str,
)
def test_height_pass_agrees_with_the_closed_forms(typ):
    """A-D build their roots from closed forms, so the height pass that
    serves E, F and G is held to the same codes here, read back from the
    root tuples."""
    codes = [int.from_bytes(bytes(r), "big") for r in positive_roots(typ)]
    assert codes == rootsys._height_pass(typ)


def check_packed_counts(typ, simple):
    """_packed_counts counts _value_multiset's values where its cutoff rule
    packs, on A-D for a positive form whose simple values sum to at most
    rank**2, and is None exactly elsewhere."""
    packed = rootsys._packed_counts(typ, simple)
    if typ.family in "EFG" or min(simple) <= 0 or sum(simple) > typ.rank**2:
        assert packed is None
    else:
        assert Counter(dict(enumerate(packed, 1))) == Counter(rootsys._value_multiset(typ, simple))


@pytest.mark.parametrize(
    "typ",
    table_types(24) + NONCANONICAL + [SimpleType(f, n) for n in (40, 56, 64) for f in "ABCD"],
    ids=str,
)
def test_root_order_values_are_dot_products(typ):
    """_value_multiset gives a linear form on every root, in any order; the
    reference takes each root's dot product with the form, on rho and on
    seeded forms with entries of either sign.  _packed_counts counts the
    same multiset, or is None, by its cutoff rule, on rho and on seeded
    positive forms."""
    rng = random.Random(f"root values {typ}")
    forms = [symmetrizers(typ)] + [
        [rng.randint(-9, 9) for _ in range(typ.rank)] for _ in range(3)
    ]
    roots = positive_roots(typ)
    for simple in forms:
        dots = [sum(c * x for c, x in zip(beta, simple)) for beta in roots]
        assert sorted(rootsys._value_multiset(typ, simple)) == sorted(dots)
    positive = [[rng.randint(1, 9) for _ in range(typ.rank)] for _ in range(2)]
    for simple in forms[:1] + positive:
        check_packed_counts(typ, simple)


@pytest.mark.parametrize(
    "typ",
    [t for t in table_types(24) if t.family in "ABCD"]
    + [SimpleType(f, n) for n in (40, 56, 64) for f in "ABCD"],
    ids=str,
)
def test_suffix_sums_give_the_ancestry_walk_values(typ):
    """A-D read a linear form's values off suffix sums; a walk down the
    reference ancestry gives them in root order.  _value_multiset must give
    the walk's multiset, on rho and on seeded forms with entries of either
    sign or positive, and _packed_counts must count it, or be None, by its
    cutoff rule, on rho and on the positive forms."""
    rng = random.Random(f"suffix {typ}")
    forms = [symmetrizers(typ)] + [
        [rng.randint(-9, 9) for _ in range(typ.rank)] for _ in range(3)
    ]
    forms += [[rng.randint(1, 9) for _ in range(typ.rank)] for _ in range(2)]
    parent, node = ancestry(typ)
    for k, simple in enumerate(forms):
        walk: list[int] = []
        for p, i in zip(parent, node):
            walk.append((walk[p] if p >= 0 else 0) + simple[i])
        assert sorted(rootsys._value_multiset(typ, simple)) == sorted(walk)
        if k == 0 or min(simple) > 0:  # rho and the positive forms
            check_packed_counts(typ, simple)


@pytest.mark.parametrize(
    "typ",
    [t for t in table_types(24) if t.family in "ABCD"]
    + NONCANONICAL
    + [SimpleType(f, n) for n in (40, 56, 64, 128) for f in "ABCD"],
    ids=str,
)
def test_value_counts_cutoff(typ, monkeypatch):
    """On A-D, _packed_counts multiplies packed polynomials for a positive
    form whose simple values sum to at most rank**2, and returns None above
    that.  A seeded form summing to exactly rank**2 must be packed, with
    _value_multiset refused, into the counts of _value_multiset; one more
    must give None, with the packing helper refused.  Rank 128 packs two
    bytes per digit."""
    n = typ.rank
    rng = random.Random(f"cutoff {typ}")
    at = [n] * n
    for _ in range(n):  # move weight between nodes, keeping the sum n**2
        i, j = rng.randrange(n), rng.randrange(n)
        step = rng.randrange(at[i])
        at[i] -= step
        at[j] += step
    assert sum(at) == n * n and min(at) > 0
    above = at[:-1] + [at[-1] + 1]
    expected = Counter(rootsys._value_multiset(typ, at))

    def refuse(*args):
        raise AssertionError("wrong side of the cutoff")

    with monkeypatch.context() as m:
        m.setattr(rootsys, "_value_multiset", refuse)
        assert Counter(dict(enumerate(rootsys._packed_counts(typ, at), 1))) == expected
    monkeypatch.setattr(rootsys, "_packed", refuse)
    assert rootsys._packed_counts(typ, above) is None


def test_weyl_dimensions_on_a_d_build_no_ancestry():
    """dim_irrep and _rho_counts on A-D from cold caches build neither an
    ancestry nor a root list: both read their pairings off suffix sums."""
    types = [SimpleType(f, n) for f in "ABCD" for n in (5, 17)]
    for cache in (positive_roots, _rho_counts):
        cache.cache_clear()
    for typ in types:
        assert dim_irrep(typ, range(typ.rank)) > 1
        assert min(_rho_counts(typ)) == 1  # on the short simple roots
    assert positive_roots.cache_info().misses == 0


# sha256 of repr(positive_roots(t)), taken from a builder that probed root
# strings, before either of today's: the order and every tuple are pinned.
FINGERPRINTS = json.loads((Path(__file__).parent / "roots_sha256.json").read_text())


def test_fingerprints_cover_the_inventory():
    ceiling = [SimpleType(f, n) for n in (40, 56, 64) for f in "ABCD"]
    assert list(FINGERPRINTS) == [str(t) for t in table_types(24) + ceiling]


@pytest.mark.parametrize("name", FINGERPRINTS)
def test_positive_roots_fingerprint(name):
    roots = positive_roots(SimpleType(name[0], int(name[1:])))
    assert sha256(repr(roots).encode()).hexdigest() == FINGERPRINTS[name]


@pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
def test_a_d_of_one_rank_share_their_run_of_ones_tuples(n):
    """From cold caches, A-D of rank n built in either order give their
    pinned lists (C2 and D3, unpinned, give the same list in both orders),
    and every run of ones on B, C and D is A's tuple itself: all n(n+1)/2
    on B and C, and on D the n(n-1)/2 that stop short of node n and the
    n - 1 that end there."""
    types = [SimpleType(f, n) for f in "ABCD" if rootsys._is_type(f, n)]
    first: dict[SimpleType, tuple] = {}
    for order in (types, types[::-1]):
        positive_roots.cache_clear()
        rootsys._segment_roots.cache_clear()
        lists = {typ: positive_roots(typ) for typ in order}
        for typ, roots in lists.items():
            if str(typ) in FINGERPRINTS:
                assert sha256(repr(roots).encode()).hexdigest() == FINGERPRINTS[str(typ)]
            else:
                assert roots == first.setdefault(typ, roots)
        segments = {r: r for r in lists[types[0]]}
        for typ in types[1:]:
            shared = [r for r in lists[typ] if r in segments]
            assert len(shared) == (n * (n - 1) // 2 + n - 1 if typ.family == "D" else n * (n + 1) // 2)
            assert all(r is segments[r] for r in shared), typ


# sha256 of repr(ancestry(t)), typecodes included, taken from the
# positive_roots pass that kept a dict of down nodes per root.  The library
# keeps no ancestry now; the reference above reads the same arrays off the
# root list, so these pin its order once more.
ANCESTRY_FINGERPRINTS = json.loads((Path(__file__).parent / "ancestry_sha256.json").read_text())


def test_ancestry_fingerprints_cover_the_inventory():
    assert list(ANCESTRY_FINGERPRINTS) == list(FINGERPRINTS)


@pytest.mark.parametrize("name", ANCESTRY_FINGERPRINTS)
def test_root_ancestry_fingerprint(name):
    arrays = ancestry(SimpleType(name[0], int(name[1:])))
    assert sha256(repr(arrays).encode()).hexdigest() == ANCESTRY_FINGERPRINTS[name]


# sha256 of repr((cartan_matrix(t), symmetrizers(t))), taken while each family
# wrote its Cartan matrix by arrow cases and symmetrizers came from a Fraction
# walk over it; C2 and D3 are pinned in their own numbering too.
CARTAN_FINGERPRINTS = json.loads((Path(__file__).parent / "cartan_sha256.json").read_text())


def test_cartan_fingerprints_cover_the_inventory():
    assert list(CARTAN_FINGERPRINTS) == [*FINGERPRINTS, "C2", "D3"]


@pytest.mark.parametrize("name", CARTAN_FINGERPRINTS)
def test_cartan_and_symmetrizers_fingerprint(name):
    typ = SimpleType(name[0], int(name[1:]))
    data = (cartan_matrix(typ), symmetrizers(typ))
    assert sha256(repr(data).encode()).hexdigest() == CARTAN_FINGERPRINTS[name]


# sha256 of repr(inverse_cartan(t)) for the same names, taken while
# inverse_cartan ran Gauss-Jordan elimination over Fraction.
ICARTAN_FINGERPRINTS = json.loads((Path(__file__).parent / "icartan_sha256.json").read_text())


def test_icartan_fingerprints_cover_the_inventory():
    assert list(ICARTAN_FINGERPRINTS) == list(CARTAN_FINGERPRINTS)


@pytest.mark.parametrize("name", ICARTAN_FINGERPRINTS)
def test_inverse_cartan_fingerprint(name):
    scaled = inverse_cartan(SimpleType(name[0], int(name[1:])))
    assert sha256(repr(scaled).encode()).hexdigest() == ICARTAN_FINGERPRINTS[name]


@pytest.mark.parametrize("typ", MID_TYPES, ids=str)
def test_positive_roots_are_positive_and_distinct(typ):
    roots = positive_roots(typ)
    assert len(set(roots)) == len(roots)
    for beta in roots:
        assert all(c >= 0 for c in beta) and any(c > 0 for c in beta)


@pytest.mark.parametrize("typ", MID_TYPES, ids=str)
def test_root_string_closure(typ):
    """beta + alpha_i is a root exactly when p - pairing > 0 (beta != alpha_i)."""
    a = cartan_matrix(typ)
    n = typ.rank
    pos = positive_roots(typ)
    full = set(pos) | {tuple(-c for c in beta) for beta in pos}
    for beta in pos:
        for i in range(n):
            if beta == tuple(int(k == i) for k in range(n)):
                continue
            pairing = sum(beta[j] * a[j][i] for j in range(n))
            p = 0
            gamma = list(beta)
            gamma[i] -= 1
            while tuple(gamma) in full:
                p += 1
                gamma[i] -= 1
            up = list(beta)
            up[i] += 1
            assert (tuple(up) in full) == (p - pairing > 0)
            assert p <= 3 and p - pairing <= 3


def test_highest_root_dominates():
    for typ in MID_TYPES:
        top = highest_root(typ)
        for beta in positive_roots(typ):
            assert all(c >= b for c, b in zip(top, beta))


def test_highest_root_e8():
    assert highest_root(E8) == (2, 3, 4, 6, 5, 4, 3, 2)


@pytest.mark.parametrize(
    "typ", ALL_TYPES + [SimpleType(f, 40) for f in "ABCD"], ids=str
)
def test_root_to_weight_matches_transposed_cartan(typ):
    """The bond-list route agrees with the dense Cartan product on every positive root."""
    for beta in positive_roots(typ):
        assert root_to_weight(typ, beta) == weight_by_matrix(typ, beta)


def test_root_to_weight_simple_root_is_cartan_row():
    assert root_to_weight(SimpleType("A", 2), (1, 0)) == (2, -1)
    assert root_to_weight(E8, (0,) * 8) == (0,) * 8
    with pytest.raises(ValueError):
        root_to_weight(E8, (1, 0))
    for bad in [(0.5, 1), ("1", 0), (Fraction(1), 0)]:
        with pytest.raises(ValueError, match="root entry .* is not an integer"):
            root_to_weight(SimpleType("A", 2), bad)


def test_inverse_cartan_a1():
    assert inverse_cartan(SimpleType("A", 1)) == (((1,),), 2)


def test_inverse_cartan_e8_transcript():
    mat, det = inverse_cartan(E8)
    assert det == 1
    assert mat == ICARTAN_E8
    assert tuple(row[6] for row in mat) == (4, 6, 8, 12, 10, 8, 6, 3)


def test_inverse_cartan_a3_against_local_elimination():
    mat, det = inverse_cartan(SimpleType("A", 3))
    assert det == 4
    inv = frac_inverse(cartan_matrix(SimpleType("A", 3)))
    assert mat == tuple(tuple(int(x * det) for x in row) for row in inv)


@pytest.mark.parametrize(
    "matrix", [((2, -2), (-2, 2)), ((2, -3), (-3, 2))], ids=["affine A1", "indefinite"]
)
def test_inverse_cartan_refuses_a_nonpositive_leading_minor(monkeypatch, matrix):
    """The singular affine A1 matrix and an indefinite one have leading minor 2
    equal to 0 and -5: the reference elimination raises RuntimeError, not an
    assert that python -O would drop.  inverse_cartan itself has no pivot."""
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda typ: matrix)
    with pytest.raises(RuntimeError, match="leading minor 2 of the Cartan matrix of A2 is"):
        inverse_cartan_by_elimination(SimpleType("A", 2))


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_inverse_cartan_identity(typ):
    a = cartan_matrix(typ)
    mat, det = inverse_cartan(typ)
    n = typ.rank
    for i in range(n):
        row = [(k, c) for k, c in enumerate(a[i]) if c]  # at most four entries
        for j in range(n):
            got = sum(c * mat[k][j] for k, c in row)
            assert got == (det if i == j else 0)
    assert det == int(frac_det(a))
    assert (mat, det) == inverse_cartan_by_elimination(typ)


def test_components_e8_drop_7():
    comps = subdiagram_components(E8, [i for i in range(1, 9) if i != 7])
    assert [c.typ for c in comps] == [E6, SimpleType("A", 1)]
    assert comps[0].nodes == (6, 2, 5, 4, 3, 1)
    assert comps[1].nodes == (8,)


def test_components_e7_drop_1():
    comps = subdiagram_components(SimpleType("E", 7), range(2, 8))
    assert [c.typ for c in comps] == [SimpleType("D", 6)]
    assert comps[0].nodes == (7, 6, 5, 4, 3, 2)


def test_components_e8_drop_1():
    comps = subdiagram_components(E8, range(2, 9))
    assert [c.typ for c in comps] == [SimpleType("D", 7)]
    assert comps[0].nodes == (8, 7, 6, 5, 4, 3, 2)


def test_components_empty_and_full():
    assert subdiagram_components(SimpleType("A", 5), []) == ()
    comps = subdiagram_components(E7, range(1, 8))
    assert [c.typ for c in comps] == [E7]
    assert comps[0].nodes == (1, 2, 3, 4, 5, 6, 7)


def test_components_canonical_coincidences():
    # a rank-2 double-bond shape is B2, a rank-3 fork is the A3 chain
    comps = subdiagram_components(SimpleType("C", 3), [2, 3])
    assert [c.typ for c in comps] == [SimpleType("B", 2)]
    comps = subdiagram_components(SimpleType("D", 4), [1, 2, 3])
    assert [c.typ for c in comps] == [SimpleType("A", 3)]


def test_components_out_of_range():
    with pytest.raises(ValueError, match=r"nodes \[0, 1\] out of range for A3"):
        subdiagram_components(SimpleType("A", 3), [1, 0, 1])


# Levi shapes after removing one node, from the published case analysis
LEVI_SHAPES = {
    (E6, 1): ["D5"],
    (E6, 2): ["A5"],
    (E6, 3): ["A1", "A4"],
    (E6, 4): ["A2", "A1", "A2"],
    (E6, 5): ["A4", "A1"],
    (E6, 6): ["D5"],
    (E7, 1): ["D6"],
    (E7, 2): ["A6"],
    (E7, 3): ["A1", "A5"],
    (E7, 4): ["A2", "A1", "A3"],
    (E7, 5): ["A4", "A2"],
    (E7, 6): ["D5", "A1"],
    (E7, 7): ["E6"],
    (E8, 1): ["D7"],
    (E8, 2): ["A7"],
    (E8, 3): ["A1", "A6"],
    (E8, 4): ["A2", "A1", "A4"],
    (E8, 5): ["A4", "A3"],
    (E8, 6): ["D5", "A2"],
    (E8, 7): ["E6", "A1"],
    (E8, 8): ["E7"],
    (F4, 1): ["C3"],
    (F4, 2): ["A1", "A2"],
    (F4, 3): ["A2", "A1"],
    (F4, 4): ["B3"],
    (G2, 1): ["A1"],
    (G2, 2): ["A1"],
}


@pytest.mark.parametrize("typ,node", sorted(LEVI_SHAPES, key=lambda k: (str(k[0]), k[1])), ids=lambda v: str(v))
def test_single_node_levi_shapes(typ, node):
    kept = [i for i in range(1, typ.rank + 1) if i != node]
    comps = subdiagram_components(typ, kept)
    assert [str(c.typ) for c in comps] == LEVI_SHAPES[(typ, node)]


@pytest.mark.parametrize("typ", MID_TYPES, ids=str)
def test_component_relabeling_is_an_isomorphism(typ):
    """On every node subset, the components partition the kept nodes, carry a canonical
    type, and carry its Cartan entries onto the original ones; up to rank 5, brute force
    over all permutations confirms that ``nodes`` is the largest such labeling."""
    a = cartan_matrix(typ)
    checked = set()
    for mask in range(1 << typ.rank):
        kept = [i for i in range(1, typ.rank + 1) if mask >> (i - 1) & 1]
        comps = subdiagram_components(typ, kept)
        assert sorted(i for c in comps for i in c.nodes) == kept
        for comp in comps:
            if comp.nodes in checked:
                continue
            checked.add(comp.nodes)
            assert canonicalize(comp.typ) == comp.typ
            ca = cartan_matrix(comp.typ)
            k = comp.typ.rank

            def fits(nodes):
                return all(
                    ca[p][q] == a[nodes[p] - 1][nodes[q] - 1] for p in range(k) for q in range(k)
                )

            assert fits(comp.nodes)
            if k <= 5:
                assert comp.nodes == max(filter(fits, permutations(comp.nodes)))


@pytest.mark.parametrize("typ", [E6, E7, E8, F4, G2], ids=str)
def test_bond_naming_matches_whole_matrices_exceptional(typ):
    """On every node subset, naming by bonds agrees with the whole-matrix route."""
    for mask in range(1 << typ.rank):
        kept = [i for i in range(1, typ.rank + 1) if mask >> (i - 1) & 1]
        assert subdiagram_components(typ, kept) == components_by_matrix(typ, kept), kept


def test_component_cache_key_holds_no_node_numbers():
    """Every window of k consecutive nodes of A64 is the same shape, the A_k
    chain, so labeling all of them adds exactly one cache entry per k."""
    a64 = SimpleType("A", 64)
    rootsys._component.cache_clear()  # a warm mask cache would hide _identify
    rootsys._identify.cache_clear()
    for k in range(1, 65):
        for s in range(1, 66 - k):
            window = range(s, s + k)
            want = Component(SimpleType("A", k), tuple(window)[::-1])
            assert subdiagram_components(a64, window) == (want,)
        assert rootsys._identify.cache_info().currsize == k


def test_component_shapes_shared_across_types_never_collide():
    """From a cold cache, every node subset of five types whose subdiagrams
    share shapes (chains of single bonds, B and C ends, forks) is named as the
    whole-matrix route names it, so no two shapes meet in one cache key."""
    rootsys._component.cache_clear()
    rootsys._identify.cache_clear()
    for typ in [SimpleType("B", 5), SimpleType("C", 5), F4, SimpleType("D", 5), E6]:
        for mask in range(1 << typ.rank):
            kept = [i for i in range(1, typ.rank + 1) if mask >> (i - 1) & 1]
            assert subdiagram_components(typ, kept) == components_by_matrix(typ, kept), (typ, kept)
    assert rootsys._identify.cache_info().hits > 0


@pytest.mark.parametrize(
    "typ",
    [SimpleType(f, n) for f in "ABCD" for n in (40, MAX_RANK)],
    ids=str,
)
def test_bond_naming_matches_whole_matrices_classical(typ):
    """200 seeded node subsets, at densities from sparse to nearly full, so that
    long chains, the D fork and the B/C double bond all come up."""
    rng = random.Random(f"{typ}-components")
    for _ in range(200):
        density = rng.random()
        kept = [i for i in range(1, typ.rank + 1) if rng.random() < density]
        got = subdiagram_components(typ, kept)
        want = components_by_matrix(typ, kept)
        assert [c.typ for c in got] == [c.typ for c in want], kept
        assert [c.nodes for c in got] == [c.nodes for c in want], kept


def test_table_types_inventory():
    names = [str(t) for t in table_types(4)]
    assert names == [
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
        "E6", "E7", "E8", "F4", "G2",
    ]
    assert len(table_types(12)) == 47
