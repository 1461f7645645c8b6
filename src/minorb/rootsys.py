"""Root systems for the simple types in Bourbaki numbering.

Everything here is exact integer combinatorics: Cartan matrices, positive
roots, the change to fundamental-weight coordinates, and the classification
of Dynkin subdiagrams.  Conventions fixed once, for every other module:

* ``cartan_matrix(typ)[i][j]`` is the pairing of the simple root ``alpha_i+1``
  with the coroot of ``alpha_j+1``, so row ``i`` holds the coordinates of
  ``alpha_i+1`` in the basis of fundamental weights.
* Roots and weights are plain integer tuples; a root is written in the
  simple-root basis, a weight in the fundamental-weight basis.
* Positive roots are listed by height and then lexicographically.  A-D
  write theirs down from the closed forms of Bourbaki's Plates I-IV, as
  differences and sums of suffix sums of the simple roots; E, F and G,
  whose root lists have no short closed form, derive theirs from the
  Cartan matrix height by height.  The tests hold the two builders to the
  same output on A-D.  A linear form on roots is additive, so on A-D the
  same suffix sums of its simple-root values give its values on the roots
  (a Weyl pairing, say), in no fixed order, with no root built.  E, F and
  G take one dot product per root.
* Each family's diagram is written once, as its edges and the root length
  ``d_i`` of each node: the symmetrizers, minimal positive integers making
  ``cartan * diag(d)`` symmetric.  A bond p - q has Cartan entries
  ``C[p][q] = -max(1, d_p // d_q)`` and ``C[q][p] = -max(1, d_q // d_p)``.
* ``inverse_cartan`` eliminates in integers (Bareiss 1968): every entry met is
  a minor of ``[C | I]`` (Sylvester's identity), so each division is exact;
  each pivot is a leading minor of ``C``, positive as ``C * diag(d)`` is
  positive definite, so no row needs a swap.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, chain, permutations
from operator import add, index, mul
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

# Largest rank parse_type accepts: `minorb invariants D64 --json` takes about
# 0.17 s (median of nine cold processes, 2-vCPU VM, Python 3.11.7; the VM's
# speed drifts by up to 2x).  SimpleType itself is unbounded, so library
# callers may go higher.
MAX_RANK = 64
# Largest weight entry, in absolute value, that the command line accepts:
# `minorb minorbit D64` with every entry at the ceiling prints a 36,289-digit
# dimension in about 0.19 s, measured the same way.
MAX_WEIGHT_ENTRY = 10**9
# Longest user text an error message quotes in full.
MAX_QUOTED = 60

_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


def _is_type(family: str, rank: int) -> bool:
    """Whether a family letter and rank name a simple type (C2 and D3 included)."""
    if family in _RANK_MIN:
        return rank >= _RANK_MIN[family]
    return rank in _EXCEPTIONAL_RANKS.get(family, ())


def checked_rank(rank: int) -> int:
    """rank as a plain int, read by operator.index as in _integers; else ValueError."""
    try:
        return index(rank)
    except TypeError:
        raise ValueError(f"rank {rank!r} is not an integer") from None


class SimpleType(NamedTuple("SimpleType", [("family", str), ("rank", int)])):
    """A simple type: family letter A-G plus rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> SimpleType:
        if family not in _RANK_MIN and family not in _EXCEPTIONAL_RANKS:
            raise ValueError(f"unknown family {family!r}")
        rank = checked_rank(rank)
        if not _is_type(family, rank):
            raise ValueError(f"invalid rank {rank} for family {family}")
        return tuple.__new__(cls, (family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def canonicalize(typ: SimpleType) -> SimpleType:
    """Fold the coincidences C2 = B2 and D3 = A3 onto their canonical names."""
    if (typ.family, typ.rank) == ("C", 2):
        return SimpleType("B", 2)
    if (typ.family, typ.rank) == ("D", 3):
        return SimpleType("A", 3)
    return typ


def parse_type(text: str) -> SimpleType:
    """Parse a type string such as 'E8' or 'c3' (case-insensitive, canonicalized).

    Ranks above MAX_RANK are refused; a rank with more digits than MAX_RANK
    is refused from its length, before int() reads it.
    """
    m = re.fullmatch(r"([A-Ga-g])([0-9]+)", text.strip())
    if m is None:
        raise ValueError(f"cannot parse simple type {clipped(text)!r}")
    digits = m.group(2).lstrip("0") or "0"
    if len(digits) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
        raise ValueError(f"rank {clipped(digits)} exceeds the maximum {MAX_RANK}")
    return canonicalize(SimpleType(m.group(1).upper(), int(digits)))


def clipped(text: str) -> str:
    """text to quote in an error message, cut to MAX_QUOTED characters and an ellipsis."""
    return text if len(text) <= MAX_QUOTED else text[:MAX_QUOTED] + "\u2026"


def table_types(max_rank: int) -> list[SimpleType]:
    """The rows of the summary tables: canonical classical types up to max_rank,
    then every exceptional type."""
    classical = (SimpleType(f, n) for f, low in _RANK_MIN.items() for n in range(low, max_rank + 1))
    exceptional = (SimpleType(f, n) for f, ranks in _EXCEPTIONAL_RANKS.items() for n in ranks)
    return [t for t in chain(classical, exceptional) if canonicalize(t) == t]


def _diagram(typ: SimpleType) -> tuple[tuple[tuple[int, int], ...], Vector]:
    """The Dynkin diagram (Bourbaki, Plates I-IX): its edges as 0-based pairs
    p < q in lexicographic order, and the root length d_i of each node."""
    n, family = typ.rank, typ.family
    edges = [(i, i + 1) for i in range(n - 1)]
    if family == "D":  # nodes n-1 and n both hang off node n-2
        edges[-1] = (n - 3, n - 1)
    elif family == "E":  # 1 - 3 - 4 - 5 - ..., with node 2 hanging off node 4
        edges[:2] = [(0, 2), (1, 3)]
    lengths = {
        "B": (2,) * (n - 1) + (1,),  # alpha_n is the short root
        "C": (1,) * (n - 1) + (2,),  # alpha_n is the long root
        "F": (2, 2, 1, 1),
        "G": (1, 3),  # alpha_1 is the short root
    }.get(family, (1,) * n)
    return tuple(edges), lengths


@lru_cache(maxsize=None)
def cartan_matrix(typ: SimpleType) -> Matrix:
    """The Cartan matrix in Bourbaki numbering: 2 on the diagonal, plus the bonds."""
    n = typ.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for p, q, apq, aqp in _bonds(typ):
        a[p][q], a[q][p] = apq, aqp
    return tuple(tuple(row) for row in a)


@lru_cache(maxsize=None)
def symmetrizers(typ: SimpleType) -> Vector:
    """Minimal positive integers d with a[i][j] * d[j] == a[j][i] * d[i]: the root lengths."""
    return _diagram(typ)[1]


@lru_cache(maxsize=None)  # bench/spans.py counts root builds at its cache misses
def positive_roots(typ: SimpleType) -> tuple[Vector, ...]:
    """All positive roots, by height then lexicographically.

    A root is built as one int, a byte per node with node 1 most
    significant, so beta + alpha_i is one addition and integer order is
    lexicographic order.  A byte is ample: no coefficient exceeds 6 (E8's
    highest root).  The builder is chosen by family, because a closed form
    for the roots belongs to a family: A-D have one each, valid at every
    rank, and their root counts grow with the rank, so _classical_codes
    writes them down.  E, F and G are five fixed types with at most 120
    positive roots, which _height_pass derives from the Cartan matrix.
    Both give the roots by height and then by code; the tests run
    _height_pass on A-D too and check that the two agree.
    """
    codes = _classical_codes(typ) if typ.family in _RANK_MIN else _height_pass(typ)
    n = typ.rank
    return tuple(tuple(code.to_bytes(n, "big")) for code in codes)


def _height_pass(typ: SimpleType) -> list[int]:
    """Root codes by height and then by code, from the Cartan matrix.

    No root string is probed: beta + alpha_i is a root iff p_i > <beta,
    coroot_i> (Humphreys, Introduction to Lie Algebras, 9.4), where p_i counts
    how often alpha_i can be subtracted from beta, and p_i(beta + alpha_i) =
    p_i(beta) + 1.  Each root carries its coroot pairings, the sum of its
    steps' Cartan rows, and its nonzero depths, alpha_i's own step as one.
    """
    n, a, unit = typ.rank, cartan_matrix(typ), _units(typ.rank)
    codes: list[int] = []
    layer = {unit[i]: (a[i], {i: 1}) for i in range(n)}
    while layer:
        codes += sorted(layer)
        nxt: dict[int, tuple[Vector, dict[int, int]]] = {}
        for code, (pairings, depths) in layer.items():
            for i, c in enumerate(pairings):
                if (p := depths.get(i, 0)) > c:
                    up = code + unit[i]
                    if up not in nxt:
                        nxt[up] = (tuple(map(add, pairings, a[i])), {})
                    nxt[up][1][i] = p + 1
        layer = nxt
    return codes


def _units(n: int) -> list[int]:
    """The codes of the n simple roots: a byte per node, node 1 most significant."""
    return [1 << 8 * (n - 1 - i) for i in range(n)]


def _suffix_form(typ: SimpleType, simple: Sequence[int]) -> list[int]:
    """A linear form on every A-D positive root, from suffix sums, in
    enumeration order (not root order).

    With suf[i] = simple[i] + ... + simple[n - 1] (0-based node i on;
    suf[n] = 0), the positive roots are the epsilon_i -+ epsilon_j of
    Bourbaki's Plates I-IV (Lie Groups and Lie Algebras, Ch. VI): the
    segments suf[i] - suf[j], i < j <= n (j <= n - 1 for D), then for B, C,
    D the sums suf[i] - suf[m] + suf[j], with m = n, n - 1, n - 2 and j
    from i + 1, i, i + 1 up to n - 1, n - 2, n - 1.  A form is additive, so
    these are its values whatever it is: the codes on the unit codes, the
    heights on all ones, a Weyl pairing on its simple-root values.
    """
    n, family = typ.rank, typ.family
    suf = list(accumulate(reversed(simple), initial=0))[::-1]
    last = n - 1 if family == "D" else n
    out = [si - sj for i, si in enumerate(suf[:n]) for sj in suf[i + 1 : last + 1]]
    if family != "A":
        first, last, m = {
            "B": (1, n - 1, n), "C": (0, n - 2, n - 1), "D": (1, n - 1, n - 2)
        }[family]
        bases = [si - suf[m] for si in suf[:n]]
        out += [b + sj for i, b in enumerate(bases) for sj in suf[i + first : last + 1]]
    return out


def _classical_codes(typ: SimpleType) -> list[int]:
    """Root codes of A-D by height and then by code, from _suffix_form:
    bucketed by height and sorted within each bucket."""
    n = typ.rank
    buckets: list[list[int]] = [[] for _ in range(2 * n)]
    for height, code in zip(_suffix_form(typ, [1] * n), _suffix_form(typ, _units(n))):
        buckets[height].append(code)
    return [code for bucket in buckets for code in sorted(bucket)]


def _value_multiset(typ: SimpleType, simple: Sequence[int]) -> list[int]:
    """A linear form on every positive root, in no fixed order, from its
    values on the simple roots: the suffix form itself for A-D; E, F and G,
    with at most 120 roots of rank at most 8, take one dot product per root."""
    if typ.family in _RANK_MIN:
        return _suffix_form(typ, simple)
    return [sum(map(mul, root, simple)) for root in positive_roots(typ)]


@lru_cache(maxsize=None)
def root_columns(typ: SimpleType) -> tuple[bytes, ...]:
    """The positive roots read by column, one byte per root in root order.

    Column i holds the coefficient of alpha_(i+1) in every positive root,
    so a grade count is ``bytes.count`` and a support test is one
    ``bytes.translate``, both in C.
    """
    n = typ.rank
    flat = b"".join(map(bytes, positive_roots(typ)))
    return tuple(flat[i::n] for i in range(n))


@lru_cache(maxsize=None)
def highest_root(typ: SimpleType) -> Vector:
    """The last positive root, which dominates every root coefficientwise."""
    return positive_roots(typ)[-1]


def dim_simple(typ: SimpleType) -> int:
    """Dimension of the simple Lie algebra: rank plus the number of roots."""
    return typ.rank + 2 * len(positive_roots(typ))


def checked_weight(typ: SimpleType, weight: Iterable[int]) -> Vector:
    """A dominant weight of typ as an integer tuple; ValueError otherwise."""
    w = _integers(weight, "weight")
    if len(w) != typ.rank:
        raise ValueError(f"weight length {len(w)} does not match rank of {typ}")
    if any(c < 0 for c in w):
        raise ValueError(f"weight {w} is not dominant")
    return w


def checked_nodes(typ: SimpleType, nodes: Iterable[int]) -> Vector:
    """A node set of typ, sorted and without duplicates; ValueError if out of range."""
    out = sorted(set(_integers(nodes, "node")))
    if out and not (1 <= out[0] and out[-1] <= typ.rank):
        raise ValueError(f"nodes {out} out of range for {typ}")
    return tuple(out)


def _integers(values: Iterable[int], what: str) -> Vector:
    """The values as ints; ValueError naming the first that is not an integer.

    operator.index refuses floats and strings instead of truncating them.
    """
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        for c in values:
            try:
                index(c)
            except TypeError:
                raise ValueError(f"{what} entry {c!r} is not an integer") from None
        raise


def root_to_weight(typ: SimpleType, root: Iterable[int]) -> Vector:
    """Fundamental-weight coordinates of a simple-root coordinate vector.

    Entry i is the sum over j of C[j][i] * root[j]: 2 * root[i] from the
    diagonal, plus one term per bond end, so the cost is O(n).
    """
    root = _integers(root, "root")
    if len(root) != typ.rank:
        raise ValueError(f"expected {typ.rank} coordinates, got {len(root)}")
    return _root_to_weight(typ, root)


def _root_to_weight(typ: SimpleType, root: Vector) -> Vector:
    """root_to_weight on a root already read as typ.rank ints."""
    out = [2 * c for c in root]
    for p, q, apq, aqp in _bonds(typ):
        out[q] += apq * root[p]
        out[p] += aqp * root[q]
    return tuple(out)


@lru_cache(maxsize=None)
def inverse_cartan(typ: SimpleType) -> tuple[Matrix, int]:
    """det(C) * C^{-1} as an integer matrix, and det(C), the last pivot of a
    fraction-free Gauss-Jordan elimination on [C | I]: at pivot k every row
    r != k becomes (p_k * row_r - C[r][k] * row_k) // p_(k-1), with p_(-1) = 1."""
    n = typ.rank
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan_matrix(typ))]
    prev = 1
    for k, pivot_row in enumerate(aug):
        if (p := pivot_row[k]) <= 0:
            raise RuntimeError(f"leading minor {k + 1} of the Cartan matrix of {typ} is {p} <= 0")
        for r, row in enumerate(aug):
            if r != k:
                new = [p * x - row[k] * y for x, y in zip(row, pivot_row)]
                if any(x % prev for x in new):
                    raise RuntimeError(f"leading minor {k} of {typ} divides with a remainder")
                aug[r] = [x // prev for x in new]
        prev = p
    return tuple(tuple(row[n:]) for row in aug), prev


class Component(NamedTuple):
    """A connected piece of an induced Dynkin subdiagram.

    ``nodes[k]`` is the original node sitting at Bourbaki position ``k + 1``
    of ``typ``.  The candidates are walks read from the diagram's ends (both
    directions of a chain, every ordering of a fork's arms, and E's one
    reordering): a diagram automorphism can only permute ends and arms.  A
    walk relabels the component's bonds, its m-th node becoming position m,
    and ``typ`` is the first family in ABCDEFG whose own bonds at that rank
    equal some walk's, so C2 and D3 shapes come back as B2 and A3.  Of the
    walks giving those bonds, the lexicographically largest ``nodes`` is
    chosen, so labelings are deterministic under diagram symmetries.
    """

    typ: SimpleType
    nodes: Vector


def subdiagram_components(typ: SimpleType, kept: Iterable[int]) -> tuple[Component, ...]:
    """Connected components of the subdiagram induced on the kept nodes.

    Components are listed by smallest original node.  Identification is
    structural (bond multiplicities, arrow directions, branch shapes), so
    C2 and D3 shapes come back as B2 and A3.  The kept nodes become a bit
    mask, bit i for node i + 1; each component grows from the lowest kept
    node left by ORing the neighbour masks of the nodes it reaches, and
    each connected mask is named once per type by _component.
    """
    return _components(typ, sum(1 << (u - 1) for u in checked_nodes(typ, kept)))


def _components(typ: SimpleType, mask: int) -> tuple[Component, ...]:
    """subdiagram_components on a mask of nodes already checked, bit i for node i + 1."""
    neighbours = _neighbours(typ)
    out = []
    while mask:
        new, comp = mask & -mask, 0
        while new:  # new: nodes reached in the last step, not yet in comp
            comp |= new
            mask ^= new
            reach = 0
            while new:
                low = new & -new
                reach |= neighbours[low.bit_length() - 1]
                new ^= low
            new = reach & mask
        out.append(_component(typ, comp))
    return tuple(out)


@lru_cache(maxsize=None)
def _neighbours(typ: SimpleType) -> tuple[int, ...]:
    """One int per node: bit v of entry u is set when 0-based nodes u and v are bonded."""
    out = [0] * typ.rank
    for p, q, _, _ in _bonds(typ):
        out[p] |= 1 << q
        out[q] |= 1 << p
    return tuple(out)


@lru_cache(maxsize=None)
def _component(typ: SimpleType, mask: int) -> Component:
    """The Component on a connected node mask: its nodes in increasing order are
    positions 0..k-1, and _identify names its shape, k plus its bonds between
    positions, once, returning a labeling by positions that is mapped to nodes."""
    nodes = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
    pos = {u - 1: k for k, u in enumerate(nodes)}
    shape = tuple(  # sorted, as bonds come sorted and positions rise with nodes
        (pos[p], pos[q], apq, aqp) for p, q, apq, aqp in _bonds(typ) if p in pos and q in pos
    )
    ctyp, order = _identify(len(nodes), shape)
    return Component(ctyp, tuple(nodes[i] for i in order))


@lru_cache(maxsize=None)
def _bonds(typ: SimpleType) -> tuple[tuple[int, int, int, int], ...]:
    """Each bond of typ as (p, q, C[p][q], C[q][p]), 0-based nodes p < q, with
    both Cartan entries read off the root lengths."""
    edges, d = _diagram(typ)
    return tuple((p, q, -max(1, d[p] // d[q]), -max(1, d[q] // d[p])) for p, q in edges)


@lru_cache(maxsize=None)
def _identify(k: int, bonds: tuple[tuple[int, int, int, int], ...]) -> tuple[SimpleType, Vector]:
    """Name a component shape and pick its largest Bourbaki labeling, as positions.

    The shape is k positions and its bonds (i, j, C[i][j], C[j][i]), i < j,
    so no node number enters the cache key.  Each walk w relabels the bonds
    (position w[m] becomes index m, lower index first, sorted), and walks are
    grouped by the result.  The first family valid at rank k whose _bonds key
    a group names the shape; that group's largest walk labels it.  Positions
    rise with node numbers, so the largest walk over positions is the largest
    over nodes.
    """
    adj: list[list[int]] = [[] for _ in range(k)]
    for p, q, _, _ in bonds:
        adj[p].append(q)
        adj[q].append(p)
    center = next((u for u in range(k) if len(adj[u]) == 3), None)
    if center is None:
        line = _arm(next(u for u in range(k) if len(adj[u]) <= 1), None, adj)
        walks = [line, line[::-1]]
    else:
        walks = []
        for x, y, z in permutations(_arm(v, center, adj) for v in adj[center]):
            walks.append(x[::-1] + [center] + y + z)
            if len(x) == 2 and len(y) == 1:
                walks.append([x[1], y[0], x[0], center] + z)
    groups: dict[tuple[tuple[int, int, int, int], ...], list[list[int]]] = {}
    for w in walks:
        at = {u: m for m, u in enumerate(w)}
        relabelled = sorted(
            (at[p], at[q], x, y) if at[p] < at[q] else (at[q], at[p], y, x) for p, q, x, y in bonds
        )
        groups.setdefault(tuple(relabelled), []).append(w)
    for family in "ABCDEFG":
        if _is_type(family, k) and (fits := groups.get(_bonds(SimpleType(family, k)))):
            return SimpleType(family, k), tuple(max(fits))
    raise RuntimeError("not a Dynkin diagram component")


def _arm(start: int, prev: int | None, adj: list[list[int]]) -> list[int]:
    """The nodes met walking from start away from prev until the chain ends."""
    path = [start]
    while nxt := [v for v in adj[path[-1]] if v != prev]:
        prev = path[-1]
        path.append(nxt[0])
    return path
