"""Root systems for the simple types in Bourbaki numbering.

Everything here is exact integer combinatorics: Cartan matrices, positive
roots, the change to fundamental-weight coordinates, and the classification
of Dynkin subdiagrams.  Conventions fixed once, for every other module:

* ``cartan_matrix(typ)[i][j]`` is the pairing of the simple root ``alpha_i+1``
  with the coroot of ``alpha_j+1``, so row ``i`` holds the coordinates of
  ``alpha_i+1`` in the basis of fundamental weights.
* Roots and weights are plain integer tuples; a root is written in the
  simple-root basis, a weight in the fundamental-weight basis.
* Positive roots are listed by height and then lexicographically.
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
from array import array
from functools import lru_cache
from itertools import chain, permutations
from operator import index
from typing import Iterable, NamedTuple

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


@lru_cache(maxsize=None)
def _root_pass(typ: SimpleType) -> tuple[tuple[Vector, ...], array, array]:
    """The positive roots with their ancestry arrays, from one pass.

    The pass goes height by height and probes no root string.  beta + alpha_i
    is a root iff p_i > <beta, coroot_i>, where p_i counts how often alpha_i
    can be subtracted from beta, and p_i(beta + alpha_i) = p_i(beta) + 1.
    Each root carries its depths p_i and coroot pairings packed a byte per
    node, so one subtraction marks all its up nodes.
    """
    n = typ.rank
    # A root is one int, a byte per node with node 1 most significant, so
    # beta + alpha_i is one addition and integer order is lexicographic
    # order.  A byte is ample: no coefficient exceeds 6 (E8's highest root).
    shift = [8 * (n - 1 - i) for i in range(n)]
    unit = [1 << s for s in shift]
    ones = sum(unit)
    # Pairings (-3..3) and depths (0..3) are packed the same way, so byte i of
    # depths + 0x7f * ones - pairings is 0x7c..0x85: no byte borrows, and its
    # top bit is set exactly when p_i > <beta, coroot_i>.  Cartan row i is
    # packed from the diagonal 2 and one term per bond end: O(n) in all.
    rows = [2 << s for s in shift]
    for p, q, apq, aqp in _bonds(typ):
        rows[p] += apq << shift[q]
        rows[q] += aqp << shift[p]
    up_base, up_bits = 0x7F * ones, 0x80 * ones
    # top bit of node i's byte -> (i, its unit, its byte mask, its Cartan row)
    steps = {s + 7: (i, unit[i], 255 << s, rows[i]) for i, s in enumerate(shift)}
    codes: list[int] = []
    parent, node = array("i"), array("i")
    # code -> [pairings, depths, parent index, node]; a root is first reached
    # from its smallest parent, one step down by its lowest node, as layers
    # are walked in order.  A simple root's depth 1 is its zero step.
    layer = {unit[i]: [rows[i], unit[i], -1, i] for i in range(n)}
    while layer:
        nxt: dict[int, list[int]] = {}
        for code in sorted(layer):
            pairings, depths, low_parent, low = layer[code]
            k = len(codes)
            codes.append(code)
            parent.append(low_parent)
            node.append(low)
            ups = (depths + up_base - pairings) & up_bits
            while ups:
                top = ups.bit_length() - 1
                ups ^= 1 << top
                i, u, byte, row = steps[top]
                depth = (depths & byte) + u
                child = nxt.get(code + u)
                if child is None:
                    nxt[code + u] = [pairings + row, depth, k, i]
                else:
                    child[1] += depth
        layer = nxt
    return tuple(tuple(code.to_bytes(n, "big")) for code in codes), parent, node


@lru_cache(maxsize=None)  # bench/spans.py counts root builds at its cache misses
def positive_roots(typ: SimpleType) -> tuple[Vector, ...]:
    """All positive roots, by height then lexicographically."""
    return _root_pass(typ)[0]


def root_ancestry(typ: SimpleType) -> tuple[array, array]:
    """One step down from every positive root, as two flat index arrays.

    For ``beta = positive_roots(typ)[k]``, ``node[k]`` is the lowest 0-based
    node i such that beta - alpha_i is a positive root or zero, and
    ``parent[k]`` is the index of that root, or -1 when beta is alpha_i
    itself.  Both come from the pass that builds the roots.  Roots come by
    height, so every parent precedes its child, and any linear form on
    roots follows from its values on the simple roots in one pass.
    """
    return _root_pass(typ)[1:]


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


def root_to_weight(typ: SimpleType, root: Vector) -> Vector:
    """Fundamental-weight coordinates of a simple-root coordinate vector.

    Entry i is the sum over j of C[j][i] * root[j]: 2 * root[i] from the
    diagonal, plus one term per bond end, so the cost is O(n).
    """
    n = typ.rank
    if len(root) != n:
        raise ValueError(f"expected {n} coordinates, got {len(root)}")
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
    of ``typ``.  Among all structure-preserving identifications the one with
    the lexicographically largest ``nodes`` tuple is chosen, so relabelings
    are deterministic even when the component has diagram symmetries.  The
    candidates are walks read from the diagram's ends (both directions of a
    chain, every ordering of a fork's arms); each identification is one of
    them, because a diagram automorphism can only permute ends and arms.  A
    walk fits a type when it carries the type's k - 1 bonds onto bonds with
    the same Cartan entries: the component is a tree with k - 1 bonds, so
    every other entry is zero on both sides.
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
def _shapes(k: int, fork: bool) -> tuple[SimpleType, ...]:
    """The canonical types of rank k whose diagram is a fork, or a chain."""
    families = "DE" if fork else "ABCFG"
    return tuple(dict.fromkeys(canonicalize(SimpleType(f, k)) for f in families if _is_type(f, k)))


@lru_cache(maxsize=None)
def _identify(k: int, bonds: tuple[tuple[int, int, int, int], ...]) -> tuple[SimpleType, Vector]:
    """Name a component shape and pick its largest Bourbaki labeling, as positions.

    The shape is k positions and its bonds (i, j, C[i][j], C[j][i]), i < j,
    so no node number enters the cache key.  Each candidate walk is checked
    on the k - 1 bonds of each type of its size and shape.  Positions rise
    with node numbers, so the largest walk over positions is the largest
    over nodes.
    """
    adj: list[list[int]] = [[] for _ in range(k)]
    entries: dict[tuple[int, int], int] = {}
    for p, q, apq, aqp in bonds:
        adj[p].append(q)
        adj[q].append(p)
        entries[p, q], entries[q, p] = apq, aqp
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
    for ctyp in _shapes(k, center is not None):
        fits = [w for w in walks if all(
            entries.get((w[p], w[q])) == x and entries.get((w[q], w[p])) == y
            for p, q, x, y in _bonds(ctyp)
        )]
        if fits:
            return ctyp, tuple(max(fits))
    raise RuntimeError("not a Dynkin diagram component")


def _arm(start: int, prev: int | None, adj: list[list[int]]) -> list[int]:
    """The nodes met walking from start away from prev until the chain ends."""
    path = [start]
    while nxt := [v for v in adj[path[-1]] if v != prev]:
        prev = path[-1]
        path.append(nxt[0])
    return path
