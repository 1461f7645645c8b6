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
  write theirs down in that order from the closed forms of Bourbaki's
  Plates I-IV, each root a slice of a pattern tuple: within one height the
  later the first nonzero node, the earlier the root, so nothing is
  sorted.  E, F and G, whose root lists have no short closed form, derive
  theirs from the Cartan matrix height by height.  The tests hold the two
  builders to the same output on A-D.  A-D of one rank hold the same
  tuple objects for the roots they have in common, the runs of ones:
  every one on A, B and C, and on D every one but alpha_(n-1) + alpha_n,
  which is no root of D.  A linear form on roots is additive, so on A-D
  the suffix sums suf of its simple-root values give its values on the
  roots (a Weyl pairing, say), as their differences and sums, in no fixed
  order, with no root built.  The count of each value is a polynomial
  coefficient, of sum x**suf[i] times its reverse or of its square, and
  _packed_counts lists them off one integer product each while the simple
  values sum to at most n**2; past that cutoff _value_counts counts the
  listed values.  E, F and G take one dot product per root.
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
import sys
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, permutations
from operator import add, index, mul
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

# Largest rank parse_type accepts: `minorb invariants D64 --json` takes
# 0.08-0.10 s (medians of two sets of nine cold processes, 2-vCPU VM, Python
# 3.11.7; the VM's speed drifts by up to 2x).  SimpleType itself is
# unbounded, so library callers may go higher.
MAX_RANK = 64
# Largest weight entry, in absolute value, that the command line accepts:
# `minorb minorbit D64` with every entry at the ceiling prints a 36,289-digit
# dimension in 0.11-0.16 s, measured the same way; its Weyl pairings are
# past _value_counts' cutoff, so they are listed, not packed.
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

    A closed form for the roots belongs to a family, so the builder is
    chosen by family.  E, F and G, five fixed types with at most 120 roots,
    take _height_pass from the Cartan matrix; the tests hold it to the same
    output on A-D.  A-D write theirs down in root order, each root a slice
    of a pattern tuple: within one height, the later the first nonzero
    node, the earlier the root.  A_n's roots are _segment_roots(n), the runs
    of ones.  B, C and D add Bourbaki's sums (Plates II-IV), with (first,
    _, m) from _suffix_shape: s zeros, L >= first ones, at least one 2,
    then n - m ones.  At each height the sums start later than the runs of
    ones, so they come first, by start descending, then A's block of that
    height.  D has no alpha_(n-1) + alpha_n, and puts each fork root, ones
    on [n - 1 - h, n - 2) plus node n, just before the run of ones with its
    start.  So A-D of one rank share their run-of-ones tuples, and a miss
    here counts the roots returned (bench/spans.py's roots_built), not the
    tuples made.
    """
    n = typ.rank
    if typ.family not in _RANK_MIN:
        return tuple(tuple(code.to_bytes(n, "big")) for code in _height_pass(typ))
    segments = _segment_roots(n)
    if typ.family == "A":
        return segments
    least, _, m = _suffix_shape(typ)[1]
    k, tail = n - m, (1,) * (n - m)
    top = 2 * n - k - least  # a sum's height is 2(n - s) - L - k, so L >= least iff 2s <= top - h
    pats = [(0,) * n + (1,) * ones + (2,) * n for ones in range(n)]
    fork = (0,) * (n - 2) + (1,) * (n - 2)
    roots: list[Vector] = []
    start = 0
    for h in range(1, top + 1):
        for s in range((top - h) // 2, max(n - h, -1), -1):
            roots.append(pats[2 * (n - s) - h - k][n - s : 2 * n - k - s] + tail)
        size = max(n + 1 - h, 0)
        block = segments[start : start + size]
        start += size
        if typ.family == "D" and h > 1:
            if h > 2:
                roots += block[:1]
            if h < n:
                roots.append(fork[h - 1 : n + h - 3] + (0, 1))
            block = block[1:]
        roots += block
    return tuple(roots)


@lru_cache(maxsize=None)
def _segment_roots(n: int) -> tuple[Vector, ...]:
    """A_n's positive roots in root order, the runs of ones of rank n: by
    height h, then by start s from n - h down to 0, each a slice of one
    pattern per height."""
    roots: list[Vector] = []
    for h in range(1, n + 1):
        pat = (0,) * n + (1,) * h + (0,) * n
        roots += [pat[n - s : 2 * n - s] for s in range(n - h, -1, -1)]
    return tuple(roots)


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
    """The codes of the n simple roots: a byte per node, node 1 most
    significant, ample as no coefficient exceeds 6 (E8's highest root)."""
    return [1 << 8 * (n - 1 - i) for i in range(n)]


def _value_multiset(typ: SimpleType, simple: Sequence[int]) -> list[int]:
    """A linear form on every positive root, in no fixed order, from its
    values on the simple roots.  E, F and G, with at most 120 roots of rank
    at most 8, take one dot product per root.

    A-D read suffix sums, in enumeration order (not root order).  With
    suf[i] = simple[i] + ... + simple[n - 1] (0-based node i on; suf[n] =
    0), the positive roots are the epsilon_i -+ epsilon_j of Bourbaki's
    Plates I-IV (Lie Groups and Lie Algebras, Ch. VI): the segments suf[i]
    - suf[j], i < j <= end, then for B, C, D the sums suf[i] - suf[m] +
    suf[j], j from i + first to last, with end and (first, last, m) from
    _suffix_shape.  The segments go j-major (j = 1, 2, ..., and i = 0 ..
    j - 1 within each j); no caller relies on the order.  A form is
    additive, so these are its values whatever it is: the heights on all
    ones, a Weyl pairing on its simple-root values.
    """
    if typ.family not in _RANK_MIN:
        return [sum(map(mul, root, simple)) for root in positive_roots(typ)]
    suf = _suffix_sums(simple)
    end, sums = _suffix_shape(typ)
    out = [si - sj for j, sj in enumerate(suf[1 : end + 1], 1) for si in suf[:j]]
    if sums:
        first, last, m = sums
        bases = [si - suf[m] for si in suf[: typ.rank]]
        out += [b + sj for i, b in enumerate(bases) for sj in suf[i + first : last + 1]]
    return out


def _suffix_sums(simple: Sequence[int]) -> list[int]:
    """suf[i] = simple[i] + ... + simple[n - 1] for i = 0..n, suf[n] = 0."""
    return list(accumulate(reversed(simple), initial=0))[::-1]


def _suffix_shape(typ: SimpleType) -> tuple[int, tuple[int, int, int] | None]:
    """The shape of A-D's positive roots in suffix sums (Plates I-IV): the
    largest j of the segments suf[i] - suf[j], and (first, last, m) of the
    sums suf[i] - suf[m] + suf[j], j from i + first to last, None on A."""
    n = typ.rank
    sums = {"B": (1, n - 1, n), "C": (0, n - 2, n - 1), "D": (1, n - 1, n - 2)}.get(typ.family)
    return (n - 1 if typ.family == "D" else n), sums


def _value_counts(typ: SimpleType, simple: Sequence[int]) -> dict[int, int]:
    """How often each value of a linear form occurs among the positive roots,
    as a new dict, from its values on the simple roots (see _packed_counts)."""
    counts = _packed_counts(typ, simple)
    if counts is None:
        return Counter(_value_multiset(typ, simple))
    return {v: c for v, c in enumerate(counts, 1) if c}


def _packed_counts(typ: SimpleType, simple: Sequence[int]) -> list[int] | None:
    """_value_counts' counts as a list whose entry v - 1 counts v, or None on
    E, F and G and for every form but those packed below.

    On A-D, for a positive form whose simple values sum to at most n**2 (the
    cutoff), the counts are polynomial coefficients.  The suffix sums suf of
    _value_multiset are then distinct.  With S = sum x**suf[i] over the
    segments' indices, v occurs among the segments as often as x**(suf[0] +
    v) in S(x) * x**suf[0] * S(1/x); with P the same sum over i <= last, it
    occurs among the sums as often as x**(suf[m] + v) in (P(x)**2 -+
    P(x**2)) / 2, minus for the pairs i < j of B and D, plus for the pairs
    i <= j of C.  Each polynomial is packed into one int, a digit of `width`
    bytes per power of x (Kronecker substitution), so each product is one
    multiplication.  Per part, v takes each index i at most once, so no
    digit exceeds 2n and none carries.  The cutoff bounds every packed int
    by 2n**2 + 1 digits, of the order of the value list, whatever the
    weight.  The list reaches the largest value and may end in zeros.
    """
    n = typ.rank
    if typ.family not in _RANK_MIN or min(simple) <= 0 or sum(simple) > n * n:
        return None
    suf = _suffix_sums(simple)
    top = suf[0]
    width, code = next((w, c) for w, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if 2 * n < 256**w)
    end, sums = _suffix_shape(typ)
    seg = suf[: end + 1]
    product = _packed(seg, width, top + 1) * _packed([top - s for s in seg], width, top + 1)
    total = product >> 8 * width * (top + 1)  # digit k now counts the value k + 1
    if sums:
        first, last, m = sums
        p = _packed(suf[: last + 1], width, top + 1)
        doubled = _packed([2 * s for s in suf[: last + 1]], width, 2 * top + 1)
        square = p * p - doubled if first else p * p + doubled
        total += square >> (8 * width * (suf[m] + 1) + 1)  # every digit is even
    data = total.to_bytes(width * (total.bit_length() // (8 * width) + 1), sys.byteorder)
    digits = memoryview(data).cast(code)
    if sys.byteorder == "big":
        digits = digits[::-1]
    return digits.tolist()


def _packed(exponents: Iterable[int], width: int, size: int) -> int:
    """The polynomial sum of x**e over distinct exponents e < size as one int,
    a little-endian digit of `width` bytes per power of x."""
    buf = bytearray(width * size)
    for e in exponents:
        buf[width * e] = 1
    return int.from_bytes(buf, "little")


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
