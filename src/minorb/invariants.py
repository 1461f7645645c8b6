"""The subgroup-codimension invariants m, r, and d of a simple group.

m is the smallest dimension of a highest weight vector orbit among the
fundamental modules, i.e. min over nodes of dim u + 1 for the maximal
parabolic at that node.  r is the smallest codimension of a proper
reductive subgroup; the minimizing subgroup for each type is catalogued
and only its codimension is computed here.  d is the smallest
codimension of a proper subgroup acting with a dense orbit on some
G / P_lambda, obtained as the minimum over three certificate families:

  * the reductive witness itself,
  * the refined bound at a node i (Sukhanov's subalgebra theorem
    applied inside the Levi): dim u + 1 + min(dim V(alpha_i), r(L')),
  * the crude bound dim u(S) + 2 for a support S of two or more nodes.

Since dim u(S) grows strictly with S, the crude family is minimized on
pairs, and only pairs are evaluated; the tests sweep every support as a
cross-check.  As r >= 2 for every simple type, the refined bound is
evaluated only at the nodes where dim u + 1 + min(dim V(alpha_i), 2), its
floor, does not exceed the least value in hand.
r and d are each certified by a Witness subgroup of that codimension.
Each d certificate names one: r's witness; for crude(S), the Levi's
simple factors times U(S); for refined(i), the same with the r-least
factor swapped for its r witness.  The certificates attaining d keep
their evaluation order (reductive, refined by node, crude pairs in
lexicographic order), and d's witness is the first one's with no torus
factor, else the first's.  C2 and D3 keep the caller's numbering.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Union

from .parabolic import closure_is_smooth, dim_u, support_masks
from .rootsys import SimpleType, canonicalize, checked_nodes, checked_rank, dim_simple
from .rootsys import _components, root_columns


class Torus(NamedTuple("Torus", [("rank", int)])):
    """A central torus factor of a witness subgroup."""

    __slots__ = ()

    def __new__(cls, rank: int) -> Torus:
        rank = checked_rank(rank)
        if rank < 1:
            raise ValueError("torus rank must be positive")
        return tuple.__new__(cls, (rank,))

    def __str__(self) -> str:
        return f"T{self.rank}"


Factor = Union[SimpleType, Torus]


def _dim_factor(factor: Factor) -> int:
    return factor.rank if isinstance(factor, Torus) else dim_simple(factor)


class BoundCertificate(NamedTuple):
    """One evaluated upper bound for d, with its provenance inside G."""

    source: str  # "reductive" | "refined" | "crude"
    nodes: tuple[int, ...]
    value: int
    detail: str


class Witness(NamedTuple):
    """A subgroup certifying r or d: reductive factors, optionally times u(S)."""

    ambient: SimpleType
    factors: tuple[Factor, ...]
    unipotent_support: tuple[int, ...] | None = None

    @property
    def dim_h(self) -> int:
        """dim of the reductive factors, plus dim u(S) when S is not empty:
        an empty support adds nothing and reads no roots of the ambient."""
        dim = sum(_dim_factor(f) for f in self.factors)
        if self.unipotent_support:
            dim += dim_u(self.ambient, self.unipotent_support)
        return dim

    @property
    def codim(self) -> int:
        return dim_simple(self.ambient) - self.dim_h

    def __str__(self) -> str:
        name = " x ".join(str(f) for f in self.factors)
        if self.unipotent_support is not None:
            nodes = ",".join(str(i) for i in self.unipotent_support)
            name = f"{name} . U({nodes})"
        return name


class MResult(NamedTuple):
    m: int
    p: int
    argmin: tuple[int, ...]


class RResult(NamedTuple):
    r: int
    witness: Witness


class DResult(NamedTuple):
    d: int
    certificates: tuple[BoundCertificate, ...]
    witness: Witness


def compute_m(typ: SimpleType) -> MResult:
    """Minimal highest weight orbit dimension and the nodes attaining it."""
    dims = [mask.bit_count() + 1 for mask in support_masks(typ)]
    m = min(dims)
    return MResult(m, m - 1, tuple(i for i, v in enumerate(dims, 1) if v == m))


def _minimal_reductive(typ: SimpleType) -> tuple[Factor, ...]:
    family, n = typ.family, typ.rank
    if family == "A":
        if n == 1:
            return (Torus(1),)
        if n == 3:
            return (SimpleType("B", 2),)
        return (SimpleType("A", n - 1), Torus(1))
    if family == "B":
        if n == 2:
            return (SimpleType("A", 1), SimpleType("A", 1))
        return (canonicalize(SimpleType("D", n)),)
    if family == "C":
        return (canonicalize(SimpleType("C", n - 1)), SimpleType("A", 1))
    if family == "D":
        return (SimpleType("B", n - 1),)
    if family == "F":
        return (SimpleType("B", 4),)
    if family == "G":
        return (SimpleType("A", 2),)
    return {
        6: (SimpleType("F", 4),),
        7: (SimpleType("E", 6), Torus(1)),
        8: (SimpleType("E", 7), SimpleType("A", 1)),
    }[n]


@lru_cache(maxsize=None)  # a catalogue lookup, asked once per Levi factor
def compute_r(typ: SimpleType) -> RResult:
    """Codimension of the minimal proper reductive subgroup, with witness."""
    witness = Witness(typ, _minimal_reductive(canonicalize(typ)))
    return RResult(witness.codim, witness)


def r_of_levi(types) -> int | float:
    """min of r over the simple factor types; infinity when there are none."""
    return min((compute_r(t).r for t in types), default=math.inf)


def _head_and_module(typ: SimpleType, node: int) -> tuple[int, int]:
    """dim u + 1 of the maximal parabolic at a checked node, and dim V(alpha_i)."""
    return support_masks(typ)[node - 1].bit_count() + 1, root_columns(typ)[node - 1].count(1)


def sukhanov_refined(typ: SimpleType, node: int) -> BoundCertificate:
    """The refined bound at one node, as a certificate with its arithmetic.

    It reads dim u of the maximal parabolic at the node (a popcount of its
    support mask), dim V(alpha_i) (a count on its root column) and the
    types of the Levi components, named from the mask of every other node
    by the core of subdiagram_components; no LeviData is built.  The node
    is in typ's own numbering: node 1 of D3 is its centre, not A3's end.
    """
    (node,) = checked_nodes(typ, [node])
    head, in_module = _head_and_module(typ, node)
    others = ((1 << typ.rank) - 1) ^ (1 << (node - 1))  # every other node, as a mask
    in_levi = r_of_levi(c.typ for c in _components(typ, others))
    value = head + min(in_module, in_levi)
    detail = (
        f"(dim u + 1) + min(dim V(alpha_{node}), r(Levi)) = "
        f"{head} + min({in_module}, {in_levi})"
    )
    return BoundCertificate("refined", (node,), value, detail)


def _witness(typ: SimpleType, cert: BoundCertificate) -> Witness:
    """The subgroup that cert names (see above); its codimension is cert.value
    unless a refined cert's value used dim V(alpha_i) < r(L')."""
    if cert.source == "reductive":
        return compute_r(typ).witness
    others = ((1 << typ.rank) - 1) ^ sum(1 << (i - 1) for i in cert.nodes)
    factors = [c.typ for c in _components(typ, others)]
    if cert.source == "refined":
        k = min(range(len(factors)), key=lambda j: compute_r(factors[j]).r)
        factors[k : k + 1] = compute_r(factors[k]).witness.factors
    return Witness(typ, tuple(factors), cert.nodes)


def compute_d(typ: SimpleType) -> DResult:
    """Minimum over the certificate families, with the attaining witness:
    the first winner's subgroup with no torus factor, else the first's.

    The crude family is evaluated on pairs only, which suffices because
    dim u(S) is strictly increasing in S.  Each pair's dim u(S) is the
    popcount of the union of its two support masks, kept as a bare int;
    a certificate is built only for the pairs that attain d.  From there,
    the refined bound is evaluated only at nodes, in order, whose floor
    dim u + 1 + min(dim V(alpha_i), 2) is at most the least value so far:
    r >= 2 for every simple type (A1 > T1 attains it; no simple group has
    a reductive subgroup of codimension 1), so a skipped node exceeds d.
    """
    n = typ.rank
    r_value, r_witness = compute_r(typ)
    bounds = [BoundCertificate("reductive", (), r_value, f"H = {r_witness}")]
    sizes = [(x | y).bit_count() for x, y in combinations(support_masks(typ), 2)]
    d = min(r_value, min(sizes, default=math.inf) + 2)
    for i in range(1, n + 1):
        head, in_module = _head_and_module(typ, i)
        if head + min(in_module, 2) <= d:
            bounds.append(sukhanov_refined(typ, i))
            d = min(d, bounds[-1].value)
    # Evaluation order is already (source, nodes) order among the winners:
    # no larger support ties the least pair, as dim u(S) rises strictly with S.
    certificates = tuple(c for c in bounds if c.value == d) + tuple(
        BoundCertificate("crude", nodes, d, f"dim u(S) + 2 = {u} + 2")
        for nodes, u in zip(combinations(range(1, n + 1), 2), sizes)
        if u + 2 == d
    )
    witnesses = [_witness(typ, c) for c in certificates]
    witness = next((w for w in witnesses if Torus not in map(type, w.factors)), witnesses[0])
    if witness.codim != d:
        raise RuntimeError(
            f"witness {witness} of {typ} has codimension {witness.codim}, not d = {d}"
        )
    return DResult(d, certificates, witness)


class InvariantReport(NamedTuple):
    typ: SimpleType
    dim: int
    m: MResult
    r: RResult
    d: DResult
    d_equals_r: bool
    smooth_fundamentals: tuple[int, ...]


def full_report(typ: SimpleType) -> InvariantReport:
    """All three invariants plus the fundamental smoothness sweep."""
    typ = canonicalize(typ)
    m = compute_m(typ)
    r = compute_r(typ)
    d = compute_d(typ)
    if not m.m <= d.d <= r.r:
        raise RuntimeError(f"{typ} breaks m <= d <= r: {m.m}, {d.d}, {r.r}")
    smooth = tuple(
        i
        for i in range(1, typ.rank + 1)
        if closure_is_smooth(typ, tuple(int(k == i) for k in range(1, typ.rank + 1)))
    )
    return InvariantReport(
        typ, dim_simple(typ), m, r, d, d.d == r.r, smooth
    )
