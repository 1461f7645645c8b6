"""Standard parabolics, Levi decompositions, and highest-weight orbits.

A standard parabolic subalgebra is determined by the set of simple nodes
it removes: the Levi factor is the reductive subalgebra on the kept
nodes plus the full Cartan, and the nilradical u is spanned by the
positive root spaces whose roots involve a removed node.  dim u is a
popcount: each node keeps a cached mask whose bit k is 1 when positive
root k involves the node, and dim u(S) counts the set bits of the union
of the masks of S, so no Levi component is built.  The tests check it
against the bookkeeping identity dim g = dim [l, l] + #removed + 2 dim u.

The orbit of a highest weight vector in the irreducible module V_lambda
is a cone over G/P_lambda, where P_lambda removes exactly the support S
of lambda, so its dimension is dim u(S) + 1.  closure_is_smooth reads no
root: the closure is smooth only when G is transitive on P(V_lambda), which
names the few weights for which it is.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .repdim import Weight
from .rootsys import (
    Component,
    SimpleType,
    checked_nodes,
    checked_weight,
    dim_simple,
    root_columns,
    subdiagram_components,
)


class LeviData(NamedTuple):
    """Dimension data of the parabolic that removes the given nodes."""

    typ: SimpleType
    removed: tuple[int, ...]
    kept: tuple[int, ...]
    components: tuple[Component, ...]
    dim_levi_ss: int
    dim_u: int

    @property
    def dim_levi(self) -> int:
        return self.dim_levi_ss + len(self.removed)

    @property
    def dim_parabolic(self) -> int:
        return self.dim_levi + self.dim_u


@lru_cache(maxsize=None)
def support_masks(typ: SimpleType) -> tuple[int, ...]:
    """One int per node: bit k is 1 when positive root k involves that node.

    Each mask is the node's root column with every byte turned into an
    ASCII 0 or 1, read in base 2 from the last root (base 2 has no digit
    limit)."""
    return tuple(int(col.translate(b"0" + b"1" * 255)[::-1], 2) for col in root_columns(typ))


def dim_u(typ: SimpleType, removed: Iterable[int]) -> int:
    """Nilradical dimension of the parabolic removing the given nodes."""
    return _u_mask(typ, checked_nodes(typ, removed)).bit_count()


def _u_mask(typ: SimpleType, nodes: Iterable[int]) -> int:
    """Bit k is 1 when root k is in u of the parabolic removing nodes, already checked."""
    masks = support_masks(typ)
    union = 0
    for i in nodes:
        union |= masks[i - 1]
    return union


def levi_data(typ: SimpleType, removed: Iterable[int]) -> LeviData:
    """The Levi factor and nilradical of the parabolic that removes the given nodes.

    ``removed`` is sorted and without duplicates (ValueError for a node out
    of range); ``kept`` is every other node, in increasing order.  The
    components of the kept subdiagram come by smallest node, each named by
    subdiagram_components: its canonical type, and the largest tuple of
    nodes that carries that type's Bourbaki labeling onto the kept
    bonds.  dim_levi_ss sums the components' dimensions, and dim_u is the
    popcount of the union of the removed nodes' support masks.
    """
    rem = checked_nodes(typ, removed)
    kept = tuple(i for i in range(1, typ.rank + 1) if i not in rem)
    components = subdiagram_components(typ, kept)
    dim_ss = sum(dim_simple(c.typ) for c in components)
    return LeviData(typ, rem, kept, components, dim_ss, _u_mask(typ, rem).bit_count())


def _checked_nonzero_dominant(typ: SimpleType, weight: Iterable[int]) -> Weight:
    w = checked_weight(typ, weight)
    if not any(w):
        raise ValueError("weight must be nonzero")
    return w


def _support(w: Weight) -> tuple[int, ...]:
    return tuple(i + 1 for i, c in enumerate(w) if c)


def parabolic_of_weight(typ: SimpleType, weight: Iterable[int]) -> LeviData:
    """The stabilizer parabolic of a highest weight line: removes supp(lambda)."""
    return levi_data(typ, _support(_checked_nonzero_dominant(typ, weight)))


def dim_min_orbit(typ: SimpleType, weight: Iterable[int]) -> int:
    """Dimension of the cone of highest weight vectors in V_lambda."""
    return _u_mask(typ, _support(_checked_nonzero_dominant(typ, weight))).bit_count() + 1


def orbit_type(typ: SimpleType, weight: Iterable[int]) -> tuple[Weight, int]:
    """Primitive weight and multiplier: lambda = k * lambda_0 with gcd one.

    All weights k * lambda_0 share the same highest weight orbit shape;
    only the embedding module V_lambda changes with k.
    """
    w = _checked_nonzero_dominant(typ, weight)
    k = gcd(*w)
    return tuple(c // k for c in w), k


def _natural_nodes(typ: SimpleType) -> tuple[int, ...]:
    """The nodes whose fundamental module is natural, that of SL_(n+1) or its
    dual or of Sp_(2n), under every name SimpleType accepts: 1 and n of A_n
    (only 1 of A1), 1 of C_n (C2 too), 2 of B2 (= C2), and 2 and 3 of D3 (= A3)."""
    n = typ.rank
    natural = {("A", n): (1, n) if n > 1 else (1,), ("B", 2): (2,), ("C", n): (1,), ("D", 3): (2, 3)}
    return natural.get((typ.family, n), ())


def closure_is_smooth(typ: SimpleType, weight: Iterable[int]) -> bool:
    """Whether the orbit closure in V_lambda is smooth at the origin.

    The closure is the cone over the projective orbit G/P_lambda.  A cone
    smooth at its vertex is its own tangent space there, a linear space, so
    the closure is smooth exactly when it is all of V_lambda: when G is
    transitive on P(V_lambda).  Among simple groups that holds only for the
    natural module of SL_(n+1) or its dual and that of Sp_(2n), so lambda is
    the fundamental weight at one of _natural_nodes.  The tests hold this to
    dim V_lambda = dim u(S) + 1 for S the support.
    """
    w = _checked_nonzero_dominant(typ, weight)
    return sum(w) == 1 and w.index(1) + 1 in _natural_nodes(typ)
