"""Irreducible module dimensions and highest-weight duality.

Weights live in the fundamental-weight basis as integer coordinate
tuples.  Dimensions come from the Weyl product over positive roots,
evaluated entirely in integer arithmetic: both inner products with a
root beta = sum c_j alpha_j reduce to sums of c_j * d_j terms, where d
is the symmetrizer, so the quotient is a ratio of two exact integer
products.

The pairing with lambda + rho is additive, with value (w_i + 1) * d_i on
alpha_i, and rootsys gives it on every positive root.  On A-D each root is
a difference of two suffix sums of the simple roots, or the sum of two
less a third, so its pairing is the same combination of the suffix sums
of those values: no loop over coordinates, and no root built.  E, F and
G, of rank at most 8, take one dot product per root.  The pairings are
counted by value, the cached counts of the rho pairings (the denominator,
independent of the weight) are subtracted, and only the surviving powers
are multiplied.  The final division is checked to be exact.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from math import prod

from .rootsys import SimpleType, _value_multiset, checked_weight, symmetrizers

Weight = tuple[int, ...]


def dim_irrep(typ: SimpleType, weight: Iterable[int]) -> int:
    """Dimension of the irreducible module with the given highest weight."""
    w = checked_weight(typ, weight)
    d = symmetrizers(typ)
    powers = Counter(_value_multiset(typ, [(c + 1) * dj for c, dj in zip(w, d)]))
    powers.subtract(_rho_counts(typ))
    num = prod(v**e for v, e in powers.items() if e > 0)
    den = prod(v**-e for v, e in powers.items() if e < 0)
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"Weyl product for {typ} {w} is not an integer")
    return q


@lru_cache(maxsize=None)
def _rho_counts(typ: SimpleType) -> Counter:
    """How often each value of (rho, beta) occurs among the positive roots."""
    return Counter(_value_multiset(typ, symmetrizers(typ)))


def dim_irrep_product(parts: Iterable[tuple[SimpleType, Iterable[int]]]) -> int:
    """Dimension of an outer tensor product, one highest weight per factor.

    Torus factors are omitted: a character contributes a factor of one.
    """
    return prod(dim_irrep(typ, weight) for typ, weight in parts)


def dual_weight(typ: SimpleType, weight: Iterable[int]) -> Weight:
    """Highest weight of the dual module.

    The dual of the irreducible with highest weight w has highest weight
    -w0(w), which permutes fundamental-weight coordinates by the
    nontrivial diagram involution where one exists (A_n reversal, the
    spin swap of D_n for odd n, the flip of E6) and fixes them otherwise.
    """
    w = checked_weight(typ, weight)
    n = typ.rank
    if typ.family == "A":
        return w[::-1]
    if typ.family == "D" and n % 2 == 1:
        return w[: n - 2] + (w[n - 1], w[n - 2])
    if typ.family == "E" and n == 6:
        return (w[5], w[1], w[4], w[3], w[2], w[0])
    return w
