"""Irreducible module dimensions and highest-weight duality.

Weights live in the fundamental-weight basis as integer coordinate
tuples.  Dimensions come from the Weyl product over positive roots,
evaluated entirely in integer arithmetic: both inner products with a
root beta = sum c_j alpha_j reduce to sums of c_j * d_j terms, where d
is the symmetrizer, so the quotient is a ratio of two exact integer
products.  The final division is checked to be exact.
"""

from __future__ import annotations

from collections.abc import Iterable

from .rootsys import SimpleType, checked_weight, positive_roots, symmetrizers

Weight = tuple[int, ...]


def weyl_vector(typ: SimpleType) -> Weight:
    """Half-sum of positive roots, i.e. all ones in this basis."""
    return (1,) * typ.rank


def dim_irrep(typ: SimpleType, weight: Iterable[int]) -> int:
    """Dimension of the irreducible module with the given highest weight."""
    w = checked_weight(typ, weight)
    d = symmetrizers(typ)
    num = 1
    den = 1
    for beta in positive_roots(typ):
        shifted = 0
        plain = 0
        for j, c in enumerate(beta):
            if c:
                cd = c * d[j]
                shifted += (w[j] + 1) * cd
                plain += cd
        num *= shifted
        den *= plain
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"Weyl product for {typ} {w} is not an integer")
    return q


def dim_irrep_product(parts: Iterable[tuple[SimpleType, Iterable[int]]]) -> int:
    """Dimension of an outer tensor product, one highest weight per factor.

    Torus factors are omitted: a character contributes a factor of one.
    """
    total = 1
    for typ, weight in parts:
        total *= dim_irrep(typ, weight)
    return total


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
