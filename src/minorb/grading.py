"""Gradings of the adjoint module by a single simple-root coefficient.

Fixing a node i grades g by the coefficient of alpha_i: g_k is spanned
by the root spaces with coefficient k, plus the Cartan at k = 0.  The
grade-one piece V(alpha_i) is the degree-one part of the nilradical of
the maximal parabolic at i; as a module over the semisimple Levi its
lowest weight vector is the root vector of alpha_i itself, so the
lowest weight is read off the Cartan row of i restricted to the kept
components.  branch_adjoint refines the grading into irreducible
summands.  At a maximal parabolic every grade g_k with k >= 1 is one
irreducible Levi module (Azad, Barry and Seitz, "On the structure of
parabolic subgroups", Comm. Algebra 18 (1990)), so its highest weight is
read off its highest root, the last root of grade k in root order, and
its dimension is the grade's root count.
"""

from __future__ import annotations

from typing import NamedTuple

from .parabolic import LeviData, levi_data
from .repdim import dim_irrep_product, dual_weight
from .rootsys import (
    SimpleType,
    _components,
    cartan_matrix,
    checked_nodes,
    dim_simple,
    highest_root,
    positive_roots,
    root_columns,
    root_to_weight,
)

Weight = tuple[int, ...]


class GradingReport(NamedTuple):
    typ: SimpleType
    node: int
    dims: dict[int, int]
    max_grade: int


class VAlphaData(NamedTuple):
    """V(alpha_i) as a module over the semisimple Levi at node i."""

    typ: SimpleType
    node: int
    levi: LeviData
    lowest: tuple[Weight, ...]
    highest: tuple[Weight, ...]
    dim: int


class BranchSummand(NamedTuple):
    """One irreducible summand, a highest weight per kept component."""

    weights: tuple[Weight, ...]
    dim: int
    torus: bool = False


class BranchReport(NamedTuple):
    typ: SimpleType
    node: int
    grades: dict[int, tuple[BranchSummand, ...]]
    max_grade: int


def grade_adjoint(typ: SimpleType, node: int) -> GradingReport:
    """Dimension of each graded piece, keyed by grade (negatives included)."""
    ix = checked_nodes(typ, [node])[0] - 1
    col = root_columns(typ)[ix]
    top = highest_root(typ)[ix]
    dims = {0: typ.rank + 2 * col.count(0)}
    for k in range(1, top + 1):
        dims[k] = dims[-k] = col.count(k)
    return GradingReport(typ, node, dims, top)


def dim_v_alpha(typ: SimpleType, node: int) -> int:
    """dim of the grade-one piece, counted directly on roots."""
    ix = checked_nodes(typ, [node])[0] - 1
    return root_columns(typ)[ix].count(1)


def lowest_weight_of_v_alpha(typ: SimpleType, node: int) -> VAlphaData:
    """Lowest and highest weights of V(alpha_i), with its Weyl dimension.

    The dimension here comes from the Weyl product over the Levi, not
    from counting grade-one roots, so the two routes check each other.
    """
    (node,) = checked_nodes(typ, [node])
    levi = levi_data(typ, [node])
    row = cartan_matrix(typ)[node - 1]
    lowest = tuple(
        tuple(row[orig - 1] for orig in comp.nodes) for comp in levi.components
    )
    highest = tuple(
        dual_weight(comp.typ, tuple(-x for x in low))
        for comp, low in zip(levi.components, lowest)
    )
    dim = dim_irrep_product(
        (comp.typ, w) for comp, w in zip(levi.components, highest)
    )
    return VAlphaData(typ, node, levi, lowest, highest, dim)


def branch_adjoint(typ: SimpleType, node: int) -> BranchReport:
    """Irreducible summands of every nonnegative grade over the Levi.

    Grade zero is the Levi itself: the adjoint of each kept component
    plus a one-dimensional center line.  For k >= 1 the grade is one
    irreducible module (Azad-Barry-Seitz 1990), so its highest weight is
    its highest root, the last root of grade k in positive_roots order,
    restricted to the components, and its dimension is the number of
    roots of grade k.  Negative grades are the duals of the positive
    ones and are omitted.
    """
    (node,) = checked_nodes(typ, [node])
    comps = _components(typ, ((1 << typ.rank) - 1) ^ (1 << (node - 1)))
    pos = positive_roots(typ)
    ix = node - 1
    col = root_columns(typ)[ix]
    max_grade = highest_root(typ)[ix]

    zero = []
    for ci, comp in enumerate(comps):
        adj = root_to_weight(comp.typ, highest_root(comp.typ))
        weights = tuple(
            adj if cj == ci else (0,) * other.typ.rank
            for cj, other in enumerate(comps)
        )
        zero.append(BranchSummand(weights, dim_simple(comp.typ)))
    zero.append(BranchSummand(tuple((0,) * c.typ.rank for c in comps), 1, torus=True))

    grades = {0: tuple(zero)}
    for k in range(1, max_grade + 1):
        # positive_roots ascends by height, so a grade's last root is its top
        m = root_to_weight(typ, pos[col.rindex(k)])
        weights = tuple(tuple(m[orig - 1] for orig in comp.nodes) for comp in comps)
        grades[k] = (BranchSummand(weights, col.count(k)),)
    return BranchReport(typ, node, grades, max_grade)
