"""Gradings of the adjoint module by a single simple-root coefficient.

Fixing a node i grades g by the coefficient of alpha_i: g_k is spanned
by the root spaces with coefficient k, plus the Cartan at k = 0.  The
grade-one piece V(alpha_i) is the degree-one part of the nilradical of
the maximal parabolic at i; as a module over the semisimple Levi its
lowest weight vector is the root vector of alpha_i itself, so the
lowest weight is read off the Cartan row of i restricted to the kept
components.  branch_adjoint refines the grading into irreducible
summands by locating the maximal root vectors of each grade.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parabolic import LeviData, levi_data
from .repdim import dim_irrep_product, dual_weight
from .rootsys import (
    SimpleType,
    cartan_matrix,
    checked_nodes,
    dim_simple,
    highest_root,
    positive_roots,
    raise_masks,
    root_columns,
    root_to_weight,
)

Weight = tuple[int, ...]


@dataclass(frozen=True)
class GradingReport:
    typ: SimpleType
    node: int
    dims: dict[int, int]
    max_grade: int


@dataclass(frozen=True)
class VAlphaData:
    """V(alpha_i) as a module over the semisimple Levi at node i."""

    typ: SimpleType
    node: int
    levi: LeviData
    lowest: tuple[Weight, ...]
    highest: tuple[Weight, ...]
    dim: int


@dataclass(frozen=True)
class BranchSummand:
    """One irreducible summand, a highest weight per kept component."""

    weights: tuple[Weight, ...]
    dim: int
    torus: bool = False


@dataclass(frozen=True)
class BranchReport:
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
    plus a one-dimensional center line.  For k >= 1 the summands are
    generated by the roots of grade k that no kept node can raise, and
    their highest weights are those roots restricted to the components.
    A root is such a top when its raise mask (see rootsys.raise_masks)
    shares no bit with the kept nodes: one mask test per root.  Negative
    grades are the duals of the positive ones and are omitted.
    """
    (node,) = checked_nodes(typ, [node])
    levi = levi_data(typ, [node])
    comps = levi.components
    pos = positive_roots(typ)
    raises = raise_masks(typ)
    ix = node - 1
    kept_mask = ((1 << typ.rank) - 1) ^ (1 << ix)
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

    # positive_roots ascends by (height, root), so one walk down it meets
    # each grade's tops from the highest.
    summands = {k: [] for k in range(1, max_grade + 1)}
    for beta, up in zip(reversed(pos), reversed(raises)):
        if not beta[ix] or up & kept_mask:
            continue
        m = root_to_weight(typ, beta)
        weights = tuple(tuple(m[orig - 1] for orig in comp.nodes) for comp in comps)
        dim = dim_irrep_product((comp.typ, w) for comp, w in zip(comps, weights))
        summands[beta[ix]].append(BranchSummand(weights, dim))
    grades = {0: tuple(zero)} | {k: tuple(s) for k, s in summands.items()}
    return BranchReport(typ, node, grades, max_grade)
