"""Gradings of the adjoint module by a single simple-root coefficient.

Fixing a node i grades g by the coefficient of alpha_i: g_k is spanned
by the root spaces with coefficient k, plus the Cartan at k = 0.  The
grade-one piece V(alpha_i) is the degree-one part of the nilradical of
the maximal parabolic at i; as a module over the semisimple Levi its
lowest weight vector is the root vector of alpha_i itself, the first
root of grade one in root order.  At a maximal parabolic every grade g_k
with k >= 1 is one irreducible Levi module (Azad, Barry and Seitz, "On
the structure of parabolic subgroups", Comm. Algebra 18 (1990)), so its
highest weight is read off its highest root, the last root of grade k in
root order, and its dimension is the grade's root count.  Grade zero is
read off the same roots, a Levi component at a time, so no component's
roots are built.  Every weight here is one positive root restricted to
the kept components; the tests check them against the dual weight and
the Weyl dimension over the Levi.
"""

from __future__ import annotations

from typing import NamedTuple

from .parabolic import LeviData, _u_mask, levi_data, support_masks
from .repdim import Weight
from .rootsys import (
    Component,
    SimpleType,
    _components,
    _root_to_weight,
    checked_nodes,
    positive_roots,
    root_columns,
)


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
    (node,) = checked_nodes(typ, [node])
    col = root_columns(typ)[node - 1]
    top = col[-1]  # the highest root is the last root
    dims = {0: typ.rank + 2 * col.count(0)}
    for k in range(1, top + 1):
        dims[k] = dims[-k] = col.count(k)
    return GradingReport(typ, node, dims, top)


def dim_v_alpha(typ: SimpleType, node: int) -> int:
    """dim of the grade-one piece, counted directly on roots."""
    return root_columns(typ)[checked_nodes(typ, [node])[0] - 1].count(1)


def _restricted(typ: SimpleType, comps: tuple[Component, ...], k: int) -> tuple[Weight, ...]:
    """Positive root k in fundamental weights, restricted to each component."""
    m = _root_to_weight(typ, positive_roots(typ)[k])
    return tuple(tuple(m[orig - 1] for orig in comp.nodes) for comp in comps)


def lowest_weight_of_v_alpha(typ: SimpleType, node: int) -> VAlphaData:
    """Lowest and highest weights of V(alpha_i), with its dimension.

    The lowest weight is alpha_i's, the first root of grade one; the
    highest is the last root of grade one (Azad-Barry-Seitz 1990); the
    dimension is the number of roots of grade one.
    """
    levi = levi_data(typ, [node])
    (node,) = levi.removed
    col = root_columns(typ)[node - 1]
    lowest = _restricted(typ, levi.components, col.index(1))
    highest = _restricted(typ, levi.components, col.rindex(1))
    return VAlphaData(typ, node, levi, lowest, highest, col.count(1))


def branch_adjoint(typ: SimpleType, node: int) -> BranchReport:
    """Irreducible summands of every nonnegative grade over the Levi.

    Grade zero is the Levi: the adjoint of each kept component plus a
    center line.  A root off the node has connected support, so it lies
    in one component, whose adjoint has dimension rank + 2 * (its roots).
    For k >= 1 the grade is one irreducible module (Azad-Barry-Seitz
    1990) whose dimension is its number of roots.  Every highest weight
    is a summand's last root, restricted to the components.  Negative
    grades are the duals of the positive ones and are omitted.
    """
    (node,) = checked_nodes(typ, [node])
    comps = _components(typ, ((1 << typ.rank) - 1) ^ (1 << (node - 1)))
    col = root_columns(typ)[node - 1]
    off_node = ~support_masks(typ)[node - 1]

    zero = []
    for comp in comps:
        roots = _u_mask(typ, comp.nodes) & off_node
        weights = _restricted(typ, comps, roots.bit_length() - 1)
        zero.append(BranchSummand(weights, comp.typ.rank + 2 * roots.bit_count()))
    zero.append(BranchSummand(tuple((0,) * c.typ.rank for c in comps), 1, torus=True))

    grades = {0: tuple(zero)}
    for k in range(1, col[-1] + 1):
        # positive_roots ascends by height, so a grade's last root is its top
        grades[k] = (BranchSummand(_restricted(typ, comps, col.rindex(k)), col.count(k)),)
    return BranchReport(typ, node, grades, col[-1])
