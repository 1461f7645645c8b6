"""Adjoint gradings, grade-one modules, and branch decompositions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from minorb import (
    MAX_RANK,
    SimpleType,
    branch_adjoint,
    dim_simple,
    dim_v_alpha,
    grade_adjoint,
    highest_root,
    levi_data,
    lowest_weight_of_v_alpha,
    parse_type,
    positive_roots,
    root_to_weight,
    table_types,
)
from minorb import grading, rootsys
from minorb.repdim import dim_irrep_product
from minorb.rootsys import root_columns

from util import (
    MID_TYPES,
    components_by_matrix,
    grade_zero_by_component_roots,
    v_alpha_by_dual_weight,
)


def test_grading_pinned_small():
    a1 = grade_adjoint(parse_type("A1"), 1)
    assert a1.dims == {0: 1, 1: 1, -1: 1} and a1.max_grade == 1
    b2 = grade_adjoint(parse_type("B2"), 2)
    assert b2.dims == {0: 4, 1: 2, -1: 2, 2: 1, -2: 1}
    b2s = grade_adjoint(parse_type("B2"), 1)
    assert b2s.dims == {0: 4, 1: 3, -1: 3}


def test_grading_e8_node7():
    """The published grading with graded dimensions 82, 54, 27, 2."""
    rep = grade_adjoint(parse_type("E8"), 7)
    assert rep.max_grade == 3
    assert rep.dims == {0: 82, 1: 54, -1: 54, 2: 27, -2: 27, 3: 2, -3: 2}


@pytest.mark.parametrize("typ", MID_TYPES, ids=str)
def test_grading_properties(typ):
    for node in range(1, typ.rank + 1):
        rep = grade_adjoint(typ, node)
        assert rep.max_grade == highest_root(typ)[node - 1]
        assert set(rep.dims) == set(range(-rep.max_grade, rep.max_grade + 1))
        assert sum(rep.dims.values()) == dim_simple(typ)
        assert all(rep.dims[k] == rep.dims[-k] for k in rep.dims)
        assert rep.dims[1] == dim_v_alpha(typ, node)
        positive_part = sum(rep.dims[k] for k in rep.dims if k > 0)
        assert positive_part == levi_data(typ, [node]).dim_u


@pytest.mark.parametrize("typ", MID_TYPES, ids=str)
def test_v_alpha_weyl_dimension_matches_root_count(typ):
    """Weyl product over the Levi, of the dual of the Cartan row's negation,
    against the direct grade-one root count and lowest_weight_of_v_alpha."""
    for node in range(1, typ.rank + 1):
        _, _, weyl = v_alpha_by_dual_weight(typ, node)
        assert weyl == dim_v_alpha(typ, node) == lowest_weight_of_v_alpha(typ, node).dim


# Lowest weights of V(alpha_i) from the published case analysis, given
# per kept component in that component's own Bourbaki coordinates.
V_ALPHA_PINNED = [
    ("E8", 1, ["D7"], ((0, 0, 0, 0, 0, -1, 0),), ((0, 0, 0, 0, 0, 0, 1),), 64),
    ("E8", 7, ["E6", "A1"], ((-1, 0, 0, 0, 0, 0), (-1,)),
     ((0, 0, 0, 0, 0, 1), (1,)), 54),
    ("E8", 8, ["E7"], ((0, 0, 0, 0, 0, 0, -1),), ((0, 0, 0, 0, 0, 0, 1),), 56),
    ("E7", 1, ["D6"], ((0, 0, 0, 0, -1, 0),), ((0, 0, 0, 0, 1, 0),), 32),
    ("E7", 7, ["E6"], ((-1, 0, 0, 0, 0, 0),), ((0, 0, 0, 0, 0, 1),), 27),
    ("E6", 1, ["D5"], ((0, 0, 0, -1, 0),), ((0, 0, 0, 0, 1),), 16),
    ("E6", 2, ["A5"], ((0, 0, -1, 0, 0),), ((0, 0, 1, 0, 0),), 20),
    ("F4", 1, ["C3"], ((0, 0, -1),), ((0, 0, 1),), 14),
    ("A1", 1, [], (), (), 1),
]


@pytest.mark.parametrize(
    "name,node,shapes,lowest,highest,dim", V_ALPHA_PINNED, ids=lambda v: str(v)
)
def test_v_alpha_pinned(name, node, shapes, lowest, highest, dim):
    data = lowest_weight_of_v_alpha(parse_type(name), node)
    assert [str(c.typ) for c in data.levi.components] == shapes
    assert data.lowest == lowest
    assert data.highest == highest
    assert data.dim == dim


def test_branch_e8_node7():
    """Grade-by-grade summands of the published rank-eight decomposition."""
    rep = branch_adjoint(parse_type("E8"), 7)
    assert rep.max_grade == 3
    zero = rep.grades[0]
    assert [(s.weights, s.dim, s.torus) for s in zero] == [
        (((0, 1, 0, 0, 0, 0), (0,)), 78, False),
        (((0, 0, 0, 0, 0, 0), (2,)), 3, False),
        (((0, 0, 0, 0, 0, 0), (0,)), 1, True),
    ]
    assert [(s.weights, s.dim) for s in rep.grades[1]] == [
        (((0, 0, 0, 0, 0, 1), (1,)), 54)
    ]
    assert [(s.weights, s.dim) for s in rep.grades[2]] == [
        (((1, 0, 0, 0, 0, 0), (0,)), 27)
    ]
    assert [(s.weights, s.dim) for s in rep.grades[3]] == [
        (((0, 0, 0, 0, 0, 0), (1,)), 2)
    ]


def test_branch_e7_node1():
    rep = branch_adjoint(parse_type("E7"), 1)
    assert rep.max_grade == 2
    assert [(s.weights, s.dim) for s in rep.grades[1]] == [
        (((0, 0, 0, 0, 1, 0),), 32)
    ]
    assert [(s.weights, s.dim) for s in rep.grades[2]] == [(((0,) * 6,), 1)]


@pytest.mark.parametrize("n", [3, 4, 6], ids=lambda n: f"C{n}")
def test_branch_symplectic_node1(n):
    rep = branch_adjoint(parse_type(f"C{n}"), 1)
    assert rep.max_grade == 2
    # the Levi is C_{n-1}; for n = 3 it appears in its B2 labeling,
    # where the four-dimensional module sits at omega_2
    std = (0, 1) if n == 3 else (1,) + (0,) * (n - 2)
    assert [(s.weights, s.dim) for s in rep.grades[1]] == [((std,), 2 * n - 2)]
    assert [s.dim for s in rep.grades[2]] == [1]


@pytest.mark.parametrize(
    "typ", MID_TYPES + [SimpleType(f, MAX_RANK) for f in "ABCD"], ids=str
)
def test_branch_totals(typ):
    """Each positive grade is one summand of the grade's dimension."""
    for node in range(1, typ.rank + 1):
        rep = branch_adjoint(typ, node)
        grading = grade_adjoint(typ, node)
        assert set(rep.grades) == set(range(grading.max_grade + 1))
        for k, summands in rep.grades.items():
            assert sum(s.dim for s in summands) == grading.dims[k]
            torus_lines = [s for s in summands if s.torus]
            assert len(torus_lines) == (1 if k == 0 else 0)
            if k:
                assert [s.dim for s in summands] == [grading.dims[k]], (node, k)


@pytest.mark.parametrize(
    "typ", table_types(24) + [SimpleType(f, MAX_RANK) for f in "ABCD"], ids=str
)
def test_grade_one_top_matches_v_alpha(typ):
    """V(alpha_i) read off the grade-one roots against the grade-one summand
    and the reference route: the Cartan row restricted to the components,
    the dual of its negation, and the Weyl product of that."""
    for node in range(1, typ.rank + 1):
        (top,) = branch_adjoint(typ, node).grades[1]
        data = lowest_weight_of_v_alpha(typ, node)
        assert (data.highest, data.dim) == (top.weights, top.dim), node
        assert (data.lowest, data.highest, data.dim) == v_alpha_by_dual_weight(typ, node), node


@pytest.mark.parametrize(
    "typ", table_types(24) + [SimpleType(f, MAX_RANK) for f in "ABCD"], ids=str
)
def test_branch_top_weyl_dimension_equals_root_count(typ):
    """Each positive grade's summand dim is its root count; the Weyl
    dimension of its top weights agrees, as Azad-Barry-Seitz says it must."""
    for node in range(1, typ.rank + 1):
        col = root_columns(typ)[node - 1]
        comps = levi_data(typ, [node]).components
        rep = branch_adjoint(typ, node)
        for k in range(1, rep.max_grade + 1):
            (top,) = rep.grades[k]
            weyl = dim_irrep_product((c.typ, w) for c, w in zip(comps, top.weights))
            assert weyl == col.count(k) == top.dim, (node, k)


@pytest.mark.parametrize(
    "typ", table_types(24) + [SimpleType(f, MAX_RANK) for f in "ABCD"], ids=str
)
def test_branch_components_match_whole_matrices(typ, monkeypatch):
    """branch_adjoint names its Levi components from the bit mask of every
    other node; they are the components the whole-matrix route names.  Its
    grade-zero summands, read off the ambient roots, are the ones built
    from each component's own roots."""
    named = []

    def spy(t, mask):
        named.append(rootsys._components(t, mask))
        return named[-1]

    monkeypatch.setattr(grading, "_components", spy)
    for node in range(1, typ.rank + 1):
        rep = branch_adjoint(typ, node)
        want = components_by_matrix(typ, [i for i in range(1, typ.rank + 1) if i != node])
        assert named.pop() == want, node
        *adjoints, center = rep.grades[0]
        assert [(s.weights, s.dim) for s in adjoints] == grade_zero_by_component_roots(want), node
        assert (center.dim, center.torus) == (1, True)


@pytest.mark.parametrize(
    "typ", table_types(12) + [SimpleType(f, 20) for f in "ABCD"], ids=str
)
def test_branch_tops_by_tuple_probe(typ):
    """The grade >= 1 summand weights are the roots that no kept node raises,
    found by probing each beta + alpha_j as a tuple, highest root first."""
    pos = positive_roots(typ)
    posset = set(pos)
    n = typ.rank
    for node in range(1, n + 1):
        ix = node - 1
        comps = levi_data(typ, [node]).components
        rep = branch_adjoint(typ, node)
        want = {k: [] for k in range(1, rep.max_grade + 1)}
        for beta in reversed(pos):
            raised = (beta[:j] + (beta[j] + 1,) + beta[j + 1 :] for j in range(n) if j != ix)
            if beta[ix] and not posset.intersection(raised):
                m = root_to_weight(typ, beta)
                want[beta[ix]].append(tuple(tuple(m[i - 1] for i in c.nodes) for c in comps))
        got = {k: [s.weights for s in rep.grades[k]] for k in want}
        assert got == want, node


def test_node_out_of_range():
    with pytest.raises(ValueError, match=r"nodes \[3\] out of range for A2"):
        grade_adjoint(parse_type("A2"), 3)
    with pytest.raises(ValueError):
        dim_v_alpha(parse_type("A2"), 0)
    for fn in (lowest_weight_of_v_alpha, branch_adjoint):
        for node in (0, 3):
            with pytest.raises(ValueError, match=rf"^nodes \[{node}\] out of range for A2$"):
                fn(parse_type("A2"), node)


class _Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize("fn", [grade_adjoint, lowest_weight_of_v_alpha, branch_adjoint])
@pytest.mark.parametrize("node,want", [(True, 1), (_Two(), 2)], ids=["True", "index"])
def test_reported_node_is_the_checked_int(fn, node, want):
    """An int-like node is read by operator.index, and the int is reported."""
    got = fn(parse_type("A2"), node).node
    assert type(got) is int and got == want


def test_branch_sweep_builds_only_the_ambient_roots():
    """Every grade, zero included, is read off the ambient roots: branching at
    every node of E8 and D12 builds two root systems, none for a component."""
    code = (
        "from minorb import branch_adjoint, parse_type, rootsys\n"
        "for name in ('E8', 'D12'):\n"
        "    for node in range(1, int(name[1:]) + 1):\n"
        "        branch_adjoint(parse_type(name), node)\n"
        "print(rootsys.positive_roots.cache_info().misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(grading.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"
