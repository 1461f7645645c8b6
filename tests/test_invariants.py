"""The m, r, d invariants against the published tables, with witnesses."""

import math
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import minorb
from minorb import (
    MAX_RANK,
    BoundCertificate,
    SimpleType,
    Torus,
    Witness,
    branch_adjoint,
    canonicalize,
    cartan_matrix,
    compute_d,
    compute_m,
    compute_r,
    dim_min_orbit,
    dim_u,
    dim_v_alpha,
    full_report,
    grade_adjoint,
    levi_data,
    lowest_weight_of_v_alpha,
    parse_type,
    positive_roots,
    r_of_levi,
    subdiagram_components,
    sukhanov_refined,
    table_types,
)
from minorb.cli import MAX_TABLE_RANK
from minorb.invariants import _witness
from minorb.parabolic import support_masks
from minorb.rootsys import root_columns

from util import (
    ALL_TYPES,
    MID_TYPES,
    adjoint_nullcone_dim,
    components_by_matrix,
    d_by_every_pair,
    d_by_sweep,
    direct_dim_u,
    grade_counts,
    hilbert_degree,
    m_by_hilbert,
    published,
)

@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_m_table(typ):
    m, p, argmin = compute_m(typ)
    assert m == published(typ).m
    assert p == m - 1
    assert argmin == published(typ).argmin


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_r_table(typ):
    r, witness = compute_r(typ)
    assert r == published(typ).r
    assert tuple(map(str, witness.factors)) == published(typ).factors
    assert witness.dim_h + r == full_report(typ).dim


def test_r_witness_reads_no_ambient_root_columns():
    """r's witness has no unipotent part, so compute_r builds the root
    lists behind dim_simple (D40 and its factor B39) and no root columns or
    support masks of the ambient."""
    for cache in (compute_r, positive_roots, root_columns, support_masks):
        cache.cache_clear()
    assert compute_r(SimpleType("D", 40)).witness.unipotent_support is None
    assert support_masks.cache_info().misses == 0
    assert root_columns.cache_info().misses == 0
    assert positive_roots.cache_info().misses == 2


@pytest.mark.parametrize("typ", [t for t in ALL_TYPES if t.family == "C"], ids=str)
def test_r_witness_dimension_symplectic(typ):
    assert compute_r(typ).witness.dim_h == published(typ).dim_h


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_d_table(typ):
    result = compute_d(typ)
    assert result.d == published(typ).d
    assert all(c.value == result.d for c in result.certificates)
    assert result.witness.codim == result.d


def test_d_witnesses_with_unipotent_part():
    e7 = compute_d(parse_type("E7")).witness
    assert [str(f) for f in e7.factors] == ["B5"]
    assert e7.unipotent_support == (1,)
    assert e7.dim_h == 55 + 33 == 88
    assert e7.codim == 45
    e8 = compute_d(parse_type("E8")).witness
    assert [str(f) for f in e8.factors] == ["E6"]
    assert e8.unipotent_support == (7, 8)
    assert e8.dim_h == 78 + 84 == 162
    assert e8.codim == 86
    a4 = compute_d(parse_type("A4")).witness
    assert a4.unipotent_support is None
    assert str(a4) == "A3 x T1"


@pytest.mark.parametrize("support", [(0,), (9,), (0, 7)], ids=str)
def test_witness_unipotent_support_out_of_range(support):
    """dim_h checks the support's nodes, as dim_u does, rather than reading
    a neighbouring node's mask or an index past the end."""
    e6, e8 = SimpleType("E", 6), SimpleType("E", 8)
    message = re.escape(f"nodes {sorted(support)} out of range for E8")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Witness(e8, (e6,), support).dim_h
    assert Witness(e8, (e6,), (7, 8)).dim_h == 162


WITNESS_TYPES = table_types(MAX_TABLE_RANK) + [SimpleType(f, MAX_RANK) for f in "ABCD"]


@pytest.mark.parametrize("typ", WITNESS_TYPES, ids=str)
def test_d_witness_is_r_witness_without_unipotent_part(typ):
    """Except for E7 and E8, d is certified by r's own reductive witness."""
    r_witness = compute_r(typ).witness
    assert r_witness.unipotent_support is None
    if str(typ) not in ("E7", "E8"):
        assert compute_d(typ).witness == r_witness


@pytest.mark.parametrize("typ", WITNESS_TYPES, ids=str)
def test_every_winner_witness_has_the_winner_codimension(typ):
    """Each certificate attaining d names a subgroup of codimension d, so the
    rule that picks d's witness among them may pick any: reductive ones
    through r's witness, refined ones through r(L') rather than V(alpha_i)."""
    result = compute_d(typ)
    for cert in result.certificates:
        witness = _witness(typ, cert)
        assert witness.codim == cert.value == result.d, (cert, str(witness))
        assert witness.unipotent_support == (cert.nodes or None)
    assert result.witness in [_witness(typ, c) for c in result.certificates]


WRONG_WITNESS = """
import sys
from minorb import SimpleType, invariants

invariants._witness = lambda typ, cert: invariants.Witness(
    typ, (SimpleType("A", 1),)
)
try:
    invariants.compute_d(SimpleType("A", 4))
except RuntimeError as err:
    print(sys.flags.optimize, err)
"""


def test_d_witness_guard_survives_optimize():
    """compute_d rejects a witness of the wrong codimension even under python -O."""
    src = str(Path(minorb.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_WITNESS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 witness A1 of A4 has codimension 21, not d = 8\n"


def test_d_certificates():
    def tags(name):
        return [
            (c.source, c.nodes) for c in compute_d(parse_type(name)).certificates
        ]

    assert tags("E6") == [
        ("reductive", ()),
        ("refined", (1,)),
        ("refined", (6,)),
        ("crude", (1, 6)),
    ]
    assert tags("E7") == [
        ("refined", (1,)),
        ("refined", (6,)),
        ("crude", (1, 7)),
        ("crude", (6, 7)),
    ]
    assert tags("E8") == [("refined", (7,)), ("crude", (7, 8))]
    assert tags("B4") == [("reductive", ())]
    assert tags("A5") == [("reductive", ())]
    assert tags("G2") == [("reductive", ())]


SOURCE_RANK = {"reductive": 0, "refined": 1, "crude": 2}


@pytest.mark.parametrize("typ", table_types(16), ids=str)
def test_d_certificates_in_source_then_node_order(typ):
    """reductive < refined < crude, then by nodes; the goldens stop at rank 12."""
    keys = [(SOURCE_RANK[c.source], c.nodes) for c in compute_d(typ).certificates]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


# Refined-bound evaluations from the published case analysis, shown as
# (dim u + 1) + min(dim V(alpha_i), r(Levi)).
REFINED_PINNED = [
    ("E6", 1, 26, "17 + min(16, 9)"),
    ("E6", 2, 32, "22 + min(20, 10)"),
    ("E7", 1, 45, "34 + min(32, 11)"),
    ("E7", 2, 55, "43 + min(35, 12)"),
    ("E7", 6, 45, "43 + min(32, 2)"),
    ("E7", 7, 54, "28 + min(27, 26)"),
    ("E8", 1, 92, "79 + min(64, 13)"),
    ("E8", 7, 86, "84 + min(54, 2)"),
    ("E8", 8, 112, "58 + min(56, 54)"),
]


@pytest.mark.parametrize("name,node,value,arith", REFINED_PINNED, ids=lambda v: str(v))
def test_refined_bound_pinned(name, node, value, arith):
    cert = sukhanov_refined(parse_type(name), node)
    assert cert.source == "refined" and cert.nodes == (node,)
    assert cert.value == value
    assert cert.detail.endswith(arith)


@pytest.mark.parametrize(
    "typ", table_types(24) + [SimpleType(f, MAX_RANK) for f in "ABCD"], ids=str
)
def test_refined_bound_by_independent_routes(typ):
    """sukhanov_refined at every node against dim u counted root by root,
    dim V(alpha_i) from grade counts taken on the root tuples, and Levi
    component types named by whole induced Cartan matrices.  compute_d's
    floor dim u + 1 + min(dim V(alpha_i), f), read through the same helper
    as sukhanov_refined, never exceeds the bound: f is max(2, 2n - 3) at an
    end node (one nonzero off-diagonal Cartan entry in its row), whose Levi
    is one simple factor of rank n - 1, and 2 elsewhere."""
    n = typ.rank
    counts = grade_counts(typ)
    for node in range(1, n + 1):
        kept = [i for i in range(1, n + 1) if i != node]
        head = direct_dim_u(typ, [node]) + 1
        in_module = counts[node - 1][1]
        levi = components_by_matrix(typ, kept)
        in_levi = r_of_levi(c.typ for c in levi)
        detail = (
            f"(dim u + 1) + min(dim V(alpha_{node}), r(Levi)) = "
            f"{head} + min({in_module}, {in_levi})"
        )
        want = BoundCertificate("refined", (node,), head + min(in_module, in_levi), detail)
        assert sukhanov_refined(typ, node) == want
        assert minorb.invariants._head_and_module(typ, node) == (head, in_module)
        row = cartan_matrix(typ)[node - 1]
        if sum(1 for j, a in enumerate(row, 1) if a and j != node) == 1:
            assert [c.typ.rank for c in levi] == [n - 1]
            floor = max(2, 2 * n - 3)
        else:
            floor = 2
        assert head + min(in_module, floor) <= want.value


@pytest.mark.parametrize(
    "typ,argmin", [(SimpleType("C", 2), (1, 2)), (SimpleType("D", 3), (2, 3))], ids=str
)
def test_nodes_keep_the_callers_numbering(typ, argmin):
    """C2 and D3 are read in their own numbering, not as B2 and A3: node 1 of
    D3 is its centre, and node 1 of C2 its short root."""
    for node in range(1, typ.rank + 1):
        arith = f"{dim_u(typ, [node]) + 1} + min({dim_v_alpha(typ, node)}, "
        assert arith in sukhanov_refined(typ, node).detail
    assert compute_m(typ).argmin == argmin
    assert compute_d(typ) == d_by_every_pair(typ)


@pytest.mark.parametrize("typ", [SimpleType("C", 2), SimpleType("D", 3)], ids=str)
def test_r_witness_keeps_the_callers_type(typ):
    """r's witness lies in the caller's type, as d's certificates do, while r
    and the subgroup are those of the canonical type (B2, A3)."""
    r, witness = compute_r(typ)
    canonical = compute_r(canonicalize(typ))
    assert witness.ambient == compute_d(typ).witness.ambient == typ
    assert (r, str(witness)) == (canonical.r, str(canonical.witness))


# The nodes where compute_d evaluates the refined bound: none on A-D at
# MAX_RANK, and on E6-E8 the ends whose floor reaches d.
REFINED_EVALUATED = {"A": (), "B": (), "C": (), "D": (), "E6": (1, 6), "E7": (1, 6, 7), "E8": (7, 8)}


@pytest.mark.parametrize("name", REFINED_EVALUATED)
def test_compute_d_evaluates_few_refined_bounds(monkeypatch, name):
    """compute_d evaluates the refined bound only at the nodes listed above:
    every other node's floor already exceeds a bound in hand."""
    nodes = []
    refined = minorb.invariants.sukhanov_refined

    def counted(typ, node):
        nodes.append(node)
        return refined(typ, node)

    monkeypatch.setattr(minorb.invariants, "sukhanov_refined", counted)
    compute_d(SimpleType(name, MAX_RANK) if len(name) == 1 else parse_type(name))
    assert tuple(nodes) == REFINED_EVALUATED[name]


@pytest.mark.parametrize(
    "typ",
    table_types(24)
    + [SimpleType("C", 2), SimpleType("D", 3)]
    + [SimpleType(f, n) for n in (40, MAX_RANK) for f in "ABCD"],
    ids=str,
)
def test_reductive_codimension_floor(typ):
    """r(X) >= max(2, 2 rank(X) - 1) on every simple X: the premise of
    compute_d's floor max(2, 2n - 3) on r of an end node's Levi, one simple
    factor of rank n - 1.  It is tight exactly on A1, A3 (= D3) and every D_k."""
    r = compute_r(typ).r
    floor = max(2, 2 * typ.rank - 1)
    assert r >= floor
    assert (r == floor) == (str(canonicalize(typ)) in ("A1", "A3") or typ.family == "D")


def test_r_of_levi():
    assert r_of_levi([]) == math.inf
    assert r_of_levi([parse_type("D5")]) == 9
    assert r_of_levi([parse_type("A7"), parse_type("D7")]) == 13
    e7 = parse_type("E7")
    assert r_of_levi(c.typ for c in levi_data(e7, [6]).components) == 2
    assert r_of_levi(c.typ for c in levi_data(e7, [1]).components) == 11


PUBLIC_API = {
    "MAX_RANK", "MAX_WEIGHT_ENTRY", "SimpleType", "Component", "parse_type",
    "canonicalize", "cartan_matrix", "inverse_cartan", "symmetrizers",
    "positive_roots", "highest_root", "dim_simple", "root_to_weight",
    "subdiagram_components", "table_types",
    "dim_irrep", "dim_irrep_product", "dual_weight",
    "LeviData", "levi_data", "dim_u", "parabolic_of_weight", "dim_min_orbit",
    "orbit_type", "closure_is_smooth",
    "GradingReport", "BranchReport", "BranchSummand", "VAlphaData",
    "grade_adjoint", "dim_v_alpha", "lowest_weight_of_v_alpha", "branch_adjoint",
    "Torus", "Witness", "BoundCertificate", "InvariantReport", "compute_m",
    "compute_r", "r_of_levi", "sukhanov_refined", "compute_d", "full_report",
}


def test_torus_rank_is_a_positive_integer():
    assert Torus(True) == Torus(1) and str(Torus(True)) == "T1"
    with pytest.raises(ValueError, match="^torus rank must be positive$"):
        Torus(0)
    with pytest.raises(ValueError, match=r"^rank 2\.5 is not an integer$"):
        Torus(2.5)


def test_records_are_immutable():
    """Every result record refuses to set a field or to grow a new attribute."""
    e7 = SimpleType("E", 7)
    report = full_report(e7)
    branch = branch_adjoint(e7, 2)
    torus = compute_r(SimpleType("A", 4)).witness.factors[-1]
    assert isinstance(torus, Torus)
    records = [
        e7,
        torus,
        subdiagram_components(e7, [1, 2, 3])[0],
        levi_data(e7, [7]),
        grade_adjoint(e7, 2),
        lowest_weight_of_v_alpha(e7, 2),
        branch,
        branch.grades[1][0],
        report.d.certificates[0],
        report.d.witness,
        report,
        report.m,
        report.r,
        report.d,
    ]
    for record in records:
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_public_api():
    """minorb exports exactly these names, once each, and every one resolves."""
    assert set(minorb.__all__) == PUBLIC_API
    assert len(minorb.__all__) == len(PUBLIC_API)
    for name in minorb.__all__:
        assert hasattr(minorb, name), name


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_invariant_chain(typ):
    rep = full_report(typ)
    assert rep.m.m <= rep.d.d <= rep.r.r
    if rep.r.r > rep.m.m:
        assert rep.d.d > rep.m.m
    assert rep.d_equals_r == (str(typ) not in ("E7", "E8"))


@pytest.mark.parametrize("typ", MID_TYPES, ids=str)
def test_prune_sweep_equivalence(typ):
    """Crude pairs alone give d and its certificates: every support agrees."""
    assert compute_d(typ)[:2] == d_by_sweep(typ)


@pytest.mark.parametrize(
    "typ", table_types(24) + [SimpleType(f, n) for n in (40, MAX_RANK) for f in "ABCD"], ids=str
)
def test_winner_certificates_match_every_pair_evaluation(typ):
    """d, its certificates in order, and the witness, against building a
    certificate for every crude pair and keeping those attaining d."""
    assert compute_d(typ) == d_by_every_pair(typ)


def test_nullcone_dimensions():
    assert adjoint_nullcone_dim(parse_type("E8")) == 240
    assert adjoint_nullcone_dim(parse_type("F4")) == 48
    assert adjoint_nullcone_dim(parse_type("G2")) == 12
    assert adjoint_nullcone_dim(parse_type("A1")) == 2


@pytest.mark.parametrize("typ", ALL_TYPES, ids=str)
def test_smooth_fundamentals(typ):
    n = typ.rank
    if typ.family == "A":
        expected = (1,) if n == 1 else (1, n)
    elif typ.family == "C":
        expected = (1,)
    elif str(typ) == "B2":
        expected = (2,)
    else:
        expected = ()
    assert full_report(typ).smooth_fundamentals == expected


@pytest.mark.parametrize(
    "typ", ALL_TYPES + [SimpleType(f, n) for n in (40, MAX_RANK) for f in "ABCD"], ids=str
)
def test_column_reads_match_root_by_root_counts(typ):
    """grade_adjoint, dim_v_alpha, compute_m and the crude certificates of
    compute_d read root columns and support masks; here every count is
    taken root by root on the root tuples instead."""
    counts = grade_counts(typ)
    for node, c in enumerate(counts, 1):
        top = max(c)
        dims = {0: typ.rank + 2 * c[0]} | {s * k: c[k] for k in range(1, top + 1) for s in (1, -1)}
        rep = grade_adjoint(typ, node)
        assert (rep.dims, rep.max_grade) == (dims, top)
        assert dim_v_alpha(typ, node) == c[1]
    u = [len(positive_roots(typ)) - c[0] for c in counts]
    m = min(u) + 1
    assert compute_m(typ) == (m, m - 1, tuple(i for i, v in enumerate(u, 1) if v + 1 == m))
    d = compute_d(typ)
    crude = {c.nodes: c.value for c in d.certificates if c.source == "crude"}
    assert all(value == direct_dim_u(typ, nodes) + 2 for nodes, value in crude.items())
    if typ.rank <= 12:  # every pair: none beats d, and the winners are all listed
        pairs = {p: direct_dim_u(typ, p) + 2 for p in combinations(range(1, typ.rank + 1), 2)}
        assert min(pairs.values(), default=math.inf) >= d.d
        assert sorted(crude) == [p for p, value in pairs.items() if value == d.d]


@pytest.mark.parametrize("typ", table_types(16), ids=str)
def test_m_from_hilbert_polynomial_differences(typ):
    """compute_m against the Hilbert polynomial route: the (p+1)-th finite
    difference of k -> dim V(k omega_i) vanishes exactly at the argmin nodes,
    and no p-th difference vanishes."""
    assert m_by_hilbert(typ) == compute_m(typ)


@pytest.mark.parametrize("typ", table_types(8), ids=str)
def test_m_from_the_hilbert_function(typ):
    """m and dim O_lambda at every fundamental weight by a second route: the
    degree of k -> dim V(k omega_i) from finite differences of Weyl dimensions."""
    degrees = []
    for i in range(1, typ.rank + 1):
        omega = tuple(int(k == i) for k in range(1, typ.rank + 1))
        degrees.append(hilbert_degree(typ, omega))
        assert dim_min_orbit(typ, omega) == degrees[-1] + 1
    m = min(degrees) + 1
    assert compute_m(typ) == (m, m - 1, tuple(i for i, v in enumerate(degrees, 1) if v + 1 == m))


def test_deep_checks_run_tier_1_functions_on_further_types():
    """tests/deep.py runs tier-1 test functions past tier-1's types: each
    entry names a test function of its module, none of its types is in that
    function's own parametrization, and its A-D ranks are multiples of
    MAX_RANK.  A renamed or widened tier-1 test fails here, not only in CI."""
    import deep  # deep imports this module, so not at the top

    for module, name, ranks, further in deep.DEEP:
        check = getattr(module, name, None)
        assert name.startswith("test_") and callable(check), name
        (mark,) = [m for m in check.pytestmark if m.name == "parametrize"]
        assert not set(deep.deep_types(ranks, further)) & set(mark.args[1]), name
        assert all(n % MAX_RANK == 0 for n in ranks), name
