"""Acceptance gate: the published tables and transcripts, one test each.

Every comparison is exact integer equality against values restated here
from the published case analysis, independent of the library internals.
Each test prints one PASS line on completion (visible with -s).

The variety-level theorems surrounding the tables are out of
computational scope; their quantitative shadows, the thresholds 2n-2
for SL_n and 4n-4 for Sp_2n, equal the d values and are checked as
criterion 9.  The abstract's list of types whose small-dimensional
varieties are all small is the list of types with m < d, criterion 10,
and its SL_n corollary is checked from Weyl dimensions alone.  Criterion
11 computes the claim's consequence for modules of dimension below d on
the listed types; like criterion 9, it is a check, not a proof.
"""

from itertools import combinations

from minorb import (
    SimpleType,
    branch_adjoint,
    compute_d,
    compute_m,
    compute_r,
    closure_is_smooth,
    dim_irrep,
    dim_simple,
    dim_v_alpha,
    full_report,
    grade_adjoint,
    highest_root,
    levi_data,
    lowest_weight_of_v_alpha,
    parse_type,
    positive_roots,
    root_to_weight,
    table_types,
)
from minorb.cli import MAX_TABLE_RANK, main as cli_main
from minorb.rootsys import MAX_RANK

from util import d_by_sweep, dim_u_by_accounting, modules_below, v_alpha_by_dual_weight

TYPES = (
    [parse_type(f"A{n}") for n in range(1, 13)]
    + [parse_type(f"B{n}") for n in range(2, 13)]
    + [parse_type(f"C{n}") for n in range(3, 13)]
    + [parse_type(f"D{n}") for n in range(4, 13)]
    + [parse_type(name) for name in ("E6", "E7", "E8", "F4", "G2")]
)
# criteria 1-3 at every rank the command line accepts: the table rows up to
# MAX_TABLE_RANK, and each classical family at MAX_RANK
CEILING_TYPES = table_types(MAX_TABLE_RANK) + [SimpleType(f, MAX_RANK) for f in "ABCD"]


def report(number, description):
    print(f"PASS criterion {number}: {description}")


def fund(typ, i):
    return tuple(int(k == i) for k in range(1, typ.rank + 1))


def expected_m_row(typ):
    """(m, argmin, module dims) for one row of the m table."""
    n = typ.rank
    family = typ.family
    if family == "A":
        nodes = (1,) if n == 1 else (1, n)
        return n + 1, nodes, [n + 1] * len(nodes)
    if family == "B":
        return (4, (1, 2), [5, 4]) if n == 2 else (2 * n, (1,), [2 * n + 1])
    if family == "C":
        return 2 * n, (1,), [2 * n]
    if family == "D":
        return (7, (1, 3, 4), [8, 8, 8]) if n == 4 else (2 * n - 1, (1,), [2 * n])
    return {
        "E6": (17, (1, 6), [27, 27]),
        "E7": (28, (7,), [56]),
        "E8": (58, (8,), [248]),
        "F4": (16, (1, 4), [52, 26]),
        "G2": (6, (1, 2), [7, 14]),
    }[str(typ)]


def test_criterion_1_m_table():
    for typ in CEILING_TYPES:
        m, argmin, dims = expected_m_row(typ)
        result = compute_m(typ)
        assert (result.m, result.p, result.argmin) == (m, m - 1, argmin), typ
        assert [dim_irrep(typ, fund(typ, i)) for i in argmin] == dims, typ
    report(1, f"m, p, argmin, and argmin module dimensions for all {len(CEILING_TYPES)} types")


def expected_r_row(typ):
    """(r, dim H) for one row of the r table."""
    n = typ.rank
    family = typ.family
    if family == "A":
        return {1: (2, 1), 2: (4, 4), 3: (5, 10)}.get(n, (2 * n, n * n))
    if family == "B":
        return (4, 6) if n == 2 else (2 * n, n * (2 * n - 1))
    if family == "C":
        return 4 * n - 4, (n - 1) * (2 * n - 1) + 3
    if family == "D":
        return 2 * n - 1, (n - 1) * (2 * n - 1)
    return {
        "E6": (26, 52),
        "E7": (54, 79),
        "E8": (112, 136),
        "F4": (16, 36),
        "G2": (6, 8),
    }[str(typ)]


def test_criterion_2_r_table():
    for typ in CEILING_TYPES:
        r_expected, dim_h = expected_r_row(typ)
        r, witness = compute_r(typ)
        assert r == r_expected, typ
        assert witness.dim_h == dim_h, typ
        assert dim_simple(typ) - dim_h == r, typ
    report(2, f"r and witness subgroup dimensions for all {len(CEILING_TYPES)} types")


def test_criterion_3_d_table():
    for typ in CEILING_TYPES:
        expected = {"E7": 45, "E8": 86}.get(str(typ), expected_r_row(typ)[0])
        assert compute_d(typ).d == expected, typ
    e7 = compute_d(parse_type("E7")).witness
    assert dim_simple(parse_type("E7")) - e7.dim_h == 45
    e8 = compute_d(parse_type("E8")).witness
    assert dim_simple(parse_type("E8")) - e8.dim_h == 86
    report(3, f"d for all {len(CEILING_TYPES)} types; E7/E8 witness codimensions 45 and 86")


def test_criterion_4_grading_transcript(capsys):
    rep = grade_adjoint(parse_type("E8"), 7)
    assert rep.dims == {0: 82, 1: 54, -1: 54, 2: 27, -2: 27, 3: 2, -3: 2}
    assert cli_main(["grade", "E8", "7", "--mod", "29"]) == 0
    out = capsys.readouterr().out
    residues = {}
    for line in out.splitlines()[1:]:
        g, d = line.split("\t")
        residues[int(g)] = int(d)
    assert residues == {0: 82, 1: 54, 2: 27, 3: 2, 26: 2, 27: 27, 28: 54}
    report(4, "rank-eight node-7 grading, plain and folded mod 29")


def test_criterion_5_branch_transcript():
    rep = branch_adjoint(parse_type("E8"), 7)
    omega6 = (0, 0, 0, 0, 0, 1)
    omega1 = (1, 0, 0, 0, 0, 0)
    zero = (0,) * 6
    grades = {k: [(s.weights, s.dim) for s in v] for k, v in rep.grades.items()}
    assert grades[1] == [((omega6, (1,)), 54)]
    assert grades[2] == [((omega1, (0,)), 27)]
    assert grades[3] == [((zero, (1,)), 2)]
    assert sorted(s.dim for s in rep.grades[0]) == [1, 3, 78]
    total = sum(
        s.dim * (1 if k == 0 else 2)
        for k, summands in rep.grades.items()
        for s in summands
    )
    assert total == 248
    report(5, "branch decomposition of the rank-eight node-7 grading")


V_ALPHA_SPOTS = [
    ("E8", 1, 64),
    ("E8", 7, 54),
    ("E8", 8, 56),
    ("E7", 1, 32),
    ("E7", 2, 35),
    ("E7", 6, 32),
    ("E7", 7, 27),
    ("E6", 1, 16),
    ("E6", 2, 20),
]


def test_criterion_6_v_alpha_three_routes():
    for name, node, expected in V_ALPHA_SPOTS:
        typ = parse_type(name)
        via_grading = grade_adjoint(typ, node).dims[1]
        via_roots = sum(1 for beta in positive_roots(typ) if beta[node - 1] == 1)
        # the Weyl product over the Levi of the dual of the Cartan row's negation
        via_weyl = v_alpha_by_dual_weight(typ, node)[2]
        assert via_grading == via_roots == via_weyl == expected, (name, node)
        assert dim_v_alpha(typ, node) == lowest_weight_of_v_alpha(typ, node).dim == expected
    report(6, "V(alpha) spot dimensions agree across all three routes")


U_LISTS = {
    "E6": (16, 21, 25, 29, 25, 16),
    "E7": (33, 42, 47, 53, 50, 42, 27),
    "E8": (78, 92, 98, 106, 104, 97, 83, 57),
}
U_PAIRS = [("E7", (1, 7), 43), ("E8", (7, 8), 84), ("E6", (1, 6), 24)]


def brute_u(typ, removed):
    rem = [i - 1 for i in removed]
    return sum(1 for beta in positive_roots(typ) if any(beta[i] for i in rem))


def test_criterion_7_u_dimensions():
    for name, expected in U_LISTS.items():
        typ = parse_type(name)
        for i, value in enumerate(expected, start=1):
            assert levi_data(typ, [i]).dim_u == value, (name, i)
            assert brute_u(typ, [i]) == value, (name, i)
            assert dim_u_by_accounting(typ, [i]) == value, (name, i)
    for name, removed, value in U_PAIRS:
        typ = parse_type(name)
        assert levi_data(typ, removed).dim_u == value, (name, removed)
        assert brute_u(typ, removed) == value, (name, removed)
    report(7, "nilradical dimensions, single nodes and pair supports")


def test_criterion_8_property_suite():
    # (a) formula vs count over every subset, rank <= 6
    for typ in (t for t in TYPES if t.rank <= 6):
        nodes = range(1, typ.rank + 1)
        for size in range(typ.rank + 1):
            for removed in combinations(nodes, size):
                assert levi_data(typ, removed).dim_u == dim_u_by_accounting(
                    typ, removed
                ), (typ, removed)
    # (b) grading symmetry and total dimension, rank <= 8
    for typ in (t for t in TYPES if t.rank <= 8):
        for node in range(1, typ.rank + 1):
            rep = grade_adjoint(typ, node)
            assert all(rep.dims[k] == rep.dims[-k] for k in rep.dims), (typ, node)
            assert sum(rep.dims.values()) == dim_simple(typ), (typ, node)
    # (c) chain r >= d >= m, all types
    for typ in TYPES:
        rep = full_report(typ)
        assert rep.r.r >= rep.d.d >= rep.m.m, typ
    # (d) pair-only crude bound equals the sweep over every support, rank <= 8
    for typ in (t for t in TYPES if t.rank <= 8):
        assert compute_d(typ)[:2] == d_by_sweep(typ), typ
    # (e) smoothness sweep over all fundamentals
    for typ in TYPES:
        smooth = tuple(
            i
            for i in range(1, typ.rank + 1)
            if closure_is_smooth(typ, fund(typ, i))
        )
        if typ.family == "A":
            expected = (1,) if typ.rank == 1 else (1, typ.rank)
        elif typ.family == "C":
            expected = (1,)
        elif str(typ) == "B2":
            expected = (2,)  # B2 carries the C2 standard module at node 2
        else:
            expected = ()
        assert smooth == expected, typ
    # (f) the highest root generates the adjoint module
    for typ in TYPES:
        lam = root_to_weight(typ, highest_root(typ))
        assert dim_irrep(typ, lam) == dim_simple(typ), typ
    report(8, "property suite (a)-(f) over the full type inventory")


def test_criterion_9_threshold_shadows():
    """Variety-level theorems are not computations; their numeric
    shadows equal d for the corresponding types."""
    for n in [2, 3] + list(range(5, 14)):
        assert compute_d(parse_type(f"A{n - 1}")).d == 2 * n - 2
    # SL4 sits below the generic threshold: its witness is Spin5
    assert compute_d(parse_type("A3")).d == 5
    for n in range(2, 13):
        assert compute_d(parse_type(f"C{n}")).d == 4 * n - 4
    report(9, "threshold shadows 2n-2 and 4n-4 match d")


def test_criterion_10_abstract_type_list():
    """m < d exactly on the abstract's A_n (n >= 2), C_n (n >= 3), E6, E7 and
    E8; every other type has m = d."""
    ceiling = [SimpleType(f, 64) for f in "ABCD"]
    for typ in table_types(MAX_TABLE_RANK) + ceiling:
        m, d = compute_m(typ).m, compute_d(typ).d
        # the C family of table_types starts at C3: C2 is listed as B2
        in_list = typ.family in "CE" or (typ.family == "A" and typ.rank >= 2)
        assert (m < d) == in_list and m <= d, (typ, m, d)
    report(10, "m < d exactly on A_n (n>=2), C_n (n>=3), E6, E7, E8")


def test_criterion_11_modules_below_d_are_small():
    """The abstract's claim at module level: every nontrivial irreducible module
    of dimension below d is small, V \\ {0} one highest weight vector orbit.
    These are the natural module and its dual for A_n (n >= 2; A1's has
    dimension d = 2) and the natural module for C_n; no other type has one.
    Twice the least nontrivial dimension is at least d, so no sum of two
    nontrivial modules fits below d either.  This computes a consequence of
    the theorem on the listed types; it does not prove it."""
    ceiling = [SimpleType(f, 64) for f in "ABCD"]
    for typ in table_types(MAX_TABLE_RANK) + ceiling:
        n, d = typ.rank, compute_d(typ).d
        below = [w for w in modules_below(typ, d) if any(w)]
        if typ.family == "A" and n >= 2:
            expected = sorted({fund(typ, 1), fund(typ, n)})
        else:
            expected = [fund(typ, 1)] if typ.family == "C" else []
        assert below == expected and all(closure_is_smooth(typ, w) for w in below), typ
        least = min(dim_irrep(typ, fund(typ, i)) for i in range(1, n + 1))
        assert 2 * least >= d, (typ, least, d)
    report(11, "modules below d are the small ones, and no two fit below d")


def test_sl_n_corollary():
    """For SL_n, n = 3 and n >= 5, the only nontrivial modules of dimension
    below 2n are the natural module and its dual.  The exceptions are SL_2's
    adjoint module S^2 (dim 3 < 4) and SL_4's exterior square (dim 6 < 8)."""
    for n in range(2, 65):
        typ = parse_type(f"A{n - 1}")
        natural = (fund(typ, 1), fund(typ, n - 1))
        extra = {2: [(2,)], 4: [(0, 1, 0)]}.get(n, [])
        assert modules_below(typ, 2 * n) == sorted({(0,) * (n - 1), *natural, *extra}), n
    print("PASS SL_n corollary: below dim 2n only the natural module and its dual, n = 3, n >= 5")
