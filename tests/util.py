"""Shared fixtures-by-import for the test suite: type inventories, closed forms,
the paper's published rows (published, the one place that states them), and
the second routes that the tests compare with the library."""

from collections import Counter
from itertools import combinations, count, permutations
from math import comb
from typing import NamedTuple

from minorb import (
    BoundCertificate,
    Component,
    SimpleType,
    Witness,
    canonicalize,
    cartan_matrix,
    compute_r,
    dim_irrep,
    dim_irrep_product,
    dim_simple,
    dual_weight,
    highest_root,
    levi_data,
    positive_roots,
    root_to_weight,
    subdiagram_components,
    sukhanov_refined,
    table_types,
)
from minorb import rootsys
from minorb.invariants import DResult
from minorb.parabolic import support_masks
from minorb.rootsys import checked_nodes

# the table row inventory: classical families to rank 12 plus the exceptionals
ALL_TYPES = table_types(12)

SMALL_TYPES = [t for t in ALL_TYPES if t.rank <= 6]
MID_TYPES = [t for t in ALL_TYPES if t.rank <= 8]


def coxeter_number(typ: SimpleType) -> int:
    """The Coxeter number h (Bourbaki, Lie Groups and Lie Algebras, Ch. VI 1.11)."""
    n = typ.rank
    if typ.family in "ABCD":
        return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}[typ.family]
    return {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}[str(typ)]


def dim_closed_form(typ: SimpleType) -> int:
    """Dimension of the algebra as rank * (h + 1), no root data."""
    return typ.rank * (coxeter_number(typ) + 1)


def fund(typ: SimpleType, i: int) -> tuple[int, ...]:
    """Fundamental weight omega_i as a coordinate tuple."""
    return tuple(int(k == i) for k in range(1, typ.rank + 1))


class Published(NamedTuple):
    """One type's row of the paper's tables 2-5.

    m with its argmin nodes and dim V(omega_i) at each of them; r with the
    factors of its witness H and dim H; and d.
    """

    m: int
    argmin: tuple[int, ...]
    dims: tuple[int, ...]
    r: int
    factors: tuple[str, ...]
    dim_h: int
    d: int


EXCEPTIONAL_PUBLISHED = {
    "E6": Published(17, (1, 6), (27, 27), 26, ("F4",), 52, 26),
    "E7": Published(28, (7,), (56,), 54, ("E6", "T1"), 79, 45),
    "E8": Published(58, (8,), (248,), 112, ("E7", "A1"), 136, 86),
    "F4": Published(16, (1, 4), (52, 26), 16, ("B4",), 36, 16),
    "G2": Published(6, (1, 2), (7, 14), 6, ("A2",), 8, 6),
}


def published(typ: SimpleType) -> Published:
    """The published row of a canonical type: closed forms on A-D, the table on E-G."""
    n = typ.rank
    if typ.family == "A":
        argmin = (1,) if n == 1 else (1, n)
        if n == 3:
            return Published(4, argmin, (4, 4), 5, ("B2",), 10, 5)
        factors = ("T1",) if n == 1 else (f"A{n - 1}", "T1")
        return Published(n + 1, argmin, (n + 1,) * len(argmin), 2 * n, factors, n * n, 2 * n)
    if typ.family == "B":
        if n == 2:
            return Published(4, (1, 2), (5, 4), 4, ("A1", "A1"), 6, 4)
        factors = ("A3",) if n == 3 else (f"D{n}",)
        return Published(2 * n, (1,), (2 * n + 1,), 2 * n, factors, n * (2 * n - 1), 2 * n)
    if typ.family == "C":
        factors = ("B2", "A1") if n == 3 else (f"C{n - 1}", "A1")
        r = 4 * n - 4
        return Published(2 * n, (1,), (2 * n,), r, factors, (n - 1) * (2 * n - 1) + 3, r)
    if typ.family == "D":
        m, argmin = (7, (1, 3, 4)) if n == 4 else (2 * n - 1, (1,))
        r = 2 * n - 1
        return Published(m, argmin, (2 * n,) * len(argmin), r, (f"B{n - 1}",), (n - 1) * r, r)
    return EXCEPTIONAL_PUBLISHED[str(typ)]


def weyl_vector(typ: SimpleType) -> tuple[int, ...]:
    """Half-sum of positive roots, i.e. all ones in the fundamental-weight basis."""
    return (1,) * typ.rank


def adjoint_nullcone_dim(typ: SimpleType) -> int:
    """Dimension of the nilpotent cone of g: dim g minus the rank."""
    typ = canonicalize(typ)
    return dim_simple(typ) - typ.rank


def dim_u_by_accounting(typ: SimpleType, removed) -> int:
    """Nilradical dimension from dim g = dim [l, l] + #removed + 2 dim u alone.

    It needs only the semisimple dimensions of the kept components, so it
    is a route to dim u independent of the support masks behind dim_u.
    """
    rem = checked_nodes(typ, removed)
    kept = [i for i in range(1, typ.rank + 1) if i not in rem]
    dim_ss = sum(dim_simple(c.typ) for c in subdiagram_components(typ, kept))
    q, r = divmod(dim_simple(typ) - dim_ss - len(rem), 2)
    if r:  # a plain assert here would vanish under python -O
        raise AssertionError(f"dim g - dim [l, l] - #removed is odd for {typ} {rem}")
    return q


def grade_counts(typ: SimpleType) -> list[Counter]:
    """Per node, how many positive roots have each coefficient there.

    Counted root by root on the root tuples, so it checks the column views
    behind grade_adjoint, dim_v_alpha and the support masks.
    """
    counts = [Counter() for _ in range(typ.rank)]
    for beta in positive_roots(typ):
        for c, counter in zip(beta, counts):
            counter[c] += 1
    return counts


def direct_dim_u(typ: SimpleType, removed) -> int:
    """dim u counted root by root: the positive roots involving a removed node."""
    return sum(any(beta[i - 1] for i in removed) for beta in positive_roots(typ))


def _reductive_and_refined(typ: SimpleType) -> list[BoundCertificate]:
    """The reductive certificate, then the refined one at each node."""
    r = compute_r(typ)
    candidates = [BoundCertificate("reductive", (), r.r, f"H = {r.witness}")]
    return candidates + [sukhanov_refined(typ, i) for i in range(1, typ.rank + 1)]


def d_by_sweep(typ: SimpleType) -> tuple[int, tuple[BoundCertificate, ...]]:
    """d and its attaining certificates, with the crude bound at every support.

    compute_d evaluates the crude bound dim u(S) + 2 on pairs only, because
    dim u(S) rises strictly with S.  This route sweeps all 2^rank supports of
    two or more nodes and counts each dim u(S) root by root, so it checks
    both that argument and the masks.  It returns compute_d's first two
    fields, in its evaluation order.
    """
    typ = canonicalize(typ)
    n = typ.rank
    candidates = _reductive_and_refined(typ)
    for size in range(2, n + 1):
        for nodes in combinations(range(1, n + 1), size):
            u = direct_dim_u(typ, nodes)
            candidates.append(BoundCertificate("crude", nodes, u + 2, f"dim u(S) + 2 = {u} + 2"))
    d = min(c.value for c in candidates)
    return d, tuple(c for c in candidates if c.value == d)


PUBLISHED_D_WITNESS = {
    SimpleType("E", 7): Witness(SimpleType("E", 7), (SimpleType("B", 5),), (1,)),
    SimpleType("E", 8): Witness(SimpleType("E", 8), (SimpleType("E", 6),), (7, 8)),
}


def d_by_every_pair(typ: SimpleType) -> DResult:
    """compute_d with a certificate built for every candidate, then filtered.

    The unpruned reference route for compute_d, which pairs only the nodes
    with dim u(i) <= r - 2, evaluates the refined bound only where its floor
    can reach d, and builds certificates only for the pairs attaining d.
    Here the refined bound at every node and every crude pair become
    BoundCertificates in evaluation order, and the ones with the least value
    are kept.  The witness is E7's or E8's from the published case analysis,
    which lie in a parabolic, and r's otherwise.
    """
    n = typ.rank
    candidates = _reductive_and_refined(typ)
    masks = support_masks(typ)
    for nodes, (x, y) in zip(combinations(range(1, n + 1), 2), combinations(masks, 2)):
        u = (x | y).bit_count()
        candidates.append(BoundCertificate("crude", nodes, u + 2, f"dim u(S) + 2 = {u} + 2"))
    d = min(c.value for c in candidates)
    witness = PUBLISHED_D_WITNESS.get(typ) or compute_r(typ).witness
    return DResult(d, tuple(c for c in candidates if c.value == d), witness)


def hilbert_degree(typ: SimpleType, weight) -> int:
    """The degree of k -> dim V(k lambda), from its finite differences.

    The orbit closure of a highest weight vector is a cone whose coordinate
    ring is the sum of the V(k lambda)* (Vinberg-Popov), so this polynomial
    has degree dim O_lambda - 1 = dim u(P_lambda).  The degree is at most
    |Phi+|, so the values at k = 0..|Phi+| + 1 fix it exactly.  The route
    goes through the Weyl product only, never the support masks.
    """
    values = [dim_irrep(typ, tuple(k * c for c in weight)) for k in range(len(positive_roots(typ)) + 2)]
    degree = -1
    while any(values):
        degree += 1
        values = [b - a for a, b in zip(values, values[1:])]
    return degree


def m_by_hilbert(typ: SimpleType) -> tuple[int, int, tuple[int, ...]]:
    """m, p and the argmin nodes from finite differences of Weyl dimensions alone.

    k -> dim V(k omega_i) is a polynomial of degree dim u(P_i) (see
    hilbert_degree).  Each of its Weyl factors <k omega_i + rho, beta^vee> /
    <rho, beta^vee> is linear in k with nonnegative coefficients, so the
    polynomial has nonnegative coefficients, and its j-th difference at 0,
    sum over k of (-1)^(j-k) C(j, k) dim V(k omega_i), is positive for j up
    to the degree and zero past it.  The differences are taken at every node
    in step, j = 0, 1, ...: the first j at which some vanish is p + 1 = m,
    and the nodes where they vanish are the argmin.  No support mask, popcount
    or dim_u enters, and each node needs the values at k = 0..m only.
    """
    n = typ.rank
    values: list[list[int]] = [[] for _ in range(n)]
    for j in count():
        for i, vals in enumerate(values):
            vals.append(dim_irrep(typ, tuple(j * (k == i) for k in range(n))))
        diffs = [sum((-1) ** (j - k) * comb(j, k) * v for k, v in enumerate(vals)) for vals in values]
        argmin = tuple(i for i, x in enumerate(diffs, 1) if x == 0)
        if argmin:
            return j, j - 1, argmin


# modules_below's callers expect a handful of weights; past this many the
# search raises, as dimensions that come out too small would widen its layers
# without end
MAX_MODULES_BELOW = 100


def modules_below(typ: SimpleType, bound: int) -> list[tuple[int, ...]]:
    """Every dominant weight whose irreducible module has dimension below bound.

    A search up from 0 that adds one fundamental weight per step and stops at
    any weight with dim V(lambda) >= bound.  Stopping there loses nothing:
    dim V(lambda + omega_i) > dim V(lambda), because in Weyl's product every
    factor <lambda + rho, beta^vee> / <rho, beta^vee> grows or stays, and
    the one of alpha_i grows.  Every dominant weight is a sum of fundamental
    weights, so each one below bound is met.  Past MAX_MODULES_BELOW
    weights it raises AssertionError.
    """
    zero = (0,) * typ.rank
    found, layer = {zero}, [zero]
    while layer:
        ups = {w[:i] + (w[i] + 1,) + w[i + 1 :] for w in layer for i in range(typ.rank)}
        layer = []
        for w in ups - found:
            if dim_irrep(typ, w) < bound:
                layer.append(w)
                if len(found) + len(layer) > MAX_MODULES_BELOW:
                    raise AssertionError(
                        f"more than {MAX_MODULES_BELOW} modules of {typ} below dimension {bound}"
                    )
        found.update(layer)
    return sorted(found)


def weight_by_matrix(typ: SimpleType, root) -> tuple[int, ...]:
    """Fundamental-weight coordinates by the dense product with the Cartan matrix.

    The reference route for root_to_weight, which reads the bond list: entry
    i is the sum over every j of C[j][i] * root[j], O(n^2) per root.
    """
    a = cartan_matrix(typ)
    n = typ.rank
    return tuple(sum(a[j][i] * root[j] for j in range(n)) for i in range(n))


def inverse_cartan_by_elimination(typ: SimpleType):
    """det(C) * C^{-1} and det(C) by fraction-free Gauss-Jordan elimination
    on [C | I] (Bareiss 1968).

    The reference route for inverse_cartan, which reads the Dynkin tree.  At
    pivot k every row r != k becomes (p_k * row_r - C[r][k] * row_k) //
    p_(k-1), with p_(-1) = 1, so each entry met is a minor of [C | I]
    (Sylvester's identity) and the last pivot is det(C).  Each pivot is a
    leading minor of C, positive as C * diag(d) is positive definite, and a
    pivot <= 0 or a division with a remainder raises RuntimeError.  The
    matrix is read as rootsys.cartan_matrix, so a monkeypatch reaches it.
    O(n^3) big-int steps.
    """
    n, a = typ.rank, rootsys.cartan_matrix(typ)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k, pivot_row in enumerate(aug):
        if (p := pivot_row[k]) <= 0:
            raise RuntimeError(f"leading minor {k + 1} of the Cartan matrix of {typ} is {p} <= 0")
        for r, row in enumerate(aug):
            if r != k:
                new = [p * x - row[k] * y for x, y in zip(row, pivot_row)]
                if any(x % prev for x in new):
                    raise RuntimeError(f"leading minor {k} of {typ} divides with a remainder")
                aug[r] = [x // prev for x in new]
        prev = p
    return tuple(tuple(row[n:]) for row in aug), prev


def v_alpha_by_dual_weight(typ: SimpleType, node: int):
    """Lowest weight, highest weight and dimension of V(alpha_i) over the Levi.

    The reference route for lowest_weight_of_v_alpha, which reads all three
    off the grade-one roots: the lowest weight is the Cartan row of the node
    restricted to each kept component, the highest weight is the dual of its
    negation per component, and the dimension is their Weyl product.
    """
    row = cartan_matrix(typ)[node - 1]
    comps = levi_data(typ, [node]).components
    lowest = tuple(tuple(row[i - 1] for i in c.nodes) for c in comps)
    highest = tuple(dual_weight(c.typ, [-x for x in w]) for c, w in zip(comps, lowest))
    dim = dim_irrep_product((c.typ, w) for c, w in zip(comps, highest))
    return lowest, highest, dim


def grade_zero_by_component_roots(comps) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Weights and dimension of each Levi component's adjoint summand, from its own roots.

    The reference route for branch_adjoint's grade zero, which reads it off
    the ambient roots.  Here each component's roots are built: its highest
    root in its own fundamental weights, zero on every other component, and
    dim_simple of its type.
    """
    out = []
    for ci, comp in enumerate(comps):
        adj = root_to_weight(comp.typ, highest_root(comp.typ))
        weights = tuple(adj if cj == ci else (0,) * other.typ.rank for cj, other in enumerate(comps))
        out.append((weights, dim_simple(comp.typ)))
    return out


def components_by_matrix(typ: SimpleType, kept) -> tuple[Component, ...]:
    """Subdiagram components named by whole induced Cartan matrices.

    The reference route for subdiagram_components, which checks only bonds:
    adjacency comes from an O(n^2) scan of the Cartan matrix, and every
    candidate walk's k x k induced matrix is compared with the Cartan matrix
    of every canonical type of its size and shape.  The walks and the rule
    (the largest fitting walk) are the same.
    """
    nodes = checked_nodes(typ, kept)
    a = cartan_matrix(typ)
    adj = {u: [v for v in nodes if v != u and a[u - 1][v - 1]] for u in nodes}

    def arm(start, prev):
        path = [start]
        while nxt := [v for v in adj[path[-1]] if v != prev]:
            prev = path[-1]
            path.append(nxt[0])
        return path

    out, seen = [], set()
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        for u in comp:
            comp += [v for v in adj[u] if v not in comp]
        seen.update(comp)
        k = len(comp)
        center = next((u for u in comp if len(adj[u]) == 3), None)
        if center is None:
            line = arm(next(u for u in comp if len(adj[u]) <= 1), None)
            walks, shapes = [line, line[::-1]], "ABCFG"
        else:
            walks, shapes = [], "DE"
            for x, y, z in permutations(arm(v, center) for v in adj[center]):
                walks.append(x[::-1] + [center] + y + z)
                if len(x) == 2 and len(y) == 1:
                    walks.append([x[1], y[0], x[0], center] + z)
        induced = {
            tuple(w): tuple(tuple(a[u - 1][v - 1] for v in w) for u in w) for w in walks
        }
        named = []
        for f in shapes:
            try:
                ctyp = canonicalize(SimpleType(f, k))
            except ValueError:
                continue
            fits = [w for w, entries in induced.items() if entries == cartan_matrix(ctyp)]
            if fits:
                named.append(Component(ctyp, max(fits)))
        if len(set(named)) != 1:  # a plain assert here would vanish under python -O
            raise AssertionError(f"{typ} {comp} fits {named}, not one type")
        out.append(named[0])
    return tuple(out)
