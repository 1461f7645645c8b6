"""Reference values the benchmark checks minorb's outputs against.

Nothing here imports minorb.  The Cartan matrices are restated in
Bourbaki numbering, positive roots come from closing the simple roots
under simple reflections (minorb climbs alpha-strings instead), Weyl
dimensions of the classical types come from the product formula in
epsilon-coordinates (minorb works in the simple-root basis), and the
table rows are the published values and closed forms.
"""

from __future__ import annotations

from collections import Counter

EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")


def type_names(families: str, rank: int) -> list[str]:
    """Names of the given classical families at one rank, e.g. ['A20', 'B20']."""
    return [f"{family}{rank}" for family in families]


def split(name: str) -> tuple[str, int]:
    return name[0], int(name[1:])


def cartan(name: str) -> list[list[int]]:
    """a[i][j] = <alpha_i+1, coroot of alpha_j+1>, Bourbaki numbering."""
    family, n = split(name)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i - 1][j - 1], a[j - 1][i - 1] = aij, aji

    chain = {"A": n, "B": n - 1, "C": n - 1, "D": n - 1}.get(family, 0)
    for i in range(1, chain):
        bond(i, i + 1)
    if family == "B":
        bond(n - 1, n, aij=-2)
    elif family == "C":
        bond(n - 1, n, aji=-2)
    elif family == "D":
        bond(n - 2, n)
    elif family == "E":
        for i, j in ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if j <= n:
                bond(i, j)
    elif family == "F":
        bond(1, 2)
        bond(2, 3, aij=-2)
        bond(3, 4)
    elif family == "G":
        bond(1, 2, aji=-3)
    return a


def positive_roots(name: str) -> set[tuple[int, ...]]:
    """Positive roots in the simple-root basis, by closure under reflections."""
    a = cartan(name)
    n = len(a)
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    todo = list(roots)
    while todo:
        beta = todo.pop()
        for i in range(n):
            pairing = sum(beta[j] * a[j][i] for j in range(n) if beta[j])
            if pairing:
                image = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                if image[i] >= 0 and image not in roots:
                    roots.add(image)
                    todo.append(image)
    return roots


def num_positive_roots(name: str) -> int:
    """|Phi+| from the closed forms of the classical families."""
    family, n = split(name)
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[family]


def grade_counts(roots: set[tuple[int, ...]], node: int) -> Counter:
    """How many positive roots have each coefficient at a node."""
    return Counter(beta[node - 1] for beta in roots)


def dim_u(roots: set[tuple[int, ...]], removed: list[int]) -> int:
    return sum(1 for beta in roots if any(beta[i - 1] for i in removed))


def _epsilon_coordinates(family: str, w: list[int]) -> list[int]:
    """lambda + rho in epsilon-coordinates, doubled for B and D."""
    n = len(w)
    s = [c + 1 for c in w]
    if family == "A":
        return [sum(s[k:]) for k in range(n)] + [0]
    if family == "C":
        return [sum(s[k:]) for k in range(n)]
    if family == "B":
        return [2 * sum(s[k : n - 1]) + s[n - 1] for k in range(n)]
    head = [2 * sum(s[k : n - 2]) + s[n - 2] + s[n - 1] for k in range(n - 1)]
    return head + [s[n - 1] - s[n - 2]]


def _root_pairings(family: str, x: list[int]):
    """<x, alpha> over the positive roots, up to a per-root scale."""
    m = len(x)
    for i in range(m):
        for j in range(i + 1, m):
            yield x[i] - x[j]
            if family != "A":
                yield x[i] + x[j]
        if family in ("B", "C"):
            yield x[i]


def weyl_dim(name: str, weight: list[int]) -> int:
    """Weyl's product formula for A/B/C/D in epsilon-coordinates."""
    family, n = split(name)
    num = den = 1
    top = _root_pairings(family, _epsilon_coordinates(family, weight))
    bottom = _root_pairings(family, _epsilon_coordinates(family, [0] * n))
    for p, q in zip(top, bottom):
        num *= p
        den *= q
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl product for {name} {weight} is not integral")
    return dim


def closure_is_smooth(name: str, weight: list[int]) -> bool:
    """The cone of highest weight vectors is all of V exactly when G is
    transitive on V minus 0: SL(n+1) on its standard module or its dual,
    Sp(2n) on its standard module (which is the spin module of B2)."""
    family, n = split(name)
    if sorted(weight) != [0] * (n - 1) + [1]:
        return False
    node = weight.index(1) + 1
    return (
        (family == "A" and node in (1, n))
        or (family == "C" and node == 1)
        or (name == "B2" and node == 2)
    )


def table_types(max_rank: int) -> list[str]:
    """Row order of the tables: classical families by rank, then exceptionals."""
    names = [f"A{n}" for n in range(1, max_rank + 1)]
    names += [f"B{n}" for n in range(2, max_rank + 1)]
    names += [f"C{n}" for n in range(3, max_rank + 1)]
    names += [f"D{n}" for n in range(4, max_rank + 1)]
    return names + list(EXCEPTIONAL)


def _dim(name: str) -> int:
    family, n = split(name)
    closed = {"A": n * (n + 2), "B": n * (2 * n + 1), "C": n * (2 * n + 1)}
    closed["D"] = n * (2 * n - 1)
    return closed.get(family) or {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}[name]


_EXCEPTIONAL_M = {
    "E6": (17, [1, 6], [27, 27]),
    "E7": (28, [7], [56]),
    "E8": (58, [8], [248]),
    "F4": (16, [1, 4], [52, 26]),
    "G2": (6, [1, 2], [7, 14]),
}
_EXCEPTIONAL_R = {
    "E6": (26, "F4"),
    "E7": (54, "E6 x T1"),
    "E8": (112, "E7 x A1"),
    "F4": (16, "B4"),
    "G2": (6, "A2"),
}
_D_EXCEPTIONS = {"E7": 45, "E8": 86}


def _m_row(name: str) -> tuple[int, list[int], list[int]]:
    """(m, nodes attaining it, dims of those fundamental modules)."""
    family, n = split(name)
    if family == "A":
        nodes = [1] if n == 1 else [1, n]
        return n + 1, nodes, [n + 1] * len(nodes)
    if family == "B":
        return (4, [1, 2], [5, 4]) if n == 2 else (2 * n, [1], [2 * n + 1])
    if family == "C":
        return 2 * n, [1], [2 * n]
    if family == "D":
        return (7, [1, 3, 4], [8, 8, 8]) if n == 4 else (2 * n - 1, [1], [2 * n])
    return _EXCEPTIONAL_M[name]


def _r_row(name: str) -> tuple[int, str]:
    """(r, the minimal reductive subgroup H)."""
    family, n = split(name)
    if family == "A":
        small = {1: (2, "T1"), 2: (4, "A1 x T1"), 3: (5, "B2")}
        return small.get(n, (2 * n, f"A{n - 1} x T1"))
    if family == "B":
        small = {2: (4, "A1 x A1"), 3: (6, "A3")}
        return small.get(n, (2 * n, f"D{n}"))
    if family == "C":
        return 4 * n - 4, ("B2 x A1" if n == 3 else f"C{n - 1} x A1")
    if family == "D":
        return 2 * n - 1, f"B{n - 1}"
    return _EXCEPTIONAL_R[name]


def table_rows(number: int, max_rank: int) -> list[dict]:
    """The published rows of table 2 (overview) or table 3 (m)."""
    rows = []
    for name in table_types(max_rank):
        m, nodes, dims = _m_row(name)
        if number == 2:
            r, h = _r_row(name)
            d = _D_EXCEPTIONS.get(name, r)
            rows.append({"type": name, "dim": _dim(name), "m": m, "d": d, "r": r, "h": h})
        else:
            rows.append({"type": name, "m": m, "p": m - 1, "nodes": nodes, "dims": dims})
    return rows


# The rank-eight node-7 transcript: grade dimensions, and the summands of
# each positive grade as (weights per Levi component E6 x A1, dim).
E8_NODE7_DIMS = {0: 82, 1: 54, 2: 27, 3: 2}
E8_NODE7_SUMMANDS = {
    1: [[[[0, 0, 0, 0, 0, 1], [1]], 54]],
    2: [[[[1, 0, 0, 0, 0, 0], [0]], 27]],
    3: [[[[0, 0, 0, 0, 0, 0], [1]], 2]],
}
E8_NODE7_GRADE0_DIMS = [1, 3, 78]
