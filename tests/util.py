"""Shared fixtures-by-import for the test suite: type inventories, closed forms,
and the second routes that the tests compare with the library."""

from minorb import (
    SimpleType,
    canonicalize,
    dim_simple,
    subdiagram_components,
    table_types,
)
from minorb.rootsys import checked_nodes

# the table row inventory: classical families to rank 12 plus the exceptionals
ALL_TYPES = table_types(12)

SMALL_TYPES = [t for t in ALL_TYPES if t.rank <= 6]
MID_TYPES = [t for t in ALL_TYPES if t.rank <= 8]


def dim_closed_form(typ: SimpleType) -> int:
    """Dimension of the algebra from the classical closed forms, no root data."""
    n = typ.rank
    if typ.family == "A":
        return n * (n + 2)
    if typ.family in ("B", "C"):
        return n * (2 * n + 1)
    if typ.family == "D":
        return n * (2 * n - 1)
    return {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}[
        (typ.family, n)
    ]


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
