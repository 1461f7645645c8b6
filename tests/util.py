"""Shared fixtures-by-import for the test suite: type inventories and closed forms."""

from minorb import SimpleType, table_types

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
