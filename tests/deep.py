"""Tier-1's checks on types past tier-1's: each entry of DEEP runs one test
function of a tier-1 module, unchanged, on types its own parametrization
lacks.

    PYTHONPATH=src python -m pytest tests/deep.py

Pytest's default collection (test_*.py) does not pick up this file.  Every
A-D rank is a multiple of MAX_RANK, the command line's ceiling: twice and
three times it for the roots, their values, Weyl dimensions and
smoothness, twice it for d against every pair and for the inverse Cartan
matrix, and MAX_RANK itself for m by finite differences of Weyl
dimensions.  Only modules are imported: a test function imported here
would be collected again with its tier-1 parameters.  test_invariants
checks that DEEP keeps up with tier-1.
"""

import inspect

import pytest

import test_invariants
import test_parabolic
import test_repdim
import test_rootsys
from minorb import MAX_RANK, SimpleType, table_types

RANKS = (2 * MAX_RANK, 3 * MAX_RANK)

# (tier-1 module, test function, A-D ranks, further types), in running order:
# the smoothness checks come first, so that full_report starts from cold caches
DEEP = (
    (test_invariants, "test_smooth_fundamentals", RANKS, ()),
    (test_parabolic, "test_smoothness_matches_the_weyl_route_on_fundamentals", RANKS, ()),
    (test_rootsys, "test_a_d_roots_come_in_root_order_from_one_build", RANKS, ()),
    (test_rootsys, "test_height_pass_agrees_with_the_closed_forms", RANKS, ()),
    (test_rootsys, "test_root_order_values_are_dot_products", RANKS, ()),
    (test_repdim, "test_net_counts_divisible_by_every_m_are_nonnegative", RANKS[1:], ()),
    (test_repdim, "test_dimension_routes_at_the_cutoff", RANKS[1:], ()),
    (
        test_invariants,
        "test_m_from_hilbert_polynomial_differences",
        (MAX_RANK,),
        tuple(t for t in table_types(24) if t.rank > 16),
    ),
    (test_invariants, "test_winner_certificates_match_every_pair_evaluation", RANKS[:1], ()),
    # not at 3x: its cost is the O(n^3) Bareiss reference elimination, 0.63-0.75 s
    # of the 1.3-1.5 s it takes a type at 128 (frac_det 0.06-0.07 s), so about
    # 4-5 s a type at 192 by n^3 scaling; four of those would take the rank-192
    # group (16.7-18.4 s) to about 35 s, past its CI step's timeout of 60 s on
    # a machine twice as slow
    (test_rootsys, "test_inverse_cartan_identity", RANKS[:1], ()),
)


def deep_types(ranks, further):
    """A, B, C and D at each rank, then the further types."""
    return [SimpleType(f, n) for n in ranks for f in "ABCD"] + list(further)


@pytest.mark.parametrize(
    "check,typ",
    [
        pytest.param(getattr(module, name), typ, id=f"{name}-{typ}")
        for module, name, ranks, further in DEEP
        for typ in deep_types(ranks, further)
    ],
)
def test_deep(check, typ, monkeypatch):
    if "monkeypatch" in inspect.signature(check).parameters:
        check(typ, monkeypatch)
    else:
        check(typ)
