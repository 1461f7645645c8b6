"""Exact combinatorics of simple root systems and their minimal-orbit invariants."""

from types import ModuleType as _Module

from minorb.rootsys import (
    MAX_RANK,
    MAX_WEIGHT_ENTRY,
    SimpleType,
    Component,
    parse_type,
    canonicalize,
    cartan_matrix,
    inverse_cartan,
    symmetrizers,
    positive_roots,
    highest_root,  # no src/ caller: theta; bench/child.py primes it, bench/spans.py traces it
    dim_simple,
    root_to_weight,  # no src/ caller: _root_to_weight on unchecked input; bench/spans.py traces it
    subdiagram_components,
    table_types,
)
from minorb.repdim import (
    dim_irrep,
    dim_irrep_product,  # no src/ caller: Weyl dimension over a Levi; bench/spans.py traces it
    dual_weight,
)
from minorb.parabolic import (
    LeviData,
    levi_data,
    dim_u,
    parabolic_of_weight,  # no src/ caller: P_lambda as LeviData; bench/spans.py traces it
    dim_min_orbit,
    orbit_type,
    closure_is_smooth,
)
from minorb.grading import (
    GradingReport,
    BranchReport,
    BranchSummand,
    VAlphaData,
    grade_adjoint,
    dim_v_alpha,  # no src/ caller: dim V(alpha_i) with no Levi named; bench/spans.py traces it
    lowest_weight_of_v_alpha,
    branch_adjoint,
)
from minorb.invariants import (
    Torus,
    Witness,
    BoundCertificate,
    InvariantReport,
    compute_m,
    compute_r,
    r_of_levi,
    sukhanov_refined,
    compute_d,
    full_report,
)

# The public API is the names imported above, in their order: the import
# lists are its one declaration, so a public name is added in one place.
__all__ = [name for name, value in globals().items() if not (name[0] == "_" or isinstance(value, _Module))]
