"""zsumfree — ℓ-zero-sumfree simplicial complexes of Z/nZ.

A subset S of Z/nZ is ℓ-zero-sumfree when no multiset of exactly ℓ elements
of S (repetition allowed) sums to 0 mod n.  These sets form a simplicial
complex Δ_{n,ℓ}; this package builds it two independent ways, computes its
combinatorial invariants and the intersection poset of its facet arrangement,
verifies three closed-form facet families, and scans five open conjectures.
"""

from .arrangements import (
    POSET_ELEMENT_CAP,
    IntersectionPoset,
    build_poset,
    disjoint_union_char_poly,
)
from .complexes import (
    CapacityError,
    SimplicialComplex,
    alexander_dual,
    decompose_disjoint_simplices,
    f_to_h,
    f_vector_disjoint_simplices,
    faces_by_dimension,
    h_vector_disjoint_simplices,
    is_connected,
    is_pure,
    isolated_vertices,
    minimal_nonfaces_of_complex,
)
from .conjectures import (
    SCANNERS,
    ScanReport,
    scan_connectivity,
    scan_hvector_purity,
    scan_log_concavity,
    scan_no_isolated_vertices,
    scan_purity_prime,
)
from .families import (
    FamilySpec,
    closed_form_char_poly,
    expected_char_poly_discrepancies,
    family_facets,
    family_report_ok,
    verify_family,
)
from .partitions import (
    alternating_binomial_sum,
    binomial,
    check_partition,
    conjugate,
    count_partitions,
    enumerate_partitions,
)
from .zerosumfree import (
    BRUTE_FORCE_CAP,
    BUILD_CAP,
    ZsfParams,
    brute_force_complex,
    build_complex,
    enumerate_nlc,
    is_face,
    minimal_nonfaces,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_CAP",
    "BUILD_CAP",
    "CapacityError",
    "FamilySpec",
    "IntersectionPoset",
    "POSET_ELEMENT_CAP",
    "SCANNERS",
    "ScanReport",
    "SimplicialComplex",
    "ZsfParams",
    "alexander_dual",
    "alternating_binomial_sum",
    "binomial",
    "brute_force_complex",
    "build_complex",
    "build_poset",
    "check_partition",
    "closed_form_char_poly",
    "conjugate",
    "count_partitions",
    "decompose_disjoint_simplices",
    "disjoint_union_char_poly",
    "enumerate_nlc",
    "enumerate_partitions",
    "expected_char_poly_discrepancies",
    "f_to_h",
    "f_vector_disjoint_simplices",
    "faces_by_dimension",
    "family_facets",
    "family_report_ok",
    "h_vector_disjoint_simplices",
    "is_connected",
    "is_face",
    "is_pure",
    "isolated_vertices",
    "minimal_nonfaces",
    "minimal_nonfaces_of_complex",
    "scan_connectivity",
    "scan_hvector_purity",
    "scan_log_concavity",
    "scan_no_isolated_vertices",
    "scan_purity_prime",
    "verify_family",
]
