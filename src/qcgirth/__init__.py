"""Quasi-cyclic LDPC codes from complete protographs.

Constructions from complete mappings of Z/N, girth computation by two
independent methods, difference-table analysis of girth-8 liftings, and
exhaustive minimal-lifting-factor search.
"""

from .girth import (
    GirthReport,
    girth_bfs,
    girth_from_shifts,
    has_girth_at_least,
)
from .girth8 import (
    CaseClassification,
    Girth8BoundReport,
    Girth8Table,
    StructureKind,
    ValidityVerdict,
    build_g8_table,
    check_girth8_conditions,
    classify_structure,
    extreme_intersection_pair,
    partition_case_bound,
    row_sets,
    validate_g8_table,
    verify_girth8_bound,
    verify_partition_bound,
)
from .lifting import (
    ParityCheckMatrix,
    ShiftMatrix,
    canonical_from_mapping,
    export_alist,
    export_shift_matrix,
    import_alist,
    import_shift_matrix,
    lift,
    normalize,
)
from .mappings import (
    CompleteMapping,
    MappingCensus,
    Permutation,
    almost_complete_mapping,
    compatible_pairs,
    difference_sequence,
    enumerate_complete_mappings,
    is_complete_mapping,
    is_complete_mapping_of,
    product_mapping,
    valid_product_multipliers,
)
from .search import (
    SearchResult,
    exists_code,
    girth6_even_L,
    girth6_odd_L_explicit,
    min_lifting_factor,
)

__all__ = [
    "CaseClassification",
    "CompleteMapping",
    "Girth8BoundReport",
    "Girth8Table",
    "GirthReport",
    "MappingCensus",
    "ParityCheckMatrix",
    "Permutation",
    "SearchResult",
    "ShiftMatrix",
    "StructureKind",
    "ValidityVerdict",
    "almost_complete_mapping",
    "build_g8_table",
    "canonical_from_mapping",
    "check_girth8_conditions",
    "classify_structure",
    "compatible_pairs",
    "difference_sequence",
    "enumerate_complete_mappings",
    "exists_code",
    "export_alist",
    "export_shift_matrix",
    "extreme_intersection_pair",
    "girth6_even_L",
    "girth6_odd_L_explicit",
    "girth_bfs",
    "girth_from_shifts",
    "has_girth_at_least",
    "import_alist",
    "import_shift_matrix",
    "is_complete_mapping",
    "is_complete_mapping_of",
    "lift",
    "min_lifting_factor",
    "normalize",
    "partition_case_bound",
    "product_mapping",
    "row_sets",
    "valid_product_multipliers",
    "validate_g8_table",
    "verify_girth8_bound",
    "verify_partition_bound",
]

__version__ = "0.1.0"
