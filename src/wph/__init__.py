"""Exact-arithmetic toolkit for weighted projective hypersurfaces.

Classifies cyclic quotient singularities by the Reid-Tai criterion, counts
weighted monomials to get plurigenera, computes canonical volumes as exact
rationals, verifies the explicit low-volume / assigned-volume families, and
searches weight tuples for small-volume canonical hypersurfaces.
"""

__version__ = "0.1.0"

from .core import (
    CyclicQuotientSingularity,
    StratumRecord,
    Weights,
    singular_strata,
    well_formed,
)
from .errors import (
    BudgetError,
    NotWellFormedError,
    ParameterError,
)
from .families import (
    Check,
    FamilyReport,
    ample_witness,
    consecutive_family,
    degree_bound_witness,
    vanishing_witness,
    verify_all,
    volume_witness,
)
from .hilbert import (
    monomial_count,
    monomial_count_enum,
    plurigenera_table,
    plurigenus,
    variables_present,
)
from .hypersurface import (
    PointRecord,
    SingularityReport,
    WeightedHypersurface,
    singularity_report,
)
from .search import SearchRecord, search_records
from .singularity import (
    QuotientReport,
    SingularityClass,
    ambient_canonical,
    ambient_canonical_bruteforce,
    classify_quotient,
    parse_quotient,
    quotient_report,
    reid_tai_sum,
)

__all__ = [
    "__version__",
    "BudgetError",
    "Check",
    "CyclicQuotientSingularity",
    "FamilyReport",
    "NotWellFormedError",
    "ParameterError",
    "PointRecord",
    "QuotientReport",
    "SearchRecord",
    "SingularityClass",
    "SingularityReport",
    "StratumRecord",
    "WeightedHypersurface",
    "Weights",
    "ambient_canonical",
    "ambient_canonical_bruteforce",
    "ample_witness",
    "classify_quotient",
    "consecutive_family",
    "degree_bound_witness",
    "monomial_count",
    "monomial_count_enum",
    "parse_quotient",
    "plurigenera_table",
    "plurigenus",
    "quotient_report",
    "reid_tai_sum",
    "search_records",
    "singular_strata",
    "singularity_report",
    "vanishing_witness",
    "variables_present",
    "verify_all",
    "volume_witness",
    "well_formed",
]
