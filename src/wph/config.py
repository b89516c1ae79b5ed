"""Resource caps, overridable through environment variables.

All caps guard exponential or table-building code paths; exceeding one
raises :class:`wph.errors.BudgetError` rather than silently truncating.
"""

import os


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return int(raw)


def table_cap() -> int:
    """Maximum number of cells in a monomial-count table, of unit weights in a
    `volume` family member, and of entries in a parsed weight list."""
    return _env_int("WPH_TABLE_CAP", 10_000_000)


def subset_cap() -> int:
    """Maximum base-set size for subset enumerations (strata, quasi-smooth)."""
    return _env_int("WPH_SUBSET_CAP", 30)


def order_cap() -> int:
    """Maximum cyclic group order for the Reid-Tai loop."""
    return _env_int("WPH_ORDER_CAP", 1_000_000)


def search_sum_cap() -> int:
    """Maximum weight sum the candidate enumeration accepts."""
    return _env_int("WPH_SEARCH_SUM_CAP", 500)


def default_jobs() -> int:
    """Worker count for the search CLI when --jobs is not given."""
    return _env_int("WPH_JOBS", 1)
