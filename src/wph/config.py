"""Resource caps, overridable through environment variables.

Every cap guards an exponential or table-building code path.  `_cap` is
the one place that reads a cap, and `require` the one that compares it and
raises :class:`wph.errors.BudgetError`, which names the variable and the
value needed, rather than silently truncating.  A hot loop may read a cap
once with `_cap` and call `require` only for a value above it.
"""

import os

from .errors import BudgetError

DEFAULTS = {
    # cells of a count table or of a reachability table, degrees of a
    # presence listing, entries of a parsed weight list
    "WPH_TABLE_CAP": 10_000_000,
    # distinct values (quasi-smoothness) and weights > 1 (strata listing)
    # whose subsets are enumerated; each step of the cap doubles the work
    "WPH_SUBSET_CAP": 20,
    "WPH_ORDER_CAP": 1_000_000,  # cyclic group order of the Reid-Tai scan
    "WPH_SEARCH_SUM_CAP": 500,  # weight-sum bound of the candidate search
}


def _cap(name: str) -> int:
    """The cap `name`: its variable's value if set, else its default."""
    raw = os.environ.get(name)
    try:
        return DEFAULTS[name] if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def require(name: str, needed: int, what: str) -> None:
    """Raise BudgetError if `needed` exceeds the cap `name`; `what` says what
    needs it, e.g. "group order 2000000"."""
    cap = _cap(name)
    if needed > cap:
        raise BudgetError(
            f"{what}, above the cap {cap} (set {name} to at least {needed} to allow it)"
        )
