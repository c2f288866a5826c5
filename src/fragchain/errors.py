"""Shared exception types and limits."""

#: default cap on catalan(|G|) * 2^(|G|-1), the term count of a full
#: distribution evaluation; admits |G| <= 10
DEFAULT_BUDGET = 10**7


class BudgetError(Exception):
    """An enumeration would exceed the configured size budget."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold was violated numerically.

    Raised when a tree-probability denominator is not strictly positive or a
    probability falls outside [0, 1] beyond tolerance. Under valid rates these
    indicate a bug, not bad input.
    """
