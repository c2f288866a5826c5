"""Shared exception types, limits and the argument rules: every public
entry point checks ints, links, times, the clock of its rates (discrete
steps or continuous time) and a tree's n by the functions here."""

import math

#: default cap on tree enumeration's catalan(|G|) * 2^(|G|-1) terms, which
#: admits |G| <= 10, and on the products of the paper's route over the runs
#: of m links, the sum over run lengths L of (m-L+1) L b^(L-1): b = 2 for a
#: state, which admits |G| <= 18, and b = 3 for a full table, n <= 12
DEFAULT_BUDGET = 10**7


class BudgetError(Exception):
    """An enumeration would exceed the configured size budget."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold was violated numerically.

    Raised when a tree-probability denominator is not strictly positive or a
    probability falls outside [0, 1] beyond tolerance. Under valid rates these
    indicate a bug, not bad input.
    """


def _is_int(x):
    """Whether x is an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _chain_n(n):
    """n, once it is the link count of a chain: an int of at least 1."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"a chain needs an int n of at least 1 link, got {n!r}")
    return n


def _links(G, n):
    """The links of G as a list, once each is an int in 1..n."""
    g = list(G)
    if not all(_is_int(a) and 1 <= a <= n for a in g):
        raise ValueError(f"links must lie in 1..n = 1..{n} and be ints, got {g!r}")
    return g


def _check_time(t, mode):
    """t, if it is a time of the chain in this mode; a float if continuous."""
    if mode == "discrete":
        if not _is_int(t) or t < 0:
            raise ValueError("discrete time must be a nonnegative integer")
    else:
        t = float(t)
        if not (t >= 0 and math.isfinite(t)):
            raise ValueError("time must be nonnegative and finite")
    return t


def _need(rates, mode, what, t=None, tree=None):
    """The gate of every entry point: rates of this mode, a tree (if given)
    on the rates' n, and then the time t as _check_time checks it (None
    without one)."""
    if rates.mode != mode:
        raise ValueError(f"{what} needs {mode} rates")
    if tree is not None and tree.n != rates.n:
        raise ValueError("tree and rates disagree on n")
    return None if t is None else _check_time(t, mode)
