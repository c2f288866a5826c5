"""The pruning order on cut sets of a rooted tree, and its Mobius function.

States are edge sets H of a fixed rooted tree T, read as "everything outside
the stump of H has already been pruned away". H <= K ("H is a further-pruned
K") when H = K u A for some set A of edges of the stump tree of K: starting
from the K-pruned tree, cutting any additional edges of the remaining root
component moves down. The unique maximum is the empty set (nothing pruned).

The order is graded by |H|; every interval [H, K] is a lattice isomorphic to
[H - K, empty] on the stump tree of K, and [H, empty] factors as the product
of the intervals below the up-sets of the minimal edges of H. The Mobius
function has a closed form: mu(H, K) = (-1)^{|H|-|K|} when H - K is an
antichain (a stump cut set of the stump tree of K), and 0 otherwise.

Edge sets at the API boundary are iterables of upper-end labels; results come
back as frozensets. Nothing materializes the whole poset except hasse_edges,
which is bounded.
"""

from fractions import Fraction
from typing import NamedTuple

from . import trees as _t


def _submasks(m):
    """All submasks of m, ascending-ish; includes 0 and m."""
    sub = 0
    while True:
        yield sub
        if sub == m:
            return
        sub = (sub - m) & m


def _edge_masks(tree, *edge_sets):
    # the empty fragmentation tree has no vertices, so no pruning order
    if not hasattr(tree, "vertices"):
        raise ValueError("the empty tree has no vertices")
    return [tree.edge_mask(es) for es in edge_sets]


def _stump_edges(tree, kmask):
    # edges of the stump tree of K: edges whose upper end survives the cut
    return _t.stump_mask(tree, kmask) & tree.edge_mask_all


def _leq_masks(tree, hmask, kmask):
    extra = hmask & ~kmask
    return (hmask | kmask) == hmask and extra & ~_stump_edges(tree, kmask) == 0


def leq_p(tree, H, K):
    """True when H <= K in the pruning order: K is contained in H and every
    extra edge of H lies in the stump tree of K."""
    return _leq_masks(tree, *_edge_masks(tree, H, K))


def _interval_masks(tree, hmask, kmask):
    # elements are K u A for A a submask of H \ K; I belongs iff H <= I
    # (I <= K is automatic: A stays inside the stump edges of K)
    diff = hmask & ~kmask
    return [kmask | a for a in _submasks(diff)
            if _leq_masks(tree, hmask, kmask | a)]


def interval(tree, H, K):
    """All I with H <= I <= K, sorted by size then mask. Rejects H !<= K."""
    hmask, kmask = _edge_masks(tree, H, K)
    if not _leq_masks(tree, hmask, kmask):
        raise ValueError("interval endpoints are not comparable")
    ms = sorted(_interval_masks(tree, hmask, kmask),
                key=lambda m: (m.bit_count(), m))
    return [tree.vertex_set(m) for m in ms]


def down_set(tree, K):
    """All H with H <= K: K u A over subsets A of the stump edges of K."""
    (kmask,) = _edge_masks(tree, K)
    ms = sorted((kmask | a for a in _submasks(_stump_edges(tree, kmask))),
                key=lambda m: (m.bit_count(), m))
    return [tree.vertex_set(m) for m in ms]


def product_factorization(tree, H):
    """The factors of [H, empty]: for each minimal edge e of H, the part of H
    weakly above e. The interval is the direct product of the intervals below
    the factors; an empty H yields no factors (empty product). Factors come
    in ascending order of their minimal edge label."""
    (hmask,) = _edge_masks(tree, H)
    minimal = _t.minimal_edges(tree, H)
    try:
        minimal = sorted(minimal)
    except TypeError:
        minimal = sorted(minimal, key=str)
    return [tree.vertex_set(hmask & tree._desc[e]) for e in minimal]


class MobiusValue(NamedTuple):
    value: int
    comparable: bool


def mobius(tree, H, K):
    """Closed-form Mobius value of the pair (H, K).

    Returns MobiusValue(v, comparable). Incomparable pairs have value 0 with
    comparable=False; comparable pairs get (-1)^{|H|-|K|} when H \\ K is an
    antichain and 0 otherwise.
    """
    hmask, kmask = _edge_masks(tree, H, K)
    if not _leq_masks(tree, hmask, kmask):
        return MobiusValue(0, False)
    diff = hmask & ~kmask
    if not _t.is_stump_cut_set(tree, diff):
        return MobiusValue(0, True)
    return MobiusValue(-1 if diff.bit_count() & 1 else 1, True)


def mobius_recursive(tree, H, K):
    """Mobius value by the defining recursion, as an independent route:
    mu(H, H) = 1 and mu(H, K) = -sum over H <= I < K of mu(H, I).
    Rejects incomparable pairs."""
    hmask, kmask = _edge_masks(tree, H, K)
    if not _leq_masks(tree, hmask, kmask):
        raise ValueError("mobius_recursive needs H <= K")
    elems = _interval_masks(tree, hmask, kmask)
    # larger masks are lower; process upward from H
    elems.sort(key=lambda m: -m.bit_count())
    mu = {}
    for y in elems:
        if y == hmask:
            mu[y] = 1
            continue
        s = 0
        for z in elems:
            if z != y and _leq_masks(tree, z, y):
                s += mu[z]
        mu[y] = -s
    return mu[kmask]


def mobius_inversion_check(tree, f, K):
    """Round-trip a summation against its Mobius inversion at K.

    f maps frozenset edge sets to rationals and must be defined on every
    H <= K. With g(I) = sum of f over the down-set of I, returns the pair
    (f(K), sum over H <= K of mu(H, K) g(H)), both exact Fractions. The two
    agree exactly when the Mobius values are correct.
    """
    fval = f if callable(f) else f.__getitem__
    down = down_set(tree, K)
    g = {}
    for i_set in down:
        g[i_set] = sum((Fraction(fval(h)) for h in down_set(tree, i_set)),
                       Fraction(0))
    recovered = sum((mobius(tree, h, K).value * g[h] for h in down),
                    Fraction(0))
    return Fraction(fval(frozenset(K))), recovered


def covers_below(tree, K):
    """The elements covered-from-below list for K: K u {e} over stump edges e."""
    (kmask,) = _edge_masks(tree, K)
    out = []
    m = _stump_edges(tree, kmask)
    while m:
        low = m & -m
        out.append(tree.vertex_set(kmask | low))
        m ^= low
    return out


def hasse_edges(tree, max_edges=16):
    """All covering pairs (H, K) with H covered by K, over the whole poset.

    Pairs are exactly (K u {e}, K) for K any edge set and e an edge of the
    stump tree of K. Deterministic order: K by size then mask, e ascending.
    Bounded: rejects trees with more than max_edges edges."""
    _edge_masks(tree)  # rejects the empty fragmentation tree
    if tree.n_edges > max_edges:
        raise ValueError(
            f"hasse_edges is limited to {max_edges} edges ({tree.n_edges} given)")
    pairs = []
    masks = sorted(range(1 << tree.n_edges), key=lambda m: (m.bit_count(), m))
    for km in masks:
        kmask = km << 1  # edge bits sit above the root bit
        kset = tree.vertex_set(kmask)
        for hset in covers_below(tree, kset):
            pairs.append((hset, kset))
    return pairs
