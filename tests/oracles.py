"""Brute-force reference implementations for the test suite.

Everything here is deliberately naive and independent of the library's
bitmask machinery: explicit searches over frozensets, parent-pointer walks,
and definitional recursions. Matching results from two codebases is the
point, so keep these dumb.
"""

import itertools
from fractions import Fraction


def bf_ancestors(tree, v):
    out = []
    while v != tree.root:
        v = tree.parent[v]
        out.append(v)
    return out


def bf_leq(tree, a, b):
    return a == b or a in bf_ancestors(tree, b)


def bf_stump_set(tree, H):
    """Root-reachability with the edges H removed (H = upper ends)."""
    blocked = set(H)
    seen = {tree.root}
    queue = [tree.root]
    while queue:
        v = queue.pop()
        for c in tree.children[v]:
            if c not in blocked and c not in seen:
                seen.add(c)
                queue.append(c)
    return frozenset(seen)


def bf_component(tree, alpha, H):
    blocked = set(H)
    seen = {alpha}
    queue = [alpha]
    while queue:
        v = queue.pop()
        for c in tree.children[v]:
            if c not in blocked and c not in seen:
                seen.add(c)
                queue.append(c)
    return frozenset(seen)


def bf_minimal_edges(tree, H):
    hs = set(H)
    return frozenset(e for e in hs
                     if not any(a in hs for a in bf_ancestors(tree, e)
                                if a != tree.root))


def bf_is_antichain(tree, H):
    hl = list(H)
    for a in hl:
        for b in hl:
            if a != b and bf_leq(tree, a, b):
                return False
    return True


def bf_stump_edges(tree, K):
    """Edges of the root component after cutting K: upper end reachable."""
    reach = bf_stump_set(tree, K)
    return frozenset(e for e in tree.vertices[1:] if e in reach)


def bf_leq_p(tree, H, K):
    hs, ks = frozenset(H), frozenset(K)
    return ks <= hs and (hs - ks) <= bf_stump_edges(tree, ks)


def bf_interval(tree, H, K):
    hs, ks = frozenset(H), frozenset(K)
    assert bf_leq_p(tree, hs, ks)
    diff = sorted(hs - ks)
    out = []
    for r in range(len(diff) + 1):
        for combo in itertools.combinations(diff, r):
            i = ks | set(combo)
            if bf_leq_p(tree, hs, i) and bf_leq_p(tree, i, ks):
                out.append(frozenset(i))
    return out


def bf_mobius(tree, H, K):
    """The defining recursion over the brute-force interval."""
    hs, ks = frozenset(H), frozenset(K)
    elems = bf_interval(tree, hs, ks)
    elems.sort(key=len, reverse=True)
    mu = {}
    for y in elems:
        if y == hs:
            mu[y] = 1
            continue
        mu[y] = -sum(mu[z] for z in elems
                     if z != y and bf_leq_p(tree, z, y))
    return mu[ks]


def bf_antichains(tree):
    edges = tree.vertices[1:]
    out = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            if bf_is_antichain(tree, combo):
                out.append(frozenset(combo))
    return out


def bf_fragments(G, n):
    """Fragments as lists of links, by a single left-to-right scan."""
    gs = set(G)
    frags = []
    cur = []
    for a in range(1, n + 1):
        if a in gs:
            frags.append(cur)
            cur = []
        else:
            cur.append(a)
    frags.append(cur)
    return frags


def bf_order_ideals_with_root(tree):
    """All downward-closed vertex sets containing the root."""
    vs = tree.vertices
    out = []
    for r in range(len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            s = set(combo)
            if tree.root not in s:
                continue
            if all(v == tree.root or tree.parent[v] in s for v in s):
                out.append(frozenset(s))
    return out


def bf_atom_probability(tree, rates, atom):
    """Chain-rule probability of a joint slot state, written independently:
    externals first, then each internal conditioned on its two child slots."""
    from fragchain.simulate import (CUT, DEP, EMPTY, FIRE, IND,
                                    child_slot_keys, external_slots,
                                    internal_slots)
    p = Fraction(1) if rates.exact else 1.0
    for key, frag in external_slots(tree):
        q = rates.rho_sum(list(frag))
        p = p * (q if atom[key] == FIRE else 1 - q)
        if atom[key] not in (FIRE, EMPTY):
            return 0
    for key, I, Il, Ir in internal_slots(tree):
        kl, kr = child_slot_keys(tree, key[1])
        fired = atom[kl] != EMPTY or atom[kr] != EMPTY
        lam = (1 - rates.rho_sum(list(Il))) * (1 - rates.rho_sum(list(Ir)))
        cond = {EMPTY: (1 - rates.rho_sum(list(I))) / lam,
                CUT: rates.rho(key[1]) / lam,
                DEP: rates.rho_sum(list(Il)) * rates.rho_sum(list(Ir)) / lam,
                IND: 0}
        if fired:
            p = p * (1 if atom[key] == IND else 0)
        else:
            p = p * cond[atom[key]]
    return p


def bf_cut_set_sum(tree, w):
    """The paper's inclusion-exclusion one edge subset H at a time, grouped
    by stump set: {stump: sum over H of (-1)^|H| times the product over the
    vertices a of w(a, a's component below a)}."""
    edges = tree.vertices[1:]
    out = {}
    for r in range(len(edges) + 1):
        for H in itertools.combinations(edges, r):
            term = (-1) ** r
            for a in tree.vertices:
                term *= w(a, bf_component(tree, a, H))
            stump = bf_component(tree, tree.root, H)
            out[stump] = out.get(stump, 0) + term
    return out


def bf_fragmentation_tree_keys(G, n):
    """Structure keys of the fragmentation trees of G in the documented
    order: root ascending, then the left subtree's order, then the right's,
    by plain recursion over nested {vertex: parent} dicts."""
    g = sorted(G)

    def trees(links, parent):
        if not links:
            yield {}
            return
        for i, a in enumerate(links):
            for left in trees(links[:i], a):
                for right in trees(links[i + 1:], a):
                    yield {a: parent, **left, **right}

    for t in trees(g, None):
        yield (n, tuple((a, t[a]) for a in g))


def bf_postorder(root, kids):
    """Children before parents, left to right, by plain recursion; kids(v)
    lists v's children in order."""
    out = []

    def walk(v):
        for c in kids(v):
            walk(c)
        out.append(v)

    if root is not None:
        walk(root)
    return tuple(out)


def bf_intervals(tree):
    """{vertex: (lo, hi)} of a fragmentation tree by recursion from the whole
    chain: a left child gets the part below its parent, a right child the
    part above."""
    out = {}

    def walk(a, lo, hi):
        if a is not None:
            out[a] = (lo, hi)
            walk(tree.left[a], lo, a - 1)
            walk(tree.right[a], a + 1, hi)

    walk(tree.root, 1, tree.n)
    return out
