"""Reference computations the benchmark checks fragchain against.

Everything here is written from the definitions of the chain and of the
pruning order, using only the standard library, so that a fault in the
program cannot hide in its own oracle. States are bitmasks over the links
1..n, bit a-1 set when link a is broken; rates are a list indexed by link
(index 0 unused) holding floats or Fractions; the iteration keeps their
type, so Fraction rates give exact laws.
"""

from __future__ import annotations

import math


def fragments(state, n):
    """The nonempty runs of unbroken links of the chain 1..n, left to right."""
    runs, run = [], []
    for a in range(1, n + 1):
        if state >> (a - 1) & 1:
            if run:
                runs.append(run)
            run = []
        else:
            run.append(a)
    if run:
        runs.append(run)
    return runs


def step(state, rho, n):
    """One step of the discrete chain from `state`: every fragment
    independently breaks one of its links a with probability rho[a], or
    stays whole. Returns the (broken-links mask, probability) outcomes."""
    out = [(0, rho[1] * 0 + 1)]
    for run in fragments(state, n):
        choices = [(0, 1 - sum(rho[a] for a in run))]
        choices += [(1 << (a - 1), rho[a]) for a in run]
        out = [(m | bm, p * bp) for m, p in out for bm, bp in choices]
    return out


def forward(rho, n, t, within=None):
    """Law of the state at step t, started from the intact chain, by
    iterating `step`. With `within`, only states inside that mask are kept;
    since the state only grows, their probabilities are still exact."""
    law = {0: rho[1] * 0 + 1}
    for _ in range(t):
        nxt = {}
        for s, p in law.items():
            for m, q in step(s, rho, n):
                s2 = s | m
                if within is None or s2 & ~within == 0:
                    nxt[s2] = nxt.get(s2, 0) + p * q
        law = nxt
    return law


def tree_match_prob(rho, n, t, parent):
    """Probability that the chain matches a removal-order tree at step t.

    `parent` maps each link of the tree to its parent link (None at the
    root). The chain matches when its state at t is the tree's link set and
    every link broke strictly after its parent did; the forward iteration
    keeps only steps that respect that order."""
    goal = sum(1 << (a - 1) for a in parent)
    law = {0: rho[1] * 0 + 1}
    for _ in range(t):
        nxt = {}
        for s, p in law.items():
            for m, q in step(s, rho, n):
                ok = m & ~goal == 0 and all(
                    parent[a] is None or s >> (parent[a] - 1) & 1
                    for a in range(1, n + 1) if m >> (a - 1) & 1)
                if ok:
                    nxt[s | m] = nxt.get(s | m, 0) + p * q
        law = nxt
    return law.get(goal, 0)


def links_of(mask):
    return tuple(a + 1 for a in range(mask.bit_length()) if mask >> a & 1)


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def z_score(hits, samples, p):
    """Binomial z of `hits` out of `samples` against probability p."""
    return (hits / samples - p) / math.sqrt(p * (1 - p) / samples)


# -- the pruning order on the edge sets of a rooted tree ----------------------
# A tree is (root, [(parent, child), ...]); an edge is named by its child.


def stump(tree, K):
    """Vertices still joined to the root once the edges K are cut."""
    root, edges = tree
    kids = {}
    for p, c in edges:
        kids.setdefault(p, []).append(c)
    seen, todo = {root}, [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in K:
                seen.add(c)
                todo.append(c)
    return seen


def below(tree, H, K):
    """H <= K: H is K plus edges of the tree that K leaves at the root."""
    return K <= H and (H - K) <= stump(tree, K)


def mobius_recursion(tree, H, K):
    """mu(H, K) from its definition: mu(H, H) = 1 and
    mu(H, I) = -sum of mu(H, J) over H <= J < I."""
    H, K = frozenset(H), frozenset(K)
    extra = sorted(H - K)
    elems = [K | {e for i, e in enumerate(extra) if m >> i & 1}
             for m in range(1 << len(extra))]
    elems = [frozenset(i) for i in elems if below(tree, H, frozenset(i))]
    elems.sort(key=len, reverse=True)
    mu = {}
    for i in elems:
        mu[i] = 1 if i == H else -sum(mu[j] for j in mu if below(tree, j, i))
    return mu[K]


def cover_pairs(tree):
    """Number of covering pairs of the pruning order: one per edge set K
    and edge of the tree that K leaves at the root."""
    root, edges = tree
    names = [c for _, c in edges]
    total = 0
    for m in range(1 << len(names)):
        K = {names[i] for i in range(len(names)) if m >> i & 1}
        total += len(stump(tree, K) - {root})
    return total


def antichains(tree):
    """Number of edge sets in which no edge lies below another."""
    root, edges = tree
    parent = {c: p for p, c in edges}
    names = [c for _, c in edges]

    def ancestors(v):
        out = set()
        while v in parent:
            v = parent[v]
            out.add(v)
        return out

    total = 0
    for m in range(1 << len(names)):
        H = {names[i] for i in range(len(names)) if m >> i & 1}
        total += all(not (ancestors(e) & H) for e in H)
    return total
