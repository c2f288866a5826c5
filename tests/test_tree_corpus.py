"""Order corpus of the tree layer: one hash over the values and the orders
of the public functions of trees.py and poset.py, and over the
fragmentation trees of small chains.

Sets are encoded sorted, so the hash does not depend on PYTHONHASHSEED;
lists, tuples and dicts keep their own order, so a change that reorders an
output changes the hash. The corpus imports only fragchain and the standard
library, so it also runs as a plain script, which prints the hash:

    PYTHONPATH=src python tests/test_tree_corpus.py
"""

import hashlib
import itertools
import random
from fractions import Fraction

from fragchain import (Fragment, RootedTree, covers_below, down_set,
                       enumerate_fragmentation_trees, enumerate_stump_cut_sets,
                       enumerate_tree_shapes, fragment_family, hasse_edges,
                       interval, is_stump_cut_set, leq_p, minimal_edges,
                       minimal_vertices, mobius, mobius_inversion_check,
                       mobius_recursive, product_factorization, random_tree,
                       stump_cut_set, stump_set, subtree)
from fragchain.serialize import fragtree_to_dict, rootedtree_to_dict
from fragchain.trees import component_mask, stump_mask

TREE_CORPUS_SHA = "c2a796ae3d9cd040"


def _enc(x):
    """Canonical text of a result: sets sorted, other containers in their
    own order, trees and fragments by every field that orders them."""
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(_enc(v) for v in x)) + "}"
    if isinstance(x, dict):
        return "<" + ",".join(f"{_enc(k)}:{_enc(v)}" for k, v in x.items()) + ">"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(_enc(v) for v in x) + ")"
    if isinstance(x, Fragment):
        return f"F{_enc((x.lo, x.hi, x.vertex, x.side))}"
    if isinstance(x, RootedTree):
        return f"T{_enc((x.root, x.vertices, x.children, _lookup(x.parent)))}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def _lookup(d):
    # the lookup maps parent, lo and hi are filled in the order a build walks
    # the tree, and nothing iterates them, so they are encoded by key
    return sorted(d.items())


def _subsets(items):
    return [frozenset(c) for k in range(len(items) + 1)
            for c in itertools.combinations(items, k)]


def _try(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def _rooted(tree, rng, sample=None):
    """Every public tree and poset function of one rooted tree, over all
    edge sets, vertex sets and pairs of edge sets, or over `sample` of each."""
    out = [("tree", tree), ("dict", rootedtree_to_dict(tree)),
           ("sizes", (tree.n_vertices, tree.n_edges, tree.edge_labels)),
           ("leq", [[tree.leq(a, b) for b in tree.vertices] for a in tree.vertices]),
           ("cuts", enumerate_stump_cut_sets(tree)),
           ("hasse", _try(hasse_edges, tree, 8))]
    edge_sets = _subsets(tree.edge_labels)
    pick = (lambda xs: xs) if sample is None else (
        lambda xs: rng.sample(xs, min(sample, len(xs))))
    for H in pick(edge_sets):
        hmask = tree.edge_mask(H)
        out.append((f"H {_enc(H)}", [
            hmask, stump_mask(tree, hmask), stump_set(tree, H),
            minimal_edges(tree, H), is_stump_cut_set(tree, H),
            product_factorization(tree, H), down_set(tree, H),
            covers_below(tree, H), tree.component_masks(hmask),
            [component_mask(tree, v, hmask) for v in tree.vertices],
            [subtree(tree, v, H) for v in tree.vertices],
            tree.mask_vertices(hmask | 1), tree.vertex_set(hmask)]))
    for S in pick(_subsets(tree.vertices)):
        # which missing parent a rejection names follows set order, so only
        # the rule is kept
        ideal = _try(stump_cut_set, tree, S)
        out.append((f"S {_enc(S)}", [minimal_vertices(tree, S),
                                     ideal if isinstance(ideal, frozenset)
                                     else ideal[1].split(":")[0]]))
    for H, K in pick(list(itertools.product(edge_sets, repeat=2))):
        comparable = leq_p(tree, H, K)
        out.append((f"pair {_enc(H)} {_enc(K)}", [
            comparable, mobius(tree, H, K), _try(interval, tree, H, K),
            mobius_recursive(tree, H, K) if comparable else None]))
    weights = {h: Fraction(len(h) + 1, 2 + sum(tree.vertices.index(v) for v in h))
               for h in edge_sets}
    out.append(("inversion", [mobius_inversion_check(tree, weights, K)
                              for K in rng.sample(edge_sets, min(4, len(edge_sets)))]))
    out.append(("errors", [_try(f, tree, [tree.root]) for f in (
        stump_set, minimal_edges, is_stump_cut_set, product_factorization,
        down_set, covers_below)] + [_try(minimal_vertices, tree, ["?"])]))
    return out


def _frag(tree):
    out = [("frag", (tree.n, tree.G, tree.root, tree.left, tree.right, _lookup(tree.lo),
                     _lookup(tree.hi), tree.postorder, tree.structure_key())),
           ("externals", tree.externals()), ("family", tree.family()),
           ("dict", fragtree_to_dict(tree))]
    if tree.root is not None:
        out += [("rooted", (tree, rootedtree_to_dict(tree), tree.edges)),
                ("intervals", [tree.interval(a) for a in tree.G]),
                ("links", [tree.subtree_links(a) for a in tree.G]),
                ("families", [[fragment_family(tree, a, H) for a in tree.G]
                              for H in enumerate_stump_cut_sets(tree)])]
    return out


def corpus():
    """(label, value) pairs in a fixed order."""
    rng = random.Random(20261019)
    out = []
    for i, tree in enumerate(enumerate_tree_shapes(4)):
        out += [(f"shape {i} {k}", v) for k, v in _rooted(tree, rng)]
    for i, k in enumerate([0, 1, 2, 3, 5, 6, 7, 8, 9, 9]):
        tree = random_tree(k, rng)
        out += [(f"random {i} {k}", v) for k, v in _rooted(tree, rng, 40)]
    labelled = RootedTree("r", [("r", "b"), ("r", "a"), ("b", "c"), ("a", "d")])
    out += [(f"labelled {k}", v) for k, v in _rooted(labelled, rng)]
    for n in range(1, 7):
        states = [()] + [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
                         for _ in range(4)] + [tuple(range(1, n + 1))]
        for G in states:
            for j, tree in enumerate(enumerate_fragmentation_trees(G, n)):
                out += [(f"n={n} G={G} {j} {k}", v) for k, v in _frag(tree)]
    return out


def corpus_sha():
    h = hashlib.sha256()
    for label, value in corpus():
        h.update(f"{label}={_enc(value)}\n".encode())
    return h.hexdigest()[:16]


def test_tree_corpus_keeps_its_hash():
    assert corpus_sha() == TREE_CORPUS_SHA


if __name__ == "__main__":
    print(corpus_sha())
