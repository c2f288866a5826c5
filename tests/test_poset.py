from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragchain import (FragTree, RootedTree, down_set, hasse_edges, interval,
                       is_stump_cut_set, leq_p, mobius, mobius_inversion_check,
                       mobius_recursive, product_factorization, stump_set)

from oracles import bf_interval, bf_leq_p, bf_mobius


@st.composite
def trees_pairs_st(draw, max_edges=7):
    k = draw(st.integers(0, max_edges))
    parents = [draw(st.integers(0, v)) for v in range(k)]
    tree = RootedTree(0, [(parents[v], v + 1) for v in range(k)])
    km = draw(st.integers(0, (1 << k) - 1 if k else 0))
    K = frozenset(tree.vertices[i + 1] for i in range(k) if km >> i & 1)
    # a random further-pruned H: K plus a subset of the stump edges of K
    stump_edges = sorted(e for e in tree.vertices[1:]
                         if e in stump_set(tree, K))
    hm = draw(st.integers(0, (1 << len(stump_edges)) - 1 if stump_edges else 0))
    H = K | {stump_edges[i] for i in range(len(stump_edges)) if hm >> i & 1}
    return tree, H, K


def test_leq_examples(tree4):
    # ids: 1 and 2 hang off the root, 3 and 4 hang off vertex 1
    assert leq_p(tree4, [3, 4, 1], [3, 4])
    assert leq_p(tree4, [1, 2, 3, 4], [3, 4])
    assert not leq_p(tree4, [3, 1], [1])  # 3 is outside the stump of {1}
    assert not leq_p(tree4, [3], [4])  # no containment
    assert leq_p(tree4, [], [])
    assert leq_p(tree4, [2], [])


def test_maximum_is_empty_set(tree4):
    for km in range(16):
        K = [v + 1 for v in range(4) if km >> v & 1]
        assert leq_p(tree4, K, [])


def test_interval_reference_values(tree4, path2):
    # the 10-element interval below the full edge set
    members = interval(tree4, [1, 2, 3, 4], [])
    assert len(members) == 10
    expected = [set(a) | set(b)
                for a in ([], [3], [4], [3, 4], [3, 4, 1])
                for b in ([], [2])]
    assert {frozenset(m) for m in members} == {frozenset(e) for e in expected}
    # 2-edge path: adding the upper edge first is the only route down
    assert interval(path2, [1, 2], []) == \
        [frozenset(), frozenset({2}), frozenset({1, 2})]


def test_interval_rejects_incomparable(tree4):
    with pytest.raises(ValueError):
        interval(tree4, [3, 1], [1])


def test_interval_is_lattice_sized_product(tree4):
    # [E, {3,4}] has the two branch edges cut: only {1},{2} remain free
    members = interval(tree4, [1, 2, 3, 4], [3, 4])
    assert {frozenset(m) for m in members} == \
        {frozenset({3, 4}), frozenset({1, 3, 4}),
         frozenset({2, 3, 4}), frozenset({1, 2, 3, 4})}


def test_mobius_reference_values(tree4):
    E = [1, 2, 3, 4]
    assert mobius(tree4, E, []).value == 0
    assert mobius(tree4, E, [3, 4]).value == 1
    assert mobius(tree4, E, [3, 2]).value == 0
    assert mobius(tree4, E, [3, 4, 1]).value == -1
    assert mobius(tree4, [3], []).value == -1
    assert mobius(tree4, [3, 4], []).value == 1
    assert mobius(tree4, [3, 4, 1], []).value == 0
    assert mobius(tree4, [2], []) == (-1, True)


def test_mobius_incomparable_flag(tree4):
    v = mobius(tree4, [3], [4])
    assert v.value == 0 and not v.comparable
    with pytest.raises(ValueError):
        mobius_recursive(tree4, [3], [4])


def test_mobius_diagonal(tree4):
    for km in range(16):
        K = [v + 1 for v in range(4) if km >> v & 1]
        assert mobius(tree4, K, K).value == 1
        assert mobius_recursive(tree4, K, K) == 1


@settings(max_examples=120, deadline=None)
@given(trees_pairs_st())
def test_leq_matches_bruteforce(tHK):
    tree, H, K = tHK
    assert leq_p(tree, H, K) == bf_leq_p(tree, H, K)
    assert bf_leq_p(tree, H, K)  # strategy builds comparable pairs


@settings(max_examples=60, deadline=None)
@given(trees_pairs_st(max_edges=6))
def test_interval_matches_bruteforce(tHK):
    tree, H, K = tHK
    assert {frozenset(m) for m in interval(tree, H, K)} == \
        set(bf_interval(tree, H, K))


@settings(max_examples=60, deadline=None)
@given(trees_pairs_st(max_edges=6))
def test_mobius_three_routes(tHK):
    tree, H, K = tHK
    closed = mobius(tree, H, K).value
    assert closed == mobius_recursive(tree, H, K)
    assert closed == bf_mobius(tree, H, K)
    # nonzero only on antichain differences
    if closed != 0:
        assert is_stump_cut_set(tree, frozenset(H) - frozenset(K))


@settings(max_examples=40, deadline=None)
@given(trees_pairs_st(max_edges=6))
def test_mobius_defining_identity(tHK):
    # sum over H <= I <= K of mu(I, K) is 1 if H == K else 0
    tree, H, K = tHK
    s = sum(mobius(tree, i, K).value for i in interval(tree, H, K))
    assert s == (1 if frozenset(H) == frozenset(K) else 0)


@settings(max_examples=40, deadline=None)
@given(trees_pairs_st(max_edges=6))
def test_interval_isomorphic_to_shifted(tHK):
    # [H, K] has the same size profile as [H \ K, empty] in the stump tree
    tree, H, K = tHK
    from fragchain import subtree
    stump_tree = subtree(tree, tree.root, K)
    diff = frozenset(H) - frozenset(K)
    if not diff <= set(stump_tree.vertices):
        return
    left = interval(tree, H, K)
    right = interval(stump_tree, diff, [])
    assert sorted(len(m) for m in left) == \
        sorted(len(m) + len(frozenset(K)) for m in right)
    # and the map I -> I \ K is a bijection preserving the order
    assert {frozenset(m) - frozenset(K) for m in left} == \
        {frozenset(m) for m in right}


def test_product_factorization_reference(tree4):
    E = [1, 2, 3, 4]
    factors = product_factorization(tree4, E)
    assert [set(f) for f in factors] == [{1, 3, 4}, {2}]
    assert product_factorization(tree4, []) == []
    assert [set(f) for f in product_factorization(tree4, [3, 2])] == [{2}, {3}]


@settings(max_examples=40, deadline=None)
@given(trees_pairs_st(max_edges=6))
def test_product_law(tHK):
    # |[H, empty]| equals the product of the factor interval sizes
    tree, H, _ = tHK
    total = len(interval(tree, H, []))
    prod = 1
    for f in product_factorization(tree, H):
        prod *= len(interval(tree, f, []))
    assert total == prod


def test_down_set_is_stump_subsets(tree4):
    d = down_set(tree4, [3])
    # stump of {3}: edges 1, 2, 4 remain
    assert {frozenset(m) for m in d} == \
        {frozenset({3}) | set(s)
         for s in [[], [1], [2], [4], [1, 2], [1, 4], [2, 4], [1, 2, 4]]}


def test_hasse_reference_count(tree4, path2):
    pairs = hasse_edges(tree4)
    assert len(pairs) == 24
    # every pair differs by one edge lying in the stump tree of the upper
    for h, k in pairs:
        assert len(h) == len(k) + 1
        (e,) = set(h) - set(k)
        assert e in stump_set(tree4, k)
    # 2-edge path: {1}<-0, {2}<-0, {1,2}<-{2} and nothing else
    assert len(hasse_edges(path2)) == 3


def test_hasse_respects_bound(tree4):
    with pytest.raises(ValueError):
        hasse_edges(tree4, max_edges=3)


def test_mobius_inversion_check_roundtrip(tree4, rng):
    for _ in range(10):
        km = rng.randrange(16)
        K = [v + 1 for v in range(4) if km >> v & 1]
        f = {h: Fraction(rng.randint(-30, 30), rng.randint(1, 7))
             for h in down_set(tree4, K)}
        orig, rec = mobius_inversion_check(tree4, f, K)
        assert orig == rec
        assert isinstance(rec, Fraction)


def test_empty_fragtree_rejected():
    # FragTree(n, None) has no vertices, so it has no pruning order
    empty = FragTree(4, None)
    for call in (lambda: hasse_edges(empty, 16), lambda: leq_p(empty, (), ()),
                 lambda: mobius(empty, (), ())):
        with pytest.raises(ValueError, match="^the empty tree has no vertices$"):
            call()
