import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragchain import (BudgetError, FragTree, Fragment, RootedTree, catalan,
                       chain_fragments, enumerate_fragmentation_trees,
                       fragment_family, fragments_of, minimal_vertices)

from oracles import bf_fragments


@st.composite
def subsets_st(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << n) - 1))
    return [a + 1 for a in range(n) if mask >> a & 1], n


def test_fragment_basics():
    f = Fragment(4, 6)
    assert len(f) == 3 and list(f) == [4, 5, 6] and 5 in f and 7 not in f
    e = Fragment(4, 3)
    assert e.empty and len(e) == 0 and list(e) == []
    with pytest.raises(ValueError):
        Fragment(4, 2)


def test_empty_fragments_at_positions_differ():
    assert Fragment(4, 3) != Fragment(6, 5)
    assert Fragment(4, 3) == Fragment(4, 3, vertex=9, side="L")  # tags free


def test_fragments_of_examples():
    assert [(f.lo, f.hi) for f in fragments_of([], 5)] == [(1, 5)]
    assert [(f.lo, f.hi) for f in fragments_of([1, 3, 4], 6)] == \
        [(1, 0), (2, 2), (4, 3), (5, 6)]
    full = fragments_of([1, 2, 3], 3)
    assert len(full) == 4 and all(f.empty for f in full)


def test_fragments_of_validation():
    with pytest.raises(ValueError):
        fragments_of([0], 3)
    with pytest.raises(ValueError):
        fragments_of([4], 3)
    with pytest.raises(ValueError):
        fragments_of([2, 2], 3)


@settings(max_examples=150, deadline=None)
@given(subsets_st())
def test_fragments_match_bruteforce(Gn):
    G, n = Gn
    got = fragments_of(G, n)
    assert [list(f) for f in got] == bf_fragments(G, n)
    assert len(got) == len(G) + 1
    # the nonempty fragments partition the surviving links
    survivors = [a for f in got for a in f]
    assert survivors == [a for a in range(1, n + 1) if a not in set(G)]


def test_fragtree_reference_shape(ref_frag_tree):
    t = ref_frag_tree
    assert t.G == (1, 3, 4) and t.root == 3
    I3, l3, r3 = t.interval(3)
    assert (I3.lo, I3.hi) == (1, 6)
    assert (l3.lo, l3.hi) == (1, 2) and (r3.lo, r3.hi) == (4, 6)
    I1 = t.interval(1)[0]
    I4 = t.interval(4)[0]
    assert (I1.lo, I1.hi) == (1, 2) and (I4.lo, I4.hi) == (4, 6)
    assert [(f.lo, f.hi) for f in t.externals()] == \
        [(1, 0), (2, 2), (4, 3), (5, 6)]


def test_fragtree_externals_are_fragments_of_G(ref_aux_tree):
    t = ref_aux_tree
    assert [(f.lo, f.hi) for f in t.externals()] == \
        [(f.lo, f.hi) for f in fragments_of(t.G, t.n)]


def test_fragtree_validation():
    with pytest.raises(ValueError):
        FragTree(5, 3, {3: 4}, {})  # left child above the vertex
    with pytest.raises(ValueError):
        FragTree(5, 3, {}, {3: 2})  # right child below
    with pytest.raises(ValueError):
        FragTree(5, 6, {}, {})  # root outside the chain
    with pytest.raises(ValueError):
        FragTree(5, None, {1: 2}, {})  # children without a root


def test_fragtree_empty():
    t = FragTree(4, None)
    assert t.G == () and t.root is None
    assert [(f.lo, f.hi) for f in t.externals()] == [(1, 4)]
    assert minimal_vertices(t, t.G) == frozenset()


def test_enumeration_counts_catalan():
    for k, n in [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7)]:
        G = list(range(1, k + 1))
        ts = enumerate_fragmentation_trees(G, n)
        assert len(ts) == catalan(k)
        assert len({t.structure_key() for t in ts}) == len(ts)


def test_enumeration_order_roots_ascending():
    ts = enumerate_fragmentation_trees([1, 3, 4], 6)
    assert [t.root for t in ts] == [1, 1, 3, 4, 4]
    # the reference shape appears: root 3, left 1, right 4
    assert any(t.left.get(3) == 1 and t.right.get(3) == 4 for t in ts)


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_fragmentation_trees(list(range(1, 12)), 12)
    # |G| = 10 stays inside the default budget
    assert catalan(10) * 2**9 <= 10**7


def test_enumeration_rejects_bad_links():
    with pytest.raises(ValueError):
        enumerate_fragmentation_trees([7], 6)


@settings(max_examples=60, deadline=None)
@given(subsets_st(max_n=7))
def test_enumeration_properties(Gn):
    G, n = Gn
    ts = enumerate_fragmentation_trees(G, n)
    assert len(ts) == catalan(len(G))
    for t in ts[: min(len(ts), 10)]:
        assert set(t.G) == set(G)
        # search-tree property
        for a in t.G:
            lc, rc = t.left[a], t.right[a]
            assert lc is None or lc < a
            assert rc is None or rc > a
        # nonempty externals partition the survivors
        acc = [x for f in t.externals() for x in f]
        assert acc == [a for a in range(1, n + 1) if a not in set(G)]
        # interval nesting: child interval is the side interval
        for a in t.G:
            I, l, r = t.interval(a)
            if t.left[a] is not None:
                c = t.left[a]
                assert (t.lo[c], t.hi[c]) == (l.lo, l.hi)
            if t.right[a] is not None:
                c = t.right[a]
                assert (t.lo[c], t.hi[c]) == (r.lo, r.hi)


def test_fragment_family_reference(ref_frag_tree):
    fam = fragment_family(ref_frag_tree, 3, [4])
    assert [(f.lo, f.hi) for f in fam] == [(1, 0), (2, 2), (4, 6)]
    fam0 = fragment_family(ref_frag_tree, 3, [])
    assert [(f.lo, f.hi) for f in fam0] == [(1, 0), (2, 2), (4, 3), (5, 6)]
    fam4 = fragment_family(ref_frag_tree, 4, [])
    assert [(f.lo, f.hi) for f in fam4] == [(4, 3), (5, 6)]


def test_fragment_family_rejects_nonedges(ref_frag_tree):
    with pytest.raises(ValueError):
        fragment_family(ref_frag_tree, 3, [3])  # the root names no edge
    with pytest.raises(ValueError):
        fragment_family(ref_frag_tree, 3, [9])


def test_subtree_links(ref_frag_tree):
    assert ref_frag_tree.subtree_links(3) == (1, 3, 4)
    assert ref_frag_tree.subtree_links(1) == (1,)
    assert ref_frag_tree.subtree_links(4) == (4,)


def test_minimal_remaining(ref_frag_tree):
    # minimal vertices of G minus the removed links, in the tree order
    t = ref_frag_tree
    assert minimal_vertices(t, set(t.G)) == {3}
    assert minimal_vertices(t, set(t.G) - {3}) == {1, 4}
    assert minimal_vertices(t, set(t.G) - {3, 1}) == {4}
    assert minimal_vertices(t, set(t.G) - {3, 1, 4}) == frozenset()


def test_as_rooted_tree(ref_frag_tree):
    rt = ref_frag_tree
    assert isinstance(rt, RootedTree)
    assert rt.root == 3
    assert set(rt.vertices) == {1, 3, 4}
    assert rt.children[3] == (1, 4)


def test_catalan_values():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796
