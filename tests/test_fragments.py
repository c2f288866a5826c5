import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragchain import (BudgetError, FragTree, Fragment, RootedTree, catalan,
                       chain_fragments, enumerate_fragmentation_trees,
                       fragment_family, fragments_of, minimal_vertices)
from fragchain.poset import down_set, hasse_edges
from fragchain.serialize import fragtree_from_dict, fragtree_to_dict
from fragchain.trees import enumerate_stump_cut_sets, enumerate_tree_shapes, stump_set

from oracles import (bf_fragmentation_tree_keys, bf_fragments, bf_intervals,
                     bf_postorder)


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


def test_empty_fragtree_answers_or_refuses():
    # the empty tree is the rooted tree with no vertices
    t = FragTree(4, None)
    assert t.vertices == () and t.n_vertices == t.n_edges == 0
    assert t.edge_labels == () and t.all_mask == 0
    assert t.component_masks(0) == {} and t._anc == t._desc == {}
    assert stump_set(t, ()) == frozenset()
    for call in (lambda: down_set(t, ()), lambda: hasse_edges(t),
                 lambda: enumerate_stump_cut_sets(t)):
        with pytest.raises(ValueError, match="^the empty tree has no vertices$"):
            call()
    with pytest.raises(ValueError):
        RootedTree(None, [(1, 2)])


def test_enumeration_order_matches_recursive_oracle():
    # the documented order, key by key, for every state of every chain up to 7
    for n in range(1, 8):
        for mask in range(1 << n):
            G = [a for a in range(1, n + 1) if mask >> (a - 1) & 1]
            got = [t.structure_key() for t in enumerate_fragmentation_trees(G, n)]
            assert got == list(bf_fragmentation_tree_keys(G, n)), (G, n)


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


@pytest.mark.parametrize("call", [
    lambda: FragTree(3, 1.5),
    lambda: FragTree(3, True),
    lambda: FragTree(3, 2, {2: True}),
    lambda: enumerate_fragmentation_trees([1.5], 3),
    lambda: enumerate_fragmentation_trees([True], 3),
    lambda: fragments_of([True], 3),
    lambda: fragments_of([2.5], 3),
], ids=["root 1.5", "root True", "child True", "enumerate 1.5", "enumerate True",
        "fragments_of True", "fragments_of 2.5"])
def test_links_that_are_not_ints_are_rejected(call):
    # a bool or a float would stand for a link it equals, or for none
    with pytest.raises(ValueError, match="links must lie in 1..n"):
        call()


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


def _path(links, n):
    """The fragmentation tree whose vertices form one path, root first."""
    left, right = {}, {}
    for a, b in zip(links, links[1:]):
        (left if b < a else right)[a] = b
    return FragTree(n, links[0], left, right)


@pytest.mark.parametrize("shape", ["left", "right", "zigzag"])
def test_deep_fragtrees_build(shape):
    # a path deeper than the interpreter's recursion limit
    n = 3000
    links = {"left": list(range(n, 0, -1)), "right": list(range(1, n + 1)),
             "zigzag": [a for k in range(1, n // 2 + 1) for a in (k, n + 1 - k)]}[shape]
    t = _path(links, n)
    assert t.postorder == tuple(reversed(links))
    assert t.vertices == tuple(links)
    assert len(t.externals()) == n + 1
    assert [(f.lo, f.hi) for f in t.externals()] == [(a, a - 1) for a in range(1, n + 2)]
    d = fragtree_to_dict(t)
    assert d["edges"] == [[a, b] for a, b in zip(links, links[1:])]
    back = fragtree_from_dict(d)
    assert back == t and back.postorder == t.postorder


@pytest.mark.parametrize("call", [
    lambda: FragTree(2.5, 1),
    lambda: FragTree(True, None),
    lambda: FragTree(0, None),
    lambda: fragments_of([1], 2.5),
    lambda: enumerate_fragmentation_trees([1], 2.5),
], ids=["FragTree 2.5", "FragTree True", "FragTree 0", "fragments_of 2.5",
        "enumerate 2.5"])
def test_chain_n_is_an_int_of_at_least_1(call):
    with pytest.raises(ValueError, match="int n of at least 1"):
        call()


def test_catalan_values():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796


def test_one_walk_gives_postorder_and_intervals():
    # every tree of every state with n <= 7, and every rooted shape up to 6 edges
    for n in range(1, 8):
        for mask in range(1 << n):
            G = [a + 1 for a in range(n) if mask >> a & 1]
            for t in enumerate_fragmentation_trees(G, n):
                assert t.postorder == bf_postorder(
                    t.root, lambda a: [c for c in (t.left[a], t.right[a]) if c is not None])
                assert {a: (t.lo[a], t.hi[a]) for a in t.G} == bf_intervals(t)
                assert t.lo.keys() == t.hi.keys() == set(t.G)
    for t in enumerate_tree_shapes(6):
        assert t.postorder == bf_postorder(t.root, lambda v: t.children[v])


@pytest.mark.parametrize("left, right, message", [
    ({4: 1}, {2: 4}, "vertex 1 outside its interval (3,3)"),
    ({2: 4}, {}, "left child 4 not below 2"),
    ({}, {2: 1}, "right child 1 not above 2"),
    ({2: 1, 4: 3}, {}, "edges do not form a tree rooted at 2"),
    ({2: 1}, {1: 2}, "vertex 2 has two parent edges"),
], ids=["outside its interval", "left child above", "right child below",
        "unreachable vertex", "cycle through the root"])
def test_fragtree_refuses_bad_child_maps(left, right, message):
    with pytest.raises(ValueError) as info:
        FragTree(5, 2, left, right)
    assert str(info.value) == message
