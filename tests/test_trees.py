import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragchain import (RootedTree, enumerate_stump_cut_sets,
                       enumerate_tree_shapes, is_stump_cut_set, minimal_edges,
                       minimal_vertices, random_tree, stump_cut_set, stump_set,
                       subtree)
from fragchain.trees import component_mask, stump_mask

from oracles import (bf_antichains, bf_component, bf_is_antichain, bf_leq,
                     bf_minimal_edges, bf_order_ideals_with_root, bf_stump_set)


@st.composite
def trees_st(draw, max_edges=8):
    k = draw(st.integers(min_value=0, max_value=max_edges))
    parents = [draw(st.integers(0, v)) for v in range(k)]
    return RootedTree(0, [(parents[v], v + 1) for v in range(k)])


@st.composite
def trees_with_edge_sets(draw, max_edges=8):
    t = draw(trees_st(max_edges))
    mask = draw(st.integers(0, (1 << t.n_edges) - 1))
    H = frozenset(t.vertices[i + 1] for i in range(t.n_edges) if mask >> i & 1)
    return t, H


def test_construction_rejects_double_parent():
    with pytest.raises(ValueError):
        RootedTree(0, [(0, 1), (0, 2), (1, 2)])


def test_construction_rejects_disconnected():
    with pytest.raises(ValueError):
        RootedTree(0, [(5, 6)])


def test_vertex_order_and_edges(tree4):
    assert tree4.vertices[0] == 0
    assert set(tree4.edge_labels) == {1, 2, 3, 4}
    assert tree4.leq(1, 3) and tree4.leq(0, 4)
    assert not tree4.leq(3, 1) and not tree4.leq(2, 3)


def test_stump_examples(tree_ternary):
    # cutting (1,2) and (2,4) leaves the root with 3 and 7
    assert stump_set(tree_ternary, [2, 4]) == {1, 3, 7}
    assert stump_set(tree_ternary, []) == set(tree_ternary.vertices)
    assert stump_set(tree_ternary, [2, 3]) == {1}


def test_stump_cut_set_inverse(tree_ternary):
    assert stump_cut_set(tree_ternary, {1, 3, 7}) == {2}
    assert stump_cut_set(tree_ternary, set(tree_ternary.vertices)) == frozenset()
    with pytest.raises(ValueError):
        stump_cut_set(tree_ternary, {3, 7})  # missing root
    with pytest.raises(ValueError):
        stump_cut_set(tree_ternary, {1, 4})  # not downward closed


def test_stump_cut_set_message_ignores_hash_seed():
    # both c and d lack their parent; the message names the first in vertex
    # order (r, b, c, a, d), not in the string set's seed-dependent order.
    # Of two unknown vertices it names the first by repr
    script = "\n".join([
        "from fragchain import RootedTree, stump_cut_set",
        "tree = RootedTree('r', [('r', 'b'), ('r', 'a'), ('b', 'c'), ('a', 'd')])",
        "for R in ({'r', 'c', 'd'}, {'r', 'x', 'y'}):",
        "    try:",
        "        stump_cut_set(tree, R)",
        "    except ValueError as e:",
        "        print(e)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout == ("not an order ideal: parent of 'c' is missing\n"
                               "unknown vertex 'x'\n"), seed


def test_minimal_edges_examples(tree_ternary):
    assert minimal_edges(tree_ternary, [2, 4]) == {2}
    assert minimal_edges(tree_ternary, [2, 7]) == {2, 7}
    assert is_stump_cut_set(tree_ternary, [2, 7])
    assert not is_stump_cut_set(tree_ternary, [2, 4])


def test_subtree_structure(tree_ternary):
    s = subtree(tree_ternary, 2, [4])
    assert set(s.vertices) == {2, 5, 6}
    assert s.root == 2
    full = subtree(tree_ternary, 3, [])
    assert set(full.vertices) == {3, 7}


def test_subtree_composition(tree_ternary):
    # restricting twice equals restricting by the union
    inner = subtree(tree_ternary, 1, [4])
    once = subtree(inner, 1, [3])
    direct = subtree(tree_ternary, 1, [3, 4])
    assert set(once.vertices) == set(direct.vertices)
    assert once.children == direct.children


def test_subtree_unchanged_by_cuts_outside(tree_ternary):
    # cutting inside the stump does not change components hanging below it
    before = subtree(tree_ternary, 3, [2])
    after = subtree(tree_ternary, 3, [2, 4])  # 4 is outside 3's component
    assert before.children == after.children


@settings(max_examples=120, deadline=None)
@given(trees_with_edge_sets())
def test_stump_matches_bruteforce(tH):
    tree, H = tH
    assert stump_set(tree, H) == bf_stump_set(tree, H)


@settings(max_examples=120, deadline=None)
@given(trees_with_edge_sets())
def test_minimal_and_antichain_match_bruteforce(tH):
    tree, H = tH
    assert minimal_edges(tree, H) == bf_minimal_edges(tree, H)
    assert is_stump_cut_set(tree, H) == bf_is_antichain(tree, H)
    # cut set law: H and its minimal set leave the same stump
    assert stump_set(tree, minimal_edges(tree, H)) == stump_set(tree, H)


@settings(max_examples=100, deadline=None)
@given(trees_with_edge_sets())
def test_stump_is_order_ideal_and_roundtrip(tH):
    tree, H = tH
    R = stump_set(tree, H)
    for v in R:
        if v != tree.root:
            assert tree.parent[v] in R
    if is_stump_cut_set(tree, H):
        assert stump_cut_set(tree, R) == H
    else:
        assert stump_cut_set(tree, R) == minimal_edges(tree, H)


@settings(max_examples=60, deadline=None)
@given(trees_st(max_edges=7))
def test_cut_set_enumeration(tree):
    cuts = enumerate_stump_cut_sets(tree)
    assert sorted(cuts, key=lambda s: (len(s), sorted(map(str, s)))) == \
        sorted(set(cuts), key=lambda s: (len(s), sorted(map(str, s))))
    assert set(cuts) == set(bf_antichains(tree))
    # bijection with root-containing order ideals via the stump map
    ideals = {stump_set(tree, c) for c in cuts}
    assert ideals == set(bf_order_ideals_with_root(tree))
    assert len(ideals) == len(cuts)


@settings(max_examples=80, deadline=None)
@given(trees_with_edge_sets(max_edges=7), st.integers(0, 10**6))
def test_component_masks(tH, pick):
    tree, H = tH
    alpha = tree.vertices[pick % tree.n_vertices]
    got = tree.vertex_set(component_mask(tree, alpha, tree.edge_mask(H)))
    assert got == bf_component(tree, alpha, H)


def test_minimal_vertices(tree_ternary):
    assert minimal_vertices(tree_ternary, [4, 8, 7]) == {4, 7}
    assert minimal_vertices(tree_ternary, [1, 5]) == {1}
    assert minimal_vertices(tree_ternary, []) == frozenset()


def test_shape_catalog_counts():
    shapes = enumerate_tree_shapes(6)
    assert len(shapes) == 85  # rooted trees with <= 7 vertices
    by_edges = {}
    for t in shapes:
        by_edges[t.n_edges] = by_edges.get(t.n_edges, 0) + 1
    assert [by_edges[k] for k in range(7)] == [1, 1, 2, 4, 9, 20, 48]


def test_random_tree_reproducible():
    import random
    t1 = random_tree(6, random.Random(3))
    t2 = random_tree(6, random.Random(3))
    assert t1.children == t2.children


@settings(max_examples=60, deadline=None)
@given(trees_with_edge_sets())
def test_leq_matches_parent_walk(tH):
    tree, _ = tH
    for a in tree.vertices:
        for b in tree.vertices:
            assert tree.leq(a, b) == bf_leq(tree, a, b)


@settings(max_examples=100, deadline=None)
@given(trees_with_edge_sets())
def test_stump_mask_two_routes(tH):
    # descendant-union complement vs explicit reachability
    tree, H = tH
    hmask = tree.edge_mask(H)
    assert stump_mask(tree, hmask) == component_mask(tree, tree.root, hmask)
