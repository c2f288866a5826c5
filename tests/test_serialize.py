import io
import json
from fractions import Fraction

import pytest

from fragchain import (DistTable, FragTree, RateSpec, RootedTree,
                       dist_discrete_all)
from fragchain.serialize import (dist_from_csv, dist_to_csv, dist_to_json_dict,
                                 edge_set_label, fragtree_from_dict,
                                 fragtree_to_dict, hasse_to_dot,
                                 rates_from_dict, rates_to_dict,
                                 rootedtree_from_dict, rootedtree_to_dict,
                                 simulation_report, tree_to_dot, fragtree_to_dot)


def test_fragtree_roundtrip(ref_frag_tree):
    d = fragtree_to_dict(ref_frag_tree)
    assert d["links"] == [1, 6] and d["root"] == 3
    assert sorted(map(tuple, d["edges"])) == [(3, 1), (3, 4)]
    back = fragtree_from_dict(json.loads(json.dumps(d)))
    assert back == ref_frag_tree


def test_fragtree_roundtrip_deep():
    tree = FragTree(9, 4, {4: 2, 2: 1, 6: 5, 8: 7}, {4: 6, 2: 3, 6: 8})
    assert fragtree_from_dict(fragtree_to_dict(tree)) == tree


def test_empty_fragtree_roundtrip():
    tree = FragTree(3, None)
    d = fragtree_to_dict(tree)
    assert d["root"] is None and d["edges"] == []
    assert fragtree_from_dict(d) == tree


def test_fragtree_dict_validation():
    with pytest.raises(ValueError):
        fragtree_from_dict({"links": [2, 5], "root": 3, "edges": []})
    with pytest.raises(ValueError):
        fragtree_from_dict({"links": [1, 5], "root": 4,
                            "edges": [[4, 2], [4, 3]]})  # two left children
    with pytest.raises(ValueError, match='tree without a "links" field'):
        fragtree_from_dict({"root": 3, "edges": []})


def test_rootedtree_roundtrip(tree_ternary):
    d = rootedtree_to_dict(tree_ternary)
    back = rootedtree_from_dict(d)
    assert back.root == tree_ternary.root
    assert back.parent == tree_ternary.parent


def test_rates_roundtrip_float(rates5):
    d = rates_to_dict(rates5)
    r = rates_from_dict(d)
    assert r.mode == "discrete" and not r.exact
    assert all(r.rho(a) == rates5.rho(a) for a in range(1, 6))


def test_rates_roundtrip_exact(rates5_exact):
    d = rates_to_dict(rates5_exact)
    assert d["rho"]["1"] == "1/10"
    r = rates_from_dict(d, exact=True)
    assert r.exact
    assert all(r.rho(a) == rates5_exact.rho(a) for a in range(1, 6))


def test_rates_from_file_exact(tmp_path):
    p = tmp_path / "rates.json"
    p.write_text(json.dumps({"mode": "discrete", "n": 2,
                             "rho": {"1": 0.1, "2": 0.3}}))
    r = rates_from_dict(str(p), exact=True)
    assert r.rho(1) == Fraction(1, 10) and r.rho(2) == Fraction(3, 10)
    rf = rates_from_dict(str(p))
    assert not rf.exact and rf.rho(2) == 0.3


def test_rates_declared_n_check():
    with pytest.raises(ValueError):
        rates_from_dict({"mode": "discrete", "n": 3, "rho": {1: 0.1, 2: 0.1}})


def test_csv_roundtrip(rates5):
    table = dist_discrete_all(rates5, 3)
    buf = io.StringIO()
    dist_to_csv(table, buf)
    text = buf.getvalue()
    assert text.startswith("subset,probability\n")
    assert "\n," in text  # the empty-subset row
    back = dist_from_csv(io.StringIO(text))
    assert set(back.entries) == set(table.entries)
    for G, p in table.items():
        assert back[G] == p  # 17 significant digits reproduce the float


def test_csv_exact_values():
    table = DistTable("discrete", 2, {(): Fraction(3, 7), (1,): Fraction(4, 7)})
    buf = io.StringIO()
    dist_to_csv(table, buf)
    assert "3/7" in buf.getvalue()
    back = dist_from_csv(io.StringIO(buf.getvalue()))
    assert back[()] == Fraction(3, 7) and back[(1,)] == Fraction(4, 7)


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        dist_from_csv(io.StringIO("nope\n1,0.5\n"))


def test_json_table_shape(rates5):
    table = dist_discrete_all(rates5, 1)
    d = dist_to_json_dict(table)
    assert d["mode"] == "discrete" and d["time"] == 1
    assert d["entries"][0]["subset"] == []
    json.dumps(d)  # serializable as-is


def test_simulation_report_z():
    rep = simulation_report("tree", 3, 1000, 0.52, 0.01, 0.5, 1729)
    assert rep["z"] == pytest.approx(2.0)
    rep = simulation_report("state", 3, 1000, 0.52, 0.01, None, 1729)
    assert rep["z"] is None and rep["exact"] is None


def test_edge_set_label():
    assert edge_set_label(set()) == "{}"
    assert edge_set_label({4, 2}) == "2,4"


def test_tree_dot_markers(tree4):
    dot = tree_to_dot(tree4, cut={1})
    assert dot.startswith("digraph")
    assert "dashed" in dot
    assert dot.count("->") == 4


def test_fragtree_dot(ref_frag_tree):
    dot = fragtree_to_dot(ref_frag_tree, cut={3})
    assert "digraph" in dot and "box" in dot


def test_fragtree_dot_pinned(ref_frag_tree):
    # the root edge, the external boxes left to right, then each vertex's
    # sides bottom-up; a cut edge is dashed
    assert fragtree_to_dot(ref_frag_tree, cut={4}) == """digraph F {
  node [shape=circle];
  "root" [shape=point];
  "root" -> "3" [label="{1..6}"];
  "x0" [shape=box, label="{}"];
  "x1" [shape=box, label="{2}"];
  "x2" [shape=box, label="{}"];
  "x3" [shape=box, label="{5,6}"];
  "1" -> "x0" [style=dotted];
  "1" -> "x1" [style=dotted];
  "4" -> "x2" [style=dotted];
  "4" -> "x3" [style=dotted];
  "3" -> "1" [label="{1..2}"];
  "3" -> "4" [label="{4..6}", style=dashed];
}
"""


def test_hasse_dot(path2):
    dot = hasse_to_dot(path2, highlight_from={2, 1})
    assert "digraph" in dot
    assert "bold" in dot
    assert dot.count("->") == 3
