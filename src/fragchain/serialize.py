"""File formats: tree JSON, rates JSON, distribution CSV, DOT exports.

Tree JSON:    {"links": [1, n], "root": g, "edges": [[parent, child], ...]}
              with children listed left-to-right.
Rates JSON:   {"mode": "discrete"|"continuous", "n": 5, "rho": {"1": 0.1, ...}}
Dist CSV:     header "subset,probability"; subsets are ";"-joined links with
              the empty set as the empty string; floats use 17 significant
              digits, exact values serialize as "p/q".
Reports:      plain JSON dicts, see simulation_report.

All text I/O is UTF-8 with LF line endings.
"""

import json
import os
from collections import Counter
from fractions import Fraction

from .errors import _is_int, _links


def _object(pairs):
    """A JSON object as a dict; a name given twice is malformed input, where
    json.load would keep the last value."""
    for key, count in Counter(k for k, _ in pairs).items():
        if count > 1:
            raise ValueError(f'a JSON object names "{key}" twice')
    return dict(pairs)


def _load_json(source, kind, fields, parse_float=float):
    """The JSON object of a file name, an open file or a dict, which must
    have the given fields; any other JSON value is malformed input."""
    if hasattr(source, "read"):
        source = json.load(source, parse_float=parse_float, object_pairs_hook=_object)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            source = json.load(fh, parse_float=parse_float, object_pairs_hook=_object)
    if not isinstance(source, dict):
        raise ValueError(f"expected a JSON object, got {type(source).__name__}")
    for key in fields:
        if key not in source:
            raise ValueError(f'{kind} without a "{key}" field')
    return source


def _pair(v, what):
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"{what} must be a pair, got {v!r}")
    return v


def _edges(d):
    """The [parent, child] pairs of a tree file."""
    edges = d.get("edges", [])
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f'"edges" must be a list, got {edges!r}')
    return [_pair(e, "an edge") for e in edges]


# -- trees -------------------------------------------------------------------


def fragtree_to_dict(tree):
    return {"links": [1, tree.n], **rootedtree_to_dict(tree)}


def fragtree_from_dict(source):
    from .fragments import FragTree

    d = _load_json(source, "tree", ("links", "root"))
    lo, n = _pair(d["links"], '"links"')
    if not (_is_int(lo) and _is_int(n) and lo == 1):
        raise ValueError(f'"links" must be [1, n] with n an integer, got {d["links"]!r}')
    root = None if d["root"] is None else _links([d["root"]], n)[0]
    left, right = {}, {}
    for e in _edges(d):
        p, c = _links(e, n)
        side = left if c < p else right
        if p in side:
            raise ValueError(f"vertex {p} has two children on one side")
        side[p] = c
    return FragTree(n, root, left, right)


def rootedtree_to_dict(tree):
    # the vertex order is depth-first, so the edges come parent first
    return {"root": tree.root,
            "edges": [[tree.parent[v], v] for v in tree.vertices[1:]]}


def rootedtree_from_dict(source):
    from .trees import RootedTree

    d = _load_json(source, "tree", ("root",))
    edges = [tuple(e) for e in _edges(d)]
    bad = [v for e in [(d["root"],)] + edges for v in e
           if not (_is_int(v) or isinstance(v, str))]
    if bad:
        raise ValueError(f"vertex labels must be integers or strings, got {bad[0]!r}")
    return RootedTree(d["root"], edges)


# -- rates -------------------------------------------------------------------


def _parse_number(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def _to_exact(v):
    if isinstance(v, float):
        return Fraction(str(v))  # decimal reading of the printed value
    return Fraction(v)


def rates_from_dict(source, exact=False):
    """Load a RateSpec. With exact=True, JSON numbers are read as decimal
    Fractions (and "p/q" strings are accepted), turning on exact mode."""
    from .probabilities import RateSpec

    d = _load_json(source, "rates", ("rho", "mode"), Fraction if exact else float)
    rho = d["rho"]
    if not (isinstance(rho, dict) and all(
            _is_int(v) or isinstance(v, (float, Fraction, str)) for v in rho.values())):
        raise ValueError('"rho" must map each link to a number')
    conv = _to_exact if exact else _parse_number
    for k in rho:  # int() would also read " 1", "+1", "1_0" and other digits
        if not (_is_int(k) and k >= 0 or isinstance(k, str) and k.isascii() and k.isdigit()):
            raise ValueError(f'"rho" key {k!r} is not a link number')
    for a, count in Counter(map(int, rho)).items():
        if count > 1:
            raise ValueError(f'"rho" names link {a} twice')
    spec = RateSpec(d["mode"], {int(k): conv(v) for k, v in rho.items()})
    if "n" in d and (not _is_int(d["n"]) or d["n"] != spec.n):
        raise ValueError(f'declared n {d["n"]!r} is not the {spec.n} links of "rho"')
    return spec


def rates_to_dict(rates):
    d = rates.to_dict()
    d["rho"] = {k: (str(v) if isinstance(v, Fraction) else v)
                for k, v in d["rho"].items()}
    return d


# -- distribution tables -----------------------------------------------------


def _fmt_prob(p):
    if isinstance(p, Fraction):
        return str(p)
    return format(float(p), ".17g")


def dist_to_csv(table, fh):
    fh.write("subset,probability\n")
    for G, p in table.items():
        fh.write(";".join(str(a) for a in G) + "," + _fmt_prob(p) + "\n")


def dist_from_csv(fh):
    from .probabilities import DistTable

    header = fh.readline().strip()
    if header != "subset,probability":
        raise ValueError("not a distribution table")
    entries = {}
    for line in fh:
        line = line.strip()
        if not line:
            continue
        subset, prob = line.split(",")
        G = tuple(int(a) for a in subset.split(";") if a)
        entries[G] = Fraction(prob) if "/" in prob else float(prob)
    return DistTable("unknown", None, entries)


def dist_to_json_dict(table):
    return {"mode": table.mode, "time": table.time,
            "entries": [{"subset": list(G), "probability": _fmt_prob(p)}
                        for G, p in table.items()]}


# -- simulation reports ------------------------------------------------------


def simulation_report(target, t, samples, estimate, stderr, exact, seed):
    z = None
    if exact is not None and stderr > 0:
        z = (estimate - float(exact)) / stderr
    return {"target": target, "t": t, "samples": samples,
            "estimate": estimate, "stderr": stderr,
            "exact": None if exact is None else float(exact),
            "z": z, "seed": seed}


# -- DOT ---------------------------------------------------------------------


def edge_set_label(H):
    return ",".join(str(e) for e in sorted(H)) if H else "{}"


def tree_to_dot(tree, cut=(), name="T"):
    """DOT of a rooted tree; the edges in `cut` are dashed, showing the
    forest left by the cut."""
    cutset = set(cut)
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
    for v in tree.vertices:
        shape = ' [penwidth=2]' if v == tree.root else ""
        lines.append(f'  "{v}"{shape};')
    for v in tree.vertices:
        for c in tree.children[v]:
            style = " [style=dashed]" if c in cutset else ""
            lines.append(f'  "{v}" -> "{c}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def fragtree_to_dot(tree, cut=(), name="F"):
    """DOT of a fragmentation tree with its external fragments as leaf boxes."""
    cutset = set(cut)
    lines = [f"digraph {name} {{", "  node [shape=circle];", '  "root" [shape=point];',
             f'  "root" -> "{tree.root}" [label="{{1..{tree.n}}}"];' if tree.G
             else '  "root" -> "x0";']
    exts = {}
    for i, frag in enumerate(tree.externals()):
        exts[frag.vertex, frag.side] = i
        lines.append(f'  "x{i}" [shape=box, label="{frag.label()}"];')
    for a in tree.postorder:
        for side, c in (("L", tree.left[a]), ("R", tree.right[a])):
            if c is None:
                lines.append(f'  "{a}" -> "x{exts[a, side]}" [style=dotted];')
            else:
                style = ", style=dashed" if c in cutset else ""
                lo, hi = tree.lo[c], tree.hi[c]
                lines.append(
                    f'  "{a}" -> "{c}" [label="{{{lo}..{hi}}}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_to_dot(tree, highlight_from=None, max_edges=16, name="P"):
    """DOT of the full pruning-order Hasse diagram, edges pointing from the
    further-pruned element up to its cover. With highlight_from=H, the
    interval [H, empty] is drawn bold."""
    from . import poset

    pairs = poset.hasse_edges(tree, max_edges)
    bold = set()
    if highlight_from is not None:
        bold = {frozenset(s) for s in poset.interval(tree, highlight_from, ())}
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    nodes = {frozenset(h) for pair in pairs for h in pair} | {frozenset()}
    for h in sorted(nodes, key=lambda s: (len(s), sorted(s))):
        style = ', style=bold, penwidth=2' if h in bold else ""
        lines.append(f'  "{edge_set_label(h)}" [label="{edge_set_label(h)}"{style}];')
    for h, k in pairs:
        style = " [penwidth=2]" if frozenset(h) in bold and frozenset(k) in bold else ""
        lines.append(f'  "{edge_set_label(h)}" -> "{edge_set_label(k)}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
