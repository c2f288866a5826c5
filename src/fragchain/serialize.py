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
from fractions import Fraction


def _load_json(source, parse_float=float):
    """The JSON object of a file name, an open file or a dict; any other
    JSON value is malformed input."""
    if hasattr(source, "read"):
        source = json.load(source, parse_float=parse_float)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            source = json.load(fh, parse_float=parse_float)
    if not isinstance(source, dict):
        raise ValueError(f"expected a JSON object, got {type(source).__name__}")
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


def _link(v):
    """A link label of a fragmentation tree file."""
    if not isinstance(v, int):
        raise ValueError(f"links must be integers, got {v!r}")
    return v


# -- trees -------------------------------------------------------------------


def fragtree_to_dict(tree):
    rooted = (rootedtree_to_dict(tree) if tree.root is not None
              else {"root": None, "edges": []})
    return {"links": [1, tree.n], **rooted}


def fragtree_from_dict(source):
    from .fragments import FragTree

    d = _load_json(source)
    lo, n = map(_link, _pair(d["links"], '"links"'))
    if lo != 1:
        raise ValueError("links must start at 1")
    root = None if d["root"] is None else _link(d["root"])
    left, right = {}, {}
    for e in _edges(d):
        p, c = map(_link, e)
        side = left if c < p else right
        if p in side:
            raise ValueError(f"vertex {p} has two children on one side")
        side[p] = c
    return FragTree(n, root, left, right)


def rootedtree_to_dict(tree):
    edges = []

    def visit(v):
        for c in tree.children[v]:
            edges.append([v, c])
            visit(c)

    visit(tree.root)
    return {"root": tree.root, "edges": edges}


def rootedtree_from_dict(source):
    from .trees import RootedTree

    d = _load_json(source)
    edges = [tuple(e) for e in _edges(d)]
    bad = [v for e in [(d["root"],)] + edges for v in e if not isinstance(v, (int, str))]
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

    d = _load_json(source, parse_float=Fraction if exact else float)
    rho = d["rho"]
    if not (isinstance(rho, dict) and all(
            isinstance(v, (int, float, Fraction, str)) for v in rho.values())):
        raise ValueError('"rho" must map each link to a number')
    conv = _to_exact if exact else _parse_number
    spec = RateSpec(d["mode"], {int(k): conv(v) for k, v in rho.items()})
    if "n" in d and (type(d["n"]) is not int or d["n"] != spec.n):
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
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
    lines.append('  "root" [shape=point];')
    if tree.root is None:
        frag = tree.externals()[0]
        lines.append(f'  "x0" [shape=box, label="{frag.label()}"];')
        lines.append('  "root" -> "x0";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines.append(f'  "root" -> "{tree.root}" [label="{{1..{tree.n}}}"];')
    for i, frag in enumerate(tree.externals()):
        lines.append(f'  "x{i}" [shape=box, label="{frag.label()}"];')
    exts = {("ext", f.vertex, f.side): i for i, f in enumerate(tree.externals())}
    for a in tree.postorder:
        for side, c in (("L", tree.left[a]), ("R", tree.right[a])):
            if c is None:
                i = exts[("ext", a, side)]
                lines.append(f'  "{a}" -> "x{i}" [style=dotted];')
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
