"""Command line interface.

Subcommands: dist, treeprob, trees, poset, mobius, simulate, verify.
Exit codes: 0 success, 1 verification or internal-consistency failure,
2 usage/config error, 3 budget exceeded (tree enumeration or --method direct).

Edge sets on the command line are comma-separated upper-end labels, the
empty set being the empty string; a label that is not a vertex of the tree
is a usage error. poset and mobius read either kind of tree file: a
fragmentation tree is the rooted tree of its edges, left child first, and
must not be empty. All output is UTF-8 with LF endings. Randomized commands
default to the documented seed constant 1729; pass --seed for anything
else. Trajectory i of a run always uses substream (seed, i), so a seed
fixes the estimate.
"""

import argparse
import io
import json
import sys

# every other module is imported inside the commands that use it, so a
# process loads only what its command runs; verify's suite is in checks
from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError


def _parse_links(text):
    """A --subset: comma-separated link numbers, ASCII digits only as in a
    rates file's "rho" keys; int() would also read " +2" as 2."""
    tokens = text.strip().split(",") if text.strip() else []
    if not all(x.isascii() and x.isdigit() for x in tokens):
        raise ValueError(f"--subset needs comma-separated link numbers, got {text!r}")
    links = [int(x) for x in tokens]
    if len(set(links)) != len(links):
        raise ValueError(f"duplicate link in subset {text!r}")
    return links


def _parse_labels(text, tree):
    """Vertex labels of a tree: a token names the one vertex whose str() it
    is, if exactly one has it, and is otherwise read as an int when it has
    only digits, so "01" names the int vertex 1."""
    names = [str(v) for v in tree.vertices]
    out = []
    for x in text.split(","):
        x = x.strip()
        if not x:
            continue
        if names.count(x) == 1:
            out.append(tree.vertices[names.index(x)])
        else:
            out.append(int(x) if x.lstrip("-").isdigit() else x)
    return out


def _load_tree_any(path):
    """A tree file is either a fragmentation tree (has "links") or a bare
    rooted tree {"root": ..., "edges": ...}."""
    from . import serialize

    d = serialize._load_json(path, "tree", ("root",))
    if "links" in d:
        return serialize.fragtree_from_dict(d)
    return serialize.rootedtree_from_dict(d)


def _parse_time(text, mode):
    if mode == "discrete":
        f = float(text)
        if not f.is_integer():
            raise ValueError("discrete time must be an integer")
        return int(f)
    return float(text)


def _write_out(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# -- dist ---------------------------------------------------------------------


def cmd_dist(args):
    from . import probabilities as pr, serialize

    if args.oracle + args.endpoints + (args.method != "auto") > 1:
        raise ValueError("--oracle, --endpoints and --method name different "
                         "routes; give at most one")
    if args.endpoints and args.subset is None:
        raise ValueError("--endpoints needs --subset")
    rates = serialize.rates_from_dict(args.rates, exact=args.exact)
    if rates.mode == "continuous" and (args.exact or args.method != "auto"):
        raise ValueError("--exact and --method need discrete rates")
    t = _parse_time(args.time, rates.mode)
    G = None if args.subset is None else _parse_links(args.subset)
    if args.oracle:
        table = (pr.transition_matrix_dist(rates, t) if rates.mode == "discrete"
                 else pr.generator_matrix_dist(rates, t))
        if G is not None:
            table = pr.DistTable(rates.mode, t, {tuple(sorted(G)): table[G]})
    elif G is None:
        table = (pr.dist_discrete_all(rates, t, args.budget, args.method)
                 if rates.mode == "discrete" else pr.dist_continuous_all(rates, t))
    else:
        if args.endpoints:
            p = pr.dist_discrete_endpoints(G, rates, t)
        elif rates.mode == "discrete":
            p = pr.dist_discrete(G, rates, t, args.budget, args.method)
        else:
            p = pr.dist_continuous(G, rates, t)
        table = pr.DistTable(rates.mode, t, {tuple(sorted(G)): p})
    if args.format == "json":
        text = json.dumps(serialize.dist_to_json_dict(table), indent=2) + "\n"
    else:
        buf = io.StringIO()
        serialize.dist_to_csv(table, buf)
        text = buf.getvalue()
    _write_out(args.out, text)
    return 0


# -- treeprob -------------------------------------------------------------------


def cmd_treeprob(args):
    from . import probabilities as pr, serialize
    from .fragments import FragTree

    rates = serialize.rates_from_dict(args.rates, exact=args.exact)
    if rates.mode == "continuous" and (args.exact or args.method != "auto"):
        raise ValueError("--exact and --method need discrete rates")
    tree = _load_tree_any(args.tree)
    if not isinstance(tree, FragTree):
        raise ValueError('treeprob needs a fragmentation tree file, with "links"')
    t = _parse_time(args.time, rates.mode)
    if rates.mode == "discrete":
        p = pr.tree_prob_discrete(tree, rates, t, args.method)
    else:
        p = pr.tree_prob_continuous(tree, rates, t)
    print(serialize._fmt_prob(p))
    return 0


# -- trees ----------------------------------------------------------------------


def cmd_trees(args):
    if args.links < 1:
        raise ValueError("--links must be at least 1")
    from .fragments import enumerate_fragmentation_trees

    G = _parse_links(args.subset)
    ts = enumerate_fragmentation_trees(G, args.links, args.budget)
    if args.format == "count":
        print(len(ts))
        return 0
    from . import serialize

    if args.format == "dot":
        _write_out(args.out, "".join(serialize.fragtree_to_dot(tr, name=f"F{i}")
                                     for i, tr in enumerate(ts)))
    else:
        payload = [serialize.fragtree_to_dict(tr) for tr in ts]
        _write_out(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


# -- poset ----------------------------------------------------------------------


def cmd_poset(args):
    from . import poset, serialize, trees

    if args.max_edges < 0:
        raise ValueError(f"--max-edges must be at least 0, got {args.max_edges}")
    tree = _load_tree_any(args.tree)
    if args.interval is not None:
        htext, colon, ktext = args.interval.partition(":")
        if not colon:
            raise ValueError(f'--interval needs "H:K", got {args.interval!r}')
        members = poset.interval(tree, _parse_labels(htext, tree),
                                 _parse_labels(ktext, tree))
        for m in members:
            print(serialize.edge_set_label(m))
        return 0
    if args.factorize is not None:
        for f in poset.product_factorization(tree, _parse_labels(args.factorize, tree)):
            print(serialize.edge_set_label(f))
        return 0
    if args.dot:
        highlight = (None if args.highlight is None
                     else _parse_labels(args.highlight, tree))
        _write_out(args.out, serialize.hasse_to_dot(
            tree, highlight_from=highlight, max_edges=args.max_edges))
        return 0
    pairs = poset.hasse_edges(tree, args.max_edges)
    cuts = trees.enumerate_stump_cut_sets(tree)
    print(f"edges: {tree.n_edges}")
    print(f"elements: {2 ** tree.n_edges}")
    print(f"cover pairs: {len(pairs)}")
    print(f"stump cut sets: {len(cuts)}")
    return 0


# -- mobius -----------------------------------------------------------------------


def cmd_mobius(args):
    from . import poset

    tree = _load_tree_any(args.tree)
    H = _parse_labels(getattr(args, "from"), tree)
    K = _parse_labels(args.to, tree)
    if args.recursive:
        print(poset.mobius_recursive(tree, H, K))
        return 0
    val = poset.mobius(tree, H, K)
    print(val.value if val.comparable else "0 (incomparable)")
    return 0


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(args):
    from . import probabilities as pr, serialize, simulate as sim

    if args.seed is None:
        args.seed = sim.DEFAULT_SEED
    rates = serialize.rates_from_dict(args.rates)
    t = _parse_time(args.time, rates.mode)
    if (args.tree is None) == (args.subset is None):
        raise ValueError("simulate needs exactly one of --tree or --subset")
    if args.tree is not None:
        from .fragments import FragTree

        tree = _load_tree_any(args.tree)
        if not isinstance(tree, FragTree):
            raise ValueError('simulate needs a fragmentation tree file, with "links"')
        if args.coupled:
            est, se = sim.estimate_tree_prob_coupled(
                tree, rates, t, args.samples, args.seed)
        else:
            est, se = sim.estimate_tree_prob(
                tree, rates, t, args.samples, args.seed)
        exact = (pr.tree_prob_discrete(tree, rates, t)
                 if rates.mode == "discrete"
                 else pr.tree_prob_continuous(tree, rates, t))
        target = {"tree": serialize.fragtree_to_dict(tree)}
    else:
        G = _parse_links(args.subset)
        est, se = sim.estimate_state_prob(
            G, rates, t, args.samples, args.seed)
        exact = (pr.dist_discrete(G, rates, t)
                 if rates.mode == "discrete"
                 else pr.dist_continuous(G, rates, t))
        target = {"subset": sorted(G)}
    report = serialize.simulation_report(
        target, t, args.samples, est, se, exact, args.seed)
    _write_out(args.out, json.dumps(report, indent=2) + "\n")
    return 0


# -- verify -----------------------------------------------------------------------


def cmd_verify(args):
    from . import checks

    return checks.cmd_verify(args, _write_out)


# -- parser ------------------------------------------------------------------

METHOD_HELP = ("discrete route: auto (default) is the interval recursion; "
               "direct is the paper's tree/inclusion-exclusion formula")
BUDGET_HELP = ("cap on the term count of tree enumeration, catalan(|G|) 2^(|G|-1), "
               "and on the products of the formula route --method direct, the sum "
               "over run lengths L of (m-L+1) L b^(L-1), m = |G| and b = 2 for a "
               "subset, m = n and b = 3 for a full table; it caps no other route")


def build_parser():
    p = argparse.ArgumentParser(
        prog="fragchain",
        description="chain fragmentation distributions, pruning-order Mobius "
                    "inversion, and Monte Carlo verification")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="state distribution table")
    d.add_argument("--rates", required=True)
    d.add_argument("--time", required=True)
    d.add_argument("--subset", help="comma-separated links; omit for the full table")
    d.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    d.add_argument("--endpoints", action="store_true",
                   help="endpoint inclusion-exclusion route (G inside {1,n})")
    d.add_argument("--oracle", action="store_true",
                   help="transition-matrix/generator route instead of the formulas")
    d.add_argument("--method", default="auto", choices=["auto", "direct"],
                   help=METHOD_HELP)
    d.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=BUDGET_HELP)
    d.add_argument("--format", default="csv", choices=["csv", "json"])
    d.add_argument("--out")
    d.set_defaults(func=cmd_dist)

    tp = sub.add_parser("treeprob", help="matching probability of one tree")
    tp.add_argument("--rates", required=True)
    tp.add_argument("--tree", required=True)
    tp.add_argument("--time", required=True)
    tp.add_argument("--exact", action="store_true")
    tp.add_argument("--method", default="auto", choices=["auto", "direct"],
                    help=METHOD_HELP)
    tp.set_defaults(func=cmd_treeprob)

    tr = sub.add_parser("trees", help="enumerate fragmentation trees")
    tr.add_argument("--links", type=int, required=True)
    tr.add_argument("--subset", required=True)
    tr.add_argument("--format", default="json", choices=["json", "dot", "count"])
    tr.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help=BUDGET_HELP)
    tr.add_argument("--out")
    tr.set_defaults(func=cmd_trees)

    po = sub.add_parser("poset", help="pruning order: Hasse diagram, intervals")
    po.add_argument("--tree", required=True)
    po.add_argument("--dot", action="store_true")
    po.add_argument("--highlight", help="bold the interval [H, empty]")
    po.add_argument("--interval", help='"H:K" lists the interval members')
    po.add_argument("--factorize", help="product factors of [H, empty]")
    po.add_argument("--max-edges", type=int, default=16)
    po.add_argument("--out")
    po.set_defaults(func=cmd_poset)

    mo = sub.add_parser("mobius", help="Mobius value of a pair of cut sets")
    mo.add_argument("--tree", required=True)
    mo.add_argument("--from", required=True, dest="from")
    mo.add_argument("--to", required=True)
    mo.add_argument("--recursive", action="store_true",
                    help="defining recursion instead of the closed form")
    mo.set_defaults(func=cmd_mobius)

    si = sub.add_parser("simulate", help="Monte Carlo estimate with exact reference")
    si.add_argument("--rates", required=True)
    si.add_argument("--time", required=True)
    si.add_argument("--samples", type=int, default=100000)
    si.add_argument("--seed", type=int)
    si.add_argument("--tree")
    si.add_argument("--subset")
    si.add_argument("--coupled", action="store_true",
                    help="coupled construction instead of direct simulation")
    si.add_argument("--out")
    si.set_defaults(func=cmd_simulate)

    ve = sub.add_parser("verify", help="run the invariant suite")
    ve.add_argument("--n", type=int, default=4)
    ve.add_argument("--rates", help="discrete rates file (default: random)")
    ve.add_argument("--t-grid", default="0,1,2,5,10")
    ve.add_argument("--shape-edges", type=int, default=4)
    ve.add_argument("--inversion-trials", type=int, default=20)
    ve.add_argument("--samples", type=int, default=20000)
    ve.add_argument("--seed", type=int)
    ve.add_argument("--tol", type=float, default=1e-10)
    ve.add_argument("--out")
    ve.add_argument("--inject-perturbation", type=float, default=0.0,
                    help=argparse.SUPPRESS)
    ve.set_defaults(func=cmd_verify)

    return p


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if getattr(args, "budget", 0) < 0:  # dist and trees
            raise ValueError(f"--budget must be at least 0, got {args.budget}")
        return args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
