"""Command line interface.

Subcommands: dist, treeprob, trees, poset, mobius, simulate, verify.
Exit codes: 0 success, 1 verification or internal-consistency failure,
2 usage/config error, 3 enumeration budget exceeded.

Edge sets on the command line are comma-separated upper-end labels, the
empty set being the empty string; a label that is not a vertex of the tree
is a usage error. poset and mobius read either kind of tree file: a
fragmentation tree is the rooted tree of its edges, left child first, and
must not be empty. All output is UTF-8 with LF endings. Randomized commands
default to the documented seed constant 1729; pass --seed for anything
else. Trajectory i of a run always uses substream (seed, i), so a seed
fixes the estimate.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import sys

# probabilities, simulate, poset and serialize are imported inside the
# commands that use them, so a process loads only what its command runs
from . import fragments
from . import trees as trees_mod
from .errors import BudgetError, ConsistencyError


def _parse_links(text):
    text = text.strip()
    if not text:
        return []
    links = [int(x) for x in text.split(",")]
    if len(set(links)) != len(links):
        raise ValueError(f"duplicate link in subset {text!r}")
    return links


def _parse_labels(text):
    out = []
    for x in text.split(","):
        x = x.strip()
        if not x:
            continue
        out.append(int(x) if x.lstrip("-").isdigit() else x)
    return out


def _load_tree_any(path):
    """A tree file is either a fragmentation tree (has "links") or a bare
    rooted tree {"root": ..., "edges": ...}."""
    from . import serialize

    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
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

    rates = serialize.rates_from_dict(args.rates, exact=args.exact)
    if rates.mode == "continuous" and (args.exact or args.method != "auto"):
        raise ValueError("--exact and --method need discrete rates")
    tree = _load_tree_any(args.tree)
    if not isinstance(tree, fragments.FragTree):
        raise ValueError("treeprob needs a fragmentation tree file")
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
    G = _parse_links(args.subset)
    ts = fragments.enumerate_fragmentation_trees(G, args.links, args.budget)
    if args.format == "count":
        print(len(ts))
        return 0
    from . import serialize

    if args.format == "dot":
        out = []
        for i, tr in enumerate(ts):
            out.append(serialize.fragtree_to_dot(tr, name=f"F{i}"))
        _write_out(args.out, "".join(out))
    else:
        payload = [serialize.fragtree_to_dict(tr) for tr in ts]
        _write_out(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


# -- poset ----------------------------------------------------------------------


def cmd_poset(args):
    from . import poset, serialize

    tree = _load_tree_any(args.tree)
    if args.interval is not None:
        htext, _, ktext = args.interval.partition(":")
        members = poset.interval(tree, _parse_labels(htext), _parse_labels(ktext))
        for m in members:
            print(serialize.edge_set_label(m))
        return 0
    if args.factorize is not None:
        for f in poset.product_factorization(tree, _parse_labels(args.factorize)):
            print(serialize.edge_set_label(f))
        return 0
    if args.dot:
        highlight = (None if args.highlight is None
                     else _parse_labels(args.highlight))
        _write_out(args.out, serialize.hasse_to_dot(
            tree, highlight_from=highlight, max_edges=args.max_edges))
        return 0
    pairs = poset.hasse_edges(tree, args.max_edges)
    cuts = trees_mod.enumerate_stump_cut_sets(tree)
    print(f"edges: {tree.n_edges}")
    print(f"elements: {2 ** tree.n_edges}")
    print(f"cover pairs: {len(pairs)}")
    print(f"stump cut sets: {len(cuts)}")
    return 0


# -- mobius -----------------------------------------------------------------------


def cmd_mobius(args):
    from . import poset

    tree = _load_tree_any(args.tree)
    H = _parse_labels(getattr(args, "from"))
    K = _parse_labels(args.to)
    if args.recursive:
        print(poset.mobius_recursive(tree, H, K))
        return 0
    val = poset.mobius(tree, H, K)
    if not val.comparable:
        print("0 (incomparable)")
    else:
        print(val.value)
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
        tree = _load_tree_any(args.tree)
        if not isinstance(tree, fragments.FragTree):
            raise ValueError("simulate needs a fragmentation tree file")
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
    text = json.dumps(report, indent=2) + "\n"
    _write_out(args.out, text)
    return 0


# -- verify -----------------------------------------------------------------------


def _group(name, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"{status:4s}  {name:32s} {detail}")
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _verify_inputs(args):
    """Check every option before any group runs. Returns the rates of the
    --rates file (None without one) and the t-grid."""
    from . import probabilities as pr, serialize

    rates = None if args.rates is None else serialize.rates_from_dict(args.rates)
    if rates is not None and rates.mode != "discrete":
        raise ValueError("verify --rates needs discrete rates")
    n = args.n if rates is None else rates.n
    if not 1 <= n <= pr.MATRIX_MAX_N:
        raise ValueError(f"verify needs n in 1..{pr.MATRIX_MAX_N}, got {n}")
    tgrid = args.t_grid.split(",")
    if not all(x.strip().isdecimal() for x in tgrid):
        raise ValueError(f"--t-grid needs nonnegative integers, got {args.t_grid!r}")
    if args.shape_edges < 1:
        raise ValueError(f"--shape-edges must be at least 1, got {args.shape_edges}")
    if args.inversion_trials < 0:
        raise ValueError("--inversion-trials must be at least 0, "
                         f"got {args.inversion_trials}")
    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    return rates, [int(x) for x in tgrid]


def cmd_verify(args):
    from . import poset, probabilities as pr, simulate as sim

    if args.seed is None:
        args.seed = sim.DEFAULT_SEED
    rates, tgrid = _verify_inputs(args)
    rng = random.Random(args.seed)
    tol = args.tol
    groups = []

    # Mobius closed form against the defining recursion, exhaustively
    shapes = trees_mod.enumerate_tree_shapes(args.shape_edges)
    checked = 0
    bad = 0
    for tr in shapes:
        k = tr.n_edges
        for km in range(1 << k):
            K = [tr.vertices[i + 1] for i in range(k) if km >> i & 1]
            for hset in poset.down_set(tr, K):
                v1 = poset.mobius(tr, hset, K).value
                v2 = poset.mobius_recursive(tr, hset, K)
                checked += 1
                if v1 != v2:
                    bad += 1
    groups.append(_group("mobius_closed_vs_recursive", bad == 0,
                         f"{len(shapes)} shapes, {checked} pairs, {bad} mismatches"))

    # Mobius inversion round trip with random integer data, exact
    bad = 0
    for trial in range(args.inversion_trials):
        tr = trees_mod.random_tree(rng.randint(1, args.shape_edges), rng)
        km = rng.randrange(1 << tr.n_edges)
        K = [tr.vertices[i + 1] for i in range(tr.n_edges) if km >> i & 1]
        f = {h: rng.randint(-50, 50) for h in poset.down_set(tr, K)}
        orig, rec = poset.mobius_inversion_check(tr, f, K)
        if orig != rec:
            bad += 1
    groups.append(_group("mobius_inversion_roundtrip", bad == 0,
                         f"{args.inversion_trials} trials, {bad} mismatches"))

    # discrete formula against the transition-matrix oracle
    if rates is None:
        rates = pr.random_rates(args.n, rng, total=1.0)
    oracle_rates = rates
    if args.inject_perturbation:
        rho = {a: rates.rho(a) for a in range(1, rates.n + 1)}
        rho[1] = rho[1] * (1 - args.inject_perturbation)
        oracle_rates = pr.RateSpec("discrete", rho)
    err = 0.0
    rerr = 0.0
    recursion = {t: pr.dist_discrete_all(rates, t) for t in tgrid}
    for t in tgrid:
        table = pr.transition_matrix_dist(oracle_rates, t)
        for G, q in table.items():
            p = pr.dist_discrete(G, rates, t, method="direct")
            err = max(err, abs(p - q))
            rerr = max(rerr, abs(recursion[t][G] - q))
    groups.append(_group("discrete_formula_vs_matrix", max(err, rerr) <= tol,
                         f"n={rates.n}, t in {tgrid}, max|err|={err:.3e}, "
                         f"recursion max|err|={rerr:.3e}"))

    # normalization, discrete
    err = max(abs(recursion[t].total() - 1.0) for t in tgrid)
    groups.append(_group("normalization_discrete", err <= tol,
                         f"max|sum-1|={err:.3e}"))

    # endpoint formula against the tree formula
    err = 0.0
    ends = [G for G in ([], [1], [rates.n], [1, rates.n]) if len(set(G)) == len(G)]
    for t in tgrid:
        for G in ends:
            err = max(err, abs(pr.dist_discrete_endpoints(G, rates, t)
                               - pr.dist_discrete(G, rates, t, method="direct")))
    groups.append(_group("endpoints_vs_tree_formula", err <= 1e-12,
                         f"max|err|={err:.3e}"))

    # spectrum: triangularity and eigenvalue diagonal
    rep = pr.check_transition_spectrum(rates)
    groups.append(_group("matrix_triangular_eigenvalues",
                         rep["triangular"] and rep["diagonal_exact"],
                         f"states={rep['states']}, "
                         f"max_diag_error={rep['max_diag_error']:.3e}"))

    # continuous: tree sum against the closed form, and normalization
    crates = pr.random_rates(rates.n, rng, mode="continuous")
    err = 0.0
    nerr = 0.0
    for t in (0.1, 1.0, 5.0):
        tot = []
        for gm in range(1 << crates.n):
            G = [a + 1 for a in range(crates.n) if gm >> a & 1]
            closed = pr.dist_continuous(G, crates, t)
            ts = fragments.enumerate_fragmentation_trees(G, crates.n)
            s = math.fsum(pr.tree_prob_continuous(tr, crates, t) for tr in ts)
            err = max(err, abs(s - closed))
            tot.append(closed)
        nerr = max(nerr, abs(math.fsum(tot) - 1.0))
    groups.append(_group("continuous_tree_sum_vs_closed", err <= tol,
                         f"n={crates.n}, max|err|={err:.3e}"))
    groups.append(_group("normalization_continuous", nerr <= tol,
                         f"max|sum-1|={nerr:.3e}"))

    # Monte Carlo concordance
    if args.samples > 0:
        t = tgrid[len(tgrid) // 2] or 1
        counts = sim.batch_tree_counts(rates, t, args.samples, args.seed)
        worst = _mc_concordance(rates, t, counts, args.samples)
        groups.append(_group("mc_tree_concordance", worst <= 4.0,
                             f"N={args.samples}, max|z|={worst:.2f}"))
        worst = _coupling_agreement(rates, t, counts, args.samples, args.seed, rng)
        groups.append(_group("coupled_vs_direct", worst <= 4.0,
                             f"N={args.samples}, max|z|={worst:.2f}"))
    else:
        for name in ("mc_tree_concordance", "coupled_vs_direct"):
            print(f"skip  {name:32s} samples=0")
            groups.append({"name": name, "status": "skip", "detail": "samples=0"})

    ok = all(g["status"] != "fail" for g in groups)
    report = {"pass": ok, "seed": args.seed, "n": rates.n, "groups": groups}
    if args.out:
        _write_out(args.out, json.dumps(report, indent=2) + "\n")
    print("verify: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _mc_concordance(rates, t, counts, samples):
    from . import probabilities as pr

    worst = 0.0
    for gm in range(1 << rates.n):
        G = [a + 1 for a in range(rates.n) if gm >> a & 1]
        for tr in fragments.enumerate_fragmentation_trees(G, rates.n):
            p = pr.tree_prob_discrete(tr, rates, t)
            if min(p, 1 - p) < 1e-3:  # too close to 0 or 1 for a z-score
                continue
            phat = counts.get(tr.structure_key(), 0) / samples
            z = abs(phat - p) / math.sqrt(p * (1 - p) / samples)
            worst = max(worst, z)
    return worst


def _coupling_agreement(rates, t, counts, samples, seed, rng):
    """z-score of the coupled estimate of one random tree against its direct
    estimate, read from the batch's counts: the same trajectories that
    estimate_tree_prob(tree, rates, t, samples, seed) would simulate."""
    from . import simulate as sim

    worst = 0.0
    trees_pool = fragments.enumerate_fragmentation_trees(
        sorted(rng.sample(range(1, rates.n + 1), min(2, rates.n))), rates.n)
    tree = trees_pool[rng.randrange(len(trees_pool))]
    p1 = counts.get(tree.structure_key(), 0) / samples
    se1 = math.sqrt(p1 * (1 - p1) / samples)
    p2, se2 = sim.estimate_tree_prob_coupled(tree, rates, t, samples, seed + 1)
    se = math.sqrt(se1 ** 2 + se2 ** 2)
    if se > 0:
        worst = abs(p1 - p2) / se
    return worst


# -- parser ------------------------------------------------------------------

METHOD_HELP = ("discrete route: auto (default) is the interval recursion; "
               "direct and expanded are the paper's tree/inclusion-exclusion "
               "formula with that lambda-difference denominator")
BUDGET_HELP = ("cap on the term count of tree enumeration and the tree-formula "
               "route; the interval recursion ignores it")


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
    d.add_argument("--method", default="auto",
                   choices=["auto", "direct", "expanded"], help=METHOD_HELP)
    d.add_argument("--budget", type=int, default=fragments.DEFAULT_BUDGET,
                   help=BUDGET_HELP)
    d.add_argument("--format", default="csv", choices=["csv", "json"])
    d.add_argument("--out")
    d.set_defaults(func=cmd_dist)

    tp = sub.add_parser("treeprob", help="matching probability of one tree")
    tp.add_argument("--rates", required=True)
    tp.add_argument("--tree", required=True)
    tp.add_argument("--time", required=True)
    tp.add_argument("--exact", action="store_true")
    tp.add_argument("--method", default="auto",
                    choices=["auto", "direct", "expanded"], help=METHOD_HELP)
    tp.set_defaults(func=cmd_treeprob)

    tr = sub.add_parser("trees", help="enumerate fragmentation trees")
    tr.add_argument("--links", type=int, required=True)
    tr.add_argument("--subset", required=True)
    tr.add_argument("--format", default="json", choices=["json", "dot", "count"])
    tr.add_argument("--budget", type=int, default=fragments.DEFAULT_BUDGET,
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
