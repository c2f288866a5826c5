"""The invariant suite that `fragchain verify` runs. Each group builds what
it reads: the Monte Carlo groups enumerate the trees of each state they
judge, while both paper groups sum every state's trees on one table
program per horizon (probabilities._paper_probs), building none. The
groups that the acceptance tests share are functions that return the
numbers judged.
"""

import json
import math
import random
import time

from . import fragments, poset, probabilities as pr, simulate as sim, trees
from .errors import DEFAULT_BUDGET, _need


def mobius_closed_vs_recursive(max_edges):
    """The Mobius closed form against the recursion on every pair H <= K of
    every shape with at most max_edges edges: (shapes, pairs, mismatches)."""
    shapes = trees.enumerate_tree_shapes(max_edges)
    pairs = bad = 0
    for tr in shapes:
        k = tr.n_edges
        for km in range(1 << k):
            K = [tr.vertices[i + 1] for i in range(k) if km >> i & 1]
            for H in poset.down_set(tr, K):
                pairs += 1
                bad += poset.mobius(tr, H, K).value != poset.mobius_recursive(tr, H, K)
    return len(shapes), pairs, bad


def mobius_inversion_roundtrip(rng, trials, max_edges):
    """Mobius inversion of random integer data below a random edge set of a
    random tree with 1..max_edges edges, exactly. Returns the mismatches."""
    bad = 0
    for _ in range(trials):
        tr = trees.random_tree(rng.randint(1, max_edges), rng)
        km = rng.randrange(1 << tr.n_edges)
        K = [tr.vertices[i + 1] for i in range(tr.n_edges) if km >> i & 1]
        f = {h: rng.randint(-50, 50) for h in poset.down_set(tr, K)}
        orig, rec = poset.mobius_inversion_check(tr, f, K)
        bad += orig != rec
    return bad


def continuous_tree_sum_vs_closed(crates, horizons):
    """Per horizon and state, the paper's formula summed over the state's trees
    (the direct table, with no tree built) against the closed form. Returns
    (max tree-sum error, max |sum-1| of the closed forms)."""
    err = 0.0
    totals = {t: [] for t in horizons}
    prog = pr._table_program(crates.n)
    for t in horizons:
        for G, s in zip(pr._state_keys(crates.n), pr._paper_probs(prog, crates, t)):
            closed = pr.dist_continuous(G, crates, t)
            err = max(err, abs(s - closed))
            totals[t].append(closed)
    return err, max(abs(math.fsum(tot) - 1.0) for tot in totals.values())


def tree_concordance(rates, t, counts, samples):
    """z-scores of batch_tree_counts(rates, t, samples, seed) against every tree
    probability of rates.mode. Returns (trees judged, max |z|, likeliest tree).
    Discrete trees of |G| links are at least |G|.bit_length() high: before
    that, their probability is 0, never judged, and none is built."""
    discrete = rates.mode == "discrete"
    prob = pr.tree_prob_discrete if discrete else pr.tree_prob_continuous
    judged, worst, best, pbest = 0, 0.0, None, 0
    for G in pr._state_keys(rates.n):
        if discrete and t < len(G).bit_length():  # every tree deeper than t: p = 0
            continue
        for tr in fragments.enumerate_fragmentation_trees(G, rates.n):
            p = prob(tr, rates, t)
            if min(p, 1 - p) < 1e-3:  # too close to 0 or 1 for a z-score
                continue
            judged += 1
            phat = counts.get(tr.structure_key(), 0) / samples
            worst = max(worst, abs(phat - p) / math.sqrt(p * (1 - p) / samples))
            if p > pbest:
                best, pbest = tr, p
    return judged, worst, best


def coupled_vs_direct(tree, rates, t, counts, samples, seed):
    """|z| of the tree's coupled estimate from seed + 1 against its direct one, read
    from batch_tree_counts(rates, t, samples, seed) as estimate_tree_prob would.
    With no spread the two agree only when they are equal."""
    p1, se1 = sim._estimate(counts.get(tree.structure_key(), 0), samples)
    p2, se2 = sim.estimate_tree_prob_coupled(tree, rates, t, samples, seed + 1)
    se = math.sqrt(se1 ** 2 + se2 ** 2)
    return abs(p1 - p2) / se if se > 0 else (0.0 if p1 == p2 else math.inf)


def _verify_inputs(args):
    """Check every option before any group runs. Returns the rates of the
    --rates file (None without one), the t-grid and its middle horizon."""
    rates = None
    if args.rates is not None:
        from . import serialize

        rates = serialize.rates_from_dict(args.rates)
        _need(rates, "discrete", "verify --rates")
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
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    tgrid = [int(x) for x in tgrid]
    t = tgrid[len(tgrid) // 2] or 1  # the Monte Carlo groups': G of up to 2^t - 1 links
    m = min(n, 2 ** min(t, n) - 1)
    if args.samples > 0 and fragments.catalan(m) << (m - 1) > DEFAULT_BUDGET:
        raise ValueError(f"--samples > 0 at the middle horizon t={t} enumerates the trees "
                         f"of |G|={m} links, past the tree budget; use --samples 0")
    return rates, tgrid, t


def cmd_verify(args, write_out):
    if args.seed is None:
        args.seed = sim.DEFAULT_SEED
    rates, tgrid, mid = _verify_inputs(args)
    rng = random.Random(args.seed)
    tol = args.tol
    groups = []
    clock = [time.perf_counter()]

    def group(name, ok, detail):  # seconds since the line before
        status = "pass" if ok else "FAIL"
        print(f"{status:4s}  {name:32s} {detail}")
        clock.append(time.perf_counter())
        groups.append({"name": name, "status": status.lower(), "detail": detail,
                       "seconds": round(clock[-1] - clock[-2], 6)})

    shapes, pairs, bad = mobius_closed_vs_recursive(args.shape_edges)
    group("mobius_closed_vs_recursive", bad == 0,
          f"{shapes} shapes, {pairs} pairs, {bad} mismatches")
    bad = mobius_inversion_roundtrip(rng, args.inversion_trials, args.shape_edges)
    group("mobius_inversion_roundtrip", bad == 0,
          f"{args.inversion_trials} trials, {bad} mismatches")

    # discrete formula against the transition-matrix oracle, state by state
    if rates is None:
        rates = pr.random_rates(args.n, rng, total=1.0)
    oracle_rates = rates
    if args.inject_perturbation:
        rho = {a: rates.rho(a) for a in range(1, rates.n + 1)}
        rho[1] = rho[1] * (1 - args.inject_perturbation)
        oracle_rates = pr.RateSpec("discrete", rho)
    recursion = {t: pr.dist_discrete_all(rates, t) for t in tgrid}
    direct = {t: pr.dist_discrete_all(rates, t, method="direct") for t in tgrid}
    tables = {t: pr.transition_matrix_dist(oracle_rates, t) for t in tgrid}
    err, rerr = (max(abs(route[t][G] - q) for t in tgrid for G, q in tables[t].entries.items())
                 for route in (direct, recursion))
    group("discrete_formula_vs_matrix", max(err, rerr) <= tol,
          f"n={rates.n}, t in {tgrid}, max|err|={err:.3e}, "
          f"recursion max|err|={rerr:.3e}")

    err = max(abs(recursion[t].total() - 1.0) for t in tgrid)
    group("normalization_discrete", err <= tol, f"max|sum-1|={err:.3e}")

    # endpoint formula against the tree formula
    err = 0.0
    ends = [G for G in ([], [1], [rates.n], [1, rates.n]) if len(set(G)) == len(G)]
    for t in tgrid:
        for G in ends:
            err = max(err, abs(pr.dist_discrete_endpoints(G, rates, t) - direct[t][G]))
    group("endpoints_vs_tree_formula", err <= 1e-12, f"max|err|={err:.3e}")

    rep = pr.check_transition_spectrum(rates)
    group("matrix_triangular_eigenvalues", rep["triangular"] and rep["diagonal_exact"],
          f"states={rep['states']}, max_diag_error={rep['max_diag_error']:.3e}")

    crates = pr.random_rates(rates.n, rng, mode="continuous")
    err, nerr = continuous_tree_sum_vs_closed(crates, (0.1, 1.0, 5.0))
    group("continuous_tree_sum_vs_closed", err <= tol,
          f"n={crates.n}, max|err|={err:.3e}")
    group("normalization_continuous", nerr <= tol, f"max|sum-1|={nerr:.3e}")

    if args.samples > 0:
        counts = sim.batch_tree_counts(rates, mid, args.samples, args.seed)
        _, worst, _ = tree_concordance(rates, mid, counts, args.samples)
        group("mc_tree_concordance", worst <= 4.0,
              f"N={args.samples}, max|z|={worst:.2f}")
        G = rng.sample(range(1, rates.n + 1), min(2, rates.n))
        pool = fragments.enumerate_fragmentation_trees(G, rates.n)
        z = coupled_vs_direct(pool[rng.randrange(len(pool))], rates, mid, counts,
                              args.samples, args.seed)
        group("coupled_vs_direct", z <= 4.0, f"N={args.samples}, max|z|={z:.2f}")
    else:
        for name in ("mc_tree_concordance", "coupled_vs_direct"):
            print(f"skip  {name:32s} samples=0")
            groups.append({"name": name, "status": "skip", "detail": "samples=0"})

    ok = all(g["status"] != "fail" for g in groups)
    report = {"pass": ok, "seed": args.seed, "n": rates.n, "groups": groups}
    if args.out:
        write_out(args.out, json.dumps(report, indent=2) + "\n")
    print("verify: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1
