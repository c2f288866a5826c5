"""The invariant suite that `fragchain verify` runs. What does not depend
on the horizon is built once: every state's fragmentation trees, for all
groups, and per state the paper's terms of its trees, for every step.
"""

import json
import math
import random

from . import fragments, poset, probabilities as pr, simulate as sim, trees


def _group(name, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"{status:4s}  {name:32s} {detail}")
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _verify_inputs(args):
    """Check every option before any group runs. Returns the rates of the
    --rates file (None without one) and the t-grid."""
    rates = None
    if args.rates is not None:
        from . import serialize

        rates = serialize.rates_from_dict(args.rates)
        if rates.mode != "discrete":
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


def cmd_verify(args, write_out):
    if args.seed is None:
        args.seed = sim.DEFAULT_SEED
    rates, tgrid = _verify_inputs(args)
    rng = random.Random(args.seed)
    tol = args.tol
    groups = []

    # Mobius closed form against the defining recursion, exhaustively
    shapes = trees.enumerate_tree_shapes(args.shape_edges)
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
        tr = trees.random_tree(rng.randint(1, args.shape_edges), rng)
        km = rng.randrange(1 << tr.n_edges)
        K = [tr.vertices[i + 1] for i in range(tr.n_edges) if km >> i & 1]
        f = {h: rng.randint(-50, 50) for h in poset.down_set(tr, K)}
        orig, rec = poset.mobius_inversion_check(tr, f, K)
        if orig != rec:
            bad += 1
    groups.append(_group("mobius_inversion_roundtrip", bad == 0,
                         f"{args.inversion_trials} trials, {bad} mismatches"))

    # discrete formula against the transition-matrix oracle, state by state
    if rates is None:
        rates = pr.random_rates(args.n, rng, total=1.0)
    oracle_rates = rates
    if args.inject_perturbation:
        rho = {a: rates.rho(a) for a in range(1, rates.n + 1)}
        rho[1] = rho[1] * (1 - args.inject_perturbation)
        oracle_rates = pr.RateSpec("discrete", rho)
    state_trees = {G: fragments.enumerate_fragmentation_trees(G, rates.n)
                   for G in pr._state_keys(rates.n)}
    err = rerr = 0.0
    recursion = {t: pr.dist_discrete_all(rates, t) for t in tgrid}
    tables = {t: pr.transition_matrix_dist(oracle_rates, t) for t in tgrid}
    direct = {}
    for G, ts in state_trees.items():
        terms = [pr._paper_terms(tr, rates, "direct") for tr in ts]
        for t in tgrid:
            q = tables[t][G]
            p = direct[t, G] = pr._paper_dist(terms, t, rates.exact)
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
                               - direct[t, tuple(G)]))
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
        for G, ts in state_trees.items():
            closed = pr.dist_continuous(G, crates, t)
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
        worst = _mc_concordance(rates, t, counts, args.samples, state_trees)
        groups.append(_group("mc_tree_concordance", worst <= 4.0,
                             f"N={args.samples}, max|z|={worst:.2f}"))
        worst = _coupling_agreement(rates, t, counts, args.samples, args.seed,
                                    rng, state_trees)
        groups.append(_group("coupled_vs_direct", worst <= 4.0,
                             f"N={args.samples}, max|z|={worst:.2f}"))
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


def _mc_concordance(rates, t, counts, samples, state_trees):
    worst = 0.0
    for ts in state_trees.values():
        for tr in ts:
            p = pr.tree_prob_discrete(tr, rates, t)
            if min(p, 1 - p) < 1e-3:  # too close to 0 or 1 for a z-score
                continue
            phat = counts.get(tr.structure_key(), 0) / samples
            z = abs(phat - p) / math.sqrt(p * (1 - p) / samples)
            worst = max(worst, z)
    return worst


def _coupling_agreement(rates, t, counts, samples, seed, rng, state_trees):
    """z-score of the coupled estimate of one random tree against its direct
    estimate, read from the batch's counts: the same trajectories that
    estimate_tree_prob(tree, rates, t, samples, seed) would simulate."""
    worst = 0.0
    trees_pool = state_trees[tuple(sorted(rng.sample(range(1, rates.n + 1),
                                               min(2, rates.n))))]
    tree = trees_pool[rng.randrange(len(trees_pool))]
    p1 = counts.get(tree.structure_key(), 0) / samples
    se1 = math.sqrt(p1 * (1 - p1) / samples)
    p2, se2 = sim.estimate_tree_prob_coupled(tree, rates, t, samples, seed + 1)
    se = math.sqrt(se1 ** 2 + se2 ** 2)
    if se > 0:
        worst = abs(p1 - p2) / se
    return worst
