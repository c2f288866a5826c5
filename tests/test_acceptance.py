"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible with pytest -s, or in the captured output on failure).
Every randomized check runs from a fixed seed, so a green run stays green.
"""

import math
import random
import time

from fragchain import (CUT, DEP, EMPTY, FIRE, IND, FragTree, aux_consistent,
                       batch_tree_counts, catalan, check_transition_spectrum,
                       checks, dist_continuous_all, dist_discrete,
                       dist_discrete_all, dist_discrete_endpoints,
                       enumerate_atoms, enumerate_fragmentation_trees,
                       enumerate_stump_cut_sets, enumerate_tree_shapes,
                       estimate_tree_prob, external_slots, internal_slots,
                       is_stump_cut_set, marginal_internal_law, minimal_edges,
                       random_rates, sample_aux, slot_order, stump_cut_set,
                       stump_set, support_atoms, transition_matrix_dist)


def _line(cid, ok, detail):
    print(f"{cid} {'pass' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def _all_subsets(n):
    for gm in range(1 << n):
        yield [a + 1 for a in range(n) if gm >> a & 1]


def test_c01_mobius_closed_form_equals_recursion():
    start = time.perf_counter()
    shapes, pairs, bad = checks.mobius_closed_vs_recursive(6)
    assert shapes >= 50
    elapsed = time.perf_counter() - start
    _line("C01", bad == 0 and elapsed < 60,
          f"{shapes} tree shapes, {pairs} comparable pairs, "
          f"{bad} mismatches, {elapsed:.1f}s")


def test_c02_mobius_inversion_recovers_f():
    bad = checks.mobius_inversion_roundtrip(random.Random(2026081402), 20, 6)
    _line("C02", bad == 0, f"20 random integer functions, {bad} mismatches")


def _discrete_configs(seed=2026081403):
    rng = random.Random(seed)
    for n in range(2, 7):
        for i in range(5):
            total = 0.5 if i % 2 else 1.0
            yield n, random_rates(n, rng, total=total, exact=True)


def test_c03_discrete_formula_matches_matrix_power():
    start = time.perf_counter()
    tgrid = (0, 1, 2, 5, 10, 20)
    ferr = 0.0
    exact_bad = 0
    configs = 0
    for n, re in _discrete_configs():
        configs += 1
        rf = re.as_float()
        for t in tgrid:
            tf = transition_matrix_dist(rf, t)
            te = transition_matrix_dist(re, t)
            for G in _all_subsets(n):
                key = tuple(G)
                ferr = max(ferr, abs(dist_discrete(G, rf, t) - tf[key]))
                if dist_discrete(G, re, t) != te[key]:
                    exact_bad += 1
    elapsed = time.perf_counter() - start
    _line("C03", ferr <= 1e-10 and exact_bad == 0 and elapsed < 300,
          f"{configs} rate vectors, t in {tgrid}: max float |err|={ferr:.2e}, "
          f"{exact_bad} exact mismatches, {elapsed:.1f}s")


def _continuous_configs(seed=2026081404):
    rng = random.Random(seed)
    for n in range(2, 7):
        yield n, random_rates(n, rng, mode="continuous")


def test_c04_continuous_tree_sum_matches_closed_form():
    err = max(checks.continuous_tree_sum_vs_closed(crates, (0.1, 1.0, 5.0))[0]
              for _, crates in _continuous_configs())
    _line("C04", err <= 1e-10,
          f"n=2..6, t in (0.1, 1, 5): max |tree sum - closed|={err:.2e}")


def test_c05_normalization_in_both_modes():
    derr = 0.0
    exact_bad = 0
    for n, re in _discrete_configs():
        rf = re.as_float()
        for t in (0, 1, 2, 5, 10, 20):
            derr = max(derr, abs(dist_discrete_all(rf, t).total() - 1.0))
            if dist_discrete_all(re, t).total() != 1:
                exact_bad += 1
    cerr = 0.0
    for n, crates in _continuous_configs():
        for t in (0.1, 1.0, 5.0):
            cerr = max(cerr, abs(dist_continuous_all(crates, t).total() - 1.0))
    ok = derr <= 1e-10 and cerr <= 1e-10 and exact_bad == 0
    _line("C05", ok,
          f"max |sum-1|: discrete {derr:.2e} (exact mismatches {exact_bad}), "
          f"continuous {cerr:.2e}")


def test_c06_endpoint_shortcut_matches_full_formula():
    rng = random.Random(2026081406)
    err = 0.0
    for n in range(2, 7):
        rates = random_rates(n, rng, total=0.5 if n % 2 else 1.0)
        ends = sorted({1, n})
        for t in (0, 1, 2, 5, 10, 20):
            for gm in range(1 << len(ends)):
                G = [ends[i] for i in range(len(ends)) if gm >> i & 1]
                err = max(err, abs(dist_discrete_endpoints(G, rates, t)
                                   - dist_discrete(G, rates, t)))
    _line("C06", err <= 1e-12, f"n=2..6, all endpoint subsets: max |err|={err:.2e}")


def test_c07_transition_matrix_triangular_with_lambda_diagonal():
    rng = random.Random(2026081407)
    checked = 0
    ok = True
    for n in range(2, 7):
        rep = check_transition_spectrum(random_rates(n, rng, total=1.0))
        checked += rep["states"]
        ok = ok and rep["triangular"] and rep["diagonal_exact"]
    for n in range(2, 5):
        rep = check_transition_spectrum(random_rates(n, rng, total=1.0, exact=True))
        checked += rep["states"]
        ok = ok and rep["triangular"] and rep["diagonal_exact"]
    _line("C07", ok, f"{checked} states: triangular, diagonal equals the "
                     "no-change eigenvalues entry by entry")


def test_c08_monte_carlo_matches_tree_probabilities():
    start = time.perf_counter()
    rng = random.Random(2026081408)
    N = 100000
    worst = 0.0
    judged = 0
    batches = 0
    for n in (3, 4):
        for mode, t in (("discrete", 2), ("continuous", 0.8)):
            rates = (random_rates(n, rng, total=1.0) if mode == "discrete"
                     else random_rates(n, rng, mode="continuous"))
            seed = 1729 + batches
            counts = batch_tree_counts(rates, t, N, seed=seed)
            batches += 1
            k, z, best = checks.tree_concordance(rates, t, counts, N)
            judged += k
            worst = max(worst, z)
            # the batch classification is the direct per-tree estimator
            est, _ = estimate_tree_prob(best, rates, t, N, seed=seed)
            assert round(est * N) == counts.get(best.structure_key(), 0)
    elapsed = time.perf_counter() - start
    _line("C08", worst <= 4.0 and elapsed < 120,
          f"{batches} batches of {N}, {judged} tree probabilities >= 1e-3: "
          f"max |z|={worst:.2f}, {elapsed:.1f}s")


def _random_fragtree(rng):
    n = rng.randint(2, 6)
    k = rng.randint(1, min(4, n))
    G = sorted(rng.sample(range(1, n + 1), k))
    left, right = {}, {}

    def build(members):
        if not members:
            return None
        root = members[rng.randrange(len(members))]
        i = members.index(root)
        lc, rc = build(members[:i]), build(members[i + 1:])
        if lc is not None:
            left[root] = lc
        if rc is not None:
            right[root] = rc
        return root

    return FragTree(n, build(G), left, right)


def test_c09_auxiliary_slot_process():
    rng = random.Random(2026081409)
    N = 100000
    ref = FragTree(5, 3, {}, {3: 4})
    # keep the rate total below 1 so only the two structurally dead atoms
    # (a both-sides break next to an empty side interval) have probability 0
    cases = [(ref, random_rates(5, rng, total=0.5))]
    for _ in range(5):
        tree = _random_fragtree(rng)
        cases.append((tree, random_rates(tree.n, rng,
                                         total=rng.choice((0.5, 1.0)))))

    # the atom catalog of the reference tree, frozen
    keys = slot_order(ref)
    got = {tuple(a[k] for k in keys) for a in enumerate_atoms(ref)}
    E, F = EMPTY, FIRE
    expected = {
        (E, E, E, EMPTY, EMPTY), (E, E, E, EMPTY, CUT), (E, E, E, EMPTY, DEP),
        (E, E, E, CUT, IND), (E, E, E, DEP, IND),
        (F, E, E, EMPTY, IND), (F, E, E, CUT, IND), (F, E, E, DEP, IND),
        (E, E, F, IND, IND), (F, E, F, IND, IND),
    }
    atoms_ok = got == expected
    support = len(support_atoms(ref, cases[0][1]))

    worst = 0.0
    bad_consistency = 0
    for case_no, (tree, rates) in enumerate(cases):
        ext = external_slots(tree)
        ints = internal_slots(tree)
        counts = {}
        for i in range(N):
            x = sample_aux(tree, rates, seed=1900 + case_no, index=i)
            if not aux_consistent(tree, x):
                bad_consistency += 1
            for key in x:
                counts[(key, x[key])] = counts.get((key, x[key]), 0) + 1
        for key, frag in ext:
            if frag.empty:
                assert counts.get((key, FIRE), 0) == 0
                continue
            p = float(rates.rho_sum(frag))
            z = abs(counts.get((key, FIRE), 0) / N - p) / math.sqrt(p * (1 - p) / N)
            worst = max(worst, z)
        for (key, *_rest) in ints:
            law = marginal_internal_law(tree, rates, key[1])
            for sym, p in law.items():
                p = float(p)
                if p == 0.0:
                    assert counts.get((key, sym), 0) == 0
                    continue
                se = math.sqrt(p * (1 - p) / N)
                worst = max(worst, abs(counts.get((key, sym), 0) / N - p) / se)
    ok = atoms_ok and support == 8 and bad_consistency == 0 and worst <= 4.0
    _line("C09", ok,
          f"atom catalog matches the 10 frozen atoms (support {support}), "
          f"{len(cases)} trees x {N} samples: max marginal |z|={worst:.2f}, "
          f"{bad_consistency} consistency violations")


def test_c10_coupled_construction_agrees_with_direct_simulation():
    rng = random.Random(2026081410)
    N = 100000
    worst = 0.0
    for k in range(5):
        n = rng.randint(3, 5)
        size = rng.randint(1, 2)
        G = sorted(rng.sample(range(1, n + 1), size))
        trees = enumerate_fragmentation_trees(G, n)
        tree = trees[rng.randrange(len(trees))]
        rates = random_rates(n, rng, total=rng.choice((0.5, 1.0)))
        t = rng.randint(2, 4)
        counts = batch_tree_counts(rates, t, N, seed=13000 + 2 * k)
        worst = max(worst, checks.coupled_vs_direct(tree, rates, t, counts, N,
                                                    13000 + 2 * k))
    _line("C10", worst <= 4.0,
          f"5 configurations, {N} trajectories per estimator: max |z|={worst:.2f}")


def test_c11_catalan_counts_and_cut_set_round_trips():
    start = time.perf_counter()
    count_bad = 0
    for k in range(11):
        G = list(range(1, k + 1))
        if len(enumerate_fragmentation_trees(G, max(k, 1))) != catalan(k):
            count_bad += 1
    # sparse subsets inside a longer chain count the same way
    rng = random.Random(2026081411)
    for k in range(1, 6):
        G = sorted(rng.sample(range(1, 13), k))
        if len(enumerate_fragmentation_trees(G, 12)) != catalan(k):
            count_bad += 1

    shapes = enumerate_tree_shapes(8)
    rt_bad = 0
    subsets = 0
    for tree in shapes:
        labels = tree.vertices[1:]
        antichains = 0
        for hm in range(1 << tree.n_edges):
            H = [labels[i] for i in range(tree.n_edges) if hm >> i & 1]
            subsets += 1
            R = stump_set(tree, H)
            M = minimal_edges(tree, H)
            if stump_cut_set(tree, R) != M or stump_set(tree, M) != R:
                rt_bad += 1
            if is_stump_cut_set(tree, H):
                antichains += 1
                if set(H) != M:
                    rt_bad += 1
        if antichains != len(enumerate_stump_cut_sets(tree)):
            rt_bad += 1
    elapsed = time.perf_counter() - start
    _line("C11", count_bad == 0 and rt_bad == 0,
          f"tree counts match the Catalan numbers up to size 10, "
          f"{len(shapes)} shapes x all {subsets} edge subsets round-trip, "
          f"{count_bad + rt_bad} failures, {elapsed:.1f}s")
