import gc
import math
import pickle
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragchain import (CUT, DEP, EMPTY, FIRE, IND, FragTree, RateSpec,
                       Trajectory, atom_probability, aux_consistent,
                       batch_tree_counts, classify_tree, coupled_construction,
                       dist_continuous, dist_discrete, enumerate_atoms,
                       enumerate_fragmentation_trees, estimate_state_prob,
                       estimate_tree_prob, estimate_tree_prob_coupled,
                       external_slots, internal_slots, marginal_internal_law,
                       matches_tree, random_rates, sample_aux, simulate,
                       simulate_continuous,
                       simulate_discrete, slot_order, substream, support_atoms,
                       tree_prob_continuous, tree_prob_discrete)

from oracles import bf_atom_probability


SEED = 20260814


def test_substream_determinism(rates5, crates4):
    a = simulate_discrete(rates5, 10, seed=SEED, index=7)
    b = simulate_discrete(rates5, 10, seed=SEED, index=7)
    assert a == b
    c = simulate_discrete(rates5, 10, seed=SEED, index=8)
    assert a != c
    x = simulate_continuous(crates4, 5.0, seed=SEED, index=3)
    y = simulate_continuous(crates4, 5.0, seed=SEED, index=3)
    assert x == y
    with pytest.raises(ValueError):
        substream(SEED, -1)


def test_trajectory_semantics(rates5):
    traj = simulate_discrete(rates5, 6, seed=SEED)
    assert traj.n == 5 and traj.horizon == 6
    states = [traj.removed_at(t) for t in range(7)]
    assert states[0] == frozenset()
    for a, b in zip(states, states[1:]):
        assert a <= b  # removals only accumulate
    with pytest.raises(ValueError):
        traj.removed_at(7)


def test_mode_guards(rates5, crates4):
    with pytest.raises(ValueError):
        simulate_discrete(crates4, 3)
    with pytest.raises(ValueError):
        simulate_continuous(rates5, 3.0)
    with pytest.raises(ValueError):
        coupled_construction(FragTree(4, None), crates4, 3)


def test_single_link_marginal():
    # removal time of a lone link is geometric
    r = RateSpec("discrete", {1: 0.3})
    n = 5000
    hits = sum(1 for i in range(n)
               if simulate_discrete(r, 3, seed=SEED, index=i).removed_at(3))
    p = 1 - 0.7 ** 3
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_continuous_marginal(crates4):
    n = 5000
    t = 0.8
    r1 = float(crates4.rho(1))
    hits = sum(1 for i in range(n)
               if 1 in simulate_continuous(crates4, t, seed=SEED, index=i).removed_at(t))
    p = 1 - math.exp(-r1 * t)
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_at_most_one_break_per_fragment_per_step(rates5):
    for i in range(200):
        traj = simulate_discrete(rates5, 8, seed=SEED, index=i)
        for t in range(1, 9):
            new = traj.removed_at(t) - traj.removed_at(t - 1)
            # links broken this step lie in distinct fragments of the old state
            old = sorted(traj.removed_at(t - 1))
            for a in new:
                for b in new:
                    if a < b:
                        assert any(a < g < b for g in old)


def test_classify_partition(rates5, crates4):
    # each trajectory matches its classified tree and no other
    for mode_rates, t in ((rates5, 4), (crates4, 1.3)):
        sim = simulate_discrete if mode_rates.mode == "discrete" else simulate_continuous
        for i in range(60):
            traj = sim(mode_rates, t, seed=SEED, index=i)
            tree = classify_tree(traj, t)
            assert matches_tree(traj, tree, t)
            G = sorted(traj.removed_at(t))
            others = [tr for tr in enumerate_fragmentation_trees(G, mode_rates.n)
                      if tr != tree]
            assert not any(matches_tree(traj, tr, t) for tr in others)


def test_classify_rejects_tied_times():
    traj = Trajectory("discrete", 2, 3, {1: 1, 2: 1})
    with pytest.raises(ValueError):
        classify_tree(traj, 3)
    # ties in different fragments are fine
    traj = Trajectory("discrete", 3, 3, {2: 1, 1: 2, 3: 2})
    tree = classify_tree(traj, 3)
    assert tree.root == 2 and tree.left[2] == 1 and tree.right[2] == 3


def test_estimate_tree_prob_agrees(rates5):
    tree = FragTree(5, 3, {3: 1}, {3: 4})
    t = 5
    p_exact = tree_prob_discrete(tree, rates5, t)
    est, se = estimate_tree_prob(tree, rates5, t, 20000, seed=SEED)
    assert se > 0
    assert abs(est - p_exact) < 4 * se


def test_estimate_tree_prob_rejects_a_tree_of_another_n(rates5, crates4):
    for rates in (rates5, crates4):
        with pytest.raises(ValueError, match="disagree on n"):
            estimate_tree_prob(FragTree(3, 2), rates, 1, 10)


def test_estimate_tree_prob_continuous(crates4):
    tree = FragTree(4, 2, {}, {2: 3})
    t = 1.0
    p_exact = tree_prob_continuous(tree, crates4, t)
    est, se = estimate_tree_prob(tree, crates4, t, 20000, seed=SEED)
    assert abs(est - p_exact) < 4 * se


def test_estimate_state_prob_agrees(rates5, crates4):
    est, se = estimate_state_prob([2, 4], rates5, 4, 20000, seed=SEED)
    assert abs(est - dist_discrete([2, 4], rates5, 4)) < 4 * se
    est, se = estimate_state_prob([1], crates4, 0.5, 20000, seed=SEED)
    assert abs(est - dist_continuous([1], crates4, 0.5)) < 4 * se


def test_batch_counts_match_per_tree_estimates(rates5):
    t, n_samp = 3, 8000
    counts = batch_tree_counts(rates5, t, n_samp, seed=SEED)
    assert sum(counts.values()) == n_samp
    for gm in range(4):
        G = [a for a in (2, 4) if gm >> (a // 2 - 1) & 1]
        for tree in enumerate_fragmentation_trees(G, 5):
            est, _ = estimate_tree_prob(tree, rates5, t, n_samp, seed=SEED)
            assert counts.get(tree.structure_key(), 0) == round(est * n_samp)



def test_fast_classification_is_the_definition(rates5, crates4):
    # the batch key and the estimator's match, trajectory by trajectory,
    # against classify_tree and matches_tree
    n_samp = 3000
    for rates, t in ((rates5, 3), (crates4, 0.9)):
        sim = simulate_discrete if rates.mode == "discrete" else simulate_continuous
        trajs = [sim(rates, t, seed=SEED, index=i) for i in range(n_samp)]
        want = {}
        for traj in trajs:
            key = classify_tree(traj, t).structure_key()
            want[key] = want.get(key, 0) + 1
        assert batch_tree_counts(rates, t, n_samp, seed=SEED) == want
        for G in ((), (2,), (1, 3), (2, 3, 4)):
            for tree in enumerate_fragmentation_trees(G, rates.n):
                est, _ = estimate_tree_prob(tree, rates, t, n_samp, seed=SEED)
                assert round(est * n_samp) == \
                    sum(matches_tree(traj, tree, t) for traj in trajs)


@pytest.mark.parametrize("n", [12, 16])
def test_batch_counts_are_the_per_index_trees_on_long_chains(n):
    # the hypothesis test below stops at n <= 6; longer chains take wider
    # bit fields per link in the batch's tree codes
    rng = random.Random(n)
    for rates in (random_rates(n, rng, total=0.9), random_rates(n, rng, total=1.0, exact=True)):
        for t, samples in ((1, 200), (4, 300), (9, 300)):
            want = {}
            for i in range(samples):
                key = classify_tree(simulate_discrete(rates, t, 11, i), t).structure_key()
                want[key] = want.get(key, 0) + 1
            assert list(batch_tree_counts(rates, t, samples, 11).items()) == list(want.items())


@pytest.mark.parametrize("n", [5, 12, 16])
def test_continuous_batch_counts_are_the_earliest_break_trees(n):
    # a continuous batch counts integer tree codes, which classify_tree
    # decodes too; here each key comes from the definition instead: the
    # root of every interval is its earliest-broken link
    rates = random_rates(n, random.Random(n), mode="continuous")
    for t, samples in ((0.3, 200), (1.0, 300), (3.0, 300)):
        want = {}
        for i in range(samples):
            tau, pairs = simulate_continuous(rates, t, 11, i).removal_time, []

            def build(lo, hi, parent):
                broken = [a for a in range(lo, hi + 1) if tau[a] <= t]
                if broken:
                    a = min(broken, key=tau.get)
                    pairs.append((a, parent))
                    build(lo, a - 1, a)
                    build(a + 1, hi, a)

            build(1, n, None)
            key = (n, tuple(sorted(pairs)))
            want[key] = want.get(key, 0) + 1
        assert list(batch_tree_counts(rates, t, samples, 11).items()) == list(want.items())


def test_continuous_batch_takes_any_real_time(crates4):
    # the closed form takes t = 1/3, and so does a batch, whose horizon is
    # the float of t: 1/3 lies above that float, yet not past the horizon
    t = Fraction(1, 3)
    assert dist_continuous([1], crates4, t) == dist_continuous([1], crates4, float(t))
    assert batch_tree_counts(crates4, t, 200, 3) == batch_tree_counts(crates4, float(t), 200, 3)


@st.composite
def mc_cases_st(draw):
    """Rates on n <= 6 links, discrete ones summing to at most exactly 1,
    exact or float, an integer time t <= 6, a seed and a small batch."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["discrete", "continuous"]))
    scale = (Fraction(draw(st.integers(1, 8)), 8 * sum(weights))
             if mode == "discrete" else Fraction(1, 4))
    exact = draw(st.booleans())
    rates = RateSpec(mode, {a: w * scale if exact else float(w * scale)
                            for a, w in enumerate(weights, 1)})
    return rates, draw(st.integers(0, 6)), draw(st.integers(0, 1 << 40)), \
        draw(st.integers(1, 40))


@settings(max_examples=120, deadline=None)
@given(mc_cases_st())
def test_estimators_agree_with_the_per_index_samplers(case):
    # every estimator counts what the public samplers and the definitions
    # of matching give, trajectory by trajectory, on the same substreams
    rates, t, seed, samples = case
    discrete = rates.mode == "discrete"
    sim = simulate_discrete if discrete else simulate_continuous
    trajs = [sim(rates, t, seed=seed, index=i) for i in range(samples)]
    want = {}
    for traj in trajs:
        key = classify_tree(traj, t).structure_key()
        want[key] = want.get(key, 0) + 1
    counts = batch_tree_counts(rates, t, samples, seed=seed)
    assert list(counts.items()) == list(want.items())
    states = {tuple(sorted(traj.removed_at(t))) for traj in trajs}
    states.add(tuple(range(1, rates.n + 1, 2)))
    for G in sorted(states):
        hits = sum(traj.removed_at(t) == frozenset(G) for traj in trajs)
        assert estimate_state_prob(G, rates, t, samples, seed=seed)[0] == hits / samples
        for tree in enumerate_fragmentation_trees(G, rates.n):
            hits = sum(matches_tree(traj, tree, t) for traj in trajs)
            assert estimate_tree_prob(tree, rates, t, samples, seed=seed)[0] == \
                hits / samples
            if not discrete:
                continue
            hits = 0
            for i in range(samples):
                traj, failure = coupled_construction(tree, rates, t, seed=seed, index=i)
                hits += failure is None and traj.removed_at(t) == frozenset(tree.G)
            assert estimate_tree_prob_coupled(tree, rates, t, samples, seed=seed)[0] \
                == hits / samples
    if discrete:
        tree = enumerate_fragmentation_trees(sorted(states)[-1], rates.n)[0]
        for estimate in (lambda: estimate_tree_prob(tree, rates, 2.5, samples, seed),
                         lambda: estimate_state_prob(tree.G, rates, 2.5, samples, seed),
                         lambda: estimate_tree_prob_coupled(tree, rates, 2.5, samples, seed),
                         lambda: batch_tree_counts(rates, 2.5, samples, seed)):
            with pytest.raises(ValueError, match="beyond the simulated horizon"):
                estimate()


@pytest.mark.parametrize("kernel", [True, False], ids=["generated", "loop"])
def test_coupled_hits_are_the_per_index_runs(kernel, monkeypatch):
    # the coupled estimator's hits, with its kernel generated on the first
    # call or never (a cap of no ideals), are per-index _coupled_run's, on
    # every tree of every state with n <= 5 and from t = 0 to past the
    # tree's height; the exact rates add up to 1, so some stays are 0
    monkeypatch.setattr(simulate, "COUPLED_HOT_STEPS" if kernel else "COUPLED_MAX_IDEALS", 0)
    rng, samples = random.Random(29), 30
    for n in range(1, 6):
        for rates in (random_rates(n, rng, total=0.9),
                      random_rates(n, rng, total=Fraction(1), exact=True)):
            for mask in range(1 << n):
                G = [a for a in range(1, n + 1) if mask >> (a - 1) & 1]
                for tree in enumerate_fragmentation_trees(G, n):
                    program = simulate._slot_program(tree, rates)
                    for t in range(len(tree.G) + 2):  # past the tree's height
                        for seed in (3, 1 << 40):
                            runs = [simulate._coupled_run(program, t, substream(seed, i).random)
                                    for i in range(samples)]
                            hits = sum(failure is None and len(removed) == len(tree.G)
                                       for removed, failure in runs)
                            assert estimate_tree_prob_coupled(tree, rates, t, samples, seed) \
                                == simulate._estimate(hits, samples)
                    assert (tree._coupled[2] is not None) == kernel


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_batch_counts_are_the_per_index_samplers(n):
    # the batch's counts are the trees of the per-index trajectories: on
    # chains of one and two links, the benchmark's five links, and 64 links,
    # whose codes span several machine words; the last t is past every break
    rng = random.Random(n)
    for rates in (random_rates(n, rng, total=0.9), random_rates(n, rng, total=1.0, exact=True)):
        for t, samples in ((0, 20), (1, 100), (3, 200), (2 * n + 2, 100)):
            want = {}
            for i in range(samples):
                key = classify_tree(simulate_discrete(rates, t, 5, i), t).structure_key()
                want[key] = want.get(key, 0) + 1
            assert list(batch_tree_counts(rates, t, samples, 5).items()) == list(want.items())


# -- auxiliary slot process ---------------------------------------------------


def test_slot_layout(ref_aux_tree):
    keys = slot_order(ref_aux_tree)
    assert keys == [("ext", 3, "L"), ("ext", 4, "L"), ("ext", 4, "R"),
                    ("int", 4), ("int", 3)]
    ext = external_slots(ref_aux_tree)
    assert [list(f) for _, f in ext] == [[1, 2], [], [5]]
    ints = internal_slots(ref_aux_tree)
    assert [k for (k, *_ ) in ints] == [("int", 4), ("int", 3)]
    (_, I, Il, Ir) = ints[0]
    assert (list(I), list(Il), list(Ir)) == ([4, 5], [], [5])


def test_empty_tree_slot():
    tree = FragTree(4, None)
    ext = external_slots(tree)
    assert len(ext) == 1 and ext[0][0] == ("ext", None, "root")
    assert list(ext[0][1]) == [1, 2, 3, 4]
    assert internal_slots(tree) == []


def test_structural_atoms_reference(ref_aux_tree):
    atoms = enumerate_atoms(ref_aux_tree)
    assert len(atoms) == 10
    keys = slot_order(ref_aux_tree)
    got = {tuple(a[k] for k in keys) for a in atoms}
    E, F = EMPTY, FIRE
    expected = {
        (E, E, E, EMPTY, EMPTY), (E, E, E, EMPTY, CUT), (E, E, E, EMPTY, DEP),
        (E, E, E, CUT, IND), (E, E, E, DEP, IND),
        (F, E, E, EMPTY, IND), (F, E, E, CUT, IND), (F, E, E, DEP, IND),
        (E, E, F, IND, IND), (F, E, F, IND, IND),
    }
    assert got == expected


def test_atom_probabilities_sum_to_one(ref_aux_tree, rates5_exact):
    atoms = enumerate_atoms(ref_aux_tree)
    probs = [atom_probability(ref_aux_tree, rates5_exact, a) for a in atoms]
    assert sum(probs) == 1
    assert all(p >= 0 for p in probs)
    # the two DEP-at-4 atoms are dead: the left side interval of 4 is empty
    assert sum(1 for p in probs if p == 0) == 2
    assert len(support_atoms(ref_aux_tree, rates5_exact)) == 8


def test_atom_probability_oracle(ref_aux_tree, ref_frag_tree, rates5_exact):
    r6 = RateSpec("discrete", {a: Fraction(1, 12) for a in range(1, 7)})
    for tree, rates in ((ref_aux_tree, rates5_exact), (ref_frag_tree, r6)):
        for atom in enumerate_atoms(tree):
            assert atom_probability(tree, rates, atom) == \
                bf_atom_probability(tree, rates, atom)


def test_internal_marginal_law_normalizes(ref_frag_tree, rates5_exact):
    r6 = RateSpec("discrete", {a: Fraction(1, 12) for a in range(1, 7)})
    for a in ref_frag_tree.postorder:
        law = marginal_internal_law(ref_frag_tree, r6, a)
        assert sum(law.values()) == 1
        assert all(v >= 0 for v in law.values())


def _slot_law_is_a_law(tree, rates):
    """Every value of each internal slot's law and every atom probability is
    nonnegative, and the atoms sum to 1."""
    for a in tree.G:
        assert all(v >= 0 for v in marginal_internal_law(tree, rates, a).values())
    probs = [atom_probability(tree, rates, atom) for atom in enumerate_atoms(tree)]
    assert all(p >= 0 for p in probs)
    assert abs(math.fsum(probs) - 1) <= 1e-15


def test_slot_law_is_nonnegative_at_total_rate_one():
    # 7/24, 1/4, 7/24, 1/6 as floats: 1 - rho(1..4) rounds to -2.2e-16
    r = RateSpec("discrete", {1: 0.2916666666666667, 2: 0.25,
                              3: 0.2916666666666667, 4: 0.16666666666666666})
    assert marginal_internal_law(FragTree(4, 1), r, 1)[EMPTY] == 0.0
    _slot_law_is_a_law(FragTree(4, 1), r)
    rng = random.Random(1)
    for n in range(2, 7):
        for _ in range(600):
            _slot_law_is_a_law(FragTree(n, 1), random_rates(n, rng, total=1.0))


def test_negative_seeds_and_wide_indices_are_rejected(rates5, crates4):
    # Random seeds with |key|: (-1, 0) would replay (1, 0), and (0, 2**64)
    # would replay (1, 0) as well
    for seed, index in ((-1, 0), (0, 1 << 64), (-3, 5)):
        with pytest.raises(ValueError):
            substream(seed, index)
    assert substream(0, (1 << 64) - 1).random() != substream(1, 0).random()
    tree = FragTree(5, 3, {3: 1}, {3: 4})
    calls = [lambda: simulate_discrete(rates5, 5, seed=-1),
             lambda: simulate_continuous(crates4, 1.0, seed=-1),
             lambda: sample_aux(tree, rates5, seed=-1),
             lambda: coupled_construction(tree, rates5, 4, seed=-1),
             lambda: estimate_tree_prob(tree, rates5, 4, 10, seed=-1),
             lambda: estimate_state_prob([1], crates4, 0.5, 10, seed=-1),
             lambda: estimate_tree_prob_coupled(tree, rates5, 4, 10, seed=-1),
             lambda: batch_tree_counts(rates5, 4, 10, seed=-1)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_seeds_indices_and_sample_counts_must_be_integers(rates5, crates4, ref_aux_tree):
    # int() used to truncate them: 2.5 samples ran 2 trajectories and divided
    # by 2.5, seed 1.5 drew seed 1's stream and seed True drew seed 1's
    r = RateSpec("discrete", {1: 0.3, 2: 0.3})
    calls = [lambda: estimate_state_prob([], r, 1, 2.5, 7),
             lambda: estimate_tree_prob(FragTree(2, None), r, 1, 2.0, 7),
             lambda: estimate_tree_prob_coupled(ref_aux_tree, rates5, 3, True, 7),
             lambda: batch_tree_counts(crates4, 0.5, 10.0, 7),
             lambda: substream(1.5, 0),
             lambda: substream(1, 0.9),
             lambda: simulate_discrete(r, 3, seed=True),
             lambda: simulate_discrete(r, 3, seed=1, index=False),
             lambda: simulate_continuous(crates4, 1.0, seed=2.0),
             lambda: sample_aux(ref_aux_tree, rates5, seed=2.7),
             lambda: coupled_construction(ref_aux_tree, rates5, 4, index=1.0),
             lambda: batch_tree_counts(r, 1, 10, seed=7.0)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_horizons_follow_the_time_rule(crates4):
    # a discrete horizon is an int, not a bool, and a continuous one is
    # finite, both at least 0; an estimate's horizon is its time's whole steps
    r = RateSpec("discrete", {1: 0.3, 2: 0.3})
    calls = [lambda: simulate_discrete(r, 3.7, 1, 0),
             lambda: simulate_discrete(r, True, 1, 0),
             lambda: simulate_discrete(r, -2, 1, 0),
             lambda: coupled_construction(FragTree(2, 1), r, 2.9, 1, 0),
             lambda: simulate_continuous(crates4, math.nan),
             lambda: simulate_continuous(crates4, math.inf),
             lambda: simulate_continuous(crates4, -1.0),
             lambda: batch_tree_counts(r, -1, 5, 1),
             lambda: batch_tree_counts(crates4, -0.5, 5, 1),
             lambda: batch_tree_counts(crates4, math.nan, 5, 1),
             lambda: estimate_tree_prob_coupled(FragTree(2, 1), r, -1, 5, 1)]
    for call in calls:
        with pytest.raises(ValueError, match="time must be"):
            call()


def test_coupled_route_rejects_a_tree_of_another_n(rates5):
    tree = FragTree(3, 2, {2: 1}, {2: 3})
    for call in (lambda: estimate_tree_prob_coupled(tree, rates5, 3, 1000, 1),
                 lambda: coupled_construction(tree, rates5, 3),
                 lambda: sample_aux(tree, rates5)):
        with pytest.raises(ValueError, match="disagree on n"):
            call()


def test_state_estimate_rejects_links_outside_the_chain_before_sampling(rates5):
    # t = 2.5 fails only once sampling starts, so the links are checked first
    for G in ([9], [0], [2, 6]):
        for t in (3, 2.5):
            with pytest.raises(ValueError, match="links must lie in 1..n"):
                estimate_state_prob(G, rates5, t, 100, 1)


def test_state_estimate_rejects_links_that_are_not_ints(rates5):
    # True would count the trajectories at link 1, and 2.5 none at all
    for G in ([True], [2.5], [1, 2.0]):
        with pytest.raises(ValueError, match="links must lie in 1..n"):
            estimate_state_prob(G, rates5, 3, 100, 1)


def test_discrete_batches_reject_times_that_are_not_finite(rates5):
    # inf and nan have no step count; they fail like any other bad time
    tree = FragTree(5, 2)
    for t in (math.inf, math.nan):
        for call in (lambda: batch_tree_counts(rates5, t, 5, 1),
                     lambda: estimate_tree_prob_coupled(tree, rates5, t, 5, 1)):
            with pytest.raises(ValueError, match="time must be"):
                call()


def test_slot_laws_reject_continuous_rates(crates4):
    # exponential rates are not per-step probabilities: the marginal law
    # would sum to 3.28, and an atom's probability divide by a zero stay
    tree = FragTree(4, 2)
    atom = enumerate_atoms(tree)[0]
    for call in (lambda: sample_aux(tree, crates4),
                 lambda: marginal_internal_law(tree, crates4, 2),
                 lambda: atom_probability(tree, crates4, atom),
                 lambda: support_atoms(tree, crates4)):
        with pytest.raises(ValueError, match="needs discrete rates"):
            call()


def test_sampled_atoms_are_structural_and_consistent(ref_aux_tree, rates5):
    keys = slot_order(ref_aux_tree)
    structural = {tuple(a[k] for k in keys) for a in enumerate_atoms(ref_aux_tree)}
    for i in range(500):
        x = sample_aux(ref_aux_tree, rates5, seed=SEED, index=i)
        assert tuple(x[k] for k in keys) in structural
        assert aux_consistent(ref_aux_tree, x)


def test_aux_marginal_frequencies(ref_aux_tree, rates5):
    n = 6000
    law = marginal_internal_law(ref_aux_tree, rates5, 3)
    counts = {EMPTY: 0, CUT: 0, DEP: 0, IND: 0}
    for i in range(n):
        counts[sample_aux(ref_aux_tree, rates5, seed=SEED, index=i)[("int", 3)]] += 1
    for sym, p in law.items():
        se = math.sqrt(p * (1 - p) / n) + 1e-12
        assert abs(counts[sym] / n - p) < 4 * se


def test_aux_consistent_flags_violations(ref_aux_tree):
    x = {("ext", 3, "L"): EMPTY, ("ext", 4, "L"): EMPTY, ("ext", 4, "R"): EMPTY,
         ("int", 4): CUT, ("int", 3): EMPTY}
    assert not aux_consistent(ref_aux_tree, x)
    x[("int", 3)] = IND
    assert aux_consistent(ref_aux_tree, x)


# -- coupled construction -----------------------------------------------------


def test_coupled_empty_tree(rates5):
    # the empty tree survives a step only when the whole chain stays intact
    tree = FragTree(5, None)
    t, n = 3, 20000
    hits = 0
    for i in range(n):
        traj, failure = coupled_construction(tree, rates5, t, seed=SEED, index=i)
        assert traj.removed_at(t) == frozenset()  # no links in the empty tree
        if failure is None:
            hits += 1
    p = 0.4 ** t
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_coupled_failure_leaves_step_unapplied(rates5):
    tree = FragTree(5, 3, {}, {3: 4})
    for i in range(300):
        traj, failure = coupled_construction(tree, rates5, 6, seed=SEED, index=i)
        if failure is not None:
            # nothing was removed at or after the failing step
            assert all(tau < failure for tau in traj.removal_time.values()
                       if tau != math.inf)
        state = frozenset(a for a, tau in traj.removal_time.items()
                          if tau != math.inf)
        assert state <= frozenset(tree.G)  # only tree links ever break


def test_coupled_matches_direct_estimate(rates5):
    tree = FragTree(5, 3, {}, {3: 4})
    t = 4
    p_exact = tree_prob_discrete(tree, rates5, t)
    est, se = estimate_tree_prob_coupled(tree, rates5, t, 20000, seed=SEED)
    assert abs(est - p_exact) < 4 * se


def test_exact_rates_keep_their_float_twin(ref_aux_tree, rates5_exact):
    assert rates5_exact.as_float() is rates5_exact.as_float()
    kept = []  # the tree keeps the program of the float twin's scaled
    for _ in range(2):
        estimate_tree_prob_coupled(ref_aux_tree, rates5_exact, 3, 10, seed=SEED)
        kept.append(ref_aux_tree._slots[1])
    assert kept[0] is kept[1]


def test_slot_program_reads_the_specs_floats():
    # the program reads its runs from the float twin; they must be the
    # spec's floats, bit for bit, or the seeded slot draws would move. The
    # first rates add up to 1 + 2**-52 in link order, so the whole chain's
    # stay is clamped to 0
    rng = random.Random(31)
    for case in range(40):
        n = rng.randint(1, 9) if case else 4
        r = (random_rates(n, rng, total=rng.choice([0.5, 0.9, 1.0]),
                          exact=rng.random() < 0.3)
             if case else RateSpec("discrete", {1: 0.2, 2: 0.4, 3: 0.3, 4: 0.1}))
        rf = r.as_float()
        G = sorted(rng.sample(range(1, n + 1), rng.randint(0, n))) if case else [2]
        tree = rng.choice(enumerate_fragmentation_trees(G, n))
        keys, externals, internals, _ = simulate._slot_program(tree, rf)
        slot = {k: i for i, k in enumerate(keys)}
        assert list(externals) == [(slot[k], rf.rho_run(f.lo, f.hi))
                                   for k, f in external_slots(tree) if not f.empty]
        want = []
        for a in tree.postorder:
            lam_a, law = simulate._internal_law(tree, rf, a)
            want.append((lam_a, law[EMPTY], law[EMPTY] + law[CUT]))
        assert [x[3:] for x in internals] == want


def test_slot_program_on_a_long_chain_reads_few_rows():
    # a 2-vertex tree's slots read the rows of a handful of first links
    n = 2000
    r = RateSpec("discrete", {a: 0.9 / n for a in range(1, n + 1)})
    tree = FragTree(n, 3, {}, {3: 4})
    x = sample_aux(tree, r, SEED, 0)
    assert set(x) == set(slot_order(tree))
    assert len(r.as_float().sums) <= 6


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_slot_programs_keep_no_dropped_ratespec_alive(ref_aux_tree, exact):
    # the tree keeps its program with the float twin's scaled, so it keeps
    # neither the spec, nor its float twin, nor their sums tables
    r = random_rates(5, random.Random(4), total=Fraction(9, 10) if exact else 0.9,
                     exact=exact)
    sample_aux(ref_aux_tree, r, SEED, 0)
    coupled_construction(ref_aux_tree, r, 4, SEED, 0)
    estimate_tree_prob_coupled(ref_aux_tree, r, 3, 10, seed=SEED)
    gone = [weakref.ref(r), weakref.ref(r.as_float())]
    del r
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    assert ref_aux_tree._slots is not None


def test_a_tree_with_a_generated_coupled_kernel_pickles(ref_aux_tree, rates5):
    # generated code does not pickle, so a pickled tree leaves out its slot
    # program and coupled kernel, and a copy builds its own
    want = estimate_tree_prob_coupled(ref_aux_tree, rates5, 3, 1000, seed=SEED)
    assert ref_aux_tree._coupled[2] is not None
    copy = pickle.loads(pickle.dumps(ref_aux_tree))
    assert copy == ref_aux_tree and (copy._slots, copy._coupled) == (None, None)
    assert copy.lo == ref_aux_tree.lo and copy.postorder == ref_aux_tree.postorder
    assert estimate_tree_prob_coupled(copy, rates5, 3, 1000, seed=SEED) == want


def test_coupled_respects_tree_order(rates5):
    # a child link can only break after its parent
    tree = FragTree(5, 2, {}, {2: 4})
    for i in range(300):
        traj, failure = coupled_construction(tree, rates5, 8, seed=SEED, index=i)
        t2, t4 = traj.removal_time[2], traj.removal_time[4]
        if t4 != math.inf:
            assert t2 < t4


def test_concurrent_samplers_match_sequential_calls(rates5, ref_aux_tree):
    # each call draws from its own generator, and threads that build the
    # same fresh rates' running sums (a cached property) at once read equal ones
    def draw(rates, seed, out):
        out[seed] = ([simulate_discrete(rates, 8, seed, i).removal_time for i in range(200)],
                     [sample_aux(ref_aux_tree, rates, seed, i) for i in range(200)])

    seeds = range(1, 7)  # six threads, more than a small runner's cores
    want = {}
    for seed in seeds:
        draw(rates5, seed, want)
    fresh = RateSpec("discrete", {a: rates5.rho(a) for a in range(1, 6)})
    got = {}
    threads = [threading.Thread(target=draw, args=(fresh, seed, got)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


# -- pinned streams -----------------------------------------------------------
# Literal outputs of the samplers at fixed (seed, index). They fix the v1
# stream contract: Random((seed << 64) + index), raw random() uniforms drawn
# in a fixed order and compared against fixed float values. Any change that
# alters one draw or one comparison changes one of these.

INF = math.inf
HIGH = RateSpec("discrete", {1: 0.15, 2: 0.2, 3: 0.25, 4: 0.2, 5: 0.2})
RATES4 = RateSpec("discrete", {1: 0.2, 2: 0.3, 3: 0.1, 4: 0.25})
CRATES3 = RateSpec("continuous", {1: 0.7, 2: 1.3, 3: 0.4})
_LETTER = {EMPTY: "E", FIRE: "F", CUT: "C", DEP: "D", IND: "I"}

PINNED_DISCRETE = {  # rates5, t_max=8: removal times of links 1..5
    (20260814, 0): (4, 3, 1, 8, 3),
    (20260814, 7): (INF, INF, 3, 4, INF),
    (1729, 123): (4, INF, 1, 5, 2),
}
PINNED_CONTINUOUS = {  # crates4, t_max=1.3: removal times of links 1..4
    (20260814, 0): (0.5973608728289935, 0.23904022362622718,
                    0.9483391175163455, 0.1296575286424403),
    (20260814, 3): (INF, 0.6761189393532545, 1.1913768765454613,
                    1.1121911766332337),
    (1729, 99): (0.03777762973155365, 0.1994682983982238, INF, INF),
}
#: sample_aux on ref_aux_tree, indices 0..11, one letter per slot in
#: slot_order: Empty, Fire, Cut, Dep, Ind
PINNED_AUX_RATES5 = ("EEEEE EEFII EEEEE EEEEC EEEEE FEFII "
                     "EEEEE EEEEE EEEEE EEEEC EEECI EEFII")
PINNED_AUX_HIGH = ("FEEEI EEFII EEEEC EEEED EEEEC FEFII "
                   "EEEEC EEEEC EEEEC EEEED FEECI EEFII")
PINNED_COUPLED = {  # ref_aux_tree, rates5, t_max=6: (times of 1..5, failure)
    0: ((INF, INF, INF, INF, INF), 2),
    1: ((INF, INF, INF, INF, INF), 1),
    2: ((INF, INF, 5, INF, INF), None),
    3: ((INF, INF, 1, INF, INF), 3),
    4: ((INF, INF, 2, INF, INF), 3),
    5: ((INF, INF, INF, INF, INF), 1),
    9: ((INF, INF, 1, 2, INF), 5),
    53: ((INF, INF, 2, 5, INF), None),
    130: ((INF, INF, 2, 6, INF), None),
    192: ((INF, INF, 1, 4, INF), None),
}
#: batch_tree_counts(RATES4, 2, 1000) and (CRATES3, 0.8, 1000)
PINNED_COUNTS_DISCRETE = {
    (4, ()): 18,
    (4, ((1, None),)): 113,
    (4, ((2, None),)): 216,
    (4, ((3, None),)): 51,
    (4, ((4, None),)): 133,
    (4, ((1, 2), (2, None))): 25,
    (4, ((1, 3), (3, None))): 11,
    (4, ((1, 4), (4, None))): 48,
    (4, ((1, None), (2, 1))): 61,
    (4, ((1, None), (3, 1))): 16,
    (4, ((1, None), (4, 1))): 43,
    (4, ((2, 3), (3, None))): 18,
    (4, ((2, 4), (4, None))): 75,
    (4, ((2, None), (3, 2))): 24,
    (4, ((2, None), (4, 2))): 62,
    (4, ((3, 4), (4, None))): 23,
    (4, ((3, None), (4, 3))): 19,
    (4, ((1, 2), (2, None), (3, 2))): 8,
    (4, ((1, 2), (2, None), (4, 2))): 19,
    (4, ((1, 3), (3, None), (4, 3))): 5,
    (4, ((2, 3), (3, None), (4, 3))): 12,
}
PINNED_COUNTS_CONTINUOUS = {
    (3, ()): 144,
    (3, ((1, None),)): 134,
    (3, ((2, None),)): 247,
    (3, ((3, None),)): 62,
    (3, ((1, 2), (2, None))): 105,
    (3, ((1, 3), (3, None))): 16,
    (3, ((1, None), (2, 1))): 81,
    (3, ((1, None), (3, 1))): 20,
    (3, ((2, 3), (3, None))): 48,
    (3, ((2, None), (3, 2))): 65,
    (3, ((1, 2), (2, 3), (3, None))): 14,
    (3, ((1, 2), (2, None), (3, 2))): 26,
    (3, ((1, 3), (2, 1), (3, None))): 13,
    (3, ((1, None), (2, 1), (3, 2))): 15,
    (3, ((1, None), (2, 3), (3, 1))): 10,
}
#: hits of the three estimators, 3000 trajectories each
PINNED_HITS = [44, 80, 34, 261, 106, 60]


def test_streams_pinned(rates5, crates4, ref_aux_tree):
    for (seed, i), want in PINNED_DISCRETE.items():
        traj = simulate_discrete(rates5, 8, seed=seed, index=i)
        assert traj.removal_time == dict(zip(range(1, 6), want))
    for (seed, i), want in PINNED_CONTINUOUS.items():
        traj = simulate_continuous(crates4, 1.3, seed=seed, index=i)
        assert traj.removal_time == dict(zip(range(1, 5), want))
    # the tree has an empty external slot (left of 4) and a root slot whose
    # both-sides break is reachable
    keys = slot_order(ref_aux_tree)
    for rates, want in ((rates5, PINNED_AUX_RATES5), (HIGH, PINNED_AUX_HIGH)):
        got = " ".join(
            "".join(_LETTER[x[k]] for k in keys) for x in
            (sample_aux(ref_aux_tree, rates, seed=SEED, index=i) for i in range(12)))
        assert got == want
    for i, (times, failure) in PINNED_COUPLED.items():
        traj, f = coupled_construction(ref_aux_tree, rates5, 6, seed=SEED, index=i)
        assert (traj.removal_time, f) == (dict(zip(range(1, 6), times)), failure)
    assert batch_tree_counts(RATES4, 2, 1000, seed=SEED) == PINNED_COUNTS_DISCRETE
    assert batch_tree_counts(CRATES3, 0.8, 1000, seed=SEED) == PINNED_COUNTS_CONTINUOUS
    n = 3000
    estimates = [
        estimate_tree_prob(FragTree(5, 3, {3: 1}, {3: 4}), rates5, 5, n, seed=SEED),
        estimate_tree_prob(FragTree(4, 2, {}, {2: 3}), crates4, 1.0, n, seed=SEED),
        estimate_state_prob([2, 4], rates5, 4, n, seed=SEED),
        estimate_state_prob([1], crates4, 0.5, n, seed=SEED),
        estimate_tree_prob_coupled(ref_aux_tree, rates5, 4, n, seed=SEED),
        estimate_tree_prob_coupled(ref_aux_tree, HIGH, 4, n, seed=SEED),
    ]
    assert [est for est, _ in estimates] == [h / n for h in PINNED_HITS]
