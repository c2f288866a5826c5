"""Monte Carlo side: direct simulation, tree matching, the auxiliary slot
process, and the coupled construction.

Determinism contract: every sampler takes (seed, index) and derives an
independent substream as Random((seed << 64) + index), stdlib MT19937. Only
raw Random.random() uniforms are consumed; all transformations (cumulative
scan over a fragment's links, inverse-CDF exponentials) are written out
here, so identical seeds give bit-identical trajectories on any platform.
Draws for empty fragments and empty external slots are skipped: they would
hit probability-0 branches, so skipping preserves the law.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .fragments import FragTree, chain_fragments

#: documented default seed for every CLI entry point and helper
DEFAULT_SEED = 1729

INF = math.inf


def substream(seed, index=0):
    """Independent deterministic stream for one trajectory."""
    if index < 0:
        raise ValueError("trajectory index must be nonnegative")
    return random.Random((int(seed) << 64) + int(index))


@dataclass
class Trajectory:
    """Removal times of every link up to a horizon; math.inf marks a link
    still intact at the horizon (or never resolved, for failed couplings)."""

    mode: str
    n: int
    horizon: object
    removal_time: dict

    def removed_at(self, t):
        if t > self.horizon:
            raise ValueError("time beyond the simulated horizon")
        return frozenset(a for a, tau in self.removal_time.items() if tau <= t)


def simulate_discrete(rates, t_max, seed=DEFAULT_SEED, index=0):
    """One trajectory of the discrete chain up to step t_max.

    Per step, each nonempty fragment draws one uniform and maps it through
    the cumulative rates of its links in ascending order: u < cum(alpha)
    breaks alpha, otherwise the fragment survives the step.
    """
    if rates.mode != "discrete":
        raise ValueError("simulate_discrete needs discrete rates")
    rng = substream(seed, index)
    n = rates.n
    rho = {a: float(rates.rho(a)) for a in range(1, n + 1)}
    times = {a: INF for a in range(1, n + 1)}
    removed = []
    for step in range(1, int(t_max) + 1):
        if len(removed) == n:
            break
        hits = []
        for frag in chain_fragments(1, n, removed):
            if frag.empty:
                continue
            u = rng.random()
            cum = 0.0
            for a in frag:
                cum += rho[a]
                if u < cum:
                    hits.append(a)
                    break
        for a in hits:
            times[a] = step
        if hits:
            removed = sorted(set(removed) | set(hits))
    return Trajectory("discrete", n, int(t_max), times)


def simulate_continuous(rates, t_max, seed=DEFAULT_SEED, index=0):
    """One trajectory of the continuous chain: every link gets an independent
    exponential removal time up front, censored past t_max."""
    if rates.mode != "continuous":
        raise ValueError("simulate_continuous needs continuous rates")
    rng = substream(seed, index)
    t_max = float(t_max)
    times = {}
    for a in range(1, rates.n + 1):
        tau = -math.log1p(-rng.random()) / float(rates.rho(a))
        times[a] = tau if tau <= t_max else INF
    return Trajectory("continuous", rates.n, t_max, times)


def matches_tree(traj, tree, t):
    """Whether the trajectory matches the fragmentation tree at time t: the
    state equals the tree's vertex set and each vertex broke before anything
    else in its subtree (strictly first within every refinement interval)."""
    state = traj.removed_at(t)
    if state != frozenset(tree.G):
        return False
    tau = traj.removal_time
    for a in tree.G:
        if tau[a] != min(tau[b] for b in tree.subtree_links(a)):
            return False
    return True


def classify_tree(traj, t):
    """The unique fragmentation tree the trajectory matches at time t.

    Recursive argmin of removal times: the earliest-broken link of an
    interval is the local root; ties inside an interval would make the
    match ambiguous and raise (they cannot occur in either chain: a
    fragment breaks at most one link per step)."""
    state = sorted(traj.removed_at(t))
    tau = traj.removal_time
    left, right = {}, {}

    def build(members):
        if not members:
            return None
        best = min(members, key=lambda a: tau[a])
        if sum(1 for a in members if tau[a] == tau[best]) > 1:
            raise ValueError("tied removal times inside one fragment")
        i = members.index(best)
        lr = build(members[:i])
        rr = build(members[i + 1:])
        if lr is not None:
            left[best] = lr
        if rr is not None:
            right[best] = rr
        return best

    root = build(state)
    return FragTree(traj.n, root, left, right)


def estimate_tree_prob(tree, rates, t, samples, seed=DEFAULT_SEED, threads=1):
    """Monte Carlo estimate of the tree-matching probability.

    Returns (estimate, stderr) with the binomial standard error
    sqrt(p(1-p)/N). Trajectory index i always uses substream (seed, i), so
    results are identical for any thread count; threads only split the index
    range."""
    _check_sampling(samples, threads)
    sim = simulate_discrete if rates.mode == "discrete" else simulate_continuous
    ratesf = rates.as_float()

    def count(lo, hi):
        c = 0
        for i in range(lo, hi):
            if matches_tree(sim(ratesf, t, seed, i), tree, t):
                c += 1
        return c

    hits = _run_chunks(count, samples, threads)
    p = hits / samples
    return p, math.sqrt(p * (1 - p) / samples)


def estimate_state_prob(G, rates, t, samples, seed=DEFAULT_SEED, threads=1):
    """Monte Carlo estimate of P(state = G at time t), same conventions."""
    _check_sampling(samples, threads)
    target = frozenset(G)
    sim = simulate_discrete if rates.mode == "discrete" else simulate_continuous
    ratesf = rates.as_float()

    def count(lo, hi):
        c = 0
        for i in range(lo, hi):
            if sim(ratesf, t, seed, i).removed_at(t) == target:
                c += 1
        return c

    hits = _run_chunks(count, samples, threads)
    p = hits / samples
    return p, math.sqrt(p * (1 - p) / samples)


def batch_tree_counts(rates, t, samples, seed=DEFAULT_SEED):
    """Classify a whole batch: counts keyed by the matched tree's
    structure_key(). One batch covers every (state, tree) pair at once."""
    sim = simulate_discrete if rates.mode == "discrete" else simulate_continuous
    ratesf = rates.as_float()
    counts = {}
    for i in range(samples):
        key = classify_tree(sim(ratesf, t, seed, i), t).structure_key()
        counts[key] = counts.get(key, 0) + 1
    return counts


def _check_sampling(samples, threads=1):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _run_chunks(count, samples, threads):
    if threads <= 1:
        return count(0, samples)
    from concurrent.futures import ThreadPoolExecutor
    bounds = [samples * k // threads for k in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(count, bounds[k], bounds[k + 1]) for k in range(threads)]
        return sum(f.result() for f in futs)


# -- auxiliary slot process --------------------------------------------------

#: slot symbols: externals take EMPTY or FIRE; internals take EMPTY, CUT
#: (the slot's own link breaks), DEP (both sides break together), or IND
#: (some inner slot already fired, the interval is no longer one fragment)
EMPTY, FIRE, CUT, DEP, IND = "empty", "fire", "cut", "dep", "ind"


def external_slots(tree):
    """(key, fragment) for the childless sides, in left-to-right order. Keys
    are ("ext", vertex, side); the empty tree has the single root slot."""
    if tree.root is None:
        return [(("ext", None, "root"), tree.externals()[0])]
    return [(("ext", f.vertex, f.side), f) for f in tree.externals()]


def internal_slots(tree):
    """(key, I, I', I'') bottom-up (postorder); keys are ("int", vertex)."""
    return [(("int", a),) + tree.interval(a) for a in tree.postorder]


def child_slot_keys(tree, alpha):
    lc, rc = tree.left[alpha], tree.right[alpha]
    return (("int", lc) if lc is not None else ("ext", alpha, "L"),
            ("int", rc) if rc is not None else ("ext", alpha, "R"))


def sample_aux(tree, rates, seed=DEFAULT_SEED, index=0):
    """One joint sample of every slot variable of the tree, bottom-up."""
    return _sample_aux(tree, rates.as_float(), substream(seed, index))


def _sample_aux(tree, rates, rng):
    x = {}
    for key, frag in external_slots(tree):
        if frag.empty:
            x[key] = EMPTY
        else:
            x[key] = FIRE if rng.random() < rates.rho_sum(frag) else EMPTY
    for (key, I, Il, Ir) in internal_slots(tree):
        a = key[1]
        kl, kr = child_slot_keys(tree, a)
        if x[kl] != EMPTY or x[kr] != EMPTY:
            x[key] = IND
            continue
        lam_a = (1 - rates.rho_sum(Il)) * (1 - rates.rho_sum(Ir))
        u = rng.random() * lam_a
        still = 1 - rates.rho_sum(I)
        if u < still:
            x[key] = EMPTY
        elif u < still + rates.rho(a):
            x[key] = CUT
        else:
            x[key] = DEP
    return x


def slot_order(tree):
    """Display order of the slot keys: externals left-to-right, then
    internals bottom-up."""
    return [k for k, _ in external_slots(tree)] + [s[0] for s in internal_slots(tree)]


def enumerate_atoms(tree):
    """The structural atoms of the joint slot state.

    Rules: an empty external slot is always EMPTY; a nonempty external slot
    takes EMPTY or FIRE; an internal slot is forced to IND when either child
    slot left EMPTY is violated, otherwise ranges over EMPTY, CUT, DEP. DEP
    is kept even when one side interval is empty, where its probability
    vanishes; support_atoms applies that filter."""
    import itertools
    ext = external_slots(tree)
    options = [[EMPTY] if frag.empty else [EMPTY, FIRE] for _, frag in ext]
    atoms = []
    for combo in itertools.product(*options):
        partial = [{k: v for (k, _), v in zip(ext, combo)}]
        for (key, _I, _Il, _Ir) in internal_slots(tree):
            kl, kr = child_slot_keys(tree, key[1])
            grown = []
            for d in partial:
                if d[kl] != EMPTY or d[kr] != EMPTY:
                    d2 = dict(d)
                    d2[key] = IND
                    grown.append(d2)
                else:
                    for sym in (EMPTY, CUT, DEP):
                        d2 = dict(d)
                        d2[key] = sym
                        grown.append(d2)
            partial = grown
        atoms.extend(partial)
    return atoms


def atom_probability(tree, rates, atom):
    """Probability of one joint slot assignment, multiplying the conditional
    law of each slot given its children (the sampling order)."""
    p = rates.one
    for key, frag in external_slots(tree):
        if frag.empty:
            if atom[key] != EMPTY:
                return p * 0
        else:
            q = rates.rho_sum(frag)
            p = p * (q if atom[key] == FIRE else 1 - q)
    for (key, I, Il, Ir) in internal_slots(tree):
        kl, kr = child_slot_keys(tree, key[1])
        fired = atom[kl] != EMPTY or atom[kr] != EMPTY
        if fired:
            if atom[key] != IND:
                return 0 * p
            continue
        if atom[key] == IND:
            return 0 * p
        lam_a = (1 - rates.rho_sum(Il)) * (1 - rates.rho_sum(Ir))
        if atom[key] == EMPTY:
            p = p * (1 - rates.rho_sum(I)) / lam_a
        elif atom[key] == CUT:
            p = p * rates.rho(key[1]) / lam_a
        else:
            p = p * rates.rho_sum(Il) * rates.rho_sum(Ir) / lam_a
    return p


def support_atoms(tree, rates):
    """Structural atoms with strictly positive probability."""
    return [a for a in enumerate_atoms(tree)
            if atom_probability(tree, rates, a) > 0]


def aux_consistent(tree, x):
    """The consistency law: whenever an internal slot is anything but IND,
    every slot strictly inside its interval reads EMPTY."""
    for (key, _I, _Il, _Ir) in internal_slots(tree):
        if x[key] == IND:
            continue
        stack = list(child_slot_keys(tree, key[1]))
        while stack:
            k = stack.pop()
            if x[k] != EMPTY:
                return False
            if k[0] == "int":
                stack.extend(child_slot_keys(tree, k[1]))
    return True


def marginal_internal_law(tree, rates, alpha):
    """The four-point marginal law of an internal slot:
    (EMPTY, CUT, DEP, IND) probabilities."""
    _, I, Il, Ir = internal_slots(tree)[tree.postorder.index(alpha)]
    pe = 1 - rates.rho_sum(I)
    pc = rates.rho(alpha)
    pd = rates.rho_sum(Il) * rates.rho_sum(Ir)
    lam_a = (1 - rates.rho_sum(Il)) * (1 - rates.rho_sum(Ir))
    return {EMPTY: pe, CUT: pc, DEP: pd, IND: 1 - lam_a}


# -- coupled construction ----------------------------------------------------


def coupled_construction(tree, rates, t_max, seed=DEFAULT_SEED, index=0):
    """Drive the chain with fresh auxiliary samples, one per step.

    Per step the active slots are the internal slots of the minimal
    not-yet-removed vertices plus the external slots whose anchor vertex is
    already removed. CUT on an active internal slot breaks that link;
    FIRE on an active external slot, or DEP/IND on an active internal slot,
    is incompatible with the tree: the construction fails at that step, no
    removals from the failing step are applied, and the offending link is
    never resolved. Returns (Trajectory, failure_step or None).
    """
    if rates.mode != "discrete":
        raise ValueError("the coupled construction drives the discrete chain")
    rng = substream(seed, index)
    ratesf = rates.as_float()
    ext = external_slots(tree)
    removed = {}
    failure = None
    for step in range(1, int(t_max) + 1):
        x = _sample_aux(tree, ratesf, rng)
        exposed = [k for k, _ in ext if k[1] is None or k[1] in removed]
        minimal = tree.minimal_remaining(removed)
        bad = any(x[k] == FIRE for k in exposed) or \
            any(x[("int", a)] in (DEP, IND) for a in minimal)
        if bad:
            failure = step
            break
        for a in minimal:
            if x[("int", a)] == CUT:
                removed[a] = step
    times = {a: removed.get(a, INF) for a in range(1, tree.n + 1)}
    return Trajectory("discrete", tree.n, int(t_max), times), failure


def estimate_tree_prob_coupled(tree, rates, t, samples, seed=DEFAULT_SEED):
    """Matching-probability estimate from the coupled construction: a
    trajectory counts when it never failed and sits at the tree's state at
    time t. Companion route to estimate_tree_prob."""
    _check_sampling(samples)
    hits = 0
    target = frozenset(tree.G)
    for i in range(samples):
        traj, failure = coupled_construction(tree, rates, t, seed, i)
        if failure is None and traj.removed_at(t) == target:
            hits += 1
    p = hits / samples
    return p, math.sqrt(p * (1 - p) / samples)
