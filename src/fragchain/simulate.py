"""Monte Carlo side: direct simulation, tree matching, the auxiliary slot
process, and the coupled construction.

Determinism contract: every sampler takes integers (seed, index), seed >= 0
and 0 <= index < 2^64, and draws the stream of Random((seed << 64) + index),
stdlib MT19937, one per pair. Only raw random() uniforms are consumed; all
transformations (cumulative scan over a fragment's links, inverse-CDF
exponentials) are written out here, so identical seeds give bit-identical
trajectories on any platform. Draws for empty fragments and empty external
slots are skipped: they would hit probability-0 branches, so skipping
preserves the law.

Each sampler is one per-trajectory kernel. An estimator loops over its
range of keys, reseeding one C generator (_random.Random, whose seed builds
the state Random(key) does) and calling the kernel; a public sampler runs
the kernel once on a fresh generator, so concurrent callers share none.
The discrete kernel bisects the float rates' running sums (RateSpec.sums)
and returns the matched tree as an integer code. A batch counts codes and
decodes each distinct one once, cheap while trajectories share trees (short
chains) and codes stay a word or two. tests/test_simulate.py pins the streams.
"""

import _random
import collections
import functools
import itertools
import math
import random
from bisect import bisect_right

from .probabilities import _check_time

#: documented default seed for every CLI entry point and helper
DEFAULT_SEED = 1729

INF = math.inf


def _whole(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _key(seed, index):
    """Random's seed for one trajectory. A negative seed (Random seeds with
    |key|), an index past 64 bits or a non-int would replay another stream."""
    if not (_whole(seed) and _whole(index) and seed >= 0 and 0 <= index < 1 << 64):
        raise ValueError(f"need int seed >= 0 and index < 2**64, got {seed!r}, {index!r}")
    return (seed << 64) + index


def substream(seed, index=0):
    """Independent deterministic stream for one trajectory."""
    return random.Random(_key(seed, index))


def _keyed(seed, samples):
    """The keys of substream (seed, i) for i < samples, and the seed and
    random methods of one fresh C generator to draw them."""
    if not _whole(samples) or samples < 1:
        raise ValueError(f"samples must be an integer of at least 1, got {samples!r}")
    gen = _random.Random()
    return range(_key(seed, 0), _key(seed, samples - 1) + 1), gen.seed, gen.random


class Trajectory:
    """Removal times of every link up to a horizon; math.inf marks a link
    still intact at the horizon (or never resolved, for failed couplings)."""

    def __init__(self, mode, n, horizon, removal_time):
        self.mode = mode
        self.n = n
        self.horizon = horizon
        self.removal_time = removal_time

    def __repr__(self):
        return (f"Trajectory(mode={self.mode!r}, n={self.n!r}, "
                f"horizon={self.horizon!r}, removal_time={self.removal_time!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def removed_at(self, t):
        _within(t, self.horizon)
        return frozenset(a for a, tau in self.removal_time.items() if tau <= t)


def _within(t, horizon):
    """The horizon, if the state at time t lies within it."""
    if t > horizon:
        raise ValueError("time beyond the simulated horizon")
    return horizon


def _discrete_run(sums, n, steps, rand, times=None):
    """Per step, each fragment lo..hi, left to right, draws one uniform u
    and breaks the first alpha with u < rho(lo..alpha), found by
    bisect_right in the float rates' sums[lo], or survives. Writes each
    break's step to times[link], if given, and returns the matched tree's
    code: in link a's field of (n + 1).bit_length() bits, a's parent + 1
    (1 for the root), 0 while a is intact."""
    width = (n + 1).bit_length()
    code, frags = 0, [(1, n, 1)]
    for step in range(1, steps + 1):
        split = []
        for frag in frags:
            lo, hi, field = frag
            a = lo - 1 + bisect_right(sums[lo], rand(), 1, hi - lo + 2)
            if a > hi:
                split.append(frag)
                continue
            code += field << width * (a - 1)
            if times is not None:
                times[a] = step
            if a > lo:
                split.append((lo, a - 1, a + 1))
            if a < hi:
                split.append((a + 1, hi, a + 1))
        frags = split
        if not frags:
            break
    return code


def _decode(code, n):
    """The (link, parent) pairs, by link, of the tree a code holds."""
    width, pairs = (n + 1).bit_length(), []
    while code:  # top nonzero field first: one pass per break, not per link
        k = (code.bit_length() - 1) // width * width
        pairs.append((k // width + 1, (code >> k) - 1 or None))
        code &= (1 << k) - 1
    return tuple(reversed(pairs))


def simulate_discrete(rates, t_max, seed=DEFAULT_SEED, index=0):
    """One trajectory of the discrete chain up to step t_max."""
    if rates.mode != "discrete":
        raise ValueError("simulate_discrete needs discrete rates")
    steps = _check_time(t_max, "discrete")
    rand = _random.Random(_key(seed, index)).random
    times = dict.fromkeys(range(1, rates.n + 1), INF)
    _discrete_run(rates.as_float().sums, rates.n, steps, rand, times)
    return Trajectory("discrete", rates.n, steps, times)


def _continuous_run(rho, t_max, rand):
    """{link: removal time}, exponentials of the float rates rho censored past t_max."""
    taus = [-math.log1p(-rand()) / r for r in rho]
    return {a: tau if tau <= t_max else INF for a, tau in enumerate(taus, 1)}


def simulate_continuous(rates, t_max, seed=DEFAULT_SEED, index=0):
    """One trajectory of the continuous chain: every link gets an independent
    exponential removal time up front, censored past t_max."""
    if rates.mode != "continuous":
        raise ValueError("simulate_continuous needs continuous rates")
    rand = _random.Random(_key(seed, index)).random
    rho = [float(rates.rho(a)) for a in range(1, rates.n + 1)]
    t_max = _check_time(t_max, "continuous")
    return Trajectory("continuous", rates.n, t_max, _continuous_run(rho, t_max, rand))


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


def _tree_parents(tau, state):
    """Parents (None for the root) of the sorted state's links in the tree
    the removal times tau match, whose root is the earliest-broken link of
    each interval: the Cartesian tree of the times, built in one stack pass.
    Ties inside an interval are ambiguous and raise; neither chain makes
    them, since a fragment breaks at most one link per step."""
    parents = [None] * len(state)
    stack = []  # positions on the right spine, earliest-broken at the bottom
    for k, a in enumerate(state):
        last = None
        while stack and tau[state[stack[-1]]] > tau[a]:
            last = stack.pop()
        if stack and tau[state[stack[-1]]] == tau[a]:
            raise ValueError("tied removal times inside one fragment")
        if last is not None:
            parents[last] = a
        if stack:
            parents[k] = state[stack[-1]]
        stack.append(k)
    return parents


def classify_tree(traj, t):
    """The unique fragmentation tree the trajectory matches at time t."""
    from .fragments import FragTree

    state = sorted(traj.removed_at(t))
    pairs = list(zip(state, _tree_parents(traj.removal_time, state)))
    root = next((a for a, p in pairs if p is None), None)
    left = {p: a for a, p in pairs if p is not None and a < p}
    right = {p: a for a, p in pairs if p is not None and a > p}
    return FragTree(traj.n, root, left, right)


#: interns tree keys, so count dicts from repeated batches share them
_interned = functools.lru_cache(maxsize=4096)(lambda key: key)


def _estimate(hits, samples):
    p = hits / samples
    return p, math.sqrt(p * (1 - p) / samples)


def estimate_tree_prob(tree, rates, t, samples, seed=DEFAULT_SEED):
    """Monte Carlo estimate of the tree-matching probability.

    Returns (estimate, stderr) with the binomial standard error
    sqrt(p(1-p)/N). Trajectory index i uses substream (seed, i). A
    trajectory matches when the tree it matches, keyed as in
    batch_tree_counts, is this one, which is matches_tree.
    """
    if tree.n != rates.n:
        raise ValueError("tree and rates disagree on n")
    hits = batch_tree_counts(rates, t, samples, seed).get(tree.structure_key(), 0)
    return _estimate(hits, samples)


def estimate_state_prob(G, rates, t, samples, seed=DEFAULT_SEED):
    """Monte Carlo estimate of P(state = G at time t), same conventions."""
    if any(not 1 <= a <= rates.n for a in G):
        raise ValueError("links must lie in 1..n")
    counts = batch_tree_counts(rates, t, samples, seed)
    return _estimate(sum(c for (_, pairs), c in counts.items()
                         if {a for a, _ in pairs} == set(G)), samples)


def batch_tree_counts(rates, t, samples, seed=DEFAULT_SEED):
    """Classify a whole batch: counts keyed by the matched tree's
    structure_key(), in order of first match. One batch covers every
    (state, tree) pair at once."""
    keys, reseed, rand = _keyed(seed, samples)
    ratesf, counts = rates.as_float(), collections.defaultdict(int)
    if rates.mode == "discrete":
        sums, n = ratesf.sums, rates.n
        horizon = _within(t, _check_time(math.floor(t), "discrete"))
        for key in keys:
            reseed(key)
            counts[_discrete_run(sums, n, horizon, rand)] += 1
        decode = functools.partial(_decode, n=n)
    else:
        rho = [ratesf.rho(a) for a in range(1, rates.n + 1)]
        horizon = _within(t, _check_time(t, "continuous"))
        for key in keys:
            reseed(key)
            tau = _continuous_run(rho, horizon, rand)
            state = [a for a, x in tau.items() if x <= t]
            counts[tuple(zip(state, _tree_parents(tau, state)))] += 1
        decode = tuple
    return {_interned((rates.n, decode(key))): c for key, c in counts.items()}


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
    program, rand = _slot_program(tree, rates), _random.Random(_key(seed, index)).random
    return dict(zip(program[0], _draw_slots(program, rand)))


@functools.lru_cache(maxsize=16)
def _slot_program(tree, rates):
    """(keys, externals, internals, layout), slots numbered as in keys =
    slot_order(tree). externals: (slot, rho(J)) per nonempty external J.
    internals, bottom-up: (slot, child slots, lam_a, 1 - rho(I_a), that plus
    rho(a)). layout[a], for a vertex a or None (the root's parent): (slot
    of a, children of a, slots of the externals anchored at a)."""
    if tree.n != rates.n:
        raise ValueError("tree and rates disagree on n")
    ratesf = rates.as_float()
    ext = external_slots(tree)
    keys = tuple(slot_order(tree))
    slot = {k: i for i, k in enumerate(keys)}
    externals = tuple((slot[k], ratesf.rho_run(frag.lo, frag.hi))
                      for k, frag in ext if not frag.empty)
    internals = []
    for a in tree.postorder:
        kl, kr = child_slot_keys(tree, a)
        lam_a, law = _internal_law(tree, ratesf, a)
        internals.append((slot["int", a], slot[kl], slot[kr], lam_a, law[EMPTY],
                          law[EMPTY] + law[CUT]))
    layout = {a: (slot.get(("int", a)),
                  tuple(c for c in tree.G if tree.parent.get(c) == a),
                  tuple(slot[k] for k, _ in ext if k[1] == a))
              for a in (None,) + tree.G}
    return keys, externals, tuple(internals), layout


def _draw_slots(program, rand):
    """One joint slot sample as a list in slot order: the same draws, in the
    same order and against the same floats, as the slot-by-slot law."""
    x = [EMPTY] * len(program[0])
    for s, fire in program[1]:
        if rand() < fire:
            x[s] = FIRE
    for s, left, right, lam_a, still, cut in program[2]:
        if x[left] != EMPTY or x[right] != EMPTY:
            x[s] = IND
            continue
        u = rand() * lam_a
        if u >= still:
            x[s] = CUT if u < cut else DEP
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
    ext = external_slots(tree)
    options = [[EMPTY] if frag.empty else [EMPTY, FIRE] for _, frag in ext]
    atoms = []
    for combo in itertools.product(*options):
        partial = [{k: v for (k, _), v in zip(ext, combo)}]
        for (key, _I, _Il, _Ir) in internal_slots(tree):
            kl, kr = child_slot_keys(tree, key[1])
            partial = [{**d, key: sym} for d in partial for sym in
                       ((IND,) if d[kl] != EMPTY or d[kr] != EMPTY else (EMPTY, CUT, DEP))]
        atoms.extend(partial)
    return atoms


def atom_probability(tree, rates, atom):
    """Probability of one joint slot assignment, multiplying the conditional
    law of each slot given its children (the sampling order)."""
    p = rates.one
    for key, frag in external_slots(tree):  # an empty run has rho 0 and stay 1
        law = {EMPTY: rates.stay(frag.lo, frag.hi), FIRE: rates.rho_run(frag.lo, frag.hi)}
        p = p * law.get(atom[key], 0)
    for a in tree.postorder:
        kl, kr = child_slot_keys(tree, a)
        sym = atom["int", a]
        fired = atom[kl] != EMPTY or atom[kr] != EMPTY
        if fired != (sym == IND):  # IND exactly when a child slot fired
            return 0 * p
        if not fired:
            lam_a, law = _internal_law(tree, rates, a)
            p = p * law.get(sym, 0) / lam_a
    return p


def support_atoms(tree, rates):
    """Structural atoms with strictly positive probability."""
    return [a for a in enumerate_atoms(tree)
            if atom_probability(tree, rates, a) > 0]


def aux_consistent(tree, x):
    """The consistency law: whenever an internal slot is anything but IND,
    every slot strictly inside its interval reads EMPTY."""
    for a in tree.postorder:
        if x[("int", a)] == IND:
            continue
        stack = list(child_slot_keys(tree, a))
        while stack:
            k = stack.pop()
            if x[k] != EMPTY:
                return False
            if k[0] == "int":
                stack.extend(child_slot_keys(tree, k[1]))
    return True


def _internal_law(tree, rates, alpha):
    """lam_a, the chance that neither side of I_alpha breaks, and the
    marginal law of alpha's internal slot."""
    lo, hi = tree.lo[alpha], tree.hi[alpha]
    lam_a = rates.stay(lo, alpha - 1) * rates.stay(alpha + 1, hi)
    dep = rates.rho_run(lo, alpha - 1) * rates.rho_run(alpha + 1, hi)
    return lam_a, {EMPTY: rates.stay(lo, hi), CUT: rates.rho(alpha), DEP: dep,
                   IND: 1 - lam_a}


def marginal_internal_law(tree, rates, alpha):
    """The four-point marginal law of an internal slot:
    (EMPTY, CUT, DEP, IND) probabilities."""
    return _internal_law(tree, rates, alpha)[1]


# -- coupled construction ----------------------------------------------------


def _coupled_program(tree, rates):
    if rates.mode != "discrete":
        raise ValueError("the coupled construction drives the discrete chain")
    return _slot_program(tree, rates)


def _coupled_run(program, steps, rand):
    """The coupled construction's steps: (removed, failure), the step each
    removed link broke at and the failing step or None."""
    layout = program[3]
    minimal, exposed = list(layout[None][1]), list(layout[None][2])
    removed = {}
    for step in range(1, steps + 1):
        x = _draw_slots(program, rand)
        for s in exposed:
            if x[s] == FIRE:
                return removed, step
        cut = []
        for a in minimal:
            sym = x[layout[a][0]]
            if sym == CUT:
                cut.append(a)
            elif sym != EMPTY:  # DEP or IND
                return removed, step
        for a in cut:
            removed[a] = step
            minimal.remove(a)
            minimal += layout[a][1]
            exposed += layout[a][2]
    return removed, None


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
    program = _coupled_program(tree, rates)
    rand = _random.Random(_key(seed, index)).random
    removed, failure = _coupled_run(program, _check_time(t_max, "discrete"), rand)
    times = {a: removed.get(a, INF) for a in range(1, tree.n + 1)}
    return Trajectory("discrete", tree.n, t_max, times), failure


def estimate_tree_prob_coupled(tree, rates, t, samples, seed=DEFAULT_SEED):
    """Matching-probability estimate from the coupled construction: a
    trajectory counts when it never failed and sits at the tree's state at
    time t. Companion route to estimate_tree_prob."""
    program = _coupled_program(tree, rates.as_float())
    steps, size = _within(t, _check_time(math.floor(t), "discrete")), len(tree.G)
    keys, reseed, rand = _keyed(seed, samples)
    hits = 0
    for key in keys:
        reseed(key)
        removed, failure = _coupled_run(program, steps, rand)
        hits += failure is None and len(removed) == size
    return _estimate(hits, samples)
