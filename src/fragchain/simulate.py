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
Both batch kernels return the matched tree as one integer code: the
discrete one as it breaks links, walking fragment records that carry their
run's total and RateSpec.sums row, the continuous one by a Cartesian-tree
pass over its removal times. A batch counts codes and decodes each distinct
one once. The slot samplers' program reads its law from the float rates;
the tree keeps its last one, and a hot coupled estimate a kernel generated
over its order ideals. tests/test_simulate.py pins the streams.
"""

import _random
import collections
import functools
import itertools
import math
import random
from bisect import bisect_right

from .errors import _is_int, _links, _need

#: documented default seed for every CLI entry point and helper
DEFAULT_SEED = 1729
#: trajectory-steps per order ideal a tree's coupled estimates run on the
#: slot loop before its kernel is generated, about what generating costs
COUPLED_HOT_STEPS = 128
#: most order ideals of a tree with a generated coupled kernel
COUPLED_MAX_IDEALS = 32

INF = math.inf


def _key(seed, index):
    """Random's seed for one trajectory. A negative seed (Random seeds with
    |key|), an index past 64 bits or a non-int would replay another stream."""
    if not (_is_int(seed) and _is_int(index) and seed >= 0 and 0 <= index < 1 << 64):
        raise ValueError(f"need int seed >= 0 and index < 2**64, got {seed!r}, {index!r}")
    return (seed << 64) + index


def substream(seed, index=0):
    """Independent deterministic stream for one trajectory."""
    return random.Random(_key(seed, index))


def _keyed(seed, samples):
    """The keys of substream (seed, i) for i < samples, and the seed and
    random methods of one fresh C generator to draw them."""
    if not _is_int(samples) or samples < 1:
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


def _horizon(rates, mode, what, t, tree=None):
    """A batch's gate: the horizon of time t, in discrete time the steps up
    to t, which must reach t (the state at 2.5 lies past 2 steps)."""
    if mode == "continuous":
        return _need(rates, mode, what, t, tree)
    whole = isinstance(t, float) and math.isfinite(t)
    return _within(t, _need(rates, mode, what, math.floor(t) if whole else t, tree))


def _discrete_run(sums, n, steps, rand, times=None):
    """Per step, each fragment lo..hi, left to right, draws one uniform u
    and survives if u >= rho(lo..hi), else breaks the first alpha with u <
    rho(lo..alpha): bisect_right in the float rates' sums[lo], which ends
    past hi exactly when u >= rho(lo..hi). A fragment is the record
    (rho(lo..hi), sums[lo], lo, hi, field); a right side reads its row only
    if it will draw. Writes each break's step to times[link], if given, and
    returns the matched tree's code: in link a's field of (n + 1).bit_length()
    bits, a's parent + 1 (1 for the root), 0 while a is intact."""
    width, row = (n + 1).bit_length(), sums[1]
    code, frags = 0, [(row[n], row, 1, n, 1)]
    for step in range(1, steps + 1):
        split = []
        for frag in frags:
            top, row, lo, hi, field = frag
            u = rand()
            if u >= top:
                split.append(frag)
                continue
            j = bisect_right(row, u, 1)
            a = lo - 1 + j
            code += field << width * (a - 1)
            if times is not None:
                times[a] = step
            if a > lo:
                split.append((row[j - 1], row, lo, a - 1, a + 1))
            if a < hi and step < steps:
                right = sums[a + 1]
                split.append((right[hi - a], right, a + 1, hi, a + 1))
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
    steps = _need(rates, "discrete", "simulate_discrete", t_max)
    rand = _random.Random(_key(seed, index)).random
    times = dict.fromkeys(range(1, rates.n + 1), INF)
    _discrete_run(rates.as_float().sums, rates.n, steps, rand, times)
    return Trajectory("discrete", rates.n, steps, times)


def _continuous_run(rho, rand):
    """The removal times of links 1..n, exponentials of the float rates rho."""
    return [-math.log1p(-rand()) / r for r in rho]


def simulate_continuous(rates, t_max, seed=DEFAULT_SEED, index=0):
    """One trajectory of the continuous chain: every link gets an independent
    exponential removal time up front, censored past t_max."""
    t_max = _need(rates, "continuous", "simulate_continuous", t_max)
    rand = _random.Random(_key(seed, index)).random
    rho = [float(rates.rho(a)) for a in range(1, rates.n + 1)]
    taus = _continuous_run(rho, rand)
    return Trajectory("continuous", rates.n, t_max,
                      {a: tau if tau <= t_max else INF for a, tau in enumerate(taus, 1)})


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


def _tree_code(tau, t):
    """The code, as _discrete_run's, of the tree that the removal times tau
    of links 1..n match at time t, whose root is the earliest-broken link of
    each interval: the Cartesian tree of the times up to t, built in one
    stack pass. Ties inside an interval are ambiguous and raise; neither
    chain makes them, since a fragment breaks at most one link per step."""
    width = (len(tau) + 1).bit_length()
    code, stack = 0, []  # (time, link) on the right spine, earliest at the bottom
    for a, x in enumerate(tau, 1):
        if x > t:
            continue
        last = None
        while stack and stack[-1][0] > x:
            last = stack.pop()[1]
        top = stack[-1][1] if stack else 0  # a's parent for now; 0 for the root
        if top and stack[-1][0] == x:
            raise ValueError("tied removal times inside one fragment")
        if last is not None:  # last's parent moves from top to a
            code += (a - top) << width * (last - 1)
        code += (top + 1) << width * (a - 1)
        stack.append((x, a))
    return code


def classify_tree(traj, t):
    """The unique fragmentation tree the trajectory matches at time t."""
    from .fragments import FragTree

    _within(t, traj.horizon)
    tau = traj.removal_time
    pairs = _decode(_tree_code([tau[a] for a in range(1, traj.n + 1)], t), traj.n)
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
    _need(rates, rates.mode, "estimate_tree_prob", tree=tree)
    hits = batch_tree_counts(rates, t, samples, seed).get(tree.structure_key(), 0)
    return _estimate(hits, samples)


def estimate_state_prob(G, rates, t, samples, seed=DEFAULT_SEED):
    """Monte Carlo estimate of P(state = G at time t), same conventions."""
    g = set(_links(G, rates.n))
    counts = batch_tree_counts(rates, t, samples, seed)
    return _estimate(sum(c for (_, pairs), c in counts.items()
                         if {a for a, _ in pairs} == g), samples)


def batch_tree_counts(rates, t, samples, seed=DEFAULT_SEED):
    """Classify a whole batch: counts keyed by the matched tree's
    structure_key(), in order of first match. One batch covers every
    (state, tree) pair at once."""
    keys, reseed, rand = _keyed(seed, samples)
    horizon = _horizon(rates, rates.mode, "batch_tree_counts", t)
    ratesf, n, counts = rates.as_float(), rates.n, collections.defaultdict(int)
    if rates.mode == "discrete":
        sums = ratesf.sums
        for key in keys:
            reseed(key)
            counts[_discrete_run(sums, n, horizon, rand)] += 1
    else:
        rho = [ratesf.rho(a) for a in range(1, n + 1)]
        for key in keys:
            reseed(key)
            counts[_tree_code(_continuous_run(rho, rand), horizon)] += 1
    return {_interned((n, _decode(code, n))): c for code, c in counts.items()}


# -- auxiliary slot process --------------------------------------------------

#: slot symbols: externals take EMPTY or FIRE; internals take EMPTY, CUT
#: (the slot's own link breaks), DEP (both sides break together), or IND
#: (some inner slot already fired, the interval is no longer one fragment)
EMPTY, FIRE, CUT, DEP, IND = "empty", "fire", "cut", "dep", "ind"


def external_slots(tree):
    """(key, fragment) for the childless sides, in left-to-right order. Keys
    are ("ext", vertex, side); the empty tree has the single root slot."""
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
    _need(rates, "discrete", "the auxiliary slot process", tree=tree)
    program = _slot_program(tree, rates)
    rand = _random.Random(_key(seed, index)).random
    return dict(zip(program[0], _draw_slots(program, rand)))


def _slot_program(tree, rates):
    """(keys, externals, internals, vertex) of the float twin of rates,
    slots numbered as in keys = slot_order(tree). externals: (slot, rho(J))
    per nonempty external J. internals, bottom-up: (slot, child slots, lam_a,
    1 - rho(I_a), that plus rho(a)), from _internal_law. vertex: internal
    slot -> its vertex. The tree keeps the last one with its float rates'
    scaled, matched by identity as in _run, not the RateSpec (nor its sums).
    Callers check n."""
    rates = rates.as_float()
    kept = tree._slots  # read once, whatever another thread stores
    if kept is not None and kept[0] is rates.scaled:
        return kept[1]
    ext = external_slots(tree)
    keys = tuple(slot_order(tree))
    slot = {k: i for i, k in enumerate(keys)}
    externals = tuple((slot[k], rates.rho_run(f.lo, f.hi)) for k, f in ext if not f.empty)
    internals = []
    for a in tree.postorder:
        kl, kr = child_slot_keys(tree, a)
        lam_a, law = _internal_law(tree, rates, a)
        internals.append((slot["int", a], slot[kl], slot[kr],
                          lam_a, law[EMPTY], law[EMPTY] + law[CUT]))
    program = keys, externals, tuple(internals), {slot["int", a]: a for a in tree.postorder}
    tree._slots = rates.scaled, program
    return program


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
    _need(rates, "discrete", "the auxiliary slot process", tree=tree)
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
    quiet = {}  # internal slot key: it and every slot inside read EMPTY
    for a in tree.postorder:
        inside = all(quiet[k] if k[0] == "int" else x[k] == EMPTY
                     for k in child_slot_keys(tree, a))
        if not inside and x["int", a] != IND:
            return False
        quiet["int", a] = inside and x["int", a] == EMPTY
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
    _need(rates, "discrete", "the auxiliary slot process", tree=tree)
    return _internal_law(tree, rates, alpha)[1]


# -- coupled construction ----------------------------------------------------


def _coupled_run(program, steps, rand):
    """The coupled construction's steps: (removed, failure), the step each
    removed link broke at and the failing step or None. A step fails at a
    fired external and at a DEP or IND of a vertex not removed; a CUT below
    the minimal ones leaves a minimal vertex IND."""
    removed, alive = {}, dict(program[3])  # internal slots of vertices not removed
    for step in range(1, steps + 1):
        x = _draw_slots(program, rand)
        if FIRE in x:
            return removed, step
        cut = []
        for s in alive:
            if x[s] != EMPTY:
                if x[s] != CUT:
                    return removed, step
                cut.append(s)
        for s in cut:
            removed[alive.pop(s)] = step
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
    steps = _need(rates, "discrete", "the coupled construction", t_max, tree)
    program = _slot_program(tree, rates)
    rand = _random.Random(_key(seed, index)).random
    removed, failure = _coupled_run(program, steps, rand)
    times = {a: removed.get(a, INF) for a in range(1, tree.n + 1)}
    return Trajectory("discrete", tree.n, t_max, times), failure


def _coupled_kernel(tree, work, program):
    """run(steps, rand), 1 for a hit and 0 for a miss, from the tree's kernel
    and its slot program's laws, once its coupled estimates have run
    COUPLED_HOT_STEPS trajectory-steps per order ideal (work more now);
    else None, as always past COUPLED_MAX_IDEALS. The kernel has a block of
    steps per order ideal R of removed vertices, by size. A step draws as
    _draw_slots does against the same floats, returns 0 at a fired external
    or a nonempty slot outside R but a minimal vertex's CUT, draws a slot of
    R only when its children read EMPTY, and goes on to R and the CUTs."""
    kept = tree._coupled  # [trajectory-steps, ideals (None past the cap), kernel]
    if kept is None:
        ideals = [frozenset([None])]  # None, the root's parent, is always removed
        for v in tree.vertices:
            ideals += [R | {v} for R in ideals if tree.parent.get(v) in R]
            if len(ideals) > COUPLED_MAX_IDEALS:
                ideals = None
                break
        kept = tree._coupled = [0, ideals and sorted(ideals, key=len), None]
    kept[0] += work
    if kept[2] or not kept[1] or kept[0] < COUPLED_HOT_STEPS * len(kept[1]):
        return kept[2] and kept[2](program[1], program[2])
    fires = [f"f{i}" for i, f in enumerate(f for f in tree.externals() if not f.empty)]
    ideals, post = kept[1], tree.postorder
    lines = ["def kernel(externals, internals):",
             f"    [{''.join(f'(_, {f}), ' for f in fires)}] = externals",
             f"    [{''.join(f'(*_, l{i}, s{i}, c{i}), ' for i in range(len(post)))}]"
             " = internals",
             "    def run(steps, rand):", "        u = r = 0"]
    for k, R in enumerate(ideals):
        low = [v for v in post if v not in R and tree.parent.get(v) in R]  # minimal
        body = ["u += 1"] + [f"if rand() < {f}: return 0" for f in fires]
        for i, v in enumerate(post):
            draw = f"rand() * l{i} >= s{i}"
            body.append(f"if (z{v} := (x := rand() * l{i}) >= s{i}) and x >= c{i}: return 0"
                        if v in low else f"if {draw}: return 0" if v not in R else
                        f"z{v} = {''.join(f'z{c} or ' for c in tree.children[v])}{draw}")
        if low:
            to = [ideals.index(R | {v for j, v in enumerate(low) if m >> j & 1})
                  for m in range(1 << len(low))]
            cut = " + ".join(f"{1 << j} * z{v}" for j, v in enumerate(low))
            body += [f"if {' or '.join(f'z{v}' for v in low)}: r = {to}[{cut}]; break"]
        lines += [f"        if r == {k}:", "            while u < steps:"]
        lines += ["                " + line for line in body]
        lines += ["            else:", "                return 0"] * bool(low)
    exec(compile("\n".join(lines + ["        return 1", "    return run"]),
                 f"<coupled kernel of {len(ideals)} ideals>", "exec"), namespace := {})
    kept[2] = namespace["kernel"]
    return kept[2](program[1], program[2])


def estimate_tree_prob_coupled(tree, rates, t, samples, seed=DEFAULT_SEED):
    """Matching-probability estimate from the coupled construction: a
    trajectory counts when it never failed and sits at the tree's state at
    time t. Companion route to estimate_tree_prob."""
    steps = _horizon(rates, "discrete", "the coupled construction", t, tree)
    program, size = _slot_program(tree, rates), len(tree.G)
    keys, reseed, rand = _keyed(seed, samples)
    run = _coupled_kernel(tree, samples * (steps > 0), program)  # a step at least each
    if run is None:
        def run(steps, rand):
            removed, failure = _coupled_run(program, steps, rand)
            return failure is None and len(removed) == size
    hits = 0
    for key in keys:
        reseed(key)
        hits += run(steps, rand)
    return _estimate(hits, samples)
