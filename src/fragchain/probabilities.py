"""Exact distributions of the chain fragmentation process.

Links 1..n break one per fragment per step (discrete chain) or independently
at exponential rates (continuous chain). The state is the set G of broken
links. Discrete-chain probabilities have three routes:

* the interval recursion, the default (method="auto"): once the first link a
  of an intact interval I breaks, the two sides I' and I'' evolve
  independently, so
  f_I(t) = lambda_I f_I(t-1) + sum over a in G of rho(a) f_I'(t-1) f_I''(t-1).
  A program per table or state lists each interval state it reaches once
  (O(|G|^2) for a state) and advances them all a step at a time, in memory
  that does not grow with t. Every term is nonnegative, so float results
  are accurate in relative terms. A program that has run HOT_STEPS steps
  over its calls, about what generating costs, steps through generated
  straight-line code, one function per mode (_generate): the loop's
  operations in its order, so results keep their bits, but only those its
  outputs read. A one-shot call never pays for it, and a program of more
  than HOT_MAX_TERMS states plus breaks is never generated. A hot program
  also keeps the step arguments of the last rates it ran (_run), O(n)
  numbers; that was about a third of a hot n = 6 table call. With the root
  of every interval fixed the recursion gives one tree's probability, by a
  program of one state per vertex, which the loop scans a block of steps
  at a time;
* the paper's route (method="direct"): a sum over the Catalan(|G|)
  fragmentation trees of G, each an inclusion-exclusion sum over the cut
  sets of its edges, with the waiting-rate denominators of lambda_diff, by
  the stump-set product rule (_stump_sums) over the states of the same
  programs: a tree's vertices, or every run of G (of the chain, for a
  table) with its trees summed and none built. Only this route and tree
  enumeration are subject to the budget (BudgetError);
* oracles: the transition-matrix power (discrete) and the uniformised
  generator exponential (continuous), built straight from the one-step
  definition and kept for comparison only. Both multiply a sparse vector by
  sparse dict rows in the standard library; every term is nonnegative.

Discrete-chain quantities support an exact rational mode: with Fraction
rates every route is exact, the interval recursion on scaled ints (_run),
the others in Fraction arithmetic. Float mode sums every list of terms,
the paper's alternating sums among them, by math.fsum, correctly rounded;
rates add in ascending link order, so floats keep their bits on any Python.

Key quantity: for a removed set S inside an interval I, lambda^I_S is the
probability that one step changes nothing, the product over the fragments J
of I left by S of (1 - rho(J)), with rho(empty) = 0. The lambda^L_G are also
the eigenvalues of the one-step transition matrix, which is triangular when
states are sorted by size.
"""

import functools
import math
import sys
from array import array
from collections import Counter
from itertools import accumulate, combinations
from fractions import Fraction

# fragments is imported where it is used: only lambda_value and the
# transition matrix read it
from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, _is_int, _links, _need

MATRIX_MAX_N = 12
#: largest full table of the interval recursion, whose program doubles per
#: link: some 2^(n+2) states, 164 MiB max RSS at n = 16
TABLE_MAX_N = 16
GENERATOR_MAX_N = 10
GENERATOR_MAX_RT = 10_000
#: steps a program runs interpreted, over all its calls, before _run
#: generates its kernel: about as many as the generation costs
HOT_STEPS = 100
#: largest program generated, in states plus breaks: tables up to n = 7 and
#: single states up to |G| = 21. Generating a kernel peaks at some 3 KiB per
#: term in float mode and 4 KiB in exact mode (12 MiB for an n = 8 table)
HOT_MAX_TERMS = 2**11


class _Rows(dict):
    """RateSpec.sums: row lo, [0, p[lo], p[lo] + p[lo + 1], ...], made on its
    first read; a lo outside 1..n + 1 is a KeyError, never a row of p[0]."""

    def __init__(self, p):
        self.p = p

    def __missing__(self, lo):
        if not (_is_int(lo) and 0 < lo <= len(self.p)):
            raise KeyError(lo)
        return self.setdefault(lo, [0, *accumulate(self.p[lo:])])


class RateSpec:
    """Validated per-link rates.

    mode "discrete": rho are per-step breaking probabilities, all strictly
    positive with total at most 1 (equality allowed). mode "continuous":
    rho are exponential rates, strictly positive. The total must be finite
    as a float. Fraction (or int) rates switch the discrete formulas into
    exact arithmetic. scaled = (D, p) is the rates' integer form, built once:
    rho(a) = p[a]/D and p[0] = 1, with D the lcm of the rate denominators
    (1.0 for float rates). Every sum over a run of links, and every stay
    1 - rho(run), is read from one table, sums, whose row for a first link
    is built on its first read. as_float() builds the float twin once and
    keeps it, so caches keyed by it hit.
    """

    def __init__(self, mode, rho):
        if mode not in ("discrete", "continuous"):
            raise ValueError(f"unknown mode {mode!r}")
        rho = dict(rho)
        n = len(rho)
        # True == 1, so the int rule comes before the comparison of key sets
        if n == 0 or not all(map(_is_int, rho)) or set(rho) != set(range(1, n + 1)):
            raise ValueError("rates must cover links 1..n exactly")
        self.exact = all(isinstance(v, (int, Fraction)) for v in rho.values())
        for k, v in rho.items():
            if isinstance(v, bool) or not v > 0:
                raise ValueError(f"rate of link {k} must be a strictly positive number")
        p = [rho[a] for a in range(1, n + 1)]
        D = math.lcm(*(v.denominator for v in p)) if self.exact else 1.0
        p = [v.numerator * (D // v.denominator) for v in p] if self.exact else p
        try:
            *_, total = accumulate(p)  # in link order, as the run sums add
        except OverflowError:  # an int past the float range met a float
            total = math.inf
        if not (Fraction(total, D) if self.exact else total) <= sys.float_info.max:
            raise ValueError("rates and their total must be finite as floats")
        if (mode == "continuous" or not self.exact) and min(map(float, rho.values())) <= 0:
            raise ValueError(f"{mode} rates must be positive as floats")
        if mode == "discrete" and total > (D if self.exact else 1 + 1e-12):
            raise ValueError("discrete rates must sum to at most 1")
        self.scaled = D, (1, *p)
        self.mode = mode
        self.n = n
        self._rho = rho
        # once, not per as_float call; a spec keeping itself would be a cycle
        self._all_float = all(isinstance(v, float) for v in rho.values())
        self._float = None

    def rho(self, alpha):
        return self._rho[alpha]

    def rho_sum(self, links):
        """Sum of rates over any set of links, in ascending link order."""
        s = 0
        for a in sorted(links):
            s += self._rho[a]
        return s

    @functools.cached_property
    def sums(self):
        """sums[lo][k] = p[lo] + ... + p[lo + k - 1] in the integer form, for
        1 <= lo <= n + 1, added in link order (not by the built-in sum, which
        compensates floats from 3.12 on); sums[lo][0] = 0 is the empty run."""
        return _Rows(self.scaled[1])

    def rho_run(self, lo, hi):
        """rho(lo..hi) in the rates' own arithmetic; 0 for hi = lo - 1."""
        s = self.sums[lo][hi - lo + 1]
        return Fraction(s, self.scaled[0]) if self.exact else s

    def scaled_stay(self, lo, hi):
        """D - (p[lo] + ... + p[hi]) from sums, clamped at 0: float rates
        summing to 1 can leave a negative rounding residue."""
        D = self.scaled[0]
        return max(D - self.sums[lo][hi - lo + 1], D * 0)

    def stay(self, lo, hi):
        """1 - rho(lo..hi), clamped at 0, in the rates' own arithmetic."""
        s = self.scaled_stay(lo, hi)
        return Fraction(s, self.scaled[0]) if self.exact else s

    @property
    def one(self):
        return Fraction(1) if self.exact else 1.0

    def as_float(self):
        if self._all_float:
            return self
        if self._float is None:
            self._float = RateSpec(self.mode, {k: float(v) for k, v in self._rho.items()})
        return self._float

    def to_dict(self):
        return {"mode": self.mode, "n": self.n,
                "rho": {str(k): self._rho[k] for k in range(1, self.n + 1)}}

    def __repr__(self):
        return f"RateSpec({self.mode!r}, n={self.n}, exact={self.exact})"


def random_rates(n, rng, mode="discrete", total=1.0, exact=False):
    """Strictly positive random rates; discrete ones are normalized to the
    given total. Exact mode draws small integer numerators so Fraction
    arithmetic downstream stays fast."""
    if mode == "continuous":
        return RateSpec(mode, {a: 0.2 + 1.8 * rng.random() for a in range(1, n + 1)})
    nums = [rng.randint(1, 9) for _ in range(n)]
    s = sum(nums)
    if exact:
        tot = Fraction(total) if not isinstance(total, float) else Fraction(str(total))
        return RateSpec(mode, {a + 1: Fraction(nums[a]) * tot / s for a in range(n)})
    return RateSpec(mode, {a + 1: nums[a] * float(total) / s for a in range(n)})


# -- lambda machinery ------------------------------------------------------


def lam_interval(rates, removed, lo, hi):
    """lambda^{[lo,hi]}_removed: product over the nonempty fragments J left
    by the sorted removed links of (1 - rho(J)), left to right."""
    acc, prev = rates.one, lo
    for r in removed:
        if not prev <= r <= hi:
            raise ValueError("removed links must be sorted and lie inside the interval")
        if prev < r:
            acc = acc * rates.stay(prev, r - 1)
        prev = r + 1
    return acc * rates.stay(prev, hi) if prev <= hi else acc


def lambda_value(rates, G, interval=None):
    """Public lambda: no-change probability of one step from state G inside
    the interval (defaults to the whole chain). Discrete mode only."""
    _need(rates, "discrete", "the discrete-chain lambda")
    from .fragments import Fragment

    if interval is None:
        lo, hi = 1, rates.n
    elif isinstance(interval, Fragment):
        lo, hi = interval.lo, interval.hi
    else:
        lo, hi = interval
    if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi + 1 <= rates.n + 1):
        raise ValueError("the interval must be ints lo..hi inside 1..n")
    return lam_interval(rates, sorted(_links(G, rates.n)), lo, hi)


def lambda_diff(rates, removed, lo, hi):
    """lambda^I_removed - lambda^I_empty for I = [lo, hi], the difference of
    the two no-change probabilities (the whole-interval one unclamped).
    Discrete mode only. The value is strictly positive for nonempty removed
    sets under valid rates; a nonpositive result raises ConsistencyError."""
    _need(rates, "discrete", "the discrete-chain lambda")
    val = lam_interval(rates, removed, lo, hi) - (1 - rates.rho_run(lo, hi))
    if removed and not val > 0:
        raise ConsistencyError(
            f"nonpositive waiting-rate denominator {val!r} on [{lo},{hi}]")
    return val


# -- closed forms ----------------------------------------------------------


def dist_continuous(G, rates, t):
    """P(state = G at time t) for the continuous chain, closed form."""
    _need(rates, "continuous", "dist_continuous", t)
    g = set(_links(G, rates.n))
    p = 1.0
    for a in range(1, rates.n + 1):
        r = float(rates.rho(a))
        p *= -math.expm1(-r * t) if a in g else math.exp(-r * t)
    return p


def _clamp_prob(raw, exact):
    if exact:
        if not 0 <= raw <= 1:
            raise ConsistencyError(f"exact probability {raw!r} outside [0, 1]")
        return raw
    if raw < -1e-10 or raw > 1 + 1e-10:
        raise ConsistencyError(f"probability {raw!r} outside [0, 1] past tolerance")
    return min(1.0, max(0.0, raw))


def _stump_sums(prog, w, exact, most):
    """The paper's inclusion-exclusion over the cut sets H of a tree's edges
    by stump set, for each inner state i of at most `most` links of a
    program, summed over its trees: psi[i] = {S: A_S}, A_S the sum over the
    trees and H with root component S of (-1)^|H| prod over the vertices a
    of w(key, a, C_a), C_a a's component below a (a mask by link), key the
    interval of a's state. As the pruning poset factors, Psi_i(C) = sum
    over the breaks a of i of w(key, a, C) prod over a's inner sides s of
    [C meets s ? Psi_s(C within s) : -sum of Psi_s]. Sides have higher
    indices, so the walk runs from the last inner state down."""
    ranks, ks, inner = prog.ranks, prog.ks, len(prog.ranks[-1][0])
    psi, cuts = [None] * inner, [None] * inner
    total = sum if exact else math.fsum
    for i in reversed(range(inner)):
        if ks[i] > most:
            continue
        key = prog.intervals[prog.iv[i]]
        roots = [(links[i], ls[i], rs[i]) for links, ls, rs in ranks if i < len(links)]
        terms = {}
        for a, l, r in roots:
            acc = [(1 << (a - 1), 1)]
            for s in (l, r):
                if s < inner:
                    acc = [(m | mc, x * y) for m, x in acc
                           for mc, y in [(0, cuts[s]), *psi[s].items()]]
            if len(roots) == 1:  # one root, as a tree's vertex: written directly
                terms = {m: w(key, a, m) * x for m, x in acc}
            else:
                for m, x in acc:
                    terms.setdefault(m, []).append(w(key, a, m) * x)
        psi[i] = terms if len(roots) == 1 else {m: total(xs) for m, xs in terms.items()}
        cuts[i] = -total(psi[i].values())
    return psi


def _paper_probs(prog, rates, t):
    """The paper's formula at time t for each output of a program: the sum
    over stump sets S of A_S (_stump_sums) times the chance that S, and
    nothing else, has broken. Discrete: weights rho(a) / lambda_diff over
    a's state, terms lambda_S^t - lambda_empty^t, an exact 0 below the
    least tree height. Continuous: weights rho(a) / R(C), the total rate of
    a's component, terms (1 - e^(-R_S t)) e^(-(R - R_S) t). Intact outputs
    are lambda_empty^t or e^(-R t), the others verified and clamped."""
    n, inner, discrete = rates.n, len(prog.ranks[-1][0]), rates.mode == "discrete"
    exact = rates.exact and discrete
    if discrete:
        p0 = lam_interval(rates, [], 1, n) ** t
        diff = functools.cache(lambda key, m: lambda_diff(rates, _state_links(m), *key))
        w = lambda key, a, m: rates._rho[a] / diff(key, m)
        term = lambda s: lam_interval(rates, _state_links(s), 1, n) ** t - p0
    else:
        total_f = float(rates.rho_run(1, n))
        rho, p0 = rates.as_float()._rho, math.exp(-total_f * t)
        rate = functools.cache(lambda m: math.fsum(map(rho.__getitem__, _state_links(m))))
        w = lambda key, a, m: rho[a] / rate(m)
        term = lambda s: -math.expm1(-rate(s) * t) * math.exp(-(total_f - rate(s)) * t)
    live = [o for o in prog.outs if o < inner and (t >= prog.ks[o].bit_length() or not discrete)]
    psi = _stump_sums(prog, w, exact, max(prog.ks[o] for o in live)) if live else []
    stumps = {s for o in live for s in psi[o]}
    terms, total = dict(zip(stumps, map(term, stumps))), sum if exact else math.fsum
    vals = {o: _clamp_prob(total([terms[s] * c for s, c in psi[o].items()]), exact) for o in live}
    return [p0 if o >= inner else vals.get(o, rates.one * 0) for o in prog.outs]


def tree_prob_continuous(tree, rates, t):
    """P(the continuous chain matches this fragmentation tree at time t):
    the paper's formula on the tree's program (_paper_probs), with waiting
    weights rho(alpha) over the total rate of alpha's component."""
    t = _need(rates, "continuous", "tree_prob_continuous", t, tree)
    return _paper_probs(_tree_program(tree), rates, t)[0]


def _compile(n, keys, tops):
    """The interval recursion for the states tops as a program: index arrays
    that name no rate, so one program serves all rates and horizons.

    State (lo, hi, mask): the interval lo..hi, whole at step 0, has lost
    exactly the k = popcount(mask) links of mask (bit a-1 = link a). It
    breaks first at a link a of mask, into (lo, a-1, mask below a) and
    (a+1, hi, mask above a). keys lists each state reachable from tops; each
    gets one index, inner states first by falling break count, intact ones
    (mask 0) last. A rank holds arrays of the link and the two sides'
    indices: the last rank has the last break of every inner state, and
    rank j before it the j-th from the lowest of every state with over
    j + 1 breaks, so it covers a prefix of the inner states. Returns a
    _Program of the distinct intervals, each state's interval index, the
    ranks and the indices of tops.
    """
    keys = sorted(keys, key=lambda key: key[2].bit_count(), reverse=True)
    index = {key: i for i, key in enumerate(keys)}
    intervals = {}
    iv = array("i", [intervals.setdefault(key[:2], len(intervals)) for key in keys])
    ranks = [(array("i"), array("i"), array("i")) for _ in range(n)]
    for lo, hi, mask in keys:
        links = _state_links(mask)
        for j, a in enumerate(links):
            low = 1 << (a - 1)
            rank = ranks[j if j < len(links) - 1 else -1]
            rank[0].append(a)
            rank[1].append(index[lo, a - 1, mask & (low - 1)])
            rank[2].append(index[a + 1, hi, mask & -(low << 1)])
    outs = array("i", map(index.__getitem__, tops))
    return _Program(list(intervals), iv, [r for r in ranks[:-1] if r[0]] + ranks[-1:], outs)


class _Program:
    """An interval recursion (_compile, _tree_program), the steps it has run
    over all its calls, and once they reach HOT_STEPS its kernels by mode
    (_generate) and, in prepared, (rates.scaled, step arguments) of the last
    rates run. Per state, ks counts its links and es holds the e of its scale
    D^(e u) (_run): 0 over an empty interval, 1 for another intact one, else
    the largest of 1 and the sides' e' + e'' over its breaks."""

    __slots__ = ("intervals", "iv", "ks", "es", "ranks", "outs", "steps", "kernel",
                 "prepared")

    def __init__(self, intervals, iv, ranks, outs):
        self.intervals, self.iv, self.ranks, self.outs = intervals, iv, ranks, outs
        self.ks = ks = array("i", [0]) * len(iv)
        self.es = es = array("i", [intervals[j][0] <= intervals[j][1] for j in iv])
        for i in reversed(range(len(ranks[-1][0]))):
            ks[i] = 1 + ks[ranks[-1][1][i]] + ks[ranks[-1][2][i]]
            es[i] = max(1, *(es[ls[i]] + es[rs[i]] for _, ls, rs in ranks if i < len(ls)))
        self.steps = 0
        self.kernel = None
        self.prepared = None


def _generate(prog):
    """The program's kernels: kernels(rates.exact), generated on a mode's
    first call, is a straight-line function kernel(t, lam, coefs, intact,
    f) -> the outputs after t steps from the start f, on _step_args's
    arguments, so it serves any rate and horizon.

    Each state's value is a local. Step 1 is closed: a state over one link
    holds its coefficient, an intact one its stay, others 0. Later steps
    grow exact coefficient classes (e, a, d) with d > 0 by D^d, form once
    each c f' that breaks share (one class, one left side), update the inner
    states in index order, f_i = lam_i f_i + (sum of c f' f'' over its
    breaks by link), then the intact ones, s ** u (s f on exact ints), and
    the last step only the outputs. Sides have higher indices, so still hold
    step u - 1 when read; those over empty intervals hold 1 and are dropped.
    These are _run's operations in its order (0 + x is x, c f' f'' is (c f')
    f''), so floats keep their bits. The kernels hold the program's arrays,
    not the program, which holds them.
    """
    return functools.cache(functools.partial(
        _kernel, prog.ks, prog.es, prog.ranks, prog.outs))


def _kernel(ks, es, ranks, outs, exact):
    inner = len(ranks[-1][0])
    ones = {i for i, e in enumerate(es) if not e}
    classes, breaks, grows = {}, [[] for _ in ks], {}
    for j, (links, ls, rs) in enumerate(ranks):
        for i, a in enumerate(links):
            d = es[i] - es[ls[i]] - es[rs[i]]
            c = f"c{es[i]}_{a}_{d}" if exact else f"c_{a}"  # its class: e, a, d or a
            classes.setdefault(c, f"coefs[{j}][{i}]")
            breaks[i].append((c, ls[i], rs[i]))
            if exact and d:  # grows by D^d a step
                grows[c], classes[f"D{d}"] = f"D{d}", f"coefs[-1][{d}]"
    seed = {}  # step 1 of the inner states, one chained assignment per value
    for i in range(inner):
        seed.setdefault(breaks[i][0][0] if ks[i] == 1 else "0" if exact else "0.0",
                        []).append(f"f{i} = ")

    def step(states, u):
        uses = Counter((c, l) for i in states for c, l, _ in breaks[i] if l not in ones)
        lines = [f"{c} = {c} * {grows[c]}" for c in dict.fromkeys(
            c for i in states for c, _, _ in breaks[i]) if c in grows]
        lines += [f"g{c}_{l} = {c} * f{l}" for (c, l), k in uses.items() if k > 1]
        for i in states:
            terms = [(f"g{c}_{l}" if uses[c, l] > 1 else c if l in ones else f"{c} * f{l}")
                     + ("" if r in ones else f" * f{r}") for c, l, r in breaks[i]]
            if terms or i not in ones:
                lines.append(f"f{i} = m{i} * f{i} + ({' + '.join(terms)})" if terms
                              else f"f{i} = s{i} * f{i}" if exact else f"f{i} = s{i} ** {u}")
        return ["        " + line for line in lines]

    lines = ["def kernel(t, lam, coefs, intact, f):", "    if t < 1:",
             f"        return [{', '.join(f'f[{i}]' for i in outs)}]",
             f"    [{', '.join(f'm{i}' for i in range(inner))}] = lam",
             f"    [{', '.join(f's{i}' for i in range(inner, len(ks)))}] = "
             f"[{', '.join(f'f{i}' for i in range(inner, len(ks)))}] = intact",
             *[f"    {c} = {source}" for c, source in classes.items()],
             *[f"    {''.join(names)}{value}" for value, names in seed.items()],
             "    for u in range(2, t):", *step(range(len(ks)), "u"),
             "    if t > 1:", *step(sorted(set(outs)), "t"),
             f"    return [{', '.join(f'f{i}' for i in outs)}]"]
    exec(compile("\n".join(lines), f"<interval program of {len(ks)} states>", "exec"),
         namespace := {})
    return namespace["kernel"]


def _table_program(n):
    """All 2^n states, which reach every (lo, hi, mask). The program of the
    last n <= MATRIX_MAX_N asked is kept (1.6 MiB at n = 12), as its state
    keys are; a larger one, some 2^(n+2) states, is freed with its call."""
    return _cached_table_program(n) if n <= MATRIX_MAX_N else _build_table_program(n)


def _build_table_program(n):
    keys = [(lo, hi, m << (lo - 1)) for lo in range(1, n + 2)
            for hi in range(lo - 1, n + 1) for m in range(1 << (hi - lo + 1))]
    return _compile(n, keys, [(1, n, m) for m in range(1 << n)])


_cached_table_program = functools.lru_cache(maxsize=1)(_build_table_program)


@functools.lru_cache(maxsize=1)
def _state_program(n, mask):
    """One state, which reaches each piece of the chain between two of its
    links or a chain end, with its links inside. The last one asked is kept,
    for callers that repeat a state at other rates or horizons."""
    cuts = [0] + _state_links(mask) + [n + 1]
    keys = [(x + 1, y - 1, mask & ((1 << (y - 1)) - (1 << x)))
            for i, x in enumerate(cuts) for y in cuts[i + 1:]]
    return _compile(n, keys, [(1, n, mask)])


def _tree_program(tree):
    """One tree, which fixes the first break of every interval, built per
    call: a state per vertex a, over a's interval with the k links of its
    subtree and the one break a, parents first. Its sides are child states
    or intact ones after every vertex, one for all the empty sides; the
    empty tree is the intact chain."""
    order = tree.postorder[::-1]
    index = {a: i for i, a in enumerate(order)}
    pieces, ls, rs = {}, [], []
    for a in order:
        lo, hi, left, right = tree.lo[a], tree.hi[a], tree.left[a], tree.right[a]
        ls.append(index[left] if left is not None else pieces.setdefault(
            (lo, a - 1) if lo < a else (1, 0), len(order) + len(pieces)))
        rs.append(index[right] if right is not None else pieces.setdefault(
            (a + 1, hi) if a < hi else (1, 0), len(order) + len(pieces)))
    intervals = [(tree.lo[a], tree.hi[a]) for a in order] + list(pieces) or [(1, tree.n)]
    return _Program(intervals, range(len(intervals)), [(order, ls, rs)], (0,))


def _step_args(prog, rates):
    """What a program's steps read of the rates: lam = D^(e-1) (D - P_I) per
    inner state, the step-1 coefficients D^(e-1) p(a) of each rank, then the
    powers D^d, and the intact stays D - P_I (1 over an empty interval)."""
    es, inner = prog.es, len(prog.ranks[-1][0])
    D, p = rates.scaled
    stays = [rates.scaled_stay(lo, hi) for lo, hi in prog.intervals]
    stays = [stays[j] for j in prog.iv]
    De = [D ** e for e in range(max(es) + 1)]
    lam = [De[e - 1] * s for e, s in zip(es, stays[:inner])]
    coefs = [[De[e - 1] * p[a] for e, a in zip(es, links)]
             for links, _, _ in prog.ranks]
    return lam, [*coefs, De], [s if e else De[0] for e, s in zip(es[inner:], stays[inner:])]


def _grows(prog, rates, coefs):
    """(row, i, D^d) for each exact coefs[row][i] of a break with d > 0 (_run):
    cold calls grow their own coefficients in place, by D^d a step."""
    es = prog.es
    return [(c, i, coefs[-1][es[i] - es[l] - es[r]])
            for c, (_, ls, rs) in zip(coefs, prog.ranks)
            for i, (l, r) in enumerate(zip(ls, rs)) if rates.exact and es[i] > es[l] + es[r]]


def _run(prog, rates, t):
    """The probabilities of a program's outputs at step t.

    With the rates' integer form rho(a) = p(a)/D (RateSpec.scaled), a state
    carries F = D^(e u) f (_Program.es): F(0) = 0, F(u) = D^(e-1) [(D - P_I)
    F(u-1) + sum over its breaks a of D^(d(u-1)) p(a) F'(u-1) F''(u-1)], P_I
    the sum of p over I and d = e - e' - e'' >= 0; intact, (D - P_I)^u or 1
    if empty. Exact mode checks 0 <= F <= D^(e t) on its ints and builds one
    Fraction per answer; float mode has D = 1.0, so its F is f, needs no
    division and skips the coefficients' growth. All states advance
    together, or with one break each a block of steps at a time: memory is
    O(states) whatever t. Breaks add in ascending link order, the last
    inside the update, as the floats always did (0 + x is x for x >= 0), so
    they keep their bits. A hot program steps through its generated kernel
    (_generate) instead, and keeps the step arguments of the last rates it
    ran (_step_args) while rates.scaled is the same object. The key is the
    object, not its value: at n = 1 the float (1.0, (1, 1.0)) equals the
    exact (1, (1, 1)), whose arguments are ints. Holding it keeps O(n)
    numbers alive, not the RateSpec or its sums. Only hot programs keep
    them: they are bounded by HOT_MAX_TERMS, while the cold programs kept
    in the caches go up to n = 12 tables.
    """
    ks, outs = prog.ks, prog.outs
    D = rates.scaled[0]
    # a first call never generates, so one-shot programs stay on the loop
    if (prog.kernel is None and prog.steps >= HOT_STEPS
            and len(ks) + sum(ks) <= HOT_MAX_TERMS):
        prog.kernel = _generate(prog)
    prog.steps += t
    if prog.prepared is not None and prog.prepared[0] is rates.scaled:
        args = prog.prepared[1]
    else:
        args = _step_args(prog, rates)
        if prog.kernel is not None:
            prog.prepared = rates.scaled, args
    lam, coefs, intact = args
    zeros = [D * 0] * len(lam)
    f = zeros + [D ** 0] * len(intact)
    if prog.kernel is not None:
        f = prog.kernel(rates.exact)(t, lam, coefs, intact, f)  # the outputs only
    elif len(prog.ranks) == 1:
        # one break per state, as in a tree: each state scans a block of
        # steps after its sides (higher indices), holding 256 values at most
        [(_, ls, rs)], inner = prog.ranks, len(lam)
        grow = {i: g for _, i, g in _grows(prog, rates, coefs)}
        for start in range(0, t, 256):
            us = range(start, min(start + 256, t))
            cols = [None] * inner + [[s ** u for u in us] for s in intact]
            for i in range(inner - 1, -1, -1):
                a, q, x, g = lam[i], coefs[0][i], f[i], grow.get(i)
                cols[i] = col = []
                for y, z in zip(cols[ls[i]], cols[rs[i]]):
                    col.append(x)
                    x = a * x + q * y * z
                    if g:
                        q *= g
                f[i], coefs[0][i] = x, q
        f[inner:] = [s ** t for s in intact]
    else:
        grows = _grows(prog, rates, coefs)
        *ranks, (last_c, last_l, last_r) = [(c, ls, rs) for c, (_, ls, rs)
                                            in zip(coefs, prog.ranks)]
        for u in range(1, t + 1):
            # h: every break but the last, each rank over a prefix of the states
            h = zeros[:]
            for c, ls, rs in ranks:
                h[:len(c)] = [s + x * f[l] * f[r] for s, x, l, r in zip(h, c, ls, rs)]
            f = [a * x + (s + c * f[l] * f[r]) for a, x, s, c, l, r
                 in zip(lam, f, h, last_c, last_l, last_r)] + [s ** u for s in intact]
            for c, i, g in grows:
                c[i] *= g
    out = f if prog.kernel is not None else [f[i] for i in outs]
    if rates.exact:
        return [Fraction(x, s) if 0 <= x <= s else _clamp_prob(Fraction(x, s), True)
                for x, s in zip(out, (D ** (prog.es[i] * t) for i in outs))]
    # validated rates give no NaN, so min and max bound every value
    if 0.0 <= min(out) and max(out) <= 1.0:
        return out
    return [_clamp_prob(x, False) for x in out]


def _route(method, budget=0, what="", m=0, base=2):
    """A route's run on a program: _run for "auto", or for "direct"
    _paper_probs once its products are within the budget, the sum over run
    lengths L of (m - L + 1) L base^(L-1): base 2 for a state of m links,
    3 for a table of m, whose run of L links has 2^L masks; a tree (m = 0)
    is not counted."""
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        return _run
    cost = sum((m - L + 1) * L * base ** (L - 1) for L in range(1, m + 1))
    if cost > budget:
        raise BudgetError(f"{what}={m} needs {cost} products, over the budget of {budget}")
    return _paper_probs


def tree_prob_discrete(tree, rates, t, method="auto"):
    """P(the discrete chain matches this fragmentation tree at time t).

    "auto" runs the interval recursion with the root of every interval
    fixed by the tree, g(u) = lambda_I g(u-1) + rho(root) g_left(u-1)
    g_right(u-1), as the tree's program (_tree_program) on _run. "direct"
    runs the paper's inclusion-exclusion over cut sets H on the same
    program (_paper_probs), with waiting weights rho(alpha) /
    (lambda^{I_alpha}_{G_alpha(H)} - lambda^{I_alpha}_empty) (see
    lambda_diff): the sum over stump sets S of A_S (lambda_S^t -
    lambda_empty^t). Exact in rational mode; compensated float sum
    otherwise.
    """
    _need(rates, "discrete", "tree_prob_discrete", t, tree)
    run = _route(method)
    # a step breaks each fragment at most once, so a tree deeper than t has
    # probability 0: exact, before either route reads a rate
    if t < max(map(int.bit_count, tree._anc.values()), default=0):
        return rates.one * 0
    return run(_tree_program(tree), rates, t)[0]


def dist_discrete(G, rates, t, budget=DEFAULT_BUDGET, method="auto"):
    """P(state = G at time t) for the discrete chain.

    "auto" runs the interval recursion. "direct" runs the paper's formula
    summed over all Catalan(|G|) trees of G, building none: a subtree on the
    run g[i:j] of the sorted links lies between g[i-1] and g[j] (or a chain
    end) whatever its parent, which is a state of G's program
    (_state_program), so _paper_probs sums them run by run, any link the
    root. Only it is subject to the budget (_route).
    """
    _need(rates, "discrete", "dist_discrete", t)
    g = set(_links(G, rates.n))
    run = _route(method, budget, "|G|", len(g))
    return run(_state_program(rates.n, sum(1 << (a - 1) for a in g)), rates, t)[0]


def dist_discrete_endpoints(G, rates, t):
    """P(state = G at time t) when G only touches the chain ends.

    For G inside {1, n} the events {state contained in H} have probability
    (lambda^L_H)^t, and inclusion-exclusion gives
    P = sum over H of (-1)^{|G|-|H|} (lambda^L_H)^t. Rejects other G.
    """
    _need(rates, "discrete", "dist_discrete_endpoints", t)
    g = tuple(sorted(set(_links(G, rates.n))))
    if not set(g) <= {1, rates.n}:
        raise ValueError("endpoint formula needs G inside {1, n}")
    vals = [(-1) ** (len(g) - k) * lam_interval(rates, list(h), 1, rates.n) ** t
            for k in range(len(g) + 1) for h in combinations(g, k)]
    return sum(vals) if rates.exact else _clamp_prob(math.fsum(vals), False)


# -- distribution tables ----------------------------------------------------


class DistTable:
    """Probabilities indexed by state, keys being sorted link tuples."""

    def __init__(self, mode, time, entries):
        self.mode = mode
        self.time = time
        self.entries = entries

    def __repr__(self):
        return (f"DistTable(mode={self.mode!r}, time={self.time!r}, "
                f"entries={self.entries!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.mode, self.time, self.entries)
                == (other.mode, other.time, other.entries))

    def __getitem__(self, G):
        return self.entries[tuple(sorted(G))]

    def items(self):
        return sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def total(self):
        vals = list(self.entries.values())
        if any(isinstance(v, Fraction) for v in vals):
            return sum(vals, Fraction(0))
        return math.fsum(vals)


@functools.lru_cache(maxsize=1)
def _state_keys(n):
    """The 2^n states as sorted link tuples, indexed by bitmask (bit a-1 =
    link a). Kept for the last n asked, so tables of one chain share their
    keys instead of each holding 2^n fresh tuples."""
    if n > 20:
        raise ValueError("full tables are limited to n <= 20")
    return tuple(tuple(_state_links(m)) for m in range(1 << n))


def dist_discrete_all(rates, t, budget=DEFAULT_BUDGET, method="auto"):
    """Full DistTable over every subset of 1..n, by one program for all
    states at once: "auto" runs the interval recursion, for n <=
    TABLE_MAX_N; "direct" the paper's formula (_paper_probs), within the
    budget (_route)."""
    _need(rates, "discrete", "dist_discrete_all", t)
    run = _route(method, budget, "n", rates.n, 3)
    if run is _run and rates.n > TABLE_MAX_N:
        raise ValueError(f"the default full table is limited to n <= {TABLE_MAX_N}")
    keys = _state_keys(rates.n)
    return DistTable("discrete", t, dict(zip(keys, run(_table_program(rates.n), rates, t))))


def dist_continuous_all(rates, t):
    """Full DistTable over every subset of 1..n by the closed form."""
    entries = {G: dist_continuous(G, rates, t) for G in _state_keys(rates.n)}
    return DistTable("continuous", t, entries)


# -- brute-force oracles -----------------------------------------------------


def _state_links(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def transition_rows(rates):
    """One-step transition matrix of the discrete chain as sparse dict rows
    keyed by state bitmasks (bit a-1 = link a broken).

    Built straight from the definition: fragments break independently, each
    choosing one of its links (probability rho(alpha)) or nothing. Row
    construction multiplies factors in fragment order, so diagonal entries
    are bit-identical to lam_interval in float mode and equal in exact mode.
    """
    _need(rates, "discrete", "transition_rows")
    n = rates.n
    if n > MATRIX_MAX_N:
        raise ValueError(f"transition matrix limited to n <= {MATRIX_MAX_N}")
    from .fragments import chain_fragments

    one = rates.one
    rows = {}
    for state in range(1 << n):
        acc = [(0, one)]
        for frag in chain_fragments(1, n, _state_links(state)):
            if frag.empty:
                continue
            choices = [(0, rates.stay(frag.lo, frag.hi))]
            choices += [(1 << (a - 1), rates.rho(a)) for a in frag]
            acc = [(m | bm, p * bp) for m, p in acc for bm, bp in choices]
        rows[state] = {state | m: p for m, p in acc}
    return rows


def _times_rows(v, rows, zero):
    """The sparse row vector v times the matrix of sparse rows."""
    nxt = {}
    for s, p in v.items():
        for s2, q in rows[s].items():
            nxt[s2] = nxt.get(s2, zero) + p * q
    return nxt


def transition_matrix_dist(rates, t):
    """DistTable of the discrete chain at time t from the transition matrix:
    the row of the empty state of the t-th power, as t sparse vector-matrix
    products in the rates' own arithmetic (exact in rational mode).
    Independent oracle for dist_discrete."""
    _need(rates, "discrete", "transition_matrix_dist", t)
    rows = transition_rows(rates)
    zero = rates.one * 0
    v = {0: rates.one}
    for _ in range(t):
        v = _times_rows(v, rows, zero)
    entries = {G: v.get(m, zero) for m, G in enumerate(_state_keys(rates.n))}
    return DistTable("discrete", t, entries)


def generator_matrix_dist(rates, t):
    """DistTable of the continuous chain at time t from the generator Q, by
    uniformisation (Jensen 1953): with L = rho(1..n) and x = L t, the row of
    the empty state of exp(Qt) is the sum over k <= x + 10 sqrt(x) + 30 of
    Poisson(x) weights, formed in log space, times the row of (I + Q/L)^k.
    Every term is nonnegative, so the floats stay accurate in relative terms.
    Independent oracle for dist_continuous."""
    _need(rates, "continuous", "generator_matrix_dist", t)
    n = rates.n
    if n > GENERATOR_MAX_N:
        raise ValueError(f"generator matrix limited to n <= {GENERATOR_MAX_N}")
    rho = [float(rates.rho(a)) for a in range(1, n + 1)]
    total = math.fsum(rho)
    x = total * float(t)
    if x > GENERATOR_MAX_RT:
        raise ValueError(f"generator oracle needs rho(1..n) t <= {GENERATOR_MAX_RT}")
    # rows of I + Q/L: link a breaks with probability rho(a)/L, and the
    # state stays with the rate of its broken links over L
    rows = {}
    for s in range(1 << n):
        rows[s] = {s: math.fsum(rho[a] for a in range(n) if s >> a & 1) / total}
        rows[s].update((s | 1 << a, rho[a] / total)
                       for a in range(n) if not s >> a & 1)
    terms = math.ceil(x + 10 * math.sqrt(x) + 30) if x else 0
    lx = math.log(x) if x else 0.0
    v = {0: 1.0}
    acc = {0: math.exp(-x)}
    for k in range(1, terms + 1):
        v = _times_rows(v, rows, 0.0)
        w = math.exp(k * lx - x - math.lgamma(k + 1))
        for s, p in v.items():
            acc[s] = acc.get(s, 0.0) + w * p
    entries = {G: acc.get(m, 0.0) for m, G in enumerate(_state_keys(n))}
    return DistTable("continuous", float(t), entries)


def check_transition_spectrum(rates):
    """Structural report on the one-step matrix: is it triangular when states
    are sorted by size, and does the diagonal equal the lambda eigenvalues
    exactly (same-code-path floats, or exact Fractions)."""
    rows = transition_rows(rates)
    order = {s: i for i, s in enumerate(sorted(rows, key=lambda m: (m.bit_count(), m)))}
    errs = [abs(float(d) - float(lam)) for s in rows if (d := rows[s].get(s, 0))
            != (lam := lam_interval(rates, _state_links(s), 1, rates.n))]
    return {"states": len(rows),
            "triangular": all(order[s] <= order[s2] for s, row in rows.items() for s2 in row),
            "diagonal_exact": not errs, "max_diag_error": float(max(errs, default=0))}
