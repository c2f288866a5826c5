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
  are accurate in relative terms. With the root of every interval fixed it
  gives one tree's probability, by a scan over the tree's vertices;
* the paper's route (method="direct"): a sum over the Catalan(|G|)
  fragmentation trees of G, each an inclusion-exclusion sum over the
  2^(|G|-1) cut sets of its edges, with the waiting-rate denominators of
  lambda_diff. Only this route and tree enumeration are subject to the
  enumeration budget (BudgetError);
* oracles: the transition-matrix power (discrete) and the uniformised
  generator exponential (continuous), built straight from the one-step
  definition and kept for comparison only. Both multiply a sparse vector by
  sparse dict rows in the standard library; every term is nonnegative.

Discrete-chain quantities support an exact rational mode: with Fraction
rates every route is exact, the interval recursion on the RateSpec's
integer form of the rates, the others in Fraction arithmetic. Float mode
sums the paper's alternating sums by subset size, compensated (Neumaier);
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
from itertools import accumulate
from fractions import Fraction

# fragments is imported where it is used: the interval recursion needs none
from .errors import DEFAULT_BUDGET, ConsistencyError

MATRIX_MAX_N = 12
GENERATOR_MAX_N = 10
GENERATOR_MAX_RT = 10_000


class RateSpec:
    """Validated per-link rates.

    mode "discrete": rho are per-step breaking probabilities, all strictly
    positive with total at most 1 (equality allowed). mode "continuous":
    rho are exponential rates, strictly positive. The total must be finite
    as a float. Fraction (or int) rates switch the discrete formulas into
    exact arithmetic. scaled = (D, p) is the rates' integer form, built once:
    rho(a) = p[a]/D and p[0] = 1, with D the lcm of the rate denominators
    (1.0 for float rates). Every sum over a run of links is read from one
    table, sums, built on first use. as_float() builds the float twin once
    and keeps it, so caches keyed by it hit.
    """

    def __init__(self, mode, rho):
        if mode not in ("discrete", "continuous"):
            raise ValueError(f"unknown mode {mode!r}")
        rho = {int(k): v for k, v in rho.items()}
        n = len(rho)
        if n == 0 or set(rho) != set(range(1, n + 1)):
            raise ValueError("rates must cover links 1..n exactly")
        self.exact = all(isinstance(v, (int, Fraction)) for v in rho.values())
        for k, v in rho.items():
            if not v > 0:
                raise ValueError(f"rate of link {k} must be strictly positive")
        p = [rho[a] for a in range(1, n + 1)]
        D = math.lcm(*(v.denominator for v in p)) if self.exact else 1.0
        p = [v.numerator * (D // v.denominator) for v in p] if self.exact else p
        *_, total = accumulate(p)  # in link order, as the run sums add
        if not (Fraction(total, D) if self.exact else total) <= sys.float_info.max:
            raise ValueError("rates and their total must be finite as floats")
        if mode == "discrete" and total > (D if self.exact else 1 + 1e-12):
            raise ValueError("discrete rates must sum to at most 1")
        self.scaled = D, (1, *p)
        self.mode = mode
        self.n = n
        self._rho = rho
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
        p = self.scaled[1]
        return [None] + [[0, *accumulate(p[lo:])] for lo in range(1, len(p) + 1)]

    def rho_run(self, lo, hi):
        """rho(lo..hi) in the rates' own arithmetic; 0 for hi = lo - 1."""
        s = self.sums[lo][hi - lo + 1]
        return Fraction(s, self.scaled[0]) if self.exact else s

    def scaled_stay(self, lo, hi):
        """D - (p[lo] + ... + p[hi]), clamped at 0: float rates summing to 1
        can leave a negative rounding residue."""
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
        if not self.exact and all(isinstance(v, float) for v in self._rho.values()):
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


def neumaier_sum(terms):
    """Compensated float summation; exact-mode callers sum directly."""
    s = 0.0
    c = 0.0
    for x in terms:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


# -- lambda machinery ------------------------------------------------------


def lam_interval(rates, removed, lo, hi):
    """lambda^{[lo,hi]}_removed: product over the nonempty fragments J left
    by the sorted removed links of (1 - rho(J))."""
    from .fragments import chain_fragments

    acc = rates.one
    for frag in chain_fragments(lo, hi, removed):
        if not frag.empty:
            acc = acc * rates.stay(frag.lo, frag.hi)
    return acc


def lambda_value(rates, G, interval=None):
    """Public lambda: no-change probability of one step from state G inside
    the interval (defaults to the whole chain). Discrete mode only."""
    if rates.mode != "discrete":
        raise ValueError("lambda is a discrete-chain quantity")
    from .fragments import Fragment

    if interval is None:
        lo, hi = 1, rates.n
    elif isinstance(interval, Fragment):
        lo, hi = interval.lo, interval.hi
    else:
        lo, hi = interval
    g = sorted(G)
    if any(not lo <= a <= hi for a in g):
        raise ValueError("state must lie inside the interval")
    return lam_interval(rates, g, lo, hi)


def lambda_diff(rates, removed, lo, hi):
    """lambda^I_removed - lambda^I_empty for I = [lo, hi], the difference of
    the two no-change probabilities (the whole-interval one unclamped).
    Discrete mode only. The value is strictly positive for nonempty removed
    sets under valid rates; a nonpositive result raises ConsistencyError."""
    if rates.mode != "discrete":
        raise ValueError("lambda is a discrete-chain quantity")
    val = lam_interval(rates, removed, lo, hi) - (1 - rates.rho_run(lo, hi))
    if removed and not val > 0:
        raise ConsistencyError(
            f"nonpositive waiting-rate denominator {val!r} on [{lo},{hi}]")
    return val


# -- closed forms ----------------------------------------------------------


def dist_continuous(G, rates, t):
    """P(state = G at time t) for the continuous chain, closed form."""
    if rates.mode != "continuous":
        raise ValueError("dist_continuous needs continuous rates")
    _check_time(t, "continuous")
    g = set(G)
    if not g <= set(range(1, rates.n + 1)):
        raise ValueError("links must lie in 1..n")
    p = 1.0
    for a in range(1, rates.n + 1):
        r = float(rates.rho(a))
        p *= -math.expm1(-r * t) if a in g else math.exp(-r * t)
    return p


def _check_time(t, mode):
    """t, if it is a time of the chain in this mode; a float if continuous."""
    if mode == "discrete":
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise ValueError("discrete time must be a nonnegative integer")
    else:
        t = float(t)
        if not (t >= 0 and math.isfinite(t)):
            raise ValueError("time must be nonnegative and finite")
    return t


def _edge_submasks_by_size(tree):
    bits = [tree._bit[e] for e in tree.edges]
    k = len(bits)
    for combo in sorted(range(1 << k), key=lambda m: (m.bit_count(), m)):
        hmask = 0
        m = combo
        while m:
            low = m & -m
            hmask |= 1 << bits[low.bit_length() - 1]
            m ^= low
        yield combo.bit_count(), hmask


def _clamp_prob(raw, exact):
    if exact:
        if not 0 <= raw <= 1:
            raise ConsistencyError(f"exact probability {raw!r} outside [0, 1]")
        return raw
    if raw < -1e-10 or raw > 1 + 1e-10:
        raise ConsistencyError(f"probability {raw!r} outside [0, 1] past tolerance")
    return min(1.0, max(0.0, raw))


def tree_prob_continuous(tree, rates, t):
    """P(the continuous chain matches this fragmentation tree at time t).

    Inclusion-exclusion over the cut sets H of the tree's edges: each term is
    the chance that everything inside the stump component of H has broken,
    nothing outside has, weighted per vertex by rho(alpha) over the total
    rate of alpha's component. Summed smallest-H first with compensated
    accumulation, then verified and clamped to [0, 1].
    """
    if rates.mode != "continuous":
        raise ValueError("tree_prob_continuous needs continuous rates")
    t = _check_time(t, "continuous")
    n = rates.n
    if tree.n != n:
        raise ValueError("tree and rates disagree on n")
    total_f = float(rates.rho_run(1, n))
    if not tree.G:
        return math.exp(-total_f * t)
    rho_f = {a: float(rates.rho(a)) for a in tree.G}
    msum_cache = {}

    def msum(mask):
        if mask not in msum_cache:
            msum_cache[mask] = math.fsum(rho_f[a] for a in tree.mask_vertices(mask))
        return msum_cache[mask]

    terms = []
    for size, hmask in _edge_submasks_by_size(tree):
        comp = tree.component_masks(hmask)
        stump_rho = msum(comp[tree.root])
        term = -math.expm1(-stump_rho * t) * math.exp(-(total_f - stump_rho) * t)
        for a in tree.G:
            term *= rho_f[a] / msum(comp[a])
        terms.append(-term if size & 1 else term)
    return _clamp_prob(neumaier_sum(terms), False)


def _compile(n, keys, tops):
    """The interval recursion for the states tops as a program: index arrays
    that name no rate, so one program serves all rates and horizons.

    State (lo, hi, mask): the interval lo..hi, whole at step 0, has lost
    exactly the k = popcount(mask) links of mask (bit a-1 = link a). It
    breaks first at a link a of mask, into (lo, a-1, mask below a) and
    (a+1, hi, mask above a). keys lists each state reachable from tops; each
    gets one index, inner states first by falling break count, intact ones
    (mask 0) last. A rank holds arrays of the link and the two sides'
    indices: `last` has the last break of every inner state, earlier[j] the
    j-th from the lowest of every state with over j + 1 breaks, so it covers
    a prefix of the inner states. Returns the distinct intervals, each
    state's interval index and k, earlier, last and the indices of tops.
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
    k = array("i", [key[2].bit_count() for key in keys])
    outs = array("i", map(index.__getitem__, tops))
    return list(intervals), iv, k, [r for r in ranks[:-1] if r[0]], ranks[-1], outs


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


def _run(prog, rates, t):
    """The probabilities of a program's outputs at step t.

    With the rates' integer form rho(a) = p(a)/D (RateSpec.scaled), a state
    over k links carries F = D^((k+1)u) f: F(0) = 0, F(u) = D^k (D - P_I)
    F(u-1) + sum over its breaks a of D^k p(a) F'(u-1) F''(u-1), P_I the
    sum of p over the interval, and an intact one (D - P_I)^u. Exact mode
    runs on ints up to one Fraction per answer; float mode has D^k = 1.0.
    All states advance together: memory is O(states) whatever t. Breaks
    add in ascending link order, the last inside the update, as the floats
    always did (0 + x is x for x >= 0), so they keep their bits.
    """
    intervals, iv, ks, earlier, last, outs = prog
    D, p = rates.scaled
    stays = [rates.scaled_stay(lo, hi) for lo, hi in intervals]
    # a state over k links reads D^k p(a) at each break a, and lam = D^k (D - P_I)
    Dk = [D ** k for k in range(max(ks) + 1)]
    inner = len(last[0])
    lam = [Dk[ks[i]] * stays[iv[i]] for i in range(inner)]
    intact = [stays[iv[i]] for i in range(inner, len(ks))]
    *ranks, (last_c, last_l, last_r) = [([Dk[k] * p[a] for k, a in zip(ks, links)], ls, rs)
                                        for links, ls, rs in [*earlier, last]]
    zeros = [0] * inner
    f = zeros + [s ** 0 for s in intact]
    for u in range(1, t + 1):
        # h: every break but the last, each rank over a prefix of the states;
        # with no ranks it stays all zeros and needs no copy
        h = zeros[:] if ranks else zeros
        for c, ls, rs in ranks:
            h[:len(c)] = [s + x * f[l] * f[r] for s, x, l, r in zip(h, c, ls, rs)]
        f = [a * x + (s + c * f[l] * f[r]) for a, x, s, c, l, r
             in zip(lam, f, h, last_c, last_l, last_r)] + [s ** u for s in intact]
    scales = {k: D ** ((k + 1) * t) for k in {ks[i] for i in outs}}
    return [_clamp_prob(Fraction(f[i], scales[ks[i]]) if rates.exact
                        else f[i] / scales[ks[i]], rates.exact) for i in outs]


def _tree_prob(tree, rates, t):
    """P(matching the tree at step t): each vertex is the first break of its
    interval, and each side then follows the child on that side, or stays
    whole when there is none. F is scaled as in _run. Every state here has
    one break, so a postorder scan runs each vertex over all t steps; a
    child's list is dropped once its parent has read it."""
    D, p = rates.scaled
    stay = rates.scaled_stay
    F = {}

    def side(child, lo, hi):
        if child is None:
            s = stay(lo, hi)
            return [s ** u for u in range(t)]
        return F.pop(child)

    for a in tree.postorder:
        lo, hi = tree.lo[a], tree.hi[a]
        left = side(tree.left[a], lo, a - 1)
        right = side(tree.right[a], a + 1, hi)
        c = D ** tree._desc[a].bit_count()
        lam, q = c * stay(lo, hi), c * p[a]
        f = [0]
        for u in range(t):
            f.append(lam * f[u] + q * left[u] * right[u])
        F[a] = f
    if tree.root is None:
        top, k = stay(1, tree.n) ** t, 0
    else:
        top, k = F[tree.root][t], len(tree.G)
    scale = D ** ((k + 1) * t)
    return _clamp_prob(Fraction(top, scale) if rates.exact else top / scale,
                       rates.exact)


def _state_mask(G, n):
    g = set(G)
    if any(not 1 <= a <= n for a in g):
        raise ValueError("links must lie in 1..n")
    return sum(1 << (a - 1) for a in g)


def _check_method(method):
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown method {method!r}")


def tree_prob_discrete(tree, rates, t, method="auto"):
    """P(the discrete chain matches this fragmentation tree at time t).

    "auto" runs the interval recursion with the root of every interval
    fixed by the tree: g(u) = lambda_I g(u-1) + rho(root) g_left(u-1)
    g_right(u-1). "direct" runs the paper's inclusion-exclusion over cut
    sets H: terms combine the no-change eigenvalues lambda^L of the stump
    state with per-vertex waiting weights
    rho(alpha) / (lambda^{I_alpha}_{G_alpha(H)} - lambda^{I_alpha}_empty)
    (see lambda_diff). Exact in rational mode; compensated float sum
    otherwise.
    """
    if rates.mode != "discrete":
        raise ValueError("tree_prob_discrete needs discrete rates")
    _check_time(t, "discrete")
    _check_method(method)
    if tree.n != rates.n:
        raise ValueError("tree and rates disagree on n")
    if method == "auto":
        return _tree_prob(tree, rates, t)
    return _paper_prob(_paper_terms(tree, rates), t, rates.exact)


def _paper_terms(tree, rates):
    """The paper's formula for one tree but the horizon: the lambdas of the
    empty state and of each distinct stump, and per cut set H, smallest
    first, (|H| odd, its stump's index, the product of the waiting weights)."""
    n = rates.n
    lams = [lam_interval(rates, [], 1, n)]
    if not tree.G:
        return lams, []
    stumps = {}
    denom = {}
    cuts = []
    for size, hmask in _edge_submasks_by_size(tree):
        comp = tree.component_masks(hmask)
        stump = comp[tree.root]
        if stump not in stumps:
            stumps[stump] = len(lams)
            lams.append(lam_interval(rates, sorted(tree.mask_vertices(stump)), 1, n))
        factor = rates.one
        for a in tree.G:
            key = (a, comp[a])
            if key not in denom:
                denom[key] = lambda_diff(rates, sorted(tree.mask_vertices(comp[a])),
                                         tree.lo[a], tree.hi[a])
            factor = factor * rates.rho(a) / denom[key]
        cuts.append((size & 1, stumps[stump], factor))
    return lams, cuts


def _paper_prob(terms, t, exact):
    """A tree's probability at step t from its _paper_terms: the sum over
    cut sets of sign * factor * (lambda_stump^t - lambda_empty^t)."""
    lams, cuts = terms
    pows = [lam ** t for lam in lams]
    if not cuts:
        return pows[0]
    vals = []
    for odd, s, factor in cuts:
        term = (pows[s] - pows[0]) * factor
        vals.append(-term if odd else term)
    return _clamp_prob(sum(vals) if exact else neumaier_sum(vals), exact)


def _paper_dist(trees_terms, t, exact):
    """P(state at step t) by the paper's route, from the _paper_terms of
    each of the state's trees."""
    vals = [_paper_prob(terms, t, exact) for terms in trees_terms]
    return sum(vals, Fraction(0)) if exact else math.fsum(vals)


def dist_discrete(G, rates, t, budget=DEFAULT_BUDGET, method="auto"):
    """P(state = G at time t) for the discrete chain.

    "auto" runs the interval recursion. "direct" sums the matching
    probabilities of all fragmentation trees of G by the paper's formula;
    only it is subject to the budget.
    """
    if rates.mode != "discrete":
        raise ValueError("dist_discrete needs discrete rates")
    _check_time(t, "discrete")
    _check_method(method)
    if method == "auto":
        return _run(_state_program(rates.n, _state_mask(G, rates.n)), rates, t)[0]
    from .fragments import enumerate_fragmentation_trees

    trees = enumerate_fragmentation_trees(G, rates.n, budget)
    return _paper_dist([_paper_terms(tr, rates) for tr in trees], t,
                       rates.exact)


def dist_discrete_endpoints(G, rates, t):
    """P(state = G at time t) when G only touches the chain ends.

    For G inside {1, n} the events {state contained in H} have probability
    (lambda^L_H)^t, and inclusion-exclusion gives
    P = sum over H of (-1)^{|G|-|H|} (lambda^L_H)^t. Rejects other G.
    """
    if rates.mode != "discrete":
        raise ValueError("dist_discrete_endpoints needs discrete rates")
    _check_time(t, "discrete")
    g = tuple(sorted(set(G)))
    ends = {1, rates.n}
    if not set(g) <= ends:
        raise ValueError("endpoint formula needs G inside {1, n}")
    total = Fraction(0) if rates.exact else 0.0
    k = len(g)
    for m in range(1 << k):
        h = [g[i] for i in range(k) if m >> i & 1]
        sign = -1 if (k - len(h)) & 1 else 1
        total = total + sign * lam_interval(rates, h, 1, rates.n) ** t
    return total if rates.exact else _clamp_prob(total, False)


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
    return tuple(tuple(_state_links(m)) for m in range(1 << n))


def dist_discrete_all(rates, t, budget=DEFAULT_BUDGET, method="auto"):
    """Full DistTable over every subset of 1..n. "auto" runs one interval
    recursion program for all states at once; "direct" evaluates the
    paper's formula state by state."""
    if rates.n > 20:
        raise ValueError("full tables are limited to n <= 20")
    if rates.mode != "discrete":
        raise ValueError("dist_discrete_all needs discrete rates")
    _check_time(t, "discrete")
    keys = _state_keys(rates.n)
    if method == "auto":
        entries = dict(zip(keys, _run(_table_program(rates.n), rates, t)))
    else:
        entries = {G: dist_discrete(G, rates, t, budget, method) for G in keys}
    return DistTable("discrete", t, entries)


def dist_continuous_all(rates, t):
    """Full DistTable over every subset of 1..n by the closed form."""
    if rates.n > 20:
        raise ValueError("full tables are limited to n <= 20")
    entries = {G: dist_continuous(G, rates, t) for G in _state_keys(rates.n)}
    return DistTable("continuous", t, entries)


# -- brute-force oracles -----------------------------------------------------


def _state_links(mask):
    out = []
    a = 1
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return out


def transition_rows(rates):
    """One-step transition matrix of the discrete chain as sparse dict rows
    keyed by state bitmasks (bit a-1 = link a broken).

    Built straight from the definition: fragments break independently, each
    choosing one of its links (probability rho(alpha)) or nothing. Row
    construction multiplies factors in fragment order, so diagonal entries
    are bit-identical to lam_interval in float mode and equal in exact mode.
    """
    if rates.mode != "discrete":
        raise ValueError("transition_rows needs discrete rates")
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
    _check_time(t, "discrete")
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
    if rates.mode != "continuous":
        raise ValueError("generator_matrix_dist needs continuous rates")
    _check_time(t, "continuous")
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
    order = {s: i for i, s in enumerate(
        sorted(rows, key=lambda m: (m.bit_count(), m)))}
    triangular = True
    for s, row in rows.items():
        for s2 in row:
            if order[s2] < order[s]:
                triangular = False
    diag_exact = True
    max_err = 0
    for s in rows:
        lam = lam_interval(rates, _state_links(s), 1, rates.n)
        d = rows[s].get(s, 0)
        if d != lam:
            diag_exact = False
            max_err = max(max_err, abs(float(d) - float(lam)))
    return {"states": len(rows), "triangular": triangular,
            "diagonal_exact": diag_exact, "max_diag_error": float(max_err)}
