import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragchain import (ConsistencyError, FragTree, RateSpec,
                       check_transition_spectrum, dist_continuous,
                       dist_continuous_all, dist_discrete, dist_discrete_all,
                       dist_discrete_endpoints, enumerate_fragmentation_trees,
                       generator_matrix_dist, lambda_diff, lambda_value,
                       random_rates, transition_matrix_dist, transition_rows,
                       tree_prob_continuous, tree_prob_discrete)
from fragchain import checks, probabilities
from fragchain.probabilities import lam_interval

from conftest import make_rng


def test_ratespec_validation():
    with pytest.raises(ValueError):
        RateSpec("discrete", {1: 0.0, 2: 0.5})
    with pytest.raises(ValueError):
        RateSpec("discrete", {1: 0.6, 2: 0.6})
    with pytest.raises(ValueError):
        RateSpec("continuous", {1: -0.1})
    with pytest.raises(ValueError):
        RateSpec("discrete", {1: 0.1, 3: 0.1})  # gap in links
    with pytest.raises(ValueError):
        RateSpec("nope", {1: 0.1})
    r = RateSpec("discrete", {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert r.exact  # total exactly 1 is allowed
    assert not RateSpec("discrete", {1: 0.25, 2: 0.25}).exact


@pytest.mark.parametrize("rho", [
    {1: math.inf, 2: 0.5}, {1: 1e308, 2: 1e308}, {1: Fraction(10**400), 2: 1},
], ids=["infinite rate", "infinite float total", "exact rate past the float range"])
def test_ratespec_rejects_rates_not_finite_as_floats(rho):
    with pytest.raises(ValueError):
        RateSpec("continuous", rho)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_ratespec_run_sums_and_stays(exact):
    r = random_rates(6, make_rng(), total=1.0, exact=exact)
    assert "sums" not in vars(r)  # the table is built on first use
    for lo in range(1, 8):
        for hi in range(lo - 1, 7):
            rho = r.rho_sum(range(lo, hi + 1))
            assert r.rho_run(lo, hi) == rho
            assert r.stay(lo, hi) == max(1 - rho, 0)
            assert r.scaled_stay(lo, hi) == r.stay(lo, hi) * r.scaled[0]
    assert r.stay(1, 6) >= 0 and type(r.stay(1, 6)) is type(r.one)


def test_lambda_reference(rates5):
    # single fragment: 1 - sum of its rates
    assert math.isclose(lambda_value(rates5, []), 1 - 0.6)
    # G = {3}: fragments {1,2} and {4,5}
    v = lambda_value(rates5, [3])
    assert math.isclose(v, (1 - 0.15) * (1 - 0.25))
    # inside an interval
    v = lambda_value(rates5, [4], (3, 5))
    assert math.isclose(v, (1 - 0.2) * (1 - 0.15))
    # removing everything gives the empty product
    assert lambda_value(rates5, [1, 2, 3, 4, 5]) == 1.0


def test_lambda_rejects_continuous(crates4):
    with pytest.raises(ValueError):
        lambda_value(crates4, [])
    with pytest.raises(ValueError, match="discrete-chain"):
        lambda_diff(crates4, [2], 1, 3)


def test_lambda_rejects_outside_interval(rates5):
    with pytest.raises(ValueError):
        lambda_value(rates5, [1], (2, 5))


def test_lambda_diff_routes_agree(rates5_exact, rng):
    # the float difference agrees with the exact one, which is positive
    rf = rates5_exact.as_float()
    for _ in range(30):
        n = rng.randint(1, 5)
        lo = rng.randint(1, 6 - n)
        hi = lo + n - 1
        removed = sorted(a for a in range(lo, hi + 1) if rng.random() < 0.5)
        de = lambda_diff(rates5_exact, removed, lo, hi)
        d = lambda_diff(rf, removed, lo, hi)
        assert math.isclose(d, float(de), rel_tol=1e-12, abs_tol=1e-15)
        if removed:
            assert float(de) > 0


def test_lambda_diff_is_lambda_difference(rates5_exact):
    # definitionally lambda_S - lambda_empty on the interval
    for removed, lo, hi in ([3], 1, 5), ([3, 4], 1, 5), ([4], 3, 5), ([1, 5], 1, 5):
        got = lambda_diff(rates5_exact, removed, lo, hi)
        lam_s = lam_interval(rates5_exact, removed, lo, hi)
        lam_0 = lam_interval(rates5_exact, [], lo, hi)
        assert got == lam_s - lam_0


def test_single_link_chain():
    r = RateSpec("discrete", {1: Fraction(1, 4)})
    for t in range(6):
        assert dist_discrete([], r, t) == Fraction(3, 4) ** t
        assert dist_discrete([1], r, t) == 1 - Fraction(3, 4) ** t
        assert dist_discrete_endpoints([1], r, t) == 1 - Fraction(3, 4) ** t


def test_time_zero_is_point_mass(rates5, crates4):
    assert dist_discrete([], rates5, 0) == 1.0
    assert dist_discrete([2, 4], rates5, 0) == 0.0
    assert dist_continuous([], crates4, 0.0) == 1.0
    assert dist_continuous([1], crates4, 0.0) == 0.0


def test_discrete_time_validation(rates5):
    with pytest.raises(ValueError):
        dist_discrete([1], rates5, -1)
    with pytest.raises(ValueError):
        dist_discrete([1], rates5, 1.5)
    with pytest.raises(ValueError):
        tree_prob_discrete(FragTree(5, None), rates5, True)


def test_formula_vs_matrix_exact(rng):
    for n in (2, 3, 4):
        r = random_rates(n, rng, total=1, exact=True)
        for t in (0, 1, 3, 7):
            table = transition_matrix_dist(r, t)
            for G, q in table.items():
                assert dist_discrete(list(G), r, t) == q


def test_formula_vs_matrix_float(rng):
    for n in (2, 4, 5):
        r = random_rates(n, rng, total=0.5)
        for t in (0, 1, 2, 6, 20):
            table = transition_matrix_dist(r, t)
            for G, q in table.items():
                assert abs(dist_discrete(list(G), r, t) - q) < 1e-12


def test_paper_route_relative_error():
    # the paper's route in floats against its exact twin, the same rates as
    # Fractions (a total of exactly 1 has none). Worst seen here: 1.3e-12.
    # Where the tree is deeper than t, the exact value is 0 and the float
    # one 0 or a cancellation residue
    rng = random.Random(11)
    for _ in range(600):
        n = rng.randint(1, 6)
        r = random_rates(n, rng, total=rng.choice((0.5, 0.9, 0.99)))
        twin = RateSpec("discrete", {a: Fraction(r.rho(a)) for a in range(1, n + 1)})
        G = [a for a in range(1, n + 1) if rng.random() < 0.5]
        tree = rng.choice(enumerate_fragmentation_trees(G, n))
        t = rng.randint(0, 20)
        p = tree_prob_discrete(tree, r, t, "direct")
        q = tree_prob_discrete(tree, twin, t, "direct")
        if q == 0:
            assert p < 1e-15
        else:
            assert abs(Fraction(p) - q) <= Fraction(1, 10**9) * q


def test_continuous_tree_sum(crates4):
    err, _ = checks.continuous_tree_sum_vs_closed(crates4, (0.1, 1.0, 5.0))
    assert err < 1e-12


def test_continuous_vs_generator(crates4):
    for t in (0.3, 1.7):
        table = generator_matrix_dist(crates4, t)
        for G, q in table.items():
            assert abs(dist_continuous(list(G), crates4, t) - q) < 1e-10


def test_normalization(rates5, crates4):
    for t in (0, 1, 4, 9):
        assert abs(dist_discrete_all(rates5, t).total() - 1.0) < 1e-12
    r = RateSpec("discrete", {a: Fraction(1, 7) for a in range(1, 5)})
    for t in (0, 2, 5):
        assert dist_discrete_all(r, t).total() == 1
    for t in (0.1, 2.0):
        assert abs(dist_continuous_all(crates4, t).total() - 1.0) < 1e-12


def test_endpoints_match_and_reject(rates5, rates5_exact):
    for t in (0, 1, 4, 11):
        for G in ([], [1], [5], [1, 5]):
            a = dist_discrete_endpoints(G, rates5, t)
            b = dist_discrete(G, rates5, t)
            assert abs(a - b) < 1e-13
            assert dist_discrete_endpoints(G, rates5_exact, t) == \
                dist_discrete(G, rates5_exact, t)
    with pytest.raises(ValueError):
        dist_discrete_endpoints([2], rates5, 3)
    with pytest.raises(ValueError):
        dist_discrete_endpoints([1, 3], rates5, 3)


def test_endpoint_time_behaviour(rates5):
    # starts at zero, transient, then decays as the interior breaks up too
    vals = [dist_discrete_endpoints([1, 5], rates5, t) for t in (0, 1, 2, 5, 300)]
    # one fragment breaks at most one link per step, so two steps are needed
    assert abs(vals[0]) == 0.0 and abs(vals[1]) < 1e-15
    assert vals[2] > 0 and vals[3] > vals[4] and vals[4] < 1e-12
    # empty state decays geometrically with the full no-change factor
    for t in range(8):
        assert math.isclose(dist_discrete_endpoints([], rates5, t), 0.4 ** t)


def test_tree_probs_sum_to_state_prob(rates5_exact):
    for t in (1, 3):
        for G in ([2], [2, 4], [1, 3, 5]):
            ts = enumerate_fragmentation_trees(G, 5)
            s = sum(tree_prob_discrete(tr, rates5_exact, t) for tr in ts)
            assert s == dist_discrete(G, rates5_exact, t)


def test_tree_prob_nonnegative_and_bounded(rates5, crates4, rng):
    for _ in range(20):
        n = 4
        gm = rng.randrange(16)
        G = [a + 1 for a in range(n) if gm >> a & 1]
        for tr in enumerate_fragmentation_trees(G, n):
            p = tree_prob_discrete(tr, RateSpec("discrete",
                                                {a: 0.2 for a in range(1, 5)}),
                                   rng.randint(0, 9))
            assert 0.0 <= p <= 1.0
            q = tree_prob_continuous(tr, crates4, 3.0 * rng.random())
            assert 0.0 <= q <= 1.0


def test_empty_state_probability(rates5, crates4):
    for t in (0, 1, 5):
        assert math.isclose(dist_discrete([], rates5, t), (1 - 0.6) ** t)
    tot = sum(float(crates4.rho(a)) for a in range(1, 5))
    for t in (0.2, 1.0):
        assert math.isclose(dist_continuous([], crates4, t), math.exp(-tot * t))


def test_spectrum_report(rates5, rates5_exact):
    rep = check_transition_spectrum(rates5)
    assert rep["triangular"] and rep["diagonal_exact"]
    assert rep["max_diag_error"] == 0.0
    rep = check_transition_spectrum(rates5_exact)
    assert rep["triangular"] and rep["diagonal_exact"]


def test_transition_rows_are_stochastic(rates5_exact):
    rows = transition_rows(rates5_exact)
    assert len(rows) == 32
    for s, row in rows.items():
        assert sum(row.values()) == 1
        for s2 in row:
            assert s2 & s == s  # states only grow


def test_matrix_size_guard():
    r = RateSpec("discrete", {a: 0.001 for a in range(1, 14)})
    with pytest.raises(ValueError):
        transition_matrix_dist(r, 1)


def test_exp_underflow_flushes_to_zero():
    r = RateSpec("continuous", {1: 500.0, 2: 500.0})
    p = dist_continuous([], r, 10.0)
    assert p == 0.0
    q = tree_prob_continuous(FragTree(2, None), r, 10.0)
    assert q == 0.0


def test_sum_to_one_rates_allowed():
    r = RateSpec("discrete", {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert dist_discrete([], r, 0) == 1
    assert dist_discrete([], r, 3) == 0
    assert dist_discrete_all(r, 2).total() == 1


# -- the interval recursion (default) against the paper's tree formula -------


def _subsets(n):
    for gm in range(1 << n):
        yield [a + 1 for a in range(n) if gm >> a & 1]


def test_recursion_equals_tree_formula_exactly(rng):
    for n in range(1, 7):
        r = random_rates(n, rng, total=1 if n % 2 else Fraction(1, 2), exact=True)
        for t in (0, 1, 2, 5):
            for G in _subsets(n):
                assert dist_discrete(G, r, t) == dist_discrete(G, r, t, method="direct")


def test_tree_recursion_equals_tree_formula_exactly(rng):
    for n in range(1, 6):
        r = random_rates(n, rng, total=1, exact=True)
        for G in _subsets(n):
            for tr in enumerate_fragmentation_trees(G, n):
                for t in (0, 1, 2, 5):
                    assert tree_prob_discrete(tr, r, t) == \
                        tree_prob_discrete(tr, r, t, method="direct")


def test_tree_formula_vs_matrix_exact(rng):
    for n in (1, 2, 3, 4):
        r = random_rates(n, rng, total=1, exact=True)
        for t in (0, 1, 3, 6):
            table = transition_matrix_dist(r, t)
            for G, q in table.items():
                assert dist_discrete(list(G), r, t, method="direct") == q


def test_recursion_relative_error_at_small_rates():
    # the tree formula's alternating sums lose every digit here
    rf = RateSpec("discrete", {a: 1e-6 * (a + 1) / 3 for a in range(1, 6)})
    rx = RateSpec("discrete", {a: Fraction(rf.rho(a)) for a in range(1, 6)})
    for G in _subsets(5):
        p = dist_discrete(G, rf, 4)
        q = dist_discrete(G, rx, 4)
        if q == 0:
            assert p == 0.0
        else:
            assert abs(Fraction(p) - q) <= Fraction(1, 10**12) * q


@pytest.mark.parametrize("rho", [
    {1: Fraction(1, 6), 2: Fraction(2, 7), 3: Fraction(1, 11),
     4: Fraction(1, 10), 5: Fraction(3, 13)},
    {1: 1},
    {1: Fraction(1, 5), 2: Fraction(1, 4), 3: Fraction(1, 6),
     4: Fraction(1, 3), 5: Fraction(1, 20)},
], ids=["mixed-denominators", "int-rate", "total-one"])
def test_integer_recursion_agrees_exactly(rho):
    # the recursion runs on ints scaled by powers of the lcm of the rate
    # denominators; every answer must be the Fraction of the other routes
    r = RateSpec("discrete", rho)
    for t in (0, 1, 3, 6):
        table = dist_discrete_all(r, t)
        assert table.entries == transition_matrix_dist(r, t).entries
        for G, q in table.items():
            assert isinstance(q, Fraction)
            assert dist_discrete(G, r, t) == q == \
                dist_discrete(G, r, t, method="direct")
            for tr in enumerate_fragmentation_trees(G, r.n):
                assert tree_prob_discrete(tr, r, t) == \
                    tree_prob_discrete(tr, r, t, method="direct")


@st.composite
def dyadic_cases(draw):
    """Rates w_a / (W 2^e) with W the power of two at or above sum(w): the
    floats hold them exactly, so float and exact mode share one input, at
    total rates from 2^-31 (below 1e-9) up to 1."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    e = draw(st.integers(0, 30))
    t = draw(st.integers(0, 200))
    gm = draw(st.integers(0, (1 << n) - 1))
    den = (1 << (sum(w) - 1).bit_length()) << e
    rho = {a + 1: Fraction(w[a], den) for a in range(n)}
    return rho, [a + 1 for a in range(n) if gm >> a & 1], t


@settings(max_examples=100, deadline=None)
@given(dyadic_cases())
def test_float_recursion_relative_error(case):
    # every term of the recursion is nonnegative, so its float rounding
    # error stays relative and grows at most linearly in |G| and t
    rho, G, t = case
    q = dist_discrete(G, RateSpec("discrete", rho), t)
    p = dist_discrete(G, RateSpec("discrete", {a: float(v) for a, v in rho.items()}), t)
    if q == 0:
        assert p == 0.0
    else:
        bound = 4 * (len(G) + 1) * (t + 1) * Fraction(1, 2**53)
        assert abs(Fraction(p) - q) <= bound * q


@settings(max_examples=100, deadline=None)
@given(dyadic_cases(), st.integers(min_value=0))
def test_float_tree_recursion_relative_error(case, pick):
    # one tree of G per example: each vertex's interval runs the same
    # nonnegative recursion with its root fixed, so the bound of the state
    # route holds. Worst seen in 3,000 random cases: 0.15 (|G|+1)(t+1) 2^-53.
    rho, G, t = case
    trees = enumerate_fragmentation_trees(G, len(rho))
    tree = trees[pick % len(trees)]
    q = tree_prob_discrete(tree, RateSpec("discrete", rho), t)
    p = tree_prob_discrete(
        tree, RateSpec("discrete", {a: float(v) for a, v in rho.items()}), t)
    if q == 0:
        assert p == 0.0
    else:
        bound = 4 * (len(G) + 1) * (t + 1) * Fraction(1, 2**53)
        assert abs(Fraction(p) - q) <= bound * q


# -- float bits, the program cache and memory ---------------------------------

GOLDEN_RATES = {1: 0.11, 2: 0.07, 3: 0.13, 4: 0.05, 5: 0.17, 6: 0.09}

#: dist_discrete_all(RateSpec("discrete", GOLDEN_RATES), 10), float reprs
GOLDEN_TABLE_T10 = {
    (): 6.278211847988225e-05,
    (1,): 0.0007351405444962377,
    (2,): 0.0005220300625500287,
    (3,): 0.00230855893364449,
    (4,): 0.00043710623583208995,
    (5,): 0.0037182292907634723,
    (6,): 0.0004632092038784181,
    (1, 2): 0.0017131021654349942,
    (1, 3): 0.007153267649626906,
    (1, 4): 0.0017634681600695102,
    (1, 5): 0.014943326540776916,
    (1, 6): 0.0030469102021395186,
    (2, 3): 0.0036323513633855424,
    (2, 4): 0.0009445762145091792,
    (2, 5): 0.008120204463223505,
    (2, 6): 0.0018469529066461317,
    (3, 4): 0.0025758790732674794,
    (3, 5): 0.02205180061254595,
    (3, 6): 0.006070438112659202,
    (4, 5): 0.0042427290297363035,
    (4, 6): 0.0011546822049388235,
    (5, 6): 0.0072849944329467,
    (1, 2, 3): 0.008334707768929514,
    (1, 2, 4): 0.0023436860057042385,
    (1, 2, 5): 0.01931674703889342,
    (1, 2, 6): 0.005072616141003696,
    (1, 3, 4): 0.006679971915965505,
    (1, 3, 5): 0.05482703334973345,
    (1, 3, 6): 0.01668666897422885,
    (1, 4, 5): 0.012808456790444617,
    (1, 4, 6): 0.003997231670954504,
    (1, 5, 6): 0.026058922375991524,
    (2, 3, 4): 0.003300843084811465,
    (2, 3, 5): 0.027122183331928874,
    (2, 3, 6): 0.008337234557332741,
    (2, 4, 5): 0.006570216904152453,
    (2, 4, 6): 0.002085498737202133,
    (2, 5, 6): 0.013932429042028061,
    (3, 4, 5): 0.01576234849152607,
    (3, 4, 6): 0.0052315421325920645,
    (3, 5, 6): 0.03575322975300287,
    (4, 5, 6): 0.007098208089971908,
    (1, 2, 3, 4): 0.006732432676851707,
    (1, 2, 3, 5): 0.053214507393615544,
    (1, 2, 3, 6): 0.01737178760792584,
    (1, 2, 4, 5): 0.013766418957681967,
    (1, 2, 4, 6): 0.0046681584822855305,
    (1, 2, 5, 6): 0.030610434806708144,
    (1, 3, 4, 5): 0.03508203673218681,
    (1, 3, 4, 6): 0.012338440638733126,
    (1, 3, 5, 6): 0.08249277916703926,
    (1, 4, 5, 6): 0.019558785508579597,
    (2, 3, 4, 5): 0.017259962917443854,
    (2, 3, 4, 6): 0.006077514558679432,
    (2, 3, 5, 6): 0.040781672471266434,
    (2, 4, 5, 6): 0.009988206560507062,
    (3, 4, 5, 6): 0.0232322936201749,
    (1, 2, 3, 4, 5): 0.0313700122998956,
    (1, 2, 3, 4, 6): 0.011471621767299751,
    (1, 2, 3, 5, 6): 0.07515068685555289,
    (1, 2, 4, 5, 6): 0.019547953302905208,
    (1, 3, 4, 5, 6): 0.048361835622366275,
    (2, 3, 4, 5, 6): 0.02384729078803443,
    (1, 2, 3, 4, 5, 6): 0.040963651586317595,
}


def test_float_golden_pins():
    # the recursion's float results, bit for bit: any change to the order of
    # its floating-point operations moves some of these last digits
    r = RateSpec("discrete", GOLDEN_RATES)
    table = dist_discrete_all(r, 10)
    assert {G: repr(p) for G, p in table.entries.items()} == \
        {G: repr(p) for G, p in GOLDEN_TABLE_T10.items()}
    trees = [(FragTree(6, 3, {3: 1}, {3: 5, 5: 6}), 10, 0.011153273876384462),
             (FragTree(6, 4, {4: 2, 2: 1}, {2: 3}), 25, 1.4005701376326743e-05),
             (FragTree(6, 6, {6: 1}, {}), 3, 0.014156999999999998)]
    for tree, t, want in trees:
        assert repr(tree_prob_discrete(tree, r, t)) == repr(want)


def _clear_programs():
    probabilities._cached_table_program.cache_clear()
    probabilities._state_program.cache_clear()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_program_cache_never_changes_a_result(exact, rng):
    r = random_rates(6, rng, total=Fraction(9, 10) if exact else 0.9, exact=exact)
    other = random_rates(6, rng, exact=exact)
    tree = FragTree(6, 3, {3: 1}, {3: 5, 5: 6})

    def results():
        return (dist_discrete_all(r, 10).entries, dist_discrete([1, 3, 5, 6], r, 10),
                tree_prob_discrete(tree, r, 10))

    _clear_programs()
    cold = results()
    warm = results()
    # programs built for other rates and horizons serve these as well
    _clear_programs()
    dist_discrete_all(other, 3)
    dist_discrete([1, 3, 5, 6], other, 4)
    reused = results()
    assert repr(cold) == repr(warm) == repr(reused)


def test_program_cache_memory_after_n12_table():
    # the cache keeps one full-table program, as compact index arrays
    r = RateSpec("discrete", {a: 0.9 / 12 for a in range(1, 13)})
    _clear_programs()
    tracemalloc.start()
    try:
        table = dist_discrete_all(r, 3)
        assert len(table.entries) == 4096
        del table
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4 * 2**20


def test_program_cache_skips_tables_above_matrix_n():
    # some 2^(n+2) states: a program this size is built for its call only
    _clear_programs()
    n = probabilities.MATRIX_MAX_N + 1
    table = dist_discrete_all(RateSpec("discrete", {a: 0.05 for a in range(1, n + 1)}), 0)
    assert table.entries[()] == 1.0
    assert probabilities._cached_table_program.cache_info().currsize == 0


def test_long_horizon_memory_stays_flat():
    # all states advance together with one value each, so memory does not
    # grow with t (a list of t + 1 values per state took about 12 MiB here)
    r1, r2 = 1e-6, 2e-6
    r = RateSpec("discrete", {1: r1, 2: r2})
    t = 10**5
    tracemalloc.start()
    try:
        p = dist_discrete([1], r, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # link 1 breaks first, after which link 2 alone stays whole
    want = (1 - r2) ** t * -math.expm1(t * math.log1p(-r1 / (1 - r2)))
    assert math.isclose(p, want, rel_tol=1e-9)


@st.composite
def dyadic_matrix_cases(draw):
    """Like dyadic_cases, but the whole table and total rates below 1."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    e = draw(st.integers(0, 30))
    t = draw(st.integers(0, 40))
    den = (1 << sum(w).bit_length()) << e
    return {a + 1: Fraction(w[a], den) for a in range(n)}, t


@settings(max_examples=60, deadline=None)
@given(dyadic_matrix_cases())
def test_float_matrix_oracle_relative_error(case):
    # the rates and every 1 - rho(J) are exact floats here, and every term of
    # the vector-matrix product is nonnegative. A row entry is a product of
    # at most n factors, and a step adds one product per predecessor, at
    # most 2^n of them, so the error stays relative and grows at most like
    # t (n + 2^n) u. Worst seen in 3,000 random cases: 1.8e-15 relative,
    # 4% of the bound.
    rho, t = case
    n = len(rho)
    exact = transition_matrix_dist(RateSpec("discrete", rho), t)
    table = transition_matrix_dist(
        RateSpec("discrete", {a: float(v) for a, v in rho.items()}), t)
    bound = 2 * (t + 1) * (n + 2**n) * Fraction(1, 2**53)
    for G, q in exact.items():
        p = table[G]
        if q == 0:
            assert p == 0.0
        else:
            assert abs(Fraction(p) - q) <= bound * q


@st.composite
def spread_rate_cases(draw):
    """Continuous rates w_a 10^-k_a with k_a in 0..9, so one chain mixes
    rate scales from 1e-9 to 16, and a horizon with rho(1..n) t up to 50."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    k = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    x = draw(st.floats(1e-3, 50))
    rho = {a + 1: w[a] * 10.0 ** -k[a] for a in range(n)}
    return rho, x / math.fsum(rho.values())


@settings(max_examples=60, deadline=None)
@given(spread_rate_cases())
def test_generator_oracle_relative_error(case):
    # uniformisation sums nonnegative terms, so every entry, tails included,
    # agrees with the closed form in relative terms. Worst seen in 3,000
    # random cases: 2.8e-14 relative.
    rho, t = case
    r = RateSpec("continuous", rho)
    for G, p in generator_matrix_dist(r, t).items():
        q = dist_continuous(G, r, t)
        assert abs(p - q) <= 1e-12 * q


def test_generator_horizon_guard():
    # the series needs about rho(1..n) t terms, so past the cap it refuses
    r = RateSpec("continuous", {1: 1.0, 2: 1.0})
    generator_matrix_dist(r, 5_000.0)
    with pytest.raises(ValueError):
        generator_matrix_dist(r, 5_001.0)


def test_recursion_table_vs_matrix_n12(rng):
    r = random_rates(12, rng, total=1.0)
    for t in (3, 8):
        table = dist_discrete_all(r, t)
        oracle = transition_matrix_dist(r, t)
        assert set(table.entries) == set(oracle.entries)
        for G, q in oracle.items():
            if q > 0.0:
                assert abs(table[G] - q) <= 1e-12 * q
            else:
                # rates summing to 1 leave 1 - rho(1..n) as a rounding
                # residue, which the oracle may carry as a tiny negative
                assert table[G] == 0.0 and abs(q) < 1e-30



def test_matrix_oracle_nonnegative_at_total_one():
    # 1 - rho(1..n) rounds to a tiny negative for these rates; the oracle
    # clamps it, so no entry of the table may be negative
    r = random_rates(12, make_rng(), total=1.0)
    assert 1 - r.rho_sum(range(1, 13)) < 0
    assert all(p >= 0 for _, p in transition_matrix_dist(r, 3).items())
    assert check_transition_spectrum(r)["diagonal_exact"]


def test_full_table_cap():
    r = RateSpec("discrete", {a: 0.04 for a in range(1, 22)})
    with pytest.raises(ValueError):
        dist_discrete_all(r, 2)

def test_unknown_method_rejected(rates5):
    with pytest.raises(ValueError):
        dist_discrete([2], rates5, 3, method="nope")
    with pytest.raises(ValueError):
        tree_prob_discrete(FragTree(5, 2), rates5, 3, method="nope")


def _one_minus_exp(x, terms=8):
    """1 - e^(-x) for a small exact rational x, by its Taylor series."""
    s, term = Fraction(0), Fraction(1)
    for k in range(1, terms):
        term = term * -x / k
        s -= term
    return s


def test_continuous_small_rate_relative_error():
    rho1, rho2, t = 1e-9, 2e-9, 1e-3
    r = RateSpec("continuous", {1: rho1, 2: rho2})
    x1 = Fraction(rho1) * Fraction(t)
    x2 = Fraction(rho2) * Fraction(t)
    want = _one_minus_exp(x1) * (1 - _one_minus_exp(x2))
    for p in (dist_continuous([1], r, t), tree_prob_continuous(FragTree(2, 1), r, t)):
        assert abs(Fraction(p) - want) <= Fraction(1, 10**14) * want


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_shared_horizon_terms_equal_dist_discrete(exact, rng):
    # the paper's terms of each tree, built once and evaluated at every
    # horizon as verify does, give dist_discrete to the bit, and the sum of
    # the per-tree probabilities that dist_discrete once took
    grid = (0, 1, 2, 5, 10, 20)
    for n in range(1, 6):
        r = random_rates(n, rng, total=1 if n % 2 else 0.9, exact=exact)
        for G in _subsets(n):
            trees = enumerate_fragmentation_trees(G, n)
            terms = [probabilities._paper_terms(tr, r) for tr in trees]
            for t in grid:
                shared = probabilities._paper_dist(terms, t, r.exact)
                assert type(shared) is (Fraction if exact else float)
                assert shared == dist_discrete(G, r, t, method="direct")
                vals = [tree_prob_discrete(tr, r, t, "direct") for tr in trees]
                assert shared == (sum(vals, Fraction(0)) if exact else math.fsum(vals))
