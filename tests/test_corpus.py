"""Bit-identity corpus: one hash over float bits, exact Fractions and seeded
Monte Carlo results of the public routes.

A change that means to keep every answer keeps CORPUS_SHA. The corpus
imports only fragchain and the standard library, so it also runs as a plain
script, which prints the hash, on interpreters without pytest:

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import math
import random
from fractions import Fraction

from fragchain import (FragTree, RateSpec, batch_tree_counts, dist_discrete,
                       dist_discrete_all, dist_discrete_endpoints,
                       enumerate_fragmentation_trees, estimate_state_prob,
                       estimate_tree_prob, estimate_tree_prob_coupled,
                       simulate_discrete, tree_prob_discrete)

CORPUS_SHA = "a7a271251fe9a617"


def _enc(x):
    """Canonical text of a result: floats by their bits, Fractions exactly,
    containers in their own order."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{_enc(k)}:{_enc(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(_enc(v) for v in x) + ")"
    return repr(x)


def _float_rates(n, rng, total):
    """Generic float rates, whose interval sums round differently in
    different summation orders."""
    w = [rng.random() + 0.05 for _ in range(n)]
    s = math.fsum(w)
    return RateSpec("discrete", {a + 1: w[a] * total / s for a in range(n)})


def _exact_rates(n, rng):
    return RateSpec("discrete", {a: Fraction(rng.randint(1, 9), 13 * n + rng.randint(0, 4))
                                 for a in range(1, n + 1)})


def corpus():
    """(label, value) pairs in a fixed order."""
    rng = random.Random(20261018)
    out = []
    floats = [_float_rates(n, rng, total) for n in (1, 3, 5, 6)
              for total in (0.3, 0.9, 1.0)]
    floats.append(RateSpec("discrete", {1: 63 / 64}))
    for i, r in enumerate(floats):
        for t in (0, 1, 3, 7, 20):
            out.append((f"table-float {i} t={t}", dist_discrete_all(r, t).entries))
    out.append(("underflow", [dist_discrete([], floats[-1], t) for t in (179, 180)]))
    exacts = [_exact_rates(n, rng) for n in (2, 4, 5)]
    for i, r in enumerate(exacts):
        for t in (0, 2, 5):
            out.append((f"table-exact {i} t={t}", dist_discrete_all(r, t).entries))
    for r in (_float_rates(8, rng, 0.95), _exact_rates(8, rng)):
        for G in ([], [1, 8], [2, 3, 5], [1, 3, 4, 6, 8], list(range(1, 9))):
            out.append((f"state {G}", [dist_discrete(G, r, t) for t in (1, 4, 10, 30)]))
            if set(G) <= {1, 8}:
                out.append((f"endpoints {G}",
                            [dist_discrete_endpoints(G, r, t) for t in (1, 4, 10)]))
    for r in (_float_rates(6, rng, 1.0), _exact_rates(6, rng)):
        for G in ([3], [1, 2, 6], [2, 3, 4, 5]):
            for tree in enumerate_fragmentation_trees(G, 6):
                out.append((f"tree {tree.structure_key()}",
                            [tree_prob_discrete(tree, r, t) for t in (0, 2, 6, 12)]))
        tree = enumerate_fragmentation_trees([1, 2, 6], 6)[1]
        out.append(("tree by the paper's route",
                    [tree_prob_discrete(tree, r, 5, "direct")]))
    r = floats[7]
    counts = batch_tree_counts(r, 4, 3000, seed=11)
    out.append(("batch counts", list(counts.items())))
    crates = RateSpec("continuous", {1: 0.7, 2: 1.3, 3: 0.4, 4: 1.0})
    out.append(("batch counts continuous",
                list(batch_tree_counts(crates, 1.5, 1000, seed=5).items())))
    out.append(("direct continuous",
                [estimate_tree_prob(FragTree(4, 2, {}, {2: 3}), crates, 1.0, 1000, 5),
                 estimate_state_prob([2, 3], crates, 1.0, 1000, 5)]))
    tree = FragTree(5, 3, {3: 1}, {3: 4})
    for seed in (0, 1729):
        out.append((f"coupled {seed}", estimate_tree_prob_coupled(tree, r, 4, 2000, seed)))
        out.append((f"direct {seed}", estimate_tree_prob(tree, r, 4, 2000, seed)))
        out.append((f"state {seed}", estimate_state_prob([1, 3, 4], r, 4, 2000, seed)))
    out.append(("trajectories", [simulate_discrete(r, 6, 3, i).removal_time
                                 for i in range(20)]))
    return out


def corpus_sha():
    h = hashlib.sha256()
    for label, value in corpus():
        h.update(f"{label}={_enc(value)}\n".encode())
    return h.hexdigest()[:16]


def test_corpus_keeps_its_hash():
    assert corpus_sha() == CORPUS_SHA


def test_corpus_keeps_its_hash_through_generated_kernels(monkeypatch):
    # with HOT_STEPS = 0 every program steps through its generated kernel
    from fragchain import probabilities
    generate, generated = probabilities._generate, []
    monkeypatch.setattr(probabilities, "_generate",
                        lambda prog: generated.append(prog) or generate(prog))
    monkeypatch.setattr(probabilities, "HOT_STEPS", 0)
    probabilities._cached_table_program.cache_clear()
    probabilities._state_program.cache_clear()
    assert corpus_sha() == CORPUS_SHA
    assert len(generated) > 10


if __name__ == "__main__":
    print(corpus_sha())
