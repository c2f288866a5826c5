"""The four benchmark workloads.

Each workload builds its inputs from the run's seed, runs one operation per
call of `run`, computes its references apart from the timed phase, and
judges one operation's output with `check`, which returns None when the
output is right and a one-line reason otherwise. Every operation of a run
repeats the same inputs, so all operations are of one size and a run is a
whole number of rounds.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference as ref
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import fragchain  # noqa: E402
from fragchain import fragments as fr  # noqa: E402
from fragchain import probabilities as pr  # noqa: E402
from fragchain import simulate as sim  # noqa: E402

if not Path(fragchain.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"fragchain was imported from {fragchain.__file__}, "
                      f"not from {SRC}")

#: z-scores beyond this fail a Monte Carlo check
Z_MAX = 4.0
#: Monte Carlo checks only judge outcomes expected at least this many times,
#: where the normal approximation behind Z_MAX holds
MIN_EXPECTED = 100


class OperationFailed(Exception):
    """An operation ran to its end but reported failure."""


def child_env():
    """Environment for child processes that import fragchain from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


CAL_CODE = "import speed; speed.calibrate()"


class Workload:
    """Defaults of the in-process workloads."""

    #: the calibration's median time at the reference speed, the machine
    #: state of the README's reference figures
    CAL_REF_S = 0.020

    def calibrate(self):
        return speed.calibrate()


def _rates(rng, n, exact):
    """Random rates k/997 with integer k drawn so that rates differ by at
    most 3:2 and sum to at most 0.9. The fixed prime denominator and the
    narrow range keep the cost of exact arithmetic, and of simulation, much
    the same from seed to seed."""
    hi = 900 // n
    rho = [None] + [Fraction(rng.randint(2 * hi // 3, hi), 997) for _ in range(n)]
    return rho if exact else [None] + [float(r) for r in rho[1:]]


def _spec(rho):
    return pr.RateSpec("discrete", {a: rho[a] for a in range(1, len(rho))})


def _csv(links):
    return ",".join(str(v) for v in sorted(links))


class TableFloat(Workload):
    """Full float table of the discrete chain, every state at once."""

    name = "table-float"
    N, T = 6, 10

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rho = _rates(rng, self.N, exact=False)
        self.rates = _spec(self.rho)

    def run(self, tracer=None):
        return dict(pr.dist_discrete_all(self.rates, self.T).entries)

    def reference(self):
        law = ref.forward(self.rho, self.N, self.T)
        return {ref.links_of(m): law.get(m, 0.0) for m in range(1 << self.N)}

    def check(self, out, want):
        if set(out) != set(want):
            return "the table does not hold exactly the 2^n states"
        for G, p in out.items():
            if not 0.0 <= p <= 1.0:
                return f"P{G} = {p!r} lies outside [0, 1]"
            if abs(p - want[G]) > 1e-10:
                return f"P{G} = {p!r}, forward iteration gives {want[G]!r}"
        if abs(math.fsum(out.values()) - 1.0) > 1e-10:
            return f"the table sums to {math.fsum(out.values())!r}"
        return None


class StateExact(Workload):
    """One large state in exact Fraction arithmetic."""

    name = "state-exact"
    N, K, T = 8, 5, 10

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rho = _rates(rng, self.N, exact=True)
        self.rates = _spec(self.rho)
        self.G = sorted(rng.sample(range(1, self.N + 1), self.K))

    def run(self, tracer=None):
        return pr.dist_discrete(self.G, self.rates, self.T)

    def reference(self):
        goal = sum(1 << (a - 1) for a in self.G)
        return ref.forward(self.rho, self.N, self.T, within=goal).get(goal, 0)

    def check(self, out, want):
        if not isinstance(out, Fraction) or out != want:
            return f"P{tuple(self.G)} = {out!r}, forward iteration gives {want!r}"
        return None


class MonteCarlo(Workload):
    """One seeded batch classified into trees, then the coupled
    construction for one fixed tree, from the same seed every operation."""

    name = "montecarlo"
    N, T, SAMPLES = 5, 3, 5000

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rho = _rates(rng, self.N, exact=True)
        self.rates = _spec(self.rho)
        self.seed = rng.randrange(1 << 30)
        # the coupled tree: the two most likely links, the likelier first,
        # so its matching probability is large enough for a sound z-test
        root, child = sorted(range(1, self.N + 1), key=lambda a: -self.rho[a])[:2]
        self.tree = fr.FragTree(self.N, root, {root: child} if child < root else {},
                                {root: child} if child > root else {})

    def run(self, tracer=None):
        counts = sim.batch_tree_counts(self.rates, self.T, self.SAMPLES, self.seed)
        est, se = sim.estimate_tree_prob_coupled(
            self.tree, self.rates, self.T, self.SAMPLES, self.seed + 1)
        return counts, est, se

    def reference(self):
        states = ref.forward(self.rho, self.N, self.T)
        trees = {}
        for m in range(1 << self.N):
            for tree in fr.enumerate_fragmentation_trees(ref.links_of(m), self.N):
                trees[tree.structure_key()] = (
                    m, pr.tree_prob_discrete(tree, self.rates, self.T))
        coupled = pr.tree_prob_discrete(self.tree, self.rates, self.T)
        return {"states": states, "trees": trees, "coupled": coupled,
                "rerun": self.run()}

    def check(self, out, want):
        counts, est, se = out
        n = self.SAMPLES
        if out != want["rerun"]:
            return "a rerun with the same seed gives other counts"
        if sum(counts.values()) != n:
            return f"the batch classifies {sum(counts.values())} of {n} trajectories"
        per_state = {}
        for key, c in counts.items():
            if key not in want["trees"] or want["trees"][key][1] == 0:
                return f"trajectories matched the impossible tree {key}"
            m = want["trees"][key][0]
            per_state[m] = per_state.get(m, 0) + c
        judged = [(f"state {ref.links_of(m)}", per_state.get(m, 0), p)
                  for m, p in want["states"].items()]
        judged += [(f"tree {key}", counts.get(key, 0), p)
                   for key, (_, p) in want["trees"].items()]
        hits = round(est * n)
        judged.append(("coupled tree", hits, want["coupled"]))
        if abs(hits / n - est) > 1e-12 or abs(
                se - math.sqrt(est * (1 - est) / n)) > 1e-12:
            return f"the coupled estimate {est!r} +- {se!r} is no binomial ratio"
        for what, c, p in judged:
            p = float(p)
            if n * min(p, 1 - p) >= MIN_EXPECTED:
                z = ref.z_score(c, n, p)
                if abs(z) > Z_MAX:
                    return f"{what}: {c} of {n} against p = {p:.6f}, z = {z:.2f}"
        return None


class Cli(Workload):
    """A session of short `python -m fragchain.cli` processes, one per
    subcommand, on small inputs written once per run."""

    name = "cli"
    N, T, SIM_T, SIM_SAMPLES = 5, 4, 2, 2000
    CAL_REF_S = 0.090

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rho = _rates(rng, self.N, exact=False)
        rates = self.dir / "rates.json"
        rates.write_text(json.dumps(
            {"mode": "discrete",
             "rho": {str(a): self.rho[a] for a in range(1, self.N + 1)}}))
        self.subset = sorted(rng.sample(range(1, self.N + 1), 2))
        # a removal-order tree on three links: a random binary search tree
        links = sorted(rng.sample(range(1, self.N + 1), 3))
        self.tree = self._random_bst(links, None, rng)
        tree_file = self.dir / "tree.json"
        tree_file.write_text(json.dumps(
            {"links": [1, self.N],
             "root": next(a for a, p in self.tree.items() if p is None),
             "edges": [[p, a] for a, p in sorted(self.tree.items())
                       if p is not None]}))
        # a rooted tree on vertices 0..6 and a comparable pair H <= K
        edges = [(rng.randrange(v), v) for v in range(1, 7)]
        self.rooted = (0, edges)
        rooted = self.dir / "rooted.json"
        rooted.write_text(json.dumps({"root": 0, "edges": edges}))
        self.K = {v for v in range(1, 7) if rng.random() < 0.3}
        open_edges = sorted(ref.stump(self.rooted, self.K) - {0})
        self.H = self.K | {e for e in open_edges if rng.random() < 0.6}
        self.trees_links = 8
        self.trees_subset = sorted(rng.sample(range(1, 9), 5))
        # the most likely link, so its one-link state is frequent enough for
        # the z-test on the simulate report to be sound
        self.sim_link = max(range(1, self.N + 1), key=lambda a: self.rho[a])
        self.sim_seed = rng.randrange(1 << 30)
        self.commands = {
            "dist_subset": ["dist", "--rates", str(rates), "--time", str(self.T),
                            "--subset", _csv(self.subset)],
            "dist_table": ["dist", "--rates", str(rates), "--time", str(self.T),
                           "--format", "json"],
            "treeprob": ["treeprob", "--rates", str(rates), "--tree",
                         str(tree_file), "--time", str(self.T)],
            "trees": ["trees", "--links", str(self.trees_links), "--subset",
                      _csv(self.trees_subset), "--format", "count"],
            "poset": ["poset", "--tree", str(rooted)],
            "mobius": ["mobius", "--tree", str(rooted), "--from", _csv(self.H),
                       "--to", _csv(self.K)],
            "simulate": ["simulate", "--rates", str(rates), "--time",
                         str(self.SIM_T), "--subset", str(self.sim_link),
                         "--samples", str(self.SIM_SAMPLES), "--seed",
                         str(self.sim_seed)],
            # verify draws its own inputs from the documented default seed
            "verify": ["verify", "--n", "4", "--samples", "2000"],
        }
        self.env = child_env()

    def calibrate(self):
        """Fresh interpreters that run the calibration computation: start-up
        and computation together, as in the session's processes. Returns the
        median wall time of three, since one start-up varies widely."""
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", CAL_CODE], env=self.env,
                           cwd=BENCH_DIR, check=True)
            walls.append(time.perf_counter() - t0)
        return sorted(walls)[1]

    @staticmethod
    def _random_bst(links, parent, rng):
        if not links:
            return {}
        i = rng.randrange(len(links))
        out = {links[i]: parent}
        out.update(Cli._random_bst(links[:i], links[i], rng))
        out.update(Cli._random_bst(links[i + 1:], links[i], rng))
        return out

    def run(self, tracer=None):
        out = {}
        for name, args in self.commands.items():
            if tracer is None:
                argv = [sys.executable, "-m", "fragchain.cli"] + args
            else:
                trace_file = self.dir / f"trace-{name}.json"
                argv = [sys.executable, str(BENCH_DIR / "cli_shim.py"),
                        str(trace_file), repr(time.monotonic()), "--"] + args
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  text=True, cwd=self.dir)
            wall = time.perf_counter() - t0
            if tracer is not None and trace_file.exists():
                ended = time.monotonic()
                with tracer.span("bench.merge"):
                    dumped = json.loads(trace_file.read_text())
                    trace_file.unlink()
                    tracer.merge(dumped)
                tracer.record("process.exit", ended - dumped["finished_at"])
            out[name] = (proc.returncode, proc.stdout, proc.stderr, wall)
        for name, (code, _, stderr, _) in out.items():
            if code != 0:
                raise OperationFailed(f"{name} exited {code}: {stderr.strip()[-200:]}")
        return out

    def reference(self):
        law = ref.forward(self.rho, self.N, self.T)
        sim_goal = 1 << (self.sim_link - 1)
        return {
            "table": {ref.links_of(m): law.get(m, 0.0) for m in range(1 << self.N)},
            "treeprob": ref.tree_match_prob(self.rho, self.N, self.T, self.tree),
            "trees": ref.catalan(len(self.trees_subset)),
            "poset": [len(self.rooted[1]), 2 ** len(self.rooted[1]),
                      ref.cover_pairs(self.rooted), ref.antichains(self.rooted)],
            "mobius": ref.mobius_recursion(self.rooted, self.H, self.K),
            "simulate": ref.forward(self.rho, self.N, self.SIM_T).get(sim_goal, 0.0),
        }

    def check(self, out, want):
        try:
            return self._check_values(out, want)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable output: {e!r}"

    def _check_values(self, out, want):
        table = want["table"]
        rows = out["dist_subset"][1].splitlines()
        subset, p = rows[1].split(",")
        G = tuple(int(a) for a in subset.split(";"))
        if rows[0] != "subset,probability" or len(rows) != 2 \
                or G != tuple(self.subset) or abs(float(p) - table[G]) > 1e-10:
            return f"dist --subset printed {rows!r}, forward iteration gives {table[G]!r}"
        entries = json.loads(out["dist_table"][1])["entries"]
        got = {tuple(e["subset"]): float(e["probability"]) for e in entries}
        if set(got) != set(table) or any(abs(got[G] - table[G]) > 1e-10 for G in got):
            return "dist --format json disagrees with the forward iteration"
        p = float(out["treeprob"][1])
        if abs(p - want["treeprob"]) > 1e-10:
            return f"treeprob printed {p!r}, forward iteration gives {want['treeprob']!r}"
        if int(out["trees"][1]) != want["trees"]:
            return f"trees printed {out['trees'][1].strip()}, Catalan gives {want['trees']}"
        lines = out["poset"][1].splitlines()
        got = [int(line.rsplit(":", 1)[1]) for line in lines]
        if got != want["poset"]:
            return f"poset printed {got}, brute force gives {want['poset']}"
        if int(out["mobius"][1]) != want["mobius"]:
            return (f"mobius printed {out['mobius'][1].strip()}, the recursion "
                    f"gives {want['mobius']}")
        rep = json.loads(out["simulate"][1])
        exact = want["simulate"]
        n = self.SIM_SAMPLES
        if rep["samples"] != n or abs(rep["exact"] - exact) > 1e-10 \
                or abs(rep["z"] - (rep["estimate"] - exact) / rep["stderr"]) > 1e-6:
            return f"simulate reported {rep}, forward iteration gives {exact!r}"
        z = ref.z_score(round(rep["estimate"] * n), n, exact)
        if n * min(exact, 1 - exact) >= MIN_EXPECTED and abs(z) > Z_MAX:
            return f"simulate estimated {rep['estimate']} against {exact!r}, z = {z:.2f}"
        if "verify: PASS" not in out["verify"][1].splitlines():
            return "verify did not print PASS"
        return None


WORKLOADS = {w.name: w for w in (TableFloat, StateExact, MonteCarlo, Cli)}
