"""Quick self-test of the benchmark: about a minute, from the repository root.

    python3 bench/selftest.py

It runs every workload for a fraction of a second, untraced and traced,
and checks that each prints the metrics BENCHMARK.json declares. It shows
that the checks bite: a table entry moved by 1e-8, an exact value off by
one part in 10^30, a tree count off by one (in a Monte Carlo batch and in
the `trees` command) and a CLI command that exits non-zero must each count
as a failed operation. Last, the benchmark must refuse to run, without a
result, in a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import workloads

CHECKS = []


def check(what, ok):
    CHECKS.append((what, ok))
    print(f"{'ok ' if ok else 'FAIL'} {what}", flush=True)


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_runs(declared):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for name in run.WORKLOADS:
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                         "--trace", str(trace))
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            got = {k: m["unit"] for k, m in res.get("metrics", {}).items()}
            check(f"{name} --trace {trace}: exits 0, correct, nothing failed, "
                  f"declared metrics", proc.returncode == 0 and res["correct"]
                  and res["attempted"] >= 1 and res["failed"] == 0 and got == want)


def failed_ops(wl, outs):
    want = wl.reference()
    failed, wrong = run.judge(wl, outs, want)
    return failed, not wrong


def test_checks_bite(workdir):
    wl = workloads.TableFloat(5, workdir)
    good = wl.run()
    bad = dict(good)
    bad[next(iter(bad))] += 1e-8
    check("table-float: an entry moved by 1e-8 fails",
          failed_ops(wl, [good, bad]) == (1, False))

    wl = workloads.StateExact(5, workdir)
    good = wl.run()
    check("state-exact: a value off by 1e-30 fails",
          failed_ops(wl, [good, good + Fraction(1, 10**30)]) == (1, False))

    wl = workloads.MonteCarlo(5, workdir)
    counts, est, se = good = wl.run()
    bad = dict(counts)
    bad[next(iter(bad))] += 1
    check("montecarlo: a tree count off by one fails",
          failed_ops(wl, [good, (bad, est, se)]) == (1, False))

    wl = workloads.Cli(5, workdir / "cli")
    good = wl.run()
    bad = dict(good)
    code, stdout, stderr, wall = bad["trees"]
    bad["trees"] = (code, f"{int(stdout) + 1}\n", stderr, wall)
    check("cli: a trees count off by one fails",
          failed_ops(wl, [good, bad]) == (1, False))
    wl.commands["simulate"] += ["--samples", "0"]
    outs, _, _ = run._measure(wl, 0.0)
    check("cli: a command exiting non-zero fails the operation, output unjudged",
          failed_ops(wl, outs) == (1, True))


def test_refuses_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "table-float", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    check("without src/, exits non-zero and prints no result",
          proc.returncode != 0 and not proc.stdout.strip())


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.RESULTS / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        test_checks_bite(workdir)
        test_refuses_without_sources(workdir)
        test_runs(declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [what for what, ok in CHECKS if not ok]
    print(f"{len(CHECKS) - len(bad)} of {len(CHECKS)} checks passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
