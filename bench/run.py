"""Benchmark of fragchain: four workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; fragchain is imported from the `src/` directory next to
`bench/`. Each workload runs in a fresh worker process that sets up (imports,
inputs, one untimed warm-up operation), repeats its operation for S seconds,
then checks every output against references computed after the timed phase.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics setup_s, ops_per_s, op_p50_ms and peak_rss_mb. setup_s
is the median over the worker and SETUP_PROBES more processes that only set
up. Times are scaled to a reference machine speed: the workload's fixed
calibration runs after every operation (and three times after set-up), and
each time is multiplied by the workload's CAL_REF_S over the calibration's
median in the same process. On a shared machine whose speed drifts, the scaled times stay
comparable between runs made at different moments. With --trace 1 the worker first runs S seconds untraced, then S seconds
with every layer wrapped in spans, and the last line holds the per-layer
metrics, the share of operation time no span accounts for, and the tracing
overhead. Full payloads go to bench_results/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / "bench_results"
WORKLOADS = ("table-float", "state-exact", "montecarlo", "cli")
SETUP_PROBES = 4
DEADLINE_S = 170
CLI_COMMANDS = ("dist_subset", "dist_table", "treeprob", "trees", "poset",
                "mobius", "simulate", "verify")

#: per-layer metrics read from one span: (metric, span, field); field
#: 0 is calls and 2 is self seconds, both per operation
SPAN_METRICS = [
    ("fragments.enumerate_trees.calls", "fragments.enumerate_fragmentation_trees", 0),
    ("fragments.enumerate_trees.self_s", "fragments.enumerate_fragmentation_trees", 2),
    ("fragments.component_masks.calls", "fragments.FragTree.component_masks", 0),
    ("fragments.component_masks.self_s", "fragments.FragTree.component_masks", 2),
    ("fragments.chain_fragments.calls", "fragments.chain_fragments", 0),
    ("probabilities.dist_discrete.calls", "probabilities.dist_discrete", 0),
    ("probabilities.dist_discrete.self_s", "probabilities.dist_discrete", 2),
    ("probabilities.tree_prob_discrete.calls", "probabilities.tree_prob_discrete", 0),
    ("probabilities.tree_prob_discrete.self_s", "probabilities.tree_prob_discrete", 2),
    ("probabilities.lambda_diff.calls", "probabilities.lambda_diff", 0),
    ("probabilities.lambda_diff.self_s", "probabilities.lambda_diff", 2),
    ("probabilities.lam_interval.calls", "probabilities.lam_interval", 0),
    ("probabilities.lam_interval.self_s", "probabilities.lam_interval", 2),
    ("probabilities.transition_matrix_dist.self_s",
     "probabilities.transition_matrix_dist", 2),
    ("simulate.simulate_discrete.self_s", "simulate.simulate_discrete", 2),
    ("simulate.classify_tree.self_s", "simulate.classify_tree", 2),
    ("simulate.coupled_construction.calls", "simulate.coupled_construction", 0),
    ("simulate.coupled_construction.self_s", "simulate.coupled_construction", 2),
    ("poset.mobius.calls", "poset.mobius", 0),
    ("poset.mobius.self_s", "poset.mobius", 2),
    ("poset.mobius_recursive.self_s", "poset.mobius_recursive", 2),
]
#: layers whose summed self time is reported; `process` is the start, the
#: import of fragchain and the exit of CLI processes, `bench` is the
#: benchmark's own work inside operations
SELF_LAYERS = ("fragments", "probabilities", "simulate", "poset", "trees",
               "serialize", "cli", "process", "bench")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for metric, _, field in SPAN_METRICS:
        units[metric] = "count" if field == 0 else "s"
    units.update({
        "fragments.enumerate_trees.trees": "count",
        "probabilities.ie_terms": "count",
        "probabilities.denominator_bits_max": "bits",
        "simulate.trajectories": "count",
        "simulate.rng_draws": "count",
        "simulate.coupled.useful_ratio": "ratio",
    })
    units.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    units["cli.python_start_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units.update({f"cli.{c}.p50_ms": "ms" for c in CLI_COMMANDS})
    units["trace.unaccounted_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchError(Exception):
    pass


# -- worker ---------------------------------------------------------------------


class OperationError(str):
    """Text of the exception an operation raised."""


def _speed_scale(wl, samples):
    """Factor that turns times measured now into times at the reference
    speed, at which the workload's calibration takes CAL_REF_S."""
    return wl.CAL_REF_S / statistics.median(samples)


def _measure(wl, seconds, tracer=None):
    """Repeat the operation, with one calibration after each, until
    `seconds` have passed. Returns the outputs (an exception's text for an
    operation that raised), their wall times, and the calibration times."""
    outs, times, cal = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = wl.run(tracer)
        except Exception as e:  # noqa: BLE001 - an operation's failure is data
            out = OperationError("".join(traceback.format_exception_only(e)).strip())
        t1 = time.perf_counter()
        outs.append(out)
        times.append(t1 - t0)
        cal.append(wl.calibrate())
        if time.perf_counter() - start >= seconds:
            return outs, times, cal


def _startup_ms(env, repeats=5):
    """Median wall time of a bare interpreter, and median time of
    `import fragchain.cli` inside a fresh one, in ms."""
    bare, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", (
            "import time; t = time.perf_counter(); import fragchain.cli; "
            "print(time.perf_counter() - t)")], env=env, check=True,
            capture_output=True, text=True)
        imports.append(float(proc.stdout))
    return 1e3 * statistics.median(bare), 1e3 * statistics.median(imports)


def _layer_metrics(tracer, times, overhead_ratio, env, cli_outs):
    ops = len(times)
    spans = tracer.spans

    def stat(name, field):
        return spans.get(name, (0, 0.0, 0.0))[field]

    m = {metric: stat(span, field) / ops for metric, span, field in SPAN_METRICS}
    counts = tracer.counts
    m["fragments.enumerate_trees.trees"] = counts["fragments.enumerate_trees.trees"] / ops
    m["probabilities.ie_terms"] = counts["probabilities.ie_terms"] / ops
    m["probabilities.denominator_bits_max"] = counts["probabilities.denominator_bits_max"]
    coupled = stat("simulate.coupled_construction", 0)
    m["simulate.trajectories"] = (stat("simulate.simulate_discrete", 0)
                                  + stat("simulate.simulate_continuous", 0)
                                  + coupled) / ops
    m["simulate.rng_draws"] = counts["simulate.rng_draws"] / ops
    m["simulate.coupled.useful_ratio"] = (
        counts["simulate.coupled.useful"] / coupled if coupled else 0.0)
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = sum(s[2] for name, s in spans.items()
                                   if name.split(".", 1)[0] == layer) / ops
    m["cli.python_start_ms"], m["cli.import_ms"] = _startup_ms(env)
    for c in CLI_COMMANDS:
        walls = [o[c][3] for o in cli_outs if not isinstance(o, OperationError)]
        m[f"cli.{c}.p50_ms"] = 1e3 * statistics.median(walls) if walls else 0.0
    wall = sum(times)
    m["trace.unaccounted_share"] = (wall - tracer.top) / wall
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def judge(wl, outs, want):
    """Count the operations that failed: those that raised, and those whose
    output fails its check, which are also returned as reasons."""
    failed, wrong = 0, []
    for out in outs:
        if isinstance(out, OperationError):
            failed += 1
            continue
        reason = wl.check(out, want)
        if reason is not None:
            failed += 1
            wrong.append(reason)
    return failed, wrong


def worker(args):
    spawned_at = args.spawned_at
    import workloads
    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.run()  # warm-up
        setup_s = time.monotonic() - spawned_at
        setup_scale = _speed_scale(wl, [wl.calibrate() for _ in range(3)])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
            return 0
        outs, times, cal = _measure(wl, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        scale = _speed_scale(wl, cal)
        payload = {"setup_s": setup_s, "setup_scale": setup_scale, "op_s": times,
                   "cal_s": cal, "cal_ref_s": wl.CAL_REF_S, "scale": scale,
                   "peak_rss_mb": peak_rss_mb,
                   "ops_per_s": len(times) / (scale * sum(times))}
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            if args.workload != "cli":
                tracer.install()
            try:
                touts, ttimes, tcal = _measure(wl, args.seconds, tracer)
            finally:
                tracer.uninstall()
            cli_outs = outs if args.workload == "cli" else []
            traced_rate = len(ttimes) / (_speed_scale(wl, tcal) * sum(ttimes))
            payload["layers"] = _layer_metrics(
                tracer, ttimes, traced_rate / payload["ops_per_s"],
                workloads.child_env(), cli_outs)
            payload["spans"] = tracer.spans
            payload["traced_op_s"] = ttimes
            outs = outs + touts
        failed, wrong = judge(wl, outs, wl.reference())
        payload.update(attempted=len(outs), failed=failed, correct=not wrong,
                       reasons=sorted(set(wrong))[:10],
                       errors=sorted({o for o in outs if isinstance(o, OperationError)})[:10])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(payload))
    return 0


# -- coordinator -----------------------------------------------------------------


def _spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Run one worker process to its end and return its JSON payload."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--role", "worker",
            "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload}: the worker ran past the deadline") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: the worker exited {proc.returncode}")
    return json.loads(lines[-1])


def coordinate(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    payload = _spawn(workload, seed, seconds, trace, deadline)
    if trace:
        units = per_layer_units()
        metrics = {k: {"value": payload["layers"][k], "unit": u}
                   for k, u in units.items()}
    else:
        probes = [payload] + [
            _spawn(workload, seed, seconds, 0, deadline, setup_only=True)
            for _ in range(SETUP_PROBES)]
        setups = [p["setup_s"] * p["setup_scale"] for p in probes]
        payload["setup_samples_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": payload["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * payload["scale"]
                          * statistics.median(payload["op_s"]), "unit": "ms"},
            "peak_rss_mb": {"value": payload["peak_rss_mb"], "unit": "MiB"},
        }
    result = {"correct": payload["correct"], "attempted": payload["attempted"],
              "failed": payload["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{'trace' if trace else 'result'}-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"result": result, "payload": payload}, indent=1))
    return result, payload


def _report(workload, result, payload, trace):
    """Human-readable lines for one workload."""
    lines = [f"== {workload}: attempted {result['attempted']}, failed "
             f"{result['failed']}, correct {result['correct']}"]
    lines += [f"   wrong: {r}" for r in payload["reasons"]]
    lines += [f"   raised: {e}" for e in payload["errors"]]
    metrics = result["metrics"]
    if not trace:
        lines.append(f"   calibration {1e3 * statistics.median(payload['cal_s']):.4g} ms, "
                     f"so times are scaled by {payload['scale']:.4g}; unscaled "
                     f"op p50 {1e3 * statistics.median(payload['op_s']):.6g} ms")
    if trace:
        wall = statistics.mean(payload["traced_op_s"])
        lines.append(f"   traced operation wall time {wall:.6g} s, per layer self time:")
        metrics = {k: metrics[k] for k in
                   [f"{layer}.self_s" for layer in SELF_LAYERS]
                   + ["trace.unaccounted_share", "trace.overhead_ratio"]}
    for name, m in metrics.items():
        lines.append(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("coordinator", "worker"),
                   default="coordinator", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.role == "worker":
        return worker(args)
    if not (ROOT / "src" / "fragchain" / "__init__.py").is_file():
        print(f"error: no fragchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    names = WORKLOADS if args.all else (args.workload,)
    results = {}
    try:
        for name in names:
            result, payload = coordinate(name, args.seed, args.seconds, args.trace)
            print("\n".join(_report(name, result, payload, args.trace)), flush=True)
            results[name] = result
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
