"""Spans around the calls into fragchain's layers, for the traced run.

`Tracer.install` wraps, from outside the program, every public function of
each layer module and every public method of the classes those modules
define. It also rebinds the name in every fragchain module that imported
it, so a call through `from .fragments import chain_fragments` is timed as
well. A span's self time is its duration minus that of the spans it
encloses. Counts the layers do not expose are observed on the wrapped
calls' arguments and results. `uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("fragments", "probabilities", "simulate", "poset", "trees",
          "serialize", "cli")
#: rate lookups called tens of thousands of times per operation: a span
#: would cost more than the lookup, so their time stays in the caller's
UNWRAPPED = {"probabilities.RateSpec.rho", "probabilities.RateSpec.rho_sum"}


class _CountingRandom:
    """Delegates to a Random and counts the uniforms drawn from it."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def random(self):
        self._counts["simulate.rng_draws"] += 1
        return self._rng.random()

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        #: span name -> [calls, seconds, self seconds]
        self.spans = {}
        self.counts = {"fragments.enumerate_trees.trees": 0,
                       "probabilities.ie_terms": 0,
                       "probabilities.denominator_bits_max": 0,
                       "simulate.rng_draws": 0,
                       "simulate.coupled.useful": 0}
        #: seconds spent inside outermost spans
        self.top = 0.0
        self._open = []
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _close(self, stat, dt):
        inner = self._open.pop()
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - inner
        if self._open:
            self._open[-1] += dt
        else:
            self.top += dt

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own work or a known phase."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stat, time.perf_counter() - t0)

    def record(self, name, seconds):
        """A closed outermost span measured elsewhere."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds
        self.top += seconds

    def _wrap(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        observe = self._observer(name)
        tracer, opened, clock = self, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    result = observe(args, result)
                return result
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - opened.pop()
                if opened:
                    opened[-1] += dt
                else:
                    tracer.top += dt

        return traced

    def _observer(self, name):
        counts = self.counts

        def denominator(args, result):
            if type(result) is Fraction:
                bits = result.denominator.bit_length()
                if bits > counts["probabilities.denominator_bits_max"]:
                    counts["probabilities.denominator_bits_max"] = bits
            return result

        def trees(args, result):
            counts["fragments.enumerate_trees.trees"] += len(result)
            return result

        def ie_terms(args, result):
            # computed from the input: one term per cut set of the edges
            k = len(args[0].G)
            counts["probabilities.ie_terms"] += 1 << (k - 1) if k else 0
            return denominator(args, result)

        def draws(args, result):
            return _CountingRandom(result, counts)

        def useful(args, result):
            counts["simulate.coupled.useful"] += result[1] is None
            return result

        if name == "probabilities.tree_prob_discrete":
            return ie_terms
        if name.startswith("probabilities."):
            return denominator
        return {"fragments.enumerate_fragmentation_trees": trees,
                "simulate.substream": draws,
                "simulate.coupled_construction": useful}.get(name)

    # -- installing -------------------------------------------------------

    def install(self):
        import importlib
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fragchain.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, meth in list(vars(obj).items()):
                        span = f"{layer}.{name}.{attr}"
                        if attr.startswith("_") or span in UNWRAPPED \
                                or not inspect.isfunction(meth):
                            continue
                        setattr(obj, attr, self._wrap(span, meth))
                        self._undo.append((obj, attr, meth))
        for modname, mod in list(sys.modules.items()):
            if modname != "fragchain" and not modname.startswith("fragchain."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, obj))

    def uninstall(self):
        while self._undo:
            owner, name, obj = self._undo.pop()
            setattr(owner, name, obj)

    # -- moving between processes -------------------------------------------

    def dump(self):
        return {"spans": self.spans, "counts": self.counts, "top": self.top}

    def merge(self, dumped):
        for name, (calls, secs, own) in dumped["spans"].items():
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += secs
            stat[2] += own
        for name, value in dumped["counts"].items():
            if name.endswith("_max"):
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        self.top += dumped["top"]
