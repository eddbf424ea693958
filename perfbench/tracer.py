"""Spans around the public functions of the onebit modules, installed from outside.

``Tracer.install`` replaces every public function of the traced modules by a
timing wrapper, in every module namespace that holds it: ``onebit.cli``
imports its functions by name and ``montecarlo.sweep`` calls its own
module-global ``run_trials``, so patching only the defining module would miss
those calls.  In ``cli`` only ``main`` is wrapped, so that the parser and SVG
helpers stay in ``cli.self_s``.  Each call becomes a span (id, parent id, name, start, end,
attributes), kept in memory until the run writes it out.  Functions called
once per point pair are only counted and timed in aggregate.

The analysis half of this module turns spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time

MODULES = ("cli", "montecarlo", "bounds", "embedding", "geometry", "oracles")

#: Called O(n^2) or O(n) times per command: a span each would swamp the trace.
AGGREGATED = frozenset({
    "embedding.hamming_distance",
    "embedding.words_needed",
    "geometry.geodesic_distance",
})


def _run_trials_attrs(args, kwargs):
    config = args[0] if args else kwargs["config"]
    threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
    return {"n": config.n, "trials": config.trials, "threads": threads}


def _check_rip_attrs(args, kwargs):
    codes = args[0] if args else kwargs["codes"]
    return {"n": codes.n}


#: Span attributes the per-layer rates need, read from the call's arguments.
ATTRS = {
    "montecarlo.run_trials": _run_trials_attrs,
    "embedding.check_rip": _check_rip_attrs,
}


class Tracer:
    """Collects spans and aggregate counters for one process."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, attrs)
        self.totals = {}  # name -> [calls, seconds]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self, package):
        """Wrap the public functions of ``package``'s traced modules wherever they are bound."""
        modules = {short: getattr(package, short) for short in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    if short == "cli" and name != "main":
                        continue  # cli's own helpers (parser, SVG) count as cli.self_s
                    label = f"{short}.{name}"
                    wrappers[obj] = self._counted(label, obj) if label in AGGREGATED else self._span(label, obj)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, label, func):
        attrs_of = ATTRS.get(label)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            attrs = attrs_of(args, kwargs) if attrs_of else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, label, start, end, attrs))

        return wrapper

    def _counted(self, label, func):
        total = self.totals.setdefault(label, [0, 0.0])

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    total[0] += 1
                    total[1] += elapsed

        return wrapper

    def dump(self):
        return {"spans": self.spans, "totals": self.totals}


# ---------------------------------------------------------------- analysis

class Trace:
    """Spans and totals of one traced pass, with the queries the per-layer metrics need."""

    def __init__(self, dumped):
        self.spans = [tuple(s) for s in dumped["spans"]]
        self.totals = dumped["totals"]
        self._by_id = {s[0]: s for s in self.spans}
        self._children = {}
        for s in self.spans:
            self._children.setdefault(s[1], []).append(s)

    def _ancestors(self, span):
        parent = self._by_id.get(span[1])
        while parent is not None:
            yield parent
            parent = self._by_id.get(parent[1])

    def _outermost(self, match):
        """Spans accepted by ``match`` that no accepted span encloses (no double counting)."""
        return [s for s in self.spans if match(s[2]) and not any(match(a[2]) for a in self._ancestors(s))]

    def function(self, label):
        """(calls, seconds) of one function: a span or an aggregate counter."""
        if label in AGGREGATED:
            calls, seconds = self.totals.get(label, (0, 0.0))
            return calls, seconds
        spans = self._outermost(lambda name: name == label)
        return len(spans), sum(s[4] - s[3] for s in spans)

    def layer(self, module):
        """(entries, seconds) of a module: calls into it from outside it, and their time."""
        prefix = module + "."
        spans = self._outermost(lambda name: name.startswith(prefix))
        return len(spans), sum(s[4] - s[3] for s in spans)

    def self_seconds(self, label):
        """Duration of the function's spans minus the part their child spans cover."""
        total = 0.0
        for span in self._outermost(lambda name: name == label):
            covered, reach = 0.0, span[3]
            for child in sorted(self._children.get(span[0], ()), key=lambda c: c[3]):
                lo, hi = max(child[3], reach), min(child[4], span[4])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += span[4] - span[3] - covered
        return total

    def attrs(self, label):
        return [s[5] for s in self.spans if s[2] == label]


def per_layer(trace, threads1_trace=None):
    """Per-layer metrics of one traced pass; ``threads1_trace`` is the same cells at one thread."""
    out = {}
    calls, seconds = trace.function("montecarlo.run_trials")
    runs = trace.attrs("montecarlo.run_trials")
    trials = sum(a["trials"] for a in runs)
    pair_checks = sum(a["trials"] * math.comb(a["n"], 2) for a in runs)
    out["montecarlo.run_trials.s"] = seconds
    out["montecarlo.run_trials.calls"] = calls
    out["montecarlo.trials"] = trials
    out["montecarlo.pair_checks_per_s"] = pair_checks / seconds if seconds > 0 else 0.0
    efficiency = 0.0
    if threads1_trace is not None and seconds > 0:
        threads = max(a["threads"] for a in runs)
        efficiency = threads1_trace.function("montecarlo.run_trials")[1] / (threads * seconds)
    out["montecarlo.parallel_efficiency"] = efficiency
    out["montecarlo.sweep.self_s"] = trace.self_seconds("montecarlo.sweep")
    bounds_calls, bounds_seconds = trace.layer("bounds")
    out["bounds.s"] = bounds_seconds
    out["bounds.calls"] = bounds_calls

    rip_calls, rip_seconds = trace.function("embedding.check_rip")
    rip_pairs = sum(math.comb(a["n"], 2) for a in trace.attrs("embedding.check_rip"))
    out["embedding.check_rip.s"] = rip_seconds
    out["embedding.check_rip.pairs_per_s"] = rip_pairs / rip_seconds if rip_seconds > 0 else 0.0
    for label in ("embedding.read_code_set", "embedding.check_one_to_one", "embedding.sample_map",
                  "embedding.embed_points", "embedding.write_code_set", "geometry.read_point_set",
                  "oracles.rip_exact_three", "oracles.birthday_exact", "oracles.eta_comparison"):
        out[label + ".s"] = trace.function(label)[1]
    for label in ("embedding.hamming_distance", "geometry.geodesic_distance"):
        count, secs = trace.function(label)
        out[label + ".calls"] = count
        out[label + ".s"] = secs
    out["cli.self_s"] = trace.self_seconds("cli.main")
    return out
