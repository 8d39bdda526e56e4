"""Traced run: spans around the calls into each altwronsk module.

Nothing under ``src/`` is edited. The public functions of each module are
wrapped from here, in this process only, and every wrapper records a span
(name, start, end, parent span, run id) in memory. Polynomial arithmetic is
called hundreds of thousands of times per oracle run, so it is not given a
span per call: its time and call counts are added to the innermost open
span instead. A layer's self time is its spans' duration minus their child
spans and the polynomial time recorded on them.

The traced run of a workload has three phases, each under a root span:

- ``pass.untraced``: the workload's CLI invocations, in this process,
  without wrappers; its wall time is the base of ``trace.overhead_s``;
- ``pass.traced``: the same invocations with the wrappers installed; the
  self times and the cli, engine, oracle, polynomial and permutations
  metrics come from this phase;
- ``probe``: direct calls into ``parallel`` at the workload's ``p``
  (partition, a serial walk of every task, reduce, ``compute`` with 1 and 2
  workers unless the commands already ran it, and the fixed cost of a pool
  at p = 2), and small calls into ``permutations`` and ``oracle`` when the
  commands never reach them.

The parallel metrics come from the probe. The permutations, oracle and
polynomial metrics come from the workload's own calls when it makes them,
else from the probe; cli and engine from the workload's own calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import math
import statistics
import sys
import time
from collections import defaultdict

# Sizes at which a layer the workload's commands never reach is probed, so
# that every metric is measured on every workload.
PROBE_SIZES = {"stream": 5, "filter": 4, "oracle": 3}

# compute(2, workers=2) does almost no work, so its time is pool start-up
# plus transport; the median of a few calls steadies it.
FIXED_COST_REPEATS = 5

# The counts that must repeat exactly from run to run.
EXACT_COUNTS = (
    "parallel.tasks",
    "parallel.walk.placements",
    "parallel.walk.terms",
    "permutations.stream.placements",
    "oracle.compositions",
)

_POLYNOMIAL_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                       "derivative", "__eq__")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, span_id, name, start, parent, phase, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self, run_id: str) -> dict:
        return {"run_id": run_id, "id": self.id, "name": self.name,
                "start": self.start, "end": self.end, "parent": self.parent,
                "phase": self.phase, **self.attrs}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_polynomial = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.phase, attrs)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.remove(span)

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        """Wrap the public functions named by the per-layer metrics."""
        from altwronsk import (cli, engine, oracle, parallel, permutations,
                               polynomial)

        self._wrap_everywhere(cli.main, "cli.main")
        self._wrap_everywhere(engine.const_of_p, "engine.const_of_p")
        for name in ("compute", "default_depth", "partition_work", "reduce",
                     "run_task", "run_task_counting"):
            self._wrap_everywhere(getattr(parallel, name), f"parallel.{name}")
        for name in ("brute_force_const", "verify_theorem",
                     "alternating_composition", "symbolic_wronskian",
                     "random_weight_tuple"):
            self._wrap_everywhere(getattr(oracle, name), f"oracle.{name}")
        self._wrap_everywhere(permutations.count_late_growing,
                              "permutations.count_late_growing")
        self._wrap_everywhere(permutations.enumerate_filtered,
                              "permutations.enumerate_filtered",
                              self._generator_wrapper)
        self._wrap_everywhere(permutations.enumerate_backtracking_signed,
                              "permutations.enumerate_backtracking_signed",
                              self._counted_generator_wrapper)
        for name in _POLYNOMIAL_METHODS:
            original = vars(polynomial.Polynomial)[name]
            self._patch(polynomial.Polynomial, name, original,
                        self._timed_polynomial(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap_everywhere(self, original, name, make_wrapper=None) -> None:
        # A module that did "from .x import f" holds its own reference to f,
        # so every altwronsk module that refers to the function is rebound.
        wrapper = (make_wrapper or self._function_wrapper)(original, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "altwronsk" and not module_name.startswith(
                    "altwronsk."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _function_wrapper(self, original, name):
        signature = inspect.signature(original)
        describe = _DESCRIBE.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if describe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    describe(span.attrs, bound.arguments, result)
            return result

        return wrapper

    def _generator_wrapper(self, original, name):
        # The span runs from the first item requested to exhaustion.
        @functools.wraps(original)
        def wrapper(p, *args, **kwargs):
            with self.span(name, p=p) as span:
                emitted = 0
                for item in original(p, *args, **kwargs):
                    emitted += 1
                    yield item
                span.attrs["emitted"] = emitted

        return wrapper

    def _counted_generator_wrapper(self, original, name):
        # The streaming walker counts placements only when handed a
        # counter, so one is supplied when the caller passed none.
        @functools.wraps(original)
        def wrapper(p, counter=None):
            counter = [0] if counter is None else counter
            with self.span(name, p=p) as span:
                before = counter[0]
                emitted = 0
                for item in original(p, counter):
                    emitted += 1
                    yield item
                span.attrs["emitted"] = emitted
                span.attrs["placements"] = counter[0] - before

        return wrapper

    def _timed_polynomial(self, original, method):
        key = {"__mul__": "mul", "__rmul__": "mul"}.get(method, method)
        calls_key = f"polynomial.{key}.calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = self._open[-1].attrs
            attrs[calls_key] = attrs.get(calls_key, 0) + 1
            if self._in_polynomial:  # nested: the outer call is timed
                return original(*args, **kwargs)
            self._in_polynomial = True
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                attrs["polynomial.s"] = (attrs.get("polynomial.s", 0.0)
                                         + time.perf_counter() - started)
                self._in_polynomial = False

        return wrapper


def _describe_compute(attrs, arguments, result):
    attrs["p"] = arguments["p"]
    attrs["workers"] = arguments["workers"]


def _describe_walk(attrs, arguments, result):
    part, placements = result
    attrs["placements"] = placements
    attrs["terms"] = part.terms_evaluated


def _describe_composition(attrs, arguments, result):
    attrs["compositions"] = math.factorial(len(arguments["weights"]))


_DESCRIBE = {
    "parallel.compute": _describe_compute,
    "parallel.run_task_counting": _describe_walk,
    "oracle.alternating_composition": _describe_composition,
}


# -- the traced run ------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation: (exit code, captured stdout)."""
    from altwronsk import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # looked up here, so a wrapper is seen
    return code, out.getvalue()


def traced_run(invocations, check, probe_p: int):
    """Run the three phases; return (tracer, checks attempted, failed).

    ``invocations`` are argv lists; ``check(index, code, stdout)`` says
    whether invocation ``index`` produced its expected output.
    """
    tracer = Tracer()
    attempted = failed = 0

    def cli_pass():
        nonlocal attempted, failed
        for index, argv in enumerate(invocations):
            code, stdout = run_cli(argv)
            attempted += 1
            failed += not check(index, code, stdout)

    tracer.phase = "pass.untraced"
    with tracer.span("pass.untraced"):
        cli_pass()
    tracer.install()
    try:
        tracer.phase = "pass.traced"
        with tracer.span("pass.traced"):
            cli_pass()
        tracer.phase = "probe"
        with tracer.span("probe"):
            _probe(tracer, probe_p)
    finally:
        tracer.uninstall()
    return tracer, attempted, failed


def _probe(tracer: Tracer, p: int) -> None:
    from altwronsk import oracle, parallel, permutations

    # Attribute lookups go through the modules, so the wrappers see them.
    with tracer.span("probe.walk", p=p):
        tasks = parallel.partition_work(p, parallel.default_depth(p, 2))
        parts = [parallel.run_task_counting(task)[0] for task in tasks]
        parallel.reduce(parts)
    ran = {(s.attrs["p"], s.attrs["workers"])
           for s in tracer.spans if s.name == "parallel.compute"}
    for workers in (1, 2):
        if (p, workers) not in ran:
            parallel.compute(p, workers=workers)
    with tracer.span("probe.fixed"):
        for _ in range(FIXED_COST_REPEATS):
            parallel.compute(2, workers=2)
    reached = _reached(tracer.spans)
    if "permutations" not in reached:
        sum(1 for _ in permutations.enumerate_backtracking_signed(
            PROBE_SIZES["stream"]))
        sum(1 for _ in permutations.enumerate_filtered(PROBE_SIZES["filter"]))
        permutations.count_late_growing(2 * PROBE_SIZES["filter"])
    if "oracle" not in reached:
        oracle.brute_force_const(PROBE_SIZES["oracle"])


def _reached(spans: list[Span]) -> set[str]:
    """The modules the workload's own commands called into."""
    return {s.name.split(".")[0] for s in spans if s.phase == "pass.traced"}


# -- metrics from spans --------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child spans and polynomial time in it."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id]
            - span.attrs.get("polynomial.s", 0.0) for span in spans}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    reached = _reached(spans)
    traced = [s for s in spans if s.phase == "pass.traced"]
    probe = [s for s in spans if s.phase == "probe"]
    # permutations, oracle and polynomial come from the workload's own
    # calls when it makes them, else from the probe; polynomial arithmetic
    # is only called by the oracle here.
    source = {module: traced if module in reached else probe
              for module in ("permutations", "oracle")}
    source["polynomial"] = source["oracle"]

    def named(group, name):
        return [s for s in group if s.name == name]

    def total(group, name):
        return sum(s.duration for s in named(group, name))

    def attr_sum(group, key, name=None):
        return sum(s.attrs.get(key, 0) for s in group
                   if name is None or s.name == name)

    def layer_self(group, module):
        return sum(own[s.id] for s in group
                   if s.name.startswith(module + "."))

    m: dict[str, tuple[float, str]] = {}

    group = source["permutations"]
    stream = "permutations.enumerate_backtracking_signed"
    stream_s = total(group, stream)
    placements = attr_sum(group, "placements", stream)
    m["permutations.stream.s"] = (stream_s, "s")
    m["permutations.stream.placements"] = (placements, "count")
    m["permutations.stream.ns_per_placement"] = (
        _ratio(stream_s * 1e9, placements), "ns")
    m["permutations.stream.yield_ratio"] = (
        _ratio(attr_sum(group, "emitted", stream), placements), "ratio")
    m["permutations.filter.s"] = (
        total(group, "permutations.enumerate_filtered"), "s")
    m["permutations.late_growing.s"] = (
        total(group, "permutations.count_late_growing"), "s")
    m["permutations.self_s"] = (layer_self(group, "permutations"), "s")

    walk_tasks = [s for s in named(probe, "parallel.run_task_counting")
                  if by_id[s.parent].name == "probe.walk"]
    task_s = [s.duration for s in walk_tasks]
    walk_s = sum(task_s)
    walk_placements = attr_sum(walk_tasks, "placements")
    walk_terms = attr_sum(walk_tasks, "terms")
    partition = [s for s in probe
                 if s.name in ("parallel.default_depth",
                               "parallel.partition_work")
                 and by_id[s.parent].name == "probe.walk"]
    p = named(probe, "probe.walk")[0].attrs["p"]
    compute_s = {
        workers: next(s.duration for s in spans
                      if s.name == "parallel.compute"
                      and (s.attrs["p"], s.attrs["workers"]) == (p, workers))
        for workers in (1, 2)
    }
    fixed = [s.duration for s in probe if s.name == "parallel.compute"
             and by_id[s.parent].name == "probe.fixed"]
    m["parallel.partition.s"] = (sum(s.duration for s in partition), "s")
    m["parallel.tasks"] = (len(walk_tasks), "count")
    m["parallel.walk.s"] = (walk_s, "s")
    m["parallel.walk.placements"] = (walk_placements, "count")
    m["parallel.walk.terms"] = (walk_terms, "count")
    m["parallel.walk.ns_per_placement"] = (
        _ratio(walk_s * 1e9, walk_placements), "ns")
    m["parallel.walk.useful_ratio"] = (
        _ratio(walk_terms, walk_placements), "ratio")
    m["parallel.task.max_s"] = (max(task_s), "s")
    m["parallel.imbalance"] = (
        _ratio(max(task_s), statistics.fmean(task_s)), "ratio")
    m["parallel.compute.w1.s"] = (compute_s[1], "s")
    m["parallel.compute.w2.s"] = (compute_s[2], "s")
    m["parallel.efficiency"] = (_ratio(walk_s, 2 * compute_s[2]), "ratio")
    m["parallel.fixed_s"] = (statistics.median(fixed), "s")
    m["parallel.reduce.s"] = (total(probe, "parallel.reduce"), "s")
    m["parallel.self_s"] = (layer_self(traced, "parallel"), "s")

    m["engine.const_of_p.s"] = (total(traced, "engine.const_of_p"), "s")
    m["engine.self_s"] = (layer_self(traced, "engine"), "s")

    group = source["oracle"]
    composition = "oracle.alternating_composition"
    composition_s = total(group, composition)
    compositions = attr_sum(group, "compositions", composition)
    m["oracle.composition.s"] = (composition_s, "s")
    m["oracle.compositions"] = (compositions, "count")
    m["oracle.us_per_composition"] = (
        _ratio(composition_s * 1e6, compositions), "us")
    m["oracle.wronskian.s"] = (total(group, "oracle.symbolic_wronskian"), "s")
    m["oracle.self_s"] = (layer_self(group, "oracle"), "s")

    group = source["polynomial"]
    m["polynomial.mul.calls"] = (attr_sum(group, "polynomial.mul.calls"),
                                 "count")
    m["polynomial.derivative.calls"] = (
        attr_sum(group, "polynomial.derivative.calls"), "count")
    m["polynomial.self_s"] = (attr_sum(group, "polynomial.s"), "s")

    m["cli.self_s"] = (layer_self(traced, "cli"), "s")
    m["trace.overhead_s"] = (
        total(spans, "pass.traced") - total(spans, "pass.untraced"), "s")
    return m
